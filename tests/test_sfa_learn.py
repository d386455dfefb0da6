import random

import pytest

from symfa import (
    BOT, INF, Interval, Or, Sfa, TOP, accepts, equiv, pred_equiv,
)
from symfa.algebra import INTERVAL_NAT, prop_algebra
from symfa.dfa_learn import dfa_equiv, prefix_tree_dfa
from symfa.generate import random_sfa
from symfa.sfa_learn import (
    agrees, char_sfa, concretize_alg, concretize_sfa, decontaminate,
    generalize_alg, generalize_dfa, infer_sfa,
)

from conftest import FOUR_STATE_SAMPLE, TWO_STATE_SAMPLE, random_noise_for_sfa


def test_concretize_alg():
    assert concretize_alg(INTERVAL_NAT,
                          [Interval(0, 100), Interval(100, INF)]) \
        == [{0}, {100}]
    assert concretize_alg(INTERVAL_NAT, [TOP]) == [{0}]
    assert concretize_alg(INTERVAL_NAT, [Interval(5, 9), BOT]) \
        == [{5}, set()]


def test_generalize_alg_two_runs():
    out = generalize_alg(INTERVAL_NAT, [{0}, {100, 200}])
    assert pred_equiv(INTERVAL_NAT, out[0], Interval(0, 100))
    assert pred_equiv(INTERVAL_NAT, out[1], Interval(100, INF))


def test_generalize_alg_interleaved():
    out = generalize_alg(INTERVAL_NAT, [{0, 100, 400, 500}, {150, 200}])
    assert pred_equiv(INTERVAL_NAT, out[0],
                      Or(Interval(0, 150), Interval(400, INF)))
    assert pred_equiv(INTERVAL_NAT, out[1], Interval(150, 400))


def test_generalize_alg_single_block():
    out = generalize_alg(INTERVAL_NAT, [{0}])
    assert pred_equiv(INTERVAL_NAT, out[0], TOP)


def test_generalize_alg_stretches_first_to_least_letter():
    out = generalize_alg(INTERVAL_NAT, [{50}, {80}])
    assert pred_equiv(INTERVAL_NAT, out[0], Interval(0, 80))
    assert pred_equiv(INTERVAL_NAT, out[1], Interval(80, INF))


def test_generalize_alg_errors():
    with pytest.raises(ValueError):
        generalize_alg(INTERVAL_NAT, [{1}, {1, 2}])
    with pytest.raises(ValueError):
        generalize_alg(INTERVAL_NAT, [set(), set()])


def test_generalize_rejects_prop():
    with pytest.raises(ValueError):
        generalize_alg(prop_algebra(2), [{"00"}])


def test_concretize_sfa(two_state_target):
    d = concretize_sfa(two_state_target)
    assert d.alphabet == (0, 100, 200)
    assert d.run((0,)) == "q1"
    assert d.run((0, 200)) == "q0"
    assert d.run((100,)) == "q0"


def test_generalize_of_concretize_roundtrip(two_state_target):
    d = concretize_sfa(two_state_target)
    back = generalize_dfa(d)
    assert equiv(back, two_state_target) is True


def test_char_sfa_two_state(two_state_target):
    assert char_sfa(two_state_target) == TWO_STATE_SAMPLE


def test_char_sfa_degenerate():
    dead = Sfa(INTERVAL_NAT, ("a",), "a", (), (("a", TOP, "a"),))
    assert char_sfa(dead) == {(): 0}


def test_decontaminate_drops_foreign_letters(two_state_target):
    s = dict(TWO_STATE_SAMPLE)
    s[(150,)] = 0
    assert decontaminate(INTERVAL_NAT, s) == TWO_STATE_SAMPLE


def test_decontaminate_keeps_pure_sample(two_state_target):
    assert decontaminate(INTERVAL_NAT, TWO_STATE_SAMPLE) == TWO_STATE_SAMPLE


def test_decontaminate_four_state(four_state_target):
    s = dict(FOUR_STATE_SAMPLE)
    s[(150,)] = 1
    s[(150, 250)] = 1
    assert decontaminate(INTERVAL_NAT, s) == FOUR_STATE_SAMPLE


def test_infer_sfa_recovers_two_state(two_state_target):
    assert equiv(infer_sfa(INTERVAL_NAT, TWO_STATE_SAMPLE),
                 two_state_target) is True
    contaminated = dict(TWO_STATE_SAMPLE)
    contaminated[(150,)] = 0
    assert equiv(infer_sfa(INTERVAL_NAT, contaminated),
                 two_state_target) is True


def test_infer_sfa_recovers_four_state(four_state_target):
    s = dict(FOUR_STATE_SAMPLE)
    s[(150,)] = 1
    s[(150, 250)] = 1
    assert equiv(infer_sfa(INTERVAL_NAT, s), four_state_target) is True


def test_infer_sfa_single_word():
    m = infer_sfa(INTERVAL_NAT, {(5,): 1})
    assert accepts(m, (5,))


def test_infer_sfa_always_agrees():
    rng = random.Random(12)
    for _ in range(100):
        words = {}
        for _ in range(rng.randint(1, 10)):
            w = tuple(rng.choice([0, 3, 7, 1000, INF])
                      for _ in range(rng.randint(0, 3)))
            words.setdefault(w, rng.randint(0, 1))
        m = infer_sfa(INTERVAL_NAT, words)
        assert agrees(m, words)


def test_symbolic_prefix_tree_one_letter():
    m = generalize_dfa(prefix_tree_dfa({(0,): 1, (100,): 0}, INTERVAL_NAT))
    assert accepts(m, (0,))
    assert accepts(m, (50,))
    assert not accepts(m, (100,))
    assert not accepts(m, (200,))
    assert not accepts(m, ())


def test_roundtrip_with_noise():
    rng = random.Random(13)
    for i in range(30):
        m = random_sfa(rng, max_states=5)
        s = dict(char_sfa(m))
        s.update(random_noise_for_sfa(rng, m, 15))
        assert equiv(infer_sfa(m.algebra, s), m) is True
