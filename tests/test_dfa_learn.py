import random

import pytest

from symfa.algebra import INTERVAL_NAT
from symfa.dfa_learn import (
    Dfa, SampleIndex, char_dfa, dfa_equiv, distinguishing_word, infer_dfa,
    lex_access_words, minimize_dfa, prefix_tree_dfa,
)

from conftest import (
    FOUR_STATE_SAMPLE, TWO_STATE_SAMPLE, random_dfa, random_noise_for_dfa,
)


def two_state_dfa():
    # concrete version of the two-state target over letters {0, 100, 200}
    delta = {
        ("q0", 0): "q1", ("q0", 100): "q0", ("q0", 200): "q0",
        ("q1", 0): "q1", ("q1", 100): "q1", ("q1", 200): "q0",
    }
    return Dfa(INTERVAL_NAT, (0, 100, 200), ("q0", "q1"), "q0", ("q1",),
               delta)


def test_sample_equiv():
    equiv = SampleIndex(TWO_STATE_SAMPLE, INTERVAL_NAT).equiv
    assert equiv((100,), (200,))
    assert not equiv((), (0,))
    assert not equiv((0,), (100,))  # extension 100 disagrees
    # words without common labeled extensions are equivalent
    assert equiv((999,), (0,))


def test_lex_access_words():
    access = lex_access_words(two_state_dfa())
    assert access == {"q0": (), "q1": (0,)}


def test_lex_access_words_unreachable():
    d = Dfa(INTERVAL_NAT, (0,), ("a", "b"), "a", (),
            {("a", 0): "a", ("b", 0): "b"})
    with pytest.raises(ValueError):
        lex_access_words(d)


def test_distinguishing_word():
    d = two_state_dfa()
    assert distinguishing_word(d, "q0", "q1") == ()
    with pytest.raises(ValueError):
        distinguishing_word(d, "q0", "q0")


def test_char_dfa_two_state():
    assert char_dfa(two_state_dfa()) == TWO_STATE_SAMPLE


def test_char_dfa_degenerate():
    all_acc = Dfa(INTERVAL_NAT, (0,), ("a",), "a", ("a",), {("a", 0): "a"})
    assert char_dfa(all_acc) == {(): 1}
    none_acc = Dfa(INTERVAL_NAT, (0,), ("a",), "a", (), {("a", 0): "a"})
    assert char_dfa(none_acc) == {(): 0}


def test_char_dfa_properties():
    rng = random.Random(3)
    for _ in range(40):
        d = random_dfa(rng)
        s = char_dfa(d)
        if len(s) == 1:
            continue
        access = sorted(lex_access_words(d).values())
        idx = SampleIndex(s, d.algebra)
        # access word set is prefix-closed
        for w in access:
            for i in range(len(w)):
                assert w[:i] in access
        # distinct access words are told apart by the sample
        for i, u in enumerate(access):
            for v in access[i + 1:]:
                assert not idx.equiv(u, v)
        # every extension of an access word is told apart from every
        # access word reaching a different state
        for u in access:
            for a in d.alphabet:
                for v in access:
                    if d.run(u + (a,)) != d.run(v):
                        assert not idx.equiv(u + (a,), v)


def test_infer_dfa_recovers_target():
    d = two_state_dfa()
    assert dfa_equiv(infer_dfa(char_dfa(d), INTERVAL_NAT), d)


def test_infer_dfa_trivial_samples():
    out = infer_dfa({(): 1}, INTERVAL_NAT)
    assert out.accepts(())
    assert out.alphabet == ()
    out = infer_dfa({(5,): 1}, INTERVAL_NAT)
    assert out.accepts((5,))
    assert not out.accepts(())


def test_infer_dfa_ambiguous_letter_falls_back(four_state_target):
    # a letter the sample cannot place in a unique state forces the
    # prefix-tree fallback
    s = dict(FOUR_STATE_SAMPLE)
    s[(150,)] = 1
    s[(150, 250)] = 1
    out = infer_dfa(s, INTERVAL_NAT)
    assert out == prefix_tree_dfa(s, INTERVAL_NAT)


def test_infer_dfa_unlabeled_row_falls_back():
    # the empty word is a row but no sample word, so the rows are no
    # states; a one-state rejecting DFA would agree with the sample
    s = {(0,): 0}
    assert infer_dfa(s, INTERVAL_NAT) == prefix_tree_dfa(s, INTERVAL_NAT)
    assert len(prefix_tree_dfa(s, INTERVAL_NAT).states) == 3


def test_infer_dfa_agrees_with_arbitrary_samples():
    rng = random.Random(4)
    for _ in range(50):
        words = {}
        for _ in range(rng.randint(1, 12)):
            w = tuple(rng.choice([0, 1, 2])
                      for _ in range(rng.randint(0, 4)))
            words.setdefault(w, rng.randint(0, 1))
        out = infer_dfa(words, INTERVAL_NAT)
        for w, b in words.items():
            assert out.accepts(w) == bool(b)


def test_infer_dfa_noise_robust():
    rng = random.Random(9)
    for _ in range(40):
        d = random_dfa(rng)
        s = dict(char_dfa(d))
        s.update(random_noise_for_dfa(rng, d, 20))
        assert dfa_equiv(infer_dfa(s, INTERVAL_NAT), d)


@pytest.mark.parametrize("learn", [infer_dfa, prefix_tree_dfa])
@pytest.mark.parametrize("sample", [{("a",): 1, (0,): 0},
                                    {(-1,): 1, (0,): 0}])
def test_sample_letters_are_checked_against_the_algebra(learn, sample):
    # a string letter failed the sort with TypeError, and -1 became a
    # letter of the Dfa's alphabet, over interval-nat
    with pytest.raises(ValueError):
        learn(sample, INTERVAL_NAT)


def test_prefix_tree_shape():
    s = dict(FOUR_STATE_SAMPLE)
    s[(150,)] = 1
    s[(150, 250)] = 1
    t = prefix_tree_dfa(s, INTERVAL_NAT)
    # one state per prefix plus the rejecting sink
    prefixes = {w[:i] for w in s for i in range(len(w) + 1)}
    assert len(t.states) == len(prefixes) + 1
    for w, b in s.items():
        assert t.accepts(w) == bool(b)
    assert not t.accepts((150, 250, 0))


def test_minimize_dfa():
    d = Dfa(INTERVAL_NAT, (0, 1), ("a", "b", "c"), "a", ("b", "c"), {
        ("a", 0): "b", ("a", 1): "c",
        ("b", 0): "b", ("b", 1): "b",
        ("c", 0): "c", ("c", 1): "c",
    })
    small = minimize_dfa(d)
    assert len(small.states) == 2
    assert dfa_equiv(small, d)
    assert small.states == ("s0", "s1")


def test_dfa_equiv():
    d = two_state_dfa()
    assert dfa_equiv(d, minimize_dfa(d))
    other = Dfa(d.algebra, d.alphabet, d.states, d.initial, ("q0",), d.delta)
    assert not dfa_equiv(d, other)


def test_dfa_equiv_rejects_letters_outside_the_alphabet():
    zeros = Dfa(INTERVAL_NAT, (0,), ("a",), "a", ("a",), {("a", 0): "a"})
    loops = {("a", 0): "a", ("a", 5): "a"}
    everything = Dfa(INTERVAL_NAT, (0, 5), ("a",), "a", ("a",), loops)
    delta = {**loops, ("a", 5): "b", ("b", 0): "b", ("b", 5): "b"}
    only_zeros = Dfa(INTERVAL_NAT, (0, 5), ("a", "b"), "a", ("a",), delta)
    assert dfa_equiv(zeros, only_zeros) and dfa_equiv(only_zeros, zeros)
    assert not dfa_equiv(zeros, everything)
    assert not dfa_equiv(everything, zeros)
