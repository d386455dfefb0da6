"""End-to-end acceptance checks: worked examples reproduced exactly,
randomized contracts for the learning pipeline and the automata
operations, structural bounds, canonicity, and the query lower bound."""

import random
import time

import pytest

from symfa import (
    INF, Interval, Or, Sfa, accepts, complement, complete_sfa, determinize,
    equiv, minimize, pred_equiv, pred_size, product, size_metrics,
    to_canonical_intervals,
)
from symfa.algebra import INTERVAL_NAT, contains, min_model
from symfa.dfa_learn import (
    SampleIndex, char_dfa, dfa_equiv, infer_dfa, lex_access_words,
    minimize_dfa, prefix_tree_dfa,
)
from symfa.generate import random_pred, random_sfa
from symfa.query_learn import (
    adversarial_prop_teacher, enumerating_predicate_learner,
)
from symfa.sfa_learn import (
    char_sfa, concretize_alg, decontaminate, generalize_alg, infer_sfa,
)

from conftest import (
    FOUR_STATE_SAMPLE, TWO_STATE_SAMPLE, identical, random_dfa,
    random_noise_for_dfa, random_noise_for_sfa, random_partition,
    rename_and_rebracket, representative_letters,
)


# --------------------------------------------------------------------------
# 1. characteristic sample of the two-state model, exact


def test_01_char_sample_exact(two_state_target):
    t0 = time.monotonic()
    assert char_sfa(two_state_target) == {
        (): 0, (0,): 1, (100,): 0, (200,): 0,
        (0, 0): 1, (0, 100): 1, (0, 200): 0,
    }
    assert time.monotonic() - t0 < 1


# --------------------------------------------------------------------------
# 2. inference from that sample, clean and contaminated


def test_02_infer_from_char_sample(two_state_target):
    t0 = time.monotonic()
    assert equiv(infer_sfa(INTERVAL_NAT, TWO_STATE_SAMPLE),
                 two_state_target) is True
    contaminated = dict(TWO_STATE_SAMPLE)
    contaminated[(150,)] = 0
    assert equiv(infer_sfa(INTERVAL_NAT, contaminated),
                 two_state_target) is True
    assert time.monotonic() - t0 < 1


# --------------------------------------------------------------------------
# 3. four-state model end to end


def test_03a_char_sample_is_exactly_eight_pairs(four_state_target):
    # The characteristic sample is the labeled S.E u S.Sigma.E of the
    # concretized target, worked out by hand:
    #   S     = {(), (0,), (100,), (0, 100)}, the lex access words of
    #           qi, q1, q2 and q3;
    #   Sigma = {0, 100}, the least models of the guards;
    #   E     = {(), (0,)}: the empty word separates accepting from
    #           rejecting states, and (0,) separates qi from q3 and q1
    #           from q2.
    # That is the eight hand pairs plus six more words.  The eight pairs
    # alone cannot be the sample: char_dfa promises that every one-letter
    # extension of an access word is told apart from every access word
    # reaching a different state, and the eight pairs break that promise
    # in seven places.  For one, (100, 0) reaches q3 and () stays in qi,
    # yet their only common extension in the eight pairs is the empty
    # word, and both are labeled 0.
    expected = {
        **FOUR_STATE_SAMPLE,
        (0, 0, 0): 1, (0, 100, 100): 0, (100, 0, 0): 0, (100, 100, 0): 0,
        (0, 100, 0, 0): 0, (0, 100, 100, 0): 0,
    }
    t0 = time.monotonic()
    s = char_sfa(four_state_target)
    assert s == expected
    assert not SampleIndex(s, INTERVAL_NAT).equiv((100, 0), ())
    assert SampleIndex(FOUR_STATE_SAMPLE, INTERVAL_NAT).equiv((100, 0), ())
    assert time.monotonic() - t0 < 1


def test_03b_char_sample_contains_the_eight_pairs(four_state_target):
    t0 = time.monotonic()
    s = char_sfa(four_state_target)
    for w, b in FOUR_STATE_SAMPLE.items():
        assert s[w] == b
    assert equiv(infer_sfa(INTERVAL_NAT, s), four_state_target) is True
    assert time.monotonic() - t0 < 1


def test_03c_decontaminate_removes_the_contaminant(four_state_target):
    t0 = time.monotonic()
    s = dict(FOUR_STATE_SAMPLE)
    s[(150,)] = 1
    s[(150, 250)] = 1
    assert decontaminate(INTERVAL_NAT, s) == FOUR_STATE_SAMPLE
    assert time.monotonic() - t0 < 1


def test_03d_infer_recovers_model_from_contaminated(four_state_target):
    t0 = time.monotonic()
    s = dict(FOUR_STATE_SAMPLE)
    s[(150,)] = 1
    s[(150, 250)] = 1
    assert equiv(infer_sfa(INTERVAL_NAT, s), four_state_target) is True
    assert time.monotonic() - t0 < 1


def test_03e_direct_inference_falls_back_to_prefix_tree():
    # without decontamination the letter 150 cannot be placed in a unique
    # state, so concrete inference returns the prefix-tree automaton
    t0 = time.monotonic()
    s = dict(FOUR_STATE_SAMPLE)
    s[(150,)] = 1
    s[(150, 250)] = 1
    assert infer_dfa(s, INTERVAL_NAT) == prefix_tree_dfa(s, INTERVAL_NAT)
    assert time.monotonic() - t0 < 1


# --------------------------------------------------------------------------
# 4. generalizing an interleaved concrete partition, exact


def test_04_generalize_interleaved_partition():
    t0 = time.monotonic()
    out = generalize_alg(INTERVAL_NAT, [{0, 100, 400, 500}, {150, 200}])
    assert pred_equiv(INTERVAL_NAT, out[0],
                      Or(Interval(0, 150), Interval(400, INF)))
    assert pred_equiv(INTERVAL_NAT, out[1], Interval(150, 400))
    assert time.monotonic() - t0 < 1


# --------------------------------------------------------------------------
# 5. learning round trip on random models, with and without noise


def test_05_roundtrip_200_random_sfas():
    t0 = time.monotonic()
    rng = random.Random(105)
    for i in range(200):
        m = random_sfa(rng, max_states=6, max_out=4, max_endpoint=1000)
        s = dict(char_sfa(m))
        if i >= 100:
            s.update(random_noise_for_sfa(rng, m, rng.randint(1, 20)))
        assert equiv(infer_sfa(m.algebra, s), m) is True
    assert time.monotonic() - t0 < 60


# --------------------------------------------------------------------------
# 6. concretize -> augment -> generalize returns the partition


def _augment(rng, pred, block):
    out = set(block)
    ivls = to_canonical_intervals(INTERVAL_NAT, pred)
    for _ in range(rng.randint(0, 3)):
        lo, hi = rng.choice(ivls)
        if isinstance(hi, int):
            out.add(rng.randint(lo, hi - 1))
        else:
            out.add(rng.choice([lo + rng.randint(0, 10 ** 6), INF]))
    return out


def test_06_concretize_augment_generalize_500_partitions():
    t0 = time.monotonic()
    rng = random.Random(106)
    for _ in range(500):
        pp = random_partition(rng, INTERVAL_NAT, max_blocks=5)
        blocks = concretize_alg(INTERVAL_NAT, pp)
        augmented = [_augment(rng, pred, block)
                     for pred, block in zip(pp, blocks)]
        back = generalize_alg(INTERVAL_NAT, augmented)
        for want, got in zip(pp, back):
            assert pred_equiv(INTERVAL_NAT, want, got)
    assert time.monotonic() - t0 < 10


# --------------------------------------------------------------------------
# 7 + 8. operations against a concrete walk oracle, with size bounds


def _pairs(seed, count):
    rng = random.Random(seed)
    pool = [200, 500, 800]
    for _ in range(count):
        yield (random_sfa(rng, max_states=4, max_out=3, endpoint_pool=pool),
               random_sfa(rng, max_states=4, max_out=3, endpoint_pool=pool))


def _concrete_table(m, letters):
    tbl = {}
    for q in m.states:
        edges = m.out(q)
        for a in letters:
            dst = [d for p, d in edges if contains(m.algebra, p, a)]
            assert len(dst) == 1, "not deterministic complete at %r" % (a,)
            tbl[q, a] = dst[0]
    return tbl


def test_07_operations_agree_with_concrete_walks():
    t0 = time.monotonic()
    for m1, m2 in _pairs(107, 200):
        inter = product(m1, m2)
        union = product(m1, m2, "union")
        comp = complement(m1)
        det = determinize(m1)
        mini = minimize(m1, "neat")
        letters = sorted(set(representative_letters(
            INTERVAL_NAT,
            [p for mm in (m1, m2) for _, p, _ in mm.transitions]))
            | {INF})
        machines = [m1, m2, complete_sfa(inter), union, comp, det, mini]
        tables = [_concrete_table(mm, letters) for mm in machines]

        def walk(states, depth):
            a1, a2, ai, au, ac, ad, am = (
                q in mm.accepting for mm, q in zip(machines, states))
            assert ai == (a1 and a2)
            assert au == (a1 or a2)
            assert ac == (not a1)
            assert ad == a1
            assert am == a1
            if depth == 5:
                return
            for a in letters:
                walk(tuple(t[q, a] for t, q in zip(tables, states)),
                     depth + 1)

        walk(tuple(mm.initial for mm in machines), 0)
    assert time.monotonic() - t0 < 120


def test_08a_product_out_degree_bound():
    for m1, m2 in _pairs(107, 200):
        bound = 2 * (size_metrics(m1).m + size_metrics(m2).m)
        assert size_metrics(product(m1, m2)).m <= bound


def test_08b_canonical_interval_count_bound():
    rng = random.Random(108)
    for _ in range(1000):
        psi = random_pred(rng, INTERVAL_NAT)
        assert len(to_canonical_intervals(INTERVAL_NAT, psi)) \
            <= 2 * pred_size(psi)


def test_08c_completion_bound_per_state():
    rng = random.Random(1080)
    for _ in range(100):
        m = random_sfa(rng, max_states=5)
        kept = [t for t in m.transitions if rng.random() < 0.6]
        partial = Sfa(m.algebra, m.states, m.initial, m.accepting, kept)
        done = complete_sfa(partial)
        deg = {q: 0 for q in done.states}
        for src, _, _ in partial.transitions:
            deg[src] += 1
        added = {q: 0 for q in done.states}
        for src, _, _ in done.transitions:
            added[src] += 1
        for q in partial.states:
            assert added[q] - deg[q] <= deg[q] + 1


# --------------------------------------------------------------------------
# 9. minimization is idempotent and canonical


def test_09_minimize_canonical_50_trials():
    t0 = time.monotonic()
    rng = random.Random(109)
    for _ in range(50):
        m = random_sfa(rng, max_states=5)
        variant = rename_and_rebracket(rng, m)
        once = minimize(variant, "neat")
        assert identical(minimize(once, "neat"), once)
        assert identical(once, minimize(m, "neat"), m)
    assert time.monotonic() - t0 < 30


# --------------------------------------------------------------------------
# 10. the adversarial teacher forces 2^k - 1 queries


@pytest.mark.parametrize("k,least", [(2, 3), (3, 7), (4, 15)])
def test_10_query_lower_bound(k, least):
    t0 = time.monotonic()
    teacher = adversarial_prop_teacher(k)
    enumerating_predicate_learner(k, teacher)
    issued = teacher.query_count - 1  # the final yes answer is free
    assert issued >= least == 2 ** k - 1
    assert time.monotonic() - t0 < 5


# --------------------------------------------------------------------------
# 11. concrete-DFA learning standalone


def test_11_dfa_roundtrip_and_sample_structure():
    t0 = time.monotonic()
    rng = random.Random(111)
    for _ in range(200):
        d = random_dfa(rng, max_states=6, max_alpha=4)
        s = dict(char_dfa(d))
        s.update(random_noise_for_dfa(rng, d, rng.randint(0, 20)))
        assert dfa_equiv(infer_dfa(s, d.algebra, d.alphabet), d)

        base = char_dfa(d)
        if len(base) == 1:
            continue
        idx = SampleIndex(base, d.algebra)
        access = sorted(lex_access_words(d).values())
        # the access word of every state is a labeled word, prefix-closed
        for w in access:
            assert w in base
            for i in range(len(w)):
                assert w[:i] in access
        # distinct access words are told apart by the sample alone
        for i, u in enumerate(access):
            for v in access[i + 1:]:
                assert not idx.equiv(u, v)
        # every one-letter extension is told apart from every access word
        # reaching a different state
        for u in access:
            for a in d.alphabet:
                for v in access:
                    if d.run(u + (a,)) != d.run(v):
                        assert not idx.equiv(u + (a,), v)
    assert time.monotonic() - t0 < 60
