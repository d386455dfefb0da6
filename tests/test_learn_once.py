"""The learner checks each sample word once: infer_sfa against the order
that walked the whole sample with agrees on both paths (wherever that
order returns no prefix tree), one class search of the full index as the
only check of the removed words, char_dfa's per-state labels against the
per-word loop, its separator table against distinguishing_word, the
cleaned index cut from the full one, and letters outside the algebra
rejected before anything is sorted."""

import random

import pytest
from hypothesis import given

from symfa import sfa_learn
from symfa.algebra import INTERVAL_INT, INTERVAL_NAT
from symfa.dfa_learn import (
    Dfa, SampleIndex, _grow_rows, _separators, char_dfa, distinguishing_word,
    lex_access_words,
)
from symfa.generate import random_sfa
from symfa.sfa import format_sfa, sample_dict
from symfa.sfa_learn import (
    agrees, char_sfa, concretize_sfa, decontaminate, generalize_dfa,
    infer_sfa, merged_prefix_tree,
)

from conftest import (
    TWO_STATE_SAMPLE, assert_fallback, interval_samples, minimal_target,
    random_dfa, random_noise_for_sfa,
)


# ---------------------------------------------------------------------------
# References: infer_sfa with the full agrees walk on both paths, and
# char_dfa labelling word by word, kept verbatim in behaviour, except that
# the reference returns None where it returned a prefix tree (infer_sfa
# merges states there)


def ref_hypothesis(alg, idx):
    rows = _grow_rows(idx, alg, idx.letters())
    return None if rows is None else generalize_dfa(rows)


def ref_infer_sfa(alg, sample):
    idx = SampleIndex(sample, alg)
    sample = idx.words
    cleaned = decontaminate(alg, sample)
    if len(cleaned) < len(sample):
        if cleaned:
            candidate = ref_hypothesis(alg, SampleIndex(cleaned, alg))
            if candidate is not None and agrees(candidate, sample):
                return candidate
        return None
    rows = _grow_rows(idx, alg, idx.letters())
    if rows is not None:
        candidate = generalize_dfa(rows)
        if agrees(candidate, sample):
            return candidate
    return None


def check_against_reference(sample):
    """infer_sfa's output is the reference's, byte for byte, or where the
    reference returns None the full sample's merged tree, a fallback
    output (assert_fallback)."""
    learned = infer_sfa(INTERVAL_NAT, sample)
    ref = ref_infer_sfa(INTERVAL_NAT, sample)
    if ref is None:
        assert format_sfa(learned) == format_sfa(
            merged_prefix_tree(INTERVAL_NAT, sample))
        assert_fallback(learned, INTERVAL_NAT, sample)
    else:
        assert format_sfa(learned) == format_sfa(ref)
        assert agrees(learned, sample)


def ref_char_dfa_labels(d, s_words, e_words):
    pairs = {}
    for s in s_words:
        for e in e_words:
            pairs[s + e] = 1 if d.accepts(s + e) else 0
        for a in d.alphabet:
            for e in e_words:
                w = s + (a,) + e
                pairs[w] = 1 if d.accepts(w) else 0
    return sample_dict(pairs.items())


# ---------------------------------------------------------------------------
# Samples: noisy supersets of characteristic samples, noise labelled at
# random (contaminants), and characteristic samples with words dropped


def noisy(rng, target, count, max_letter, honest):
    sample = dict(char_sfa(target))
    for w, b in random_noise_for_sfa(rng, target, count,
                                     max_letter=max_letter).items():
        sample.setdefault(w, b if honest else rng.randint(0, 1))
    return sample


def dropped(rng, target, share):
    sample = {w: b for w, b in char_sfa(target).items()
              if rng.random() >= share}
    return sample or {(): 0}


def seeded_samples():
    out = []
    for seed in range(12):
        rng = random.Random(seed)
        target = random_sfa(rng, max_states=6, max_endpoint=40)
        out.append(noisy(rng, target, 15, 60, honest=True))
        out.append(noisy(rng, target, 15, 60, honest=False))
        out.append(dropped(rng, target, 0.2))
    return out


@given(interval_samples())
def test_infer_sfa_matches_reference(case):
    _, sample = case
    if sample:
        check_against_reference(sample)


@pytest.mark.parametrize("sample", seeded_samples())
def test_infer_sfa_matches_reference_seeded(sample):
    check_against_reference(sample)


def test_infer_sfa_matches_reference_at_16_states():
    rng = random.Random(16)
    target = minimal_target(16, 16)
    for sample in (char_sfa(target), noisy(rng, target, 30, 1000, True),
                   noisy(rng, target, 30, 1000, False)):
        check_against_reference(sample)


# ---------------------------------------------------------------------------
# The removed words are checked by one class search of the full index,
# which decides as agrees on exactly those words; infer_sfa walks no word


def watch_agrees(monkeypatch):
    calls = []
    monkeypatch.setattr(sfa_learn, "agrees",
                        lambda m, s: calls.append(sample_dict(s))
                        or agrees(m, s))
    return calls


def watch_searches(monkeypatch):
    """(words, verdict) of each SampleIndex.agrees_with call, in order."""
    calls = []
    search = SampleIndex.agrees_with

    def watched(idx, start, accepts, step):
        verdict = search(idx, start, accepts, step)
        calls.append((idx.words, verdict))
        return verdict

    monkeypatch.setattr(SampleIndex, "agrees_with", watched)
    return calls


@pytest.mark.parametrize("seed", range(6))
def test_no_agrees_walk_when_nothing_is_removed(seed, monkeypatch):
    rng = random.Random(seed)
    target = random_sfa(rng, max_states=6, max_endpoint=40)
    sample = char_sfa(target)
    assert decontaminate(INTERVAL_NAT, sample) == sample
    calls, searches = watch_agrees(monkeypatch), watch_searches(monkeypatch)
    infer_sfa(INTERVAL_NAT, sample)
    assert not calls
    # row growing's closing search is the only one
    assert searches == [(sample, True)]


@pytest.mark.parametrize("honest", [True, False])
@pytest.mark.parametrize("seed", range(6))
def test_agrees_sees_exactly_the_removed_words(seed, honest, monkeypatch):
    rng = random.Random(seed)
    target = random_sfa(rng, max_states=6, max_endpoint=40)
    sample = noisy(rng, target, 20, 60, honest)
    cleaned = decontaminate(INTERVAL_NAT, sample)
    removed = {w: b for w, b in sample.items() if w not in cleaned}
    calls, searches = watch_agrees(monkeypatch), watch_searches(monkeypatch)
    infer_sfa(INTERVAL_NAT, sample)
    monkeypatch.undo()
    sub = SampleIndex(cleaned, INTERVAL_NAT) if cleaned else None
    rows = sub and _grow_rows(sub, INTERVAL_NAT, sub.letters())
    assert not calls
    if removed and rows is not None:
        # the cleaned words pass row growing's search; the full index's
        # search then checks the removed words too, as agrees did alone
        assert searches[0] == (cleaned, True)
        (words, verdict), = searches[1:]
        assert words == sample
        assert {w: b for w, b in words.items() if w not in cleaned} \
            == removed
        assert verdict == agrees(generalize_dfa(rows), removed)
    else:
        # no rows on the cleaned words: the full sample's states are
        # merged at once, and the merged tree needs no check; or nothing
        # was removed, and row growing's search was the only one
        assert len(searches) <= 1


def test_removed_words_only_and_the_fallback_when_they_disagree(
        monkeypatch):
    # 150 is not kept, and the cleaned hypothesis, the two-state target,
    # accepts (150, 0), which the contaminant labels 0
    sample = dict(TWO_STATE_SAMPLE)
    sample[(150, 0)] = 0
    calls, searches = watch_agrees(monkeypatch), watch_searches(monkeypatch)
    learned = infer_sfa(INTERVAL_NAT, sample)
    assert not calls
    assert searches == [(TWO_STATE_SAMPLE, True), (sample, False)]
    assert ref_infer_sfa(INTERVAL_NAT, sample) is None
    assert_fallback(learned, INTERVAL_NAT, sample)


# ---------------------------------------------------------------------------
# char_dfa labels by state


@pytest.mark.parametrize("seed", range(20))
def test_char_dfa_items_equal_the_old_loop(seed):
    rng = random.Random(seed)
    d = concretize_sfa(random_sfa(rng, max_states=7, max_endpoint=40))
    sample = char_dfa(d)
    if len(d.accepting) in (0, len(d.states)):
        assert list(sample.items()) == [((), int(bool(d.accepting)))]
        return
    access = lex_access_words(d)
    s_words = sorted(access.values())
    by_word = {w: q for q, w in access.items()}
    e_words = [()]
    for i in range(len(s_words)):
        for j in range(i + 1, len(s_words)):
            v = distinguishing_word(d, by_word[s_words[i]],
                                    by_word[s_words[j]])
            if v not in e_words:
                e_words.append(v)
    assert list(sample.items()) == list(
        ref_char_dfa_labels(d, s_words, e_words).items())


@pytest.mark.parametrize("seed", range(40))
def test_separator_table_is_distinguishing_word(seed):
    rng = random.Random(seed)
    if seed < 36:
        d = random_dfa(rng, max_states=2 + seed // 3, max_alpha=1 + seed % 4)
    else:  # the learn workloads' sizes
        d = concretize_sfa(minimal_target(4 * (seed - 34), seed))
    sep = _separators(d)
    pairs = [(p, q) for p in d.states for q in d.states if p != q]
    assert len(sep) == len(pairs)  # a minimal DFA: every pair told apart
    for p, q in pairs:
        assert sep[p, q] == distinguishing_word(d, p, q)


def test_separator_table_leaves_out_equivalent_states():
    # q1 and q2 accept the same language; q0 rejects () and accepts (0,)
    d = Dfa(INTERVAL_NAT, [0], ["q0", "q1", "q2"], "q0", ["q1", "q2"],
            {("q0", 0): "q1", ("q1", 0): "q2", ("q2", 0): "q1"})
    assert _separators(d) == {("q0", "q1"): (), ("q1", "q0"): (),
                              ("q0", "q2"): (), ("q2", "q0"): ()}
    with pytest.raises(ValueError, match="not distinguishable"):
        char_dfa(d)


# ---------------------------------------------------------------------------
# The cleaned index is cut from the full one


def sample_prefixes(idx):
    """Every prefix of a sample word, ascending."""
    return sorted({w[:i] for w in idx.words for i in range(len(w) + 1)})


def assert_same_index(sub, fresh):
    assert list(sub.words.items()) == list(fresh.words.items())
    assert sub.letters() == fresh.letters()
    assert sub.tree() == fresh.tree()
    prefixes = sample_prefixes(fresh)
    assert sample_prefixes(sub) == prefixes
    for p in prefixes:
        for q in prefixes:
            assert sub.equiv(p, q) == fresh.equiv(p, q)


@pytest.mark.parametrize("honest", [True, False])
@pytest.mark.parametrize("seed", range(4))
def test_restricted_index_equals_fresh_index(seed, honest):
    rng = random.Random(seed)
    target = random_sfa(rng, max_states=4, max_endpoint=40)
    sample = noisy(rng, target, 10, 60, honest)
    idx = SampleIndex(sample, INTERVAL_NAT)
    kept = sfa_learn._kept_letters(INTERVAL_NAT, idx)
    assert_same_index(idx.restrict(kept),
                      SampleIndex(decontaminate(INTERVAL_NAT, sample),
                                  INTERVAL_NAT))


def test_restrict_to_every_word_is_the_same_index():
    idx = SampleIndex(TWO_STATE_SAMPLE, INTERVAL_NAT)
    assert idx.restrict(set(idx.letters())) is idx


# ---------------------------------------------------------------------------
# Letters outside the algebra raise ValueError on every entry point, and
# before any sort


BAD_SAMPLES = [
    (INTERVAL_NAT, {(0, 1): 1, ("a",): 0, (): 0}),
    (INTERVAL_NAT, {(0, 1): 1, ((1,),): 0, (): 0}),
    (INTERVAL_INT, {(-3, 2): 1, ("a", 4): 0}),
    (INTERVAL_INT, {(2,): 1, ((1,), 2): 0}),
    (INTERVAL_NAT, {(-1,): 1, (): 0}),
    (INTERVAL_NAT, {(0, -1): 1, (0,): 0, (): 0}),
]


@pytest.mark.parametrize("alg, sample", BAD_SAMPLES)
@pytest.mark.parametrize("entry", [infer_sfa, decontaminate,
                                   merged_prefix_tree])
def test_letters_outside_the_algebra_raise_value_error(entry, alg, sample):
    with pytest.raises(ValueError):
        entry(alg, sample)


def test_letters_are_checked_before_the_sort(monkeypatch):
    sorts = []
    real = sorted
    monkeypatch.setattr("builtins.sorted",
                        lambda *a, **k: sorts.append(a) or real(*a, **k))
    with pytest.raises(ValueError):
        SampleIndex({(0,): 1, ("a",): 0}, INTERVAL_NAT)
    assert not sorts

