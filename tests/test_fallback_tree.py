"""The generalized prefix tree, generalize_dfa of prefix_tree_dfa,
against the states x letters construction it replaced,
infer_sfa against the pipeline that fell back to the tree wherever that
pipeline returns no tree, letter checks ahead of the fallback path, and a
gate at a size where the table took seconds and the tree had 16067
states."""

import random
import time

import pytest
from hypothesis import given

from symfa import dfa_learn, sfa_learn
from symfa.algebra import (
    BOT, INF, INTERVAL_INT, INTERVAL_NAT, NEG_INF, SUP, Interval, denote,
    interval_piece_pred, or_all, prop_algebra,
)
from symfa.dfa_learn import SampleIndex, infer_dfa, prefix_tree_dfa
from symfa.sfa import Sfa, format_sfa, sample_dict
from symfa.sfa_learn import (
    agrees, char_sfa, decontaminate, generalize_dfa, infer_sfa,
    merged_prefix_tree,
)

from conftest import (
    assert_fallback, interval_samples, minimal_target, samples,
)


# ---------------------------------------------------------------------------
# Reference: generalize_dfa as it was, kept verbatim in behaviour.  Per
# state it groups every alphabet letter by destination and generalizes
# the groups, checking every letter again.


def ref_generalize_alg(alg, blocks):
    owner = {}
    for i, block in enumerate(blocks):
        for d in block:
            alg.check_letter(d)
            owner[d] = i
    letters = sorted(owner)
    runs = []
    for d in letters:
        if not runs or runs[-1][0] != owner[d]:
            runs.append((owner[d], d))
    pieces = [[] for _ in blocks]
    for j, (i, start) in enumerate(runs):
        if j == 0:
            start = alg.dmin
        end = runs[j + 1][1] if j + 1 < len(runs) else SUP
        pieces[i].append(interval_piece_pred(start, end))
    return [or_all(ps) if ps else BOT for ps in pieces]


def ref_generalize_dfa(d):
    trans = []
    for q in d.states:
        if not d.alphabet:
            trans.append((q, Interval(d.algebra.dmin, INF), q))
            continue
        groups = {}
        for a in d.alphabet:
            groups.setdefault(d.delta[q, a], set()).add(a)
        dests = sorted(groups)
        preds = ref_generalize_alg(d.algebra, [groups[dst] for dst in dests])
        for dst, pred in zip(dests, preds):
            trans.append((q, pred, dst))
    return Sfa(d.algebra, d.states, d.initial, d.accepting, trans)


def ref_infer_sfa(alg, sample):
    """The pipeline's output, or None where it is a prefix tree (then
    infer_sfa merges states instead)."""
    sample = sample_dict(sample)
    cleaned = decontaminate(alg, sample)
    if cleaned:
        learned = infer_dfa(cleaned, alg)
        # infer_dfa's own fallback, the tree, is the one with a sink
        if "sink" not in learned.states:
            candidate = ref_generalize_dfa(learned)
            if agrees(candidate, sample):
                return candidate
    return None


# ---------------------------------------------------------------------------
# The generalized tree equals the reference generalization of the table


def assert_adopted(m):
    """m's edge table lists its transitions, state by state, each as the
    denotation of its guard."""
    rows = m.edges
    assert [(q, sem, dst) for q in m.states for sem, dst in rows[q]] \
        == [(q, denote(m.algebra, p), dst) for q, p, dst in m.transitions]


def check_tree(alg, sample):
    tree = generalize_dfa(prefix_tree_dfa(sample, alg))
    concrete = prefix_tree_dfa(sample, alg)
    text = format_sfa(tree)
    assert text == format_sfa(generalize_dfa(concrete))
    assert text == format_sfa(ref_generalize_dfa(concrete))
    assert_adopted(tree)
    assert_adopted(generalize_dfa(concrete))
    assert agrees(tree, sample)
    return tree


@given(samples())
def test_symbolic_tree_matches_generalized_table(case):
    check_tree(*case)


@pytest.mark.parametrize("alg", [INTERVAL_NAT, INTERVAL_INT])
@pytest.mark.parametrize("sample", [
    {(): 1}, {(): 0}, {(5,): 1}, {(INF,): 1, (): 0},
    {(0,): 1, (0, 0): 0, (0, 0, 0): 1},
    {(INF, INF): 1, (0, INF): 0, (7,): 1},
])
def test_symbolic_tree_edge_cases(alg, sample):
    tree = check_tree(alg, sample)
    if sample.keys() == {()}:
        # empty alphabet: one state, no sink, a full-domain self-loop
        assert tree.states == ("e",)
        assert tree.transitions == (("e", Interval(alg.dmin, INF), "e"),)
    else:
        assert tree.states[-1] == "sink"


def test_symbolic_tree_negative_letters():
    sample = {(NEG_INF,): 1, (-3, NEG_INF): 0, (-3, INF): 1, (INF,): 0}
    check_tree(INTERVAL_INT, sample)


def test_leaves_share_one_guard():
    tree = generalize_dfa(prefix_tree_dfa({(1, 2): 1, (1, 3): 0, (4,): 1},
                                          INTERVAL_NAT))
    leaf_guards = [out[0][0] for out in map(tree.out, tree.states)
                   if len(out) == 1]
    assert len(leaf_guards) == 4  # three leaves and the sink
    assert all(g is leaf_guards[0] for g in leaf_guards)


# ---------------------------------------------------------------------------
# infer_sfa against the pipeline that built the concrete tree


@given(interval_samples())
def test_infer_sfa_matches_reference_pipeline(case):
    _, sample = case
    if not sample:
        return
    learned = infer_sfa(INTERVAL_NAT, sample)
    ref = ref_infer_sfa(INTERVAL_NAT, sample)
    if ref is None:
        assert_fallback(learned, INTERVAL_NAT, sample)
    else:
        assert format_sfa(learned) == format_sfa(ref)


# ---------------------------------------------------------------------------
# Letters are checked before the fallback path is chosen


@pytest.mark.parametrize("bad", [-1, True, 2.5])
def test_bad_letters_raise_on_fallback_path(bad, monkeypatch):
    sample = {(0,): 0, (bad,): 1}
    # with a good letter in its place the sample takes the fallback path:
    # decontamination keeps every word and row growing gives up
    idx = SampleIndex({(0,): 0, (3,): 1}, INTERVAL_NAT)
    assert dfa_learn._grow_rows(idx, INTERVAL_NAT, idx.letters()) is None
    # the bad letter is rejected up front, so neither the rows nor the
    # merged tree are built
    calls = []
    merged = sfa_learn._merged
    monkeypatch.setattr(sfa_learn, "_merged",
                        lambda *a, **k: calls.append(a) or merged(*a, **k))
    monkeypatch.setattr(sfa_learn, "_grow_rows",
                        lambda *a: calls.append(a) or idx)
    with pytest.raises(ValueError):
        infer_sfa(INTERVAL_NAT, sample)
    assert not calls
    with pytest.raises(ValueError):
        merged_prefix_tree(INTERVAL_NAT, sample)


def test_whole_sample_fallback_skips_the_sample_walk(monkeypatch):
    # decontamination keeps both words and row growing gives up, so the
    # merged tree, which agrees with its sample by construction, is
    # returned as is
    walks = []
    monkeypatch.setattr(sfa_learn, "agrees",
                        lambda *a: walks.append(a) or agrees(*a))
    sample = {(0,): 0, (3,): 1}
    learned = infer_sfa(INTERVAL_NAT, sample)
    assert not walks
    assert ref_infer_sfa(INTERVAL_NAT, sample) is None
    assert_fallback(learned, INTERVAL_NAT, sample)


def test_prop_algebra_raises():
    with pytest.raises(ValueError):
        merged_prefix_tree(prop_algebra(2), {("01",): 1})
    with pytest.raises(ValueError):
        infer_sfa(prop_algebra(2), {("01",): 1, (): 0})


def test_empty_sample_raises():
    with pytest.raises(ValueError):
        merged_prefix_tree(INTERVAL_NAT, {})
    with pytest.raises(ValueError):
        prefix_tree_dfa({}, INTERVAL_NAT)


# ---------------------------------------------------------------------------
# The gate: a 24-state target with a fifth of its characteristic sample
# dropped, which takes the fallback: state merging, not the 16067-state
# prefix tree


def test_fallback_builds_no_table(monkeypatch):
    full = char_sfa(minimal_target(24, 24))
    rng = random.Random(1)
    sample = {w: b for w, b in full.items() if rng.random() >= 0.2}
    built = []
    init = dfa_learn.Dfa.__init__
    monkeypatch.setattr(dfa_learn.Dfa, "__init__",
                        lambda self, *a: built.append(a) or init(self, *a))
    t0 = time.perf_counter()
    learned = infer_sfa(INTERVAL_NAT, sample)
    elapsed = time.perf_counter() - t0
    assert len(learned.states) <= 48
    assert not built
    # a gate: with the states x letters table this call took 3.3 s on a
    # 2-vCPU host, with the symbolic prefix tree 0.55 s, merged 0.3 s
    assert elapsed < 1.5


def test_merger_names_only_the_red_states(monkeypatch):
    """merged_prefix_tree formats the letters of its states' access words
    alone, not a name for every node of the index's tree."""
    full = char_sfa(minimal_target(24, 24))
    rng = random.Random(1)
    sample = {w: b for w, b in full.items() if rng.random() >= 0.2}
    idx = SampleIndex(sample, INTERVAL_NAT)
    calls = []
    real = dfa_learn.format_letter
    monkeypatch.setattr(dfa_learn, "format_letter",
                        lambda d: calls.append(d) or real(d))
    learned = sfa_learn.merged_prefix_tree(INTERVAL_NAT, sample)
    assert len(calls) < len(idx.tree()[0])
    # one letter per letter of each state's access word (named e, w:a.b..)
    assert len(calls) == sum(q.count(".") + 1 for q in learned.states
                             if q != "e")
