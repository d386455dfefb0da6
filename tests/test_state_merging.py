"""Red-blue state merging, infer_sfa's fallback: the three fallback
properties over arbitrary samples, a failed trial merge undone to the
state it found, a trial the index rejects before any write, the
lexicographic merge order, a differential against the merger without
its class check, and the size of what it learns from characteristic
samples with words dropped and the failed folds it takes there."""

import random

from hypothesis import given

from symfa import sfa_learn
from symfa.algebra import INTERVAL_NAT
from symfa.dfa_learn import SampleIndex
from symfa.sfa import format_sfa
from symfa.sfa_learn import (
    _RedBlue, char_sfa, infer_sfa, merged_prefix_tree,
)

from conftest import assert_fallback, minimal_target, samples


@given(samples())
def test_merged_tree_is_a_fallback(case):
    alg, sample = case
    assert_fallback(merged_prefix_tree(alg, sample), alg, sample)


class Recorded(list):
    """A list that records every write."""

    def __init__(self, items):
        super().__init__(items)
        self.writes = []

    def __setitem__(self, i, value):
        self.writes.append((i, value))
        super().__setitem__(i, value)


def state(merger):
    return merger.kids, merger.label, list(merger.rep)


def test_failed_merge_is_undone_mid_cascade():
    # nodes: 0 = (), 1 = (0,), 2 = (0, 0), 3 = (0, 5).  The index admits
    # folding 1 into 0: no word leads from both () and (0,) to words
    # labeled 0 and 1.  The fold unites 1 with 0, hands 3 to 0 as its
    # 5-child, and only then meets the pair (0, 2), labeled 1 and 0
    sample = {(): 1, (0, 0): 0, (0, 5): 1}
    merger = _RedBlue(SampleIndex(sample, INTERVAL_NAT))
    fresh = _RedBlue(SampleIndex(sample, INTERVAL_NAT))
    merger.rep = Recorded(merger.rep)
    assert merger.merge(0, 1, {0: None}) is None
    assert merger.rep.writes == [(1, 0), (1, 1)]
    assert state(merger) == state(fresh)
    assert list(merger.kids[0]) == [0]
    assert merger.run() == fresh.run()
    assert state(merger) == state(fresh)


def test_merge_the_index_rejects_writes_nothing():
    # nodes: 0 = (), 1 = (0,), 2 = (0, 0), 3 = (0, 5).  The word (0,)
    # leads from () to a word labeled 0 and from (0,) to one labeled 1,
    # so the fold of 1 into 0 would fail, and the index says so first
    sample = {(0,): 0, (0, 0): 1, (0, 5): 1}
    merger = _RedBlue(SampleIndex(sample, INTERVAL_NAT))
    fresh = _RedBlue(SampleIndex(sample, INTERVAL_NAT))
    merger.rep = Recorded(merger.rep)
    assert merger.merge(0, 1, {0: None}) is None
    assert merger.rep.writes == []
    assert state(merger) == state(fresh)


def test_blues_are_taken_in_lexicographic_order(monkeypatch):
    # nodes: 0 = (), 1 = (0,), 2 = (0, 5) labeled 1, 3 = (5,) labeled 0.
    # 1 cannot join 0 (its 5-child 2 would meet 3) and is promoted.  Lex
    # order tries 2 before 3, so 2 joins 0 and 0 accepts; shortlex would
    # try 3 first, and 0 would reject
    trials = []
    merge = _RedBlue.merge

    def spy(self, r, b, red):
        out = merge(self, r, b, red)
        trials.append((r, b, out is not None))
        return out

    monkeypatch.setattr(_RedBlue, "merge", spy)
    learned = merged_prefix_tree(INTERVAL_NAT, {(0, 5): 1, (5,): 0})
    assert trials == [(0, 1, False), (0, 2, True), (0, 3, False),
                      (1, 3, True)]
    assert format_sfa(learned) == (
        "algebra interval-nat\n"
        "states e w:0\n"
        "initial e\n"
        "accepting e\n"
        "trans e w:0 [0,inf)\n"
        "trans w:0 e [0,inf)\n")


def test_dropped_words_learn_near_target_size():
    # a gate: the prefix tree averaged about 40 states per target state
    # on such samples
    ratios = []
    for n in range(4, 9):
        for seed in (1, 2, 3):
            full = char_sfa(minimal_target(n, seed))
            for share in (0.1, 0.2):
                rng = random.Random(seed)
                sample = {w: b for w, b in full.items()
                          if rng.random() >= share}
                learned = infer_sfa(INTERVAL_NAT, sample)
                assert_fallback(learned, INTERVAL_NAT, sample)
                ratios.append(len(learned.states) / n)
    assert sum(ratios) / len(ratios) <= 1.5


def dropped_samples():
    """The 30 samples of test_dropped_words_learn_near_target_size."""
    for n in range(4, 9):
        for seed in (1, 2, 3):
            full = char_sfa(minimal_target(n, seed))
            for share in (0.1, 0.2):
                rng = random.Random(seed)
                yield {w: b for w, b in full.items() if rng.random() >= share}


def random_samples():
    """300 seeded interval samples: up to 40 words over the letters 0..6,
    of length 0 to 5."""
    rng = random.Random(2026)
    for _ in range(300):
        yield {tuple(rng.randrange(7) for _ in range(rng.randrange(6))):
               rng.randrange(2) for _ in range(rng.randint(1, 40))}


class Admitting(_RedBlue):
    """The merger whose class check admits every trial, so that each
    trial folds, and a failed one is undone."""

    def __init__(self, idx):
        super().__init__(idx)
        self.same = lambda x, y: True


def test_class_check_changes_nothing_learned(monkeypatch):
    for sample in [*random_samples(), *dropped_samples()]:
        merger = _RedBlue(SampleIndex(sample, INTERVAL_NAT))
        ref = Admitting(SampleIndex(sample, INTERVAL_NAT))
        assert merger.run() == ref.run()
        assert state(merger) == state(ref)
        learned = format_sfa(merged_prefix_tree(INTERVAL_NAT, sample))
        with monkeypatch.context() as m:
            m.setattr(sfa_learn, "_RedBlue", Admitting)
            assert format_sfa(
                merged_prefix_tree(INTERVAL_NAT, sample)) == learned


def test_dropped_words_rarely_fold_to_fail(monkeypatch):
    # a gate: on these samples, infer_sfa's merger takes 6,242 trials,
    # 4,447 of which fail.  2,359 of those folded and were undone before
    # each trial asked the index first; 116 such folds are left
    trials, failed_folds = [], []
    init, merge = _RedBlue.__init__, _RedBlue.merge

    def recorded_init(self, idx):
        init(self, idx)
        self.rep = Recorded(self.rep)

    def spy(self, r, b, red):
        writes = len(self.rep.writes)
        out = merge(self, r, b, red)
        trials.append(None)
        if out is None and len(self.rep.writes) > writes:
            failed_folds.append(None)
        return out

    monkeypatch.setattr(_RedBlue, "__init__", recorded_init)
    monkeypatch.setattr(_RedBlue, "merge", spy)
    for sample in dropped_samples():
        infer_sfa(INTERVAL_NAT, sample)
    assert len(trials) > 1000
    assert len(failed_folds) < 300
