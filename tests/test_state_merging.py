"""Red-blue state merging, infer_sfa's fallback: the three fallback
properties over arbitrary samples, a failed trial merge undone to the
state it found, the lexicographic merge order, and the size of what it
learns from characteristic samples with words dropped."""

import random

from hypothesis import given

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
    # nodes: 0 = (), 1 = (0,), 2 = (0, 0), 3 = (0, 5).  Folding 1 into 0
    # labels 0 with 0, unites 1 with 0, hands 3 to 0 as its 5-child, and
    # only then meets the pair (0, 2), labeled 0 and 1
    sample = {(0,): 0, (0, 0): 1, (0, 5): 1}
    merger = _RedBlue(SampleIndex(sample, INTERVAL_NAT))
    fresh = _RedBlue(SampleIndex(sample, INTERVAL_NAT))
    merger.rep = Recorded(merger.rep)
    assert merger.merge(0, 1, {0: None}) is None
    assert merger.rep.writes == [(1, 0), (1, 1)]
    assert state(merger) == state(fresh)
    assert list(merger.kids[0]) == [0]
    assert merger.run() == fresh.run()
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
