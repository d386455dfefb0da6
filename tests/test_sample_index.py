"""SampleIndex answers sample equivalence from its subtree classes: equiv
and the class-id test same(cls(w1), cls(w2)) against a brute-force search
for a conflicting extension, on full and restricted indices; restrict
against a fresh index; the classes of the walk against the walk it
replaced, and the cut index's lazy words, letters and root; the class
search of agrees_with against one flipped label; a word thousands of
letters long; and the memory the index retains and infer_sfa peaks at on
a characteristic sample."""

import random
import tracemalloc
from itertools import chain

import pytest
from hypothesis import assume, given, strategies as st

from symfa.algebra import INTERVAL_NAT, prop_algebra
from symfa.dfa_learn import SampleIndex
from symfa.sfa import sample_dict, transition_table
from symfa.sfa_learn import _agrees, agrees, char_sfa, infer_sfa

from conftest import interval_samples, minimal_target, samples


def brute_equiv(words, w1, w2):
    """False iff some z has w1.z and w2.z both labeled, differently."""
    ext1 = {w[len(w1):]: b for w, b in words.items() if w[:len(w1)] == w1}
    return all(words.get(w2 + z, b) == b for z, b in ext1.items())


def assert_equiv_is_brute(idx):
    prefixes = sorted({w[:i] for w in idx.words for i in range(len(w) + 1)})
    # the greatest prefix has no children, so this is no sample prefix
    words = prefixes + [prefixes[-1] + (0,)]
    for w1 in words:
        for w2 in words:
            brute = brute_equiv(idx.words, w1, w2)
            assert idx.equiv(w1, w2) == brute
            assert idx.same(idx.cls(w1), idx.cls(w2)) == brute


@given(samples())
def test_equiv_is_the_brute_force_check(case):
    alg, sample = case
    idx = SampleIndex(sample, alg)
    assert_equiv_is_brute(idx)
    half = idx.restrict(set(idx.letters()[::2]))
    if half.words:  # assert_equiv_is_brute needs a word
        assert_equiv_is_brute(half)


@given(samples(), st.data())
def test_restrict_equals_a_fresh_index(case, data):
    alg, sample = case
    idx = SampleIndex(sample, alg)
    kept = set(data.draw(st.sets(st.sampled_from(idx.letters())))
               if idx.letters() else ())
    words = {w: b for w, b in idx.words.items() if kept.issuperset(w)}
    sub, fresh = idx.restrict(kept), SampleIndex(words, alg)
    assert list(sub.words.items()) == list(words.items())
    assert sub.letters() == fresh.letters()
    assert sub.tree() == fresh.tree()
    prefixes = sorted({w[:i] for w in idx.words for i in range(len(w) + 1)})
    for p in prefixes:
        for q in prefixes:
            assert sub.equiv(p, q) == fresh.equiv(p, q)


# ---------------------------------------------------------------------------
# The classes against the walk that built them before the sibling and
# extension fast paths: every word resumed from its longest common prefix
# with the word before, found letter by letter


def ref_classes(sample):
    """(root class, labels, children) of the sample's classes, numbered as
    the letter-by-letter walk registers them."""
    ids = {(-1,): 0}
    path, prev = [[-1]], ()

    def leave(i):
        for j in range(len(prev), i, -1):
            key = tuple(path.pop())
            path[-1].append((prev[j - 1], ids.setdefault(key, len(ids))))

    for w, b in sorted(sample_dict(sample).items()):
        i, n = 0, len(prev)
        while i < n and prev[i] == w[i]:
            i += 1
        if i < n:
            leave(i)
        for _ in w[i:]:
            path.append([-1])
        path[-1][0] = b
        prev = w
    leave(0)
    root = ids.setdefault(tuple(path[0]), len(ids))
    return root, [key[0] for key in ids], [list(key[1:]) for key in ids]


def assert_classes_are_the_reference(sample, alg):
    idx = SampleIndex(sample, alg)
    assert (idx._root, idx._class_label,
            [list(kids.items()) for kids in idx._class_kids]) \
        == ref_classes(sample)


def assert_lazy_restrict(idx, kept):
    """The cut index's words are the eager comprehension, in order, its
    letters are theirs, and its root's class is 0 exactly when none is
    kept."""
    words = {w: b for w, b in idx.words.items() if kept.issuperset(w)}
    sub = idx.restrict(kept)
    assert (sub._root == 0) == (not words)
    assert sub.letters() == tuple(sorted(set(chain.from_iterable(words))))
    assert list(sub.words.items()) == list(words.items())


P2 = prop_algebra(2)
EDGE_SAMPLES = [
    (INTERVAL_NAT, {(): 1}),  # only the empty word
    (INTERVAL_NAT, {(3, 1): 0}),  # one word
    (INTERVAL_NAT, {(): 0, (1,): 1, (1, 2): 0, (1, 2, 3): 1}),  # a chain
    # a word, its extension, then a sibling of each
    (INTERVAL_NAT, {(1, 2): 1, (1, 2, 5): 0, (1, 2, 6): 1, (1, 3): 0}),
    # siblings of different lengths, and a long word after short ones
    (INTERVAL_NAT, {(1, 2): 1, (1, 3, 4): 0, (1, 5): 1, (1, 5, 0, 0): 0,
                    (2,): 1}),
    # one-letter siblings, one of them extended
    (INTERVAL_NAT, {(0,): 1, (1,): 1, (2,): 0, (2, 0): 1, (3,): 0}),
    (P2, {("00",): 1, ("01",): 0, ("01", "11"): 1, ("10",): 1,
          ("11", "00"): 0, ("11", "01"): 1}),
]


@pytest.mark.parametrize("alg, sample", EDGE_SAMPLES)
def test_classes_match_the_reference_walk_on_edge_cases(alg, sample):
    assert_classes_are_the_reference(sample, alg)
    idx = SampleIndex(sample, alg)
    letters = idx.letters()
    for k in range(len(letters) + 1):
        assert_lazy_restrict(idx, set(letters[:k]))
        assert_lazy_restrict(idx, set(letters[k:]))


@given(samples(), st.data())
def test_classes_match_the_reference_walk(case, data):
    alg, sample = case
    assert_classes_are_the_reference(sample, alg)
    idx = SampleIndex(sample, alg)
    kept = set(data.draw(st.sets(st.sampled_from(idx.letters())))
               if idx.letters() else ())
    assert_lazy_restrict(idx, kept)


@pytest.mark.parametrize("seed", range(10))
def test_classes_match_the_reference_walk_on_prop_samples(seed):
    rng = random.Random(seed)
    alg = prop_algebra(rng.randint(1, 3))
    sample = {tuple(rng.choice(alg.letters())
                    for _ in range(rng.randint(0, 5))): rng.randint(0, 1)
              for _ in range(rng.randint(1, 40))}
    assert_classes_are_the_reference(sample, alg)
    idx = SampleIndex(sample, alg)
    assert_lazy_restrict(idx, set(rng.sample(idx.letters(),
                                             len(idx.letters()) // 2)))


def dfa_search(idx, m):
    """The search of dfa_learn._grow_rows: m's transition table, state by
    state."""
    table = transition_table(m, idx.letters())
    return idx.agrees_with(m.initial, m.accepting.__contains__,
                           lambda q, a: table[q, a])


@given(interval_samples(), st.data())
def test_class_search_fails_on_one_flipped_label(case, data):
    target, sample = case
    assume(sample)
    idx = SampleIndex(sample, INTERVAL_NAT)
    assert agrees(target, sample)
    assert dfa_search(idx, target) and _agrees(target, idx)
    w = data.draw(st.sampled_from(sorted(sample)))
    flipped = dict(sample)
    flipped[w] = 1 - flipped[w]
    idx = SampleIndex(flipped, INTERVAL_NAT)
    assert not dfa_search(idx, target) and not _agrees(target, idx)


def test_long_words_need_no_recursion():
    n = 5000
    chain = (0,) * (n - 2)
    sample = {(0, 0) + chain: 1, (1, 0) + chain: 1, (1,) + chain + (7,): 0,
              (2,) + chain + (7,): 1}
    idx = SampleIndex(sample, INTERVAL_NAT)
    # the unfolding is as deep as the words
    kids, label, up = idx.tree()
    assert len(kids) == len(label) == len(up) == 3 * n + 2
    # each walk pairs two chains node by node, n deep: the first passes,
    # the second fails at the last pair
    assert idx.equiv((0,), (1,)) and brute_equiv(sample, (0,), (1,))
    assert not idx.equiv((1,), (2,)) and not brute_equiv(sample, (1,), (2,))
    assert agrees(infer_sfa(INTERVAL_NAT, sample), sample)


def test_index_retains_its_classes_only():
    # 48317 words, whose prefix tree has 54977 nodes in 94 classes: about
    # 2.6 MiB on CPython 3.11, most of it the words' dict; an index with
    # one dict per node retained 14.5 MiB
    sample = char_sfa(minimal_target(32, 32))
    tracemalloc.start()
    try:
        idx = SampleIndex(sample, INTERVAL_NAT)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(idx.tree()[0]) == 54977 and len(idx._class_label) == 94
    assert retained < 4 * 2 ** 20


def test_infer_sfa_peak_memory():
    # about 6 MB here; an index copying each queried prefix's suffix
    # sets peaked at about 30 MB
    sample = char_sfa(minimal_target(24, 24))
    tracemalloc.start()
    try:
        infer_sfa(INTERVAL_NAT, sample)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20
