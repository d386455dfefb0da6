"""Learning pipeline for monotonic (interval) algebras: partition-level
concretizing and generalizing, automaton-level concretizing and
generalizing, sample decontamination, and the char_sfa / infer_sfa pair."""

from __future__ import annotations

from heapq import heappop, heappush

from .algebra import intervals_to_pred, min_model
from .dfa_learn import (
    Dfa, SampleIndex, _grow, _grow_rows, _index_and_alphabet, _word_id,
    char_dfa,
)
from .sfa import Sfa, transition_table


def _require_monotonic(alg):
    if not alg.monotonic:
        raise ValueError("a monotonic (interval) algebra is required")


def concretize_alg(alg, predicates):
    """Concrete partition for a predicate partition: the singleton least
    model per satisfiable block, the empty set otherwise."""
    _require_monotonic(alg)
    blocks = []
    for psi in predicates:
        d = min_model(alg, psi)
        blocks.append(set() if d is None else {d})
    return blocks


def generalize_alg(alg, blocks):
    """Predicate partition covering the domain, from pairwise-disjoint
    finite letter sets.  Sweeps the letters in ascending order: a run of
    consecutive letters from one block becomes the piece [first, next run's
    first); the final run extends to the top and the globally least piece
    is stretched down to the least domain letter, so the result covers."""
    _require_monotonic(alg)
    owner = {}
    for i, block in enumerate(blocks):
        for d in block:
            alg.check_letter(d)
            if d in owner:
                raise ValueError("blocks overlap at letter %r" % (d,))
            owner[d] = i
    if not owner:
        raise ValueError("all blocks are empty")
    sems = alg.runs(sorted(owner.items()))
    # an empty block gets the empty list's guard, BOT
    return [intervals_to_pred(sems.get(i, ())) for i in range(len(blocks))]


def _generalized(alg, states, initial, accepting, runs):
    """SFA over states whose state q leaves through the guards of the runs
    of its (letter, destination) pairs (see IntervalAlgebra.runs), given in
    states' order, one transition per destination in ascending destination
    order.  A state without pairs gets a full-domain self-loop, which
    keeps the language and makes the result complete.  The transitions
    carry the runs' interval lists, and their guards are built only when
    read."""
    rows = []
    for q, pairs in zip(states, runs):
        sems = alg.runs(pairs) or {q: alg.full()}
        rows += [((q, sems[dst], dst), None) for dst in sorted(sems)]
    return Sfa._from_rows(alg, states, initial, accepting, rows)


def concretize_sfa(m):
    """Concrete DFA of a deterministic complete feasible monotonic SFA:
    same states, alphabet the least model of every transition predicate,
    transition map induced by predicate membership."""
    _require_monotonic(m.algebra)
    if not all(m._shape):
        raise ValueError("concretize_sfa needs a deterministic complete "
                         "input")
    sems = [sem for row in m.edges.values() for sem, _ in row]
    if not all(sems):
        raise ValueError("concretize_sfa needs a feasible input")
    alg = m.algebra
    alphabet = sorted({alg.min(sem) for sem in sems})
    return Dfa(alg, alphabet, m.states, m.initial, m.accepting,
               transition_table(m, alphabet))


def generalize_dfa(d):
    """SFA over d's states: per state, one sweep over the ascending
    alphabet cuts it into runs of one destination, and the runs become a
    covering predicate partition (see generalize_alg).  The alphabet's
    letters are checked once per call."""
    alg = d.algebra
    _require_monotonic(alg)
    alphabet, delta = d.alphabet, d.delta
    for a in alphabet:
        alg.check_letter(a)
    return _generalized(alg, d.states, d.initial, d.accepting,
                        (((a, delta[q, a]) for a in alphabet)
                         for q in d.states))


def _checked_index(alg, sample):
    """The SampleIndex of a non-empty sample for a monotonic alg, its
    letters checked against alg; ValueError otherwise."""
    _require_monotonic(alg)
    return _index_and_alphabet(sample, alg, None)[0]


def decontaminate(alg, sample):
    """Restrict a sample to words over the letters that matter
    (_kept_letters); the words kept keep the sample's order.  When the
    sample contains a characteristic sample produced by char_sfa, the kept
    letters are exactly that sample's concrete alphabet and the result
    still contains the characteristic sample.  Each distinct sample letter
    is checked against alg first, so a letter outside it raises
    ValueError."""
    _require_monotonic(alg)
    idx = SampleIndex(sample, alg)
    return idx.restrict(_kept_letters(alg, idx)).words


def _kept_letters(alg, idx):
    """The letters of idx's sample that matter, with alg's least letter.
    Grows access words from the empty word as infer_dfa grows rows
    (dfa_learn._grow over the kept letters), and scans each access word
    once: in ascending order, a letter is kept when the sample tells its
    extension apart from that of the last letter kept for the word (the
    least domain letter to begin with), and extends every access word.
    The scan reads the extensions' classes off the word's class children
    (SampleIndex.same)."""
    kept = [alg.dmin]
    for _, x in _grow(idx, kept):
        kids = idx._class_kids[x]
        rep = kids.get(alg.dmin, 0)
        for a in idx.letters():
            y = kids.get(a, 0)
            if not idx.same(y, rep):
                if a not in kept:
                    kept.append(a)
                rep = y
    return set(kept)


def char_sfa(m):
    """Characteristic sample of a minimal deterministic complete feasible
    monotonic SFA: char_dfa of concretize_sfa(m), whose alphabet is the
    least model of every transition predicate, so char_dfa's separation
    guarantee holds over those letters."""
    return char_dfa(concretize_sfa(m))


def agrees(m, sample):
    """True iff m accepts exactly the positive words of the sample.
    Raises ValueError when a sample letter is not a letter of m's algebra
    (see SampleIndex)."""
    return _agrees(m, SampleIndex(sample, m.algebra))


def _agrees(m, idx):
    """agrees on idx's sample: one search of its (class, state set) pairs
    (SampleIndex.agrees_with) that memoizes the successor set per (state
    set, letter), so every guard is looked up at most once per distinct
    step."""
    alg, edges, memo = m.algebra, m.edges, {}

    def step(states, d):
        nxt = memo.get((states, d))
        if nxt is None:
            nxt = memo[states, d] = frozenset(
                dst for q in states for sem, dst in edges[q]
                if alg.contains(sem, d))
        return nxt

    return idx.agrees_with(frozenset((m.initial,)),
                           lambda states: not m.accepting.isdisjoint(states),
                           step)


class _RedBlue:
    """Red-blue state merging (RPNI; Oncina and Garcia 1992) on idx's
    prefix tree, unfolded for it with each node's index class
    (SampleIndex._unfold).  Node classes are a union-find forest, rep,
    whose roots hold their class's label and children; up holds each
    node's parent and the letter leading to it.  Each trial first asks
    the index whether the sample tells the two nodes' subtrees apart
    (same, whose memo the letter scan and row growing filled too)."""

    def __init__(self, idx):
        self.kids, self.label, self.up, self.cls = idx._unfold()
        self.rep = list(range(len(self.kids)))
        self.same = idx.same

    def name(self, q):
        """_word_id of node q's access word, read up the parent links."""
        word = []
        while q:
            q, a = self.up[q]
            word.append(a)
        return _word_id(word[::-1])

    def find(self, q):
        while self.rep[q] != q:
            q = self.rep[q]
        return q

    def merge(self, r, b, red):
        """Fold class b into class r, uniting the classes they reach over
        each word; each union removes a class, so the fold ends.  Returns
        the children handed to classes in red, or None at a pair labeled 0
        and 1, once the log of undo calls has been replayed backwards.
        A successful fold leaves the quotient deterministic, so it unites
        r.e with b.e for every word e that leads from both nodes to tree
        nodes: where the sample tells the subtrees of nodes r and b apart,
        the fold would fail, and None is returned before any write.  The
        worklist's first pair, the two classes, fails with nothing written
        too, when they are labeled 0 and 1."""
        if not self.same(self.cls[r], self.cls[b]):
            return None
        kids, label = self.kids, self.label
        log, new, work = [], [], [(r, b)]
        while work:
            x, y = map(self.find, work.pop())
            if x == y:
                continue
            if label[y] >= 0 and label[x] != label[y]:
                if label[x] >= 0:
                    for undo, *args in reversed(log):
                        undo(*args)
                    return None
                log.append((label.__setitem__, x, -1))
                label[x] = label[y]
            log.append((self.rep.__setitem__, y, y))
            self.rep[y] = x
            for a, c in kids[y].items():
                if a in kids[x]:
                    work.append((kids[x][a], c))
                else:
                    log.append((kids[x].pop, a))
                    kids[x][a] = c
                    if x in red:
                        new.append(c)
        return new

    def run(self):
        """The red nodes, in promotion order, once no blue (non-red child
        of a red class) is left.  The least blue, which has the least
        access word, is merged into the first red that admits it, or else
        promoted.  A blue heads a tree of classes that no other blue
        reaches, so the new blues are the children a merge hands to red
        classes, or a promoted node's; a heap keeps them."""
        red = {0: None}  # in promotion order
        blues = sorted(self.kids[0].values())  # a sorted list is a heap
        while blues:
            b = heappop(blues)
            for r in red:
                new = self.merge(r, b, red)
                if new is not None:
                    break
            else:
                red[b] = None
                new = map(self.find, self.kids[b].values())
            for c in new:
                heappush(blues, c)
        return list(red)


def merged_prefix_tree(alg, sample):
    """The sample's prefix tree folded by _RedBlue: a deterministic
    complete SFA that agrees with the sample.  Each red node is a state
    named by _word_id of its access word, whose runs are its class's
    child letters, each to its child's class, so a letter without evidence
    joins the run below it.  ValueError for a prop alg, an empty sample
    or a sample letter outside alg."""
    return _merged(alg, _checked_index(alg, sample))


def _merged(alg, idx):
    """merged_prefix_tree of idx's non-empty sample."""
    merger = _RedBlue(idx)
    reds = merger.run()
    kids, find = merger.kids, merger.find
    names = {r: merger.name(r) for r in reds}

    def runs_of(r):
        return ((a, names[find(kids[r][a])]) for a in sorted(kids[r]))

    return _generalized(alg, [names[r] for r in reds], names[0],
                        [names[r] for r in reds if merger.label[r] == 1],
                        map(runs_of, reds))


def infer_sfa(alg, sample):
    """Infer an SFA: decontaminate, infer a concrete DFA, generalize.
    Given any consistent superset of char_sfa(M), the result recognizes
    L(M).  Where row growing gives up (at the first unlabeled row, in
    dfa_learn._grow_rows), or the cleaned sample's result disagrees with
    a removed word, the full sample's merged_prefix_tree is returned.  A
    letter outside alg raises ValueError before any sort.  The stages
    share the sample's one index: the cleaned one is cut from it
    (SampleIndex.restrict), or is it when no letter is dropped.  The
    merger's class checks (_RedBlue.merge) reuse the answers that same
    memoized on the full index for the letter scan, and for row growing
    where no letter was dropped.  No
    word is walked: row growing ends with a search of its index's (class,
    state) pairs (dfa_learn._grow_rows), and where words were removed,
    one search of the full index's pairs against the candidate's edges
    (_agrees) checks the rest."""
    idx = _checked_index(alg, sample)
    sub = idx.restrict(_kept_letters(alg, idx))
    rows = _grow_rows(sub, alg, sub.letters()) if sub._root else None
    if rows is not None:
        candidate = generalize_dfa(rows)
        if sub is idx or _agrees(candidate, idx):
            return candidate
    return _merged(alg, idx)
