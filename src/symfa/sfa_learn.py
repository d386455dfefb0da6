"""Learning pipeline for monotonic (interval) algebras: partition-level
concretizing and generalizing, automaton-level concretizing and
generalizing, sample decontamination, and the char_sfa / infer_sfa pair."""

from __future__ import annotations

from itertools import chain

from .algebra import (
    BOT, INF, SUP, Interval, interval_piece_pred, min_model, or_all,
    sem_contains, sem_min,
)
from .dfa_learn import (
    Dfa, RowFrontier, SampleIndex, _agrees_sorted, char_dfa, infer_dfa,
    prefix_tree_dfa,
)
from .sfa import Sfa, classify, sample_dict, transition_table


def _require_monotonic(alg):
    if not alg.is_interval:
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
    letters = sorted(owner)
    runs = []  # (block index, first letter of run)
    for d in letters:
        if not runs or runs[-1][0] != owner[d]:
            runs.append((owner[d], d))
    pieces = [[] for _ in blocks]
    for j, (i, start) in enumerate(runs):
        if j == 0:
            start = alg.dmin
        # the upper bound is exclusive; a run that ends just below the inf
        # letter must not swallow it
        end = runs[j + 1][1] if j + 1 < len(runs) else SUP
        pieces[i].append(interval_piece_pred(start, end))
    return [or_all(ps) if ps else BOT for ps in pieces]


def concretize_sfa(m):
    """Concrete DFA of a deterministic complete feasible monotonic SFA:
    same states, alphabet the least model of every transition predicate,
    transition map induced by predicate membership."""
    _require_monotonic(m.algebra)
    flags = classify(m)
    if not flags.deterministic or not flags.complete:
        raise ValueError("concretize_sfa needs a deterministic complete "
                         "input")
    if not flags.feasible:
        raise ValueError("concretize_sfa needs a feasible input")
    alg = m.algebra
    alphabet = sorted({sem_min(alg, sem) for row in m.edges.values()
                       for _, sem, _ in row})
    return Dfa(alg, alphabet, m.states, m.initial, m.accepting,
               transition_table(m, alphabet))


def generalize_dfa(d):
    """SFA over d's states: per state, the outgoing letters are grouped by
    destination and generalized into a covering predicate partition."""
    _require_monotonic(d.algebra)
    trans = []
    for q in d.states:
        if not d.alphabet:
            # no letters to generalize from; a full-domain self-loop keeps
            # the language and makes the result complete
            trans.append((q, Interval(d.algebra.dmin, INF), q))
            continue
        groups = {}
        for a in d.alphabet:
            groups.setdefault(d.delta[q, a], set()).add(a)
        dests = sorted(groups)
        preds = generalize_alg(d.algebra, [groups[dst] for dst in dests])
        for dst, pred in zip(dests, preds):
            trans.append((q, pred, dst))
    return Sfa(d.algebra, d.states, d.initial, d.accepting, trans)


def decontaminate(alg, sample, index=None):
    """Restrict a sample to words over the letters that matter.

    Grows access words from the empty word as infer_dfa grows rows (the
    least member of a RowFrontier over the kept letters), and scans each
    access word once: in ascending order, a letter is kept when the
    sample tells its extension apart from that of the last letter kept
    for the word (the least domain letter to begin with).  The scan reads
    the word and the sample alone.  Every word using a letter that no
    scan kept is dropped.  When the sample contains a characteristic
    sample produced by char_sfa, the kept letters are exactly that
    sample's concrete alphabet and the result still contains the
    characteristic sample.  index, when given, is the sample's
    SampleIndex, so none is built."""
    _require_monotonic(alg)
    idx = SampleIndex(sample) if index is None else index
    sample = idx.words
    letters = idx.letters()
    kept = {alg.dmin}
    front = RowFrontier(idx, kept)
    row = ()
    while row is not None:
        front.add_row(row)
        rep = alg.dmin
        new = []
        for a in letters:
            if not idx.equiv(row + (a,), row + (rep,)):
                if a not in kept:
                    new.append(a)
                rep = a
        kept.update(new)
        front.add_letters(new)
        row = front.least()
    return {w: b for w, b in sample.items() if kept.issuperset(w)}


def char_sfa(m):
    """Characteristic sample of a minimal deterministic complete feasible
    monotonic SFA: char_dfa of concretize_sfa(m), whose alphabet is the
    least model of every transition predicate, so char_dfa's separation
    guarantee holds over those letters."""
    return char_dfa(concretize_sfa(m))


class _Memo(dict):
    """A dict that fills a missing key with fn(key)."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def agrees(m, sample):
    """True iff m accepts exactly the positive words of the sample.
    Raises ValueError when a sample letter is not a letter of m's algebra;
    each distinct letter is checked once.  One walk of the sorted sample
    (see dfa_learn._agrees_sorted) over sets of states, which memoizes the
    successor set per (state set, letter), so every guard is looked up at
    most once per distinct step."""
    alg = m.algebra
    sample = sample_dict(sample)
    for d in set(chain.from_iterable(sample)):
        alg.check_letter(d)
    edges = m.edges

    def successors(key):
        states, d = key
        return frozenset(dst for q in states for _, sem, dst in edges[q]
                         if sem_contains(alg, sem, d))

    def accepted(states):
        return not m.accepting.isdisjoint(states)

    return _agrees_sorted(sorted(sample.items()), frozenset((m.initial,)),
                          _Memo(successors), _Memo(accepted))


def symbolic_prefix_tree(alg, sample, index=None):
    """Generalized prefix-tree automaton; always agrees with the sample.
    index, when given, is the sample's SampleIndex, so none is built."""
    return generalize_dfa(prefix_tree_dfa(sample, alg, index=index))


def infer_sfa(alg, sample):
    """Infer an SFA: decontaminate, infer a concrete DFA, generalize; if
    the result disagrees with the full sample, fall back to the symbolic
    prefix tree.  Given any consistent superset of char_sfa(M), the result
    recognizes L(M).  The sample is indexed once, and the index is shared
    by decontaminate and, when decontamination removed nothing, by
    infer_dfa and the fallback; at most one index is alive at a time."""
    _require_monotonic(alg)
    idx = SampleIndex(sample)
    sample = idx.words
    if not sample:
        raise ValueError("empty sample")
    cleaned = decontaminate(alg, sample, index=idx)
    if len(cleaned) < len(sample):
        # the full index is dropped before infer_dfa indexes the cleaned
        # sample
        idx = None
    if cleaned:
        candidate = generalize_dfa(infer_dfa(cleaned, alg, index=idx))
        if agrees(candidate, sample):
            return candidate
    return symbolic_prefix_tree(alg, sample, index=idx)
