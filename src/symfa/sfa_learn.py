"""Learning pipeline for monotonic (interval) algebras: partition-level
concretizing and generalizing, automaton-level concretizing and
generalizing, sample decontamination, and the char_sfa / infer_sfa pair."""

from __future__ import annotations

from itertools import chain

from .algebra import (
    BOT, SUP, intervals_to_pred, min_model, sem_contains, sem_min,
)
from .dfa_learn import (
    Dfa, RowFrontier, SampleIndex, _agrees_sorted, _grow_rows, _prefix_tree,
    _word_id, char_dfa,
)
from .sfa import Sfa, _adopt_edges, classify, sample_dict, transition_table


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


def _runs(pairs):
    """Maximal runs of one owner in (letter, owner) pairs given in
    ascending letter order, as (owner, first letter of the run)."""
    runs = []
    for a, o in pairs:
        if not runs or runs[-1][0] != o:
            runs.append((o, a))
    return runs


def _run_guards(alg, runs, built):
    """Covering guards from the runs of one letter sweep: run j becomes the
    piece [its first letter, run j+1's first letter); the last run extends
    to the top and the first is stretched down to the least domain letter.
    Returns owner -> (guard, canonical interval list).  Runs of one owner
    are never adjacent, so its pieces, ascending, are the canonical list.
    built maps each piece tuple met so far to its (guard, list), so a
    caller that passes one dict to every sweep builds each distinct guard
    once and shares it."""
    pieces = {}
    for j, (o, start) in enumerate(runs):
        # the upper bound is exclusive; a run that ends just below the inf
        # letter must not swallow it
        end = runs[j + 1][1] if j + 1 < len(runs) else SUP
        pieces.setdefault(o, []).append((alg.dmin if j == 0 else start, end))
    out = {}
    for o, ps in pieces.items():
        ps = tuple(ps)
        guard = built.get(ps)
        if guard is None:
            guard = built[ps] = (intervals_to_pred(ps), ps)
        out[o] = guard
    return out


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
    guards = _run_guards(alg, _runs(sorted(owner.items())), {})
    return [guards[i][0] if i in guards else BOT for i in range(len(blocks))]


def _generalized(alg, states, initial, accepting, runs_of):
    """SFA over states whose state q leaves through the guards of the runs
    runs_of(q) (see _run_guards), one transition per destination in
    ascending destination order.  A state without runs, which only an
    empty alphabet gives, gets a full-domain self-loop: it keeps the
    language and makes the result complete.  The guards' denotations are
    adopted as the edge table, so none is denoted again."""
    built = {}
    trans = []
    edges = {}
    for q in states:
        guards = _run_guards(alg, runs_of(q) or [(q, alg.dmin)], built)
        row = edges[q] = tuple((guards[dst][0], guards[dst][1], dst)
                               for dst in sorted(guards))
        trans.extend((q, pred, dst) for pred, _, dst in row)
    return _adopt_edges(Sfa(alg, states, initial, accepting, trans), edges)


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
                        lambda q: _runs((a, delta[q, a]) for a in alphabet))


def decontaminate(alg, sample, index=None):
    """Restrict a sample to words over the letters that matter.

    Grows access words from the empty word as infer_dfa grows rows (the
    least member of a RowFrontier over the kept letters), and scans each
    access word once: in ascending order, a letter is kept when the
    sample tells its extension apart from that of the last letter kept
    for the word (the least domain letter to begin with).  The scan reads
    the word and the sample alone.  Every word using a letter that no
    scan kept is dropped; the rest keep the sample's order.  When the
    sample contains a characteristic sample produced by char_sfa, the
    kept letters are exactly that sample's concrete alphabet and the
    result still contains the characteristic sample.  Each distinct
    sample letter is checked against alg first, so a letter outside it
    raises ValueError.  index, when given, is the sample's SampleIndex
    built with alg, so none is built."""
    _require_monotonic(alg)
    idx = SampleIndex(sample, alg) if index is None else index
    kept = {alg.dmin}
    front = RowFrontier(idx, kept)
    row = ()
    while row is not None:
        front.add_row(row)
        rep = alg.dmin
        new = []
        for a in idx.letters():
            if not idx.equiv(row + (a,), row + (rep,)):
                if a not in kept:
                    new.append(a)
                rep = a
        kept.update(new)
        front.add_letters(new)
        row = front.least()
    return {w: b for w, b in idx.words.items() if kept.issuperset(w)}


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
    It is generalize_dfa(prefix_tree_dfa(sample, alg)), built without the
    states x letters table: a state's runs over the sample's ascending
    letters are its child letters, each on its own, and the runs of the
    rejecting sink between them, so the work is proportional to the
    number of sample prefixes.  Each distinct sample letter is checked
    against alg first, so a letter outside it raises ValueError.  index,
    when given, is the sample's SampleIndex built with alg, so none is
    built."""
    _require_monotonic(alg)
    idx = SampleIndex(sample, alg) if index is None else index
    letters = idx.letters()
    children, accepting = _prefix_tree(idx)
    if letters:
        children["sink"] = []
    pos = {a: i for i, a in enumerate(letters)}

    def runs_of(q):
        runs = []
        nxt = 0  # position of the first letter not yet in a run
        for a, child in children[q]:
            if pos[a] > nxt:
                runs.append(("sink", letters[nxt]))
            runs.append((child, a))
            nxt = pos[a] + 1
        if nxt < len(letters):
            runs.append(("sink", letters[nxt]))
        return runs

    return _generalized(alg, list(children), _word_id(()), accepting,
                        runs_of)


def infer_sfa(alg, sample):
    """Infer an SFA: decontaminate, infer a concrete DFA, generalize; if
    the result disagrees with the full sample, fall back to the symbolic
    prefix tree.  Given any consistent superset of char_sfa(M), the result
    recognizes L(M).  Each sample word is checked once:

    - Each distinct sample letter is checked against alg before anything
      is sorted, so a letter outside it raises ValueError.
    - When decontamination removed nothing, the generalized rows are
      returned with no further walk: row growing has walked every sample
      word on the rows (see dfa_learn._grow_rows), and generalize_dfa
      sends every sample letter where the rows do.  Where row growing
      falls back, the sample's symbolic prefix tree is returned.
    - Otherwise the cleaned sample's hypothesis (generalized rows, or its
      own symbolic prefix tree) agrees with every cleaned word, so agrees
      checks it on the removed words only.  It is kept when it agrees
      with them, and the full sample's prefix tree is returned when not.

    The sample is indexed once.  decontaminate shares that index, and the
    cleaned sample's index is cut from it (SampleIndex.restrict).  The
    full index's suffix sets are dropped before rows grow on the cleaned
    one, so only one index's suffix sets are alive at a time; the full
    index's sorted words stay for the fallback tree."""
    _require_monotonic(alg)
    idx = SampleIndex(sample, alg)
    sample = idx.words
    if not sample:
        raise ValueError("empty sample")
    cleaned = decontaminate(alg, sample, index=idx)
    if len(cleaned) == len(sample):
        return _hypothesis(alg, idx)
    removed = {w: b for w, b in sample.items() if w not in cleaned}
    idx.forget()
    candidate = _hypothesis(alg, idx.restrict(cleaned)) if cleaned else None
    if candidate is not None and agrees(candidate, removed):
        return candidate
    return symbolic_prefix_tree(alg, sample, index=idx)


def _hypothesis(alg, idx):
    """generalize_dfa of the rows grown over idx's sample, or that
    sample's symbolic prefix tree where row growing falls back.  Either
    agrees with every word of idx's sample."""
    rows = _grow_rows(idx, alg, idx.letters())
    if rows is None:
        return symbolic_prefix_tree(alg, idx.words, index=idx)
    return generalize_dfa(rows)
