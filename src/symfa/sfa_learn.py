"""Learning pipeline for monotonic (interval) algebras: partition-level
concretizing and generalizing, automaton-level concretizing and
generalizing, sample decontamination, and the char_sfa / infer_sfa pair."""

from __future__ import annotations

from .algebra import (
    BOT, INF, SUP, Interval, interval_piece_pred, min_model, or_all,
    sem_min,
)
from .dfa_learn import (
    Dfa, SampleIndex, char_dfa, infer_dfa, least_separated_extension,
    prefix_tree_dfa,
)
from .sfa import Sfa, accepts, classify, sample_dict, transition_table


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


def decontaminate(alg, sample):
    """Restrict a sample to words over the letters that matter.

    Walks the access words recoverable from the sample, keeping for each
    one only the letters that the sample can tell apart from the letters
    already kept, then drops every word using another letter.  When the
    sample contains a characteristic sample produced by char_sfa, the
    kept letters are exactly that sample's concrete alphabet and the
    result still contains the characteristic sample."""
    _require_monotonic(alg)
    sample = sample_dict(sample)
    idx = SampleIndex(sample)
    letters = idx.letters()
    access = [()]
    kept = {alg.dmin}
    changed = True
    while changed:
        changed = False
        for u in access:
            rep = alg.dmin
            for a in letters:
                if not idx.equiv(u + (a,), u + (rep,)):
                    if a not in kept:
                        kept.add(a)
                        changed = True
                    rep = a
        # grow the access set by the lexicographically least extension the
        # sample can tell apart from every present member
        best = least_separated_extension(idx, access, sorted(kept))
        if best is not None:
            access.append(best)
            changed = True
    return {w: b for w, b in sample.items() if set(w) <= kept}


def char_sfa(m):
    """Characteristic sample of a minimal deterministic complete feasible
    monotonic SFA: char_dfa of concretize_sfa(m), whose alphabet is the
    least model of every transition predicate, so char_dfa's separation
    guarantee holds over those letters."""
    return char_dfa(concretize_sfa(m))


def agrees(m, sample):
    """True iff m accepts exactly the positive words of the sample."""
    return all(accepts(m, w) == bool(b)
               for w, b in sample_dict(sample).items())


def symbolic_prefix_tree(alg, sample):
    """Generalized prefix-tree automaton; always agrees with the sample."""
    return generalize_dfa(prefix_tree_dfa(sample_dict(sample), alg))


def infer_sfa(alg, sample):
    """Infer an SFA: decontaminate, infer a concrete DFA, generalize; if
    the result disagrees with the full sample, fall back to the symbolic
    prefix tree.  Given any consistent superset of char_sfa(M), the result
    recognizes L(M)."""
    _require_monotonic(alg)
    sample = sample_dict(sample)
    if not sample:
        raise ValueError("empty sample")
    cleaned = decontaminate(alg, sample)
    if cleaned:
        candidate = generalize_dfa(infer_dfa(cleaned, alg))
        if agrees(candidate, sample):
            return candidate
    return symbolic_prefix_tree(alg, sample)
