"""Standard procedures on SFAs: product, complement, determinization,
minimization, and the decision procedures (emptiness, inclusion,
equivalence)."""

from __future__ import annotations

import operator
from functools import partial

from .algebra import GAP, SUP, And, Not, and_all
from .sfa import Sfa, _first_word, _fresh_state, complete_sfa

_ACCEPT = {"intersect": operator.and_, "union": operator.or_}


def _reachable(alg, start, name, steps, accepts):
    """The Sfa on the states reachable from start, numbered breadth first:
    steps(q) lists q's (denotation, guard tree, destination) rows in
    order, name(q) names q, and accepts(q) tells acceptance.  A name
    already taken gets _fresh_state's suffix."""
    names, order, rows = {start: name(start)}, [start], []
    taken = {names[start]}
    for q in order:
        for sem, tree, dst in steps(q):
            if dst not in names:
                names[dst] = _fresh_state(taken, name(dst))
                taken.add(names[dst])
                order.append(dst)
            rows.append(((names[q], sem, names[dst]), tree))
    return Sfa._from_rows(alg, list(names.values()), names[start],
                          [names[q] for q in order if accepts(q)], rows)


def product(m1, m2, mode="intersect"):
    """Reachable product automaton; transition predicates are pairwise
    conjunctions, built when read, infeasible ones dropped, and each
    transition's denotation is the pairwise intersection.  Every pair of
    edges is intersected in a nested loop rather than swept as in
    includes: intersect mode accepts nondeterministic inputs, whose
    pieces may overlap."""
    if mode not in _ACCEPT:
        raise ValueError("mode must be intersect or union")
    if mode == "union":
        if not (all(m1._shape) and all(m2._shape)):
            raise ValueError("union product needs deterministic complete "
                             "inputs")
    if m1.algebra != m2.algebra:
        raise ValueError("algebra mismatch")
    alg = m1.algebra
    accept = _ACCEPT[mode]
    e1, e2 = m1.edges, m2.edges

    def steps(pair):
        q1, q2 = pair
        for i, (s1, d1) in enumerate(e1[q1]):
            if s1:
                for j, (s2, d2) in enumerate(e2[q2]):
                    sem = alg.intersect(s1, s2)
                    if sem:
                        yield sem, lambda i=i, j=j: And(
                            m1._trees[q1][i], m2._trees[q2][j]), (d1, d2)

    return _reachable(alg, (m1.initial, m2.initial),
                      lambda pair: "(%s,%s)" % pair,
                      steps, lambda pair: accept(pair[0] in m1.accepting,
                                                 pair[1] in m2.accepting))


def complement(m):
    """Complete m, then flip the accepting set."""
    if not m._shape[0]:
        raise ValueError("complement needs a deterministic input")
    c = complete_sfa(m)
    return Sfa._from_rows(c.algebra, c.states, c.initial,
                          frozenset(c.states) - c.accepting, c._rows.items())


def _minterm(m, subset, sems, neg):
    """The conjunction of the distinct guards out of subset's states, in
    first-seen order, each negated where neg, the signs of sems, gives its
    denotation a negative sign."""
    sign = dict(zip(sems, neg))
    trees = {p: sign[sem] for q in sorted(subset)
             for p, (sem, _) in zip(m._trees[q], m.edges[q])}
    return and_all([Not(p) if n else p for p, n in trees.items()])


def determinize(m):
    """Subset construction; per subset state, one transition per satisfiable
    minterm of the outgoing denotations (the algebra's minterms: the
    letters on which every denotation holds or fails alike, found in one
    sweep over their pieces), listed with positive signs first, denotation
    by denotation.  Each one's guard, the signed conjunction of the
    subset's guards, is built when read, so determinize reads no guard
    tree of m until then."""
    alg = m.algebra

    def steps(subset):
        groups = {}  # denotation -> destinations
        for q in sorted(subset):
            for sem, d in m.edges[q]:
                groups.setdefault(sem, set()).add(d)
        sems = list(groups)
        # keyed by negated signature: sorting puts positive signs first
        minterms = alg.minterms(sems)
        for neg in sorted(minterms):
            if all(neg):
                continue
            target = frozenset().union(*(
                ds for ds, n in zip(groups.values(), neg) if not n))
            yield (minterms[neg], partial(_minterm, m, subset, sems, neg),
                   target)

    return _reachable(alg, frozenset([m.initial]),
                      lambda subset: "{%s}" % ",".join(sorted(subset)),
                      steps, lambda subset: subset & m.accepting)


# ---------------------------------------------------------------------------
# Minimization


def minimize(m, form="neat"):
    """Minimal-state deterministic complete SFA for L(m), canonical: a
    fresh machine on the minimal table that m keeps (Sfa._minimal), so
    the two forms of one machine share one refinement.  Each output
    denotation is the union of the regions leading to one destination,
    so it depends on L(m) alone, never on the input's guard syntax.
    form=neat emits one transition per piece (an interval piece, or a
    prop cube fixing the leading propositions), so the output is
    deterministic; form=normalized one per state pair.  Guards print by
    the algebra's to_pred.  Transitions leave each state ordered by
    destination.  States are renamed s0, s1, ... in ascending-letter
    depth-first order from the initial state."""
    if form not in ("neat", "normalized"):
        raise ValueError("form must be neat or normalized")
    if not all(m._shape):
        raise ValueError("minimize needs a deterministic complete input")
    alg = m.algebra
    names, accepting, runs = m._minimal
    split = alg.pieces if form == "neat" else lambda sem: [sem]
    return Sfa._from_rows(alg, names, names[0], accepting,
                          [((q, s, dst), None)
                           for q, row in zip(names, runs)
                           for dst, sem in row.items() for s in split(sem)])


# ---------------------------------------------------------------------------
# Decision procedures


def is_empty(m):
    """True iff no accepting state is reachable over satisfiable edges:
    one breadth-first search that stops at the first accepting state."""
    return _shortest_accepted(m) is None


def _shortest_accepted(m, min_len=0):
    """Shortest word of L(m) with at least min_len letters, edges taken by
    least satisfying letter; None when there is none.  The search runs
    over pairs (state, length capped at min_len)."""
    alg = m.algebra

    def steps(pair):
        q, n = pair
        # stable, so edges of a nondeterministic m that share a least
        # letter keep their order
        return sorted(((alg.min(sem), (dst, min(n + 1, min_len)))
                       for sem, dst in m.edges[q] if sem),
                      key=operator.itemgetter(0))

    return _first_word((m.initial, 0), lambda pair: pair[1] == min_len
                       and pair[0] in m.accepting, steps)


def includes(m1, m2, mode="subset"):
    """mode=subset: True iff L(m1) <= L(m2); mode=equiv: True iff equal.
    On failure returns a shortest witness word, least letter by letter:
    for subset a shortest word of L(m1) - L(m2), for equiv a shortest
    word of the symmetric difference.  Both inputs must be deterministic.

    The search runs on the fly over the pairs of states that the two
    machines reach together, breadth first, and returns at the first pair
    that tells the languages apart; it builds no product, complement or
    completed machine.  Both machines are completed virtually: the GAP
    pieces of a state's sweep lead to GAP, an implicit rejecting sink
    that keeps every letter.  In subset mode a pair (GAP, q2) never tells
    the languages apart and leads only to such pairs, so it changes no
    witness.  The steps out of a pair come from the algebra's meet, one
    merge sweep over the two states' swept pieces, O(m1 + m2), over both
    algebras."""
    if mode not in ("subset", "equiv"):
        raise ValueError("mode must be subset or equiv")
    if not (m1._shape[0] and m2._shape[0]):
        raise ValueError("includes needs deterministic inputs")
    if m1.algebra != m2.algebra:
        raise ValueError("algebra mismatch")
    f1, f2 = m1.accepting, m2.accepting
    if mode == "subset":
        def tells_apart(pair):
            return pair[0] in f1 and pair[1] not in f2
    else:
        def tells_apart(pair):
            return (pair[0] in f1) != (pair[1] in f2)
    # GAP, the virtual sink, is no state, so .get gives it its own sweep,
    # which keeps every letter in GAP
    sink = ([(m1.algebra.dmin, SUP, GAP)], False)
    swept1, swept2, meet = m1._swept, m2._swept, m1.algebra.meet
    w = _first_word((m1.initial, m2.initial), tells_apart,
                    lambda pair: meet(swept1.get(pair[0], sink)[0],
                                      swept2.get(pair[1], sink)[0]))
    return True if w is None else w


def equiv(m1, m2):
    """Convenience wrapper: True iff L(m1) = L(m2)."""
    return includes(m1, m2, "equiv") is True
