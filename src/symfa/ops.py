"""Standard procedures on SFAs: product, complement, determinization,
minimization, and the decision procedures (emptiness, inclusion,
equivalence)."""

from __future__ import annotations

import operator
from collections import deque

from .algebra import (
    And, Not, SUP, and_all, denote, interval_piece_pred, or_all,
    sem_complement, sem_contains, sem_full, sem_intersect, sem_is_empty,
    sem_min, sem_union,
)
from .sfa import Sfa, _adopt_edges, basic_disjuncts, classify, complete_sfa

MINTERM_CAP = 2 ** 20

_ACCEPT = {"intersect": operator.and_, "union": operator.or_}


def product(m1, m2, mode="intersect"):
    """Reachable product automaton; transition predicates are pairwise
    conjunctions, infeasible ones dropped."""
    if mode not in _ACCEPT:
        raise ValueError("mode must be intersect or union")
    if mode == "union":
        f1, f2 = classify(m1), classify(m2)
        if not (f1.deterministic and f1.complete
                and f2.deterministic and f2.complete):
            raise ValueError("union product needs deterministic complete "
                             "inputs")
    return _product(m1, m2, _ACCEPT[mode])


def _product(m1, m2, accept):
    """Reachable product; a pair state accepts iff accept(a1, a2) for the
    two sides' acceptance.  The output gets the pairwise intersections as
    its edge table."""
    if m1.algebra != m2.algebra:
        raise ValueError("algebra mismatch")
    alg = m1.algebra
    e1, e2 = m1.edges, m2.edges

    def name(q1, q2):
        return "(%s,%s)" % (q1, q2)

    start = (m1.initial, m2.initial)
    seen = {start}
    order = [start]
    queue = deque([start])
    trans = []
    edges = {}
    while queue:
        q1, q2 = queue.popleft()
        src = name(q1, q2)
        row = []
        for p1, s1, d1 in e1[q1]:
            if sem_is_empty(s1):
                continue
            for p2, s2, d2 in e2[q2]:
                sem = sem_intersect(alg, s1, s2)
                if sem_is_empty(sem):
                    continue
                pred = And(p1, p2)
                dst = name(d1, d2)
                trans.append((src, pred, dst))
                row.append((pred, sem, dst))
                if (d1, d2) not in seen:
                    seen.add((d1, d2))
                    order.append((d1, d2))
                    queue.append((d1, d2))
        edges[src] = tuple(row)
    accepting = [name(a, b) for a, b in order
                 if accept(a in m1.accepting, b in m2.accepting)]
    return _adopt_edges(Sfa(alg, [name(a, b) for a, b in order], name(*start),
                            accepting, trans), edges)


def complement(m):
    """Complete m, then flip the accepting set."""
    if not classify(m).deterministic:
        raise ValueError("complement needs a deterministic input")
    c = complete_sfa(m)
    return _adopt_edges(Sfa(c.algebra, c.states, c.initial,
                            frozenset(c.states) - c.accepting, c.transitions),
                        c.edges)


def _minterms(alg, sems):
    """All satisfiable sign assignments over the given semantic sets,
    yielding (positive index set, region).  Unsatisfiable branches are
    pruned early."""
    out = []

    def walk(i, region, pos):
        if len(out) > MINTERM_CAP:
            raise ValueError("minterm count exceeds cap")
        if sem_is_empty(region):
            return
        if i == len(sems):
            out.append((frozenset(pos), region))
            return
        walk(i + 1, sem_intersect(alg, region, sems[i]), pos + [i])
        walk(i + 1, sem_intersect(alg, region, sem_complement(alg, sems[i])),
             pos)

    walk(0, sem_full(alg), [])
    return out


def determinize(m):
    """Subset construction; per subset state, one transition per satisfiable
    minterm of the outgoing predicates.  The output gets the minterm
    regions as its edge table."""
    alg = m.algebra
    table = m.edges

    def name(subset):
        return "{%s}" % ",".join(sorted(subset))

    start = frozenset([m.initial])
    seen = {start}
    order = [start]
    queue = deque([start])
    trans = []
    edges = {}
    while queue:
        subset = queue.popleft()
        src = name(subset)
        preds = []
        sems = []
        dst_map = []
        for q in sorted(subset):
            for p, sem, d in table[q]:
                if p not in preds:
                    preds.append(p)
                    sems.append(sem)
                    dst_map.append(set())
                dst_map[preds.index(p)].add(d)
        row = []
        for pos, region in _minterms(alg, sems):
            if not pos:
                continue
            target = frozenset().union(*(dst_map[i] for i in pos))
            label = and_all([preds[i] if i in pos else Not(preds[i])
                             for i in range(len(preds))])
            trans.append((src, label, name(target)))
            row.append((label, region, name(target)))
            if target not in seen:
                seen.add(target)
                order.append(target)
                queue.append(target)
        edges[src] = tuple(row)
    accepting = [name(s) for s in order if s & m.accepting]
    return _adopt_edges(Sfa(alg, [name(s) for s in order], name(start),
                            accepting, trans), edges)


# ---------------------------------------------------------------------------
# Minimization


def _representative_letters(alg, preds):
    """Finite letter set hitting every region distinguishable by the given
    predicates; each region's least letter is included."""
    return _region_letters(alg, [denote(alg, p) for p in preds])


def _region_letters(alg, sems):
    """_representative_letters over semantic sets."""
    if alg.is_interval:
        letters = {alg.dmin}
        for sem in sems:
            for lo, hi in sem:
                letters.add(lo)
                if hi is not SUP:
                    letters.add(hi)
        return sorted(letters)
    by_sig = {}
    for d in alg.letters():
        sig = tuple(sem_contains(alg, s, d) for s in sems)
        by_sig.setdefault(sig, d)
    return sorted(by_sig.values())


def minimize(m, form="neat"):
    """Minimal-state deterministic complete SFA for L(m), canonical:
    form=neat emits one maximal-region basic predicate per transition,
    form=normalized one disjunction per state pair ordered by least
    elements.  States are renamed s0, s1, ... in ascending-letter
    depth-first order from the initial state."""
    if form not in ("neat", "normalized"):
        raise ValueError("form must be neat or normalized")
    flags = classify(m)
    if not flags.deterministic or not flags.complete:
        raise ValueError("minimize needs a deterministic complete input")
    alg = m.algebra
    edges = m.edges
    letters = _region_letters(alg, [sem for row in edges.values()
                                    for _, sem, _ in row])

    def step(q, a):
        for _, sem, dst in edges[q]:
            if sem_contains(alg, sem, a):
                return dst
        raise AssertionError("incomplete state %r at %r" % (q, a))

    # reachable states and the concrete transition table
    reach = [m.initial]
    seen = {m.initial}
    table = {}
    i = 0
    while i < len(reach):
        q = reach[i]
        i += 1
        for a in letters:
            dst = step(q, a)
            table[q, a] = dst
            if dst not in seen:
                seen.add(dst)
                reach.append(dst)

    # Moore partition refinement
    block = {q: (q in m.accepting) for q in reach}
    while True:
        sig = {q: (block[q],) + tuple(block[table[q, a]] for a in letters)
               for q in reach}
        ids = {}
        new_block = {}
        for q in reach:
            new_block[q] = ids.setdefault(sig[q], len(ids))
        if len(set(new_block.values())) == len(set(block.values())):
            block = new_block
            break
        block = new_block

    # canonical state order: ascending-letter DFS from the initial block,
    # iterative (marked on pop, letters pushed in reverse) so that long
    # chains cannot exhaust the call stack
    rep = {}
    for q in reach:
        rep.setdefault(block[q], q)
    order = []
    placed = set()
    stack = [block[m.initial]]
    while stack:
        b = stack.pop()
        if b in placed:
            continue
        placed.add(b)
        order.append(b)
        for a in reversed(letters):
            stack.append(block[table[rep[b], a]])
    position = {b: i for i, b in enumerate(order)}
    name = {b: "s%d" % i for i, b in enumerate(order)}

    trans = []
    for b in order:
        q = rep[b]
        groups = {}
        for _, sem, dst in edges[q]:
            db = block[dst]
            groups[db] = sem_union(alg, groups.get(db, () if alg.is_interval
                                                   else frozenset()), sem)
        for db in sorted(groups, key=position.__getitem__):
            sem = groups[db]
            if sem_is_empty(sem):
                continue
            if alg.is_interval:
                atoms = [interval_piece_pred(lo, hi) for lo, hi in sem]
                if form == "neat":
                    for atom in atoms:
                        trans.append((name[b], atom, name[db]))
                else:
                    trans.append((name[b], or_all(atoms), name[db]))
            else:
                preds = [p for p, _, d in edges[q] if block[d] == db]
                label = or_all(preds)
                if form == "neat":
                    for basic in basic_disjuncts(alg, label):
                        trans.append((name[b], basic, name[db]))
                else:
                    trans.append((name[b], label, name[db]))
    return Sfa(alg, [name[b] for b in order], name[block[m.initial]],
               [name[b] for b in order if rep[b] in m.accepting], trans)


# ---------------------------------------------------------------------------
# Decision procedures


def is_empty(m):
    """True iff no accepting state is reachable over satisfiable edges."""
    seen = {m.initial}
    queue = deque([m.initial])
    while queue:
        q = queue.popleft()
        if q in m.accepting:
            return False
        for _, sem, dst in m.edges[q]:
            if dst not in seen and not sem_is_empty(sem):
                seen.add(dst)
                queue.append(dst)
    return True


def _shortest_accepted(m):
    """Shortest word in L(m), edges taken by least satisfying letter;
    None when L(m) is empty."""
    alg = m.algebra
    if m.initial in m.accepting:
        return ()
    seen = {m.initial}
    queue = deque([(m.initial, ())])
    while queue:
        q, w = queue.popleft()
        edges = []
        for _, sem, dst in m.edges[q]:
            d = sem_min(alg, sem)
            if d is not None:
                edges.append((d, dst))
        for d, dst in sorted(edges, key=lambda e: e[0]):
            if dst in seen:
                continue
            seen.add(dst)
            if dst in m.accepting:
                return w + (d,)
            queue.append((dst, w + (d,)))
    return None


def includes(m1, m2, mode="subset"):
    """mode=subset: True iff L(m1) <= L(m2); mode=equiv: True iff equal.
    On failure returns a shortest witness word: for equiv, a shortest word
    of the symmetric difference, found by one search over the product of
    the two completed machines."""
    if mode not in ("subset", "equiv"):
        raise ValueError("mode must be subset or equiv")
    if not classify(m1).deterministic or not classify(m2).deterministic:
        raise ValueError("includes needs deterministic inputs")
    if mode == "subset":
        diff = product(m1, complement(m2), "intersect")
    else:
        diff = _product(complete_sfa(m1), complete_sfa(m2), operator.ne)
    w = _shortest_accepted(diff)
    return True if w is None else w


def equiv(m1, m2):
    """Convenience wrapper: True iff L(m1) = L(m2)."""
    return includes(m1, m2, "equiv") is True
