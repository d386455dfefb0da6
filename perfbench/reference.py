"""Reference semantics for checking symfa's outputs.

Nothing here calls symfa's own evaluators (`symfa.algebra.contains`,
`denote`, `symfa.sfa.accepts`, ...).  Predicate trees are read by the class
names of their nodes and evaluated iteratively, so deep trees cannot hit the
recursion limit.  Interval atoms follow the README: `[lo,hi)` is half-open,
and `[lo,inf)` is closed at the top, so it also holds the letter `inf`.
"""

from __future__ import annotations

import functools
from collections import deque

INF = float("inf")


def holds(pred, d):
    """True iff letter d satisfies the predicate tree pred."""
    stack = [(pred, False)]
    vals = []
    while stack:
        node, expanded = stack.pop()
        kind = type(node).__name__
        if kind in ("And", "Or"):
            if expanded:
                right = vals.pop()
                left = vals.pop()
                vals.append((left and right) if kind == "And"
                            else (left or right))
            else:
                stack.append((node, True))
                stack.append((node.right, False))
                stack.append((node.left, False))
        elif kind == "Not":
            if expanded:
                vals.append(not vals.pop())
            else:
                stack.append((node, True))
                stack.append((node.child, False))
        elif kind == "Interval":
            if node.hi == INF:
                vals.append(node.lo <= d)
            else:
                vals.append(node.lo <= d < node.hi)
        elif kind == "Lit":
            vals.append((d[node.index] == "1") == node.positive)
        elif kind == "Top":
            vals.append(True)
        elif kind == "Bot":
            vals.append(False)
        else:
            raise TypeError("not a predicate node: %r" % (node,))
    return vals[0]


def truth_mask(pred, k):
    """Truth table of a prop predicate tree as an int: bit v is set iff
    the letter format(v, "0<k>b") satisfies pred (bit-parallel holds)."""
    full = (1 << 2 ** k) - 1
    stack = [(pred, False)]
    vals = []
    while stack:
        node, expanded = stack.pop()
        kind = type(node).__name__
        if kind in ("And", "Or"):
            if expanded:
                right = vals.pop()
                left = vals.pop()
                vals.append((left & right) if kind == "And"
                            else (left | right))
            else:
                stack.append((node, True))
                stack.append((node.right, False))
                stack.append((node.left, False))
        elif kind == "Not":
            if expanded:
                vals.append(full ^ vals.pop())
            else:
                stack.append((node, True))
                stack.append((node.child, False))
        elif kind == "Lit":
            ones = _letters_with_bit(k, k - 1 - node.index)
            vals.append(ones if node.positive else full ^ ones)
        elif kind == "Top":
            vals.append(full)
        elif kind == "Bot":
            vals.append(0)
        else:
            raise TypeError("not a prop predicate node: %r" % (node,))
    return vals[0]


@functools.lru_cache(maxsize=None)
def _letters_with_bit(k, shift):
    return sum(1 << v for v in range(2 ** k) if v >> shift & 1)


def atoms(pred):
    """Every Interval or Lit leaf of a predicate tree."""
    out = []
    stack = [pred]
    while stack:
        node = stack.pop()
        kind = type(node).__name__
        if kind in ("And", "Or"):
            stack.append(node.left)
            stack.append(node.right)
        elif kind == "Not":
            stack.append(node.child)
        elif kind in ("Interval", "Lit"):
            out.append(node)
    return out


def tree_size(pred):
    """Node count of a predicate tree; atoms, true and false count one."""
    size = 0
    stack = [pred]
    while stack:
        node = stack.pop()
        size += 1
        kind = type(node).__name__
        if kind in ("And", "Or"):
            stack.append(node.left)
            stack.append(node.right)
        elif kind == "Not":
            stack.append(node.child)
    return size


class RefMachine:
    """An Sfa read through the reference semantics, run as an NFA.  Prop
    guards are read once into truth tables; interval guards are evaluated
    per letter."""

    def __init__(self, m):
        self.initial = m.initial
        self.accepting = frozenset(m.accepting)
        self.states = tuple(m.states)
        self.edges = {q: [] for q in m.states}
        for src, pred, dst in m.transitions:
            self.edges[src].append((pred, dst))
        self._masks = None
        if m.algebra.kind == "prop":
            self._masks = {q: [truth_mask(p, m.algebra.k) for p, _ in edges]
                           for q, edges in self.edges.items()}
        self._memo = {}

    def matches(self, q, d):
        """Indices into edges[q] whose guard holds for d."""
        key = (q, d)
        hit = self._memo.get(key)
        if hit is None:
            if self._masks is None:
                hit = tuple(i for i, (pred, _) in enumerate(self.edges[q])
                            if holds(pred, d))
            else:
                v = int(d, 2)
                hit = tuple(i for i, mask in enumerate(self._masks[q])
                            if mask >> v & 1)
            self._memo[key] = hit
        return hit

    def step(self, frontier, d):
        out = set()
        for q in frontier:
            edges = self.edges[q]
            for i in self.matches(q, d):
                out.add(edges[i][1])
        return frozenset(out)

    def accepts(self, w):
        frontier = frozenset([self.initial])
        for d in w:
            frontier = self.step(frontier, d)
            if not frontier:
                return False
        return bool(frontier & self.accepting)

    def interval_letters(self):
        """Representative interval-nat letters: the least letter, every
        finite endpoint of an atom, and inf.  Every guard is constant
        between consecutive ones."""
        out = {0, INF}
        for edges in self.edges.values():
            for pred, _ in edges:
                for atom in atoms(pred):
                    for x in (atom.lo, atom.hi):
                        if x != INF:
                            out.add(x)
        return sorted(out)


def prop_letters(k):
    """Every letter of the prop algebra over k propositions."""
    return [format(v, "0%db" % k) for v in range(2 ** k)]


def determinism_faults(ref, letters):
    """(state, letter, matching destinations) for every state and letter
    that do not match exactly one transition."""
    faults = []
    for q in ref.states:
        edges = ref.edges[q]
        for d in letters:
            hit = ref.matches(q, d)
            if len(hit) != 1:
                faults.append((q, d, [edges[i][1] for i in hit]))
    return faults


def subset_construction(refs, letters):
    """Reachable tuples of state sets, one set per machine in refs, read
    letter by letter from the initial states; returns the tuples in
    breadth-first order and the successor index of each per letter."""
    start = tuple(frozenset([r.initial]) for r in refs)
    index = {start: 0}
    order = [start]
    table = []
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        row = []
        for d in letters:
            nxt = tuple(r.step(f, d) for r, f in zip(refs, cur))
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
                queue.append(nxt)
            row.append(index[nxt])
        table.append(row)
    return order, table


def minimal_state_count(refs, letters, combine):
    """States of the minimal complete DFA for the language that `combine`
    builds from the acceptance of each machine in refs (for example `any`
    for a union), by Moore refinement of the subset construction.  The
    letters must cut every guard into constant regions."""
    order, table = subset_construction(refs, letters)
    block = [int(combine(bool(f & r.accepting) for r, f in zip(refs, cur)))
             for cur in order]
    count = len(set(block))
    while True:
        ids = {}
        block = [ids.setdefault((block[s],) + tuple(block[t] for t in row),
                                len(ids))
                 for s, row in enumerate(table)]
        if len(ids) == count:
            return count
        count = len(ids)
