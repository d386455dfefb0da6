"""product, determinize and both minimize forms at benchmark sizes: exact
ten-state interval targets and prop NFAs at k = 4..6, checked by
breadth-first searches over concrete letters, one per region of the
common refinement of every guard involved.  Languages are compared by
stepping on sets of states, each guard denoted on its own; the minimal
state count comes from a partition refinement over the input's
transition_table."""

import operator
import random
from collections import deque

import pytest

from symfa import classify, complete_sfa, determinize, minimize, product
from symfa.algebra import denote
from symfa.sfa import Sfa, transition_table

from conftest import exact_target, random_prop_nfa

OPS = {"intersect": operator.and_, "union": operator.or_}


class Concrete:
    """m stepping on sets of states by concrete letters; each guard is
    denoted once, on its own, and each (state, letter) step is kept."""

    def __init__(self, m):
        self.m = m
        self.out = {q: [] for q in m.states}
        for src, pred, dst in m.transitions:
            self.out[src].append((denote(m.algebra, pred), dst))
        self.next = {}

    def start(self):
        return frozenset([self.m.initial])

    def step(self, states, a):
        alg, out, nxt = self.m.algebra, self.out, self.next
        for q in states:
            if (q, a) not in nxt:
                nxt[q, a] = frozenset(dst for sem, dst in out[q]
                                      if alg.contains(sem, a))
        return frozenset().union(*(nxt[q, a] for q in states))

    def accepts(self, states):
        return not self.m.accepting.isdisjoint(states)


def region_letters(*concretes):
    """One letter per region of the common refinement of every guard."""
    alg = concretes[0].m.algebra
    sems = [sem for c in concretes for row in c.out.values()
            for sem, _ in row]
    return [alg.min(r) for r in alg.regions(sems)]


def reach(letters, start, step):
    """Every tuple reached from start, breadth first."""
    seen = {start}
    queue = deque([start])
    while queue:
        t = queue.popleft()
        for a in letters:
            nxt = step(t, a)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def same_language(c, lang, letters, lang_start, lang_step):
    """True iff c's machine accepts exactly where lang(state) holds,
    searched over (set of its states, lang state) pairs."""
    pairs = reach(letters, (c.start(), lang_start),
                  lambda t, a: (c.step(t[0], a), lang_step(t[1], a)))
    return all(c.accepts(s) == lang(t) for s, t in pairs)


def minimal_states(m, letters):
    """States of the minimal complete DFA for a deterministic complete m:
    classes of its reachable states under the refinement of acceptance
    by successor classes, iterated until stable."""
    table = transition_table(m, letters)
    states = reach(letters, m.initial, lambda q, a: table[q, a])
    block = {q: q in m.accepting for q in states}
    while True:
        sig = {q: (block[q],) + tuple(block[table[q, a]] for a in letters)
               for q in states}
        ids = {}
        new = {q: ids.setdefault(sig[q], len(ids)) for q in states}
        if len(ids) == len(set(block.values())):
            return len(ids)
        block = new


def nfa_union(a, b):
    """An NFA for L(a) | L(b): both machines side by side, and a fresh
    initial state with the out transitions of both initial states."""
    trans = [("i", p, "a" + dst) for src, p, dst in a.transitions
             if src == a.initial]
    trans += [("i", p, "b" + dst) for src, p, dst in b.transitions
              if src == b.initial]
    trans += [("a" + s, p, "a" + d) for s, p, d in a.transitions]
    trans += [("b" + s, p, "b" + d) for s, p, d in b.transitions]
    accepting = (["a" + q for q in a.accepting]
                 + ["b" + q for q in b.accepting])
    if a.initial in a.accepting or b.initial in b.accepting:
        accepting.append("i")
    states = (["i"] + ["a" + q for q in a.states]
              + ["b" + q for q in b.states])
    return Sfa(a.algebra, states, "i", accepting, trans)


# ---------------------------------------------------------------------------
# The checks


def check_product(a, b, mode):
    out = product(a, b, mode)
    ca, cb, co = Concrete(a), Concrete(b), Concrete(out)
    letters = region_letters(ca, cb, co)
    op = OPS[mode]

    def step(t, x):
        return ca.step(t[0], x), cb.step(t[1], x)

    assert same_language(co, lambda t: op(ca.accepts(t[0]),
                                           cb.accepts(t[1])),
                         letters, (ca.start(), cb.start()), step)
    if classify(a).deterministic and classify(b).deterministic:
        # one output state per reachable pair of states
        pairs = reach(letters, (ca.start(), cb.start()), step)
        assert len(out.states) == len({t for t in pairs if all(t)})
        assert classify(out).deterministic
    return out


def check_determinize(nfa):
    det = determinize(nfa)
    assert classify(det).deterministic
    cn, cd = Concrete(nfa), Concrete(det)
    letters = region_letters(cn, cd)
    assert same_language(cd, cn.accepts, letters, cn.start(), cn.step)
    # one output state per reachable non-empty subset
    subsets = reach(letters, cn.start(), cn.step)
    assert len(det.states) == len([s for s in subsets if s])
    return det


def check_minimize(m):
    """m is deterministic and complete."""
    cm = Concrete(m)
    n = minimal_states(m, region_letters(cm))
    for form in ("neat", "normalized"):
        out = minimize(m, form)
        flags = classify(out)
        assert flags.deterministic and flags.complete
        assert flags.neat if form == "neat" else flags.normalized
        assert len(out.states) == n
        co = Concrete(out)
        assert same_language(co, cm.accepts, region_letters(cm, co),
                             cm.start(), cm.step)


def test_ops_on_ten_state_targets():
    rng = random.Random(10)
    for _ in range(5):
        a, b = exact_target(rng, 10), exact_target(rng, 10)
        for mode in ("intersect", "union"):
            check_minimize(check_product(a, b, mode))
        det = check_determinize(nfa_union(a, b))
        check_minimize(complete_sfa(det))
        check_minimize(a)


@pytest.mark.parametrize("k", [4, 5, 6])
def test_ops_on_prop_nfas(k):
    rng = random.Random(100 + k)
    for _ in range(4):
        n1, n2 = random_prop_nfa(rng, k), random_prop_nfa(rng, k)
        check_product(n1, n2, "intersect")
        d1 = complete_sfa(check_determinize(n1))
        d2 = complete_sfa(check_determinize(n2))
        check_minimize(d1)
        check_minimize(check_product(d1, d2, "union"))
        check_minimize(complete_sfa(check_determinize(nfa_union(n1, n2))))
