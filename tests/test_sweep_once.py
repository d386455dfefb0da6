"""Each state's row is laid out in letter order once per machine
(Algebra.sweep, kept in Sfa._swept), and every reader of that layout
shares it: classify, complete_sfa, minimize, includes and
concretize_sfa, here on a two-machine chain shaped like the benchmark's
interval operations.  The gaps of complete_sfa and includes are the
sweep's GAP pieces, so neither takes a complement or a union."""

import random
from collections import Counter

from symfa import (
    Sfa, classify, complement, complete_sfa, concretize_sfa, determinize,
    includes, minimize, product,
)
from symfa.algebra import Algebra

from conftest import exact_target


def nfa_union(m1, m2):
    """Disjoint copies of both machines under a fresh initial state that
    copies both initial states' edges: nondeterministic and incomplete."""
    trans = []
    for tag, m in (("a", m1), ("b", m2)):
        for src, pred, dst in m.transitions:
            trans.append((tag + src, pred, tag + dst))
            if src == m.initial:
                trans.append(("i", pred, tag + dst))
    accepting = ["a" + q for q in m1.accepting] + ["b" + q
                                                   for q in m2.accepting]
    if m1.initial in m1.accepting or m2.initial in m2.accepting:
        accepting.append("i")
    return Sfa(m1.algebra, ["i"] + ["a" + q for q in m1.states]
               + ["b" + q for q in m2.states], "i", accepting, trans)


def test_each_state_is_swept_once(monkeypatch):
    rng = random.Random(7)
    targets = [exact_target(rng, 6), exact_target(rng, 6)]
    swept, set_ops = [], []
    real_sweep = Algebra.sweep
    monkeypatch.setattr(Algebra, "sweep", lambda self, row: (
        swept.append(row) or real_sweep(self, row)))
    for name in ("complement", "union_all"):
        def counted(self, *args, name=name, real=getattr(Algebra, name)):
            set_ops.append(name)
            return real(self, *args)

        monkeypatch.setattr(Algebra, name, counted)

    # fresh machines, so that nothing is swept before the chain runs
    a, b = (Sfa(m.algebra, m.states, m.initial, m.accepting,
                m.transitions) for m in targets)
    part = Sfa(a.algebra, a.states, a.initial, a.accepting,
               a.transitions[1:])
    nfa = nfa_union(a, b)
    union = product(a, b, "union")
    det = determinize(nfa)
    set_ops.clear()
    done, part_done = complete_sfa(det), complete_sfa(part)
    not_a = complement(a)
    assert set_ops == []
    assert len(part_done.states) == len(part.states) + 1
    min_union, min_det = minimize(union, "neat"), minimize(done, "normalized")
    minimize(union, "normalized")
    minimize(done, "neat")
    machines = [a, b, part, nfa, union, det, done, part_done, not_a,
                min_union, min_det]
    for m in machines:
        classify(m)
    concretize_sfa(a)
    concretize_sfa(min_union)
    set_ops.clear()
    assert includes(a, min_union) is True
    assert includes(min_union, min_det, "equiv") is True
    assert includes(det, union, "equiv") is True
    # the words that det has outside L(a) are those of b, and the words
    # that min_union has outside L(not a) those of a
    assert includes(det, a) == includes(b, a)
    assert includes(min_union, not_a) == includes(a, not_a)
    # a machine missing one transition of a: incomplete, on either side
    assert includes(part, a) is True
    assert includes(part, union) is True
    assert includes(a, part, "equiv") == includes(part, a, "equiv")
    assert set_ops == []
    counts = Counter(map(id, swept))
    assert set(counts.values()) == {1}
    assert set(counts) == {id(row) for m in machines
                           for row in m.edges.values()}
