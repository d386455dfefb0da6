"""Seeded input generators owned by the benchmark.

Every job's input comes from its own `random.Random` seeded by the string
"<workload>/<seed>/<job index>", so the same seed gives the same inputs in
every run and on every commit.  The generators build symfa `Sfa` objects,
but they decide sizes, minimality and sample contents with the benchmark's
own reference code, never with symfa's minimizer or sample construction, so a
change to the program cannot change what the benchmark feeds it.
"""

from __future__ import annotations

import bisect
import hashlib
import random
from collections import deque

from symfa.algebra import (
    INF, INTERVAL_NAT, And, Interval, Lit, Not, Or, prop_algebra,
)
from symfa.sfa import Sfa

from reference import RefMachine, prop_letters, subset_construction

MAX_ENDPOINT = 1000


def job_rng(workload, seed, index):
    return random.Random("%s/%d/%d" % (workload, seed, index))


# ---------------------------------------------------------------------------
# Interval targets of an exact minimal size


def draw_interval_target(rng, n, max_out=4):
    """Minimal deterministic complete feasible neat SFA over interval-nat
    with exactly n states.  Draws random n-state machines until one has
    every state reachable and pairwise distinguishable; returns the machine
    and the number of draws."""
    draws = 0
    while True:
        draws += 1
        cuts = []
        dests = []
        for _ in range(n):
            cs = [0] + sorted(rng.sample(range(1, MAX_ENDPOINT + 1),
                                         rng.randint(0, max_out - 1)))
            cuts.append(cs)
            dests.append([rng.randrange(n) for _ in cs])
        accepting = [q for q in range(n) if rng.random() < 0.5]
        if _is_minimal(cuts, dests, set(accepting), n):
            break
    trans = []
    for q in range(n):
        pieces = []  # maximal runs of one destination: [lo, dst]
        for lo, dst in zip(cuts[q], dests[q]):
            if pieces and pieces[-1][1] == dst:
                continue
            pieces.append([lo, dst])
        for j, (lo, dst) in enumerate(pieces):
            hi = pieces[j + 1][0] if j + 1 < len(pieces) else INF
            trans.append(("q%d" % q, Interval(lo, hi), "q%d" % dst))
    m = Sfa(INTERVAL_NAT, ["q%d" % q for q in range(n)], "q0",
            ["q%d" % q for q in accepting], trans)
    return m, draws


def draw_learning_target(rng, n, words):
    """An exact-n interval target whose characteristic sample has a word
    count in the range `words`; returns the target, the total number of
    machine draws and the sample."""
    draws = 0
    while True:
        m, d = draw_interval_target(rng, n)
        draws += d
        sample = characteristic_sample(m)
        if len(sample) in words:
            return m, draws, sample


def _is_minimal(cuts, dests, accepting, n):
    letters = sorted({lo for cs in cuts for lo in cs})

    def step(q, a):
        return dests[q][bisect.bisect_right(cuts[q], a) - 1]

    table = [[step(q, a) for a in letters] for q in range(n)]
    seen = {0}
    queue = deque([0])
    while queue:
        q = queue.popleft()
        for dst in table[q]:
            if dst not in seen:
                seen.add(dst)
                queue.append(dst)
    if len(seen) != n:
        return False
    block = [int(q in accepting) for q in range(n)]
    count = len(set(block))
    while count < n:
        ids = {}
        block = [ids.setdefault((block[q],) + tuple(block[t] for t in row),
                                len(ids))
                 for q, row in enumerate(table)]
        if len(ids) == count:
            return False
        count = len(ids)
    return True


# ---------------------------------------------------------------------------
# Samples


def concrete_alphabet(m):
    """Least letter of every transition guard of a neat interval target."""
    return sorted({pred.lo for _, pred, _ in m.transitions})


def characteristic_sample(m):
    """The paper's characteristic sample of a minimal interval target,
    built over its concrete alphabet: S.E u S.Sigma.E, with S the access
    words found depth first in ascending letter order and E the empty word
    plus a shortest separating word for every pair of states."""
    ref = RefMachine(m)
    sigma = concrete_alphabet(m)
    delta = {(q, a): next(iter(ref.step([q], a)))
             for q in m.states for a in sigma}
    access = {}
    stack = [(m.initial, ())]
    while stack:
        q, w = stack.pop()
        if q in access:
            continue
        access[q] = w
        for a in reversed(sigma):
            stack.append((delta[q, a], w + (a,)))
    s_words = sorted(access.values())
    state_of = {w: q for q, w in access.items()}
    e_words = [()]
    for i, wi in enumerate(s_words):
        for wj in s_words[i + 1:]:
            v = _separating_word(delta, sigma, m.accepting,
                                 state_of[wi], state_of[wj])
            if v not in e_words:
                e_words.append(v)

    def label(w):
        q = m.initial
        for a in w:
            q = delta[q, a]
        return int(q in m.accepting)

    sample = {}
    for s in s_words:
        for middle in [()] + [(a,) for a in sigma]:
            for e in e_words:
                w = s + middle + e
                sample[w] = label(w)
    return sample


def _separating_word(delta, sigma, accepting, q1, q2):
    start = (q1, q2)
    seen = {start}
    queue = deque([(start, ())])
    while queue:
        (p1, p2), w = queue.popleft()
        if (p1 in accepting) != (p2 in accepting):
            return w
        for a in sigma:
            nxt = (delta[p1, a], delta[p2, a])
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, w + (a,)))
    raise ValueError("states %r and %r are equivalent" % (q1, q2))


def random_interval_word(rng, max_len, endpoints=()):
    """Random word over interval-nat; letters mix uniform draws, guard
    endpoints and their neighbours, and inf."""
    w = []
    for _ in range(rng.randint(0, max_len)):
        r = rng.random()
        if r < 0.05:
            w.append(INF)
        elif r < 0.5 and endpoints:
            w.append(max(0, rng.choice(endpoints) + rng.choice((-1, 0))))
        else:
            w.append(rng.randint(0, 2 * MAX_ENDPOINT))
    return tuple(w)


def labelled_noise(rng, m, count, max_len=4):
    """Random words over arbitrary letters, labelled by the target."""
    ref = RefMachine(m)
    out = {}
    for _ in range(count):
        w = random_interval_word(rng, max_len)
        out[w] = int(ref.accepts(w))
    return out


# ---------------------------------------------------------------------------
# Machines for the operation chains


def draw_target_pair(rng, n, product_size):
    """Two exact-n interval targets whose union product, read over their
    representative letters, has a number of concrete transitions (reachable
    state pairs times letters) in the range product_size; returns both and
    the total number of machine draws."""
    draws = 0
    while True:
        a, da = draw_interval_target(rng, n)
        b, db = draw_interval_target(rng, n)
        draws += da + db
        ref_a, ref_b = RefMachine(a), RefMachine(b)
        letters = sorted(set(ref_a.interval_letters())
                         | set(ref_b.interval_letters()))
        pairs, _ = subset_construction([ref_a, ref_b], letters)
        if len(pairs) * len(letters) in product_size:
            return a, b, draws


def nfa_union(m1, m2):
    """NFA for L(m1) u L(m2): disjoint copies of both machines and a fresh
    initial state that copies both initial states' outgoing edges."""
    trans = []
    for tag, m in (("a", m1), ("b", m2)):
        for src, pred, dst in m.transitions:
            trans.append((tag + src, pred, tag + dst))
            if src == m.initial:
                trans.append(("i", pred, tag + dst))
    accepting = ["a" + q for q in m1.accepting] + ["b" + q for q in m2.accepting]
    if m1.initial in m1.accepting or m2.initial in m2.accepting:
        accepting.append("i")
    states = ["i"] + ["a" + q for q in m1.states] + ["b" + q for q in m2.states]
    return Sfa(m1.algebra, states, "i", accepting, trans)


def random_prop_pred(rng, k, depth):
    """Random predicate tree over prop literals p0..p{k-1}."""
    if depth == 0 or rng.random() < 0.3:
        return Lit(rng.randrange(k), rng.random() < 0.5)
    r = rng.random()
    if r < 0.2:
        return Not(random_prop_pred(rng, k, depth - 1))
    ctor = And if r < 0.6 else Or
    return ctor(random_prop_pred(rng, k, depth - 1),
                random_prop_pred(rng, k, depth - 1))


def random_prop_nfa(rng, k, n, out_degree, depth, det_transitions):
    """Random NFA over the prop algebra with n states, each with out_degree
    guarded edges to random destinations.  Draws until determinizing it
    gives a number of transitions in the range det_transitions, which fixes
    the size of the determinized machine; returns the NFA and the number
    of draws."""
    states = ["q%d" % i for i in range(n)]
    letters = prop_letters(k)
    draws = 0
    while True:
        draws += 1
        trans = [(q, random_prop_pred(rng, k, depth), rng.choice(states))
                 for q in states for _ in range(out_degree)]
        accepting = [q for q in states if rng.random() < 0.5] or [states[-1]]
        nfa = Sfa(prop_algebra(k), states, "q0", accepting, trans)
        if determinized_transitions(RefMachine(nfa), letters) in det_transitions:
            return nfa, draws


def determinized_transitions(ref, letters):
    """Transitions of the subset construction of ref: per reachable
    non-empty state set, one per distinct non-empty set of matching edges
    (a satisfiable minterm of the outgoing guards)."""
    order, _ = subset_construction([ref], letters)
    count = 0
    for (frontier,) in order:
        minterms = set()
        for d in letters:
            sig = tuple((q, ref.matches(q, d)) for q in sorted(frontier))
            if any(hit for _, hit in sig):
                minterms.add(sig)
        count += len(minterms)
    return count


def fingerprint(obj):
    """Stable hash of an input, for checking that a seed reproduces it."""
    return hashlib.sha256(repr(obj).encode()).hexdigest()
