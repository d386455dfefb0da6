"""Random instance generators used by the benchmark subcommand and the
test suite; those only the tests use live in tests/conftest.py."""

from __future__ import annotations

from .algebra import And, BOT, INF, INTERVAL_NAT, Interval, Not, Or, TOP
from .ops import minimize
from .sfa import Sfa


def random_sfa(rng, max_states=6, max_out=4, max_endpoint=1000,
               alg=None, endpoint_pool=None):
    """Random minimal deterministic complete feasible neat SFA over an
    interval algebra.  Each state's outgoing predicates partition the
    domain into at most max_out intervals."""
    alg = alg or INTERVAL_NAT
    n = rng.randint(1, max_states)
    states = ["q%d" % i for i in range(n)]
    trans = []
    for q in states:
        if endpoint_pool is not None:
            pool = [e for e in endpoint_pool if alg.dmin < e < INF]
            cuts = sorted(rng.sample(pool, min(rng.randint(0, max_out - 1),
                                               len(pool))))
        else:
            count = rng.randint(0, max_out - 1)
            cuts = sorted(rng.sample(range(1, max_endpoint + 1), count))
        bounds = [alg.dmin] + cuts + [INF]
        for lo, hi in zip(bounds, bounds[1:]):
            trans.append((q, Interval(lo, hi), rng.choice(states)))
    accepting = [q for q in states if rng.random() < 0.5]
    m = Sfa(alg, states, "q0", accepting, trans)
    return minimize(m, "neat")


def random_pred(rng, alg, depth=4, max_endpoint=1000):
    """Random interval predicate parse tree."""
    if depth == 0 or rng.random() < 0.3:
        kind = rng.random()
        if kind < 0.1:
            return TOP
        if kind < 0.2:
            return BOT
        a = rng.randint(0, max_endpoint)
        b = rng.choice([rng.randint(0, max_endpoint), INF])
        return Interval(a, b)
    op = rng.random()
    if op < 0.25:
        return Not(random_pred(rng, alg, depth - 1, max_endpoint))
    ctor = And if op < 0.625 else Or
    return ctor(random_pred(rng, alg, depth - 1, max_endpoint),
                random_pred(rng, alg, depth - 1, max_endpoint))
