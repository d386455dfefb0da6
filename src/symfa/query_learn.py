"""Query-learning harness: membership/equivalence oracles, an honest
teacher backed by a target SFA, the adversarial propositional teacher
realizing the 2^k - 1 lower bound, an enumerating sound learner, and the
reduction that turns an SFA learner into a predicate learner."""

from __future__ import annotations

import itertools

from .algebra import Lit, Not, TOP, and_all, denote, or_all, prop_algebra
from .ops import _shortest_accepted, includes
from .sfa import Sfa, accepts


def basic_sfa(alg, psi):
    """Three-state SFA accepting exactly the one-letter words satisfying
    psi; it always has four transitions."""
    return Sfa(alg, ("qi", "qac", "qrj"), "qi", ("qac",), (
        ("qi", psi, "qac"),
        ("qi", Not(psi), "qrj"),
        ("qac", TOP, "qrj"),
        ("qrj", TOP, "qrj"),
    ))


class Oracle:
    """Membership/equivalence oracle with per-kind query counters."""

    def __init__(self):
        self.mq_count = 0
        self.eq_count = 0

    @property
    def query_count(self):
        return self.mq_count + self.eq_count

    def mq(self, w):
        self.mq_count += 1
        return self._mq(w)

    def eq(self, hypothesis):
        self.eq_count += 1
        return self._eq(hypothesis)

    def _mq(self, w):
        raise NotImplementedError

    def _eq(self, hypothesis):
        raise NotImplementedError


class SfaTeacher(Oracle):
    """Honest teacher for a fixed deterministic complete target SFA.
    Equivalence failures return a shortest disagreeing word, labeled by
    the target."""

    def __init__(self, target):
        super().__init__()
        if not all(target._shape):
            raise ValueError("target must be deterministic and complete")
        self.target = target

    def _mq(self, w):
        return 1 if accepts(self.target, w) else 0

    def _eq(self, hypothesis):
        witness = includes(self.target, hypothesis, "equiv")
        if witness is True:
            return True
        return (witness, 1 if accepts(self.target, witness) else 0)


def sfa_teacher(target):
    return SfaTeacher(target)


class AdversarialPropTeacher(Oracle):
    """Teacher over the prop algebra that commits to no target: every
    answer removes at most one valuation from the undecided pool, and a
    decided one keeps its label, so a sound learner cannot be told "yes"
    before 2^k - 1 queries.  Every word of another length than one is
    labeled 0, and a hypothesis that accepts one is shown a shortest
    such word first."""

    def __init__(self, k):
        super().__init__()
        if not 1 <= k <= 10:
            raise ValueError("need 1 <= k <= 10")
        self.k = k
        self.algebra = prop_algebra(k)
        self.pool = list(self.algebra.letters())
        self.s_plus = []
        self.s_minus = []

    def _mq(self, w):
        if len(w) == 1 and w[0] in self.pool:
            self.pool.remove(w[0])
            self.s_minus.append(w[0])
        return 1 if len(w) == 1 and w[0] in self.s_plus else 0

    def _eq(self, hypothesis):
        if accepts(hypothesis, ()):
            return ((), 0)
        w = _shortest_accepted(hypothesis, 2)
        if w is not None:
            return (w, 0)
        for v in self.pool:
            if accepts(hypothesis, (v,)):
                self.pool.remove(v)
                self.s_minus.append(v)
                return ((v,), 0)
        if self.pool:
            v = self.pool.pop(0)
            self.s_plus.append(v)
            return ((v,), 1)
        for v in self.s_plus:
            if not accepts(hypothesis, (v,)):
                return ((v,), 1)
        for v in self.s_minus:
            if accepts(hypothesis, (v,)):
                return ((v,), 0)
        return True


def adversarial_prop_teacher(k):
    return AdversarialPropTeacher(k)


def _minterm_of(v):
    return and_all(Lit(i, bit == "1") for i, bit in enumerate(v))


def enumerating_predicate_learner(k, oracle):
    """Sound learner for one-letter languages over the prop algebra: asks a
    membership query per unclassified valuation, proposes the disjunction
    of the positive minterms, and incorporates counterexamples without ever
    re-querying a classified word."""
    alg = prop_algebra(k)
    classified = {}
    for v in alg.letters():
        if v not in classified:
            classified[v] = oracle.mq((v,))
    while True:
        psi = or_all(_minterm_of(v) for v, b in sorted(classified.items())
                     if b)
        result = oracle.eq(basic_sfa(alg, psi))
        if result is True:
            return psi
        w, b = result
        if len(w) != 1:
            raise ValueError("adversary returned a word of length %d"
                             % len(w))
        v = w[0]
        if v in classified and classified[v] != b:
            raise ValueError("oracle contradicted an earlier answer")
        classified[v] = b


def algebra_learner_from_sfa_learner(sfa_learner, algebra_oracle, alg,
                                     budget=10000):
    """Run an SFA learner against a predicate-level oracle.  Membership
    queries for words of length other than one are answered negatively;
    equivalence queries are forwarded only once the hypothesis denotes a
    one-letter-word language, otherwise the wrapper answers with the next
    accepted word of length two (ascending, never repeating), or else
    with a shortest accepted word of length three or more."""
    if alg.monotonic:
        raise ValueError("only the prop algebra is supported here")
    letters = alg.letters()
    state = {"answer": None, "last_long": None}

    class Wrapper(Oracle):
        def _mq(self, w):
            if len(w) != 1:
                return 0
            return algebra_oracle.mq(w[0])

        def _eq(self, hypothesis):
            if self.query_count > budget:
                raise RuntimeError("query budget exhausted")
            if accepts(hypothesis, ()):
                return ((), 0)
            for w in itertools.product(letters, repeat=2):
                if (state["last_long"] is None or w > state["last_long"]) \
                        and accepts(hypothesis, w):
                    state["last_long"] = w
                    return (w, 0)
            w = _shortest_accepted(hypothesis, 3)
            if w is not None:
                return (w, 0)
            psi = or_all(_minterm_of(v) for v in letters
                         if accepts(hypothesis, (v,)))
            result = algebra_oracle.eq(psi)
            if result is True:
                state["answer"] = psi
                return True
            d, b = result
            return ((d,), b)

    result = sfa_learner(alg.k, Wrapper())
    if state["answer"] is not None:
        return state["answer"]
    return result


class PredicateTeacher(Oracle):
    """Honest predicate-level oracle over the prop algebra.  The target is
    denoted once, at construction, and each proposal once per query."""

    def __init__(self, alg, target):
        super().__init__()
        self.alg = alg
        self.target = target
        self._target_sem = denote(alg, target)

    def _mq(self, d):
        return 1 if self.alg.contains(self._target_sem, d) else 0

    def _eq(self, psi):
        """The least letter on which psi and the target differ, labeled by
        the target."""
        alg, sem, target = self.alg, denote(self.alg, psi), self._target_sem
        d = alg.min(alg.union_all([
            alg.intersect(sem, alg.complement(target)),
            alg.intersect(target, alg.complement(sem))]))
        return True if d is None else (d, self._mq(d))
