"""Query-learning harness: membership/equivalence oracles, an honest
teacher backed by a target SFA, the adversarial propositional teacher
realizing the 2^k - 1 lower bound, an enumerating sound learner, and the
reduction that turns an SFA learner into a predicate learner."""

from __future__ import annotations

from functools import cache, partial

from .algebra import (
    SUP, Lit, Not, TOP, _span, and_all, denote, or_all, prop_algebra,
)
from .ops import _shortest_accepted, includes
from .sfa import Sfa, accepts


def basic_sfa(alg, psi):
    """Three-state SFA accepting exactly the one-letter words satisfying
    psi; it always has four transitions."""
    return _basic_sfa(alg, denote(alg, psi), lambda: psi)


def _basic_sfa(alg, sem, guard):
    """basic_sfa of the predicate, denoting sem, that guard returns: guard
    is a zero-argument builder, and the trees are built when read."""
    return Sfa._from_rows(alg, ("qi", "qac", "qrj"), "qi", ("qac",), [
        (("qi", sem, "qac"), guard),
        (("qi", alg.complement(sem), "qrj"), lambda: Not(guard())),
        (("qac", alg.full(), "qrj"), TOP),
        (("qrj", alg.full(), "qrj"), TOP),
    ])


def _into_accepting(m, states):
    """The letters that lead from one of states into an accepting state of
    m, nondeterministic or not: the union of those edges' denotations."""
    return m.algebra.union_all([sem for q in states for sem, dst in m.edges[q]
                                if dst in m.accepting])


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
    such word first.  A membership query on a word with a letter outside
    the algebra raises ValueError.

    pool (the undecided letters, ascending), s_plus and s_minus (the
    letters labeled 1 and 0, in the order decided) read as fresh lists.
    Each is kept in an insertion-ordered dict used as an ordered set, so
    a membership query finds its letter in O(1), in any order of
    queries."""

    def __init__(self, k):
        super().__init__()
        if not 1 <= k <= 10:
            raise ValueError("need 1 <= k <= 10")
        self.k = k
        self.algebra = prop_algebra(k)
        self._pool = dict.fromkeys(self.algebra.letters())
        self._plus, self._minus = {}, {}

    pool = property(lambda self: list(self._pool))
    s_plus = property(lambda self: list(self._plus))
    s_minus = property(lambda self: list(self._minus))

    def _decide(self, v, b):
        """Take the pool letter v out of the pool with label b, and answer
        with it."""
        del self._pool[v]
        (self._plus if b else self._minus)[v] = None
        return ((v,), b)

    def _mq(self, w):
        if len(w) == 1 and isinstance(w[0], str):
            if w[0] in self._pool:  # _decide(w[0], 0), inlined: 2^k calls
                del self._pool[w[0]]
                self._minus[w[0]] = None
                return 0
            if w[0] in self._plus:
                return 1
        for d in w:  # the pool holds letters only
            self.algebra.check_letter(d)
        return 0

    def _eq(self, hypothesis):
        """Reads the hypothesis's one-letter language off its initial
        state's edges, once, and scans the pool against it.  Once the pool
        is empty, s_plus and s_minus split the letters between them, so
        the language agrees with every decided label exactly when it is
        the denotation of s_plus: one compare, and the ordered scan of
        s_plus, then s_minus, runs only to find the witness when the two
        differ."""
        alg = self.algebra
        if hypothesis.algebra != alg:
            raise ValueError("algebra mismatch")
        if hypothesis.initial in hypothesis.accepting:
            return ((), 0)
        w = _shortest_accepted(hypothesis, 2)
        if w is not None:
            return (w, 0)
        one = _into_accepting(hypothesis, [hypothesis.initial])
        v = next((v for v in self._pool if alg.contains(one, v)), None)
        if v is not None:
            return self._decide(v, 0)
        if self._pool:
            return self._decide(next(iter(self._pool)), 1)
        if one != alg.union_all([(_span(alg.k, int(v, 2), 1),)
                                 for v in self._plus]):
            for b, decided in ((1, self._plus), (0, self._minus)):
                for v in decided:
                    if alg.contains(one, v) != b:
                        return ((v,), b)
        return True


def adversarial_prop_teacher(k):
    return AdversarialPropTeacher(k)


def _minterms_or(valuations):
    """The disjunction of the valuations' minterms, in the order given."""
    return or_all(and_all(Lit(i, bit == "1") for i, bit in enumerate(v))
                  for v in valuations)


def enumerating_predicate_learner(k, oracle):
    """Sound learner for one-letter languages over the prop algebra: asks a
    membership query per valuation, proposes the disjunction of the
    positive minterms, and incorporates counterexamples without ever
    re-querying a classified word.  A hypothesis's guards are denoted by
    the runs of the labels and built only when read; the learner builds
    the disjunction only for the predicate it returns.  The labels are
    read in the order the letters were asked, ascending, which updates in
    place keep."""
    alg = prop_algebra(k)
    classified = {v: oracle.mq((v,)) for v in alg.letters()}
    while True:
        labels = classified.items()
        psi = cache(partial(_minterms_or, [v for v, b in labels if b]))
        sem = alg.runs(labels).get(1, alg.empty)
        result = oracle.eq(_basic_sfa(alg, sem, psi))
        if result is True:
            return psi()
        w, b = result
        if len(w) != 1:
            raise ValueError("adversary returned a word of length %d"
                             % len(w))
        v = w[0]
        if classified[alg.check_letter(v)] != b:
            raise ValueError("oracle contradicted an earlier answer")
        classified[v] = b


def _next_pair(m, letters, last):
    """The least two-letter word of L(m) above last (from the least one
    when last is None), or None: the first letters are taken in order,
    each with the set of states it leads to from m's initial state, and
    the least second letter in the union of those states' edges into
    accepting states (found once per set) ends the search."""
    alg, after = m.algebra, cache(partial(_into_accepting, m))
    i, above = 0, alg.full()  # second letters allowed after letters[i]
    if last is not None:
        i, j = letters.index(last[0]), letters.index(last[1]) + 1
        above = ((letters[j], SUP),) if j < len(letters) else alg.empty
    for a in letters[i:]:
        reached = frozenset(dst for sem, dst in m.edges[m.initial]
                            if alg.contains(sem, a))
        b = alg.min(alg.intersect(after(reached), above))
        if b is not None:
            return (a, b)
        above = alg.full()


def algebra_learner_from_sfa_learner(sfa_learner, algebra_oracle, alg,
                                     budget=10000):
    """Run an SFA learner against a predicate-level oracle.  Membership
    queries for words of length other than one are answered negatively;
    equivalence queries are forwarded only once the hypothesis denotes a
    one-letter-word language, otherwise the wrapper answers with the next
    accepted word of length two (ascending, never repeating), or else
    with a shortest accepted word of length three or more.  Both words
    and the forwarded predicate are read off the hypothesis's edges."""
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
            if hypothesis.algebra != alg:
                raise ValueError("algebra mismatch")
            if hypothesis.initial in hypothesis.accepting:
                return ((), 0)
            w = _next_pair(hypothesis, letters, state["last_long"])
            if w is not None:
                state["last_long"] = w
                return (w, 0)
            w = _shortest_accepted(hypothesis, 3)
            if w is not None:
                return (w, 0)
            one = _into_accepting(hypothesis, [hypothesis.initial])
            psi = _minterms_or(v for v in letters if alg.contains(one, v))
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
    denoted once, at construction, and each proposal once per query.  A
    membership query on a value that is no letter of the algebra raises
    ValueError."""

    def __init__(self, alg, target):
        super().__init__()
        self.alg = alg
        self.target = target
        self._target_sem = denote(alg, target)

    def _mq(self, d):
        return 1 if self.alg.contains(self._target_sem,
                                      self.alg.check_letter(d)) else 0

    def _eq(self, psi):
        """The least letter on which psi and the target differ, labeled by
        the target."""
        alg, sem, target = self.alg, denote(self.alg, psi), self._target_sem
        d = alg.min(alg.union_all([
            alg.intersect(sem, alg.complement(target)),
            alg.intersect(target, alg.complement(sem))]))
        return True if d is None else (d, self._mq(d))
