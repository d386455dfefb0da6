import hashlib
import itertools
import random
import time

import pytest

from symfa import (
    And, BOT, Lit, Not, Or, Sfa, TOP, accepts, and_all, basic_sfa,
    format_pred, or_all, pred_equiv,
)
from symfa import query_learn
from symfa.algebra import INTERVAL_NAT, Algebra, prop_algebra
from symfa.ops import _shortest_accepted
from symfa.query_learn import (
    AdversarialPropTeacher, Oracle, PredicateTeacher,
    adversarial_prop_teacher, algebra_learner_from_sfa_learner,
    enumerating_predicate_learner, sfa_teacher,
)


def test_basic_sfa_shape_and_language():
    p2 = prop_algebra(2)
    psi = And(Lit(0, True), Lit(1, True))
    m = basic_sfa(p2, psi)
    assert len(m.states) == 3
    assert len(m.transitions) == 4
    assert accepts(m, ("11",))
    assert not accepts(m, ("10",))
    assert not accepts(m, ())
    assert not accepts(m, ("11", "11"))


def test_sfa_teacher_is_honest():
    p2 = prop_algebra(2)
    target = basic_sfa(p2, Lit(0, True))
    teacher = sfa_teacher(target)
    assert teacher.mq(("10",)) == 1
    assert teacher.mq(("01",)) == 0
    assert teacher.mq(()) == 0
    assert teacher.eq(basic_sfa(p2, Lit(0, True))) is True
    w, b = teacher.eq(basic_sfa(p2, TOP))
    assert accepts(target, w) == bool(b)
    assert teacher.mq_count == 3 and teacher.eq_count == 2


def test_sfa_teacher_rejects_incomplete_target():
    p2 = prop_algebra(2)
    from symfa import Sfa
    with pytest.raises(ValueError):
        sfa_teacher(Sfa(p2, ("a",), "a", (), ()))


def test_enumerating_learner_against_honest_teacher():
    p2 = prop_algebra(2)
    for target in (And(Lit(0, True), Lit(1, True)), TOP, BOT,
                   Or(Lit(0, False), Lit(1, True))):
        teacher = sfa_teacher(basic_sfa(p2, target))
        learned = enumerating_predicate_learner(2, teacher)
        assert pred_equiv(p2, learned, target)


def test_enumerating_learner_query_count():
    p2 = prop_algebra(2)
    teacher = sfa_teacher(basic_sfa(p2, Lit(1, True)))
    enumerating_predicate_learner(2, teacher)
    # one membership query per valuation, then one successful equivalence
    assert teacher.mq_count == 4
    assert teacher.eq_count == 1


@pytest.mark.parametrize("k", [2, 3, 4])
def test_adversary_forces_lower_bound(k):
    teacher = adversarial_prop_teacher(k)
    learned = enumerating_predicate_learner(k, teacher)
    issued = teacher.query_count - 1  # the final yes answer is free
    assert issued >= 2 ** k - 1
    # the answers the adversary committed to are consistent with the result
    alg = teacher.algebra
    from symfa.algebra import contains
    for v in teacher.s_plus:
        assert contains(alg, learned, v)
    for v in teacher.s_minus:
        assert not contains(alg, learned, v)


def test_adversary_never_contradicts_itself():
    teacher = adversarial_prop_teacher(3)
    enumerating_predicate_learner(3, teacher)
    assert not set(teacher.s_plus) & set(teacher.s_minus)
    assert len(teacher.s_plus) + len(teacher.s_minus) \
        == len(teacher.algebra.letters())


def minterm(v):
    return and_all(Lit(i, bit == "1") for i, bit in enumerate(v))


def eq_only_learner(k, oracle, labels):
    """Asks equivalence queries only: starts from BOT, adds each positive
    counterexample and drops each negative one.  Records each
    counterexample's label in labels, which must never change."""
    accepted = set()
    while True:
        psi = or_all(minterm(v) for v in sorted(accepted))
        result = oracle.eq(basic_sfa(prop_algebra(k), psi))
        if result is True:
            return psi
        (v,), b = result
        assert labels.setdefault(v, b) == b
        (accepted.add if b else accepted.discard)(v)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_adversary_forces_lower_bound_on_eq_only_learner(k):
    teacher = adversarial_prop_teacher(k)
    labels = {}
    learned = eq_only_learner(k, teacher, labels)
    assert teacher.mq_count == 0
    assert teacher.eq_count - 1 >= 2 ** k - 1  # the final yes is free
    # membership queries agree with every label the adversary gave
    for v in teacher.algebra.letters():
        assert teacher.mq((v,)) == labels.get(v, 0)
    assert pred_equiv(teacher.algebra, learned, or_all(
        minterm(v) for v, b in sorted(labels.items()) if b))


def test_adversary_keeps_its_equivalence_answers():
    t = adversarial_prop_teacher(2)
    assert t.eq(basic_sfa(t.algebra, BOT)) == (("00",), 1)
    assert t.mq(("00",)) == 1
    assert t.mq(("01",)) == 0


def test_adversary_equivalence_branches():
    t = adversarial_prop_teacher(1)
    alg = t.algebra
    # an undecided valuation that the hypothesis accepts is labeled 0
    assert t.eq(basic_sfa(alg, TOP)) == (("0",), 0)
    # else the first undecided valuation is labeled 1
    assert t.eq(basic_sfa(alg, BOT)) == (("1",), 1)
    # with nothing undecided, the decided valuations are checked in turn
    assert t.eq(basic_sfa(alg, BOT)) == (("1",), 1)
    assert t.eq(basic_sfa(alg, TOP)) == (("0",), 0)
    assert t.eq(basic_sfa(alg, minterm("1"))) is True
    assert (t.mq(("0",)), t.mq(("1",))) == (0, 1)


def test_adversary_rejects_words_of_other_lengths():
    t = adversarial_prop_teacher(1)
    alg = t.algebra
    assert t.eq(basic_sfa(alg, TOP)) == (("0",), 0)
    assert t.eq(basic_sfa(alg, BOT)) == (("1",), 1)
    # accepts (), ('1',) and nothing else: the empty word comes first
    both = Sfa(alg, ("a", "b", "r"), "a", ("a", "b"), (
        ("a", minterm("1"), "b"), ("a", minterm("0"), "r"),
        ("b", TOP, "r"), ("r", TOP, "r")))
    assert t.eq(both) == ((), 0)
    assert t.mq(()) == 0
    # accepts ('1',) and ('1', '0'): a shortest longer word
    longer = Sfa(alg, ("a", "b", "c", "r"), "a", ("b", "c"), (
        ("a", minterm("1"), "b"), ("a", minterm("0"), "r"),
        ("b", minterm("0"), "c"), ("b", minterm("1"), "r"),
        ("c", TOP, "r"), ("r", TOP, "r")))
    assert t.eq(longer) == (("1", "0"), 0)
    assert t.mq(("1", "0")) == 0
    assert t.eq(basic_sfa(alg, minterm("1"))) is True


class Scripted(Oracle):
    """Answers membership queries by member and equivalence queries from
    a script."""

    def __init__(self, member, script):
        super().__init__()
        self.member, self.script = member, list(script)

    def _mq(self, w):
        return self.member(w)

    def _eq(self, hypothesis):
        return self.script.pop(0)


def test_enumerating_learner_takes_counterexamples():
    def member(w):
        return 1 if w == ("1",) else 0

    # a counterexample with the label already known changes nothing
    oracle = Scripted(member, [(("1",), 1), True])
    learned = enumerating_predicate_learner(1, oracle)
    assert pred_equiv(prop_algebra(1), learned, minterm("1"))
    assert (oracle.mq_count, oracle.eq_count) == (2, 2)
    with pytest.raises(ValueError, match="contradicted"):
        enumerating_predicate_learner(1, Scripted(member, [(("1",), 0)]))
    with pytest.raises(ValueError, match="length 2"):
        enumerating_predicate_learner(1, Scripted(member,
                                                  [(("0", "1"), 0)]))
    # a counterexample that is no letter would make the hypothesis's
    # denotation and its guard tree disagree
    with pytest.raises(ValueError, match="bad prop letter"):
        enumerating_predicate_learner(1, Scripted(member, [(("2",), 1)]))


class Recording(Scripted):
    """Scripted, and records each hypothesis proposed with the number of
    membership queries asked before it."""

    def __init__(self, member, script):
        super().__init__(member, script)
        self.proposed = []

    def _eq(self, hypothesis):
        self.proposed.append((hypothesis, self.mq_count))
        return super()._eq(hypothesis)


def test_enumerating_learner_proposes_one_hypothesis():
    # once every valuation is labeled, a counterexample teaches nothing:
    # the same object is proposed again, and no letter is asked again
    def member(w):
        return 1 if w[0] in ("01", "11") else 0

    oracle = Recording(member, [(("11",), 1), (("00",), 0), True])
    learned = enumerating_predicate_learner(2, oracle)
    assert pred_equiv(prop_algebra(2), learned, Lit(1))
    (first, asked), *rest = oracle.proposed
    assert asked == 4 and len(rest) == 2
    assert all(h is first and n == 4 for h, n in rest)
    assert (oracle.mq_count, oracle.eq_count) == (4, 3)


def test_adversary_rejects_bad_k():
    with pytest.raises(ValueError):
        adversarial_prop_teacher(0)


def test_predicate_teacher():
    p2 = prop_algebra(2)
    t = PredicateTeacher(p2, Lit(0, True))
    assert t.mq("11") == 1
    assert t.mq("01") == 0
    assert t.eq(Lit(0, True)) is True
    d, b = t.eq(BOT)
    assert d in ("10", "11") and b == 1


def test_teachers_refuse_membership_queries_on_non_letters():
    p2 = prop_algebra(2)
    for target in (Lit(0, True), TOP):
        t = PredicateTeacher(p2, target)
        for d in ("zzz", "1", "011", ("10",)):
            with pytest.raises(ValueError, match="bad prop letter"):
                t.mq(d)
    adversary = adversarial_prop_teacher(2)
    for w in (("zzz",), ("1",), ("10", "2")):
        with pytest.raises(ValueError, match="bad prop letter"):
            adversary.mq(w)
    assert adversary.pool == ["00", "01", "10", "11"]
    # the wrapper forwards a one-letter word's letter to the predicate
    # oracle, which refuses it

    def probing_learner(k, oracle):
        oracle.mq(("zzz",))

    with pytest.raises(ValueError, match="bad prop letter"):
        algebra_learner_from_sfa_learner(
            probing_learner, PredicateTeacher(p2, TOP), p2)


def test_wrapper_end_to_end():
    p2 = prop_algebra(2)
    for target in (And(Lit(0, True), Lit(1, True)), TOP, Lit(1, False)):
        oracle = PredicateTeacher(p2, target)
        learned = algebra_learner_from_sfa_learner(
            enumerating_predicate_learner, oracle, p2)
        assert pred_equiv(p2, learned, target)


def test_wrapper_needs_the_prop_algebra():
    with pytest.raises(ValueError, match="^only the prop algebra is "
                                         "supported here$"):
        algebra_learner_from_sfa_learner(
            enumerating_predicate_learner,
            PredicateTeacher(INTERVAL_NAT, TOP), INTERVAL_NAT)


def test_wrapper_answers_other_lengths_itself():
    # a word of another length than one is labeled 0 without asking the
    # predicate-level oracle
    alg = prop_algebra(2)
    teacher = PredicateTeacher(alg, TOP)
    answers = []

    def learner(k, oracle):
        answers.extend(oracle.mq(w) for w in [(), ("00", "11"), ("11",)])
        return enumerating_predicate_learner(k, oracle)

    learned = algebra_learner_from_sfa_learner(learner, teacher, alg)
    assert answers == [0, 0, 1]
    assert pred_equiv(alg, learned, TOP)
    assert teacher.mq_count == 1 + 4


def test_wrapper_screens_out_bad_hypotheses():
    # a hypothesis accepting the empty word or longer words is rejected by
    # the wrapper itself, without consuming predicate-level queries
    p2 = prop_algebra(2)
    seen = []

    def probing_learner(k, oracle):
        from symfa import Sfa
        everything = Sfa(p2, ("a",), "a", ("a",), (("a", TOP, "a"),))
        seen.append(oracle.eq(everything))  # accepts the empty word
        nothing = Sfa(p2, ("a",), "a", (), (("a", TOP, "a"),))
        seen.append(oracle.eq(nothing))
        return BOT

    oracle = PredicateTeacher(p2, BOT)
    out = algebra_learner_from_sfa_learner(probing_learner, oracle, p2)
    assert pred_equiv(p2, out, BOT)
    assert seen[0] == ((), 0)
    assert seen[1] is True
    assert oracle.mq_count == 0 and oracle.eq_count == 1


def test_wrapper_screens_out_longer_words():
    # a hypothesis that accepts exactly the three-letter words is answered
    # by the wrapper with a shortest such word, least letter by letter
    p2 = prop_algebra(2)
    seen = []

    def probing_learner(k, oracle):
        states = ("q0", "q1", "q2", "q3", "q4")
        seen.append(oracle.eq(Sfa(p2, states, "q0", ("q3",), [
            (q, TOP, states[min(i + 1, 4)]) for i, q in enumerate(states)])))
        return BOT

    oracle = PredicateTeacher(p2, BOT)
    algebra_learner_from_sfa_learner(probing_learner, oracle, p2)
    assert seen == [(("00", "00", "00"), 0)]
    assert oracle.mq_count == 0 and oracle.eq_count == 0


def test_wrapper_forwards_counterexamples():
    # a one-letter hypothesis goes to the predicate oracle, whose
    # counterexample comes back as a one-letter word; a learner that gives
    # up without a yes has its own result returned
    p2 = prop_algebra(2)
    seen = []

    def one_shot_learner(k, oracle):
        seen.append(oracle.eq(basic_sfa(p2, TOP)))
        return "gave up"

    oracle = PredicateTeacher(p2, Lit(0, True))
    out = algebra_learner_from_sfa_learner(one_shot_learner, oracle, p2)
    assert out == "gave up"
    assert seen == [(("00",), 0)]
    assert oracle.eq_count == 1


def test_wrapper_counterexamples_never_repeat():
    p2 = prop_algebra(2)
    seen = []

    def probing_learner(k, oracle):
        from symfa import Sfa
        everything = Sfa(p2, ("a", "b"), "a", ("b",), (
            ("a", TOP, "b"), ("b", TOP, "b"),
        ))  # accepts every nonempty word
        for _ in range(3):
            seen.append(oracle.eq(everything))
        return BOT

    with pytest.raises(RuntimeError):
        algebra_learner_from_sfa_learner(probing_learner,
                                         PredicateTeacher(p2, BOT), p2,
                                         budget=2)
    words = [w for w, _ in seen]
    assert len(words) == len(set(words))
    assert all(len(w) == 2 for w in words)


def test_oracle_counts():
    class Yes(Oracle):
        def _mq(self, w):
            return 1

        def _eq(self, hypothesis):
            return True

    o = Yes()
    o.mq(())
    o.mq((1,))
    o.eq(None)
    assert o.query_count == 3


# ---------------------------------------------------------------------------
# Pinned query behaviour: counts, committed valuations and returned
# predicates of both learners, against the adversary and, through the
# wrapper, against seeded honest predicate teachers


def text_digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def random_prop_target(rng, k, depth=3):
    if depth == 0 or rng.random() < 0.3:
        return Lit(rng.randrange(k), rng.random() < 0.5)
    op = rng.random()
    if op < 0.2:
        return Not(random_prop_target(rng, k, depth - 1))
    return (And if op < 0.6 else Or)(random_prop_target(rng, k, depth - 1),
                                     random_prop_target(rng, k, depth - 1))


# k -> digest of format_pred of the eq-only learner's result, every
# valuation positive
EQ_ONLY_AGAINST_ADVERSARY = {
    1: "f628239fd289d8f7", 2: "677564235bbaef97", 3: "44732521787fb060",
    4: "def04dc51eecc8e1", 5: "8a28a26ba5fef20f", 6: "28737ae26fd96091",
}


@pytest.mark.parametrize("k", range(1, 7))
def test_pinned_queries_against_the_adversary(k):
    letters = [format(v, "0%db" % k) for v in range(2 ** k)]
    t = adversarial_prop_teacher(k)
    learned = enumerating_predicate_learner(k, t)
    assert (t.mq_count, t.eq_count) == (2 ** k, 1)
    assert (t.s_plus, t.s_minus) == ([], letters)
    assert format_pred(learned) == "false"
    t = adversarial_prop_teacher(k)
    learned = eq_only_learner(k, t, {})
    assert (t.mq_count, t.eq_count) == (0, 2 ** k + 1)
    assert (t.s_plus, t.s_minus) == (letters, [])
    assert text_digest(format_pred(learned)) == EQ_ONLY_AGAINST_ADVERSARY[k]


# (k, seed) -> (format_pred of the target, eq-only learner's eq count,
# digest of its counterexamples in order, digest of format_pred of the
# result, which both learners return)
WRAPPED = {
    (3, 0): ("!p1 & !p1 & p1 & !p0 | !p2", 5, "18145528003beba1",
             "2c89f422f5f6db2f"),
    (3, 1): ("p0", 5, "9c5f18dbeb784a49", "24c1aaa7f07a59fb"),
    (3, 2): ("p0 | !p2", 7, "feddac529b5c9839", "6e9708ee6f68b564"),
    (4, 0): ("!p2 & !p2 & p2 & !p0 | p1", 9, "b87f384dd918aee9",
             "9c844547dcfc6d54"),
    (4, 1): ("p0", 9, "69c37b85e4b2a38a", "46b60973a574e00c"),
    (4, 2): ("p0 | p2", 13, "7fc67d4b02092c88", "94a2fb537f0c7497"),
    (5, 0): ("!p2 & !p2 & p2 & !p0 | !p4", 17, "a755b14faa1edfa4",
             "c0065cf31ef137ed"),
    (5, 1): ("p0", 17, "35b2f47f7c84ff53", "80fb2cca202c06cf"),
    (5, 2): ("p0 | p2", 25, "35de37d9ee7d17b6", "d1b8fe2d9520762e"),
}


@pytest.mark.parametrize("k, seed", sorted(WRAPPED))
def test_pinned_queries_through_the_wrapper(k, seed):
    text, eqs, cex_digest, result_digest = WRAPPED[k, seed]
    alg = prop_algebra(k)
    target = random_prop_target(random.Random(seed), k)
    assert format_pred(target) == text
    oracle = PredicateTeacher(alg, target)
    learned = algebra_learner_from_sfa_learner(
        enumerating_predicate_learner, oracle, alg)
    assert (oracle.mq_count, oracle.eq_count) == (2 ** k, 1)
    assert text_digest(format_pred(learned)) == result_digest
    oracle, labels = PredicateTeacher(alg, target), {}
    learned = algebra_learner_from_sfa_learner(
        lambda k, o: eq_only_learner(k, o, labels), oracle, alg)
    assert (oracle.mq_count, oracle.eq_count) == (0, eqs)
    assert text_digest(" ".join(labels)) == cex_digest
    assert text_digest(format_pred(learned)) == result_digest


# ---------------------------------------------------------------------------
# Equivalence answers read off the hypothesis's edges agree with reference
# teachers that run accepts on every word


class WordByWordAdversary(AdversarialPropTeacher):
    """The adversary whose equivalence answers run accepts on each word."""

    def _eq(self, hypothesis):
        if accepts(hypothesis, ()):
            return ((), 0)
        w = _shortest_accepted(hypothesis, 2)
        if w is not None:
            return (w, 0)
        for v in self.pool:
            if accepts(hypothesis, (v,)):
                return self._decide(v, 0)
        if self.pool:
            return self._decide(self.pool[0], 1)
        for v in self.s_plus:
            if not accepts(hypothesis, (v,)):
                return ((v,), 1)
        for v in self.s_minus:
            if accepts(hypothesis, (v,)):
                return ((v,), 0)
        return True


def word_by_word_wrapper(sfa_learner, algebra_oracle, alg):
    """algebra_learner_from_sfa_learner with equivalence answers that run
    accepts on each word of length two and each letter."""
    letters = alg.letters()
    state = {"answer": None, "last_long": None}

    class Wrapper(Oracle):
        def _mq(self, w):
            return algebra_oracle.mq(w[0]) if len(w) == 1 else 0

        def _eq(self, hypothesis):
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
            result = algebra_oracle.eq(or_all(
                minterm(v) for v in letters if accepts(hypothesis, (v,))))
            if result is True:
                state["answer"] = True
                return True
            d, b = result
            return ((d,), b)

    result = sfa_learner(alg.k, Wrapper())
    return state["answer"] or result


def random_letter_set(rng, letters, p=0.4):
    return or_all(minterm(v) for v in letters if rng.random() < p)


def random_hypothesis(rng, alg, accepted=None):
    """A small SFA, nondeterministic in general, of one of three kinds: a
    random machine, which may accept () or longer words; a chain whose
    two-letter words are many; or a machine whose initial state's edges,
    with overlapping guards, lead to dead ends, some accepting, which
    accepts the one-letter words of accepted when it is given."""
    letters = alg.letters()
    states = ["s%d" % i for i in range(rng.randint(3, 4))]
    kind = rng.randrange(3) if accepted is None else 2
    if kind == 0:
        rows = [(q, random_letter_set(rng, letters), rng.choice(states))
                for q in states for _ in range(rng.randint(0, 3))]
        accepting = [q for q in states if rng.random() < 0.4]
    elif kind == 1:
        rows = [("s0", random_letter_set(rng, letters, 0.7), "s1"),
                ("s1", random_letter_set(rng, letters, 0.7), "s2"),
                ("s0", random_letter_set(rng, letters), "s1")]
        accepting = ["s2"] + [q for q in states if rng.random() < 0.2]
    else:
        if accepted is None:
            accepted = [v for v in letters if rng.random() < 0.4]
        halves = [[v for v in accepted if rng.random() < 0.7]
                  for _ in range(2)]
        rows = [("s0", or_all(map(minterm, half)), dst)
                for half, dst in zip(halves, ("s1", "s2"))]
        rows += [("s0", or_all(map(minterm, set(accepted) - set(halves[0])
                                   - set(halves[1]))), "s1"),
                 ("s0", random_letter_set(rng, letters), states[-1])]
        accepting = ["s1", "s2"]
    return Sfa(alg, states, "s0", accepting, rows)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_adversary_answers_as_word_by_word_runs(k):
    rng, kinds = random.Random(k), set()
    for _ in range(40):
        new, old = adversarial_prop_teacher(k), WordByWordAdversary(k)
        for _ in range(2 ** k + 4):
            if rng.random() < 0.2:
                w = tuple(rng.choice(new.pool or ["1" * k])
                          for _ in range(rng.randint(0, 2)))
                assert new.mq(w) == old.mq(w)
            # now and then, the labels the adversary committed to, or
            # those with one more valuation
            accepted = None
            if not new.pool and rng.random() < 0.5:
                accepted = new.s_plus + [
                    v for v in new.s_minus if rng.random() < 0.1]
            h = random_hypothesis(rng, new.algebra, accepted)
            answer = new.eq(h)
            assert answer == old.eq(h)
            assert (new.pool, new.s_plus, new.s_minus) \
                == (old.pool, old.s_plus, old.s_minus)
            kinds.add(answer if answer is True else
                      (min(len(answer[0]), 2), answer[1], bool(new.pool)))
    # every branch of the answer was taken: (), two-letter and longer
    # words, pool valuations labeled 0 and 1, and decided ones of both
    assert kinds == {True, (0, 0, True), (0, 0, False), (2, 0, True),
                     (2, 0, False), (1, 0, True), (1, 1, True),
                     (1, 0, False), (1, 1, False)}


@pytest.mark.parametrize("k", [4, 5, 6])
def test_adversary_closes_as_word_by_word_runs(k):
    """Membership queries decide all but a few valuations, equivalence
    queries the rest, and then hypotheses near the committed labels meet
    the closing compare."""
    rng, kinds = random.Random(k), set()
    for _ in range(12):
        new, old = adversarial_prop_teacher(k), WordByWordAdversary(k)
        for v in rng.sample(new.pool, len(new.pool) - rng.randint(0, 3)):
            assert new.mq((v,)) == old.mq((v,))
        for _ in range(10):
            accepted = None
            if not new.pool and rng.random() < 0.8:
                accepted = [v for v in new.s_plus if rng.random() < 0.9] + [
                    v for v in new.s_minus if rng.random() < 0.02]
            h = random_hypothesis(rng, new.algebra, accepted)
            answer = new.eq(h)
            assert answer == old.eq(h)
            assert (new.pool, new.s_plus, new.s_minus) \
                == (old.pool, old.s_plus, old.s_minus)
            kinds.add(answer if answer is True else
                      (min(len(answer[0]), 2), answer[1], bool(new.pool)))
    assert {True, (1, 0, False), (1, 1, False)} <= kinds


def test_closing_eq_on_an_agreeing_hypothesis_scans_no_letter(monkeypatch):
    teacher = adversarial_prop_teacher(10)
    alg = teacher.algebra
    plus = set(random.Random(10).sample(alg.letters(), 3))
    for v in alg.letters():
        if v not in plus:
            teacher.mq((v,))
    while teacher.pool:
        teacher.eq(basic_sfa(alg, BOT))
    assert set(teacher.s_plus) == plus
    calls = []
    real = Algebra.contains
    monkeypatch.setattr(Algebra, "contains",
                        lambda *args: calls.append(args) or real(*args))
    assert teacher.eq(basic_sfa(alg, or_all(map(minterm, plus)))) is True
    assert calls == []
    # a disagreeing hypothesis is still shown the first decided valuation
    # it gets wrong, s_plus before s_minus
    wrong = sorted(plus)[1:] + [teacher.s_minus[5]]
    assert teacher.eq(basic_sfa(alg, or_all(map(minterm, wrong)))) \
        == ((teacher.s_plus[0],), 1)


def test_membership_queries_take_as_long_in_any_order():
    """The adversary finds a queried letter in its pool by one lookup, not
    by a scan: 1,024 membership queries at k = 10 in a shuffled order take
    under 3x as long as in ascending order, best of 3 runs each."""
    ascending = prop_algebra(10).letters()
    shuffled = random.Random(10).sample(ascending, len(ascending))
    best = {}
    for _ in range(3):
        for name, order in (("shuffled", shuffled), ("ascending", ascending)):
            teacher = adversarial_prop_teacher(10)
            start = time.perf_counter()
            for v in order:
                teacher.mq((v,))
            took = time.perf_counter() - start
            assert (teacher.pool, teacher.s_minus) == ([], order)
            best[name] = min(best.get(name, took), took)
    assert best["shuffled"] < 3 * best["ascending"]


class RecordingTeacher(PredicateTeacher):
    """An honest predicate teacher that records the text of each
    predicate it is asked about."""

    def __init__(self, alg, target):
        super().__init__(alg, target)
        self.asked = []

    def _eq(self, psi):
        self.asked.append(format_pred(psi))
        return super()._eq(psi)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_wrapper_answers_as_word_by_word_runs(k):
    rng, alg = random.Random(k), prop_algebra(k)
    pairs_after_pairs = forwarded = 0
    for _ in range(60):
        hypotheses = [random_hypothesis(rng, alg) for _ in range(8)]
        target = random_letter_set(rng, alg.letters())
        runs = []
        for wrapper in (algebra_learner_from_sfa_learner,
                        word_by_word_wrapper):
            answers, oracle = [], RecordingTeacher(alg, target)

            def probing_learner(k, o):
                for h in hypotheses:
                    answers.append(o.eq(h))
                    if answers[-1] is True:
                        break
                return BOT

            wrapper(probing_learner, oracle, alg)
            runs.append((answers, oracle.asked))
        assert runs[0] == runs[1]
        forwarded += len(runs[0][1])
        lengths = [len(a[0]) for a in runs[0][0] if a is not True]
        pairs_after_pairs += sum(
            1 for m, n in zip(lengths, lengths[1:]) if m == n == 2)
    # the search for a two-letter word often starts above an earlier one,
    # and many hypotheses reach the predicate oracle
    assert pairs_after_pairs > 5 and forwarded > 100


@pytest.mark.parametrize("other", [prop_algebra(2), INTERVAL_NAT])
def test_teachers_refuse_a_hypothesis_over_another_algebra(other):
    alg = prop_algebra(3)
    with pytest.raises(ValueError):
        adversarial_prop_teacher(3).eq(basic_sfa(other, TOP))

    def probing_learner(k, oracle):
        oracle.eq(basic_sfa(other, TOP))

    with pytest.raises(ValueError):
        algebra_learner_from_sfa_learner(
            probing_learner, PredicateTeacher(alg, TOP), alg)


def test_queries_run_no_word_and_build_only_answers(monkeypatch):
    # neither teacher runs the hypothesis on a word, and the disjunction
    # of minterms is built only for a predicate that is returned or
    # forwarded to the predicate oracle
    calls = {"accepts": 0, "or_all": 0}

    def counted(name):
        fn = getattr(query_learn, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(query_learn, name, wrapper)

    counted("accepts")
    counted("or_all")
    t = adversarial_prop_teacher(10)
    assert format_pred(enumerating_predicate_learner(10, t)) == "false"
    assert (t.mq_count, t.eq_count) == (1024, 1)
    assert calls == {"accepts": 0, "or_all": 1}
    calls.update(accepts=0, or_all=0)
    alg = prop_algebra(5)
    oracle = PredicateTeacher(alg, random_prop_target(random.Random(0), 5))
    algebra_learner_from_sfa_learner(enumerating_predicate_learner, oracle,
                                     alg)
    assert (oracle.mq_count, oracle.eq_count) == (32, 1)
    assert calls == {"accepts": 0, "or_all": 2}
