import pytest
from hypothesis import given, strategies as st

from symfa import (
    And, INF, Interval, Lit, Not, Or, Sfa, TOP, accepts, classify,
    complete_sfa, contains, determinize, format_sample, format_sfa, is_sat,
    make_feasible, or_all, parse_pred, parse_sample, parse_sfa, pred_equiv,
    prop_algebra, sample_dict, size_metrics, to_neat, to_normalized,
)
from symfa import sfa
from symfa.algebra import INTERVAL_NAT
from symfa.ops import equiv

from conftest import (
    ALGEBRAS, TWO_STATE_SAMPLE, build_two_state_target, guards, identical,
    machines, sample_letters,
)


def test_classify_two_state_target(two_state_target):
    flags = classify(two_state_target)
    assert flags.deterministic
    assert flags.complete
    assert flags.neat
    assert flags.normalized
    assert flags.feasible


def test_size_metrics(two_state_target):
    metrics = size_metrics(two_state_target)
    assert metrics.n == 2
    assert metrics.m == 2
    assert metrics.l == 1


def test_accepts(two_state_target):
    m = two_state_target
    assert not accepts(m, ())
    assert accepts(m, (0, 100))
    assert accepts(m, (250, 50))
    assert not accepts(m, (0, 200))
    assert not accepts(m, (100,))
    assert accepts(m, (INF, 0))
    assert not accepts(m, (0, INF))


def test_accepts_nondeterministic():
    # two overlapping transitions: acceptance via any run
    m = Sfa(INTERVAL_NAT, ("a", "b", "c"), "a", ("b",), (
        ("a", Interval(0, 10), "b"),
        ("a", Interval(5, 20), "c"),
    ))
    assert accepts(m, (7,))
    assert accepts(m, (3,))
    assert not accepts(m, (15,))
    assert not classify(m).deterministic


def test_to_neat_splits_disjunctions():
    m = Sfa(INTERVAL_NAT, ("a", "b"), "a", ("b",), (
        ("a", Or(Interval(0, 10), Interval(20, 30)), "b"),
        ("b", TOP, "b"),
    ))
    neat = to_neat(m)
    assert classify(neat).neat
    assert equiv(complete_sfa(neat), complete_sfa(m)) is True
    a_preds = [p for src, p, dst in neat.transitions if src == "a"]
    assert len(a_preds) == 2


def test_to_neat_stops_past_its_cap(monkeypatch):
    # three pieces, one transition each, are more than a cap of two
    m = Sfa(INTERVAL_NAT, ("a",), "a", (), (
        ("a", Or(Interval(0, 5), Or(Interval(7, 9), Interval(20, 30))),
         "a"),))
    assert len(to_neat(m).transitions) == 3
    monkeypatch.setattr(sfa, "NEAT_TRANSITION_CAP", 2)
    with pytest.raises(ValueError, match="^neat expansion exceeds 2 "
                                         "transitions$"):
        to_neat(m)


def test_prop_to_neat_splits_into_disjoint_cubes():
    p2 = prop_algebra(2)
    m = Sfa(p2, ("a", "b"), "a", ("b",), (
        ("a", parse_pred(p2, "p0 | p1"), "b"),
        ("a", parse_pred(p2, "!p0 & !p1"), "a"),
    ))
    assert classify(m).deterministic
    neat = to_neat(m)
    assert [p for _, p, dst in neat.transitions if dst == "b"] == [
        And(Lit(0, False), Lit(1, True)), Lit(0, True)]
    assert classify(neat).deterministic


@st.composite
def normalized_prop_machines(draw):
    """Prop machines with at most one transition per state pair; a state
    often splits the domain as phi and !phi between two destinations, so
    that deterministic machines with disjunctive guards occur."""
    alg = draw(st.sampled_from([a for a in ALGEBRAS if not a.monotonic]))
    names = ["q%d" % i for i in range(draw(st.integers(1, 3)))]
    trans = []
    for q in names:
        dsts = draw(st.permutations(names))[:draw(st.integers(0, len(names)))]
        if len(dsts) >= 2 and draw(st.booleans()):
            phi = draw(guards(alg))
            trans += [(q, phi, dsts[0]), (q, Not(phi), dsts[1])]
        else:
            trans += [(q, draw(guards(alg)), dst) for dst in dsts]
    accepting = draw(st.lists(st.sampled_from(names), unique=True))
    return Sfa(alg, names, "q0", accepting, trans)


@given(normalized_prop_machines())
def test_prop_to_neat_keeps_determinism_and_language(m):
    neat = to_neat(m)
    assert classify(neat).neat
    assert classify(neat).deterministic == classify(m).deterministic
    if not classify(m).deterministic:
        m, neat = determinize(m), determinize(neat)
    assert equiv(complete_sfa(neat), complete_sfa(m))


def test_to_normalized_merges_parallel_edges():
    m = Sfa(INTERVAL_NAT, ("a", "b"), "a", ("b",), (
        ("a", Interval(0, 10), "b"),
        ("a", Interval(20, 30), "b"),
    ))
    norm = to_normalized(m)
    assert classify(norm).normalized
    a_edges = [(src, dst) for src, _, dst in norm.transitions if src == "a"]
    assert a_edges == [("a", "b")]
    pred = [p for src, p, dst in norm.transitions if src == "a"][0]
    assert pred_equiv(INTERVAL_NAT, pred,
                      Or(Interval(0, 10), Interval(20, 30)))


def test_make_feasible_drops_unsat_edges():
    m = Sfa(INTERVAL_NAT, ("a", "b"), "a", ("b",), (
        ("a", Interval(0, 10), "b"),
        ("a", And(Interval(0, 5), Interval(7, 9)), "b"),
    ))
    out = make_feasible(m)
    assert len(out.transitions) == 1
    assert classify(out).feasible


def test_complete_adds_sink():
    m = Sfa(INTERVAL_NAT, ("a",), "a", ("a",), (
        ("a", Interval(10, 20), "a"),
    ))
    done = complete_sfa(m)
    assert classify(done).complete
    assert accepts(done, (15, 15))
    assert not accepts(done, (5,))
    assert not accepts(done, (25, 15))
    # gaps below 10 and from 20 up, plus the sink loop
    assert len(done.transitions) == 4


def test_complete_noop_on_complete(two_state_target):
    assert complete_sfa(two_state_target) == two_state_target


def test_complete_bound_on_neat_partition(two_state_target):
    # removing one edge from a neat partition forces at most m+1 additions
    m = two_state_target
    metrics = size_metrics(m)
    reduced = Sfa(m.algebra, m.states, m.initial, m.accepting,
                  m.transitions[1:])
    done = complete_sfa(reduced)
    added = len(done.transitions) - len(reduced.transitions)
    per_state = {}
    for src, _, _ in done.transitions:
        per_state[src] = per_state.get(src, 0) + 1
    assert added <= (metrics.m + 1) * (metrics.n + 1)


def test_format_parse_roundtrip(two_state_target):
    text = format_sfa(two_state_target)
    again = parse_sfa(text)
    assert identical(again, two_state_target)


def test_parse_sfa_reports_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        parse_sfa("algebra interval-nat\nbogus directive\n")
    with pytest.raises(ValueError, match="^line 2: expected \\+ or -$"):
        parse_sample(INTERVAL_NAT, "+ 1\n* 2\n")
    for text, missing in (("states a\ninitial a\n", "algebra"),
                          ("algebra interval-nat\nstates a\n", "initial")):
        with pytest.raises(ValueError, match="^missing %s directive$"
                                             % missing):
            parse_sfa(text)


def test_parse_sfa_prop():
    text = ("algebra prop 2\nstates a b\ninitial a\naccepting b\n"
            "trans a b p0 & !p1\ntrans a a !(p0 & !p1)\n")
    m = parse_sfa(text)
    assert accepts(m, ("10",))
    assert not accepts(m, ("11",))
    assert identical(parse_sfa(format_sfa(m)), m)


def test_sample_roundtrip():
    text = format_sample(TWO_STATE_SAMPLE)
    again = parse_sample(INTERVAL_NAT, text)
    assert again == TWO_STATE_SAMPLE
    assert "+ 0 100" in text
    assert "-\n" in text or text.startswith("-")  # empty word line


def test_sample_dict_rejects_conflicts():
    with pytest.raises(ValueError):
        sample_dict([((1,), 1), ((1,), 0)])


@pytest.mark.parametrize("label", [1.5, 0.9, None, 2, -1, "1"])
def test_sample_dict_rejects_labels_other_than_0_and_1(label):
    with pytest.raises(ValueError):
        sample_dict([((1,), label)])


def test_sample_dict_takes_labels_equal_to_0_and_1():
    out = sample_dict([((0,), True), ((1,), False), ((2,), 1.0), ((), 0)])
    assert out == {(0,): 1, (1,): 0, (2,): 1, (): 0}
    assert all(type(b) is int for b in out.values())


def test_transition_validation():
    with pytest.raises(ValueError):
        Sfa(INTERVAL_NAT, ("a",), "missing", (), ())
    with pytest.raises(ValueError):
        Sfa(INTERVAL_NAT, ("a",), "a", ("b",), ())
    with pytest.raises(ValueError):
        Sfa(INTERVAL_NAT, ("a",), "a", (), (("a", TOP, "b"),))
    with pytest.raises(ValueError, match="^transition label is not a "
                                         "predicate$"):
        Sfa(INTERVAL_NAT, ("a",), "a", (), (("a", "[0,5)", "a"),))
    with pytest.raises(ValueError, match="^duplicate state ids$"):
        Sfa(INTERVAL_NAT, ("a", "a"), "a", (), ())


def test_accepts_rejects_bool_letters(two_state_target):
    # bool is a subclass of int, but True is not the letter 1
    with pytest.raises(ValueError):
        accepts(two_state_target, (True, False))
    assert accepts(two_state_target, (1, 0))


def reference_flags(m):
    """classify's pairwise definition on guard trees: a satisfiability
    query per pair of guards at a state, an equivalence query per state,
    and a satisfiability query per transition."""
    alg = m.algebra
    deterministic = complete = True
    for q in m.states:
        preds = [p for src, p, _ in m.transitions if src == q]
        for i in range(len(preds)):
            for j in range(i + 1, len(preds)):
                if is_sat(alg, And(preds[i], preds[j])):
                    deterministic = False
        if not pred_equiv(alg, or_all(preds), TOP):
            complete = False
    feasible = all(is_sat(alg, p) for _, p, _ in m.transitions)
    return deterministic, complete, feasible


def reference_accepts(m, w):
    """Acceptance by evaluating every transition's guard tree."""
    frontier = {m.initial}
    for d in w:
        frontier = {dst for src, p, dst in m.transitions
                    if src in frontier and contains(m.algebra, p, d)}
    return bool(frontier & m.accepting)


any_machine = st.sampled_from(ALGEBRAS).flatmap(machines)


@given(any_machine)
def test_classify_matches_pairwise_reference(m):
    # the completed and determinized forms reach the deterministic and
    # complete cases that random transitions seldom hit
    det = determinize(m)
    for x in (m, complete_sfa(m), det, complete_sfa(det)):
        flags = classify(x)
        got = (flags.deterministic, flags.complete, flags.feasible)
        assert got == reference_flags(x)


@given(any_machine, st.data())
def test_accepts_matches_transition_walk(m, data):
    letters = sample_letters(m.algebra)
    words = data.draw(st.lists(st.lists(st.sampled_from(letters),
                                        max_size=4), max_size=12))
    for w in words:
        assert accepts(m, w) == reference_accepts(m, w)
