"""Symbolic finite automata: data model, acceptance, classification,
transformations to special forms, and the text file formats."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .algebra import (
    GAP, Algebra, And, Interval, Lit, Not, Pred, Top, _nodes, denote,
    format_letter, format_pred, or_all, parse_pred, pred_size,
)

NEAT_TRANSITION_CAP = 10 ** 5


class Sfa:
    """A symbolic finite automaton.  Its data are its transition rows
    (src, denotation, dst), in order, each denotation the algebra's
    canonical interval list of the guard's letters, over either algebra;
    edges[q] lists q's rows as (denotation, dst) pairs.
    Sfa(algebra, states, initial, accepting, transitions) takes (src,
    guard, dst) triples and denotes each guard once.  Parallel
    transitions with equal (src, denotation, dst) are one transition,
    printed by the first guard given.  A row that an operation builds
    carries a guard, a zero-argument builder of one, or None, which prints
    as algebra.to_pred of its denotation: the guard trees of transitions
    are built on its first read.  Two machines are equal when their
    algebra, states, initial state, accepting set and ordered rows are,
    however their guards are written.  A machine is never changed once
    built, so what it computes on first use is kept: its guard trees, its
    flags, its sweep, each state's pieces laid out in letter order once
    (Algebra.sweep), which every reader of that order shares, and its
    minimal table, which minimize emits in either form."""

    def __init__(self, algebra, states, initial, accepting, transitions):
        rows = []
        for src, pred, dst in transitions:
            if not isinstance(pred, Pred):
                raise ValueError("transition label is not a predicate")
            rows.append(((src, denote(algebra, pred), dst), pred))
        self._set(algebra, states, initial, accepting, rows)

    @classmethod
    def _from_rows(cls, algebra, states, initial, accepting, rows):
        """The operations' constructor: rows of ((src, denotation, dst),
        guard, builder or None)."""
        m = cls.__new__(cls)
        m._set(algebra, states, initial, accepting, rows)
        return m

    def _set(self, algebra, states, initial, accepting, rows):
        self.algebra, self.initial = algebra, initial
        self.states, self.accepting = tuple(states), frozenset(accepting)
        names = set(self.states)
        if len(names) != len(self.states):
            raise ValueError("duplicate state ids")
        if initial not in names:
            raise ValueError("initial state not in states")
        if not self.accepting <= names:
            raise ValueError("accepting states not in states")
        self._rows = {}  # (src, denotation, dst) -> guard, builder or None
        for row, pred in rows:
            if row[0] not in names or row[2] not in names:
                raise ValueError("transition endpoint not in states")
            self._rows.setdefault(row, pred)
        self._key = (algebra, self.states, initial, self.accepting,
                     tuple(self._rows))
        self.edges = {q: [] for q in self.states}
        for src, sem, dst in self._rows:
            self.edges[src].append((sem, dst))

    @cached_property
    def transitions(self):
        """(src, guard, dst) triples, in order: builders are called, and
        equal denotations without a guard share one built tree."""
        built = {}
        for (_, sem, _), pred in self._rows.items():
            if pred is None and sem not in built:
                built[sem] = self.algebra.to_pred(sem)
        return tuple((src, built[sem] if pred is None else
                      pred if isinstance(pred, Pred) else pred(), dst)
                     for (src, sem, dst), pred in self._rows.items())

    @cached_property
    def _trees(self):
        """State -> the guards of its transitions, in order, aligned with
        edges[state]."""
        trees = {q: [] for q in self.states}
        for src, pred, _ in self.transitions:
            trees[src].append(pred)
        return trees

    def out(self, q):
        """(guard, dst) pairs of q's transitions, in order."""
        return [(p, dst) for p, (_, dst) in zip(self._trees[q], self.edges[q])]

    def __eq__(self, other):
        return isinstance(other, Sfa) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return "Sfa(%r, %r, %r, %r, %r)" % (
            self.algebra, self.states, self.initial, self.accepting,
            self.transitions)

    @cached_property
    def _swept(self):
        """State -> the algebra's sweep of its row, (pieces, overlap),
        computed once for every state on first use: the letter-order
        layout that the shape flags, the sink's gaps, transition tables,
        minimize and includes read."""
        sweep = self.algebra.sweep
        return {q: sweep(row) for q, row in self.edges.items()}

    @cached_property
    def _shape(self):
        """(deterministic, complete), computed on first use: no state's
        pieces overlap, and none leaves a GAP."""
        swept = self._swept.values()
        return (not any(overlap for _, overlap in swept),
                all(dst is not GAP for pieces, _ in swept
                    for _, _, dst in pieces))

    @cached_property
    def _minimal(self):
        """The minimal table of a deterministic complete machine, computed
        once on first use, after the caller has checked the flags: the
        state names s0, s1, ..., the accepting names, and each state's
        runs {destination: denotation}, by ascending destination number.
        The machine is read as a DFA with one letter per region of its
        guards' common refinement (the lower ends of its swept pieces), as
        integer rows, one pass over each state's pieces (row_successors),
        that _minimize_table minimizes; a destination's denotation is the
        union of the regions leading to it (the algebra's runs), so it
        depends on the language alone, never on the guards' syntax."""
        alg, swept = self.algebra, self._swept
        letters = sorted({lo for pieces, _ in swept.values()
                          for lo, _, _ in pieces})
        reps, rows = _minimize_table(
            self.initial, self.accepting.__contains__,
            lambda q: alg.row_successors(swept[q][0], letters))
        names = ["s%d" % i for i in range(len(rows))]
        runs = []
        for row in rows:
            sems = alg.runs(zip(letters, row))
            runs.append({names[dst]: sems[dst] for dst in sorted(sems)})
        return (names, [names[i] for i, q in enumerate(reps)
                        if q in self.accepting], runs)

    @cached_property
    def flags(self):
        """SfaFlags, computed on first use (see classify)."""
        deterministic, complete = self._shape
        return SfaFlags(
            deterministic=deterministic,
            complete=complete,
            neat=all(_is_basic(p) for _, p, _ in self.transitions),
            normalized=len({(s, d) for s, _, d in self._rows})
            == len(self._rows),
            feasible=all(sem for _, sem, _ in self._rows),
        )


@dataclass(frozen=True)
class SizeMetrics:
    n: int
    m: int
    l: int


@dataclass(frozen=True)
class SfaFlags:
    deterministic: bool
    complete: bool
    neat: bool
    normalized: bool
    feasible: bool


def accepts(m, w):
    """True iff some run of m over w ends in an accepting state."""
    alg = m.algebra
    edges = m.edges
    frontier = {m.initial}
    for d in w:
        alg.check_letter(d)
        frontier = {dst for q in frontier for sem, dst in edges[q]
                    if alg.contains(sem, d)}
        if not frontier:
            return False
    return bool(frontier & m.accepting)


def transition_table(m, letters):
    """(state, letter) -> destination for every state of a deterministic
    complete m: the one edge whose guard holds the letter, found by the
    algebra's row_successors over each state's swept pieces and the
    ascending letters."""
    order = sorted(set(letters))
    table = {}
    for q, (pieces, _) in m._swept.items():
        dst_of = dict(zip(order, m.algebra.row_successors(pieces, order)))
        table.update(((q, a), dst_of[a]) for a in letters)
    return table


def _minimize_table(initial, accepting, successors):
    """The minimal complete DFA of the states reachable from initial, as
    integer rows: the refinement core of Sfa._minimal and
    dfa_learn.minimize_dfa.  successors(q) lists q's destinations, one
    per letter, in ascending letter order; accepting(q) tells acceptance.
    The reachable states are numbered breadth first, each gets one row of
    successor numbers, and Moore refinement splits blocks by (own block,
    successor blocks) until their number stops growing.  The blocks are
    then numbered 0, 1, ... in ascending-letter depth-first order from
    the initial state's block (iterative, so long chains cannot exhaust
    the call stack).  Returns (reps, rows): a state of each block, and
    each block's successor blocks, one per letter."""
    index = {initial: 0}
    states = [initial]
    rows = []
    for q in states:
        row = successors(q)
        for dst in dict.fromkeys(row):
            if dst not in index:
                index[dst] = len(states)
                states.append(dst)
        rows.append(list(map(index.__getitem__, row)))
    block = [accepting(q) for q in states]
    count = len(set(block))
    while True:
        get = block.__getitem__
        ids = {}
        block = [ids.setdefault((b, *map(get, row)), len(ids))
                 for b, row in zip(block, rows)]
        if len(ids) == count:
            break
        count = len(ids)
    rep = {}
    for q, b in enumerate(block):
        rep.setdefault(b, q)
    name = {}
    stack = [block[0]]
    while stack:
        b = stack.pop()
        if b not in name:
            name[b] = len(name)
            stack.extend(map(block.__getitem__, reversed(rows[rep[b]])))
    firsts = [rep[b] for b in name]
    return ([states[q] for q in firsts],
            [[name[block[j]] for j in rows[q]] for q in firsts])


def _is_basic(pred):
    """A basic predicate: a conjunction of atoms and negated atoms (the
    empty conjunction, written true, is allowed)."""
    return all(isinstance(node, (And, Interval, Lit, Top))
               or isinstance(node, Not)
               and isinstance(node.child, (Interval, Lit))
               for node in _nodes(pred))


def classify(m):
    """Deterministic, complete, neat, normalized and feasible flags of m,
    computed once per machine from its rows (neat from its guards)."""
    return m.flags


def size_metrics(m):
    return SizeMetrics(
        n=len(m.states),
        m=max(map(len, m.edges.values())),
        l=max((pred_size(p) for _, p, _ in m.transitions), default=0),
    )


# ---------------------------------------------------------------------------
# Transformations to special forms


def to_neat(m):
    """Split every transition into basic-predicate transitions: the pieces
    of its guard's denotation (the algebra's pieces), which are pairwise
    disjoint, so a deterministic machine stays deterministic.  Intervals: one
    transition per canonical piece.  Prop: one per cube that fixes the
    leading propositions.  Unsatisfiable guards vanish."""
    alg = m.algebra
    rows = []
    for src, sem, dst in m._rows:
        rows += [((src, piece, dst), None) for piece in alg.pieces(sem)]
        if len(rows) > NEAT_TRANSITION_CAP:
            raise ValueError("neat expansion exceeds %d transitions"
                             % NEAT_TRANSITION_CAP)
    return Sfa._from_rows(alg, m.states, m.initial, m.accepting, rows)


def to_normalized(m):
    """Merge parallel transitions into one disjunction per state pair."""
    merged = {}
    for (src, pred, dst), (_, sem, _) in zip(m.transitions, m._rows):
        merged.setdefault((src, dst), []).append((pred, sem))
    rows = [((src, m.algebra.union_all([s for _, s in pairs]), dst),
             or_all(p for p, _ in pairs))
            for (src, dst), pairs in merged.items()]
    return Sfa._from_rows(m.algebra, m.states, m.initial, m.accepting, rows)


def make_feasible(m):
    """Drop transitions with unsatisfiable predicates."""
    return Sfa._from_rows(m.algebra, m.states, m.initial, m.accepting,
                          [row for row in m._rows.items() if row[0][1]])


def _fresh_state(taken, base="sink"):
    """base, or else base with the least numeric suffix that makes a name
    not in the set taken."""
    name, i = base, 0
    while name in taken:
        i += 1
        name = "%s%d" % (base, i)
    return name


def complete_sfa(m):
    """Add a rejecting sink covering the uncovered part of each state's
    outgoing predicates: the GAP pieces of the state's sweep.  On neat
    interval input the new transitions are the gap intervals, at most one
    more than the state's out-degree."""
    alg = m.algebra
    sink = _fresh_state(set(m.states))
    extra = []
    for q in m.states:
        gap = tuple((lo, hi) for lo, hi, dst in m._swept[q][0] if dst is GAP)
        if gap:
            extra += [((q, s, sink), p) for p, s in alg.gap_guards(
                lambda q=q: [p for p, _ in m.out(q)], gap)]
    if not extra:
        return m
    extra.append(((sink, alg.full(), sink), None))
    return Sfa._from_rows(alg, m.states + (sink,), m.initial, m.accepting,
                          [*m._rows.items(), *extra])


# ---------------------------------------------------------------------------
# Text formats
#
# SFA files: one directive per line, '#' starts a comment.
#   algebra interval-nat | interval-int | prop <k>
#   states <id>...
#   initial <id>
#   accepting <id>...
#   trans <src> <dst> <predicate>
#
# Sample files: one labeled word per line, '<+|-> <letter>...'; an empty
# letter list denotes the empty word.


def parse_sfa(text):
    alg = None
    states = []
    initial = None
    accepting = []
    raw_trans = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "algebra":
                if len(parts) != (3 if parts[1:2] == ["prop"] else 2):
                    raise ValueError("expected algebra NAME or algebra "
                                     "prop K")
                alg = Algebra(parts[1], *map(int, parts[2:]))
            elif parts[0] == "states":
                states.extend(parts[1:])
            elif parts[0] == "initial":
                if len(parts) != 2:
                    raise ValueError("expected initial STATE")
                initial = parts[1]
            elif parts[0] == "accepting":
                accepting.extend(parts[1:])
            elif parts[0] == "trans":
                if len(parts) < 4:
                    raise ValueError("expected trans SRC DST PREDICATE")
                raw_trans.append((lineno, parts[1], parts[2],
                                  line.split(None, 3)[3]))
            else:
                raise ValueError("unknown directive %r" % parts[0])
        except ValueError as exc:
            raise ValueError("line %d: %s" % (lineno, exc)) from exc
    if alg is None:
        raise ValueError("missing algebra directive")
    if initial is None:
        raise ValueError("missing initial directive")
    trans = []
    for lineno, src, dst, ptext in raw_trans:
        try:
            trans.append((src, parse_pred(alg, ptext), dst))
        except ValueError as exc:
            raise ValueError("line %d: %s" % (lineno, exc)) from exc
    return Sfa(alg, states, initial, accepting, trans)


def format_sfa(m):
    lines = ["algebra %s" % m.algebra]
    lines.append("states %s" % " ".join(m.states))
    lines.append("initial %s" % m.initial)
    lines.append("accepting %s" % " ".join(
        q for q in m.states if q in m.accepting))
    for src, pred, dst in m.transitions:
        lines.append("trans %s %s %s" % (src, dst, format_pred(pred)))
    return "\n".join(lines) + "\n"


def sample_dict(pairs):
    """Normalize labeled words into a dict, rejecting inconsistency.  A
    label must equal 0 or 1 (False and True included)."""
    if isinstance(pairs, dict):
        pairs = pairs.items()
    out = {}
    for w, b in pairs:
        if b not in (0, 1):
            raise ValueError("label must be 0 or 1, not %r" % (b,))
        w = tuple(w)
        if out.setdefault(w, int(b)) != b:
            raise ValueError("inconsistent sample at word %r" % (w,))
    return out


def parse_word(alg, text):
    return tuple(alg.parse_letter(tok) for tok in text.split())


def format_word(w):
    return " ".join(format_letter(d) for d in w)


def parse_sample(alg, text):
    pairs = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        sign, _, rest = line.partition(" ")
        try:
            if sign not in ("+", "-"):
                raise ValueError("expected + or -")
            pairs.append((parse_word(alg, rest), 1 if sign == "+" else 0))
        except ValueError as exc:
            raise ValueError("line %d: %s" % (lineno, exc)) from exc
    return sample_dict(pairs)


def format_sample(sample):
    lines = []
    for w in sorted(sample):
        sign = "+" if sample[w] else "-"
        lines.append((sign + " " + format_word(w)).rstrip())
    return "\n".join(lines) + "\n"
