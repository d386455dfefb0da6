"""Symbolic finite automata: data model, acceptance, classification,
transformations to special forms, and the text file formats."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .algebra import (
    Algebra, And, Interval, Lit, Not, Pred, Top, denote, format_letter,
    format_pred, is_sat, or_all, parse_pred, pred_size,
)

NEAT_TRANSITION_CAP = 10 ** 5


@dataclass(frozen=True)
class Sfa:
    algebra: Algebra
    states: tuple
    initial: str
    accepting: frozenset
    transitions: tuple  # of (src, pred, dst)

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "accepting", frozenset(self.accepting))
        seen = set()
        trans = []
        for src, pred, dst in self.transitions:
            if (src, pred, dst) in seen:
                continue
            seen.add((src, pred, dst))
            trans.append((src, pred, dst))
        object.__setattr__(self, "transitions", tuple(trans))
        states = set(self.states)
        if len(states) != len(self.states):
            raise ValueError("duplicate state ids")
        if self.initial not in states:
            raise ValueError("initial state not in states")
        if not self.accepting <= states:
            raise ValueError("accepting states not in states")
        for src, pred, dst in self.transitions:
            if src not in states or dst not in states:
                raise ValueError("transition endpoint not in states")
            if not isinstance(pred, Pred):
                raise ValueError("transition label is not a predicate")

    @cached_property
    def edges(self):
        """State -> tuple of (guard, denotation, dst), in transition order.
        Every guard is denoted once per machine, on first use; keeping the
        table is safe because the machine is frozen."""
        rows = {q: [] for q in self.states}
        for src, pred, dst in self.transitions:
            rows[src].append((pred, denote(self.algebra, pred), dst))
        return {q: tuple(row) for q, row in rows.items()}

    @cached_property
    def _shape(self):
        """(deterministic, complete), computed on first use: the two flags
        that the operations check, without the others' guard walks."""
        flags = self.algebra.partition_flags
        deterministic = complete = True
        for row in self.edges.values():
            disjoint, covering = flags([s for _, s, _ in row])
            deterministic = deterministic and disjoint
            complete = complete and covering
        return deterministic, complete

    @cached_property
    def flags(self):
        """SfaFlags, computed on first use (see classify)."""
        deterministic, complete = self._shape
        trans = self.transitions
        return SfaFlags(
            deterministic=deterministic,
            complete=complete,
            neat=all(_is_basic(p) for _, p, _ in trans),
            normalized=len({(s, d) for s, _, d in trans}) == len(trans),
            feasible=all(s for row in self.edges.values()
                         for _, s, _ in row),
        )

    def out(self, q):
        return [(p, dst) for p, _, dst in self.edges[q]]


def _adopt_edges(m, edges):
    """Hand m the edge table its builder already computed, so that m never
    denotes those guards again.  Skipped when Sfa's deduplication dropped a
    transition, since the table would still list it; m then builds its own
    table on first use."""
    if sum(map(len, edges.values())) == len(m.transitions):
        m.__dict__["edges"] = edges
    return m


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
        frontier = {dst for q in frontier for _, sem, dst in edges[q]
                    if alg.contains(sem, d)}
        if not frontier:
            return False
    return bool(frontier & m.accepting)


def transition_table(m, letters):
    """(state, letter) -> destination for every state of a deterministic
    complete m: the one edge whose guard holds the letter, found by the
    algebra's row_successors over the ascending letters."""
    order = sorted(set(letters))
    table = {}
    for q, row in m.edges.items():
        dst_of = dict(zip(order, m.algebra.row_successors(row, order)))
        table.update(((q, a), dst_of[a]) for a in letters)
    return table


def _is_basic(pred):
    """A basic predicate: a conjunction of atoms and negated atoms (the
    empty conjunction, written true, is allowed)."""
    if isinstance(pred, (Interval, Lit, Top)):
        return True
    if isinstance(pred, Not):
        return isinstance(pred.child, (Interval, Lit))
    if isinstance(pred, And):
        return _is_basic(pred.left) and _is_basic(pred.right)
    return False


def classify(m):
    """Deterministic, complete, neat, normalized and feasible flags of m,
    computed once per machine from its edge table."""
    return m.flags


def size_metrics(m):
    out_deg = {q: 0 for q in m.states}
    for src, _, _ in m.transitions:
        out_deg[src] += 1
    return SizeMetrics(
        n=len(m.states),
        m=max(out_deg.values()) if out_deg else 0,
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
    trans = []
    for src, pred, dst in m.transitions:
        for basic, _ in alg.pieces(denote(alg, pred)):
            trans.append((src, basic, dst))
        if len(trans) > NEAT_TRANSITION_CAP:
            raise ValueError("neat expansion exceeds %d transitions"
                             % NEAT_TRANSITION_CAP)
    return Sfa(alg, m.states, m.initial, m.accepting, trans)


def to_normalized(m):
    """Merge parallel transitions into one disjunction per state pair."""
    order = []
    merged = {}
    for src, pred, dst in m.transitions:
        key = (src, dst)
        if key not in merged:
            merged[key] = []
            order.append(key)
        merged[key].append(pred)
    trans = [(src, or_all(merged[(src, dst)]), dst) for src, dst in order]
    return Sfa(m.algebra, m.states, m.initial, m.accepting, trans)


def make_feasible(m):
    """Drop transitions with unsatisfiable predicates."""
    trans = [(s, p, d) for s, p, d in m.transitions if is_sat(m.algebra, p)]
    return Sfa(m.algebra, m.states, m.initial, m.accepting, trans)


def _fresh_state(states, base="sink"):
    name = base
    taken = set(states)
    i = 0
    while name in taken:
        i += 1
        name = "%s%d" % (base, i)
    return name


def complete_sfa(m):
    """Add a rejecting sink covering the uncovered part of each state's
    outgoing predicates.  On neat interval input the new transitions are the
    gap intervals, at most one more than the state's out-degree."""
    alg = m.algebra
    sink = _fresh_state(m.states)
    edges = dict(m.edges)
    extra = []
    for q in m.states:
        row = edges[q]
        gap = alg.complement(alg.union_all([s for _, s, _ in row]))
        if not gap:
            continue
        added = tuple((p, s, sink) for p, s in
                      alg.gap_guards([p for p, _, _ in row], gap))
        edges[q] = row + added
        extra.extend((q, p, dst) for p, _, dst in added)
    if not extra:
        return m
    # the full domain is one piece: [dmin,inf), or the empty cube true
    (loop, full), = alg.pieces(alg.full())
    extra.append((sink, loop, sink))
    edges[sink] = ((loop, full, sink),)
    return _adopt_edges(Sfa(alg, tuple(m.states) + (sink,), m.initial,
                            m.accepting, tuple(m.transitions) + tuple(extra)),
                        edges)


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
                if parts[1] == "prop":
                    alg = Algebra("prop", int(parts[2]))
                else:
                    alg = Algebra(parts[1])
            elif parts[0] == "states":
                states.extend(parts[1:])
            elif parts[0] == "initial":
                initial = parts[1]
            elif parts[0] == "accepting":
                accepting.extend(parts[1:])
            elif parts[0] == "trans":
                pred_text = line.split(None, 3)[3]
                raw_trans.append((parts[1], parts[2], pred_text))
            else:
                raise ValueError("unknown directive %r" % parts[0])
        except (IndexError, ValueError) as exc:
            raise ValueError("line %d: %s" % (lineno, exc)) from exc
    if alg is None:
        raise ValueError("missing algebra directive")
    if initial is None:
        raise ValueError("missing initial directive")
    trans = [(src, parse_pred(alg, ptext), dst)
             for src, dst, ptext in raw_trans]
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
    """Normalize labeled words into a dict, rejecting inconsistency."""
    if isinstance(pairs, dict):
        pairs = pairs.items()
    out = {}
    for w, b in pairs:
        w = tuple(w)
        b = int(b)
        if b not in (0, 1):
            raise ValueError("label must be 0 or 1")
        if out.get(w, b) != b:
            raise ValueError("inconsistent sample at word %r" % (w,))
        out[w] = b
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
        if sign not in ("+", "-"):
            raise ValueError("line %d: expected + or -" % lineno)
        pairs.append((parse_word(alg, rest), 1 if sign == "+" else 0))
    return sample_dict(pairs)


def format_sample(sample):
    lines = []
    for w in sorted(sample):
        sign = "+" if sample[w] else "-"
        lines.append((sign + " " + format_word(w)).rstrip())
    return "\n".join(lines) + "\n"
