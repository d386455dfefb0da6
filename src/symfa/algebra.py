"""Effective Boolean algebras: interval algebras over extended integers and
the propositional algebra over k atomic propositions.

Predicates are immutable parse trees.  Interval predicates denote unions of
half-open intervals [a,b); an interval whose upper endpoint is the infinity
sentinel is closed at the top, so [a,inf) contains the letter inf and
predicate partitions can cover the whole domain.  Prop predicates denote
sets of valuations, which are unions of intervals of the ascending
bit-string letters, so both families denote a set the same way.
"""

from __future__ import annotations

import functools
import itertools
import re
from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter

INF = float("inf")
NEG_INF = float("-inf")


class _Sup:
    """Exclusive upper bound strictly above every letter, inf included.
    Canonical interval lists are half-open up to this extended order, so
    they can tell "every letter from lo up" (hi is SUP) apart from "every
    finite letter from lo up" (hi == INF)."""

    __slots__ = ()

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __repr__(self):
        return "SUP"


SUP = _Sup()

# The destination of the stretches of a state's domain that its guards
# leave uncovered, in Algebra.sweep: a fresh object, so it equals no state
# name, None included.
GAP = object()

# ---------------------------------------------------------------------------
# Predicate parse trees


class Pred:
    """A predicate tree.  Atoms compare and print as dataclasses.  The
    rest compare by _key, and print the text the dataclasses would give
    by one backward read of _nodes, so depth costs no calls."""

    __slots__ = ()

    def __eq__(self, other):
        return (_key(self) == _key(other) if isinstance(other, Pred)
                else NotImplemented)

    def __hash__(self):
        return hash(_key(self))

    def __repr__(self):
        vals = []
        for node in reversed(_nodes(self)):
            cls = type(node)
            if cls is Not:
                vals.append("Not(child=%s)" % vals.pop())
            elif cls is And or cls is Or:
                vals.append("%s(left=%s, right=%s)"
                            % (cls.__name__, vals.pop(), vals.pop()))
            else:
                vals.append(repr(node))
        return vals[0]


@dataclass(frozen=True)
class Top(Pred):
    pass


@dataclass(frozen=True)
class Bot(Pred):
    pass


@dataclass(frozen=True)
class Interval(Pred):
    """Atomic interval predicate [lo, hi); hi == INF is closed at the top,
    so [inf,inf) is the singleton {inf}.  Any other lo >= hi is accepted
    and denotes the empty set."""

    lo: object
    hi: object


@dataclass(frozen=True)
class Lit(Pred):
    """Propositional literal p<index> or !p<index> (0-based index)."""

    index: int
    positive: bool = True


@dataclass(frozen=True, eq=False, repr=False)
class Not(Pred):
    child: Pred


@dataclass(frozen=True, eq=False, repr=False)
class And(Pred):
    left: Pred
    right: Pred


@dataclass(frozen=True, eq=False, repr=False)
class Or(Pred):
    left: Pred
    right: Pred


def _nodes(psi):
    """psi's nodes in preorder, each followed by its child or its left and
    right subtrees: read backwards, psi in Polish notation.  The one walk
    of predicate trees; it keeps its own stack, so depth costs no calls."""
    out, stack = [], [psi]
    while stack:
        node = stack.pop()
        out.append(node)
        cls = type(node)  # the node classes are never subclassed
        if cls is And or cls is Or:
            stack += (node.right, node.left)
        elif cls is Not:
            stack.append(node.child)
    return out


def _key(psi):
    """psi's preorder nodes, atoms as themselves and the rest as their
    classes: with fixed arities, it spells psi alone."""
    return tuple([type(node) if isinstance(node, (Not, And, Or)) else node
                  for node in _nodes(psi)])


TOP = Top()
BOT = Bot()


def _chain(op, preds, empty):
    """Balanced chain of op over preds, split at (lo + hi + 1) // 2: up to
    three operands give the left-deep chain, and n operands give depth
    ceil(log2 n) + 1 with the same node count and the same printed text."""
    preds = list(preds)
    if not preds:
        return empty

    def build(lo, hi):
        if hi - lo == 1:
            return preds[lo]
        mid = (lo + hi + 1) // 2
        return op(build(lo, mid), build(mid, hi))

    return build(0, len(preds))


def and_all(preds):
    return _chain(And, preds, TOP)


def or_all(preds):
    return _chain(Or, preds, BOT)


def pred_size(psi):
    """Number of parse-tree nodes; atoms count one."""
    return 1 if isinstance(psi, (Interval, Lit)) else len(_nodes(psi))


def contains(alg, psi, d):
    """True iff letter d satisfies psi: membership in denote(alg, psi)."""
    return alg.contains(denote(alg, psi), d)


def to_canonical_intervals(alg, psi):
    """Unique canonical interval list denoting psi: maximal disjoint
    intervals, ascending, with exclusive upper bounds (hi is SUP when the
    piece contains inf, hi == INF when it holds exactly the finite letters
    from lo up).  This is denote(alg, psi), for interval algebras only."""
    if not alg.monotonic:
        raise ValueError("canonical intervals need an interval algebra")
    return denote(alg, psi)


def interval_piece_pred(lo, hi):
    """Predicate for one canonical list piece.  A piece closed at the top
    becomes an atom; a finite-only tail needs the negated inf singleton."""
    if hi is SUP:
        return Interval(lo, INF)
    if hi == INF:
        return And(Interval(lo, INF), Not(Interval(INF, INF)))
    return Interval(lo, hi)


def intervals_to_pred(ivls):
    """Disjunction denoting a canonical interval list, ascending; BOT for
    the empty list."""
    return or_all(interval_piece_pred(lo, hi) for lo, hi in ivls)


def _span(k, v, size):
    """The piece of the size valuations from v up over the k-bit letters."""
    fmt = "0%db" % k
    return format(v, fmt), format(v + size, fmt) if v + size < 2 ** k else SUP


@functools.lru_cache(maxsize=None)
def _literal_set(k, index, positive):
    """The canonical interval list of literal p<index> (or !p<index>) over
    the k-bit letters: the aligned blocks of 2^(k-1-index) valuations in
    which bit index is 1 (or 0), one every twice that.  The cache holds
    at most 2k entries per k."""
    if not 0 <= index < k:
        raise ValueError("literal index out of range: %d" % index)
    size = 1 << (k - 1 - index)
    return tuple(_span(k, v, size)
                 for v in range(size if positive else 0, 2 ** k, 2 * size))


@functools.lru_cache(maxsize=None)
def _prop_letters(k):
    """Every k-bit letter, ascending, as a tuple: built once per k, so the
    callers of PropAlgebra.letters share one build."""
    return tuple(map("".join, itertools.product("01", repeat=k)))


# ---------------------------------------------------------------------------
# The algebras

_PROP_MAX_K = 16


@dataclass(frozen=True)
class Algebra:
    """One effective Boolean algebra.  Algebra(kind, k) builds the class of
    the kind's family, IntervalAlgebra or PropAlgebra: a frozen dataclass
    of kind and k, which equality and hashing compare; a bad kind or k
    raises ValueError.

    Both families have one denotation: a canonical interval list, a tuple
    of (lo, hi) pairs, sorted, pairwise disjoint and non-adjacent
    (maximal).  Both bounds live in the family's letter order extended
    with SUP on top, from dmin up, and hi is exclusive.  So this class
    holds every set operation and every per-state sweep, and the
    automaton code never asks which family it has: full(), empty,
    intersect, union_all, complement, min (the least letter, None for
    the empty set), contains, regions (the common refinement of some
    sets: disjoint non-empty regions covering the domain, on each of
    which every set is constant, by least letter), minterms (each negated
    membership signature over some sets mapped to the union of the
    regions that carry it), runs, sweep (one state's pieces in letter
    order, each uncovered stretch a GAP piece: the one layout that
    classify, complete_sfa, transition tables, minimize and includes
    read), and the passes over it, row_successors and meet.  The families
    supply their letters (check_letter, parse_letter, dmin), their atoms
    (parse_atom and denote_atom, the leaves of parse_pred and denote),
    pieces (the denotations of the basic predicates that split a set:
    disjoint and ascending), to_pred (the one print rule: the disjunction
    of the pieces' basic predicates) and gap_guards (complete_sfa's half).
    monotonic tells the families apart where only one is accepted."""

    kind: str
    k: int = 0

    empty = ()

    def __new__(cls, kind=None, k=0):
        if cls is Algebra:
            cls = PropAlgebra if kind == "prop" else IntervalAlgebra
        return object.__new__(cls)

    def __str__(self):
        """The algebra as the algebra directive of SFA files names it."""
        return self.kind

    def full(self):
        return ((self.dmin, SUP),)

    def intersect(self, a, b):
        """A merge sweep, O(m1 + m2), whose piece overlaps are canonical."""
        out = []
        i = j = 0
        n1, n2 = len(a), len(b)
        while i < n1 and j < n2:
            (lo1, hi1), (lo2, hi2) = a[i], b[j]
            lo = lo1 if lo1 > lo2 else lo2
            if hi1 <= hi2:
                if lo < hi1:
                    out.append((lo, hi1))
                i += 1
            else:
                if lo < hi2:
                    out.append((lo, hi2))
                j += 1
        return tuple(out)

    def union_all(self, sems):
        """One sort and merge pass: O(m log m) for m pieces."""
        out = []
        for lo, hi in sorted(piece for s in sems for piece in s):
            if out and lo <= out[-1][1]:
                if hi > out[-1][1]:
                    out[-1] = (out[-1][0], hi)
            else:
                out.append((lo, hi))
        return tuple(out)

    def complement(self, a):
        cursor = self.dmin
        out = []
        for lo, hi in a:
            if cursor < lo:
                out.append((cursor, lo))
            cursor = hi
        if cursor is not SUP:
            out.append((cursor, SUP))
        return tuple(out)

    def min(self, a):
        return a[0][0] if a else None

    def contains(self, a, d):
        """A scan to the first piece that ends above d."""
        for lo, hi in a:
            if d < hi:
                return lo <= d
        return False

    def regions(self, sems):
        """One region per segment between consecutive endpoints."""
        ends = sorted({self.dmin} | {x for s in sems for piece in s
                                     for x in piece if x is not SUP})
        return [((lo, hi),) for lo, hi in zip(ends, ends[1:] + [SUP])]

    def minterms(self, sems):
        """The runs of the regions' negated signatures: each set clears a
        slice of its column per piece, the regions indexed by lower end."""
        starts = [r[0][0] for r in self.regions(sems)]
        at = dict(zip(starts + [SUP], range(len(starts) + 1)))
        columns = [[True] * len(starts) for _ in sems]
        for column, s in zip(columns, sems):
            for lo, hi in s:
                column[at[lo]:at[hi]] = [False] * (at[hi] - at[lo])
        return self.runs(zip(starts, zip(*columns) if sems else [()]))

    def sweep(self, row):
        """One state's letter-order layout, (pieces, overlap), from its
        row of (denotation, destination) pairs: the (lo, hi, destination)
        pieces sorted by lower end, with each stretch that no piece
        covers put in its place as (lo, hi, GAP), and whether two pieces
        share a letter.  The GAP stretches are the canonical complement
        of the row's union.  One sort, O(m log m) for m pieces."""
        # every letter below reach is covered
        out, overlap, reach = [], False, self.dmin
        for lo, hi, dst in sorted(((lo, hi, dst) for sem, dst in row
                                   for lo, hi in sem), key=itemgetter(0)):
            if lo < reach:
                overlap = True
            elif lo > reach:
                out.append((reach, lo, GAP))
            out.append((lo, hi, dst))
            if hi > reach:
                reach = hi
        if reach is not SUP:
            out.append((reach, SUP, GAP))
        return out, overlap

    def row_successors(self, pieces, letters):
        """Destination of each of the ascending letters in the swept
        pieces of a deterministic complete state: they tile the domain in
        order, so one pass takes each piece's run of letters by
        bisection, O(m log n) for m pieces and n letters."""
        out = []
        i = 0
        for _, hi, dst in pieces:
            j = bisect_left(letters, hi, i)
            out += [dst] * (j - i)
            i = j
        return out

    def runs(self, pairs):
        """Owner -> canonical interval list, from (letter, owner) pairs in
        ascending letter order: a maximal run of one owner becomes the
        piece [its first letter, the next run's first letter), the first
        stretched down to dmin and the last up to SUP.  Runs of one owner
        are never adjacent, so these are canonical."""
        out = {}
        owner, lo = None, self.dmin  # no owner is None
        for a, o in pairs:
            if o != owner:
                if owner is not None:
                    out.setdefault(owner, []).append((lo, a))
                    lo = a
                owner = o
        if owner is not None:
            out.setdefault(owner, []).append((lo, SUP))
        return {o: tuple(ps) for o, ps in out.items()}

    def meet(self, r1, r2):
        """(least letter, destination pair) for each non-empty intersection
        of two swept rows without overlap, ascending: one merge pass,
        O(m1 + m2)."""
        out = []
        i = j = 0
        n1, n2 = len(r1), len(r2)
        while i < n1 and j < n2:
            lo1, hi1, d1 = r1[i]
            lo2, hi2, d2 = r2[j]
            if lo2 < hi1 and lo1 < hi2:
                out.append((lo2 if lo2 > lo1 else lo1, (d1, d2)))
            if hi1 <= hi2:
                i += 1
            else:
                j += 1
        return out


@dataclass(frozen=True)
class IntervalAlgebra(Algebra):
    """The interval algebras over extended integers: interval-nat (letters
    0, 1, 2, ... and inf) and interval-int (-inf, the integers and inf).
    inf is the greatest letter of both and -inf the least of interval-int;
    they are floats, so every sorted-letter sweep puts inf after and -inf
    before the int letters.  In a denotation, hi is SUP for a piece
    holding inf, and INF for one holding every finite letter from lo
    up."""

    monotonic = True
    dmax = INF

    def __post_init__(self):
        if self.kind not in ("interval-nat", "interval-int"):
            raise ValueError("unknown algebra kind: %r" % (self.kind,))
        if self.k:
            raise ValueError("k is only meaningful for the prop kind")
        object.__setattr__(self, "dmin",
                           0 if self.kind == "interval-nat" else NEG_INF)

    def letters(self):
        raise ValueError("interval domains are infinite")

    def check_letter(self, d):
        # the exact type: bool is a subclass of int, but not a letter
        if type(d) is int:
            if self.kind == "interval-nat" and d < 0:
                raise ValueError("negative letter over interval-nat: %r"
                                 % (d,))
        elif d == INF or d == NEG_INF:
            if self.kind == "interval-nat" and d == NEG_INF:
                raise ValueError("-inf is not a natural letter")
        else:
            raise ValueError("bad interval letter: %r" % (d,))
        return d

    def parse_letter(self, tok):
        return self.check_letter(_parse_endpoint(tok))

    def parse_atom(self, psi):
        if isinstance(psi, Lit):
            raise ValueError("prop literal over an interval algebra")
        return psi

    def denote_atom(self, psi):
        lo, hi = max(self.parse_atom(psi).lo, self.dmin), psi.hi
        if hi == INF:
            hi = SUP
        return ((lo, hi),) if lo < hi else ()

    def pieces(self, a):
        """One per canonical piece."""
        return [(piece,) for piece in a]

    def to_pred(self, a):
        """The disjunction of the pieces' predicates (intervals_to_pred)."""
        return intervals_to_pred(a)

    def gap_guards(self, trees, gap):
        """(guard builder or None, denotation) pairs for the edges to a
        sink that take gap, what a state's guards leave uncovered: one per
        piece, with no guard, so it prints by to_pred.  trees is unread."""
        return [(None, piece) for piece in self.pieces(gap)]


@dataclass(frozen=True)
class PropAlgebra(Algebra):
    """The propositional algebra over k atomic propositions p0 .. p<k-1>,
    1 <= k <= 16.  A letter is a k-bit string whose bit i is the value of
    p<i>.  The letters have equal length, so they sort in the order of
    the valuations they encode as binary numbers, and a set of valuations
    is a canonical interval list over them: hi is the letter after the
    last valuation of a piece, or SUP for a piece that ends at 1...1."""

    monotonic = False

    def __post_init__(self):
        if self.kind != "prop":
            raise ValueError("unknown algebra kind: %r" % (self.kind,))
        if not 1 <= self.k <= _PROP_MAX_K:
            raise ValueError("prop algebra needs 1 <= k <= %d" % _PROP_MAX_K)
        object.__setattr__(self, "dmin", "0" * self.k)
        object.__setattr__(self, "dmax", "1" * self.k)

    def __str__(self):
        return "prop %d" % self.k

    def letters(self):
        """Every letter of the domain, ascending: a fresh list, copied
        from the one tuple per k that _prop_letters keeps."""
        return list(_prop_letters(self.k))

    def check_letter(self, d):
        if not (isinstance(d, str) and len(d) == self.k
                and set(d) <= {"0", "1"}):
            raise ValueError("bad prop letter: %r" % (d,))
        return d

    parse_letter = check_letter  # a prop letter is its own text

    def parse_atom(self, psi):
        if isinstance(psi, Interval):
            raise ValueError("interval atom over the prop algebra")
        if not psi.index < self.k:
            raise ValueError("literal p%d out of range for k=%d"
                             % (psi.index, self.k))
        return psi

    def denote_atom(self, psi):
        self.parse_atom(psi)
        return _literal_set(self.k, psi.index, psi.positive)

    def _cubes(self, a):
        """(lo, hi, least valuation, size) of each of a's cubes, ascending:
        one walk tiles every piece greedily by the largest aligned power
        of two that fits, so each cube fixes the leading propositions.  lo
        and hi are the cube's bounding letters: a bound that ends a piece
        of a is that piece's own, and each one inside a piece is
        formatted once, for the two cubes it separates."""
        fmt, top = "0%db" % self.k, 2 ** self.k
        for lo, hi in a:
            v, end = int(lo, 2), top if hi is SUP else int(hi, 2)
            while v < end:
                size = v & -v or top
                while v + size > end:
                    size //= 2
                mid = hi if v + size == end else format(v + size, fmt)
                yield lo, mid, v, size
                lo, v = mid, v + size

    def pieces(self, a):
        """The largest cubes that fix the leading propositions, p0 first,
        each the piece between its two bounding letters from _cubes."""
        return [((lo, hi),) for lo, hi, _, _ in self._cubes(a)]

    def to_pred(self, a):
        """The disjunction of the pieces, each the conjunction of the
        literals that its least valuation gives the propositions it fixes."""
        k = self.k
        return or_all(and_all(Lit(j, bool(v >> (k - 1 - j) & 1))
                              for j in range(k + 1 - size.bit_length()))
                      for _, _, v, size in self._cubes(a))

    def gap_guards(self, trees, gap):
        """One guard, built when read: the negated disjunction of the
        state's guards, which trees() lists."""
        return [(lambda: Not(or_all(preds)) if (preds := trees()) else TOP,
                 gap)]


INTERVAL_NAT = Algebra("interval-nat")
INTERVAL_INT = Algebra("interval-int")


def prop_algebra(k):
    return Algebra("prop", k)


def denote(alg, psi):
    """The denotation of psi, and the only evaluator of predicate trees:
    psi's nodes read backwards as Polish notation, whose leaves are an
    atom's or a literal's canonical interval list (the algebra's
    denote_atom), with Not, And and Or mapped to the algebra's
    complement, intersect and union_all, each run of Or nodes to one
    union_all call.  Raises ValueError on an atom of the other algebra
    family or a literal index out of range."""
    if isinstance(psi, (Interval, Lit)):
        return alg.denote_atom(psi)

    def value():
        # an Or's value is the list of its run's operands, unioned when
        # an operator other than Or reads it
        v = vals.pop()
        return alg.union_all(v) if type(v) is list else v

    vals = []
    for node in reversed(_nodes(psi)):
        if isinstance(node, (Interval, Lit)):
            vals.append(alg.denote_atom(node))
        elif isinstance(node, And):
            vals.append(alg.intersect(value(), value()))
        elif isinstance(node, Or):
            # a run of Or nodes is one union_all: the longer operand list
            # takes in the shorter, so a chain of n costs O(n) appends
            a, b = (v if type(v) is list else [v]
                    for v in (vals.pop(), vals.pop()))
            if len(a) < len(b):
                a, b = b, a
            a += b
            vals.append(a)
        elif isinstance(node, Not):
            vals.append(alg.complement(value()))
        elif isinstance(node, (Top, Bot)):
            vals.append(alg.full() if isinstance(node, Top) else alg.empty)
        else:
            raise TypeError("not a predicate: %r" % (node,))
    return value()


# ---------------------------------------------------------------------------
# Derived predicate queries


def is_sat(alg, psi):
    return bool(denote(alg, psi))


def pred_equiv(alg, psi, phi):
    return denote(alg, psi) == denote(alg, phi)


def min_model(alg, psi):
    """Least letter satisfying psi, or None when unsatisfiable.  Interval
    algebras only (they are the monotonic ones)."""
    if not alg.monotonic:
        raise ValueError("min_model needs a monotonic (interval) algebra")
    return alg.min(to_canonical_intervals(alg, psi))


# ---------------------------------------------------------------------------
# Text grammar shared by every file format:
#   [a,b)  -inf  inf  p<i>  !p<i>  &  |  !  ( )  true  false


_TOKEN_RE = re.compile(r"""
    \s*(
      \[ | \) | \( | , | & | \| | ! |
      -?[0-9]+ | -inf | inf | true | false | p[0-9]+
    )""", re.VERBOSE)


def _tokenize(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ValueError("bad predicate syntax at %r" % text[pos:])
        out.append(m.group(1))
        pos = m.end()
    return out


def _parse_endpoint(tok):
    """The endpoint or interval letter that tok spells: inf, -inf or an
    ASCII integer, -?[0-9]+ (int alone would take 1_000, +5 and other
    scripts' digits)."""
    if tok == "inf":
        return INF
    if tok == "-inf":
        return NEG_INF
    if re.fullmatch("-?[0-9]+", tok):
        return int(tok)
    raise ValueError("expected an endpoint, found %r" % (tok,))


class _PredParser:
    """Precedence parser for the grammar, looping over an explicit stack
    of open parentheses rather than recursing, so nesting depth costs no
    call stack.  An or-expression is a balanced chain (or_all) of
    and-expressions, an and-expression one (and_all) of factors, and a
    factor is an atom or a parenthesized or-expression, each under its
    prefix negations.  Atoms are checked against the algebra as they are
    read."""

    def __init__(self, alg, tokens):
        self.alg = alg
        self.toks = tokens
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None or (expected is not None and tok != expected):
            raise ValueError("expected %s, found %s" % (
                "an endpoint" if expected is None else repr(expected),
                "the end of the predicate" if tok is None else repr(tok)))
        self.pos += 1
        return tok

    def parse(self):
        # each open parenthesis saves the enclosing or-operands, the
        # and-operands, and the negations in front of the parenthesis
        stack = []
        ors, ands, nots = [], [], 0
        while True:
            tok = self.peek()
            self.pos += 1
            if tok == "!":
                nots += 1
                continue
            if tok == "(":
                stack.append((ors, ands, nots))
                ors, ands, nots = [], [], 0
                continue
            psi = self.atom(tok)
            while True:
                for _ in range(nots):
                    psi = Not(psi)
                ands.append(psi)
                tok = self.peek()
                if tok != "&":
                    ors.append(and_all(ands))
                    ands = []
                if tok in ("&", "|"):
                    self.pos += 1
                    nots = 0
                    break
                # the or-expression ends, at the end of the text or at the
                # ")" closing the innermost open parenthesis
                psi = or_all(ors)
                if not stack:
                    if tok is not None:
                        raise ValueError("trailing tokens: %r"
                                         % self.toks[self.pos:])
                    return psi
                self.take(")")
                ors, ands, nots = stack.pop()

    def atom(self, tok):
        if tok == "true":
            return TOP
        if tok == "false":
            return BOT
        if tok == "[":
            lo = _parse_endpoint(self.take())
            self.take(",")
            hi = _parse_endpoint(self.take())
            self.take(")")
            return self.alg.parse_atom(Interval(lo, hi))
        if tok is not None and tok.startswith("p"):
            return self.alg.parse_atom(Lit(int(tok[1:])))
        raise ValueError("unexpected end of the predicate" if tok is None
                         else "unexpected token %r" % (tok,))


def parse_pred(alg, text):
    """The predicate tree of text over alg.  Raises ValueError on bad
    syntax, on an atom of the other algebra family, and on a literal
    index out of range."""
    return _PredParser(alg, _tokenize(text)).parse()


def format_endpoint(x):
    if x == INF:
        return "inf"
    if x == NEG_INF:
        return "-inf"
    return str(x)


def format_letter(d):
    if isinstance(d, str):
        return d
    return format_endpoint(d)


def _atom_text(psi):
    if isinstance(psi, Interval):
        return "[%s,%s)" % (format_endpoint(psi.lo), format_endpoint(psi.hi))
    return ("p%d" if psi.positive else "!p%d") % psi.index


def format_pred(psi):
    """The text of psi: its nodes read backwards as Polish notation over
    (text, precedence) pairs, | 1, & 2, ! 3 and atoms 4, where an operand
    is parenthesized when it binds less tightly than its operator."""
    if isinstance(psi, (Interval, Lit)):
        return _atom_text(psi)
    vals = []
    for node in reversed(_nodes(psi)):
        if isinstance(node, (Interval, Lit)):
            prec, text = 4, _atom_text(node)
        elif isinstance(node, (And, Or)):
            prec, op = (2, " & ") if isinstance(node, And) else (1, " | ")
            text = op.join(t if p >= prec else "(%s)" % t
                           for t, p in (vals.pop(), vals.pop()))
        elif isinstance(node, Not):
            t, p = vals.pop()
            prec, text = 3, "!" + (t if p >= 3 else "(%s)" % t)
        elif isinstance(node, (Top, Bot)):
            prec, text = 4, "true" if isinstance(node, Top) else "false"
        else:
            raise TypeError("not a predicate: %r" % (node,))
        vals.append((text, prec))
    return vals[0][0]

