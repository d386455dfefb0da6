"""Effective Boolean algebras: interval algebras over extended integers and
the propositional algebra over k atomic propositions.

Predicates are immutable parse trees.  Interval predicates denote unions of
half-open intervals [a,b); an interval whose upper endpoint is the infinity
sentinel is closed at the top, so [a,inf) contains the letter inf and
predicate partitions can cover the whole domain.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

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

_PROP_MAX_K = 16


@dataclass(frozen=True)
class Algebra:
    """Configuration of one concrete algebra instance."""

    kind: str  # "interval-int" | "interval-nat" | "prop"
    k: int = 0

    def __post_init__(self):
        if self.kind not in ("interval-int", "interval-nat", "prop"):
            raise ValueError("unknown algebra kind: %r" % (self.kind,))
        if self.kind == "prop":
            if not 1 <= self.k <= _PROP_MAX_K:
                raise ValueError("prop algebra needs 1 <= k <= %d" % _PROP_MAX_K)
        elif self.k:
            raise ValueError("k is only meaningful for the prop kind")

    @property
    def is_interval(self):
        return self.kind != "prop"

    @property
    def dmin(self):
        if self.kind == "interval-nat":
            return 0
        if self.kind == "interval-int":
            return NEG_INF
        return "0" * self.k

    @property
    def dmax(self):
        if self.kind == "prop":
            return "1" * self.k
        return INF

    def letters(self):
        """Every letter of the domain; prop kind only (interval domains are
        infinite)."""
        if self.kind != "prop":
            raise ValueError("interval domains are infinite")
        return [format(v, "0%db" % self.k) for v in range(2 ** self.k)]

    def check_letter(self, d):
        if self.kind == "prop":
            if not (isinstance(d, str) and len(d) == self.k
                    and set(d) <= {"0", "1"}):
                raise ValueError("bad prop letter: %r" % (d,))
        else:
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


INTERVAL_NAT = Algebra("interval-nat")
INTERVAL_INT = Algebra("interval-int")


def prop_algebra(k):
    return Algebra("prop", k)


# ---------------------------------------------------------------------------
# Predicate parse trees


class Pred:
    __slots__ = ()


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


@dataclass(frozen=True)
class Not(Pred):
    child: Pred


@dataclass(frozen=True)
class And(Pred):
    left: Pred
    right: Pred


@dataclass(frozen=True)
class Or(Pred):
    left: Pred
    right: Pred


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
    if isinstance(psi, (Top, Bot, Interval, Lit)):
        return 1
    if isinstance(psi, Not):
        return 1 + pred_size(psi.child)
    return 1 + pred_size(psi.left) + pred_size(psi.right)


def contains(alg, psi, d):
    """True iff letter d satisfies psi: membership in denote(alg, psi)."""
    return sem_contains(alg, denote(alg, psi), d)


# ---------------------------------------------------------------------------
# Canonical interval lists
#
# An interval list is a tuple of (lo, hi) pairs, sorted, pairwise disjoint
# and non-adjacent (maximal).  Both bounds live in the letter order extended
# with SUP on top; hi is always exclusive.  hi is SUP for a piece reaching
# past inf (so inf is a member), hi == INF for a piece holding every finite
# letter from lo up.


def ivl_union(a, b):
    merged = sorted([lo, hi] for lo, hi in list(a) + list(b))
    out = []
    for lo, hi in merged:
        if out and lo <= out[-1][1]:
            if hi > out[-1][1]:
                out[-1][1] = hi
        else:
            out.append([lo, hi])
    return tuple((lo, hi) for lo, hi in out)


def ivl_intersect(a, b):
    out = []
    for lo1, hi1 in a:
        for lo2, hi2 in b:
            lo = max(lo1, lo2)
            hi = min(hi1, hi2)
            if lo < hi:
                out.append((lo, hi))
    return ivl_union(out, ())


def ivl_complement(a, alg):
    cursor = alg.dmin
    out = []
    for lo, hi in a:
        if cursor < lo:
            out.append((cursor, lo))
        cursor = hi
    if cursor is not SUP:
        out.append((cursor, SUP))
    return tuple(out)


def ivl_contains(a, d):
    for lo, hi in a:
        if lo <= d and d < hi:
            return True
    return False


def _atom_intervals(alg, lo, hi):
    lo = max(lo, alg.dmin)
    if hi == INF:
        hi = SUP
    if lo < hi:
        return ((lo, hi),)
    return ()


def to_canonical_intervals(alg, psi):
    """Unique canonical interval list denoting psi: maximal disjoint
    intervals, ascending, with exclusive upper bounds (hi is SUP when the
    piece contains inf, hi == INF when it holds exactly the finite letters
    from lo up).  This is denote(alg, psi), for interval algebras only."""
    if not alg.is_interval:
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


# ---------------------------------------------------------------------------
# Propositional semantics by truth-table enumeration (k is capped small)


@functools.lru_cache(maxsize=None)
def _literal_set(k, index, positive):
    """Frozenset of the valuations, encoded as ints, that satisfy literal
    p<index> (or !p<index>); bit order matches lexicographic order of the
    bitstring letters.  At most 2k entries per k."""
    if not 0 <= index < k:
        raise ValueError("literal index out of range: %d" % index)
    bit = 1 << (k - 1 - index)
    return frozenset(v for v in range(2 ** k) if bool(v & bit) == positive)


@functools.lru_cache(maxsize=None)
def _lit(index, positive):
    """The one shared Lit(index, positive) that sem_pieces puts in its
    cubes; literals are immutable, so cubes need no copies.  At most two
    entries per proposition index."""
    return Lit(index, positive)


# ---------------------------------------------------------------------------
# Semantic sets: a uniform denotation usable by both algebra families.
# Interval kinds use canonical interval lists; prop uses valuation sets.


def denote(alg, psi):
    """The semantic set of psi, and the only evaluator of predicate trees:
    one structural recursion whose leaves are an atom's canonical interval
    list or a literal's valuation set, with Not, And and Or mapped to
    sem_complement, sem_intersect and sem_union_all.  Raises ValueError on
    an atom of the other algebra family or a literal index out of range."""
    if isinstance(psi, Top):
        return sem_full(alg)
    if isinstance(psi, Bot):
        return () if alg.is_interval else frozenset()
    if isinstance(psi, Interval):
        if not alg.is_interval:
            raise ValueError("interval atom in a prop predicate")
        return _atom_intervals(alg, psi.lo, psi.hi)
    if isinstance(psi, Lit):
        if alg.is_interval:
            raise ValueError("prop literal in an interval predicate")
        return _literal_set(alg.k, psi.index, psi.positive)
    if isinstance(psi, Not):
        return sem_complement(alg, denote(alg, psi.child))
    if isinstance(psi, And):
        return sem_intersect(alg, denote(alg, psi.left),
                             denote(alg, psi.right))
    if isinstance(psi, Or):
        return sem_union_all(alg, [denote(alg, psi.left),
                                   denote(alg, psi.right)])
    raise TypeError("not a predicate: %r" % (psi,))


def sem_full(alg):
    if alg.is_interval:
        return ((alg.dmin, SUP),)
    return frozenset(range(2 ** alg.k))


def sem_intersect(alg, a, b):
    if alg.is_interval:
        return ivl_intersect(a, b)
    return a & b


def sem_union_all(alg, sems):
    """Union of any number of semantic sets, in one pass: O(m log m) for m
    interval pieces."""
    if alg.is_interval:
        return ivl_union([piece for s in sems for piece in s], ())
    return frozenset().union(*sems)


def sem_complement(alg, a):
    if alg.is_interval:
        return ivl_complement(a, alg)
    return sem_full(alg) - a


def sem_min(alg, a):
    if not a:
        return None
    if alg.is_interval:
        return a[0][0]
    return format(min(a), "0%db" % alg.k)


def sem_contains(alg, a, d):
    if alg.is_interval:
        return ivl_contains(a, d)
    return int(d, 2) in a


def sem_regions(alg, sems):
    """The common refinement of the given semantic sets: non-empty,
    pairwise disjoint regions covering the domain, on each of which every
    set is constant, ordered by least letter.  Intervals: one region per
    segment between consecutive endpoints.  Prop: one region per
    membership signature."""
    if alg.is_interval:
        ends = sorted({alg.dmin} | {x for s in sems for piece in s
                                    for x in piece if x is not SUP})
        return [((lo, hi),) for lo, hi in zip(ends, ends[1:] + [SUP])]
    by_sig = {}
    for v in range(2 ** alg.k):
        by_sig.setdefault(tuple(v in s for s in sems), []).append(v)
    return [frozenset(vs) for vs in by_sig.values()]


def sem_pieces(alg, a):
    """Basic predicates for a semantic set, as (predicate, denotation)
    pairs: pairwise disjoint, ascending, and determined by the set alone;
    none for the empty set.  Intervals: one per canonical piece.  Prop:
    the largest cubes that fix the leading propositions, p0 first."""
    if alg.is_interval:
        return [(interval_piece_pred(lo, hi), ((lo, hi),)) for lo, hi in a]
    vals = sorted(a)
    out = []
    i = 0
    while i < len(vals):
        v, size = vals[i], 1
        # grow the aligned block [v, v + size) while the set fills it
        while (v % (2 * size) == 0 and i + 2 * size <= len(vals)
               and vals[i + 2 * size - 1] == v + 2 * size - 1):
            size *= 2
        fixed = alg.k - (size.bit_length() - 1)
        cube = and_all(_lit(j, bool(v >> (alg.k - 1 - j) & 1))
                       for j in range(fixed))
        out.append((cube, frozenset(range(v, v + size))))
        i += size
    return out


# ---------------------------------------------------------------------------
# Derived predicate queries


def is_sat(alg, psi):
    return bool(denote(alg, psi))


def pred_equiv(alg, psi, phi):
    return denote(alg, psi) == denote(alg, phi)


def min_model(alg, psi):
    """Least letter satisfying psi, or None when unsatisfiable.  Interval
    algebras only (they are the monotonic ones)."""
    if not alg.is_interval:
        raise ValueError("min_model needs a monotonic (interval) algebra")
    return sem_min(alg, to_canonical_intervals(alg, psi))


# ---------------------------------------------------------------------------
# Text grammar shared by every file format:
#   [a,b)  -inf  inf  p<i>  !p<i>  &  |  !  ( )  true  false


_TOKEN_RE = re.compile(r"""
    \s*(
      \[ | \) | \( | , | & | \| | ! |
      -?\d+ | -inf | inf | true | false | p\d+
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
    if tok == "inf":
        return INF
    if tok == "-inf":
        return NEG_INF
    return int(tok)


# Nested negations become nested Not nodes, and every walker of a tree
# recurses once per node level, so parse_pred rejects deeper nesting.
# Parentheses add no node, so any number of them parses.
MAX_NEGATION_DEPTH = 1000


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
            raise ValueError("expected %r, found %r" % (expected, tok))
        self.pos += 1
        return tok

    def parse(self):
        # each open parenthesis saves the enclosing or-operands, the
        # and-operands, and the negations in front of the parenthesis
        stack = []
        ors, ands, nots, depth = [], [], 0, 0
        while True:
            tok = self.peek()
            self.pos += 1
            if tok == "!":
                nots += 1
                if depth + nots > MAX_NEGATION_DEPTH:
                    raise ValueError("more than %d nested negations"
                                     % MAX_NEGATION_DEPTH)
                continue
            if tok == "(":
                stack.append((ors, ands, nots))
                depth += nots
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
                depth -= nots

    def atom(self, tok):
        if tok == "true":
            return TOP
        if tok == "false":
            return BOT
        if tok == "[":
            if not self.alg.is_interval:
                raise ValueError("interval atom over the prop algebra")
            lo = _parse_endpoint(self.take())
            self.take(",")
            hi = _parse_endpoint(self.take())
            self.take(")")
            return Interval(lo, hi)
        if tok is not None and tok.startswith("p"):
            if self.alg.is_interval:
                raise ValueError("prop literal over an interval algebra")
            index = int(tok[1:])
            if not index < self.alg.k:
                raise ValueError("literal p%d out of range for k=%d"
                                 % (index, self.alg.k))
            return Lit(index)
        raise ValueError("unexpected token %r" % (tok,))


def parse_pred(alg, text):
    """The predicate tree of text over alg.  Raises ValueError on bad
    syntax, on an atom of the other algebra family, on a literal index
    out of range, and on more than MAX_NEGATION_DEPTH nested negations."""
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


def parse_letter(alg, tok):
    if alg.kind == "prop":
        return alg.check_letter(tok)
    if tok == "inf":
        return INF
    if tok == "-inf":
        return alg.check_letter(NEG_INF)
    return alg.check_letter(int(tok))


def format_pred(psi):
    return _fmt(psi, 0)


def _fmt(psi, prec):
    # precedence: | is 1, & is 2, ! is 3, atoms are 4
    if isinstance(psi, Top):
        return "true"
    if isinstance(psi, Bot):
        return "false"
    if isinstance(psi, Interval):
        return "[%s,%s)" % (format_endpoint(psi.lo), format_endpoint(psi.hi))
    if isinstance(psi, Lit):
        return ("p%d" if psi.positive else "!p%d") % psi.index
    if isinstance(psi, Not):
        return "!" + _fmt(psi.child, 3)
    if isinstance(psi, And):
        text = "%s & %s" % (_fmt(psi.left, 2), _fmt(psi.right, 2))
        return "(%s)" % text if prec > 2 else text
    if isinstance(psi, Or):
        text = "%s | %s" % (_fmt(psi.left, 1), _fmt(psi.right, 1))
        return "(%s)" % text if prec > 1 else text
    raise TypeError("not a predicate: %r" % (psi,))
