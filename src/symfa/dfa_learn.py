"""Passive learning over finite concrete alphabets: characteristic-sample
construction (char_dfa) and sample-to-DFA inference (infer_dfa), with the
supporting machinery (sample equivalence, access words, distinguishing
words, prefix-tree automata)."""

from __future__ import annotations

from collections import deque

from .algebra import format_letter
from .sfa import sample_dict


class Dfa:
    """Complete DFA over a finite, explicitly listed alphabet."""

    def __init__(self, algebra, alphabet, states, initial, accepting, delta):
        self.algebra = algebra
        self.alphabet = tuple(sorted(set(alphabet)))
        self.states = tuple(states)
        self.initial = initial
        self.accepting = frozenset(accepting)
        self.delta = dict(delta)
        states_set = set(self.states)
        if len(states_set) != len(self.states):
            raise ValueError("duplicate state ids")
        if self.initial not in states_set:
            raise ValueError("initial state not in states")
        if not self.accepting <= states_set:
            raise ValueError("accepting states not in states")
        for q in self.states:
            for a in self.alphabet:
                if (q, a) not in self.delta:
                    raise ValueError("transition map not total at (%r, %r)"
                                     % (q, a))
                if self.delta[q, a] not in states_set:
                    raise ValueError("transition target not in states")

    def run(self, w, start=None):
        q = self.initial if start is None else start
        for d in w:
            q = self.delta[q, d]
        return q

    def accepts(self, w):
        return self.run(w) in self.accepting

    def __eq__(self, other):
        return (isinstance(other, Dfa)
                and self.algebra == other.algebra
                and self.alphabet == other.alphabet
                and self.states == other.states
                and self.initial == other.initial
                and self.accepting == other.accepting
                and self.delta == other.delta)

    def __repr__(self):
        return ("Dfa(states=%r, initial=%r, accepting=%r)"
                % (self.states, self.initial, sorted(self.accepting)))


# ---------------------------------------------------------------------------
# Sample equivalence: w1 ~ w2 unless some common extension carries
# conflicting labels in the sample.


class SampleIndex:
    """Precomputed extension maps for fast repeated sample_equiv queries."""

    def __init__(self, sample):
        self.words = sample_dict(sample)
        self.exts = {}
        for w, b in self.words.items():
            for i in range(len(w) + 1):
                self.exts.setdefault(w[:i], {})[w[i:]] = b

    def letters(self):
        out = set()
        for w in self.words:
            out.update(w)
        return sorted(out)

    def equiv(self, w1, w2):
        e1 = self.exts.get(tuple(w1))
        e2 = self.exts.get(tuple(w2))
        if not e1 or not e2:
            return True
        if len(e1) > len(e2):
            e1, e2 = e2, e1
        for z, b in e1.items():
            if e2.get(z, b) != b:
                return False
        return True


def sample_equiv(sample, w1, w2):
    """True unless the sample distinguishes w1 from w2 by some extension."""
    return SampleIndex(sample).equiv(w1, w2)


# ---------------------------------------------------------------------------
# Characteristic samples


def lex_access_words(d):
    """Lexicographically least access word per state, by depth-first
    traversal in ascending letter order; the word set is prefix-closed."""
    access = {}
    stack = [(d.initial, ())]
    while stack:
        q, w = stack.pop()
        if q in access:
            continue
        access[q] = w
        for a in reversed(d.alphabet):
            stack.append((d.delta[q, a], w + (a,)))
    missing = set(d.states) - set(access)
    if missing:
        raise ValueError("unreachable states: %r" % sorted(missing))
    return access


def distinguishing_word(d, q1, q2):
    """Shortest word accepted from exactly one of q1, q2, by breadth-first
    search over the self-product; length is at most |Q| squared."""
    if q1 == q2:
        raise ValueError("states are identical")
    start = (q1, q2)
    seen = {start}
    queue = deque([(start, ())])
    while queue:
        (p1, p2), w = queue.popleft()
        if (p1 in d.accepting) != (p2 in d.accepting):
            return w
        for a in d.alphabet:
            nxt = (d.delta[p1, a], d.delta[p2, a])
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, w + (a,)))
    raise ValueError("states %r and %r are not distinguishable" % (q1, q2))


def char_dfa(d):
    """Characteristic sample of a minimal complete DFA: labeled
    (S.E) u (S.Sigma.E) for S the lex access words and E the pairwise
    distinguishing words plus the empty word.

    Separation guarantee: the sample alone tells apart any two access
    words, and every one-letter extension u.a of an access word u from
    every access word v that reaches a different state (some suffix e
    has u.a.e and v.e both labeled, with different labels)."""
    if d.accepting == set(d.states):
        return sample_dict([((), 1)])
    if not d.accepting:
        return sample_dict([((), 0)])
    access = lex_access_words(d)
    s_words = sorted(access.values())
    by_word = {w: q for q, w in access.items()}
    e_words = [()]
    for i in range(len(s_words)):
        for j in range(i + 1, len(s_words)):
            v = distinguishing_word(d, by_word[s_words[i]],
                                    by_word[s_words[j]])
            if v not in e_words:
                e_words.append(v)
    pairs = {}
    for s in s_words:
        for e in e_words:
            pairs[s + e] = 1 if d.accepts(s + e) else 0
        for a in d.alphabet:
            for e in e_words:
                w = s + (a,) + e
                pairs[w] = 1 if d.accepts(w) else 0
    return sample_dict(pairs.items())


# ---------------------------------------------------------------------------
# Inference


def _word_id(w):
    if not w:
        return "e"
    return "w:" + ".".join(format_letter(d) for d in w)


def prefix_tree_dfa(sample, algebra, alphabet=None):
    """Tree automaton accepting exactly the positive sample words, made
    total with a rejecting sink."""
    sample = sample_dict(sample)
    idx = SampleIndex(sample)
    alphabet = _resolve_alphabet(idx, alphabet)
    prefixes = sorted(idx.exts)
    names = {w: _word_id(w) for w in prefixes}
    states = [names[w] for w in prefixes]
    delta = {}
    sink = "sink"
    need_sink = False
    for w in prefixes:
        for a in alphabet:
            child = w + (a,)
            if child in names:
                delta[names[w], a] = names[child]
            else:
                delta[names[w], a] = sink
                need_sink = True
    if need_sink:
        states.append(sink)
        for a in alphabet:
            delta[sink, a] = sink
    accepting = [names[w] for w in prefixes if sample.get(w) == 1]
    return Dfa(algebra, alphabet, states, names[()], accepting, delta)


def _resolve_alphabet(idx, alphabet):
    if alphabet is None:
        return idx.letters()
    alphabet = tuple(sorted(alphabet))
    if not set(idx.letters()) <= set(alphabet):
        raise ValueError("sample uses letters outside the given alphabet")
    return alphabet


def least_separated_extension(idx, rows, letters):
    """Lexicographically least one-letter extension r.a of a row (a in
    letters) that the sample tells apart from every row, or None.  rows
    must hold the empty word: a word outside the sample is sample-
    equivalent to it, so only the sample's prefixes are tried."""
    best = None
    for r in rows:
        for a in letters:
            w = r + (a,)
            if (w in idx.exts and w not in rows
                    and (best is None or w < best)
                    and all(not idx.equiv(w, r2) for r2 in rows)):
                best = w
    return best


def infer_dfa(sample, algebra, alphabet=None):
    """Infer a DFA from a consistent sample.  Grows a set of pairwise
    distinguished prefixes from the empty word; these become the states.
    Falls back to the prefix-tree automaton when the grown prefixes are
    not all labeled sample words, when some alphabet letter cannot be
    assigned a unique state (the sample then subsumes no characteristic
    sample over its own alphabet), or when the built automaton disagrees
    with the sample.  When the sample contains a characteristic sample of
    a minimal complete DFA over the same alphabet, the result recognizes
    that DFA's language.  The alphabet defaults to the letters appearing
    in the sample; pass it explicitly when it is known and larger."""
    sample = sample_dict(sample)
    if not sample:
        raise ValueError("empty sample")
    idx = SampleIndex(sample)
    alphabet = _resolve_alphabet(idx, alphabet)
    rows = [()]
    # always adopt the lexicographically least distinguished extension, so
    # each class is represented by its least access word
    best = least_separated_extension(idx, rows, alphabet)
    while best is not None:
        rows.append(best)
        rows.sort()
        best = least_separated_extension(idx, rows, alphabet)
    if any(r not in sample for r in rows):
        return prefix_tree_dfa(sample, algebra, alphabet)
    for a in alphabet:
        w = (a,)
        if w not in rows and sum(idx.equiv(w, r2) for r2 in rows) != 1:
            return prefix_tree_dfa(sample, algebra, alphabet)
    names = {r: _word_id(r) for r in rows}
    delta = {}
    for r in rows:
        for a in alphabet:
            w = r + (a,)
            cands = [r2 for r2 in rows if idx.equiv(w, r2)]
            if not cands:
                return prefix_tree_dfa(sample, algebra, alphabet)
            # prefer staying in the source state, then the most specific
            # (longest, then lexicographically least) candidate
            tgt = r if r in cands else min(cands,
                                           key=lambda r2: (-len(r2), r2))
            delta[names[r], a] = names[tgt]
    accepting = [names[r] for r in rows if sample[r] == 1]
    out = Dfa(algebra, alphabet, [names[r] for r in rows], names[()],
              accepting, delta)
    if any(out.accepts(w) != bool(b) for w, b in sample.items()):
        return prefix_tree_dfa(sample, algebra, alphabet)
    return out


# ---------------------------------------------------------------------------
# Concrete minimization: the partition-refinement core, also behind
# ops.minimize


def minimize_dfa(d):
    """Minimal complete DFA for d's language, states renamed s0, s1, ...
    in ascending-letter depth-first order (iterative, so long chains
    cannot exhaust the call stack).  Moore refinement over the states
    reachable from the initial one."""
    reach = [d.initial]
    seen = {d.initial}
    i = 0
    while i < len(reach):
        q = reach[i]
        i += 1
        for a in d.alphabet:
            dst = d.delta[q, a]
            if dst not in seen:
                seen.add(dst)
                reach.append(dst)
    block = {q: (q in d.accepting) for q in reach}
    while True:
        sig = {q: (block[q],) + tuple(block[d.delta[q, a]]
                                      for a in d.alphabet)
               for q in reach}
        ids = {}
        new_block = {}
        for q in reach:
            new_block[q] = ids.setdefault(sig[q], len(ids))
        if len(set(new_block.values())) == len(set(block.values())):
            block = new_block
            break
        block = new_block
    rep = {}
    for q in reach:
        rep.setdefault(block[q], q)
    order = []
    placed = set()
    stack = [block[d.initial]]
    while stack:
        b = stack.pop()
        if b in placed:
            continue
        placed.add(b)
        order.append(b)
        for a in reversed(d.alphabet):
            stack.append(block[d.delta[rep[b], a]])
    name = {b: "s%d" % i for i, b in enumerate(order)}
    delta = {}
    for b in order:
        for a in d.alphabet:
            delta[name[b], a] = name[block[d.delta[rep[b], a]]]
    return Dfa(d.algebra, d.alphabet, [name[b] for b in order],
               name[block[d.initial]],
               [name[b] for b in order if rep[b] in d.accepting], delta)


def dfa_equiv(d1, d2):
    """Language equality of two complete DFAs.  The alphabets may differ:
    a word using a letter outside a machine's alphabet is rejected by that
    machine."""
    alphabet = sorted(set(d1.alphabet) | set(d2.alphabet))
    dead = object()  # absorbing rejecting state for unknown letters
    known1, known2 = frozenset(d1.alphabet), frozenset(d2.alphabet)

    def step(d, known, q, a):
        if q is dead or a not in known:
            return dead
        return d.delta[q, a]

    start = (d1.initial, d2.initial)
    seen = {start}
    queue = deque([start])
    while queue:
        q1, q2 = queue.popleft()
        if (q1 in d1.accepting) != (q2 in d2.accepting):
            return False
        for a in alphabet:
            nxt = (step(d1, known1, q1, a), step(d2, known2, q2, a))
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return True
