"""Passive learning over finite concrete alphabets: characteristic-sample
construction (char_dfa) and sample-to-DFA inference (infer_dfa), with the
supporting machinery (sample equivalence, access words, distinguishing
words, prefix-tree automata)."""

from __future__ import annotations

from functools import cached_property
from heapq import heappop, heappush
from operator import itemgetter

from .algebra import format_letter
from .sfa import _first_word, _minimize_table, sample_dict


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
    """One sample, indexed for repeated equivalence queries as its minimal
    acyclic automaton: one class per distinct subtree of its prefix tree,
    keyed (label, (letter, child class), ...), letters ascending, label -1
    for a prefix that is no sample word.  Class 0 is (-1,), the empty
    tree's, that of every word that is no sample prefix; a class's children
    are numbered below it.  The learner asks its queries on class ids:
    cls(w) is a word's class, same(x, y) the memoized class-pair test, and
    agrees_with a search over (class, state) pairs.  No tree node is kept:
    tree() unfolds the tree for the builders that read nodes.  Every
    sample letter that is no int is checked with the algebra's
    check_letter before anything is sorted, and every distinct letter of
    the built classes after, so a letter outside the algebra raises
    ValueError rather than failing a comparison, also where it equals a
    letter of the algebra (True and 1.0 equal 1)."""

    def __init__(self, sample, algebra):
        pairs = sample.items() if isinstance(sample, dict) else list(sample)
        self.words = words = sample_dict(pairs)
        # an int letter is checked by its value, as a distinct letter of
        # the built index; a letter of another type may equal an int (True,
        # 1.0) and share its edge, so it is checked itself, before the sort,
        # in the given words where sample_dict folded one into an equal one
        given = words if len(words) == len(pairs) else (w for w, _ in pairs)
        for d in {d for w in given for d in w if type(d) is not int}:
            algebra.check_letter(d)
        # one walk of the words in ascending order, each resumed from its
        # longest common prefix with the word before; a node left is done
        ids = {(-1,): 0}
        path, prev = [[-1]], ()  # path[i]: the key so far of prev[:i]

        def leave(i):  # register prev's nodes deeper than i
            for j in range(len(prev), i, -1):
                key = tuple(path.pop())
                path[-1].append((prev[j - 1], ids.setdefault(key, len(ids))))

        for w, b in sorted(words.items(), key=itemgetter(0)):
            n = len(prev)
            if n and len(w) == n and prev[:-1] == w[:-1]:
                # a sibling: any extension of prev would sort between the
                # two, so prev's node is a leaf, keyed by its label alone
                key = (path[-1][0],)
                path[-2].append((prev[-1], ids.setdefault(key, len(ids))))
            else:
                # where w extends prev, no node is left; else prev < w, so
                # w is no proper prefix of prev and w[i] exists
                i = n if w[:n] == prev else 0
                if i < n:
                    while prev[i] == w[i]:
                        i += 1
                    leave(i)
                for _ in w[i:]:
                    path.append([-1])
            path[-1][0] = b
            prev = w
        leave(0)
        self._set_classes(ids, ids.setdefault(tuple(path[0]), len(ids)))
        for d in self._letters:
            algebra.check_letter(d)

    def _set_classes(self, ids, root):
        """Take the classes of ids, keyed in id order, and the root's
        class; the letters are those on edges reachable from the root."""
        self._root, self._known = root, {}
        self._class_label = [key[0] for key in ids]
        self._class_kids = kids = [dict(key[1:]) for key in ids]
        letters, reached = set(), {root}
        for x in range(len(kids) - 1, 0, -1):  # parents before children
            if x in reached:
                letters.update(kids[x])
                reached.update(kids[x].values())
        self._letters = tuple(sorted(letters))

    @cached_property
    def words(self):
        """The sample as a dict of word to label.  A cut index (restrict)
        builds it on first read: the sample words over its letters, in the
        sample's order."""
        letters, words = self._cut
        return {w: b for w, b in words.items() if letters.issuperset(w)}

    def restrict(self, letters):
        """The index of the sample words over letters, a set: this one
        when every sample letter is among them, else this one with each
        edge on another letter cut.  One pass over the classes in id order
        keys each anew without those edges and edges into class 0, so the
        root's class is 0 exactly when no word is kept.  The kept words are
        listed only when words is read."""
        if letters.issuperset(self._letters):
            return self
        ids, new = {(-1,): 0}, []
        for b, kids in zip(self._class_label, self._class_kids):
            key = [b]
            for a, c in kids.items():
                if a in letters and new[c]:
                    key.append((a, new[c]))
            new.append(ids.setdefault(tuple(key), len(ids)))
        sub = SampleIndex.__new__(SampleIndex)
        sub._cut = (frozenset(letters), self.words)
        sub._set_classes(ids, new[self._root])
        return sub

    def letters(self):
        """The distinct sample letters, ascending."""
        return self._letters

    def tree(self):
        """The sample's prefix tree, unfolded from the classes by an
        explicit-stack preorder: (kids, label, up), where node q is the
        q-th sample prefix in ascending order, kids[q] maps each letter to
        a child in ascending letter order, label[q] is the prefix's label
        (-1 if no sample word), and up[q] is (parent, letter), None at 0."""
        return self._unfold()[:3]

    def _unfold(self):
        """tree()'s three lists and a fourth, each node's class."""
        ckids, clabel = self._class_kids, self._class_label
        kids, up, cls = [], [], []
        stack = [(self._root, None)]
        while stack:
            x, link = stack.pop()
            q = len(kids)
            if link is not None:
                kids[link[0]][link[1]] = q
            kids.append({})
            up.append(link)
            cls.append(x)
            for a, c in reversed(ckids[x].items()):
                stack.append((c, (q, a)))
        return kids, [clabel[x] for x in cls], up, cls

    def cls(self, w):
        """The class of word w, read letter by letter off the classes'
        children from the root's class."""
        kids, x = self._class_kids, self._root
        for d in w:
            x = kids[x].get(d, 0)
        return x

    def same(self, x, y):
        """True unless the sample tells classes x and y apart: a word of
        one and a word of the other have some common extension labeled 0
        after one and 1 after the other.  Each answer is kept."""
        if x == y:
            return True
        top = (x, y) if x < y else (y, x)
        known = self._known.get(top)
        if known is None:
            known = self._known[top] = self._walk(top)
        return known

    def equiv(self, w1, w2):
        return self.same(self.cls(w1), self.cls(w2))

    def _walk(self, top):
        """False at the first pair labeled 0 and 1 that a lockstep walk from
        the class pair top meets; a walk that passes keeps every pair."""
        labels, kids, known = self._class_label, self._class_kids, self._known
        seen, stack = {top}, [top]
        while stack:
            x, y = stack.pop()
            if labels[x] + labels[y] == 1:  # one is 0, the other 1
                return False
            ky = kids[y]
            for a, c in kids[x].items():
                d = ky.get(a, c)
                if c != d:
                    pair = (c, d) if c < d else (d, c)
                    if pair not in seen and not known.get(pair):
                        seen.add(pair)
                        stack.append(pair)
        known.update(dict.fromkeys(seen, True))
        return True

    def agrees_with(self, start, accepts, step):
        """True iff every sample word is labeled 1 exactly where accepts
        holds of the state that step reaches from start over its letters.
        A search over the pairs (class of a sample prefix, state it
        reaches), from (root's class, start), that fails at a labeled class
        whose label is not the state's acceptance: at most classes x
        states steps, however many letters the sample has."""
        labels, kids = self._class_label, self._class_kids
        top = (self._root, start)
        seen, stack = {top}, [top]
        while stack:
            x, q = stack.pop()
            if labels[x] >= 0 and labels[x] != accepts(q):
                return False
            for a, c in kids[x].items():
                pair = (c, step(q, a))
                if pair not in seen:
                    seen.add(pair)
                    stack.append(pair)
        return True


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
    """Shortest word accepted from exactly one of q1, q2, least letter by
    letter among the shortest, by breadth-first search over the
    self-product; length is at most |Q| squared."""
    if q1 == q2:
        raise ValueError("states are identical")
    w = _separating_word(d, q1, d, q2)
    if w is None:
        raise ValueError("states %r and %r are not distinguishable"
                         % (q1, q2))
    return w


def _separators(d):
    """distinguishing_word of every ordered pair of states that some word
    tells apart, as one dict keyed by the pair, built layer by layer.
    Layer 0 holds the pairs of different acceptance.  A pair still open at
    layer k takes the least letter whose successor pair was resolved
    before layer k, followed by that pair's word: a shorter word would
    have resolved it sooner, and a least first letter, then a least rest,
    make the least word of that length."""
    states, delta, accepting, sep = d.states, d.delta, d.accepting, {}
    pending = [(p, q) for i, p in enumerate(states) for q in states[i + 1:]]
    found = [(p, q, ()) for p, q in pending
             if (p in accepting) != (q in accepting)]
    while found:  # the pairs of one layer
        for p, q, v in found:
            sep[p, q] = sep[q, p] = v
        pending, found = [pq for pq in pending if pq not in sep], []
        for p, q in pending:
            for a in d.alphabet:
                v = sep.get((delta[p, a], delta[q, a]))
                if v is not None:
                    found.append((p, q, (a,) + v))
                    break
    return sep


def char_dfa(d):
    """Characteristic sample of a minimal complete DFA: labeled
    (S.E) u (S.Sigma.E) for S the lex access words and E the pairwise
    distinguishing words plus the empty word.

    Separation guarantee: the sample alone tells apart any two access
    words, and every one-letter extension u.a of an access word u from
    every access word v that reaches a different state (some suffix e
    has u.a.e and v.e both labeled, with different labels).

    E lists the distinguishing_word of each pair of access words in
    order, each once, all read off one table (_separators).  Every word
    is s.e or s.a.e, whose label is that of e read from the state s or
    s.a reaches, so the labels are tabulated once per state and suffix,
    |Q|.|E| runs, and the words are listed in the order of the loops over
    S, then Sigma, then E.  The dict is returned as built: its labels are
    0 and 1 and its words tuples by construction."""
    if d.accepting == set(d.states):
        return {(): 1}
    if not d.accepting:
        return {(): 0}
    access = lex_access_words(d)
    s_words = sorted(access.values())
    by_word = {w: q for q, w in access.items()}
    sep, e_words = _separators(d), {(): None}
    for i, s in enumerate(s_words):
        for t in s_words[i + 1:]:
            v = sep.get((by_word[s], by_word[t]))
            if v is None:
                raise ValueError("states %r and %r are not distinguishable"
                                 % (by_word[s], by_word[t]))
            e_words.setdefault(v)
    e_words = list(e_words)
    # fate[q][i]: the label of e_words[i] read from q
    fate = {q: [1 if d.run(e, q) in d.accepting else 0 for e in e_words]
            for q in d.states}
    pairs = {}
    for s in s_words:
        q = by_word[s]
        pairs.update(zip([s + e for e in e_words], fate[q]))
        for a in d.alphabet:
            sa = s + (a,)
            pairs.update(zip([sa + e for e in e_words], fate[d.delta[q, a]]))
    return pairs


# ---------------------------------------------------------------------------
# Inference


def _word_id(w):
    if not w:
        return "e"
    return "w:" + ".".join(format_letter(d) for d in w)


def prefix_tree_dfa(sample, algebra, alphabet=None):
    """Tree automaton accepting exactly the positive sample words, made
    total with a rejecting sink: one state per node of the sample's prefix
    tree (SampleIndex.tree), in ascending prefix order.  Sample letters
    are checked as by infer_dfa."""
    idx, alphabet = _index_and_alphabet(sample, algebra, alphabet)
    return _tree_dfa(idx, algebra, alphabet)


def _tree_dfa(idx, algebra, alphabet):
    """prefix_tree_dfa of idx's non-empty sample, over alphabet, which
    holds the sample's letters."""
    kids, label, _ = idx.tree()
    names = [_word_id(())] * len(kids)  # each extends its parent's
    for q, row in enumerate(kids):
        for d, c in row.items():
            names[c] = (names[q] + "." if q else "w:") + format_letter(d)
    # the leaves have no children, so some letter goes to the sink
    states = names + ["sink"] if alphabet else names
    delta = {}
    for q, row in zip(states, kids + [{}]):
        delta.update(((q, a), "sink") for a in alphabet)
        delta.update(((q, a), names[c]) for a, c in row.items())
    return Dfa(algebra, alphabet, states, names[0],
               [names[q] for q, b in enumerate(label) if b == 1], delta)


def _index_and_alphabet(sample, algebra, alphabet):
    """The SampleIndex of a non-empty sample, its letters checked against
    algebra, and alphabet sorted, by default the sample's letters;
    ValueError on an empty sample or a sample letter outside algebra or
    alphabet."""
    idx = SampleIndex(sample, algebra)
    if not idx.words:
        raise ValueError("empty sample")
    if alphabet is None:
        return idx, idx.letters()
    alphabet = tuple(sorted(alphabet))
    if not set(idx.letters()) <= set(alphabet):
        raise ValueError("sample uses letters outside the given alphabet")
    return idx, alphabet


def _grow(idx, letters):
    """Rows grown from the empty word over idx's sample, each yielded with
    its class.  Each next row is the least extension r.a of a row (a among
    letters) that no row matches (SampleIndex.same): candidates leave a
    heap keyed by word, and since rows only grow, the first one left
    unmatched is adopted.  Matching depends on the class alone, and a
    class once matched stays matched, so each class is tried once: a
    candidate of a settled class (class 0, that of every word that is no
    sample prefix, a row's or a dropped candidate's) is neither pushed
    nor tried.  A letter that the caller appends to letters while a row
    is out extends every row."""
    same, kids = idx.same, idx._class_kids
    rows, heap, n = [], [((), idx._root)], 0
    settled = {0}

    def push(r, y, over):
        for a in over:
            c = kids[y].get(a, 0)
            if c not in settled:
                heappush(heap, (r + (a,), c))

    while heap:
        w, x = heappop(heap)
        if x in settled:
            continue
        settled.add(x)
        if any(same(x, y) for _, y in rows):
            continue
        yield w, x
        new, n = letters[n:], len(letters)
        for r, y in rows:
            push(r, y, new)
        rows.append((w, x))
        push(w, x, letters)


def infer_dfa(sample, algebra, alphabet=None):
    """Infer a DFA from a consistent sample.  Grows a set of pairwise
    distinguished prefixes from the empty word, always adopting the least
    one-letter extension of a prefix that the sample tells apart from
    every prefix (_grow); these become the states.  Falls back to the
    prefix-tree automaton when the grown prefixes are not all labeled
    sample words, when some alphabet letter cannot be assigned a unique
    state (the sample then subsumes no characteristic sample over its own
    alphabet), or when the built automaton disagrees with the sample,
    which one search of (sample class, state) pairs checks.  When the
    sample contains a characteristic sample of a minimal complete DFA over
    the same alphabet, the result recognizes that DFA's language.  The
    alphabet defaults to the letters appearing in the sample.  A given
    alphabet matters only for a one-state target, whose char_dfa sample
    is the empty word alone: it then gives the result its letters.  Once
    there are two rows, a given letter that the sample lacks matches
    every row, so row growing gives up and the prefix tree is returned.
    Each distinct sample letter is checked against algebra first, so a
    letter outside it raises ValueError.  The row growing is _grow_rows,
    which sfa_learn.infer_sfa calls directly, so that it falls back to
    state merging rather than to the concrete prefix tree."""
    idx, alphabet = _index_and_alphabet(sample, algebra, alphabet)
    out = _grow_rows(idx, algebra, alphabet)
    return _tree_dfa(idx, algebra, alphabet) if out is None else out


def _grow_rows(idx, algebra, alphabet):
    """infer_dfa's row growing over the non-empty sample of idx: the DFA on
    _grow's rows, or None where infer_dfa falls back to the prefix
    tree.  _grow is read lazily, and a row whose class is unlabeled (no
    sample word) returns None as it comes out, so no row is grown past
    it.  Every query reads class ids: an extension r.a's class is one
    lookup among the class children of r's class.  A DFA returned has
    passed the closing search of idx.agrees_with from (root's class,
    initial state), so it agrees with every sample word;
    sfa_learn.infer_sfa relies on this search as its only agreement
    check of the cleaned words, which the generalized rows send where
    the DFA does.

    Once _grow is drained, the rows are closed, as in L* (Angluin 1987):
    every extension r.a of a row matches some row.  _grow ends only when
    its heap is empty, and it pushes every extension r.a of every row
    unless that class is already settled.  A class is settled only as a
    row's class, as a class that some row matched, or as class 0, which
    same matches to every row; and rows are only ever appended.  So some
    row matches every transition's class, and the check that each first
    letter matches exactly one row fails only where two or more do."""
    same, kids, labels = idx.same, idx._class_kids, idx._class_label
    # each class is represented by its least access word; the rows come
    # in ascending order, and the first unlabeled one ends the growing
    cls = {}
    for r, x in _grow(idx, alphabet):
        if labels[x] < 0:
            return None
        cls[r] = x
    # rows are pairwise separated, so a row matches itself only
    root = kids[cls[()]]
    for x in {root.get(a, 0) for a in alphabet}:
        if sum(same(x, y) for y in cls.values()) != 1:
            return None
    # prefer staying in the source state, then the most specific (longest,
    # then lexicographically least) matching row, sought once per class
    preferred = sorted(cls, key=lambda r2: (-len(r2), r2))
    names = {r: _word_id(r) for r in cls}
    delta, best = {}, {}
    for r in cls:
        for a in alphabet:
            x = kids[cls[r]].get(a, 0)
            if same(x, cls[r]):
                tgt = r
            elif x in best:
                tgt = best[x]
            else:
                tgt = best[x] = next(r2 for r2 in preferred
                                     if same(x, cls[r2]))
            delta[names[r], a] = names[tgt]
    accepting = [names[r] for r in cls if labels[cls[r]] == 1]
    out = Dfa(algebra, alphabet, list(names.values()), names[()],
              accepting, delta)
    if not idx.agrees_with(out.initial, out.accepting.__contains__,
                           lambda q, a: delta[q, a]):
        return None
    return out


# ---------------------------------------------------------------------------
# Concrete minimization and equivalence, on the partition-refinement
# core and the shortest-word search that the symbolic layer shares
# (sfa._minimize_table and sfa._first_word)


def minimize_dfa(d):
    """Minimal complete DFA for d's language, states renamed s0, s1, ...
    in ascending-letter depth-first order (see _minimize_table)."""
    alphabet, delta = d.alphabet, d.delta
    names, accepting, rows = _minimize_table(
        d.initial, d.accepting.__contains__,
        lambda q: [delta[q, a] for a in alphabet])
    return Dfa(d.algebra, alphabet, names, names[0], accepting,
               {(names[i], a): names[j] for i, row in enumerate(rows)
                for a, j in zip(alphabet, row)})


def dfa_equiv(d1, d2):
    """Language equality of two complete DFAs.  The alphabets may differ:
    a word using a letter outside a machine's alphabet is rejected by that
    machine."""
    return _separating_word(d1, d1.initial, d2, d2.initial) is None


def _separating_word(d1, q1, d2, q2):
    """Shortest word, least letter by letter, that d1 accepts from q1 and
    d2 rejects from q2 or the other way round; None when there is none.
    The letters are the sorted union of both alphabets, and a letter
    without a transition leads to an absorbing rejecting dead state."""
    alphabet = sorted(set(d1.alphabet) | set(d2.alphabet))
    t1, t2, f1, f2 = d1.delta, d2.delta, d1.accepting, d2.accepting
    dead = object()  # equal to no state of either machine

    def steps(pair):
        p1, p2 = pair
        return [(a, (t1.get((p1, a), dead), t2.get((p2, a), dead)))
                for a in alphabet]

    return _first_word((q1, q2), lambda p: (p[0] in f1) != (p[1] in f2),
                       steps)
