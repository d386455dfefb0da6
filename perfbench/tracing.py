"""Per-layer tracing: wraps symfa's public functions from outside.

Modules import names from each other (`ops` binds its own `denote`), so a
function is wrapped in every `symfa.*` namespace that binds it.  A wrapped
call pushes a frame; on return its time, minus the time of wrapped calls
inside it, is its self time.  Calls that re-enter the function on top of
the stack (recursion) are folded into the outer call.  Functions called
millions of times (LEAVES) are counted and timed but not kept as spans;
the other calls are kept as spans (job, id, parent, name, start, end) in
memory and written out when the run ends.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter

from reference import tree_size

MODULES = ("algebra", "sfa", "ops", "dfa_learn", "sfa_learn", "query_learn")

# (module, class, method, span name)
METHODS = (
    ("sfa", "Sfa", "out", "sfa.Sfa.out"),
    ("dfa_learn", "SampleIndex", "__init__", "dfa_learn.SampleIndex.init"),
    ("dfa_learn", "SampleIndex", "equiv", "dfa_learn.SampleIndex.equiv"),
    ("query_learn", "Oracle", "mq", "query_learn.mq"),
    ("query_learn", "Oracle", "eq", "query_learn.eq"),
    ("query_learn", "PredicateTeacher", "mq", "query_learn.mq"),
)

LEAVES = {"sfa.accepts", "sfa.Sfa.out", "dfa_learn.SampleIndex.equiv",
          "query_learn.mq"}


def _sample_words(sample):
    return list(sample) if isinstance(sample, dict) else [w for w, _ in sample]


def _letters(words):
    out = set()
    for w in words:
        out.update(w)
    return out


class Tracer:
    def __init__(self):
        self.stack = []    # frames: [name, child_s, span_id, flags]
        self.stats = {}    # name -> [calls, total_s, self_s]
        self.sums = {}     # hook measures
        self.spans = []
        self.job = None
        self._next_id = 0
        self._patches = []
        self._hooks = {
            "sfa_learn.decontaminate": self._on_decontaminate,
            "sfa_learn.infer_sfa": self._on_infer_sfa,
            "dfa_learn.prefix_tree_dfa": self._on_prefix_tree,
            "ops.product": self._on_out_states,
            "ops.determinize": self._on_determinize,
            "ops.minimize": self._on_out_states,
        }
        self._plan()

    # -- installing ---------------------------------------------------------

    def _plan(self):
        # a module, class or method that a later version drops is skipped;
        # its metrics then read 0
        mods = {name: sys.modules["symfa." + name] for name in MODULES
                if "symfa." + name in sys.modules}
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if (name == "symfa" or name.startswith("symfa."))
                      and m is not None]
        for short, mod in mods.items():
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap("%s.%s" % (short, attr), fn)
                for ns in namespaces:
                    if vars(ns).get(attr) is fn:
                        self._patches.append((ns, attr, fn, wrapper))
        for short, cls_name, meth, name in METHODS:
            cls = getattr(mods.get(short), cls_name, None)
            fn = vars(cls).get(meth) if cls is not None else None
            if fn is not None:
                self._patches.append((cls, meth, fn, self._wrap(name, fn)))

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, fn, _ in self._patches:
            setattr(owner, attr, fn)

    # -- recording ----------------------------------------------------------

    def _wrap(self, name, fn):
        stack = self.stack
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        leaf = name in LEAVES or name.startswith("algebra.")
        hook = self._hooks.get(name)
        spans = self.spans

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            if leaf:
                span_id = None
            else:
                span_id = self._next_id
                self._next_id += 1
            frame = [name, 0.0, span_id, {}]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                stat[0] += 1
                stat[1] += end - start
                stat[2] += end - start - frame[1]
            if hook is not None:
                hook(args, result, frame)
            if stack:
                # hook time is tracing work: keep it out of the parent's
                # self time
                stack[-1][1] += perf_counter() - start
            if span_id is not None:
                parent = next((f[2] for f in reversed(stack)
                               if f[2] is not None), None)
                spans.append((self.job, span_id, parent, name, start, end))
            return result

        return wrapper

    def _add(self, key, value):
        self.sums[key] = self.sums.get(key, 0) + value

    def _on_decontaminate(self, args, result, frame):
        self._add("decontaminate.letters_in",
                  len(_letters(_sample_words(args[1]))))
        self._add("decontaminate.letters_kept", len(_letters(result)))

    def _on_prefix_tree(self, args, result, frame):
        for f in self.stack:
            if f[0] == "sfa_learn.infer_sfa":
                f[3]["fallback"] = True

    def _on_infer_sfa(self, args, result, frame):
        words = _sample_words(args[1])
        self._add("infer_sfa.fallbacks", int("fallback" in frame[3]))
        self._add("sample.words", len(words))
        self._add("sample.alphabet", len(_letters(words)))
        self._add("sample.max_len", max((len(w) for w in words), default=0))

    def _on_out_states(self, args, result, frame):
        self._add(frame[0] + ".out_states", len(result.states))

    def _on_determinize(self, args, result, frame):
        self._on_out_states(args, result, frame)
        guard = max((tree_size(p) for _, p, _ in result.transitions),
                    default=0)
        key = "ops.determinize.max_guard"
        self.sums[key] = max(self.sums.get(key, 0), guard)

    # -- reporting ----------------------------------------------------------

    def calls(self, name):
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def total_s(self, name):
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def self_s(self, name):
        return self.stats.get(name, [0, 0.0, 0.0])[2]
