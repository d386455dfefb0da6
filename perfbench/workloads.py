"""The four workloads: how each builds a job's input from the seed, the
timed job (calls into symfa's public API only), and the independent
assessment of the job's outputs.

Every call into symfa goes through a module attribute (`ops.product`, not
a name imported from it), so the tracer's wrappers see it.

`assess` returns the checks and a record of the job.  A check is a
(name, passed, defect) triple.  `defect` names an entry of KNOWN_DEFECTS
when a failing check matches the signature of a defect the program has at
baseline (see NOTES.md); a failure without one is an unexplained wrong
output and makes the run incorrect.  The record holds the sizes behind
`output_states_ratio` (out_states over goal_states) and the job's input
sizes.
"""

from __future__ import annotations

from symfa import ops, query_learn, sfa as sfa_mod, sfa_learn
from symfa.algebra import prop_algebra

import inputs
from reference import (
    RefMachine, determinism_faults, holds, minimal_state_count, prop_letters,
)

# Names of baseline defects a failed check may be attributed to; NOTES.md
# describes each one.
KNOWN_DEFECTS = {"prop-neat-overlap"}

RANDOM_WORDS = 100
BAND = 0.1


def _band(size):
    return range(round(size * (1 - BAND)), round(size * (1 + BAND)) + 1)


def _agree(name, out, goal, words):
    return (name, all(out.accepts(w) == goal.accepts(w) for w in words), None)


def _verdict(name, verdict, expected, ref1, ref2, subset):
    """Check an includes verdict against its known answer (True, False, or
    None when either may hold).  A witness word must lie in L1 and not in
    L2 for subset, in exactly one of them for equiv."""
    if verdict is True:
        return (name, expected is not False, None)
    a, b = ref1.accepts(verdict), ref2.accepts(verdict)
    return (name, expected is not True and ((a and not b) if subset
                                            else a != b), None)


def _deterministic(name, m, letters, overlap_defect=None):
    """Exactly one transition per state and representative letter.  Several
    transitions that all lead to one state keep the language right; that is
    the signature of overlap_defect, when one is given."""
    faults = determinism_faults(RefMachine(m), letters)
    if not faults:
        return (name, True, None)
    same_dest = all(len(set(dsts)) == 1 for _, _, dsts in faults)
    return (name, False, overlap_defect if same_dest else None)


class _Union:
    def __init__(self, *refs):
        self.refs = refs

    def accepts(self, w):
        return any(r.accepts(w) for r in self.refs)


class _Complement:
    def __init__(self, ref):
        self.ref = ref

    def accepts(self, w):
        return not self.ref.accepts(w)


# ---------------------------------------------------------------------------
# learn-complete: char_sfa -> infer_sfa -> equiv


class LearnComplete:
    name = "learn-complete"
    # (states, characteristic sample words) per rung; a target is drawn
    # until its sample is within BAND of the rung's word count
    ladder = ((8, 630), (10, 1330), (12, 2300), (14, 3550), (16, 5630))
    noise_every = 3     # every third job adds labelled noise words
    noise_words = 30
    batch = 30
    guaranteed = True   # the paper's round trip must give back the target

    def make_input(self, rng, index):
        n, words = self.ladder[index % len(self.ladder)]
        target, draws, _ = inputs.draw_learning_target(rng, n,
                                                       _band(words))
        noise = {}
        if index % self.noise_every == self.noise_every - 1:
            noise = inputs.labelled_noise(rng, target, self.noise_words)
        return {"n": n, "draws": draws, "target": target, "noise": noise,
                "check_seed": rng.getrandbits(32)}

    def run(self, inp):
        target = inp["target"]
        sample = list(sfa_learn.char_sfa(target).items())
        sample += list(inp["noise"].items())
        learned = sfa_learn.infer_sfa(target.algebra, sample)
        verdict = ops.includes(learned, target, "equiv")
        return {"sample": sample, "learned": learned, "verdict": verdict}

    def assess(self, inp, out):
        target, learned, verdict = inp["target"], out["learned"], out["verdict"]
        ref_t, ref_l = RefMachine(target), RefMachine(learned)
        rng = inputs.job_rng("check", inp["check_seed"], 0)
        sigma = inputs.concrete_alphabet(target)
        words = [inputs.random_interval_word(rng, 2 * inp["n"], sigma)
                 for _ in range(RANDOM_WORDS)]
        checks = [("learned-matches-sample", all(
            ref_l.accepts(w) == bool(b) for w, b in out["sample"]), None)]
        if self.guaranteed or verdict is True:
            checks.append(_agree("learned-matches-target", ref_l, ref_t,
                                 words))
        checks.append(_verdict("equiv-verdict", verdict,
                               True if self.guaranteed else None,
                               ref_l, ref_t, subset=False))
        letters = set()
        for w, _ in out["sample"]:
            letters.update(w)
        record = {"n": inp["n"], "draws": inp["draws"], "sigma": len(sigma),
                  "sample_words": len(out["sample"]),
                  "sample_letters": len(letters),
                  "max_len": max((len(w) for w, _ in out["sample"]),
                                 default=0),
                  "out_states": len(learned.states), "goal_states": inp["n"]}
        return checks, record


class LearnIncomplete(LearnComplete):
    """Characteristic samples with a seeded share of the words dropped."""

    name = "learn-incomplete"
    ladder = ((4, 55), (5, 143), (6, 226), (7, 397), (8, 631))
    drop = (0.1, 0.2)
    batch = 30
    guaranteed = False  # no characteristic sample, so no guarantee

    def make_input(self, rng, index):
        n, words = self.ladder[index % len(self.ladder)]
        share = self.drop[(index // len(self.ladder)) % len(self.drop)]
        target, draws, full = inputs.draw_learning_target(rng, n,
                                                          _band(words))
        sample = [(w, b) for w, b in full.items() if rng.random() >= share]
        return {"n": n, "draws": draws, "target": target,
                "sample": sample or list(full.items())[:1],
                "check_seed": rng.getrandbits(32)}

    def run(self, inp):
        target = inp["target"]
        learned = sfa_learn.infer_sfa(target.algebra, inp["sample"])
        verdict = ops.includes(learned, target, "equiv")
        return {"sample": inp["sample"], "learned": learned,
                "verdict": verdict}


# ---------------------------------------------------------------------------
# ops-interval: product, determinize, minimize, includes on interval pairs


class OpsInterval:
    name = "ops-interval"
    # (states per target, concrete transitions of the union product) per
    # rung; a pair is drawn until its product is within BAND of the count
    ladder = ((4, 192), (5, 358), (6, 635), (8, 1518), (10, 2957))
    batch = 30

    def make_input(self, rng, index):
        n, size = self.ladder[index % len(self.ladder)]
        a, b, draws = inputs.draw_target_pair(rng, n, _band(size))
        return {"n": n, "draws": draws, "a": a, "b": b,
                "nfa": inputs.nfa_union(a, b),
                "check_seed": rng.getrandbits(32)}

    def run(self, inp):
        a = inp["a"]
        union = ops.product(a, inp["b"], "union")
        det = ops.determinize(inp["nfa"])
        min_union = ops.minimize(union, "neat")
        min_det = ops.minimize(det, "normalized")
        return {
            "min_union": min_union, "min_det": min_det,
            "a_in_union": ops.includes(a, min_union),
            "mins_equiv": ops.includes(min_union, min_det, "equiv"),
            # the unminimized determinize output keeps its stacked guards
            "det_equiv": ops.includes(det, union, "equiv"),
            "union_in_not_a": ops.includes(min_union, ops.complement(a)),
        }

    def assess(self, inp, out):
        ref_a, ref_b = RefMachine(inp["a"]), RefMachine(inp["b"])
        ref_u, ref_d = RefMachine(out["min_union"]), RefMachine(out["min_det"])
        letters = sorted(set(ref_a.interval_letters())
                         | set(ref_b.interval_letters())
                         | set(ref_u.interval_letters())
                         | set(ref_d.interval_letters()))
        goal = minimal_state_count([ref_a, ref_b], letters, any)
        rng = inputs.job_rng("check", inp["check_seed"], 0)
        words = [inputs.random_interval_word(rng, 2 * inp["n"], letters)
                 for _ in range(RANDOM_WORDS)]
        checks = [
            ("a-in-union", out["a_in_union"] is True, None),
            ("mins-equiv", out["mins_equiv"] is True, None),
            ("determinized-equiv", out["det_equiv"] is True, None),
            # L(a) is not empty, so the union is not inside its complement
            _verdict("union-not-in-complement", out["union_in_not_a"], False,
                     ref_u, _Complement(ref_a), subset=True),
            _deterministic("min-union-deterministic", out["min_union"],
                           letters),
            _deterministic("min-det-deterministic", out["min_det"], letters),
            ("min-union-minimal", len(out["min_union"].states) == goal, None),
            ("min-det-minimal", len(out["min_det"].states) == goal, None),
            _agree("min-union-language", ref_u, _Union(ref_a, ref_b), words),
            _agree("min-det-language", ref_d, _Union(ref_a, ref_b), words),
        ]
        record = {"n": inp["n"], "draws": inp["draws"],
                  "out_states": (len(out["min_union"].states)
                                 + len(out["min_det"].states)),
                  "goal_states": 2 * goal}
        return checks, record


# ---------------------------------------------------------------------------
# ops-prop: the same operations over valuation sets, plus query learning


class OpsProp:
    name = "ops-prop"
    ladder = (5, 6, 7)
    states = 4
    out_degree = 2
    guard_depth = 2
    det_transitions = range(40, 61)
    adversary_k = 10
    wrapper_k = 5
    batch = 45

    def make_input(self, rng, index):
        k = self.ladder[index % len(self.ladder)]
        nfa, draws = inputs.random_prop_nfa(rng, k, self.states,
                                            self.out_degree, self.guard_depth,
                                            self.det_transitions)
        target = inputs.random_prop_pred(rng, self.wrapper_k, 3)
        return {"k": k, "draws": draws, "nfa": nfa, "wrapper_target": target,
                "check_seed": rng.getrandbits(32)}

    def run(self, inp):
        det = ops.determinize(inp["nfa"])
        done = sfa_mod.complete_sfa(det)
        min_neat = ops.minimize(done, "neat")
        min_norm = ops.minimize(done, "normalized")
        verdict = ops.includes(done, min_norm, "equiv")
        teacher = query_learn.adversarial_prop_teacher(self.adversary_k)
        adv_pred = query_learn.enumerating_predicate_learner(
            self.adversary_k, teacher)
        alg = prop_algebra(self.wrapper_k)
        oracle = query_learn.PredicateTeacher(alg, inp["wrapper_target"])
        learned = query_learn.algebra_learner_from_sfa_learner(
            query_learn.enumerating_predicate_learner, oracle, alg)
        return {"min_neat": min_neat, "min_norm": min_norm,
                "verdict": verdict, "adv_pred": adv_pred,
                "adv_queries": teacher.query_count,
                "adv_plus": list(teacher.s_plus),
                "adv_minus": list(teacher.s_minus),
                "learned": learned}

    def assess(self, inp, out):
        ref_nfa = RefMachine(inp["nfa"])
        ref_neat, ref_norm = RefMachine(out["min_neat"]), RefMachine(out["min_norm"])
        letters = prop_letters(inp["k"])
        goal = minimal_state_count([ref_nfa], letters, any)
        rng = inputs.job_rng("check", inp["check_seed"], 0)
        words = [tuple(rng.choice(letters) for _ in range(rng.randint(0, 6)))
                 for _ in range(RANDOM_WORDS)]
        adv = out["adv_pred"]
        bound = 2 ** self.adversary_k - 1
        checks = [
            ("completed-equiv-min", out["verdict"] is True, None),
            _deterministic("min-neat-deterministic", out["min_neat"], letters,
                           "prop-neat-overlap"),
            _deterministic("min-normalized-deterministic", out["min_norm"],
                           letters),
            ("min-neat-minimal", len(out["min_neat"].states) == goal, None),
            ("min-normalized-minimal", len(out["min_norm"].states) == goal,
             None),
            _agree("min-neat-language", ref_neat, ref_nfa, words),
            _agree("min-normalized-language", ref_norm, ref_nfa, words),
            ("adversary-lower-bound", out["adv_queries"] >= bound, None),
            ("adversary-answer-consistent",
             all(holds(adv, v) for v in out["adv_plus"])
             and not any(holds(adv, v) for v in out["adv_minus"]), None),
            ("wrapper-learns-target", all(
                holds(out["learned"], v) == holds(inp["wrapper_target"], v)
                for v in prop_letters(self.wrapper_k)), None),
        ]
        record = {"k": inp["k"], "draws": inp["draws"],
                  "out_states": (len(out["min_neat"].states)
                                 + len(out["min_norm"].states)),
                  "goal_states": 2 * goal,
                  "adv_queries": out["adv_queries"], "lower_bound": bound}
        return checks, record


WORKLOADS = {w.name: w for w in (LearnComplete(), LearnIncomplete(),
                                 OpsInterval(), OpsProp())}
