"""One sha256 over the printed outputs of every operation and learner on
seeded inputs.  A change that is meant to keep outputs byte-identical
keeps this digest; a change that moves it on purpose says which lines
changed and why, and pins the new value."""

import hashlib
import random

from symfa import (
    char_sfa, complement, complete_sfa, decontaminate, determinize,
    format_sample, format_sfa, includes, infer_sfa, make_feasible, minimize,
    product, to_neat, to_normalized,
)
from symfa.algebra import INTERVAL_INT, INTERVAL_NAT
from symfa.generate import random_pred, random_sfa
from symfa.sfa import Sfa

from conftest import minimal_target, random_noise_for_sfa, random_prop_nfa
from test_ops_concrete import nfa_union

DIGEST = "20d27585e72170fc23f62b0bc9cb5a42f5e01e355527d7ca208743539e859070"


def random_guard_nfa(rng, alg, n=3, out_degree=3):
    """n states, each with out_degree arbitrary guard trees (overlapping,
    gapped or unsatisfiable) to random states."""
    names = ["g%d" % i for i in range(n)]
    trans = [(q, random_pred(rng, alg, depth=3, max_endpoint=20),
              rng.choice(names)) for q in names for _ in range(out_degree)]
    return Sfa(alg, names, "g0", [q for q in names if rng.random() < 0.5],
               trans)


def unary_outputs(m):
    """The one-machine operations on m, whatever its shape."""
    out = [to_neat(m), to_normalized(m), make_feasible(m), complete_sfa(m)]
    det = determinize(m)
    done = complete_sfa(det)
    out += [det, done, complement(det), to_neat(done),
            minimize(done, "neat"), minimize(done, "normalized")]
    return out


def pair_outputs(a, b):
    """Products and inclusions of two deterministic machines; the
    inclusion verdicts and witnesses come out as text."""
    done_a, done_b = complete_sfa(a), complete_sfa(b)
    out = [product(a, b), product(done_a, done_b, "union")]
    verdicts = [includes(x, y, mode) for x, y in ((a, b), (b, a))
                for mode in ("subset", "equiv")]
    verdicts.append(includes(determinize(nfa_union(a, b)), out[1], "equiv"))
    return out, verdicts


def learn_outputs(rng, target):
    """char_sfa, then infer_sfa on the whole sample, on one with a fifth
    of its words dropped (which reaches the merger) and on one with noise
    words, and decontaminate of the noisy one."""
    alg = target.algebra
    sample = char_sfa(target)
    dropped = {w: b for w, b in sorted(sample.items())
               if rng.random() >= 0.2} or sample
    noisy = dict(sample)
    noisy.update(random_noise_for_sfa(rng, target, 8, max_letter=60))
    texts = [format_sample(sample), format_sample(dropped),
             format_sample(decontaminate(alg, noisy))]
    texts += [format_sfa(infer_sfa(alg, s)) for s in (sample, dropped, noisy)]
    return texts


def digest_texts():
    rng = random.Random(20261019)
    texts = []
    machines = []
    verdicts = []
    for i in range(6):
        alg = INTERVAL_NAT if i % 2 else INTERVAL_INT
        a = random_sfa(rng, max_states=4, max_endpoint=30, alg=alg)
        b = random_sfa(rng, max_states=4, max_endpoint=30, alg=alg)
        machines += unary_outputs(nfa_union(a, b))
        machines += unary_outputs(random_guard_nfa(rng, INTERVAL_NAT))
        outs, said = pair_outputs(a, b)
        machines += outs
        verdicts += said
    for k in (2, 3, 4, 5):
        nfa1, nfa2 = random_prop_nfa(rng, k), random_prop_nfa(rng, k)
        machines += unary_outputs(nfa1)
        machines.append(product(nfa1, nfa2))
        done1 = complete_sfa(determinize(nfa1))
        done2 = complete_sfa(determinize(nfa2))
        outs, said = pair_outputs(done1, done2)
        machines += outs
        verdicts += said
        verdicts.append(includes(done1, minimize(done1), "equiv"))
    for n in (2, 3, 4, 5, 6):
        target = minimal_target(n, n)
        machines.append(target)
        texts += learn_outputs(rng, target)
    for _ in range(3):
        texts += learn_outputs(rng, random_sfa(rng, max_states=5,
                                               max_endpoint=40))
    texts += map(format_sfa, machines)
    texts += map(repr, verdicts)
    return texts


def test_outputs_match_the_pinned_digest():
    text = "\n".join(digest_texts())
    assert hashlib.sha256(text.encode()).hexdigest() == DIGEST
