"""The names that symfa exports and the parameters of the learner's entry
points, pinned: a new export, or a new option on any entry point, is an
edit here.  The sample's index is built inside each entry point, so no
function that symfa exports takes one."""

import inspect
import types

import pytest

import symfa
from symfa.dfa_learn import SampleIndex

EXPORTS = [
    "Algebra", "And", "BOT", "Bot", "Dfa", "INF", "INTERVAL_INT",
    "INTERVAL_NAT", "Interval", "Lit", "NEG_INF", "Not", "Or", "Oracle",
    "SUP", "Sfa", "SizeMetrics", "TOP", "Top", "accepts",
    "adversarial_prop_teacher", "agrees", "algebra_learner_from_sfa_learner",
    "and_all", "basic_sfa", "char_dfa", "char_sfa", "classify", "complement",
    "complete_sfa", "concretize_alg", "concretize_sfa", "contains",
    "decontaminate", "denote", "determinize", "dfa_equiv",
    "distinguishing_word", "enumerating_predicate_learner", "equiv",
    "format_pred", "format_sample", "format_sfa", "generalize_alg",
    "generalize_dfa", "includes", "infer_dfa", "infer_sfa",
    "interval_piece_pred", "intervals_to_pred", "is_empty", "is_sat",
    "lex_access_words", "make_feasible", "merged_prefix_tree", "min_model",
    "minimize", "minimize_dfa", "or_all", "parse_pred", "parse_sample",
    "parse_sfa", "pred_equiv", "pred_size", "prefix_tree_dfa", "product",
    "prop_algebra", "sample_dict", "sfa_teacher", "size_metrics",
    "to_canonical_intervals", "to_neat", "to_normalized",
]


def test_exported_names():
    # submodules are left out: which of them are attributes of the package
    # depends on what else has been imported
    assert sorted(name for name, obj in vars(symfa).items()
                  if not name.startswith("_")
                  and not isinstance(obj, types.ModuleType)) == EXPORTS


SIGNATURES = [
    (symfa.decontaminate, ["alg", "sample"]),
    (symfa.infer_sfa, ["alg", "sample"]),
    (symfa.merged_prefix_tree, ["alg", "sample"]),
    (symfa.infer_dfa, ["sample", "algebra", "alphabet"]),
    (symfa.prefix_tree_dfa, ["sample", "algebra", "alphabet"]),
    (SampleIndex.restrict, ["self", "letters"]),
]


@pytest.mark.parametrize("fn, params", SIGNATURES,
                         ids=[fn.__qualname__ for fn, _ in SIGNATURES])
def test_learner_parameters(fn, params):
    assert list(inspect.signature(fn).parameters) == params


def test_no_exported_function_takes_an_index():
    for name in dir(symfa):
        obj = getattr(symfa, name)
        if inspect.isfunction(obj):
            assert "index" not in inspect.signature(obj).parameters, name
