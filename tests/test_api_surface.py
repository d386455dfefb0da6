"""The parameters of the learner's entry points, pinned: a new option on
any of them is an edit here.  The sample's index is built inside each
entry point, so no function that symfa exports takes one."""

import inspect

import pytest

import symfa
from symfa.dfa_learn import SampleIndex

SIGNATURES = [
    (symfa.decontaminate, ["alg", "sample"]),
    (symfa.infer_sfa, ["alg", "sample"]),
    (symfa.merged_prefix_tree, ["alg", "sample"]),
    (symfa.symbolic_prefix_tree, ["alg", "sample"]),
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
