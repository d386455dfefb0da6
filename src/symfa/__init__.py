"""Symbolic finite automata over effective Boolean algebras, with standard
operations and passive/query learning machinery."""

from .algebra import (
    Algebra, And, Bot, BOT, INF, Interval, Lit, NEG_INF, Not, Or, SUP, Top,
    TOP, INTERVAL_INT, INTERVAL_NAT, and_all, contains, denote, format_pred,
    interval_piece_pred, intervals_to_pred, is_sat, min_model, or_all,
    parse_pred, pred_equiv, pred_size, prop_algebra, to_canonical_intervals,
)
from .sfa import (
    Sfa, SizeMetrics, accepts, classify, complete_sfa, format_sample,
    format_sfa, make_feasible, parse_sample, parse_sfa, sample_dict,
    size_metrics, to_neat, to_normalized,
)
from .ops import (
    complement, determinize, equiv, includes, is_empty, minimize, product,
)
from .dfa_learn import (
    Dfa, char_dfa, dfa_equiv, distinguishing_word, infer_dfa,
    lex_access_words, minimize_dfa, prefix_tree_dfa,
)
from .sfa_learn import (
    agrees, char_sfa, concretize_alg, concretize_sfa, decontaminate,
    generalize_alg, generalize_dfa, infer_sfa, merged_prefix_tree,
)
from .query_learn import (
    Oracle, adversarial_prop_teacher, algebra_learner_from_sfa_learner,
    basic_sfa, enumerating_predicate_learner, sfa_teacher,
)

__version__ = "0.1.0"
