"""Rashomon set enumeration for sparse decision trees.

Enumerates, in non-decreasing objective order, every decision tree whose
regularized objective is within a (1 + epsilon) factor of the optimum,
grouping value-tied solutions into a shared DAG so astronomically large
sets stay countable and lazily materializable.
"""
from .analysis import (LofoResult, MultiplierResult, RashomonCurve,
                       find_min_multiplier, find_min_multipliers,
                       lofo_importance)
from .dataset import (BinaryDataset, DataError, DataView, binarize_numeric,
                      fingerprint, load_dataset, parse_dataset,
                      serialize_dataset, split)
from .engine import (DEFAULT_EPSILON, EmittedGroup, Engine,
                     RashomonEnumeration, enumerate_rashomon)
from .groups import (BranchEntry, LeafEntry, Pair, SolutionGroup, TreeEntry,
                     count_trees, materialize)
from .objective import (DEFAULT_TOLERANCE, LeafSolution, ObjectiveConfig,
                        combine, leaf_cost, rashomon_bound, total_cost,
                        value_le, values_equal)
from .optdp import OptimalSolver, OptResult
from .posteval import (ConstrainedSearchResult, ParetoFront, ParetoPoint,
                       SecondaryObjectiveSpec, UndefinedMetricError,
                       batched_constrained_search, eq_opportunity_spec,
                       evaluate_secondary, pareto_front)
from .synth import generate_dataset
from .trees import (evaluate_cost, features_used, from_dict, num_leaves,
                    parse_tree, predict, serialize_tree, to_dict)
from .trees import depth as tree_depth
from .trees import is_leaf, leaf
from .trees import split as make_split

__version__ = "0.1.0"

__all__ = [
    "BinaryDataset", "BranchEntry", "ConstrainedSearchResult",
    "DEFAULT_EPSILON", "DEFAULT_TOLERANCE", "DataError", "DataView",
    "EmittedGroup", "Engine", "LeafEntry", "LeafSolution", "LofoResult",
    "MultiplierResult", "ObjectiveConfig", "OptResult", "OptimalSolver",
    "Pair", "ParetoFront", "ParetoPoint", "RashomonCurve",
    "RashomonEnumeration", "SecondaryObjectiveSpec", "SolutionGroup",
    "TreeEntry", "UndefinedMetricError", "batched_constrained_search",
    "binarize_numeric", "combine", "count_trees", "enumerate_rashomon",
    "eq_opportunity_spec", "evaluate_cost", "evaluate_secondary",
    "features_used", "find_min_multiplier", "find_min_multipliers",
    "fingerprint", "from_dict",
    "generate_dataset", "is_leaf", "leaf", "leaf_cost", "load_dataset",
    "lofo_importance", "make_split", "materialize", "num_leaves",
    "parse_dataset", "parse_tree", "pareto_front", "predict",
    "rashomon_bound", "serialize_dataset", "serialize_tree", "split",
    "to_dict", "total_cost", "tree_depth", "value_le", "values_equal",
]
