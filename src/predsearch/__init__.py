"""Distribution-aware predecessor search over bounded integer universes."""

from .core import (
    InvalidDistributionError,
    KeyRangeError,
    KeySet,
    OutputDistribution,
    ParameterError,
    PredecessorStructure,
    QueryStats,
    UniverseSpec,
    WeightedDistribution,
    entropy,
    oracle_predecessor,
    output_distribution,
    padded_log2,
)
from .hashfront import HashFront, ProbeBoundReport, ThresholdMode, expected_probe_bound
from .layered import (
    LayeredStructure,
    WorkingSetLayered,
    layer_capacities,
)
from .workload import (
    WorkloadSpec,
    generate_distribution,
    sample_keys,
    sample_queries,
)
from .xfast import XFastTrie
from .yfast import YFastTrie

__version__ = "0.1.0"

__all__ = [
    "HashFront",
    "InvalidDistributionError",
    "KeyRangeError",
    "KeySet",
    "LayeredStructure",
    "OutputDistribution",
    "ParameterError",
    "PredecessorStructure",
    "ProbeBoundReport",
    "QueryStats",
    "ThresholdMode",
    "UniverseSpec",
    "WeightedDistribution",
    "WorkingSetLayered",
    "WorkloadSpec",
    "XFastTrie",
    "YFastTrie",
    "entropy",
    "expected_probe_bound",
    "generate_distribution",
    "layer_capacities",
    "oracle_predecessor",
    "output_distribution",
    "padded_log2",
    "sample_keys",
    "sample_queries",
    "__version__",
]
