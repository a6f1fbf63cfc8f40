"""Sum-product networks as exact monotone arithmetic circuits.

Core IR plus structural validity analysis, tractable marginal inference,
state-machine compilers, communication-matrix rank bounds, the balanced
product-term decomposition, and exact spanning-tree counting.
"""

__version__ = "0.1.0"

from .circuit import (
    Circuit,
    CircuitBuilder,
    CircuitMetrics,
    ConstantNode,
    LeafFunction,
    LeafNode,
    ProductNode,
    SumNode,
    VariableSpec,
    deserialize,
    serialize,
)
from .inference import (
    DistributionHandle,
    MarginalQuery,
    marginalize,
    normalize_weights,
    partition_function,
    sample,
)
from .polynomial import (
    SparsePolynomial,
    expand,
    is_multilinear,
    is_set_multilinear,
    multilinear_identity_test,
)
from .structure import (
    StructureReport,
    analyze,
    brute_force_validity,
    check_complete,
    check_decomposable,
    check_strong_validity,
    cnf_to_extended_spn,
    complete_transform,
    prune_degenerate,
    validity_witness,
)
