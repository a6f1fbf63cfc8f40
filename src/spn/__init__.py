"""Sum-product networks as exact monotone arithmetic circuits.

Core IR plus structural validity analysis, tractable marginal inference,
state-machine compilers, communication-matrix rank bounds, the balanced
product-term decomposition, and exact spanning-tree counting.

The names below load their submodule on first use (PEP 562), so
`import spn` alone imports nothing else and each command pays only for
the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "circuit": (
        "Circuit",
        "CircuitBuilder",
        "CircuitMetrics",
        "ConstantNode",
        "LeafFunction",
        "LeafNode",
        "ProductNode",
        "SumNode",
        "VariableSpec",
        "deserialize",
        "serialize",
    ),
    "inference": (
        "DistributionHandle",
        "MarginalQuery",
        "marginalize",
        "normalize_weights",
        "partition_function",
        "sample",
    ),
    "polynomial": (
        "SparsePolynomial",
        "expand",
        "is_multilinear",
        "is_set_multilinear",
        "multilinear_identity_test",
    ),
    "structure": (
        "StructureReport",
        "analyze",
        "brute_force_validity",
        "check_complete",
        "check_decomposable",
        "check_strong_validity",
        "cnf_to_extended_spn",
        "complete_transform",
        "prune_degenerate",
        "validity_witness",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
