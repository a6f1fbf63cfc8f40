"""Tractable inference on decomposable and complete circuits.

Marginals are computed by a single substituted evaluation (integrated
leaves contribute partial table sums), the partition function is the
full-scope marginal, weight normalization rescales the circuit into an
equivalent one whose sums and leaf tables are probability-normalized,
and sampling runs top-down on the normalized circuit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .circuit import (
    Circuit,
    ConstantNode,
    LeafFunction,
    LeafNode,
    ProductNode,
    SumNode,
    _array,
    _checked,
    _field,
    as_fraction,
)
from .errors import (
    DomainError,
    NotDecomposableCompleteError,
    NotNormalizedError,
    SpnError,
    UnknownVariableError,
    ZeroPartitionError,
)
from .rng import make_rng
from .structure import excise, is_dc


@dataclass(frozen=True)
class MarginalQuery:
    """Integration sets for some variables, fixed values for the rest."""

    integrate_over: dict[int, tuple[Fraction, ...]]
    fixed: dict[int, Fraction]

    @staticmethod
    def of(integrate_over: Mapping, fixed: Mapping) -> "MarginalQuery":
        """Query from variable ids (ints or decimal strings, as in a JSON query
        document) mapped to value arrays or values; SerializationError names
        the first malformed field."""

        def variable(key, where):
            return int(key) if isinstance(key, str) and key.isdecimal() else _checked(key, int, where)

        sets = _checked(integrate_over, dict, "integrate_over")
        fixed = _checked(fixed, dict, "fixed")
        return MarginalQuery(
            {variable(v, "integrate_over"): tuple(_array(sets, v, Fraction, "integrate_over")) for v in sets},
            {variable(v, "fixed"): _field(fixed, v, Fraction, "fixed") for v in fixed},
        )

    def selection(self, circuit: Circuit) -> list[tuple[int, ...]]:
        """Check the query against the circuit and map it to domain positions.

        Integrated variables select the positions of their set, fixed
        variables the position of their value (see Circuit.evaluate_selection).
        """
        dep = circuit.dependency_scope()
        keys_i = set(self.integrate_over)
        keys_f = set(self.fixed)
        if keys_i & keys_f:
            raise SpnError(f"query keys overlap: {sorted(keys_i & keys_f)}")
        if keys_i | keys_f != set(dep):
            raise SpnError(
                "query must partition the dependency-scope "
                f"{sorted(dep)}, got {sorted(keys_i | keys_f)}"
            )
        selection = [(0,)] * len(circuit.variables)
        for v, s in self.integrate_over.items():
            if not s:
                raise SpnError(f"empty integration set for variable {v}")
            try:
                selection[v] = tuple(circuit.position(v, x) for x in s)
            except DomainError:
                raise DomainError(f"integration set for variable {v} leaves the domain") from None
        for v, x in self.fixed.items():
            try:
                selection[v] = (circuit.position(v, x),)
            except DomainError:
                raise DomainError(f"fixed value {x} not in domain of variable {v}") from None
        return selection


def _require_dc(circuit: Circuit, force: bool):
    if not force and not is_dc(circuit):
        raise NotDecomposableCompleteError(
            "circuit is not decomposable and complete; pass force=True to evaluate anyway"
        )


def marginalize(circuit: Circuit, query: MarginalQuery, force: bool = False) -> Fraction:
    """Exact integral of the output over the query's integration sets.

    Single bottom-up pass: a leaf over an integrated variable contributes
    the sum of its table over that variable's set; a leaf over a fixed
    variable contributes its table value.
    """
    _require_dc(circuit, force)
    selection = query.selection(circuit)
    return as_fraction(circuit.evaluate_selection(selection)[circuit.root])


def full_integration_query(circuit: Circuit) -> MarginalQuery:
    return MarginalQuery(
        {v: circuit.variables[v].domain for v in sorted(circuit.dependency_scope())}, {}
    )


def partition_function(circuit: Circuit, force: bool = False) -> Fraction:
    """Integral over the whole joint domain of the dependency-scope."""
    z = marginalize(circuit, full_integration_query(circuit), force=force)
    if z == 0:
        raise ZeroPartitionError("partition function is zero")
    return z


def apply_integration(circuit: Circuit, integrate_over: Mapping) -> Circuit:
    """Replace each leaf table of an integrated variable by its constant partial sum.

    The result has identical structure; composing marginal queries through
    it equals one joint query.
    """
    sets = {int(v): tuple(as_fraction(x) for x in s) for v, s in integrate_over.items()}
    new_fns = []
    for f in circuit.leaf_functions:
        if f.variable in sets:
            total = sum(f.table[v] for v in sets[f.variable])
            new_fns.append(
                LeafFunction(f.id, f.variable, {k: total for k in f.table}, f.name)
            )
        else:
            new_fns.append(f)
    return Circuit(circuit.variables, new_fns, circuit.nodes, circuit.root, circuit.extended)


# -- weight normalization ----------------------------------------------------


def normalize_weights(circuit: Circuit) -> Circuit:
    """Equivalent circuit with sum weights and leaf tables summing to one.

    One bottom-up pass with every variable integrated over its whole
    domain gives each node's partition value Z.  Nodes with Z = 0 compute
    zero everywhere and are excised.  Then each sum edge weight w becomes
    w * Z(child) / Z(sum), each leaf table is divided by its sum and each
    constant becomes one, so every node computes its old value over its Z
    (local normalization, Peharz et al., AISTATS 2015).  Requires a
    decomposable and complete monotone circuit; ZeroPartitionError means
    Z(root) = 0.
    """
    if circuit.extended:
        raise NotDecomposableCompleteError("cannot normalize an extended circuit")
    if not is_dc(circuit):
        raise NotDecomposableCompleteError("weight normalization requires a D&C circuit")
    full = [tuple(range(len(v.domain))) for v in circuit.variables]
    z = circuit.evaluate_selection(full)
    if z[circuit.root] == 0:
        raise ZeroPartitionError("partition function is zero")
    if 0 in z:
        circuit = excise(circuit, [i for i, zi in enumerate(z) if zi == 0])
        z = circuit.evaluate_selection(full)

    new_fns = []
    for f in circuit.leaf_functions:
        total = sum(f.table.values())
        table = {k: v / total for k, v in f.table.items()} if total else f.table
        new_fns.append(LeafFunction(f.id, f.variable, table, f.name))
    new_nodes = []
    for node in circuit.nodes:
        if isinstance(node, SumNode):
            weights = tuple(w * z[c] / z[node.id] for c, w in zip(node.children, node.weights))
            new_nodes.append(SumNode(node.id, node.children, weights))
        elif isinstance(node, ConstantNode):
            new_nodes.append(ConstantNode(node.id, Fraction(1)))
        else:
            new_nodes.append(node)
    return Circuit(circuit.variables, new_fns, new_nodes, circuit.root, circuit.extended)


def is_weight_normalized(circuit: Circuit) -> bool:
    """Sum weights total one, reachable leaf tables sum to one, constants are one."""
    reachable = circuit.reachable()
    used_fns = {
        circuit.nodes[i].leaf_function
        for i in reachable
        if isinstance(circuit.nodes[i], LeafNode)
    }
    for fid in used_fns:
        if sum(circuit.leaf_functions[fid].table.values()) != 1:
            return False
    for i in reachable:
        node = circuit.nodes[i]
        if isinstance(node, SumNode) and sum(node.weights) != 1:
            return False
        if isinstance(node, ConstantNode) and node.value != 1:
            return False
    return True


# -- distributions and sampling ----------------------------------------------


@dataclass
class DistributionHandle:
    """A D&C circuit with its cached partition function."""

    circuit: Circuit
    partition: Fraction = field(default=None)

    def __post_init__(self):
        if self.partition is None:
            self.partition = partition_function(self.circuit)

    def density(self, assignment) -> Fraction:
        return as_fraction(self.circuit.evaluate(assignment)) / self.partition


def sample(handle: DistributionHandle, rng_or_seed) -> dict[int, Fraction]:
    """Draw one assignment top-down from a weight-normalized D&C circuit.

    Sum nodes choose one child with probability equal to the edge weight,
    product nodes recurse into all children, and leaves draw their variable
    from the table as a categorical distribution.  Each variable in the
    dependency-scope is assigned exactly once.
    """
    circuit = handle.circuit
    if not is_weight_normalized(circuit):
        raise NotNormalizedError("sampling requires a weight-normalized circuit")
    rng = rng_or_seed if hasattr(rng_or_seed, "random") else make_rng(rng_or_seed)
    assignment: dict[int, Fraction] = {}
    stack = [circuit.root]
    while stack:
        node = circuit.nodes[stack.pop()]
        if isinstance(node, LeafNode):
            f = circuit.leaf_functions[node.leaf_function]
            var = f.variable
            if var in assignment:
                raise SpnError(f"variable {var} assigned twice; circuit is not D&C")
            assignment[var] = _categorical(
                rng, circuit.variables[var].domain, f.table
            )
        elif isinstance(node, SumNode):
            stack.append(node.children[_pick_index(rng, node.weights)])
        elif isinstance(node, ProductNode):
            stack.extend(node.children)
    missing = circuit.dependency_scope() - set(assignment)
    if missing:
        raise SpnError(f"sampling left variables unassigned: {sorted(missing)}")
    return assignment


def _pick_index(rng, weights) -> int:
    u = rng.random()
    acc = Fraction(0)
    for i, w in enumerate(weights):
        acc += w
        if u < acc:
            return i
    return len(weights) - 1


def _categorical(rng, domain, table):
    u = rng.random()
    acc = Fraction(0)
    for v in domain:
        acc += table[v]
        if u < acc:
            return v
    return domain[-1]
