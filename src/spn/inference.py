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
from .structure import is_dc


@dataclass(frozen=True)
class MarginalQuery:
    """Integration sets for some variables, fixed values for the rest."""

    integrate_over: dict[int, tuple[Fraction, ...]]
    fixed: dict[int, Fraction]

    @staticmethod
    def of(integrate_over: Mapping, fixed: Mapping) -> "MarginalQuery":
        return MarginalQuery(
            {int(v): tuple(as_fraction(x) for x in s) for v, s in integrate_over.items()},
            {int(v): as_fraction(x) for v, x in fixed.items()},
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

    Bottom-up: each leaf function is divided by its full-domain sum, each
    constant becomes one, and each sum node's incoming weights are divided
    by their total; every division is compensated by multiplying the
    affected ancestor sum-edge weights, so the normalized density is
    unchanged.  Requires a decomposable and complete monotone circuit.
    """
    if circuit.extended:
        raise NotDecomposableCompleteError("cannot normalize an extended circuit")
    if not is_dc(circuit):
        raise NotDecomposableCompleteError("weight normalization requires a D&C circuit")

    n = len(circuit.nodes)
    parents: dict[int, list[int]] = {i: [] for i in range(n)}
    for node in circuit.nodes:
        if isinstance(node, (SumNode, ProductNode)):
            for c in node.children:
                parents[c].append(node.id)

    weights: dict[int, list[Fraction]] = {
        node.id: list(node.weights) for node in circuit.nodes if isinstance(node, SumNode)
    }
    tables: dict[int, dict] = {}
    constants: dict[int, Fraction] = {}

    def propagate(nid: int, factor: Fraction):
        # Compensate a division at node `nid` on every consumption point.
        # Sum parents are handled once: the inner loop already scales every
        # edge into that parent.  Product parents propagate per edge
        # instance (a repeated child divides the product twice).
        if nid == circuit.root:
            return
        handled_sums = set()
        for p in parents[nid]:
            pnode = circuit.nodes[p]
            if isinstance(pnode, SumNode):
                if p in handled_sums:
                    continue
                handled_sums.add(p)
                ws = weights[p]
                for k, c in enumerate(pnode.children):
                    if c == nid:
                        ws[k] = ws[k] * factor
            else:
                propagate(p, factor)

    # Leaf functions are normalized once; the compensation factor is applied
    # at every node labeled by the function.
    fn_factor: dict[int, Fraction] = {}
    for f in circuit.leaf_functions:
        total = sum(f.table.values())
        if total == 0:
            raise ZeroPartitionError(f"leaf function {f.id} sums to zero")
        tables[f.id] = {k: v / total for k, v in f.table.items()}
        fn_factor[f.id] = Fraction(total)

    for node in circuit.nodes:
        if isinstance(node, LeafNode):
            factor = fn_factor[node.leaf_function]
            if factor != 1:
                propagate(node.id, factor)
        elif isinstance(node, ConstantNode):
            if node.value == 0:
                raise ZeroPartitionError(f"zero constant at node {node.id}")
            constants[node.id] = Fraction(1)
            if node.value != 1:
                propagate(node.id, Fraction(node.value))
        elif isinstance(node, SumNode):
            total = sum(weights[node.id])
            if total == 0:
                raise ZeroPartitionError(f"sum node {node.id} has zero total weight")
            weights[node.id] = [w / total for w in weights[node.id]]
            if total != 1:
                propagate(node.id, total)

    new_fns = [
        LeafFunction(f.id, f.variable, tables[f.id], f.name) for f in circuit.leaf_functions
    ]
    new_nodes = []
    for node in circuit.nodes:
        if isinstance(node, SumNode):
            new_nodes.append(SumNode(node.id, node.children, tuple(weights[node.id])))
        elif isinstance(node, ConstantNode):
            new_nodes.append(ConstantNode(node.id, constants[node.id]))
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
