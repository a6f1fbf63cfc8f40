"""Tractable inference on decomposable and complete circuits.

Marginals are computed by a single substituted evaluation (integrated
leaves contribute partial table sums), the partition function is the
full-scope marginal, weight normalization rescales the circuit into an
equivalent one whose sums and leaf tables are probability-normalized,
and sampling runs top-down on the normalized circuit.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import namedtuple
from fractions import Fraction
from itertools import accumulate, count
from typing import Mapping

from .circuit import (
    Circuit,
    ConstantNode,
    LeafFunction,
    LeafNode,
    ProductNode,
    Rational,
    SumNode,
    _array,
    _checked,
    _field,
)
from .errors import (
    DomainError,
    NotDecomposableCompleteError,
    NotNormalizedError,
    SpnError,
    ZeroPartitionError,
    echo,
)
from .records import Record
from .structure import is_dc, rewrite


class MarginalQuery(Record, namedtuple("MarginalQuery", "integrate_over fixed")):
    """Integration sets for some variables, fixed values for the rest: dicts
    variable -> tuple of values and variable -> value, ints or Fractions."""

    __slots__ = ()

    @staticmethod
    def of(integrate_over: Mapping, fixed: Mapping) -> "MarginalQuery":
        """Query from variable ids (ints or decimal strings, as in a JSON query
        document) mapped to value arrays or values; SerializationError names
        the first malformed field."""

        def variable(key, where):
            if isinstance(key, str) and key.isdecimal():
                try:
                    return int(key)
                except ValueError:  # past the int/str digit limit: rejected below
                    pass
            return _checked(key, int, where)

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
        for v in self.fixed:
            if v in self.integrate_over:
                raise SpnError(f"query keys overlap: variable {echo(v)} is both integrated and fixed")
        for v in (*self.integrate_over, *self.fixed):
            if v not in dep:
                raise SpnError(f"query must partition the dependency-scope: variable {echo(v)} is not in it")
        missing = dep.difference(self.integrate_over, self.fixed)
        if missing:
            raise SpnError(f"query must partition the dependency-scope: it misses variable {min(missing)}")
        selection = [(0,)] * len(circuit.variables)
        for v, s in self.integrate_over.items():
            selection[v] = _set_positions(circuit, v, s)
        for v, x in self.fixed.items():
            selection[v] = (circuit.position(v, x),)
        return selection


def _set_positions(circuit: Circuit, v: int, values) -> tuple[int, ...]:
    """Domain positions of variable `v`'s integration set: non-empty, in the domain, no value twice."""
    if not values:
        raise SpnError(f"empty integration set for variable {v}")
    positions = tuple(circuit.position(v, x) for x in values)
    for i, x in enumerate(values):
        if positions[i] in positions[:i]:
            raise SpnError(f"integration set for variable {v} repeats value {echo(x)}")
    return positions


def _require_dc(circuit: Circuit, force: bool):
    if not force and not is_dc(circuit):
        raise NotDecomposableCompleteError(
            "circuit is not decomposable and complete; pass force=True to evaluate anyway"
        )


def marginalize(circuit: Circuit, query: MarginalQuery, force: bool = False) -> Rational:
    """Exact integral of the output over the query's integration sets.

    The root's value from one `Circuit.evaluate_selection` pass, where a leaf
    over an integrated variable contributes the sum of its table over that
    variable's set and a leaf over a fixed variable its table value.
    """
    _require_dc(circuit, force)
    return circuit.evaluate_selection(query.selection(circuit))[circuit.root]


def _partitions(circuit: Circuit) -> list:
    """Each node's Z from one pass integrating every variable over its domain; ZeroPartitionError if Z(root) = 0."""
    z = circuit.evaluate_selection([tuple(range(len(v.domain))) for v in circuit.variables])
    if z[circuit.root] == 0:
        raise ZeroPartitionError("partition function is zero")
    return z


def partition_function(circuit: Circuit, force: bool = False) -> Rational:
    """Integral over the whole joint domain, as `Circuit.evaluate_selection` gives the root's value."""
    _require_dc(circuit, force)
    return _partitions(circuit)[circuit.root]


def apply_integration(circuit: Circuit, integrate_over: Mapping) -> Circuit:
    """Replace each leaf table of an integrated variable by its constant partial sum.

    The result has identical structure; composing marginal queries through
    it equals one joint query.  Integration sets are checked as in marginal
    queries, and SerializationError names a non-int key or a malformed set.
    """
    sets = {
        _checked(v, int, "integrate_over"): tuple(_array(integrate_over, v, Fraction, "integrate_over"))
        for v in integrate_over
    }
    for v, s in sets.items():
        _set_positions(circuit, v, s)
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
    zero everywhere and are excised, and so are nodes the root no longer
    reaches; leaf-function ids are kept.  Then each sum edge weight w
    becomes w * Z(child) / Z(sum), each leaf table is divided by its sum
    and each constant becomes one, so every node computes its old value
    over its Z (local normalization, Peharz et al., AISTATS 2015).
    Requires a decomposable and complete monotone circuit;
    ZeroPartitionError means Z(root) = 0.
    """
    if circuit.extended:
        raise NotDecomposableCompleteError("cannot normalize an extended circuit")
    if not is_dc(circuit):
        raise NotDecomposableCompleteError("weight normalization requires a D&C circuit")
    z = _partitions(circuit)

    def rule(node, new, emit):
        # excising the Z = 0 nodes leaves every other node's Z unchanged
        if z[node.id] == 0:
            return None
        if isinstance(node, SumNode):
            edges = zip(node.children, node.weights)
            return emit(SumNode, ((new[c], Fraction(w * z[c], z[node.id])) for c, w in edges))
        return emit(ConstantNode, 1) if isinstance(node, ConstantNode) else node

    new_fns = []
    for f in circuit.leaf_functions:
        total = sum(f.table.values())
        if total != 0 and total != 1:
            f = LeafFunction(f.id, f.variable, {k: Fraction(v, total) for k, v in f.table.items()}, f.name)
        new_fns.append(f)
    return rewrite(circuit, rule, new_fns)


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


def _thresholds(masses) -> list[float]:
    """Per running sum acc_i of `masses`, the least double t_i >= max(acc_0..acc_i).

    No double lies in [acc, t), so for every double u, u < acc exactly when
    u < t.  The maximum matters only for negative masses (extended
    circuits) and keeps the list sorted: the first i with u < acc_i is the
    first with u < max(acc_0..acc_i).  So bisect_right(thresholds, u) is
    the index an exact Fraction scan of the running sums returns, zero
    masses skipped the same way, and len(masses) when u is above them all.
    """
    out = []
    for acc in accumulate(masses):
        t = float(acc)
        out.append(math.nextafter(t, math.inf) if t < acc else t)
    return list(accumulate(out, max))


class DistributionHandle:
    """A D&C circuit with its cached partition function and sampling plan.

    A given `partition` is kept as given: it must be an int or a Fraction
    (DomainError otherwise) and not zero (ZeroPartitionError)."""

    __slots__ = ("circuit", "partition", "_plan")

    def __init__(self, circuit: Circuit, partition: Rational | None = None):
        self.circuit = circuit
        if partition is None:
            partition = partition_function(circuit)
        elif partition.__class__ not in (int, Fraction):
            raise DomainError(f"partition must be an int or a Fraction, got {echo(partition, repr)}")
        elif partition == 0:
            raise ZeroPartitionError("partition function is zero")
        self.partition = partition
        self._plan = None

    def density(self, assignment) -> Fraction:
        return Fraction(self.circuit.evaluate(assignment), self.partition)

    def sampling_plan(self) -> tuple[list[tuple], frozenset[int], int, int]:
        """Per node (draws, variable, thresholds, choices), the
        dependency-scope, and the fewest and the most uniforms a sample can
        draw; built on first use, after checking once that the circuit is
        weight-normalized.

        A sum or leaf (`draws`) picks one of its `choices` (children, or
        the domain of a leaf's `variable`) by one uniform; a product or
        constant visits them all.  `thresholds` drop `_thresholds`' last
        one, which is at least 1 and so above every uniform.  The most
        draws are 1 at a leaf, 1 plus the children's most at a sum, their
        sum at a product and 0 at a constant; the fewest take the least
        child at a sum.
        """
        if self._plan is None:
            circuit = self.circuit
            if not is_weight_normalized(circuit):
                raise NotNormalizedError("sampling requires a weight-normalized circuit")
            steps, fewest, most = [], [], []
            for node in circuit.nodes:
                if isinstance(node, LeafNode):
                    f = circuit.leaf_functions[node.leaf_function]
                    domain = circuit.variables[f.variable].domain
                    steps.append((True, f.variable, _thresholds(f.table[x] for x in domain)[:-1], domain))
                    fewest.append(1)
                    most.append(1)
                elif isinstance(node, SumNode):
                    steps.append((True, None, _thresholds(node.weights)[:-1], node.children))
                    fewest.append(1 + min(fewest[c] for c in node.children))
                    most.append(1 + max(most[c] for c in node.children))
                elif isinstance(node, ProductNode):
                    steps.append((False, None, None, node.children))
                    fewest.append(sum(fewest[c] for c in node.children))
                    most.append(sum(most[c] for c in node.children))
                else:
                    steps.append((False, None, None, ()))
                    fewest.append(0)
                    most.append(0)
            root = circuit.root
            self._plan = (steps, circuit.dependency_scope(), fewest[root], most[root])
        return self._plan


# the most uniforms a sample draws at once: a shared DAG that is not D&C can
# bound its draws near 2**64
_DRAWS = 1 << 10


def sample(handle: DistributionHandle, rng_or_seed) -> dict[int, Rational]:
    """Draw one assignment top-down from a weight-normalized D&C circuit.

    Sum nodes choose one child with probability equal to the edge weight,
    product nodes recurse into all children, and leaves draw their variable
    from the table as a categorical distribution.  Each variable in the
    dependency-scope is assigned exactly once.  Every choice compares one
    uniform double against the node's exact thresholds (see _thresholds).
    `rng_or_seed` is a `spn.philox.Philox` stream, a numpy Generator, or a
    seed, whose stream `spn.rng.seeded_stream` picks.

    The uniforms come in blocks from `spn.rng.block_uniforms`, which on
    exit, an error's included, rewinds the stream to the uniforms used: the
    values and the stream's next draw are those of one scalar
    `rng.random()` per sum or leaf visited.  The first block holds the
    plan's most draws, or twice its fewest where that is less, and each
    further one twice the one before, at most 1,024 each: a sample whose
    draws vary widely draws no more than about three times what it uses.
    """
    from .rng import block_uniforms, seeded_stream  # here, so the commands that never draw do not load spn.rng

    steps, scope, fewest, most = handle.sampling_plan()
    first = min(most, 2 * fewest, _DRAWS)
    assignment: dict[int, Rational] = {}
    stack = [handle.circuit.root]
    with block_uniforms(seeded_stream(rng_or_seed), (min(first << i, _DRAWS) for i in count())) as uniforms:
        while stack:
            draws, var, thresholds, choices = steps[stack.pop()]
            if not draws:
                stack.extend(choices)
            elif var is None:
                stack.append(choices[bisect_right(thresholds, next(uniforms))])
            elif var in assignment:
                raise SpnError(f"variable {var} assigned twice; circuit is not D&C")
            else:
                assignment[var] = choices[bisect_right(thresholds, next(uniforms))]
    missing = scope - assignment.keys()
    if missing:
        raise SpnError(f"sampling left variables unassigned: {sorted(missing)}")
    return assignment
