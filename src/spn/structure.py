"""Structural predicates and validity analysis.

Decomposability and completeness are exact scope checks; together with
non-degeneracy pruning they decide strong validity.  A bounded
brute-force oracle checks the marginal-substitution identity literally,
and a CNF reduction produces extended circuits whose validity encodes
unsatisfiability.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache
from itertools import combinations, product as iter_product

from .circuit import (
    Circuit,
    CircuitBuilder,
    ConstantNode,
    LeafFunction,
    LeafNode,
    ProductNode,
    SumNode,
    variables_of,
)
from .errors import (
    DegenerateCircuitError,
    ExtendedCircuitError,
    InstanceTooLargeError,
    NotDecomposableCompleteError,
    SerializationError,
    SpnError,
    TrivialVariableError,
    ZeroCircuitError,
    echo,
)
from .records import Record


class StructureReport(Record, namedtuple("StructureReport", (
    "decomposable decomposability_violations complete completeness_violations"
    " non_degenerate degeneracy_offenders all_variables_nontrivial strongly_valid"
))):
    """Every structural verdict of a circuit, each violation list a tuple of node ids (see `analyze`)."""

    __slots__ = ()


def _require_monotone(circuit: Circuit, operation: str):
    if circuit.extended:
        raise ExtendedCircuitError(f"{operation} requires a monotone (non-extended) circuit")


def _report(circuit: Circuit, operation: str | None = None) -> StructureReport:
    """The circuit's stored report (see `analyze`), built on first use; with an `operation`, monotone circuits only."""
    if operation:
        _require_monotone(circuit, operation)
    if circuit._report is None:
        scopes, overlapping, mixed, offenders = circuit.scopes(), [], [], []
        for node in circuit.nodes:
            if isinstance(node, ProductNode):
                seen = 0
                for c in node.children:
                    if seen & scopes[c]:
                        overlapping.append(node.id)
                        break
                    seen |= scopes[c]
            elif isinstance(node, SumNode):
                if len({scopes[c] for c in node.children}) > 1:
                    mixed.append(node.id)
                if 0 in node.weights:
                    offenders.append(node.id)
            elif isinstance(node, ConstantNode) and node.value == 0:
                offenders.append(node.id)
        circuit._report = StructureReport(
            not overlapping, tuple(overlapping), not mixed, tuple(mixed), not offenders, tuple(offenders),
            all(len(v.domain) > 1 for v in circuit.variables), not overlapping and not mixed,
        )
    return circuit._report


def analyze(circuit: Circuit) -> StructureReport:
    """Decomposability, completeness, degeneracy and trivial variables of a
    monotone circuit, from one pass over its nodes that reads their scope
    masks (`Circuit.scopes`).  The pass runs on a circuit's first verdict and
    its report is stored on the circuit, which is immutable: `check_*`,
    `is_dc`, `degeneracy_offenders` and `require_dc` read the same report."""
    return _report(circuit, "analyze")


def check_decomposable(circuit: Circuit) -> tuple[bool, tuple[int, ...]]:
    """Every product node's children must have pairwise disjoint dependency-scopes (see `analyze`)."""
    report = _report(circuit, "check_decomposable")
    return report.decomposable, report.decomposability_violations


def check_complete(circuit: Circuit) -> tuple[bool, tuple[int, ...]]:
    """Every sum node's children must share one dependency-scope (see `analyze`)."""
    report = _report(circuit, "check_complete")
    return report.complete, report.completeness_violations


def is_dc(circuit: Circuit) -> bool:
    """Decomposable and complete: `analyze(circuit).strongly_valid`."""
    return _report(circuit, "is_dc").strongly_valid


def degeneracy_offenders(circuit: Circuit) -> tuple[int, ...]:
    """Node ids carrying a zero weight or computing a zero constant; extended circuits too."""
    return _report(circuit).degeneracy_offenders


def require_dc(circuit: Circuit, operation: str):
    """The gate of the operations that need D&C (marginals, partition function,
    normalization, sampling, `decompose`): NotDecomposableCompleteError naming
    `operation` for an extended circuit or one that is not D&C."""
    if circuit.extended or not _report(circuit).strongly_valid:
        got = " monotone circuit, not an extended one" if circuit.extended else " circuit"
        raise NotDecomposableCompleteError(f"{operation} requires a decomposable and complete{got}")


def rewrite(circuit: Circuit, replace, leaf_functions=None) -> Circuit:
    """Rebuild `circuit` in one topological pass under a per-node rule.

    `replace(node, new, emit)` gives each node's new id, `new` mapping old
    ids to new ones: the node itself is a copy with renamed children, None
    is zero, and `emit(kind, a)` adds a node over new ids (`a` is a leaf
    function, value, children or (child, weight) edges) and returns its
    id.  A product with a zero child is zero; a sum drops its edges into
    zero and is zero without edges.  Only what the new root reaches is
    built, in emission order under dense ids.  Variables and leaf-function
    ids (so output monomials) are kept; a rule may extend `leaf_functions`,
    which then replaces the list, and the result is checked as any
    `Circuit` is.  Raises ZeroCircuitError if the root dies.
    """
    new, spec = [None] * len(circuit.nodes), []

    def emit(kind, a, b=None):
        if kind is SumNode:
            edges = [(c, w) for c, w in a if c is not None]
            if not edges:
                return None
            a, b = zip(*edges)
        elif kind is ProductNode:
            a = tuple(a)
            if None in a:
                return None
        spec.append((kind, a, b))
        return len(spec) - 1

    for node in circuit.nodes:
        i = replace(node, new, emit)
        if i is node:
            if isinstance(node, SumNode):
                i = emit(SumNode, zip(map(new.__getitem__, node.children), node.weights))
            elif isinstance(node, ProductNode):
                i = emit(ProductNode, map(new.__getitem__, node.children))
            else:
                i = emit(type(node), node.leaf_function if isinstance(node, LeafNode) else node.value)
        new[node.id] = i
    root = new[circuit.root]
    if root is None:
        raise ZeroCircuitError("pruning removed the root: circuit computes the zero polynomial")
    reached = [False] * root + [True]
    for i in range(root, -1, -1):
        kind, a, _ = spec[i]
        if reached[i] and (kind is SumNode or kind is ProductNode):
            for c in a:
                reached[c] = True
    ids, nodes = [0] * (root + 1), []
    for i, (kind, a, b) in enumerate(spec[: root + 1]):
        if reached[i]:
            ids[i] = len(nodes)
            if kind is SumNode or kind is ProductNode:
                a = tuple(map(ids.__getitem__, a))
            nodes.append(SumNode(ids[i], a, b) if kind is SumNode else kind(ids[i], a))
    return Circuit(circuit.variables, leaf_functions or circuit.leaf_functions, nodes, ids[root], circuit.extended)


def prune_degenerate(circuit: Circuit) -> Circuit:
    """Remove zero-weight edges and zero constants, preserving the output polynomial.

    Every node that dies with them and every node the root no longer
    reaches is dropped; leaf-function ids are kept (see `rewrite`).
    Raises ZeroCircuitError if the root itself is eliminated.
    """
    _require_monotone(circuit, "prune_degenerate")

    def rule(node, new, emit):
        if isinstance(node, SumNode):
            return emit(SumNode, ((new[c], w) for c, w in zip(node.children, node.weights) if w != 0))
        return None if isinstance(node, ConstantNode) and node.value == 0 else node

    return rewrite(circuit, rule)


def excise(circuit: Circuit, doomed) -> Circuit:
    """Replace the `doomed` nodes by zero and remove every node that dies with them.

    The survivors the root still reaches keep their order under dense ids
    and leaf-function ids are kept (see `rewrite`); the output is unchanged
    at every assignment.  Raises ZeroCircuitError if the root is eliminated.
    """
    doomed = set(doomed)
    return rewrite(circuit, lambda node, new, emit: None if node.id in doomed else node)


def complete_transform(circuit: Circuit) -> Circuit:
    """Interpose constant-one-function products so every sum node is complete.

    For each sum child whose dependency-scope misses variables of the sum's
    scope, the child is wrapped in a product with constant-1 leaf functions
    of the missing variables.  Evaluation at every assignment is unchanged,
    completeness holds afterwards, decomposability is preserved, and the
    size grows by at most (number of variables) + (total sum fan-in).  The
    new leaf functions follow the old ones, whose ids are kept, and nodes
    the root does not reach are dropped (see `rewrite`).
    """
    _require_monotone(circuit, "complete_transform")
    scopes = circuit.scopes()
    fns = list(circuit.leaf_functions)
    one_node: dict[int, int] = {}
    wrap_cache: dict[tuple[int, int], int] = {}

    def rule(node, new, emit):
        if not isinstance(node, SumNode):
            return node
        edges = []
        for c, w in zip(node.children, node.weights):
            missing = scopes[node.id] & ~scopes[c]
            if missing and (c, missing) not in wrap_cache:
                for v in [v for v in variables_of(missing) if v not in one_node]:
                    fns.append(LeafFunction(len(fns), v, dict.fromkeys(circuit.variables[v].domain, 1), f"one_x{v}"))
                    one_node[v] = emit(LeafNode, len(fns) - 1)
                wrap_cache[c, missing] = emit(ProductNode, [new[c]] + [one_node[v] for v in variables_of(missing)])
            edges.append((wrap_cache[c, missing] if missing else new[c], w))
        return emit(SumNode, edges)

    return rewrite(circuit, rule, fns)


def check_strong_validity(circuit: Circuit, audit: bool = False) -> bool:
    """Decide strong validity structurally: decomposable and complete.

    Requires a monotone, non-degenerate circuit whose variables all have
    at least two domain values (prune and trim first).  With audit=True the
    output polynomial is expanded and its set-multilinearity is asserted to
    agree (small circuits only).
    """
    report = _report(circuit, "check_strong_validity")
    if not report.all_variables_nontrivial:
        raise TrivialVariableError("all variables must have at least two domain values")
    if report.degeneracy_offenders:
        raise DegenerateCircuitError(f"zero weights/constants at nodes {report.degeneracy_offenders}; prune first")
    result = report.strongly_valid
    if audit:
        from .polynomial import expand, is_set_multilinear

        sml = is_set_multilinear(expand(circuit))
        if sml != result:
            raise SpnError(
                f"audit failure: D&C={result} but set-multilinear={sml}"
            )
    return result


# -- brute-force validity oracle --------------------------------------------


ORACLE_MAX_VARS, ORACLE_MAX_DOMAIN = 4, 3


@lru_cache(maxsize=128)
def _lattice_plan(sizes: tuple[int, ...]):
    """The lattice of a `sizes` shape and its zeta-transform plan.

    Per variable, the lattice lists the non-empty position sets,
    singletons first.  The plan is the flat sequence of (cell, prefix,
    last) triples of Yates' method, one axis at a time: after an axis's
    pass, every cell that is a singleton on all later axes holds its
    exhaustive sum.  Along the axis, the row of a set is the row of its
    prefix (an earlier set, so already done) plus the row of its last
    position p's singleton, which is row p.  The oracle bound admits 121
    shapes, so every one stays cached.
    """
    lattice = tuple([s for r in range(1, k + 1) for s in combinations(range(k), r)] for k in sizes)
    cells = math.prod(map(len, lattice))
    plan, stride = [], cells
    for sets, k in zip(lattice, sizes):
        block, stride = stride, stride // len(sets)
        index = {s: t for t, s in enumerate(sets)}
        for base in range(0, cells, block):
            for t in range(k, len(sets)):
                dst, prefix, last = (base + r * stride for r in (t, index[sets[t][:-1]], sets[t][-1]))
                plan.extend((dst + j, prefix + j, last + j) for j in range(stride))
    return lattice, tuple(plan)


def validity_witness(circuit: Circuit):
    """The first selection that breaks the marginal-substitution identity, or None.

    A selection picks one non-empty set of domain positions per variable
    of the root's dependency-scope (position 0 for the others).  The
    identity says its substituted value, where each leaf sums its table
    over its variable's set, equals the sum of the circuit over the points
    the selection covers.  Every (I, S, fixed) check of the definition is
    one of these selections.  One `Circuit.tabulate` over the lattice of
    selections (per variable its non-empty position sets, singletons
    first) gives every substituted value; its all-singleton cells are the
    points, and subset sums along one axis at a time (Yates' method, the
    zeta transform: each set is its prefix plus one singleton, run from
    one cached plan per lattice shape) turn them into every exhaustive
    sum.  Returns (selection, substituted value, exhaustive sum) at the
    first unequal cell in row-major order, the selection as
    `Circuit.evaluate_selection` takes it; None if every cell agrees.
    Extended circuits are allowed.
    """
    dep = sorted(circuit.dependency_scope())
    sizes = tuple(len(circuit.variables[v].domain) for v in dep)
    if len(dep) > ORACLE_MAX_VARS or any(k > ORACLE_MAX_DOMAIN for k in sizes):
        raise InstanceTooLargeError(
            f"oracle bound exceeded: n <= {ORACLE_MAX_VARS}, |domain| <= {ORACLE_MAX_DOMAIN}"
        )
    lattice, plan = _lattice_plan(sizes)
    substituted = circuit.tabulate(dict(zip(dep, lattice)))
    exhaustive = list(substituted)
    for d, p, q in plan:
        exhaustive[d] = exhaustive[p] + exhaustive[q]
    if substituted == exhaustive:
        return None
    i = next(i for i, (a, b) in enumerate(zip(substituted, exhaustive)) if a != b)
    selection, rest = [(0,)] * len(circuit.variables), i
    for v, sets in zip(reversed(dep), reversed(lattice)):
        rest, t = divmod(rest, len(sets))
        selection[v] = sets[t]
    return selection, substituted[i], exhaustive[i]


def brute_force_validity(circuit: Circuit) -> bool:
    """Check the marginal-substitution identity exhaustively.

    True iff `validity_witness` finds no selection that breaks it: one
    tabulation over the lattice of selections of the dependency-scope
    (at most (2^3 - 1)^4 = 2,401 cells within the oracle bound) against
    the subset sums of its point cells.  Extended circuits are allowed.
    """
    return validity_witness(circuit) is None


# -- CNF reduction -----------------------------------------------------------


def cnf_to_extended_spn(clauses: list[list[int]], num_vars: int | None = None) -> Circuit:
    """Reduce a CNF to an extended circuit that is valid iff the CNF is unsatisfiable.

    Clauses are lists of non-zero DIMACS-style literals (variable indices
    start at 1; negative means negated).  Literals become identity/negation
    leaf functions, OR becomes a weight-1 sum, AND a product, and the result
    is multiplied by a guard that vanishes exactly on integrated inputs
    where both literal functions of some variable read as 1.  The output is
    positive at a Boolean assignment iff it satisfies the CNF.
    """
    if not clauses:
        raise SpnError("empty clause list")
    max_ref = max((abs(l) for cl in clauses for l in cl), default=0)
    n = max(max_ref, num_vars or 0)
    if n == 0:
        raise SpnError("CNF references no variables")
    if n > 20:
        raise InstanceTooLargeError("CNF reduction limited to 20 variables")

    b = CircuitBuilder(extended=True)
    pos_nodes, neg_nodes = [], []
    for i in range(n):
        b.variable([0, 1])
    for i in range(n):
        fpos = b.leaf_function(i, {0: 0, 1: 1}, name=f"x{i + 1}")
        fneg = b.leaf_function(i, {0: 1, 1: 0}, name=f"not_x{i + 1}")
        pos_nodes.append(b.leaf(fpos))
        neg_nodes.append(b.leaf(fneg))

    clause_nodes = []
    for cl in clauses:
        if not cl:
            clause_nodes.append(b.constant(0))
            continue
        pairs = []
        for lit in cl:
            if lit == 0 or abs(lit) > n:
                raise SpnError(f"bad literal {lit}")
            node = pos_nodes[lit - 1] if lit > 0 else neg_nodes[-lit - 1]
            pairs.append((node, 1))
        clause_nodes.append(b.sum(pairs))
    formula = clause_nodes[0] if len(clause_nodes) == 1 else b.product(clause_nodes)

    one = b.constant(1)
    guards = []
    for i in range(n):
        both = b.product([pos_nodes[i], neg_nodes[i]])
        guards.append(b.sum([(one, 1), (both, -1)]))
    root = b.product([formula] + guards)
    return b.build(root)


def parse_dimacs(text: str) -> tuple[list[list[int]], int]:
    """Parse DIMACS CNF; returns (clauses, num_vars).

    SerializationError names the line and token of a malformed header or
    literal.
    """

    def integer(tok, lineno):
        try:
            return int(tok)
        except ValueError:
            raise SerializationError(f"DIMACS line {lineno}: {echo(tok, repr)} is not an integer") from None

    clauses: list[list[int]] = []
    declared = 0
    current: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c") or line.startswith("%"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) < 4 or parts[1] != "cnf":
                raise SerializationError(f"DIMACS line {lineno}: bad header {echo(line, repr)}")
            declared = integer(parts[2], lineno)
            integer(parts[3], lineno)  # the clause count is checked, not used
            continue
        for tok in line.split():
            lit = integer(tok, lineno)
            if lit == 0:
                clauses.append(current)
                current = []
            else:
                current.append(lit)
    if current:
        clauses.append(current)
    return clauses, declared


def cnf_satisfiable(clauses: list[list[int]], num_vars: int) -> bool:
    """Decide satisfiability by exhaustive assignment (small instances only)."""
    if num_vars > 20:
        raise InstanceTooLargeError("exhaustive SAT limited to 20 variables")
    for bits in iter_product([False, True], repeat=num_vars):
        ok = True
        for cl in clauses:
            if not any((bits[l - 1] if l > 0 else not bits[-l - 1]) for l in cl):
                ok = False
                break
        if ok:
            return True
    return False
