"""Structural predicates and validity analysis.

Decomposability and completeness are exact scope checks; together with
non-degeneracy pruning they decide strong validity.  A bounded
brute-force oracle checks the marginal-substitution identity literally,
and a CNF reduction produces extended circuits whose validity encodes
unsatisfiability.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product as iter_product

from .circuit import (
    Circuit,
    CircuitBuilder,
    ConstantNode,
    LeafNode,
    ProductNode,
    SumNode,
    node_children,
)
from .errors import (
    DegenerateCircuitError,
    ExtendedCircuitError,
    InstanceTooLargeError,
    SerializationError,
    SpnError,
    TrivialVariableError,
    ZeroCircuitError,
)
from .polynomial import expand, is_set_multilinear


@dataclass(frozen=True)
class StructureReport:
    decomposable: bool
    decomposability_violations: tuple[int, ...]
    complete: bool
    completeness_violations: tuple[int, ...]
    non_degenerate: bool
    degeneracy_offenders: tuple[int, ...]
    all_variables_nontrivial: bool
    strongly_valid: bool


def _require_monotone(circuit: Circuit):
    if circuit.extended:
        raise ExtendedCircuitError("operation requires a monotone (non-extended) circuit")


def check_decomposable(circuit: Circuit) -> tuple[bool, tuple[int, ...]]:
    """Every product node's children must have pairwise disjoint dependency-scopes."""
    _require_monotone(circuit)
    scopes = circuit.scopes()
    violations = []
    for node in circuit.nodes:
        if isinstance(node, ProductNode):
            seen: set[int] = set()
            for c in node.children:
                dep = scopes[c]
                if seen & dep:
                    violations.append(node.id)
                    break
                seen |= dep
    return (not violations, tuple(violations))


def check_complete(circuit: Circuit) -> tuple[bool, tuple[int, ...]]:
    """Every sum node's children must share one dependency-scope."""
    _require_monotone(circuit)
    scopes = circuit.scopes()
    violations = []
    for node in circuit.nodes:
        if isinstance(node, SumNode):
            deps = {scopes[c] for c in node.children}
            if len(deps) > 1:
                violations.append(node.id)
    return (not violations, tuple(violations))


def is_dc(circuit: Circuit) -> bool:
    return check_decomposable(circuit)[0] and check_complete(circuit)[0]


def degeneracy_offenders(circuit: Circuit) -> tuple[int, ...]:
    """Node ids carrying a zero weight or computing a zero constant."""
    out = []
    for node in circuit.nodes:
        if isinstance(node, SumNode) and any(w == 0 for w in node.weights):
            out.append(node.id)
        elif isinstance(node, ConstantNode) and node.value == 0:
            out.append(node.id)
    return tuple(out)


def analyze(circuit: Circuit) -> StructureReport:
    dec, dec_v = check_decomposable(circuit)
    com, com_v = check_complete(circuit)
    offenders = degeneracy_offenders(circuit)
    return StructureReport(
        decomposable=dec,
        decomposability_violations=dec_v,
        complete=com,
        completeness_violations=com_v,
        non_degenerate=not offenders,
        degeneracy_offenders=offenders,
        all_variables_nontrivial=all(v.nontrivial for v in circuit.variables),
        strongly_valid=dec and com,
    )


def prune_degenerate(circuit: Circuit) -> Circuit:
    """Remove zero-weight edges, then dead nodes, preserving the output polynomial.

    Drops edges with weight 0 and excises zero constants (see `excise`).
    Raises ZeroCircuitError if the root itself is eliminated.
    """
    _require_monotone(circuit)
    zero_constants = [
        node.id for node in circuit.nodes if isinstance(node, ConstantNode) and node.value == 0
    ]
    return excise(circuit, zero_constants, drop_zero_weights=True)


def excise(circuit: Circuit, doomed, drop_zero_weights: bool = False) -> Circuit:
    """Replace the `doomed` nodes by zero and remove every node that dies with them.

    One pass in topological order kills each product with a dead child
    and drops each sum edge into a dead child; a sum left without edges
    dies too.  The survivors are the live nodes the root still reaches;
    they keep their order under new dense ids, and the output is
    unchanged at every assignment.  Raises ZeroCircuitError if the root
    itself is eliminated.
    """
    dead = [False] * len(circuit.nodes)
    for i in doomed:
        dead[i] = True
    sum_edges: dict[int, list[tuple[int, Fraction]]] = {}
    for node in circuit.nodes:
        if dead[node.id]:
            continue
        if isinstance(node, SumNode):
            edges = [
                (c, w)
                for c, w in zip(node.children, node.weights)
                if not dead[c] and (w != 0 or not drop_zero_weights)
            ]
            sum_edges[node.id] = edges
            dead[node.id] = not edges
        elif isinstance(node, ProductNode):
            dead[node.id] = any(dead[c] for c in node.children)
    if dead[circuit.root]:
        raise ZeroCircuitError("pruning removed the root: circuit computes the zero polynomial")

    def children_of(i: int):
        return [c for c, _ in sum_edges[i]] if i in sum_edges else node_children(circuit.nodes[i])

    reached = {circuit.root}
    stack = [circuit.root]
    while stack:
        for c in children_of(stack.pop()):
            if c not in reached:
                reached.add(c)
                stack.append(c)

    remap: dict[int, int] = {}
    builder_nodes = []
    for i in sorted(reached):
        remap[i] = len(builder_nodes)
        node = circuit.nodes[i]
        if isinstance(node, LeafNode):
            builder_nodes.append(LeafNode(remap[i], node.leaf_function))
        elif isinstance(node, ConstantNode):
            builder_nodes.append(ConstantNode(remap[i], node.value))
        elif isinstance(node, SumNode):
            builder_nodes.append(
                SumNode(
                    remap[i],
                    tuple(remap[c] for c, _ in sum_edges[i]),
                    tuple(w for _, w in sum_edges[i]),
                )
            )
        else:
            builder_nodes.append(ProductNode(remap[i], tuple(remap[c] for c in node.children)))
    return Circuit(
        circuit.variables,
        circuit.leaf_functions,
        builder_nodes,
        remap[circuit.root],
        circuit.extended,
    )


def complete_transform(circuit: Circuit) -> Circuit:
    """Interpose constant-one-function products so every sum node is complete.

    For each sum child whose dependency-scope misses variables of the sum's
    scope, the child is wrapped in a product with constant-1 leaf functions
    of the missing variables.  Evaluation at every assignment is unchanged,
    completeness holds afterwards, decomposability is preserved, and the
    size grows by at most (number of variables) + (total sum fan-in).
    """
    _require_monotone(circuit)
    scopes = circuit.scopes()
    b = CircuitBuilder(extended=circuit.extended)
    for v in circuit.variables:
        b.variable(v.domain)
    for f in circuit.leaf_functions:
        b.leaf_function(f.variable, f.table, f.name)

    one_fn: dict[int, int] = {}
    one_node: dict[int, int] = {}
    wrap_cache: dict[tuple[int, frozenset[int]], int] = {}
    remap: dict[int, int] = {}

    def const_one_node(var: int) -> int:
        if var not in one_node:
            if var not in one_fn:
                domain = circuit.variables[var].domain
                one_fn[var] = b.leaf_function(var, {x: 1 for x in domain}, name=f"one_x{var}")
            one_node[var] = b.leaf(one_fn[var])
        return one_node[var]

    def wrapped(child: int, missing: frozenset[int]) -> int:
        key = (child, missing)
        if key not in wrap_cache:
            extras = [const_one_node(v) for v in sorted(missing)]
            wrap_cache[key] = b.product([remap[child]] + extras)
        return wrap_cache[key]

    for node in circuit.nodes:
        if isinstance(node, LeafNode):
            remap[node.id] = b.leaf(node.leaf_function)
        elif isinstance(node, ConstantNode):
            remap[node.id] = b.constant(node.value)
        elif isinstance(node, ProductNode):
            remap[node.id] = b.product([remap[c] for c in node.children])
        else:
            own_dep = scopes[node.id]
            pairs = []
            for c, w in zip(node.children, node.weights):
                missing = own_dep - scopes[c]
                pairs.append((wrapped(c, missing) if missing else remap[c], w))
            remap[node.id] = b.sum(pairs)
    return b.build(remap[circuit.root])


def check_strong_validity(circuit: Circuit, audit: bool = False) -> bool:
    """Decide strong validity structurally: decomposable and complete.

    Requires a monotone, non-degenerate circuit whose variables all have
    at least two domain values (prune and trim first).  With audit=True the
    output polynomial is expanded and its set-multilinearity is asserted to
    agree (small circuits only).
    """
    _require_monotone(circuit)
    if not all(v.nontrivial for v in circuit.variables):
        raise TrivialVariableError("all variables must have at least two domain values")
    offenders = degeneracy_offenders(circuit)
    if offenders:
        raise DegenerateCircuitError(f"zero weights/constants at nodes {offenders}; prune first")
    result = is_dc(circuit)
    if audit:
        sml = is_set_multilinear(expand(circuit))
        if sml != result:
            raise SpnError(
                f"audit failure: D&C={result} but set-multilinear={sml}"
            )
    return result


# -- brute-force validity oracle --------------------------------------------


def _nonempty_subsets(domain):
    items = list(domain)
    return [
        combo
        for r in range(1, len(items) + 1)
        for combo in combinations(items, r)
    ]


def brute_force_validity(circuit: Circuit, max_vars: int = 4, max_domain: int = 3) -> bool:
    """Check the marginal-substitution identity exhaustively.

    Enumerates every subset I of the root's dependency-scope, every choice
    of non-empty value subsets S_i, and every assignment to the remaining
    variables, comparing the explicit sum of evaluations over the S grid
    against one substituted evaluation where each integrated leaf computes
    its partial table sum.  The circuit is evaluated once per grid point
    and the sums are read from that table.  Extended circuits are allowed.
    Variables the output does not depend on are excluded from I
    (integrating over them has no circuit-side counterpart).
    """
    dep = sorted(circuit.dependency_scope())
    sizes = [len(circuit.variables[v].domain) for v in dep]
    if len(dep) > max_vars or any(k > max_domain for k in sizes):
        raise InstanceTooLargeError(
            f"oracle bound exceeded: n <= {max_vars}, |domain| <= {max_domain}"
        )
    root = circuit.root
    # Selections index variables by id; grid points are position tuples in dep order.
    selection = [(0,)] * len(circuit.variables)
    grid = {}
    for point in iter_product(*(range(k) for k in sizes)):
        for v, p in zip(dep, point):
            selection[v] = (p,)
        grid[point] = circuit.evaluate_selection(selection)[root]

    subset_choices = [_nonempty_subsets(range(k)) for k in sizes]
    singletons = [[(p,) for p in range(k)] for k in sizes]
    for r in range(1, len(dep) + 1):
        for I in combinations(range(len(dep)), r):
            # per dep position: the integration sets if integrated, else the fixed values
            options = [subset_choices[j] if j in I else singletons[j] for j in range(len(dep))]
            for choice in iter_product(*options):
                lhs = 0
                for point in iter_product(*choice):
                    lhs += grid[point]
                for v, positions in zip(dep, choice):
                    selection[v] = positions
                if lhs != circuit.evaluate_selection(selection)[root]:
                    return False
    return True


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
            raise SerializationError(f"DIMACS line {lineno}: {tok!r} is not an integer") from None

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
                raise SerializationError(f"DIMACS line {lineno}: bad header {line!r}")
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
