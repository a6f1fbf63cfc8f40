"""Shared test utilities: random circuit generators and independent oracles.

Oracles here deliberately do not reuse the library's computation paths:
marginals by exhaustive summation, metrics by explicit path search, rank
by a second elimination in a different order, spanning trees by direct
enumeration.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product as iter_product

from spn.circuit import (
    Circuit,
    CircuitBuilder,
    ConstantNode,
    LeafFunction,
    LeafNode,
    ProductNode,
    SumNode,
    node_children,
)
from spn.errors import SpnError
from spn.inference import apply_integration
from spn.polynomial import expand
from spn.structure import prune_degenerate


# -- random circuits -----------------------------------------------------------


def random_free_circuit(rng, max_vars=4, max_domain=3, max_size=15, pruned=True, zero_weights=False):
    """Random monotone circuit: random structure, optionally pruned.

    Dependency scopes, arity, and node kinds are unconstrained, so most
    outputs violate decomposability or completeness.  With zero_weights,
    some sum edges carry weight zero (degenerate circuits for prune tests).
    """
    n = int(rng.integers(2, max_vars + 1))
    b = CircuitBuilder()
    for _ in range(n):
        size = int(rng.integers(2, max_domain + 1))
        b.variable(range(size))
    fns = []
    for v in range(n):
        for _ in range(int(rng.integers(1, 3))):
            dom = b._variables[v].domain
            fns.append(b.leaf_function(v, {x: int(rng.integers(0, 5)) for x in dom}))
    nodes = [b.leaf(f) for f in fns]
    if rng.random() < 0.3:
        nodes.append(b.constant(int(rng.integers(1, 4))))

    def weight():
        if zero_weights and rng.random() < 0.15:
            return 0
        return int(rng.integers(1, 5))

    target = int(rng.integers(len(nodes) + 1, max_size + 1))
    while len(b._nodes) < target:
        arity = int(rng.integers(1, min(4, len(nodes) + 1)))
        picks = [nodes[int(rng.integers(len(nodes)))] for _ in range(arity)]
        if rng.random() < 0.5:
            nodes.append(b.sum([(p, weight()) for p in picks]))
        else:
            nodes.append(b.product(picks))
    circuit = b.build(nodes[-1])
    return prune_degenerate(circuit) if pruned else circuit


def random_dc_circuit(rng, n, domain_size=2, max_size=40, positive_tables=True):
    """Random decomposable-and-complete circuit whose output depends on all n
    variables, with node count at most max_size."""
    lo = 1 if positive_tables else 0
    for _ in range(100):
        b = CircuitBuilder()
        for _ in range(n):
            b.variable(range(domain_size))
        cache: dict[frozenset, list[int]] = {}

        def leaf_over(v: int) -> int:
            dom = b._variables[v].domain
            f = b.leaf_function(v, {x: int(rng.integers(lo, 5)) for x in dom})
            return b.leaf(f)

        def build(scope: frozenset) -> int:
            # occasional reuse introduces shared nodes (non-formula DAGs)
            if scope in cache and cache[scope] and rng.random() < 0.25:
                return cache[scope][int(rng.integers(len(cache[scope])))]
            budget = max_size - len(b._nodes)
            lean_cost = 2 * len(scope) - 1  # binary product tree of single leaves
            if len(scope) == 1:
                (v,) = scope
                if budget >= 4 and rng.random() < 0.35:
                    node = b.sum(
                        [(leaf_over(v), int(rng.integers(1, 4))) for _ in range(2)]
                    )
                else:
                    node = leaf_over(v)
            elif budget >= 2 * lean_cost + 4 and rng.random() < 0.4:
                node = b.sum(
                    [(build(scope), int(rng.integers(1, 4))) for _ in range(2)]
                )
            else:
                members = sorted(scope)
                k = 2 if len(members) == 2 or rng.random() < 0.7 else 3
                idx = sorted(int(i) + 1 for i in rng.choice(len(members) - 1, size=k - 1, replace=False))
                blocks = []
                prev = 0
                for cut in idx + [len(members)]:
                    blocks.append(frozenset(members[prev:cut]))
                    prev = cut
                node = b.product([build(block) for block in blocks])
            cache.setdefault(scope, []).append(node)
            return node

        circuit = b.build(build(frozenset(range(n))))
        if len(circuit.nodes) <= max_size:
            return circuit
    raise RuntimeError(f"could not generate a D&C circuit of size <= {max_size}")


def randomize_tables(circuit: Circuit, rng, lo=1, hi=5) -> Circuit:
    """Same structure, fresh random leaf tables with values in [lo, hi]."""
    fns = [
        LeafFunction(
            f.id,
            f.variable,
            {k: Fraction(int(rng.integers(lo, hi + 1))) for k in f.table},
            f.name,
        )
        for f in circuit.leaf_functions
    ]
    return Circuit(circuit.variables, fns, circuit.nodes, circuit.root, circuit.extended)


def random_3cnf(rng, n_vars, n_clauses):
    clauses = []
    for _ in range(n_clauses):
        size = int(rng.integers(1, 4))
        vs = rng.choice(n_vars, size=min(size, n_vars), replace=False)
        clauses.append([int(v) + 1 if rng.random() < 0.5 else -(int(v) + 1) for v in vs])
    return clauses


# -- independent oracles ---------------------------------------------------------


def exhaustive_marginal(circuit: Circuit, integrate_over: dict, fixed: dict):
    """Sum of evaluations over the integration grid: the definitional integral."""
    variables = sorted(integrate_over)
    total = 0
    for combo in iter_product(*(integrate_over[v] for v in variables)):
        point = dict(fixed)
        point.update(zip(variables, combo))
        total += circuit.evaluate(point)
    return total


def reference_validity(circuit: Circuit) -> bool:
    """The validity identity by its definition: for every non-empty subset I of
    the dependency-scope, every choice of non-empty value sets S_i (i in I) and
    every assignment to the other variables, the exhaustive sum over the S grid
    equals the circuit with each integrated leaf table replaced by its partial sum."""
    dep = sorted(circuit.dependency_scope())
    domains = {v: circuit.variables[v].domain for v in dep}
    subsets = {v: [s for r in range(1, len(d) + 1) for s in combinations(d, r)] for v, d in domains.items()}
    for r in range(1, len(dep) + 1):
        for integrated in combinations(dep, r):
            rest = [v for v in dep if v not in integrated]
            for chosen in iter_product(*(subsets[v] for v in integrated)):
                sets = dict(zip(integrated, chosen))
                substituted = apply_integration(circuit, sets)
                for values in iter_product(*(domains[v] for v in rest)):
                    fixed = dict(zip(rest, values))
                    point = {**fixed, **{v: domains[v][0] for v in integrated}}
                    if exhaustive_marginal(circuit, sets, fixed) != substituted.evaluate(point):
                        return False
    return True


def evaluate_via_expansion(circuit: Circuit, assignment: dict) -> Fraction:
    """Substitute leaf-table values into the expanded output polynomial."""
    circuit.select(assignment)  # the evaluator's UnknownVariableError / DomainError contract
    values = {
        f.id: f.table[Fraction(assignment[f.variable])]
        for f in circuit.leaf_functions
        if f.variable in assignment
    }
    return expand(circuit).evaluate(values)


def reference_expand(circuit: Circuit) -> dict:
    """Output polynomial's term map by plain Fraction arithmetic: every product
    of two monomials merges their exponents in a dict, and every coefficient
    that cancels to zero is dropped at once."""
    polys: dict[int, dict] = {}
    for node in circuit.nodes:
        if isinstance(node, LeafNode):
            polys[node.id] = {((node.leaf_function, 1),): Fraction(1)}
        elif isinstance(node, ConstantNode):
            polys[node.id] = {(): Fraction(node.value)} if node.value != 0 else {}
        else:
            if isinstance(node, SumNode):
                terms = [(m, Fraction(w) * c) for ch, w in zip(node.children, node.weights) for m, c in polys[ch].items()]
            else:
                terms = [((), Fraction(1))]
                for ch in node.children:
                    terms = [(m1 + m2, c1 * c2) for m1, c1 in terms for m2, c2 in polys[ch].items()]
            acc: dict = {}
            for m, c in terms:
                exps: dict[int, int] = {}
                for fid, e in m:
                    exps[fid] = exps.get(fid, 0) + e
                key = tuple(sorted(exps.items()))
                acc[key] = acc.get(key, Fraction(0)) + c
            polys[node.id] = {m: c for m, c in acc.items() if c != 0}
    return polys[circuit.root]


def leaf_function_scope(circuit: Circuit, node: int | None = None) -> frozenset[int]:
    """Leaf-function ids of the leaves reachable from `node` (default: the root)."""
    return frozenset(
        circuit.nodes[i].leaf_function for i in circuit.reachable(node) if isinstance(circuit.nodes[i], LeafNode)
    )


def path_search_metrics(circuit: Circuit):
    """Depth and product-depth by explicit enumeration of all directed paths."""
    best_depth = 0
    best_pdepth = 0

    def walk(node_id, length, pcount):
        nonlocal best_depth, best_pdepth
        node = circuit.nodes[node_id]
        length += 1
        pcount += 1 if isinstance(node, ProductNode) else 0
        best_depth = max(best_depth, length)
        best_pdepth = max(best_pdepth, pcount)
        for c in node_children(node):
            walk(c, length, pcount)

    for node in circuit.nodes:
        walk(node.id, 0, 0)
    return best_depth, best_pdepth


def rank_oracle(matrix) -> int:
    """Fraction-based elimination, right-to-left columns, first non-zero pivot."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    rows = [r for r in rows if any(r)]
    if not rows:
        return 0
    n_cols = len(rows[0])
    rank = 0
    for col in range(n_cols - 1, -1, -1):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        for r in range(rank + 1, len(rows)):
            if rows[r][col] != 0:
                f = rows[r][col] / prow[col]
                rows[r] = [a - f * p for a, p in zip(rows[r], prow)]
        rank += 1
        if rank == len(rows):
            break
    return rank


def reference_det(matrix) -> int:
    """General fraction-free (Bareiss) determinant with row swaps: the
    determinant before it specialised to symmetric matrices, kept as the
    oracle for det_symmetric.  Updates the full trailing block."""
    k = len(matrix)
    if k == 0:
        return 1
    m = [list(map(int, row)) for row in matrix]
    sign = 1
    prev = 1
    for p in range(k - 1):
        if m[p][p] == 0:
            for r in range(p + 1, k):
                if m[r][p] != 0:
                    m[p], m[r] = m[r], m[p]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[p][p]
        for r in range(p + 1, k):
            row_r = m[r]
            row_p = m[p]
            factor = row_r[p]
            for c in range(p + 1, k):
                row_r[c] = (pivot * row_r[c] - factor * row_p[c]) // prev
            row_r[p] = 0
        prev = pivot
    return sign * m[k - 1][k - 1]


def all_spanning_trees(m: int) -> list[frozenset[int]]:
    """Every spanning tree of the complete graph, as edge-label sets."""
    from spn.sptree import EdgeIndexing, density

    idx = EdgeIndexing(m)
    trees = []
    for combo in combinations(range(idx.n), m - 1):
        x = [0] * idx.n
        for l in combo:
            x[l] = 1
        if density(m, x):
            trees.append(frozenset(combo))
    return trees


def reference_walk(m: int, rng) -> frozenset[int]:
    """One re-sampling walk tree of K_m, one scalar `rng.integers(m)` call per step."""
    from spn.sptree import EdgeIndexing

    idx = EdgeIndexing(m)
    current = int(rng.integers(m))
    visited, edges = {current}, set()
    while len(visited) < m:
        nxt = int(rng.integers(m))
        if nxt not in visited:
            visited.add(nxt)
            edges.add(idx.label_of(current, nxt))
        current = nxt
    return frozenset(edges)


def brute_count_consistent(m: int, values: dict[int, int]) -> int:
    count = 0
    for tree in all_spanning_trees(m):
        if all((label in tree) == bool(v) for label, v in values.items()):
            count += 1
    return count


def brute_triangle_count(m: int, edges: frozenset[int]) -> int:
    from spn.sptree import EdgeIndexing

    idx = EdgeIndexing(m)
    count = 0
    for a, b, c in combinations(range(m), 3):
        if (
            idx.label_of(a, b) in edges
            and idx.label_of(a, c) in edges
            and idx.label_of(b, c) in edges
        ):
            count += 1
    return count


# -- reference sampler -----------------------------------------------------------


def reference_sample(circuit: Circuit, rng) -> dict:
    """Top-down draw that compares each rng.random() with exact Fraction
    running sums: the sampler before it compiled float thresholds, kept as
    the oracle for seeded draws.  Same traversal (stack order), so the same
    stream of rng.random() calls: one scalar call per sum or leaf visited.
    A leaf whose variable is assigned already raises before it draws, and
    a variable of the dependency-scope left unassigned raises at the end."""
    def pick(masses):
        u = rng.random()
        acc = Fraction(0)
        for i, w in enumerate(masses):
            acc += w
            if u < acc:
                return i
        return len(masses) - 1

    assignment = {}
    stack = [circuit.root]
    while stack:
        node = circuit.nodes[stack.pop()]
        if isinstance(node, LeafNode):
            f = circuit.leaf_functions[node.leaf_function]
            if f.variable in assignment:
                raise SpnError(f"variable {f.variable} assigned twice")
            domain = circuit.variables[f.variable].domain
            assignment[f.variable] = domain[pick([f.table[x] for x in domain])]
        elif isinstance(node, SumNode):
            stack.append(node.children[pick(node.weights)])
        elif isinstance(node, ProductNode):
            stack.extend(node.children)
    if circuit.dependency_scope() - assignment.keys():
        raise SpnError("variables left unassigned")
    return assignment


# -- fixture circuits ------------------------------------------------------------


def product_of_two_leaves():
    """f(x1) * g(x2) with tables {0:1,1:2} and {0:1,1:3}."""
    b = CircuitBuilder()
    x1 = b.variable([0, 1])
    x2 = b.variable([0, 1])
    f11 = b.leaf_function(x1, {0: 1, 1: 2}, name="f11")
    f21 = b.leaf_function(x2, {0: 1, 1: 3}, name="f21")
    return b.build(b.product([b.leaf(f11), b.leaf(f21)]))


def incomplete_valid_fixture(identity_second=False):
    """(f11(x1) f12(x1) + 1) f21(x2) with f11=x, f12=1-x (or x), f21=x.

    With the complementary pair this is valid despite being neither
    decomposable nor complete; with f12 the identity it is invalid.
    """
    b = CircuitBuilder()
    x1 = b.variable([0, 1])
    x2 = b.variable([0, 1])
    f11 = b.leaf_function(x1, {0: 0, 1: 1}, name="f11")
    second = {0: 0, 1: 1} if identity_second else {0: 1, 1: 0}
    f12 = b.leaf_function(x1, second, name="f12")
    f21 = b.leaf_function(x2, {0: 0, 1: 1}, name="f21")
    prod = b.product([b.leaf(f11), b.leaf(f12)])
    one = b.constant(1)
    s = b.sum([(prod, 1), (one, 1)])
    return b.build(b.product([s, b.leaf(f21)]))


def zero_weight_square_fixture():
    """0 * f11(x1)^2 + f11(x1) f21(x2), identity leaf functions."""
    b = CircuitBuilder()
    x1 = b.variable([0, 1])
    x2 = b.variable([0, 1])
    f11 = b.leaf_function(x1, {0: 0, 1: 1}, name="f11")
    f21 = b.leaf_function(x2, {0: 0, 1: 1}, name="f21")
    l11 = b.leaf(f11)
    square = b.product([l11, l11])
    good = b.product([l11, b.leaf(f21)])
    return b.build(b.sum([(square, 0), (good, 1)]))


def tree_mixture_circuit(m: int):
    """D&C circuit computing the spanning-tree indicator of K_m directly.

    One product per spanning tree over identity/negation leaves of every
    edge variable, summed with weight one.
    """
    from spn.sptree import EdgeIndexing

    idx = EdgeIndexing(m)
    b = CircuitBuilder()
    for _ in range(idx.n):
        b.variable([0, 1])
    ident = [b.leaf_function(v, {0: 0, 1: 1}) for v in range(idx.n)]
    neg = [b.leaf_function(v, {0: 1, 1: 0}) for v in range(idx.n)]
    products = []
    for tree in all_spanning_trees(m):
        kids = [
            b.leaf(ident[v] if v in tree else neg[v]) for v in range(idx.n)
        ]
        products.append(b.product(kids))
    return b.build(b.sum([(p, 1) for p in products]))
