"""Spanning-tree density over the edges of a complete graph.

Edge variables of K_m are indexed lexicographically by vertex pair; the
unnormalized density is the spanning-tree indicator.  Marginal counts
of trees consistent with a partial edge assignment are exact via a
generalized-Laplacian cofactor on the contracted multigraph; uniform
tree sampling uses the re-sampling random walk; red/blue colorings give
dichromatic-triangle counts, the constraint dichotomy, and the
constraint-obedience fraction experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import InstanceTooLargeError, SpnError
from .linalg import det_bareiss
from .rng import make_rng

RED = "r"
BLUE = "b"


@dataclass(frozen=True)
class EdgeIndexing:
    """Canonical labeling of the C(m,2) edges of K_m, lexicographic by (u, v)."""

    m: int

    @property
    def n(self) -> int:
        return self.m * (self.m - 1) // 2

    def pairs(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.m) for v in range(u + 1, self.m)]

    def label_of(self, u: int, v: int) -> int:
        if u > v:
            u, v = v, u
        if not (0 <= u < v < self.m):
            raise SpnError(f"not an edge of K_{self.m}: ({u}, {v})")
        # label = edges before row u plus offset within row u
        return u * (2 * self.m - u - 1) // 2 + (v - u - 1)

    def pair_of(self, label: int) -> tuple[int, int]:
        if not (0 <= label < self.n):
            raise SpnError(f"edge label {label} out of range")
        u = 0
        offset = label
        row = self.m - 1
        while offset >= row:
            offset -= row
            row -= 1
            u += 1
        return (u, u + 1 + offset)


@dataclass(frozen=True)
class PartialAssignment:
    """Fixed 0/1 values for a subset of edge labels."""

    values: dict[int, int]

    @property
    def fixed_labels(self) -> frozenset[int]:
        return frozenset(self.values)

    def present(self) -> list[int]:
        return sorted(l for l, v in self.values.items() if v == 1)

    def absent(self) -> list[int]:
        return sorted(l for l, v in self.values.items() if v == 0)


@dataclass(frozen=True)
class EdgeLabeledGraph:
    """A subgraph of K_m as a set of edge labels."""

    m: int
    edges: frozenset[int]

    def pairs(self) -> list[tuple[int, int]]:
        idx = EdgeIndexing(self.m)
        return [idx.pair_of(l) for l in sorted(self.edges)]


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def density(m: int, x) -> int:
    """One iff the indicated subgraph is a spanning tree of K_m (unnormalized)."""
    idx = EdgeIndexing(m)
    if len(x) != idx.n:
        raise SpnError(f"expected {idx.n} edge indicators, got {len(x)}")
    if sum(1 for v in x if v) != m - 1:
        return 0
    uf = _UnionFind(m)
    for label, v in enumerate(x):
        if v:
            u, w = idx.pair_of(label)
            if not uf.union(u, w):
                return 0
    return 1


def count_consistent_trees(m: int, partial: PartialAssignment) -> int:
    """Number of spanning trees of K_m consistent with the partial assignment.

    Forced-present edges form a forest H (a cycle gives zero); contracting
    its components and keeping only free edges between distinct components
    yields a multigraph whose spanning trees biject with the consistent
    trees, counted by one cofactor of the generalized Laplacian.
    """
    if m < 2:
        raise SpnError("need at least two vertices")
    idx = EdgeIndexing(m)
    uf = _UnionFind(m)
    for label in partial.present():
        u, v = idx.pair_of(label)
        if not uf.union(u, v):
            return 0
    roots = sorted({uf.find(v) for v in range(m)})
    comp = {r: i for i, r in enumerate(roots)}
    k = len(roots)
    if k == 1:
        return 1
    lap = [[0] * k for _ in range(k)]
    fixed = partial.fixed_labels
    for label in range(idx.n):
        if label in fixed:
            continue
        u, v = idx.pair_of(label)
        cu, cv = comp[uf.find(u)], comp[uf.find(v)]
        if cu == cv:
            continue
        lap[cu][cu] += 1
        lap[cv][cv] += 1
        lap[cu][cv] -= 1
        lap[cv][cu] -= 1
    minor = [row[1:] for row in lap[1:]]
    return det_bareiss(minor)


def marginal(m: int, partial: PartialAssignment, normalized: bool = False):
    """Consistent-tree count, optionally divided by the Cayley total m^(m-2)."""
    count = count_consistent_trees(m, partial)
    if normalized:
        return Fraction(count, m ** (m - 2))
    return count


def sample_tree(m: int, rng_or_seed) -> EdgeLabeledGraph:
    """Uniform spanning tree of K_m by the re-sampling first-entry walk.

    Each step draws the next vertex uniformly from all m vertices (the
    current vertex may repeat); the edge to a first-visited vertex joins
    the tree; the walk stops once every vertex has been visited.
    """
    if m < 2:
        raise SpnError("need at least two vertices")
    rng = rng_or_seed if hasattr(rng_or_seed, "integers") else make_rng(rng_or_seed)
    idx = EdgeIndexing(m)
    current = int(rng.integers(m))
    visited = {current}
    edges = set()
    while len(visited) < m:
        nxt = int(rng.integers(m))
        if nxt not in visited:
            visited.add(nxt)
            edges.add(idx.label_of(current, nxt))
        current = nxt
    return EdgeLabeledGraph(m, frozenset(edges))


# -- colorings and triangles ---------------------------------------------------


def check_coloring(m: int, coloring) -> tuple[str, ...]:
    idx = EdgeIndexing(m)
    coloring = tuple(coloring)
    if len(coloring) != idx.n:
        raise SpnError(f"coloring must assign all {idx.n} edges")
    if any(c not in (RED, BLUE) for c in coloring):
        raise SpnError("coloring entries must be 'r' or 'b'")
    return coloring


def iter_triangles(m: int):
    """All vertex triples with their three edge labels."""
    idx = EdgeIndexing(m)
    for a, b, c in combinations(range(m), 3):
        yield (a, b, c), (idx.label_of(a, b), idx.label_of(a, c), idx.label_of(b, c))


def count_dichromatic_triangles(m: int, coloring) -> int:
    """Exact count of triangles whose three edges are not all one color."""
    coloring = check_coloring(m, coloring)
    count = 0
    for _, labels in iter_triangles(m):
        colors = {coloring[l] for l in labels}
        if len(colors) == 2:
            count += 1
    return count


def count_triangles(m: int, edges: frozenset[int]) -> int:
    """Triangles of an arbitrary subgraph given as edge labels."""
    idx = EdgeIndexing(m)
    pairs = {idx.pair_of(l) for l in edges}
    count = 0
    for _, labels in iter_triangles(m):
        if all(idx.pair_of(l) in pairs for l in labels):
            count += 1
    return count


def fisher_bound(e: int):
    """Upper bound (sqrt(8e+1) - 3) e / 6 on the triangle count of an e-edge graph.

    Exact Fraction when 8e+1 is a perfect square, otherwise the looser
    real form (sqrt(2)/3) e^(3/2).
    """
    if e < 0:
        raise SpnError("edge count must be non-negative")
    if e == 0:
        return Fraction(0)
    s = math.isqrt(8 * e + 1)
    if s * s == 8 * e + 1:
        return Fraction((s - 3) * e, 6)
    return math.sqrt(2) / 3 * e**1.5


def triangles_within_fisher(triangle_count: int, e: int) -> bool:
    """Exact integer check that triangle_count <= (sqrt(8e+1) - 3) e / 6."""
    if e == 0:
        return triangle_count == 0
    # t <= (sqrt(8e+1)-3)e/6  <=>  (6t + 3e)^2 <= (8e+1) e^2
    lhs = 6 * triangle_count + 3 * e
    return lhs * lhs <= (8 * e + 1) * e * e


# -- constraint dichotomy and the fraction experiment --------------------------


@dataclass(frozen=True)
class DichotomyResult:
    holds_pair_branch: bool  # zero whenever both same-colored edges are present
    holds_single_branch: bool  # zero whenever the odd-colored edge is present
    counterexample: tuple | None  # (x_with_pair, x_with_single) if neither holds


def dichotomy_check(m, g_table, h_table, coloring, triangle) -> DichotomyResult:
    """Verify the conservative-strategy dichotomy for one constraint triangle.

    `g_table` maps assignments over the red labels (sorted) to values,
    `h_table` the same over blue labels.  The triangle (a, b, c) must be
    dichromatic with a, b one color and c the other.  At least one branch
    must hold for tables arising from a valid decomposition of the
    spanning-tree density; otherwise a witness pair of assignments on
    which both products are positive is returned.
    """
    coloring = check_coloring(m, coloring)
    a, b, c = triangle
    if coloring[a] != coloring[b] or coloring[a] == coloring[c]:
        raise SpnError("constraint triangle must have a, b one color and c the other")
    red_labels = tuple(sorted(l for l, col in enumerate(coloring) if col == RED))
    blue_labels = tuple(sorted(l for l, col in enumerate(coloring) if col == BLUE))
    pos_red = {y for y, v in g_table.items() if v > 0}
    pos_blue = {z for z, v in h_table.items() if v > 0}

    def side_positive(labels, table_support, wanted: tuple[int, ...]):
        idx = [labels.index(l) for l in wanted]
        return [t for t in table_support if all(t[i] for i in idx)]

    if coloring[a] == RED:
        with_pair = side_positive(red_labels, pos_red, (a, b))
        with_single = side_positive(blue_labels, pos_blue, (c,))
        pair_branch = not with_pair or not pos_blue
        single_branch = not with_single or not pos_red
        if pair_branch or single_branch:
            return DichotomyResult(pair_branch, single_branch, None)
        x_pair = _combine(red_labels, with_pair[0], blue_labels, sorted(pos_blue)[0], len(coloring))
        x_single = _combine(red_labels, sorted(pos_red)[0], blue_labels, with_single[0], len(coloring))
    else:
        with_pair = side_positive(blue_labels, pos_blue, (a, b))
        with_single = side_positive(red_labels, pos_red, (c,))
        pair_branch = not with_pair or not pos_red
        single_branch = not with_single or not pos_blue
        if pair_branch or single_branch:
            return DichotomyResult(pair_branch, single_branch, None)
        x_pair = _combine(red_labels, sorted(pos_red)[0], blue_labels, with_pair[0], len(coloring))
        x_single = _combine(red_labels, with_single[0], blue_labels, sorted(pos_blue)[0], len(coloring))
    return DichotomyResult(False, False, (x_pair, x_single))


def _combine(red_labels, red_vals, blue_labels, blue_vals, n):
    x = [0] * n
    for l, v in zip(red_labels, red_vals):
        x[l] = int(v)
    for l, v in zip(blue_labels, blue_vals):
        x[l] = int(v)
    return tuple(x)


def derive_constraints(m: int, coloring, strategy: str = "pair") -> list[tuple]:
    """One constraint per dichromatic triangle under a branch-selection strategy.

    Constraints are ("not_both", a, b) with a, b the same-colored pair, or
    ("not_edge", c) with c the odd edge.  The true branch depends on the
    decomposition term under analysis; the default conservative strategy
    always takes the pair form.
    """
    coloring = check_coloring(m, coloring)
    if strategy not in ("pair", "single"):
        raise SpnError("strategy must be 'pair' or 'single'")
    out = []
    for _, (ab, ac, bc) in iter_triangles(m):
        colors = [coloring[ab], coloring[ac], coloring[bc]]
        if len(set(colors)) != 2:
            continue
        # identify the odd-colored edge
        labels = [ab, ac, bc]
        for i in range(3):
            if colors.count(colors[i]) == 1:
                odd = labels[i]
                pair = [l for l in labels if l != odd]
                break
        if strategy == "pair":
            out.append(("not_both", pair[0], pair[1]))
        else:
            out.append(("not_edge", odd))
    return out


def obeys_constraints(edges: frozenset[int], constraints) -> bool:
    for con in constraints:
        if con[0] == "not_both":
            if con[1] in edges and con[2] in edges:
                return False
        elif con[0] == "not_edge":
            if con[1] in edges:
                return False
        else:
            raise SpnError(f"unknown constraint form {con[0]!r}")
    return True


def constraint_fraction_experiment(
    m: int,
    samples: int,
    seed: int,
    coloring=None,
    constraints=None,
    strategy: str = "pair",
) -> dict:
    """Sample spanning trees and report the fraction obeying all constraints.

    Constraints default to one per dichromatic triangle of the coloring
    under the given strategy.  The report pairs the empirical fraction
    with the analytic bound (1 - C/m^3)^(C/(6 m^2)) for C constraints.
    """
    if m > 60:
        raise InstanceTooLargeError("experiment limited to m <= 60")
    if constraints is None:
        if coloring is None:
            raise SpnError("need a coloring or an explicit constraint list")
        constraints = derive_constraints(m, coloring, strategy)
    rng = make_rng(seed)
    obeyed = 0
    for _ in range(samples):
        tree = sample_tree(m, rng)
        if obeys_constraints(tree.edges, constraints):
            obeyed += 1
    c = len(constraints)
    bound = (1 - c / m**3) ** (c / (6 * m**2)) if c else 1.0
    return {
        "m": m,
        "samples": samples,
        "seed": seed,
        "constraint_count": c,
        "empirical_fraction": obeyed / samples if samples else 1.0,
        "analytic_bound": bound,
    }
