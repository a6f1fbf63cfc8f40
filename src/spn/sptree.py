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
from bisect import bisect_right
from collections import Counter, namedtuple
from fractions import Fraction
from itertools import combinations, compress
from numbers import Integral

from .errors import InstanceTooLargeError, SpnError, echo
from .linalg import det_symmetric
from .records import Record
from .rng import block_integers, seeded_stream

RED = "r"
BLUE = "b"
MAX_VERTICES = 1 << 12  # most vertices a count or a walk takes; the Cayley count has 14,790 digits there
_DRAWS = 1 << 12  # most values a walk draws at once


class EdgeIndexing(Record, namedtuple("EdgeIndexing", "m")):
    """Canonical labeling of the C(m,2) edges of K_m, lexicographic by (u, v)."""

    __slots__ = ()

    def __new__(cls, m: int):
        if m < 0:  # the K_m entry points past counts and walks (those need m >= 2) pass here
            raise SpnError(f"K_m needs a non-negative vertex count, got {echo(m)}")
        return super().__new__(cls, m)

    @property
    def n(self) -> int:
        return self.m * (self.m - 1) // 2

    def pairs(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.m) for v in range(u + 1, self.m)]

    def label_of(self, u: int, v: int) -> int:
        if u > v:
            u, v = v, u
        if not (0 <= u < v < self.m):
            raise SpnError(f"not an edge of K_{self.m}: ({echo(u)}, {echo(v)})")
        return _row_offset(self.m, u) + v

    def pair_of(self, label: int) -> tuple[int, int]:
        m = self.m
        n = m * (m - 1) // 2
        if not (0 <= label < n):
            raise SpnError(f"edge label {echo(label)} out of range")
        # counted from the last edge, rows m-2, m-3, ... hold 1, 2, ... edges
        u = m - 2 - (math.isqrt(8 * (n - 1 - label) + 1) - 1) // 2
        return u, label - _row_offset(m, u)


def _row_offset(m: int, u: int) -> int:
    """The label of edge (u, v) of K_m, u < v, less v: the edges of rows 0..u-1, less u + 1."""
    return u * (2 * m - u - 3) // 2 - 1


def _row_offsets(m: int) -> list[int]:
    """row[u] + v is the label of edge (u, v) of K_m, u < v."""
    return [_row_offset(m, u) for u in range(m)]


class PartialAssignment(Record, namedtuple("PartialAssignment", "values")):
    """Fixed 0/1 values for a subset of edge labels (a dict label -> value)."""

    __slots__ = ()


class EdgeLabeledGraph(Record, namedtuple("EdgeLabeledGraph", "m edges")):
    """A subgraph of K_m as a frozenset of edge labels."""

    __slots__ = ()

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
    for label in compress(range(idx.n), x):
        if not uf.union(*idx.pair_of(label)):
            return 0
    return 1


def _check_vertices(m: int) -> None:
    """Reject an m below 2 or above `MAX_VERTICES`, before anything sized by m is built."""
    if m < 2:
        raise SpnError("need at least two vertices")
    if m > MAX_VERTICES:
        raise InstanceTooLargeError(f"K_{m} has more than MAX_VERTICES = {MAX_VERTICES} vertices")


def count_consistent_trees(m: int, partial: PartialAssignment) -> int:
    """Number of spanning trees of K_m consistent with the partial assignment.

    Forced-present edges form a forest (a cycle gives zero); contracting
    its components, of sizes s, leaves a multigraph of free edges whose
    tau spanning trees biject with the consistent trees.  Its Laplacian is
    L_free = m diag(s) - s s^T - L_absent, with L_absent the Laplacian of
    the absent edges between distinct components.  As adj(L_free) is
    tau 11^T, the matrix determinant lemma gives
    det(m diag(s) - L_absent) = m^2 tau, a matrix built from the absent
    labels alone, in which a component no absent edge leaves is a lone
    diagonal entry m s_a, factored out.  Once absent edges make up a third
    of the edges between components, a minor of L_free is used instead:
    it is one row smaller, and the other matrix fills in as it is
    eliminated.
    """
    _check_vertices(m)
    n = m * (m - 1) // 2
    absent, present = [], []
    for label, value in partial.values.items():
        if not isinstance(label, (int, Integral)):  # int first: the abstract check is slow
            raise SpnError(f"edge label {echo(label, repr)} is not an integer")
        if not 0 <= label < n:
            raise SpnError(f"edge label {echo(label)} out of range for K_{m}")
        if value not in (0, 1):
            raise SpnError(f"edge {label} must be fixed to 0 or 1, got {echo(value, repr)}")
        (present if value == 1 else absent).append(label)
    row = _row_offsets(m)
    first = [offset + u + 1 for u, offset in enumerate(row)]  # the label of edge (u, u + 1)

    def ends(label):
        u = bisect_right(first, label) - 1
        return u, label - row[u]

    uf = _UnionFind(m)
    for label in present:
        if not uf.union(*ends(label)):
            return 0
    index: dict[int, int] = {}
    comp = [index.setdefault(uf.find(v), len(index)) for v in range(m)]
    k = len(index)
    size = list(Counter(comp).values())  # components are numbered in order of first appearance
    # absent edges between two components, by (component, component)
    joined = Counter((comp[u], comp[v]) for u, v in map(ends, absent))
    cut = {pair: w for pair, w in joined.items() if pair[0] != pair[1]}
    # absent edges are a third or more of the (m^2 - sum s_a^2) / 2 edges between components
    free_minor = 6 * sum(cut.values()) >= m * m - sum(size_a * size_a for size_a in size)
    if free_minor:  # L_free = m diag(s) - s s^T - L_absent
        pos = range(k)
        mat = [[-size_a * size_b for size_b in size] for size_a in size]
        for a, size_a in enumerate(size):
            mat[a][a] = size_a * (m - size_a)
    else:  # m diag(s) - L_absent on the components an absent edge leaves
        pos = {c: i for i, c in enumerate({c for pair in cut for c in pair})}
        mat = [[0] * len(pos) for _ in pos]
        for c, i in pos.items():
            mat[i][i] = m * size[c]
    for (a, b), w in cut.items():
        i, j = pos[a], pos[b]
        mat[i][j] += w
        mat[j][i] += w
        mat[i][i] -= w
        mat[j][j] -= w
    if free_minor:
        return det_symmetric([row[1:] for row in mat[1:]])
    # a component no absent edge leaves is a lone diagonal entry m s_a
    det = det_symmetric(mat) * math.prod(m * size[c] for c in range(k) if c not in pos)
    count, rest = divmod(det, m * m)
    if rest:
        raise SpnError(f"det(m diag(s) - L_absent) = {det} is not a multiple of m^2 = {m * m}")
    return count


def marginal(m: int, partial: PartialAssignment, normalized: bool = False):
    """Consistent-tree count, optionally divided by the Cayley total m^(m-2)."""
    count = count_consistent_trees(m, partial)
    if normalized:
        return Fraction(count, m ** (m - 2))
    return count


def iter_trees(m: int, count: int, rng_or_seed):
    """`count` uniform spanning trees of K_m by the re-sampling first-entry walk.

    Each step draws the next vertex uniformly from all m vertices (the
    current vertex may repeat); the edge to a first-visited vertex joins
    the tree; a walk stops once every vertex has been visited, and the
    next tree's walk starts at the next draw.  `rng_or_seed` is a
    `spn.philox.Philox` stream, a numpy Generator, or a seed, whose stream
    `spn.rng.seeded_stream` picks.  `m`, `count` and the seed are checked
    on the call.  The draws come in blocks, yet the trees, and the state
    the stream is left in once the iterator is exhausted or closed, are
    those of one scalar `integers(m)` call per step.  Until then the
    stream is the iterator's: it stands up to a block ahead of the trees
    yielded and is rewound on exit, so a caller must not draw from it in
    between (those values would come again); draws the caller needs per
    tree come from another stream.
    """
    _check_vertices(m)
    if count < 0:
        raise SpnError("sample count must be non-negative")
    draws = count * m * (math.log(m) + 1)  # bounds the mean: a walk takes 1 + m H_{m-1} < m (ln m + 1)
    return _walks(m, count, seeded_stream(rng_or_seed, draws), min(int(draws) + 64, _DRAWS))


def _walks(m: int, count: int, rng, block: int):
    """The walks of `iter_trees`, their vertices drawn from `rng` `block` at a time."""
    row = _row_offsets(m)
    with block_integers(rng, m, block) as draws:
        for _ in range(count):
            current = next(draws)
            visited = {current}
            edges = []
            for nxt in draws:
                if nxt not in visited:
                    visited.add(nxt)
                    edges.append(row[current] + nxt if current < nxt else row[nxt] + current)
                    if len(visited) == m:
                        break
                current = nxt
            yield EdgeLabeledGraph(m, frozenset(edges))


def sample_trees(m: int, count: int, rng_or_seed) -> list[EdgeLabeledGraph]:
    """The trees of `iter_trees(m, count, rng_or_seed)`, as a list."""
    return list(iter_trees(m, count, rng_or_seed))


def sample_tree(m: int, rng_or_seed) -> EdgeLabeledGraph:
    """One uniform spanning tree of K_m: `sample_trees(m, 1, rng_or_seed)[0]`."""
    return sample_trees(m, 1, rng_or_seed)[0]


# -- colorings and triangles ---------------------------------------------------


def check_coloring(m: int, coloring) -> tuple[str, ...]:
    idx = EdgeIndexing(m)
    if not isinstance(coloring, (list, tuple)):
        raise SpnError("coloring must be an array of 'r'/'b' entries")
    coloring = tuple(coloring)
    if len(coloring) != idx.n:
        raise SpnError(f"coloring must assign all {idx.n} edges")
    if any(c not in (RED, BLUE) for c in coloring):
        raise SpnError("coloring entries must be 'r' or 'b'")
    return coloring


def iter_triangles(m: int):
    """All vertex triples with their three edge labels."""
    row = _row_offsets(EdgeIndexing(m).m)
    for a, b, c in combinations(range(m), 3):
        yield (a, b, c), (row[a] + b, row[a] + c, row[b] + c)


def count_dichromatic_triangles(m: int, coloring) -> int:
    """Exact count of triangles whose three edges are not all one color.

    A dichromatic triangle has exactly two vertices where its two edges
    differ in color, so the count is sum_v r_v (m - 1 - r_v) / 2 with r_v
    the red degree of v (Goodman's identity): one pass over the edges.
    """
    coloring = check_coloring(m, coloring)
    red_degree = [0] * m
    for (u, v), color in zip(combinations(range(m), 2), coloring):
        if color == RED:
            red_degree[u] += 1
            red_degree[v] += 1
    return sum(r * (m - 1 - r) for r in red_degree) // 2


def count_triangles(m: int, edges: frozenset[int]) -> int:
    """Triangles of an arbitrary subgraph given as edge labels."""
    edges = frozenset(edges)
    n = EdgeIndexing(m).n
    for label in edges:
        if not 0 <= label < n:
            raise SpnError(f"edge label {echo(label)} out of range")
    return sum(1 for _, labels in iter_triangles(m) if all(l in edges for l in labels))


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


_DichotomyFields = namedtuple("DichotomyResult", "holds_pair_branch holds_single_branch counterexample")


class DichotomyResult(Record, _DichotomyFields):
    """Outcome of `dichotomy_check`.

    holds_pair_branch: zero whenever both same-colored edges are present.
    holds_single_branch: zero whenever the odd-colored edge is present.
    counterexample: (x_with_pair, x_with_single) if neither holds, else None.
    """

    __slots__ = ()


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
    sides = {
        RED: (tuple(l for l, col in enumerate(coloring) if col == RED), {y for y, v in g_table.items() if v > 0}),
        BLUE: (tuple(l for l, col in enumerate(coloring) if col == BLUE), {z for z, v in h_table.items() if v > 0}),
    }
    # (labels, positive support) of the pair's colour and of the other one
    (pair_labels, pair_pos), (single_labels, single_pos) = sides[coloring[a]], sides[coloring[c]]

    def side_positive(labels, table_support, wanted: tuple[int, ...]):
        idx = [labels.index(l) for l in wanted]
        return [t for t in table_support if all(t[i] for i in idx)]

    with_pair = side_positive(pair_labels, pair_pos, (a, b))
    with_single = side_positive(single_labels, single_pos, (c,))
    pair_branch = not with_pair or not single_pos
    single_branch = not with_single or not pair_pos
    if pair_branch or single_branch:
        return DichotomyResult(pair_branch, single_branch, None)
    x_pair = _combine(len(coloring), (pair_labels, with_pair[0]), (single_labels, sorted(single_pos)[0]))
    x_single = _combine(len(coloring), (pair_labels, sorted(pair_pos)[0]), (single_labels, with_single[0]))
    return DichotomyResult(False, False, (x_pair, x_single))


def _combine(n, *sides):
    """Edge vector of length n from (labels, values) sides with disjoint labels."""
    x = [0] * n
    for labels, vals in sides:
        for l, v in zip(labels, vals):
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


_ARITY = {"not_both": 2, "not_edge": 1}


def _constraint_index(constraints, n=math.inf) -> dict[int, list]:
    """Constraints by their first edge label, each form and label checked once.

    A tree breaks a constraint filed under one of its edges when the
    entry is None ("not_edge") or the tree also holds the entry's label
    ("not_both").
    """
    index: dict[int, list] = {}
    for con in constraints:
        form, *labels = con
        if not isinstance(form, str) or form not in _ARITY:
            raise SpnError(f"unknown constraint form {echo(form, repr)}")
        if len(labels) != _ARITY[form]:
            raise SpnError(f"constraint {echo(tuple(con), repr)} needs {_ARITY[form]} edge label(s)")
        for label in labels:
            if not (isinstance(label, (int, Integral)) and 0 <= label < n):  # int first: the abstract check is slow
                raise SpnError(f"edge label {echo(label, repr)} out of range")
        index.setdefault(labels[0], []).append(labels[1] if form == "not_both" else None)
    return index


def _obeys(edges: frozenset[int], index: dict[int, list]) -> bool:
    return not any(
        other is None or other in edges for label in edges for other in index.get(label, ())
    )


def obeys_constraints(edges: frozenset[int], constraints) -> bool:
    return _obeys(edges, _constraint_index(constraints))


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
    index = _constraint_index(constraints, EdgeIndexing(m).n)
    obeyed = sum(_obeys(tree.edges, index) for tree in iter_trees(m, samples, seed))
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
