"""Exact integer/rational linear algebra: determinants and rank.

Determinants of symmetric integer matrices use fraction-free Bareiss
elimination on the upper triangle, sparsest rows first, leaving rows a
pivot does not reach unscaled (on the 56-row matrices of tree counts at
m = 60 with 150 absent edges, about 4 ms where a dense elimination took
14 ms on a 2-vCPU VM); rank clears denominators row-wise and runs
integer elimination with gcd reduction.  Everything is exact and
deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import SpnError


def det_symmetric(matrix: list[list[int]]) -> int:
    """Exact determinant of a symmetric integer matrix (fraction-free Bareiss).

    Rows are eliminated in increasing order of their off-diagonal nonzeros
    (a symmetric permutation, which leaves the determinant unchanged), and
    only the upper triangle of the trailing block is updated, with no row
    swaps.  A row whose entry in the pivot column is zero would only be
    rescaled by the step, so it is skipped: it keeps the scale D_s of the
    last step that touched it (D the leading principal minors) and is
    brought to D_t exactly, by x * D_t // D_s, when it next becomes the
    pivot row or inside its next update.  A zero pivot with a zero
    row gives 0; one with a nonzero row raises (impossible if the matrix is
    positive semidefinite, as a Laplacian is).
    """
    k = len(matrix)
    a = [list(map(int, row)) for row in matrix]
    if any(len(row) != k for row in a) or list(map(list, zip(*a))) != a:
        raise SpnError("determinant needs a square symmetric matrix")
    order = sorted(range(k), key=lambda i: sum(map(bool, a[i])) - bool(a[i][i]))
    a = [[a[i][j] for j in order] for i in order]
    minors = [1]  # minors[t]: leading principal minor of order t, the divisor after t steps
    steps = [0] * k  # elimination steps applied to each row so far
    for p in range(k):
        row_p = a[p]
        if steps[p] < p:
            row_p[p:] = [x * minors[p] // minors[steps[p]] for x in row_p[p:]]
        pivot = row_p[p]
        if p == k - 1:
            return pivot
        if pivot == 0:
            if any(row_p[p + 1 :]):
                raise SpnError(f"zero pivot with a nonzero row at {p}: matrix is not positive semidefinite")
            return 0
        prev = minors[p]
        for r in range(p + 1, k):
            f = row_p[r]  # a[r][p] is stale below the diagonal; symmetry gives a[p][r]
            if f:
                c, d, q = pivot, f, prev
                if steps[r] < p:  # (pivot (x D_p / D_s) - f y) / D_p over one divisor
                    s = minors[steps[r]]
                    c, d, q = pivot * prev, f * s, prev * s
                a[r][r:] = [(c * x - d * y) // q for x, y in zip(a[r][r:], row_p[r:])]
                steps[r] = p + 1
        minors.append(pivot)
    return 1


def scaled_row(row) -> tuple[list[int], int]:
    """(integers, q) with row == integers / q, q the lcm of the entries' denominators.

    Entries may be ints, Fractions, 'p/q' strings or floats (converted
    exactly).  A row of plain ints is copied with q = 1; in other rows each
    entry is read once, by `as_integer_ratio()`, which is cheaper than
    Fraction's `numerator` and `denominator` properties.
    """
    if set(map(type, row)) <= {int}:
        return list(row), 1
    pairs = [(x if isinstance(x, (int, Fraction)) else Fraction(x)).as_integer_ratio() for x in row]
    q = lcm(*[d for _, d in pairs])
    return [p * (q // d) for p, d in pairs], q


def exact_rank(matrix) -> int:
    """Rank over the rationals of a matrix with equal-length rows.

    Each row is scaled to integers (rank-preserving), then `integer_rank`
    eliminates.  SpnError names the first row whose length differs from
    row 0's.
    """
    rows = [scaled_row(row)[0] for row in matrix]
    for i, row in enumerate(rows):
        if len(row) != len(rows[0]):
            raise SpnError(f"ragged matrix: row {i} has {len(row)} entries, row 0 has {len(rows[0])}")
    return integer_rank(rows)


def integer_rank(rows: list[list[int]]) -> int:
    """Rank of equal-length integer rows via row echelon with gcd reduction (rows are overwritten).

    The pivot in each column is the candidate with the largest absolute
    value, ties broken by the smallest row index, for deterministic
    elimination order.
    """
    rows = [row for row in rows if any(row)]
    if not rows:
        return 0
    n_cols = len(rows[0])
    rank = 0
    for col in range(n_cols):
        # largest-|value| pivot, smallest row index on ties
        pivot_row = -1
        pivot_abs = 0
        for r in range(rank, len(rows)):
            a = abs(rows[r][col])
            if a > pivot_abs:
                pivot_abs = a
                pivot_row = r
        if pivot_row < 0:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        prow = rows[rank]
        pval = prow[col]
        for r in range(rank + 1, len(rows)):
            row = rows[r]
            f = row[col]
            if f == 0:
                continue
            g = gcd(pval, f)
            a = pval // g
            b = f // g
            for c in range(col, n_cols):
                row[c] = a * row[c] - b * prow[c]
            reduce = 0
            for c in range(col + 1, n_cols):
                reduce = gcd(reduce, row[c])
                if reduce == 1:
                    break
            if reduce > 1:
                for c in range(col + 1, n_cols):
                    row[c] //= reduce
        rank += 1
        if rank == len(rows):
            break
    return rank
