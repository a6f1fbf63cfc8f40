"""Depth-3 lower-bound machinery and the balanced product-term decomposition.

A communication matrix tabulates a function's values over a two-block
variable partition; its exact rank lower-bounds the second-layer width
of any depth-3 D&C circuit computing the function.  The decomposition
splits any D&C circuit of size s into at most s^2 terms g_i * h_i with
balanced disjoint scopes, by repeatedly excising a balanced-scope node
found by walking down the largest-scope children.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import product as iter_product
from operator import itemgetter

from .circuit import Circuit, ConstantNode, ProductNode, Rational, _checked, _spread_index, as_rational, node_children, variables_of
from .errors import InstanceTooLargeError, SpnError, ZeroCircuitError, echo
from .linalg import exact_rank, integer_rank, scaled_row  # noqa: F401 (exact_rank is re-exported)
from .records import Record
from .structure import excise, require_dc, rewrite


class CommMatrix(Record, namedtuple("CommMatrix", "block_a block_b entries")):
    """Function values indexed by assignments to the two partition blocks.

    `block_a`, `block_b` are sorted tuples of variable ids and `entries` a
    tuple of rows.  Bit i of a row index is the value of the i-th smallest
    variable of A (little-endian); columns encode B the same way.
    """

    __slots__ = ()


MAX_BLOCK_VARS = 12  # the most variables a comm_matrix partition block holds


def comm_matrix(fn, n: int, partition: tuple) -> CommMatrix:
    """Tabulate fn over all binary assignments, split by the partition.

    `fn` takes a tuple of n zeros/ones indexed by variable id.  An evaluator
    from `circuit_evaluator`, whose circuit has n variables and 0 and 1 in
    the domain of each variable of its dependency-scope, is read from one
    `Circuit.tabulate` over those bits: a row's and a column's offsets in
    the table are sums of per-variable strides (`circuit._spread_index`),
    built once per block, so no per-entry call is made (`spn builtin equal
    --n 20 | spn rank` about 0.33 s on a 2-vCPU VM).  Any other `fn` is
    called once per entry, row by row, each point put in variable-id order
    by one `itemgetter` over the row's bits and the column's (about 1.5 µs
    an entry plus the call); so is an evaluator whose circuit lacks a bit,
    which raises the error a point evaluation gives at the first such entry.
    """
    block_a, block_b = (tuple(sorted(_checked(v, int, "partition variable") for v in b)) for b in partition[:2])
    for block in (block_a, block_b):
        for v, w in zip(block, block[1:]):
            if v == w:
                raise SpnError(f"partition block repeats variable {echo(v)}")
    if set(block_a) & set(block_b):
        raise SpnError("partition blocks overlap")
    for v in block_a + block_b:
        if not 0 <= v < n:
            raise SpnError(f"partition variable {echo(v)} is not among the variables 0..{n - 1}")
    if set(block_a) | set(block_b) != set(range(n)):
        raise SpnError("partition must cover all variables")
    if len(block_a) > MAX_BLOCK_VARS or len(block_b) > MAX_BLOCK_VARS:
        raise InstanceTooLargeError(f"blocks limited to {MAX_BLOCK_VARS} variables")
    if isinstance(fn, CircuitEvaluator):
        entries = _table_entries(fn.circuit, n, block_a, block_b)
        if entries is not None:
            return CommMatrix(block_a, block_b, entries)
    rows, cols = (
        [tuple((index >> i) & 1 for i in range(len(block))) for index in range(1 << len(block))]
        for block in (block_a, block_b)
    )
    order = sorted(range(n), key=(block_a + block_b).__getitem__)
    arrange = itemgetter(*order) if n > 1 else tuple  # one index would give a bare bit
    return CommMatrix(block_a, block_b, tuple(tuple([fn(arrange(r + c)) for c in cols]) for r in rows))


def _table_entries(circuit: Circuit, n: int, block_a: tuple, block_b: tuple) -> tuple | None:
    """comm_matrix's entries read from one tabulation of the circuit over the
    bits of its dependency-scope, or None when a point evaluation would not
    read them all from that table (n is not the circuit's variable count,
    or a scope variable lacks bit 0 or 1)."""
    scope = sorted(circuit.dependency_scope())
    domains = [circuit.variables[v].domain for v in scope]
    if n != len(circuit.variables) or not all(0 in d and 1 in d for d in domains):
        return None
    table = circuit.tabulate({v: [(d.index(0),), (d.index(1),)] for v, d in zip(scope, domains)})
    # bit i of an entry's row (column) number is block[i]'s value, so block[0] varies fastest
    rows, cols = (_spread_index(scope, [2] * len(scope), block[::-1], [2] * len(block)) for block in (block_a, block_b))
    if cols == list(range(len(cols))):  # B's variables are the table's last (`first-half`): rows are slices
        return tuple(tuple(table[r : r + len(cols)]) for r in rows)
    get = table.__getitem__
    return tuple(tuple(map(get, map(r.__add__, cols))) for r in rows)


class CircuitEvaluator(Record, namedtuple("CircuitEvaluator", "circuit")):
    """A circuit adapted to the tuple-of-bits interface of comm_matrix
    (`circuit_evaluator(circuit)`).

    A call is `Circuit.evaluate` at the point, with its value or its error.
    comm_matrix recognises the evaluator and reads its matrix from one
    tabulation of the circuit instead of calling it per entry (see
    `comm_matrix`); wrapped in another callable, it is called per entry.
    """

    __slots__ = ()

    def __call__(self, x) -> Rational:
        return self.circuit.evaluate(x)


circuit_evaluator = CircuitEvaluator


def half_partition(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return tuple(range(n // 2)), tuple(range(n // 2, n))


def perturbation_rank_bound(d_matrix, audit: bool = False) -> Fraction:
    """Lower bound k/2 - Delta/2 on the rank of I + D, Delta the entry-wise l1 mass of D.

    Each row of D is scaled to integers once (`linalg.scaled_row`), so Delta
    takes one Fraction per row, and adding each row's denominator on the
    diagonal gives the integer rows of I + D, each times a positive scale,
    for the audit's exact rank.
    """
    k = len(d_matrix)
    delta = Fraction(0)
    rows = []
    for i, row in enumerate(d_matrix):
        if len(row) != k:
            raise SpnError("perturbation matrix must be square")
        ints, q = scaled_row(row)
        delta += Fraction(sum(map(abs, ints)), q)
        ints[i] += q
        rows.append(ints)
    bound = (k - delta) / 2
    if audit:
        rank = integer_rank(rows)
        if bound > rank:
            raise SpnError(f"perturbation bound {bound} exceeds exact rank {rank}")
    return bound


# -- decomposition into balanced product terms --------------------------------


def binarize_products(circuit: Circuit) -> Circuit:
    """Equivalent circuit where every product node has fan-in at most two.

    Wider products become balanced trees; leaf-function ids are kept and
    nodes the root does not reach are dropped (see `structure.rewrite`).
    """

    def combine(emit, children) -> int:
        if len(children) == 1:
            return children[0]
        mid = len(children) // 2
        return emit(ProductNode, [combine(emit, children[:mid]), combine(emit, children[mid:])])

    def rule(node, new, emit):
        if isinstance(node, ProductNode) and len(node.children) > 1:
            return combine(emit, [new[c] for c in node.children])
        return node

    return rewrite(circuit, rule)


class DecompositionTerm(Record, namedtuple("DecompositionTerm", "y_vars z_vars g_table h_table")):
    """g * h with g over the variables `y_vars`, h over `z_vars`; each table
    maps an assignment tuple over its variables to a value, an int when
    integral and a Fraction otherwise (see `circuit.as_rational`)."""

    __slots__ = ()


class Decomposition(Record, namedtuple("Decomposition", "terms source_size")):
    __slots__ = ()

    def reconstruct(self, assignment) -> Rational:
        """Sum of g_i * h_i at a full assignment (mapping variable -> value)."""
        total = 0
        for t in self.terms:
            gy = t.g_table[tuple(assignment[v] for v in t.y_vars)]
            hz = t.h_table[tuple(assignment[v] for v in t.z_vars)]
            total += gy * hz
        return total


def _grid(circuit: Circuit, vars_: tuple[int, ...]):
    """Every domain position of each of `vars_` (ascending) as a point
    selection, and the assignments of the grid's points in
    `Circuit.tabulate` order."""
    domains = [circuit.variables[v].domain for v in vars_]
    return {v: [(p,) for p in range(len(d))] for v, d in zip(vars_, domains)}, list(iter_product(*domains))


MAX_TABLE_VARS = 14  # the most variables a g or h table of decompose ranges over


def decompose(circuit: Circuit) -> Decomposition:
    """Split a D&C circuit into at most size^2 balanced product terms.

    Products are first rewritten to fan-in two.  Then, repeatedly, a node
    whose scope mask (`Circuit.scopes`) has between n/3 and 2n/3 bits is
    found by walking from the root through the child with the most bits
    (ties to the smallest node id), its g table is the subcircuit's value
    over the mask's variables, its h table is the difference between the
    circuit evaluated with the node pinned to one and pinned to zero (a
    function of the other variables), and the node is excised: the circuit
    with the node pinned to zero is the next one walked.  The recorded
    terms satisfy sum_i g_i(y_i) h_i(z_i) = circuit(x) for every assignment.
    Gated by `structure.require_dc`.
    """
    require_dc(circuit, "decompose")
    n = len(circuit.variables)
    if n < 3:
        raise SpnError("decompose needs at least three variables")
    if circuit.dependency_scope() != frozenset(range(n)):
        raise SpnError("decompose requires the output to depend on every variable")
    source_size = len(circuit.nodes)

    work = binarize_products(circuit)
    terms = []
    while work is not None:
        # walk: first node on the largest-child path with scope <= 2n/3
        scopes = work.scopes()
        node = work.root
        while 3 * scopes[node].bit_count() > 2 * n:
            kids = node_children(work.nodes[node])
            node = max(kids, key=lambda c: (scopes[c].bit_count(), -c))
        y_vars = tuple(variables_of(scopes[node]))
        z_vars = tuple(variables_of(((1 << n) - 1) ^ scopes[node]))
        if 3 * len(y_vars) < n:
            raise SpnError("balanced-node walk failed; circuit is not D&C")
        if len(y_vars) > MAX_TABLE_VARS or len(z_vars) > MAX_TABLE_VARS:
            raise InstanceTooLargeError(f"term tables over more than {MAX_TABLE_VARS} variables")

        grid, keys = _grid(work, y_vars)
        g_table = dict(zip(keys, map(as_rational, work.tabulate(grid, node))))

        pinned_one = rewrite(work, lambda nd, new, emit: emit(ConstantNode, 1) if nd.id == node else nd)
        try:
            pinned_zero = excise(work, [node])
        except ZeroCircuitError:
            pinned_zero = None
        grid, keys = _grid(work, z_vars)
        hi = pinned_one.tabulate(grid)
        lo = pinned_zero.tabulate(grid) if pinned_zero else [0] * len(hi)
        if any(h < l for h, l in zip(hi, lo)):
            raise SpnError("negative cofactor table entry; circuit is not D&C")
        h_table = dict(zip(keys, [as_rational(h - l) for h, l in zip(hi, lo)]))
        terms.append(DecompositionTerm(y_vars, z_vars, g_table, h_table))
        work = pinned_zero

    if len(terms) > source_size * source_size:
        raise SpnError("decomposition produced more than size^2 terms")
    return Decomposition(tuple(terms), source_size)

