"""Read-once state machines and their compilation to D&C circuits.

A fixed-permutation state-space machine (FPSSM) iterates an arbitrary
per-variable transition over a working state in a fixed variable order
and decodes the final state to a non-negative rational.  A
fixed-permutation linear model (FPLM) does the same with a working
vector, non-negative matrices, and a final inner product.  FPSSMs embed
into FPLMs by one-hot encoding; FPLMs compile stage-by-stage into
decomposable and complete circuits of size O(n k^2).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .circuit import Circuit, CircuitBuilder, ConstantNode, Rational, _array, _checked, _field, as_rational
from .errors import DomainError, InstanceTooLargeError, SerializationError, SpnError, echo
from .records import Record
from .structure import excise

BINARY = (0, 1)
# The built-in machines and `fpssm_to_fplm` raise InstanceTooLargeError,
# before building anything, past MAX_ONE_HOT_CELLS one-hot matrix cells
# (n * |D| * k^2: one k x k matrix per domain value), and `build_equal` past MAX_EQUAL_N inputs.
MAX_ONE_HOT_CELLS = 1 << 18
MAX_EQUAL_N = 1 << 14


def _check_one_hot_cells(values: int, k: int):
    # `values` domain values over all variables, k states
    cells = values * k * k
    if cells > MAX_ONE_HOT_CELLS:
        raise InstanceTooLargeError(f"one-hot embedding of {cells} cells exceeds {MAX_ONE_HOT_CELLS}")


def _table_entries(n, order, domains, tables, what) -> list[tuple[int, object]]:
    """(variable, entry) per domain value of each variable, once `order` permutes
    0..n-1 and each of the n `tables` maps exactly its variable's domain."""
    if sorted(order) != list(range(n)):
        raise SpnError("order must be a permutation of the variables")
    if len(domains) != n or len(tables) != n:
        raise SpnError(f"domains and {what} need one entry per variable ({n})")
    for i in range(n):
        if set(tables[i]) != set(domains[i]):
            raise SpnError(f"{what} of variable {i} must have one entry per domain value")
    return [(i, tables[i][x]) for i in range(n) for x in domains[i]]


class Fpssm(Record, namedtuple("Fpssm", "n order state_size initial_state transitions decode domains")):
    """State machine with per-variable transitions over states 0..k-1.

    `order` lists the variable ids in processing order; `transitions` maps,
    per variable, each value to the tuple of next states per state;
    `decode` maps each state to a non-negative output; `domains` holds
    each variable's domain tuple.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        entries = _table_entries(self.n, self.order, self.domains, self.transitions, "transitions")
        k = self.state_size
        if not (0 <= self.initial_state < k):
            raise SpnError("initial state out of range")
        for i, nxt in entries:
            if len(nxt) != k or any(not (0 <= s < k) for s in nxt):
                raise SpnError(f"transition table of variable {i} is not into 0..{k - 1}")
        if len(self.decode) != k or any(h < 0 for h in self.decode):
            raise SpnError("decode must map every state to a non-negative rational")
        return self


class Fplm(Record, namedtuple("Fplm", "n order dim a b matrices domains")):
    """Linear model: output is b . T_last(x_last) ... T_first(x_first) a.

    `matrices` maps, per variable, each value to a k x k tuple of tuples.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        entries = _table_entries(self.n, self.order, self.domains, self.matrices, "matrices")
        k = self.dim
        if len(self.a) != k or len(self.b) != k:
            raise SpnError("a and b must have the model dimension")
        if any(x < 0 for x in self.a) or any(x < 0 for x in self.b):
            raise SpnError("a and b must be non-negative")
        for i, t in entries:
            if len(t) != k or any(len(row) != k for row in t):
                raise SpnError(f"matrix of variable {i} is not {k}x{k}")
            if any(x < 0 for row in t for x in row):
                raise SpnError("matrix entries must be non-negative")
        return self


def _lookup(domains, i, value):
    value = as_rational(value)
    if value not in domains[i]:
        raise DomainError(f"value {echo(value)} not in domain of variable {i}")
    return value


def eval_fpssm(m: Fpssm, x) -> Rational:
    """Run the state iteration on a full assignment (sequence indexed by variable)."""
    s = m.initial_state
    for i in m.order:
        s = m.transitions[i][_lookup(m.domains, i, x[i])][s]
    return m.decode[s]


def eval_fplm(m: Fplm, x) -> Rational:
    """Multiply out the matrix chain on a full assignment."""
    v = list(m.a)
    k = m.dim
    for i in m.order:
        t = m.matrices[i][_lookup(m.domains, i, x[i])]
        v = [sum(t[r][c] * v[c] for c in range(k)) for r in range(k)]
    return sum(b * w for b, w in zip(m.b, v))


def fpssm_to_fplm(m: Fpssm) -> Fplm:
    """One-hot embedding: a = e_init, column-selector matrices, b = decode."""
    k = m.state_size
    _check_one_hot_cells(sum(map(len, m.domains)), k)
    a = tuple(int(s == m.initial_state) for s in range(k))
    matrices = []
    for i in range(m.n):
        per_value = {}
        for value in m.domains[i]:
            nxt = m.transitions[i][value]
            per_value[value] = tuple(
                tuple(int(nxt[c] == r) for c in range(k)) for r in range(k)
            )
        matrices.append(per_value)
    return Fplm(
        n=m.n,
        order=m.order,
        dim=k,
        a=a,
        b=tuple(m.decode),
        matrices=tuple(matrices),
        domains=m.domains,
    )


def fplm_to_spn(m: Fplm) -> Circuit:
    """Stage-wise circuit realizing the matrix chain.

    Each stage turns the working nodes, one per state, into the next ones:
    state r becomes a weight-1 sum, over the states c, of the product of a
    leaf (matrix cell (r, c) as a function of the stage's variable) and
    working node c.  Constants initialize the chain with `a`, and one
    final sum applies `b`.  Zero entries of `a` and `b` and cells that are
    zero at every value add no node, cells with equal tables share one
    leaf, and states that cannot reach the output are excised; a model
    whose output is zero everywhere compiles to a single constant-0 root.
    The result is decomposable and complete by construction, with at most
    k^2 leaves, k^2 products and k sums per stage.
    """
    b = CircuitBuilder()
    for domain in m.domains:
        b.variable(domain)
    k = m.dim
    leaves: dict = {}  # (variable, table) -> leaf node
    working = [b.constant(x) if x else None for x in m.a]
    for stage, var in enumerate(m.order):
        domain = m.domains[var]
        new_working = []
        for r in range(k):
            products = []
            for c in range(k):
                table = tuple((v, m.matrices[var][v][r][c]) for v in domain)
                if working[c] is None or not any(x for _, x in table):
                    continue
                key = (var, table)
                if key not in leaves:
                    leaves[key] = b.leaf(b.leaf_function(var, dict(table), name=f"t{stage}_{r}{c}"))
                products.append((b.product([leaves[key], working[c]]), 1))
            new_working.append(b.sum(products) if products else None)
        working = new_working
    outputs = [(w, x) for w, x in zip(working, m.b) if w is not None and x]
    if not outputs:  # zero everywhere: a constant-0 root and no leaf functions
        return Circuit(b._variables, (), [ConstantNode(0, 0)], 0)
    return excise(b.build(b.sum(outputs)), [])


# -- built-in machines --------------------------------------------------------


def count_ones_machine(n: int) -> Fpssm:
    """States 0..n counting inputs equal to one; decode is the count itself."""
    _check_one_hot_cells(2 * n, n + 1)
    transitions = tuple({0: tuple(range(n + 1)), 1: tuple(min(s + 1, n) for s in range(n + 1))} for _ in range(n))
    return Fpssm(
        n=n,
        order=tuple(range(n)),
        state_size=n + 1,
        initial_state=0,
        transitions=transitions,
        decode=tuple(range(n + 1)),
        domains=tuple(BINARY for _ in range(n)),
    )


def parity_machine(n: int) -> Fpssm:
    """Two states tracking the count of ones modulo two."""
    _check_one_hot_cells(2 * n, 2)
    transitions = tuple({0: (0, 1), 1: (1, 0)} for _ in range(n))
    return Fpssm(
        n=n,
        order=tuple(range(n)),
        state_size=2,
        initial_state=0,
        transitions=transitions,
        decode=(0, 1),
        domains=tuple(BINARY for _ in range(n)),
    )


def majority_machine(n: int) -> Fpssm:
    """Counts ones in states 0..n and decodes to one iff the count reaches n/2."""
    base = count_ones_machine(n)
    return Fpssm(
        n=n,
        order=base.order,
        state_size=base.state_size,
        initial_state=0,
        transitions=base.transitions,
        decode=tuple(int(2 * s >= n) for s in range(n + 1)),
        domains=base.domains,
    )


def compile_fpssm(m: Fpssm) -> Circuit:
    return fplm_to_spn(fpssm_to_fplm(m))


# -- the depth-4 half-equality circuit ----------------------------------------


def equal_function(n: int):
    """The indicator that the first half of a binary input equals the second."""
    if n % 2:
        raise SpnError("input size must be even")
    half = n // 2

    def fn(x) -> int:
        return int(all(x[i] == x[i + half] for i in range(half)))

    return fn


def build_equal(n: int) -> Circuit:
    """Four-layer D&C circuit computing half-equality on n binary inputs.

    Layer two pairs identity and negation leaves of positions i and
    i + n/2, layer three sums each pair of products, and layer four takes
    the product over all positions.  Size is linear in n.
    """
    if n > MAX_EQUAL_N:
        raise InstanceTooLargeError(f"equal of {n} inputs exceeds {MAX_EQUAL_N}")
    if n % 2 or n <= 0:
        raise SpnError("input size must be even and positive")
    half = n // 2
    b = CircuitBuilder()
    for _ in range(n):
        b.variable(BINARY)
    ident = [b.leaf_function(i, {0: 0, 1: 1}, name=f"x{i}") for i in range(n)]
    neg = [b.leaf_function(i, {0: 1, 1: 0}, name=f"not_x{i}") for i in range(n)]
    pair_sums = []
    for i in range(half):
        j = i + half
        both_one = b.product([b.leaf(ident[i]), b.leaf(ident[j])])
        both_zero = b.product([b.leaf(neg[i]), b.leaf(neg[j])])
        pair_sums.append(b.sum([(both_one, 1), (both_zero, 1)]))
    return b.build(b.product(pair_sums))


# -- machine JSON -------------------------------------------------------------


def fpssm_from_json_dict(doc: dict) -> Fpssm:
    """FPSSM from its JSON document; SerializationError names the first malformed field."""
    if not isinstance(doc, dict):
        raise SerializationError("machine document must be a JSON object")
    n = _field(doc, "n", int, "")
    transitions = [
        {_checked(v, Fraction, f"transitions[{i}]"): tuple(_array(t, v, int, f"transitions[{i}]")) for v in t}
        for i, t in enumerate(_array(doc, "transitions", dict, ""))
    ]
    if len(transitions) != n:  # before the defaults below allocate n entries
        raise SerializationError(f"transitions: expected {n} tables, got {len(transitions)}")
    domains = [BINARY] * n
    if "domains" in doc:
        domains = [
            tuple(_checked(x, Fraction, f"domains[{i}][{j}]") for j, x in enumerate(d))
            for i, d in enumerate(_array(doc, "domains", list, ""))
        ]
    return Fpssm(
        n=n,
        order=tuple(_array(doc, "order", int, "") if "order" in doc else range(n)),
        state_size=_field(doc, "state_size", int, ""),
        initial_state=_field(doc, "initial_state", int, ""),
        transitions=tuple(transitions),
        decode=tuple(_array(doc, "decode", Fraction, "")),
        domains=tuple(domains),
    )
