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

from dataclasses import dataclass
from fractions import Fraction

from .circuit import Circuit, CircuitBuilder, as_fraction
from .errors import DomainError, SpnError

BINARY = (Fraction(0), Fraction(1))


@dataclass(frozen=True)
class Fpssm:
    """State machine with per-variable transitions over states 0..k-1."""

    n: int
    order: tuple[int, ...]  # variable ids in processing order
    state_size: int
    initial_state: int
    transitions: tuple[dict, ...]  # per variable: value -> tuple next-state per state
    decode: tuple[Fraction, ...]  # state -> non-negative output
    domains: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if sorted(self.order) != list(range(self.n)):
            raise SpnError("order must be a permutation of the variables")
        if len(self.domains) != self.n or len(self.transitions) != self.n:
            raise SpnError(f"domains and transitions need one entry per variable ({self.n})")
        k = self.state_size
        if not (0 <= self.initial_state < k):
            raise SpnError("initial state out of range")
        for i in range(self.n):
            for value in self.domains[i]:
                nxt = self.transitions[i][value]
                if len(nxt) != k or any(not (0 <= s < k) for s in nxt):
                    raise SpnError(f"transition table of variable {i} is not into 0..{k - 1}")
        if len(self.decode) != k or any(h < 0 for h in self.decode):
            raise SpnError("decode must map every state to a non-negative rational")


@dataclass(frozen=True)
class Fplm:
    """Linear model: output is b . T_last(x_last) ... T_first(x_first) a."""

    n: int
    order: tuple[int, ...]
    dim: int
    a: tuple[Fraction, ...]
    b: tuple[Fraction, ...]
    matrices: tuple[dict, ...]  # per variable: value -> k x k tuple-of-tuples
    domains: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if sorted(self.order) != list(range(self.n)):
            raise SpnError("order must be a permutation of the variables")
        k = self.dim
        if len(self.a) != k or len(self.b) != k:
            raise SpnError("a and b must have the model dimension")
        if any(x < 0 for x in self.a) or any(x < 0 for x in self.b):
            raise SpnError("a and b must be non-negative")
        for i in range(self.n):
            for value in self.domains[i]:
                t = self.matrices[i][value]
                if len(t) != k or any(len(row) != k for row in t):
                    raise SpnError(f"matrix of variable {i} is not {k}x{k}")
                if any(x < 0 for row in t for x in row):
                    raise SpnError("matrix entries must be non-negative")


def _lookup(domains, i, value):
    value = as_fraction(value)
    if value not in domains[i]:
        raise DomainError(f"value {value} not in domain of variable {i}")
    return value


def eval_fpssm(m: Fpssm, x) -> Fraction:
    """Run the state iteration on a full assignment (sequence indexed by variable)."""
    s = m.initial_state
    for i in m.order:
        s = m.transitions[i][_lookup(m.domains, i, x[i])][s]
    return m.decode[s]


def eval_fplm(m: Fplm, x) -> Fraction:
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
    a = tuple(Fraction(1 if s == m.initial_state else 0) for s in range(k))
    matrices = []
    for i in range(m.n):
        per_value = {}
        for value in m.domains[i]:
            nxt = m.transitions[i][value]
            per_value[value] = tuple(
                tuple(Fraction(1 if nxt[c] == r else 0) for c in range(k)) for r in range(k)
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


def fplm_to_spn(m: Fplm, share_leaf_tables: bool = False) -> Circuit:
    """Stage-wise circuit realizing the matrix chain.

    Each stage turns the k working nodes into the next k via k^2 product
    nodes (a fresh leaf function per matrix cell holding that entry as a
    function of the stage's variable) and k weight-1 sum nodes; constants
    initialize the chain with `a` and one final sum applies `b`.  The
    result is decomposable and complete by construction.
    """
    b = CircuitBuilder()
    for domain in m.domains:
        b.variable(domain)
    k = m.dim
    fn_cache: dict = {}

    def cell_fn(var: int, table_items: tuple, name: str) -> int:
        if share_leaf_tables:
            key = (var, table_items)
            if key not in fn_cache:
                fn_cache[key] = b.leaf_function(var, dict(table_items), name)
            return fn_cache[key]
        return b.leaf_function(var, dict(table_items), name)

    working = [b.constant(x) for x in m.a]
    for stage, var in enumerate(m.order):
        domain = m.domains[var]
        new_working = []
        rows = []
        for r in range(k):
            row_products = []
            for c in range(k):
                table = tuple((v, m.matrices[var][v][r][c]) for v in domain)
                fid = cell_fn(var, table, name=f"t{stage}_{r}{c}")
                row_products.append(b.product([b.leaf(fid), working[c]]))
            rows.append(row_products)
        for r in range(k):
            new_working.append(b.sum([(p, 1) for p in rows[r]]))
        working = new_working
    root = b.sum([(working[r], m.b[r]) for r in range(k)])
    return b.build(root)


# -- built-in machines --------------------------------------------------------


def count_ones_machine(n: int) -> Fpssm:
    """States 0..n counting inputs equal to one; decode is the count itself."""
    transitions = tuple(
        {
            Fraction(0): tuple(range(n + 1)),
            Fraction(1): tuple(min(s + 1, n) for s in range(n + 1)),
        }
        for _ in range(n)
    )
    return Fpssm(
        n=n,
        order=tuple(range(n)),
        state_size=n + 1,
        initial_state=0,
        transitions=transitions,
        decode=tuple(Fraction(s) for s in range(n + 1)),
        domains=tuple(BINARY for _ in range(n)),
    )


def parity_machine(n: int) -> Fpssm:
    """Two states tracking the count of ones modulo two."""
    transitions = tuple(
        {Fraction(0): (0, 1), Fraction(1): (1, 0)} for _ in range(n)
    )
    return Fpssm(
        n=n,
        order=tuple(range(n)),
        state_size=2,
        initial_state=0,
        transitions=transitions,
        decode=(Fraction(0), Fraction(1)),
        domains=tuple(BINARY for _ in range(n)),
    )


def majority_machine(n: int) -> Fpssm:
    """Counts ones in states 0..n and decodes to one iff the count reaches n/2."""
    base = count_ones_machine(n)
    threshold = Fraction(n, 2)
    return Fpssm(
        n=n,
        order=base.order,
        state_size=base.state_size,
        initial_state=0,
        transitions=base.transitions,
        decode=tuple(Fraction(1 if s >= threshold else 0) for s in range(n + 1)),
        domains=base.domains,
    )


def compile_fpssm(m: Fpssm, share_leaf_tables: bool = False) -> Circuit:
    return fplm_to_spn(fpssm_to_fplm(m), share_leaf_tables=share_leaf_tables)


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
    try:
        n = int(doc["n"])
        domains = tuple(
            tuple(as_fraction(v) for v in d) for d in doc.get("domains", [["0", "1"]] * n)
        )
        transitions = tuple(
            {as_fraction(v): tuple(nxt) for v, nxt in t.items()} for t in doc["transitions"]
        )
        return Fpssm(
            n=n,
            order=tuple(doc.get("order", range(n))),
            state_size=int(doc["state_size"]),
            initial_state=int(doc["initial_state"]),
            transitions=transitions,
            decode=tuple(as_fraction(h) for h in doc["decode"]),
            domains=domains,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SpnError(f"malformed FPSSM document: {exc}") from exc
