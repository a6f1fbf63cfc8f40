"""Exact sparse polynomial expansion of circuit outputs.

Monomials are canonical sorted tuples of (leaf-function id, exponent)
with positive exponents; a polynomial maps monomials to non-zero
rational coefficients, plus the grouping of leaf functions by variable
that set-multilinearity is judged against.  The zero polynomial is the
empty term map.
"""

from __future__ import annotations

from .circuit import Circuit, ConstantNode, LeafNode, SumNode, as_rational
from .errors import SpnError, TermExplosionError

# monomial: tuple[(leaf_fn_id, exponent), ...] sorted by leaf_fn_id
Monomial = tuple[tuple[int, int], ...]

ONE: Monomial = ()

DEFAULT_TERM_CAP = 10**6


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    """Multiply two monomials, adding exponents of shared factors."""
    out = dict(a)
    for fid, e in b:
        out[fid] = out.get(fid, 0) + e
    return tuple(sorted(out.items()))


class SparsePolynomial:
    """Sum of monomial terms over leaf functions, with like terms collected."""

    def __init__(self, terms: dict, variable_groups: dict[int, int]):
        self.terms = {m: as_rational(c) for m, c in terms.items() if c != 0}
        self.variable_groups = dict(variable_groups)

    def scope(self) -> frozenset[int]:
        """Leaf-function ids appearing as factors in some monomial."""
        out: set[int] = set()
        for m in self.terms:
            out.update(fid for fid, _ in m)
        return frozenset(out)

    def set_scope(self) -> frozenset[int]:
        """Variable ids whose leaf-function group intersects the scope."""
        groups = set()
        for fid in self.scope():
            if fid not in self.variable_groups:
                raise SpnError(f"ungrouped leaf function {fid}")
            groups.add(self.variable_groups[fid])
        return frozenset(groups)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, SparsePolynomial)
            and self.terms == other.terms
        )

    def evaluate(self, values: dict[int, object]):
        """Evaluate at a map leaf-function id -> rational value."""
        total = 0
        for m, c in self.terms.items():
            acc = c
            for fid, e in m:
                acc *= values[fid] ** e
            total += acc
        return total

    def dump(self) -> str:
        """Sorted textual form, one 'coeff * f#^e ...' line per term."""
        lines = []
        for m in sorted(self.terms):
            factors = " * ".join(
                f"f{fid}" + (f"^{e}" if e > 1 else "") for fid, e in m
            )
            lines.append(f"{self.terms[m]}" + (f" * {factors}" if factors else ""))
        return "\n".join(lines) if lines else "0"

    def __repr__(self):
        return f"SparsePolynomial({len(self.terms)} terms)"


def expand(circuit: Circuit, max_terms: int = DEFAULT_TERM_CAP) -> SparsePolynomial:
    """Exact output polynomial of the root in the leaf functions.

    Coefficients are held as the IR holds values (see `as_rational`): an
    int when integral, a Fraction otherwise.  Children of a product whose
    dependency-scopes are disjoint share no leaf function, so their
    monomials multiply by sorting the concatenation; overlapping children
    add exponents (`monomial_mul`).  Only extended circuits can cancel, so
    only their nodes drop zero coefficients.  Raises TermExplosionError
    when the number of distinct monomials at any intermediate node exceeds
    `max_terms`.
    """
    groups = {f.id: f.variable for f in circuit.leaf_functions}
    needed = circuit.reachable()
    scopes = circuit.scopes()
    polys: dict[int, dict] = {}
    for nd in circuit.nodes:
        if nd.id not in needed:
            continue
        if isinstance(nd, LeafNode):
            acc = {((nd.leaf_function, 1),): 1}
        elif isinstance(nd, ConstantNode):
            acc = {ONE: nd.value} if nd.value != 0 else {}
        elif isinstance(nd, SumNode):
            acc = {}
            for c, w in zip(nd.children, nd.weights):
                if w != 0:
                    for m, coeff in polys[c].items():
                        acc[m] = acc.get(m, 0) + w * coeff
        else:
            acc, seen = polys[nd.children[0]], scopes[nd.children[0]]
            for c in nd.children[1:]:
                child, nxt, disjoint = polys[c], {}, seen.isdisjoint(scopes[c])
                seen = seen | scopes[c]
                for m1, c1 in acc.items():
                    if disjoint:
                        nxt.update((tuple(sorted(m1 + m2)), c1 * c2) for m2, c2 in child.items())
                    else:
                        for m2, c2 in child.items():
                            m = monomial_mul(m1, m2)
                            nxt[m] = nxt.get(m, 0) + c1 * c2
                    if len(nxt) > max_terms and sum(map(bool, nxt.values())) > max_terms:
                        raise TermExplosionError(
                            f"expansion exceeds {max_terms} monomials at node {nd.id}"
                        )
                acc = nxt
        if circuit.extended:
            acc = {m: c for m, c in acc.items() if c != 0}
        if len(acc) > max_terms:
            raise TermExplosionError(f"expansion exceeds {max_terms} monomials at node {nd.id}")
        polys[nd.id] = acc
    return SparsePolynomial(polys[circuit.root], groups)


def is_multilinear(p: SparsePolynomial) -> bool:
    """True iff every factor exponent in every monomial is exactly one."""
    return all(e == 1 for m in p.terms for _, e in m)


def is_set_multilinear(p: SparsePolynomial) -> bool:
    """True iff every monomial takes exactly one degree-1 factor from each
    variable group in the polynomial's set-scope."""
    k, groups = len(p.set_scope()), p.variable_groups
    # k factors whose exponent-1 ones fall in k distinct groups: every
    # factor has exponent 1 and the groups are the whole set-scope
    return all(len(m) == k and len({groups[f] for f, e in m if e == 1}) == k for m in p.terms)


def multilinear_identity_test(p: SparsePolynomial, q: SparsePolynomial) -> bool:
    """Decide p == q as polynomials; both inputs must be multilinear.

    Term maps are canonical (sorted monomials, like terms collected, no
    zero coefficients), so p == q exactly when the term maps are equal.
    """
    if not is_multilinear(p) or not is_multilinear(q):
        raise SpnError("identity test requires multilinear polynomials")
    return p.terms == q.terms
