"""Exact sparse polynomial expansion of circuit outputs.

Monomials are canonical sorted tuples of (leaf-function id, exponent)
with positive exponents; a polynomial maps monomials to non-zero
rational coefficients, plus the grouping of leaf functions by variable
that set-multilinearity is judged against.  The zero polynomial is the
empty term map.
"""

from __future__ import annotations

from fractions import Fraction

from .circuit import Circuit, ConstantNode, LeafNode, SumNode, as_fraction
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
        self.terms = {m: as_fraction(c) for m, c in terms.items() if c != 0}
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
        total = Fraction(0)
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

    Raises TermExplosionError when the number of distinct monomials at any
    intermediate node exceeds `max_terms`.
    """
    groups = {f.id: f.variable for f in circuit.leaf_functions}
    needed = circuit.reachable()
    polys: dict[int, dict[Monomial, Fraction]] = {}
    for nd in circuit.nodes:
        if nd.id not in needed:
            continue
        if isinstance(nd, LeafNode):
            polys[nd.id] = {((nd.leaf_function, 1),): Fraction(1)}
        elif isinstance(nd, ConstantNode):
            polys[nd.id] = {ONE: Fraction(nd.value)} if nd.value != 0 else {}
        elif isinstance(nd, SumNode):
            acc: dict[Monomial, Fraction] = {}
            for c, w in zip(nd.children, nd.weights):
                if w == 0:
                    continue
                for m, coeff in polys[c].items():
                    cur = acc.get(m, Fraction(0)) + w * coeff
                    if cur == 0:
                        acc.pop(m, None)
                    else:
                        acc[m] = cur
            polys[nd.id] = acc
        else:
            acc = {ONE: Fraction(1)}
            for c in nd.children:
                child = polys[c]
                nxt: dict[Monomial, Fraction] = {}
                for m1, c1 in acc.items():
                    for m2, c2 in child.items():
                        m = monomial_mul(m1, m2)
                        cur = nxt.get(m, Fraction(0)) + c1 * c2
                        if cur == 0:
                            nxt.pop(m, None)
                        else:
                            nxt[m] = cur
                    if len(nxt) > max_terms:
                        raise TermExplosionError(
                            f"expansion exceeds {max_terms} monomials at node {nd.id}"
                        )
                acc = nxt
            polys[nd.id] = acc
        if len(polys[nd.id]) > max_terms:
            raise TermExplosionError(f"expansion exceeds {max_terms} monomials at node {nd.id}")
    return SparsePolynomial(polys[circuit.root], groups)


def is_multilinear(p: SparsePolynomial) -> bool:
    """True iff every factor exponent in every monomial is exactly one."""
    return all(e == 1 for m in p.terms for _, e in m)


def is_set_multilinear(p: SparsePolynomial) -> bool:
    """True iff every monomial takes exactly one degree-1 factor from each
    variable group in the polynomial's set-scope."""
    scope_groups = p.set_scope()
    for m in p.terms:
        seen: dict[int, int] = {g: 0 for g in scope_groups}
        for fid, e in m:
            g = p.variable_groups[fid]
            seen[g] = seen.get(g, 0) + e
        if any(count != 1 for count in seen.values()):
            return False
    return True


def multilinear_identity_test(p: SparsePolynomial, q: SparsePolynomial) -> bool:
    """Decide p == q as polynomials; both inputs must be multilinear.

    Term maps are canonical (sorted monomials, like terms collected, no
    zero coefficients), so p == q exactly when the term maps are equal.
    """
    if not is_multilinear(p) or not is_multilinear(q):
        raise SpnError("identity test requires multilinear polynomials")
    return p.terms == q.terms
