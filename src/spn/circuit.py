"""Arithmetic-circuit IR: construction, scopes, metrics, evaluation, JSON I/O.

A circuit is a DAG of leaf / constant / sum / product nodes in topological
order over finite discrete variables.  Leaf nodes compute univariate
functions given as tables over their variable's domain; sum edges carry
weights.  Monotone circuits (the default) require all weights, constants
and leaf values to be non-negative; the `extended` flag lifts that
restriction.  All arithmetic is exact: every value is an int when it is
integral and a Fraction otherwise, from construction on (see `as_rational`).

Circuits are immutable after construction and safe to share across
threads for evaluation and analysis.
"""

from __future__ import annotations

import json
import math
import operator
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import product as iter_product
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .errors import (
    CircuitStructureError,
    CycleError,
    DomainError,
    InstanceTooLargeError,
    MonotonicityError,
    SerializationError,
    UnknownVariableError,
)
from .records import Record

Rational = Union[int, Fraction]
MAX_TABLE_CELLS = 1 << 24  # the most grid points `Circuit.tabulate` fills: what comm_matrix can ask for


def as_rational(value) -> Rational:
    """Coerce ints, Fractions and 'p/q' strings to the IR's exact form: an
    int when integral, a Fraction otherwise."""
    if isinstance(value, str):
        value = _parse_rational(value)
    elif not isinstance(value, (int, Fraction)):
        raise DomainError(f"not an exact rational: {value!r}")
    return value.numerator if value.denominator == 1 else value


@lru_cache(maxsize=1 << 12)
def _parse_rational(text: str) -> Fraction:
    # Documents repeat a few rational strings many times, so each is parsed
    # once.  Fractions are immutable, so sharing one is safe; errors are not
    # cached and raise on every call.
    return Fraction(text)


def _canonical(values) -> bool:
    """Whether every value is in the IR's exact form (see `as_rational`)."""
    for x in values:  # a loop, not all(...): it runs per record and a generator costs 3x here
        if x.__class__ is not int and (x.__class__ is not Fraction or x.denominator == 1):
            return False
    return True


class VariableSpec(Record, namedtuple("VariableSpec", "id domain")):
    """A variable with a finite ordered domain (a tuple) of distinct rationals,
    each an int or a Fraction."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if len(self.domain) == 0:
            raise DomainError(f"variable {self.id}: empty domain")
        if len(set(self.domain)) != len(self.domain):
            raise DomainError(f"variable {self.id}: duplicate domain values")
        return self

    @property
    def nontrivial(self) -> bool:
        return len(self.domain) >= 2


class LeafFunction(Record, namedtuple("LeafFunction", "id variable table name", defaults=(None,))):
    """A univariate function of one variable, given as a table over its domain
    (a dict value -> int or Fraction), with an optional name."""

    __slots__ = ()


class LeafNode(Record, namedtuple("LeafNode", "id leaf_function")):
    __slots__ = ()


class ConstantNode(Record, namedtuple("ConstantNode", "id value")):
    __slots__ = ()


class SumNode(Record, namedtuple("SumNode", "id children weights")):
    """Children ids and their edge weights, two tuples of one length."""

    __slots__ = ()


class ProductNode(Record, namedtuple("ProductNode", "id children")):
    __slots__ = ()


Node = Union[LeafNode, ConstantNode, SumNode, ProductNode]


class CircuitMetrics(Record, namedtuple("CircuitMetrics", "size depth product_depth is_formula")):
    __slots__ = ()


def node_children(node: Node) -> tuple[int, ...]:
    if isinstance(node, (SumNode, ProductNode)):
        return node.children
    return ()


def _canonical_node(node: Node) -> Node:
    """`node`, or a copy with its constant or weights in exact form (see `as_rational`)."""
    if isinstance(node, ConstantNode) and not _canonical((node.value,)):
        return ConstantNode(node.id, as_rational(node.value))
    if isinstance(node, SumNode) and not _canonical(node.weights):
        return SumNode(node.id, node.children, tuple(map(as_rational, node.weights)))
    return node


class Circuit:
    """Immutable arithmetic circuit over finite discrete variables.

    Each value is held as `as_rational` gives it: a record holding a value
    in another exact form (an integral Fraction, a bool, a 'p/q' string) is
    replaced by a converted copy, and the others are kept."""

    def __init__(
        self,
        variables: Sequence[VariableSpec],
        leaf_functions: Sequence[LeafFunction],
        nodes: Sequence[Node],
        root: int,
        extended: bool = False,
    ):
        self.variables = tuple(
            v if _canonical(v.domain) else VariableSpec(v.id, tuple(map(as_rational, v.domain))) for v in variables
        )
        self.leaf_functions = tuple(
            f if _canonical((*f.table, *f.table.values()))
            else LeafFunction(f.id, f.variable, {as_rational(k): as_rational(x) for k, x in f.table.items()}, f.name)
            for f in leaf_functions
        )
        self.nodes = tuple(map(_canonical_node, nodes))
        self.root = root
        self.extended = extended
        self._validate()
        self._scopes = self._plan = None

    # -- validation ------------------------------------------------------

    def _validate(self):
        # Values are ints and Fractions: the sign of `x.numerator` skips Fraction's comparison protocol.
        for i, v in enumerate(self.variables):
            if v.id != i:
                raise CircuitStructureError(f"variable ids must be 0..n-1, got {v.id} at {i}")
        for i, f in enumerate(self.leaf_functions):
            if f.id != i:
                raise CircuitStructureError(f"leaf-function ids must be dense, got {f.id} at {i}")
            if not (0 <= f.variable < len(self.variables)):
                raise CircuitStructureError(f"leaf function {i}: unknown variable {f.variable}")
            domain = self.variables[f.variable].domain
            if set(f.table.keys()) != set(domain):
                raise DomainError(f"leaf function {i}: table keys must equal the domain")
            if not self.extended and any(v.numerator < 0 for v in f.table.values()):
                raise MonotonicityError(f"leaf function {i}: negative value in monotone circuit")
        n_nodes = len(self.nodes)
        if n_nodes == 0:
            raise CircuitStructureError("circuit has no nodes")
        for i, node in enumerate(self.nodes):
            if node.id != i:
                raise CircuitStructureError(f"node ids must be dense, got {node.id} at {i}")
            if isinstance(node, LeafNode):
                if not (0 <= node.leaf_function < len(self.leaf_functions)):
                    raise CircuitStructureError(f"node {i}: unknown leaf function")
            elif isinstance(node, ConstantNode):
                if not self.extended and node.value.numerator < 0:
                    raise MonotonicityError(f"node {i}: negative constant in monotone circuit")
            else:
                if len(node.children) < 1:
                    raise CircuitStructureError(f"node {i}: sum/product needs >= 1 child")
                for c in node.children:
                    if c < 0 or c >= n_nodes:
                        raise CircuitStructureError(f"node {i}: dangling child {c}")
                    if c >= i:
                        raise CycleError(f"node {i}: child {c} violates topological order")
                if isinstance(node, SumNode):
                    if len(node.weights) != len(node.children):
                        raise CircuitStructureError(f"node {i}: weights/children length mismatch")
                    if not self.extended and any(w.numerator < 0 for w in node.weights):
                        raise MonotonicityError(f"node {i}: negative weight in monotone circuit")
        if not (0 <= self.root < n_nodes):
            raise CircuitStructureError(f"root {self.root} out of range")
        has_parent = set()
        for node in self.nodes:
            has_parent.update(node_children(node))
        if self.root in has_parent:
            raise CircuitStructureError("root must have no parents")

    # -- scopes ----------------------------------------------------------

    def scopes(self) -> list[frozenset[int]]:
        """Per node id: its dependency-scope, the variable ids its output depends on.

        Equal scopes are one shared frozenset, so memory grows with the
        number of distinct scopes rather than with the node count.
        """
        if self._scopes is None:
            interned: dict[frozenset[int], frozenset[int]] = {}
            out = []
            for node in self.nodes:
                if isinstance(node, LeafNode):
                    scope = frozenset([self.leaf_functions[node.leaf_function].variable])
                else:
                    scope = frozenset().union(*(out[c] for c in node_children(node)))
                out.append(interned.setdefault(scope, scope))
            self._scopes = out
        return self._scopes

    def dependency_scope(self) -> frozenset[int]:
        """Variable ids the root's output depends on (see `scopes` for other nodes)."""
        return self.scopes()[self.root]

    def reachable(self, node: int | None = None) -> frozenset[int]:
        """Node ids in the subcircuit rooted at `node` (default: the root)."""
        start = self.root if node is None else node
        seen = {start}
        stack = [start]
        while stack:
            for c in node_children(self.nodes[stack.pop()]):
                if c not in seen:
                    seen.add(c)
                    stack.append(c)
        return frozenset(seen)

    # -- metrics ---------------------------------------------------------

    def metrics(self) -> CircuitMetrics:
        depth = [0] * len(self.nodes)
        pdepth = [0] * len(self.nodes)
        out_degree = [0] * len(self.nodes)
        for node in self.nodes:
            kids = node_children(node)
            depth[node.id] = 1 + max((depth[c] for c in kids), default=0)
            pdepth[node.id] = (1 if isinstance(node, ProductNode) else 0) + max(
                (pdepth[c] for c in kids), default=0
            )
            for c in kids:
                out_degree[c] += 1
        return CircuitMetrics(
            size=len(self.nodes),
            depth=max(depth),
            product_depth=max(pdepth),
            is_formula=all(d <= 1 for d in out_degree),
        )

    # -- evaluation ------------------------------------------------------

    def _eval_plan(self):
        # Compiled once per circuit: per node an instruction (a leaf's carries
        # its function's table as a tuple indexed by domain position, one
        # tuple per leaf function), and per variable a map value -> (position,).
        if self._plan is None:
            tables = [None] * len(self.leaf_functions)
            steps = []
            for node in self.nodes:
                if isinstance(node, LeafNode):
                    f = self.leaf_functions[node.leaf_function]
                    if tables[f.id] is None:
                        tables[f.id] = tuple(map(f.table.__getitem__, self.variables[f.variable].domain))
                    steps.append(("leaf", f.variable, tables[f.id]))
                elif isinstance(node, ConstantNode):
                    steps.append(("const", node.value, None))
                elif isinstance(node, SumNode):
                    steps.append(("sum", list(zip(node.children, node.weights)), None))
                else:
                    steps.append(("prod", node.children, None))
            positions = [{x: (i,) for i, x in enumerate(v.domain)} for v in self.variables]
            self._plan = (steps, positions)
        return self._plan

    def _normalize_assignment(self, assignment) -> Mapping:
        if isinstance(assignment, Mapping):
            return assignment
        if isinstance(assignment, Sequence):
            return dict(enumerate(assignment))
        raise UnknownVariableError("assignment must be a mapping or a sequence")

    def position(self, var: int, value) -> int:
        """Index of `value` in the domain of variable `var` (UnknownVariableError / DomainError otherwise)."""
        if not 0 <= var < len(self.variables):
            raise UnknownVariableError(f"unknown variable {var!s:.40}")
        try:
            return self._eval_plan()[1][var][value][0]
        except (KeyError, TypeError):
            raise DomainError(f"value {value!s:.40} not in domain of variable {var}") from None

    def select(self, assignment) -> list[tuple[int, ...]]:
        """Map a point to a selection: per variable, the 1-tuple of its domain position.

        The assignment must cover the dependency-scope with in-domain
        values (UnknownVariableError / DomainError otherwise).  Variables
        outside the dependency-scope select position 0: only leaves the
        root cannot reach read them.
        """
        assignment = self._normalize_assignment(assignment)
        n = len(self.variables)
        for var in assignment:
            if not (0 <= var < n):
                raise UnknownVariableError(f"unknown variable {var!s:.40}")
        positions = self._eval_plan()[1]
        selection = [(0,)] * n
        for var in self.dependency_scope():
            if var not in assignment:
                raise UnknownVariableError(f"assignment misses variable {var}")
            try:
                selection[var] = positions[var][assignment[var]]
            except (KeyError, TypeError):
                raise DomainError(f"value {assignment[var]!s:.40} not in domain of variable {var}") from None
        return selection

    def evaluate(self, assignment) -> Rational:
        """One bottom-up pass computing the circuit output at a full assignment."""
        return self.evaluate_selection(self.select(assignment))[self.root]

    def evaluate_selection(self, selection, grid=None) -> list:
        """Bottom-up evaluation where a leaf over variable v sums its table at
        the domain positions `selection[v]`.

        A point selects one position per variable; a marginal query selects
        its integration set, so the leaf contributes a partial sum.  With
        `grid`, a map variable -> sequence of selections (position sets), a
        leaf over a grid variable instead yields a `NodeTable` of its sums
        over each of those sets, which the sum and product steps combine by
        broadcasting (see `tabulate`).  This is the one evaluation loop of
        the package.  Returns the full per-node value list.
        """
        steps = self._eval_plan()[0]
        values = [0] * len(steps)
        for i, (kind, a, b) in enumerate(steps):
            if kind == "leaf":
                if grid is not None and a in grid:
                    cells = []
                    for positions in grid[a]:
                        acc = 0
                        for p in positions:
                            acc += b[p]
                        cells.append(acc)
                    acc = NodeTable((a,), (len(cells),), cells)
                else:
                    acc = 0
                    for p in selection[a]:
                        acc += b[p]
                values[i] = acc
            elif kind == "const":
                values[i] = a
            elif kind == "sum":
                acc = 0
                for c, w in a:
                    acc += w * values[c]
                values[i] = acc
            else:
                acc = 1
                for c in a:
                    acc *= values[c]
                values[i] = acc
        return values

    def tabulate(self, grid: Mapping[int, Sequence[Sequence[int]]], node: int | None = None) -> list:
        """Values of `node` (default: the root) at every selection of a grid.

        `grid` maps variables to the selections each ranges over, a
        selection being a tuple of domain positions: 1-tuples give points,
        larger sets give the substituted values of the marginal-substitution
        identity (each leaf summed over its variable's set).  Other variables
        sit at domain position 0.  The result is flat in row-major order over
        the grid variables in ascending id order, the last fastest.  One
        `evaluate_selection` pass tabulates each node once over the grid
        variables it depends on; every cell has the value and type of
        `evaluate_selection` at that selection.  InstanceTooLargeError beyond
        MAX_TABLE_CELLS cells.
        """
        vars_ = tuple(sorted(grid))
        sizes = tuple(len(grid[v]) for v in vars_)
        cells = math.prod(sizes)
        if cells > MAX_TABLE_CELLS:
            raise InstanceTooLargeError(f"tabulation over {cells} points exceeds {MAX_TABLE_CELLS}")
        value = self.evaluate_selection([(0,)] * len(self.variables), grid)[self.root if node is None else node]
        if value.__class__ is not NodeTable:
            return [value] * cells
        if value.vars == vars_:
            return value.values
        return [value.values[i] for i in _spread_index(value.vars, value.sizes, vars_, sizes)]

    # -- misc ------------------------------------------------------------

    def iter_assignments(self, variables: Iterable[int] | None = None) -> Iterator[dict]:
        """All assignments over the given variables (default: dependency-scope)."""
        if variables is None:
            variables = sorted(self.dependency_scope())
        else:
            variables = list(variables)
        domains = [self.variables[v].domain for v in variables]
        for combo in iter_product(*domains):
            yield dict(zip(variables, combo))

    def structurally_equal(self, other: "Circuit") -> bool:
        return (
            self.variables == other.variables
            and len(self.leaf_functions) == len(other.leaf_functions)
            and all(
                a.id == b.id and a.variable == b.variable and a.table == b.table
                for a, b in zip(self.leaf_functions, other.leaf_functions)
            )
            and self.nodes == other.nodes
            and self.root == other.root
            and self.extended == other.extended
        )

    def __repr__(self):
        m = self.metrics()
        return (
            f"Circuit(n={len(self.variables)}, size={m.size}, depth={m.depth}, "
            f"root={self.root}, extended={self.extended})"
        )


class NodeTable:
    """A node's exact values over a grid of the variables it depends on.

    `vars` ascending, `sizes` the grid length along each, `values` flat in
    row-major order (the last variable fastest).  Tables combine with
    tables and scalars under + and * by broadcasting over the union of
    their variables, cell by cell with the operands of a point pass, so
    each cell keeps the point pass's int or Fraction type.  With no
    in-place operators, `acc += t` and `acc *= t` build new tables.
    """

    __slots__ = ("vars", "sizes", "values")

    def __init__(self, vars_: tuple[int, ...], sizes: tuple[int, ...], values: list):
        self.vars, self.sizes, self.values = vars_, sizes, values

    def _combine(self, other, op) -> "NodeTable":
        a = self.values
        if other.__class__ is not NodeTable:
            return NodeTable(self.vars, self.sizes, [op(x, other) for x in a])
        b = other.values
        if other.vars == self.vars:
            return NodeTable(self.vars, self.sizes, list(map(op, a, b)))
        vars_, sizes, outer, ca, cb, pick_a, pick_b = _broadcast_plan(self.vars, self.sizes, other.vars, other.sizes)
        if outer is None:  # the union grid fits in one block
            return NodeTable(vars_, sizes, list(map(op, pick_a(a), pick_b(b))))
        out = []
        for oa, ob in zip(_spread_index(*outer[0]), _spread_index(*outer[1])):
            out += map(op, pick_a(a[oa * ca : oa * ca + ca]), pick_b(b[ob * cb : ob * cb + cb]))
        return NodeTable(vars_, sizes, out)

    def __add__(self, other):
        if other.__class__ is int and other == 0:
            return self  # 0 + x is x, type included
        return self._combine(other, operator.add)

    def __mul__(self, other):
        if other.__class__ is int and other == 1:
            return self  # 1 * x is x, type included
        return self._combine(other, operator.mul)

    __radd__ = __add__
    __rmul__ = __mul__


def _spread_index(vars_, sizes, out_vars, out_sizes) -> list[int]:
    """Per point of the grid (out_vars, out_sizes), the index of its
    projection onto the grid (vars_, sizes), whose variables it holds."""
    strides, step = {}, 1
    for v, d in zip(reversed(vars_), reversed(sizes)):
        strides[v] = step
        step *= d
    index = [0]
    for v, d in zip(out_vars, out_sizes):
        s = strides.get(v, 0)
        offsets = range(0, d * s, s) if s else (0,) * d
        index = [i + o for i in index for o in offsets]
    return index


# Plans recur across the nodes of a circuit and across circuits, and each
# holds at most 2 * _BLOCK_CELLS indices, so 256 of them are kept.
_BLOCK_CELLS = 1 << 10


@lru_cache(maxsize=256)
def _broadcast_plan(vars_a, sizes_a, vars_b, sizes_b):
    """How two tables broadcast onto the grid of the union of their variables.

    The union grid's trailing variables, as many as span at most
    `_BLOCK_CELLS` cells, form its inner grid and the rest its outer grid.
    At each outer point a table gives one contiguous block of its values,
    and one alignment of the two blocks onto the inner grid serves every
    outer point.  Returns the union grid; the `_spread_index` arguments
    giving each table's block number per outer point (None when the outer
    grid is empty); each block's length; and per table an `itemgetter` of
    its block's values in inner-grid order.
    """
    grid = dict(zip(vars_a, sizes_a))
    grid.update(zip(vars_b, sizes_b))
    vars_ = tuple(sorted(grid))
    sizes = tuple(grid[v] for v in vars_)
    k, inner = len(vars_), 1
    while k and inner * sizes[k - 1] <= _BLOCK_CELLS:
        k -= 1
        inner *= sizes[k]
    split = vars_[k] if k < len(vars_) else math.inf
    ja, jb = sum(v < split for v in vars_a), sum(v < split for v in vars_b)
    pick_a, pick_b = (
        itemgetter(*index) if len(index) > 1 else tuple  # a one-cell block is in order (and itemgetter(0) is no tuple)
        for index in (
            _spread_index(vars_a[ja:], sizes_a[ja:], vars_[k:], sizes[k:]),
            _spread_index(vars_b[jb:], sizes_b[jb:], vars_[k:], sizes[k:]),
        )
    )
    outer = None
    if k:
        outer = ((vars_a[:ja], sizes_a[:ja], vars_[:k], sizes[:k]), (vars_b[:jb], sizes_b[:jb], vars_[:k], sizes[:k]))
    return vars_, sizes, outer, math.prod(sizes_a[ja:]), math.prod(sizes_b[jb:]), pick_a, pick_b


class CircuitBuilder:
    """Incremental circuit construction enforcing topological numbering."""

    def __init__(self, extended: bool = False):
        self.extended = extended
        self._variables: list[VariableSpec] = []
        self._leaf_functions: list[LeafFunction] = []
        self._nodes: list[Node] = []

    def variable(self, domain: Iterable) -> int:
        vid = len(self._variables)
        self._variables.append(VariableSpec(vid, tuple(map(as_rational, domain))))
        return vid

    def leaf_function(self, variable: int, table: Mapping, name: str | None = None) -> int:
        fid = len(self._leaf_functions)
        tbl = {as_rational(k): as_rational(v) for k, v in table.items()}
        self._leaf_functions.append(LeafFunction(fid, variable, tbl, name))
        return fid

    def leaf(self, leaf_function: int) -> int:
        nid = len(self._nodes)
        self._nodes.append(LeafNode(nid, leaf_function))
        return nid

    def constant(self, value) -> int:
        nid = len(self._nodes)
        self._nodes.append(ConstantNode(nid, as_rational(value)))
        return nid

    def sum(self, weighted_children: Iterable[tuple[int, object]]) -> int:
        nid = len(self._nodes)
        pairs = [(c, as_rational(w)) for c, w in weighted_children]
        self._nodes.append(
            SumNode(nid, tuple(c for c, _ in pairs), tuple(w for _, w in pairs))
        )
        return nid

    def product(self, children: Iterable[int]) -> int:
        nid = len(self._nodes)
        self._nodes.append(ProductNode(nid, tuple(children)))
        return nid

    def build(self, root: int) -> Circuit:
        return Circuit(self._variables, self._leaf_functions, self._nodes, root, self.extended)


# -- JSON interchange ------------------------------------------------------


def to_json_dict(circuit: Circuit) -> dict:
    nodes = []
    for node in circuit.nodes:
        if isinstance(node, LeafNode):
            nodes.append({"id": node.id, "kind": "leaf", "leaf_function": node.leaf_function})
        elif isinstance(node, ConstantNode):
            nodes.append({"id": node.id, "kind": "constant", "value": str(node.value)})
        elif isinstance(node, SumNode):
            nodes.append(
                {
                    "id": node.id,
                    "kind": "sum",
                    "children": list(node.children),
                    "weights": [str(w) for w in node.weights],
                }
            )
        else:
            nodes.append({"id": node.id, "kind": "product", "children": list(node.children)})
    return {
        "variables": [
            {"id": v.id, "domain": [str(x) for x in v.domain]}
            for v in circuit.variables
        ],
        "leaf_functions": [
            {
                "id": f.id,
                "variable": f.variable,
                "table": {
                    str(k): str(f.table[k])
                    for k in circuit.variables[f.variable].domain
                },
                **({"name": f.name} if f.name else {}),
            }
            for f in circuit.leaf_functions
        ],
        "nodes": nodes,
        "root": circuit.root,
        "extended": circuit.extended,
    }


_JSON_KINDS = {int: "an integer", str: "a string", list: "an array", dict: "an object", Fraction: "an exact rational"}


def _checked(value, kind: type, where: str, *where_args):
    """`value` as JSON type `kind` (Fraction: an int or 'p/q' string, as
    `as_rational` converts it; list: a list or, from Python callers, a tuple
    that is not a record).

    Raises SerializationError naming the document path `where` otherwise,
    `where % where_args` when arguments are given, so a path is formatted
    only for a value that fails.
    """
    if kind is Fraction:
        if isinstance(value, (int, str, Fraction)) and not isinstance(value, bool):
            try:
                return as_rational(value)
            except (ValueError, ZeroDivisionError):
                pass
    elif kind is list:
        if isinstance(value, (list, tuple)) and not isinstance(value, Record):
            return value
    elif isinstance(value, kind) and not (kind is int and isinstance(value, bool)):
        return value
    if where_args:
        where = where % where_args
    raise SerializationError(f"{where}: expected {_JSON_KINDS[kind]}, got {value!r:.40}")


def _field(obj: dict, key: str, kind: type, where: str):
    where = f"{where}.{key}" if where else key
    if key not in obj:
        raise SerializationError(f"{where}: missing")
    return _checked(obj[key], kind, where)


def _array(obj: dict, key: str, kind: type, where: str) -> list:
    items = _field(obj, key, list, where)
    where = f"{where}.{key}" if where else key
    return [_checked(x, kind, "%s[%d]", where, i) for i, x in enumerate(items)]


def from_json_dict(doc: dict) -> Circuit:
    """Circuit from its JSON document; SerializationError names the first malformed field."""
    if not isinstance(doc, dict):
        raise SerializationError("circuit document must be a JSON object")
    extended = bool(doc.get("extended", False))
    variables = []
    for i, v in enumerate(_array(doc, "variables", dict, "")):
        where = f"variables[{i}]"
        variables.append(
            VariableSpec(_field(v, "id", int, where), tuple(_array(v, "domain", Fraction, where)))
        )
    leaf_functions = []
    for i, f in enumerate(_array(doc, "leaf_functions", dict, "")):
        where = f"leaf_functions[{i}]"
        table = {
            _checked(k, Fraction, "%s.table", where): _checked(x, Fraction, "%s.table.%s", where, k)
            for k, x in _field(f, "table", dict, where).items()
        }
        name = f.get("name")
        if name is not None:
            _checked(name, str, f"{where}.name")
        leaf_functions.append(
            LeafFunction(_field(f, "id", int, where), _field(f, "variable", int, where), table, name)
        )
    nodes: list[Node] = []
    for i, nd in enumerate(_array(doc, "nodes", dict, "")):
        where = f"nodes[{i}]"
        nid, kind = _field(nd, "id", int, where), _field(nd, "kind", str, where)
        if kind == "leaf":
            nodes.append(LeafNode(nid, _field(nd, "leaf_function", int, where)))
        elif kind == "constant":
            nodes.append(ConstantNode(nid, _field(nd, "value", Fraction, where)))
        elif kind == "sum":
            children = tuple(_array(nd, "children", int, where))
            nodes.append(SumNode(nid, children, tuple(_array(nd, "weights", Fraction, where))))
        elif kind == "product":
            nodes.append(ProductNode(nid, tuple(_array(nd, "children", int, where))))
        else:
            raise SerializationError(f"{where}.kind: unknown node kind {kind!r}")
    return Circuit(variables, leaf_functions, nodes, _field(doc, "root", int, ""), extended)


def serialize(circuit: Circuit, indent: int | None = None) -> str:
    return json.dumps(to_json_dict(circuit), indent=indent, sort_keys=True)


def deserialize(text: str) -> Circuit:
    try:
        doc = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer literal past the int/str digit limit
        raise SerializationError(f"invalid JSON: {exc}") from exc
    return from_json_dict(doc)
