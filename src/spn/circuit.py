"""Arithmetic-circuit IR: construction, scopes, metrics, evaluation, JSON I/O.

A circuit is a DAG of leaf / constant / sum / product nodes in topological
order over finite discrete variables.  Leaf nodes compute univariate
functions given as tables over their variable's domain; sum edges carry
weights.  Monotone circuits (the default) require all weights, constants
and leaf values to be non-negative; the `extended` flag lifts that
restriction.  All arithmetic is exact: values are Python ints/Fractions.

Circuits are immutable after construction and safe to share across
threads for evaluation and analysis.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .errors import (
    CircuitStructureError,
    CycleError,
    DomainError,
    MonotonicityError,
    SerializationError,
    UnknownVariableError,
)

Rational = Union[int, Fraction]


def as_fraction(value) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise DomainError(f"not an exact rational: {value!r}")


def format_rational(value) -> str:
    """Render a rational as 'p' or 'p/q' for JSON documents."""
    return str(as_fraction(value))


def _fast(value: Fraction):
    # Unwrap integral Fractions so hot loops run on plain ints.
    if value.denominator == 1:
        return value.numerator
    return value


@dataclass(frozen=True)
class VariableSpec:
    """A variable with a finite ordered domain of distinct rationals."""

    id: int
    domain: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.domain) == 0:
            raise DomainError(f"variable {self.id}: empty domain")
        if len(set(self.domain)) != len(self.domain):
            raise DomainError(f"variable {self.id}: duplicate domain values")

    @property
    def nontrivial(self) -> bool:
        return len(self.domain) >= 2


@dataclass(frozen=True)
class LeafFunction:
    """A univariate function of one variable, given as a table over its domain."""

    id: int
    variable: int
    table: dict[Fraction, Fraction]
    name: str | None = None


@dataclass(frozen=True)
class LeafNode:
    id: int
    leaf_function: int


@dataclass(frozen=True)
class ConstantNode:
    id: int
    value: Fraction


@dataclass(frozen=True)
class SumNode:
    id: int
    children: tuple[int, ...]
    weights: tuple[Fraction, ...]


@dataclass(frozen=True)
class ProductNode:
    id: int
    children: tuple[int, ...]


Node = Union[LeafNode, ConstantNode, SumNode, ProductNode]


@dataclass(frozen=True)
class CircuitMetrics:
    size: int
    depth: int
    product_depth: int
    is_formula: bool


def node_children(node: Node) -> tuple[int, ...]:
    if isinstance(node, (SumNode, ProductNode)):
        return node.children
    return ()


class Circuit:
    """Immutable arithmetic circuit over finite discrete variables."""

    def __init__(
        self,
        variables: Sequence[VariableSpec],
        leaf_functions: Sequence[LeafFunction],
        nodes: Sequence[Node],
        root: int,
        extended: bool = False,
    ):
        self.variables = tuple(variables)
        self.leaf_functions = tuple(leaf_functions)
        self.nodes = tuple(nodes)
        self.root = root
        self.extended = extended
        self._validate()
        self._scopes = None
        self._plan = None

    # -- validation ------------------------------------------------------

    def _validate(self):
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
            if not self.extended and any(v < 0 for v in f.table.values()):
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
                if not self.extended and node.value < 0:
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
                    if not self.extended and any(w < 0 for w in node.weights):
                        raise MonotonicityError(f"node {i}: negative weight in monotone circuit")
        if not (0 <= self.root < n_nodes):
            raise CircuitStructureError(f"root {self.root} out of range")
        has_parent = set()
        for node in self.nodes:
            has_parent.update(node_children(node))
        if self.root in has_parent:
            raise CircuitStructureError("root must have no parents")

    # -- scopes ----------------------------------------------------------

    def scopes(self) -> dict[int, tuple[frozenset[int], frozenset[int]]]:
        """Per node: (scope as leaf-function ids, dependency-scope as variable ids)."""
        if self._scopes is None:
            out = {}
            for node in self.nodes:
                if isinstance(node, LeafNode):
                    f = self.leaf_functions[node.leaf_function]
                    out[node.id] = (frozenset([f.id]), frozenset([f.variable]))
                elif isinstance(node, ConstantNode):
                    out[node.id] = (frozenset(), frozenset())
                else:
                    fs: set[int] = set()
                    vs: set[int] = set()
                    for c in node.children:
                        cf, cv = out[c]
                        fs |= cf
                        vs |= cv
                    out[node.id] = (frozenset(fs), frozenset(vs))
            self._scopes = out
        return self._scopes

    def dependency_scope(self, node: int | None = None) -> frozenset[int]:
        """Variable ids a node's output depends on (default: the root)."""
        return self.scopes()[self.root if node is None else node][1]

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
        # Compiled once per circuit: per node an instruction with integral
        # Fractions unwrapped to ints and leaf tables as tuples indexed by
        # domain position, plus per variable a map value -> (position,).
        if self._plan is None:
            steps = []
            for node in self.nodes:
                if isinstance(node, LeafNode):
                    f = self.leaf_functions[node.leaf_function]
                    domain = self.variables[f.variable].domain
                    steps.append(("leaf", f.variable, tuple(_fast(f.table[x]) for x in domain)))
                elif isinstance(node, ConstantNode):
                    steps.append(("const", _fast(node.value), None))
                elif isinstance(node, SumNode):
                    steps.append(("sum", list(zip(node.children, map(_fast, node.weights))), None))
                else:
                    steps.append(("prod", node.children, None))
            positions = [{_fast(x): (i,) for i, x in enumerate(v.domain)} for v in self.variables]
            self._plan = (steps, positions)
        return self._plan

    def _normalize_assignment(self, assignment) -> Mapping:
        if isinstance(assignment, Mapping):
            return assignment
        if isinstance(assignment, Sequence):
            return dict(enumerate(assignment))
        raise UnknownVariableError("assignment must be a mapping or a sequence")

    def position(self, var: int, value) -> int:
        """Index of `value` in the domain of variable `var`; DomainError if absent."""
        try:
            return self._eval_plan()[1][var][value][0]
        except (KeyError, TypeError):
            raise DomainError(f"value {value} not in domain of variable {var}") from None

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
                raise UnknownVariableError(f"unknown variable {var}")
        positions = self._eval_plan()[1]
        selection = [(0,)] * n
        for var in self.dependency_scope():
            if var not in assignment:
                raise UnknownVariableError(f"assignment misses variable {var}")
            try:
                selection[var] = positions[var][assignment[var]]
            except (KeyError, TypeError):
                raise DomainError(f"value {assignment[var]} not in domain of variable {var}") from None
        return selection

    def check_assignment(self, assignment) -> Mapping:
        """Validate that an assignment covers the dependency-scope with in-domain values."""
        assignment = self._normalize_assignment(assignment)
        self.select(assignment)
        return assignment

    def evaluate(self, assignment) -> Rational:
        """One bottom-up pass computing the circuit output at a full assignment."""
        return self.evaluate_selection(self.select(assignment))[self.root]

    def evaluate_selection(self, selection) -> list:
        """Bottom-up evaluation where a leaf over variable v sums its table at
        the domain positions `selection[v]`.

        A point selects one position per variable; a marginal query selects
        its integration set, so the leaf contributes a partial sum.  This is
        the one evaluation loop of the package.  Returns the full per-node
        value list.
        """
        steps = self._eval_plan()[0]
        values = [0] * len(steps)
        for i, (kind, a, b) in enumerate(steps):
            if kind == "leaf":
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


class CircuitBuilder:
    """Incremental circuit construction enforcing topological numbering."""

    def __init__(self, extended: bool = False):
        self.extended = extended
        self._variables: list[VariableSpec] = []
        self._leaf_functions: list[LeafFunction] = []
        self._nodes: list[Node] = []

    def variable(self, domain: Iterable) -> int:
        vid = len(self._variables)
        self._variables.append(VariableSpec(vid, tuple(as_fraction(v) for v in domain)))
        return vid

    def leaf_function(self, variable: int, table: Mapping, name: str | None = None) -> int:
        fid = len(self._leaf_functions)
        tbl = {as_fraction(k): as_fraction(v) for k, v in table.items()}
        self._leaf_functions.append(LeafFunction(fid, variable, tbl, name))
        return fid

    def leaf(self, leaf_function: int) -> int:
        nid = len(self._nodes)
        self._nodes.append(LeafNode(nid, leaf_function))
        return nid

    def constant(self, value) -> int:
        nid = len(self._nodes)
        self._nodes.append(ConstantNode(nid, as_fraction(value)))
        return nid

    def sum(self, weighted_children: Iterable[tuple[int, object]]) -> int:
        nid = len(self._nodes)
        pairs = [(c, as_fraction(w)) for c, w in weighted_children]
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
            nodes.append({"id": node.id, "kind": "constant", "value": format_rational(node.value)})
        elif isinstance(node, SumNode):
            nodes.append(
                {
                    "id": node.id,
                    "kind": "sum",
                    "children": list(node.children),
                    "weights": [format_rational(w) for w in node.weights],
                }
            )
        else:
            nodes.append({"id": node.id, "kind": "product", "children": list(node.children)})
    return {
        "variables": [
            {"id": v.id, "domain": [format_rational(x) for x in v.domain]}
            for v in circuit.variables
        ],
        "leaf_functions": [
            {
                "id": f.id,
                "variable": f.variable,
                "table": {
                    format_rational(k): format_rational(f.table[k])
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


def _checked(value, kind: type, where: str):
    """`value` as JSON type `kind` (Fraction: an int or 'p/q' string, converted;
    list: a list or, from Python callers, a tuple).

    Raises SerializationError naming the document path `where` otherwise.
    """
    if kind is Fraction:
        if isinstance(value, (int, str, Fraction)) and not isinstance(value, bool):
            try:
                return as_fraction(value)
            except (ValueError, ZeroDivisionError):
                pass
    elif kind is list:
        if isinstance(value, (list, tuple)):
            return value
    elif isinstance(value, kind) and not (kind is int and isinstance(value, bool)):
        return value
    raise SerializationError(f"{where}: expected {_JSON_KINDS[kind]}, got {value!r:.40}")


def _field(obj: dict, key: str, kind: type, where: str):
    where = f"{where}.{key}" if where else key
    if key not in obj:
        raise SerializationError(f"{where}: missing")
    return _checked(obj[key], kind, where)


def _array(obj: dict, key: str, kind: type, where: str) -> list:
    items = _field(obj, key, list, where)
    where = f"{where}.{key}" if where else key
    return [_checked(x, kind, f"{where}[{i}]") for i, x in enumerate(items)]


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
            _checked(k, Fraction, f"{where}.table"): _checked(x, Fraction, f"{where}.table.{k}")
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
    except json.JSONDecodeError as exc:
        raise SerializationError(f"invalid JSON: {exc}") from exc
    return from_json_dict(doc)
