"""Rooted planar trees and their edge-contraction morphisms.

A tree is stored as nested tuples of ordered children.  A childless node
below the root is a leaf; the root vertex itself may be childless (the
0-corolla).  Vertices and edges are addressed by paths: tuples of 0-based
child indices from the root, with ``()`` naming the root vertex.  An edge is
identified with the path of the vertex at its far (deeper) end, so edge
paths are always nonempty.

Planar labels handed to callers (leaf numbers, the two labels returned by
:func:`join_vertex`) are 1-based.
"""

from __future__ import annotations

import itertools
import json
import reprlib
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import BoundExceededError

Path = tuple[int, ...]

LEAF_TOKEN = "*"
LEAF_JSON = "leaf"

#: deepest vertex nesting parse_tree accepts, well inside the interpreter's
#: recursion limit that the recursive tree walks below run under
MAX_TREE_DEPTH = 256


@dataclass(frozen=True)
class RpTree:
    """An isomorphism class of rooted planar trees.

    ``root`` is the nested-tuple encoding of the root vertex's children.
    Two trees are equal iff their encodings are equal.
    """

    root: tuple = ()

    def __post_init__(self) -> None:
        _validate_node(self.root)

    # -- structure queries -------------------------------------------------

    def node_at(self, path: Path) -> tuple:
        node = self.root
        for idx in path:
            if not isinstance(node, tuple) or idx >= len(node):
                raise ValueError(f"no vertex at path {path!r}")
            node = node[idx]
        return node

    def is_leaf(self, path: Path) -> bool:
        return bool(path) and self.node_at(path) == ()

    def arity(self, path: Path) -> int:
        """Number of child edges of the vertex at ``path``."""
        if self.is_leaf(path):
            raise ValueError(f"path {path!r} is a leaf, not a vertex")
        return len(self.node_at(path))

    def vertices(self) -> list[Path]:
        """All non-leaf vertex paths (the root first, depth-first order)."""
        out = []

        def walk(node: tuple, path: Path) -> None:
            if path and node == ():
                return
            out.append(path)
            for idx, child in enumerate(node):
                walk(child, path + (idx,))

        walk(self.root, ())
        return out

    def edges(self) -> list[Path]:
        """All edge paths in depth-first planar order."""
        out = []

        def walk(node: tuple, path: Path) -> None:
            for idx, child in enumerate(node):
                cpath = path + (idx,)
                out.append(cpath)
                walk(child, cpath)

        walk(self.root, ())
        return out

    def internal_edges(self) -> list[Path]:
        """Edges whose far vertex is not a leaf (the contractible ones)."""
        return [e for e in self.edges() if self.node_at(e) != ()]

    def leaf_paths(self) -> list[Path]:
        """Paths of the leaves, in planar (depth-first) order."""
        return [e for e in self.edges() if self.node_at(e) == ()]

    @property
    def leaf_count(self) -> int:
        return len(self.leaf_paths())

    def is_reduced(self) -> bool:
        """True iff no vertex has exactly one child, except the 1-corolla."""
        if self.root == ((),):
            return True
        return all(len(self.node_at(v)) != 1 for v in self.vertices())

    # -- text / JSON forms -------------------------------------------------

    def to_text(self) -> str:
        return _format_node(self.root)

    def __str__(self) -> str:
        return self.to_text()

    def to_json_obj(self) -> dict:
        def conv(node: tuple, is_root: bool):
            if not is_root and node == ():
                return LEAF_JSON
            return {"children": [conv(c, False) for c in node]}

        return conv(self.root, True)

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())

    @staticmethod
    def from_json_obj(obj) -> "RpTree":
        """Inverse of :meth:`to_json_obj`.  Vertices may nest at most
        :data:`MAX_TREE_DEPTH` deep, as in :func:`parse_tree`; deeper input
        raises :class:`BoundExceededError`."""
        if obj == LEAF_JSON:
            raise ValueError("the root vertex cannot be a leaf")

        def children(item):
            if not isinstance(item, dict) or set(item) != {"children"} \
                    or not isinstance(item["children"], (list, tuple)):
                raise ValueError("malformed tree JSON node: "
                                 f"{reprlib.repr(item)}")
            return iter(item["children"])

        end = object()
        # one (unread children, converted children) pair per open vertex
        stack = [(children(obj), [])]
        while True:
            pending, done = stack[-1]
            item = next(pending, end)
            if item is end:
                stack.pop()
                if not stack:
                    return RpTree(tuple(done))
                stack[-1][1].append(tuple(done))
            elif item == LEAF_JSON:
                done.append(())
            elif len(stack) == MAX_TREE_DEPTH:
                raise BoundExceededError(
                    f"tree nesting exceeds the depth bound {MAX_TREE_DEPTH}")
            else:
                stack.append((children(item), []))

    @staticmethod
    def from_json(text: str) -> "RpTree":
        try:
            obj = json.loads(text)
        except RecursionError:
            raise BoundExceededError(
                "tree JSON nested beyond the decoder's depth limit") from None
        return RpTree.from_json_obj(obj)


def _validate_node(node) -> None:
    if not isinstance(node, tuple):
        raise ValueError(f"tree nodes must be tuples, got {type(node).__name__}")
    for child in node:
        _validate_node(child)


def _format_node(node: tuple) -> str:
    parts = []
    for child in node:
        parts.append(LEAF_TOKEN if child == () else _format_node(child))
    return "(" + " ".join(parts) + ")"


def parse_tree(text: str) -> RpTree:
    """Parse the canonical text form: leaf ``*``, vertex ``( child ... )``.

    The top level must be a parenthesized vertex (the root).  Vertices may
    nest at most :data:`MAX_TREE_DEPTH` deep, root included; deeper text
    raises :class:`BoundExceededError`, since the tree operations recurse
    along the depth.
    """
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    stack: list[list] = []  # children collected so far, one list per open vertex
    root = None
    for pos, tok in enumerate(tokens):
        if root is not None:
            raise ValueError(f"trailing tokens in {text!r}")
        if tok == "(":
            if len(stack) == MAX_TREE_DEPTH:
                raise BoundExceededError(
                    f"tree nesting exceeds the depth bound {MAX_TREE_DEPTH}")
            stack.append([])
        elif stack and tok == ")":
            node = tuple(stack.pop())
            if stack:
                stack[-1].append(node)
            else:
                root = node
        elif stack and tok == LEAF_TOKEN:
            stack[-1].append(())
        else:
            raise ValueError(f"expected '(' at token {pos} of {text!r}")
    if root is None:
        raise ValueError(f"unbalanced parentheses in {text!r}")
    return RpTree(root)


def corolla(n: int) -> RpTree:
    """The tree with a single vertex and n leaves."""
    if n < 0:
        raise ValueError("corolla arity must be non-negative")
    return RpTree(((),) * n)


# -- contraction ------------------------------------------------------------


def contract_with_map(tree: RpTree, edges: Iterable[Path]) -> tuple[RpTree, dict[Path, Path]]:
    """Contract a set of internal edges.

    Returns the contracted tree and the path map sending every vertex of the
    source (including leaves and the root) to its image vertex.  A contracted
    vertex maps to the merged vertex it is absorbed into.
    """
    contracted = frozenset(tuple(e) for e in edges)
    for e in contracted:
        if not e:
            raise ValueError("the root is a vertex, not a contractible edge")
        if tree.is_leaf(e):
            raise ValueError(f"cannot contract leaf edge {e!r}")
        tree.node_at(e)  # raises on unknown path

    mapping: dict[Path, Path] = {(): ()}
    new_root = _rebuild(tree.root, (), (), contracted, mapping)
    for e in contracted:
        # a merged vertex lands on its nearest surviving ancestor
        anc = e[:-1]
        while anc and anc in contracted:
            anc = anc[:-1]
        mapping[e] = mapping[anc]
    return RpTree(new_root), mapping


def _rebuild(node: tuple, old_path: Path, new_path: Path,
             contracted: frozenset, mapping: dict[Path, Path]) -> tuple:
    """Rebuild the tree, splicing contracted vertices into their parents."""
    out: list[tuple] = []

    def emit_children(node: tuple, old_path: Path) -> None:
        for idx, child in enumerate(node):
            op = old_path + (idx,)
            if op in contracted:
                emit_children(child, op)
            else:
                np_ = new_path + (len(out),)
                mapping[op] = np_
                out.append(_rebuild(child, op, np_, contracted, mapping))

    emit_children(node, old_path)
    return tuple(out)


def contract(tree: RpTree, edges: Iterable[Path]) -> RpTree:
    return contract_with_map(tree, edges)[0]


@dataclass(frozen=True)
class TreeMorphism:
    """An edge-contraction morphism, determined by its source tree and the
    set of (internal) edges it contracts."""

    source: RpTree
    contracted: frozenset[Path] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        object.__setattr__(self, "contracted", frozenset(tuple(e) for e in self.contracted))
        target, mapping = contract_with_map(self.source, self.contracted)
        object.__setattr__(self, "_target", target)
        object.__setattr__(self, "_vertex_map", mapping)

    @property
    def target(self) -> RpTree:
        return self._target

    @property
    def vertex_map(self) -> dict[Path, Path]:
        """Source vertex path -> target vertex path (total, incl. leaves)."""
        return dict(self._vertex_map)

    @property
    def edge_map(self) -> dict[Path, Path]:
        """Surviving source edge -> target edge (a bijection)."""
        return {p: q for p, q in self._vertex_map.items()
                if p and p not in self.contracted}

    def then(self, other: "TreeMorphism") -> "TreeMorphism":
        """The composite ``other after self`` (source = self.source)."""
        if other.source != self.target:
            raise ValueError("morphisms are not composable")
        inv = {q: p for p, q in self.edge_map.items()}
        lifted = frozenset(inv[e] for e in other.contracted)
        return TreeMorphism(self.source, self.contracted | lifted)

    def is_identity(self) -> bool:
        return not self.contracted


def to_corolla(tree: RpTree) -> TreeMorphism:
    """The morphism contracting every internal edge."""
    return TreeMorphism(tree, frozenset(tree.internal_edges()))


def join_vertex(tree: RpTree, i: int, j: int) -> tuple[Path, int, int]:
    """The deepest vertex through which leaves i and j (1-based, i != j) both
    pass, together with the 1-based planar labels of the child edges of that
    vertex the two leaves lie over.

    Symmetric in i and j up to swapping the returned labels; planarity gives
    label(i) < label(j) whenever i < j.
    """
    leaves = tree.leaf_paths()
    if i == j or not (1 <= i <= len(leaves) and 1 <= j <= len(leaves)):
        raise ValueError(f"need distinct leaf labels in 1..{len(leaves)}, got ({i}, {j})")
    return _join(leaves[i - 1], leaves[j - 1])


def pair_joins(tree: RpTree) -> dict[tuple[int, int], tuple[Path, int, int]]:
    """join_vertex(tree, i, j) for every leaf pair i < j, keyed by (i, j) in
    combinations order, from one walk for the leaf paths."""
    leaves = tree.leaf_paths()
    return {(i + 1, j + 1): _join(leaves[i], leaves[j])
            for i, j in itertools.combinations(range(len(leaves)), 2)}


def _join(p: Path, q: Path) -> tuple[Path, int, int]:
    """The common prefix of two distinct leaf paths, and the 1-based labels of
    the child edges below it that they take."""
    common = 0
    while common < min(len(p), len(q)) and p[common] == q[common]:
        common += 1
    return p[:common], p[common] + 1, q[common] + 1


def graft(n: int, i: int, m: int) -> TreeMorphism:
    """The two-vertex composition tree: an m-corolla grafted onto leaf i of
    an n-corolla, with its unique internal edge contracted.

    Target is the (n+m-1)-corolla.  m = 0 is not representable at tree level
    (a childless non-root vertex reads as a leaf), so m >= 1 is required.
    """
    if n < 1 or m < 1:
        raise ValueError("graft needs n >= 1 and m >= 1")
    if not (1 <= i <= n):
        raise ValueError(f"graft position must satisfy 1 <= i <= {n}, got {i}")
    children = [()] * n
    children[i - 1] = ((),) * m
    return TreeMorphism(RpTree(tuple(children)), frozenset({(i - 1,)}))


# -- enumeration ------------------------------------------------------------


def enumerate_trees(n: int, reduced: bool = True, limit: int = 6) -> list[RpTree]:
    """All reduced trees with n leaves, in a deterministic order.

    Reduced means no vertex has exactly one child (the 1-corolla is the
    conventional exception).  The non-reduced family is infinite, so
    ``reduced=False`` is rejected.
    """
    if not reduced:
        raise ValueError("non-reduced trees form an infinite family")
    if n < 0:
        raise ValueError("leaf count must be non-negative")
    if n > limit:
        raise BoundExceededError(f"enumerate_trees bound exceeded: {n} > {limit}")
    if n == 0:
        return [RpTree(())]
    if n == 1:
        return [corolla(1)]
    return [RpTree(node) for node in _reduced_nodes(n)]


def _reduced_nodes(k: int) -> Iterator[tuple]:
    """Nodes of reduced subtrees with k >= 1 leaves (a leaf when k == 1)."""
    if k == 1:
        yield ()
        return
    for r in range(2, k + 1):
        for comp in _compositions(k, r):
            for kids in itertools.product(*[list(_reduced_nodes(c)) for c in comp]):
                yield tuple(kids)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Ordered positive integer compositions of ``total`` into ``parts``."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest
