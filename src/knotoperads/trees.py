"""Rooted planar trees, their text form, edge contraction and enumeration.

A tree is stored as nested tuples of ordered children.  A childless node
below the root is a leaf; the root vertex itself may be childless (the
0-corolla).  Vertices and edges are addressed by paths: tuples of 0-based
child indices from the root, with ``()`` naming the root vertex.  An edge is
identified with the path of the vertex at its far (deeper) end, so edge
paths are always nonempty.

A contraction morphism is given by its source tree and the set of internal
edges it contracts; :func:`contract_with_map` returns its target and the
map of vertex paths.  Planar labels handed to callers (leaf numbers, the
child labels of :func:`pair_joins`) are 1-based.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import BoundExceededError

Path = tuple[int, ...]

LEAF_TOKEN = "*"

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

    # -- text form ---------------------------------------------------------

    def to_text(self) -> str:
        return _format_node(self.root)

    def __str__(self) -> str:
        return self.to_text()


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


def pair_joins(tree: RpTree) -> dict[tuple[int, int], tuple[Path, int, int]]:
    """The join of every leaf pair i < j (1-based), keyed by (i, j) in
    combinations order, from one walk for the leaf paths: the deepest vertex
    through which both leaves pass, and the 1-based labels of its child
    edges that they lie over (the first below the second, by planarity)."""
    leaves = tree.leaf_paths()
    return {(i + 1, j + 1): _join(leaves[i], leaves[j])
            for i, j in itertools.combinations(range(len(leaves)), 2)}


def _join(p: Path, q: Path) -> tuple[Path, int, int]:
    """The common prefix of two paths that part before either ends (two
    distinct leaves, say), and the 1-based labels of the child edges below
    it that they take."""
    common = 0
    while common < min(len(p), len(q)) and p[common] == q[common]:
        common += 1
    return p[:common], p[common] + 1, q[common] + 1


# -- enumeration ------------------------------------------------------------


def enumerate_trees(n: int, limit: int = 6) -> list[RpTree]:
    """All reduced trees with n leaves, in a deterministic order.

    Reduced means no vertex has exactly one child (the 1-corolla is the
    conventional exception); the non-reduced family is infinite.
    """
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
