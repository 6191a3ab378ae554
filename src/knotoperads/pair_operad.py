"""The choose-two operad of pointed pair sets, and the simplicial model of
the two-sphere it reproduces.

The operad assigns to arity n the pointed set of unordered leaf pairs
{(i, j) : 1 <= i < j <= n} plus a basepoint "+", and to a tree the wedge of
those sets over its vertices.  It lives in the opposite category of finite
pointed sets, so every induced map is stored as an honest function written
target-to-source.

Value encodings:
  corolla-level element: "+" or a tuple (i, j) with i < j;
  tree-level element:    "+" or (vertex path, (a, b)) with a < b child labels.
"""

from __future__ import annotations

import functools
import itertools

from .operad_core import (
    CheckReport,
    OperadInstance,
    check_cosimplicial_identities,
    cosimplicial_from_operad,
)
from .trees import RpTree, _join, contract_with_map, enumerate_trees, pair_joins

BASEPOINT = "+"


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


def _pairs(n: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(1, n + 1), 2))


def b_elements(n: int) -> list:
    """The arity-n value: basepoint plus all ordered index pairs."""
    return [BASEPOINT] + _pairs(n)


def b_tree_elements(tree: RpTree) -> list:
    """The value on a tree: basepoint plus a pair block per vertex."""
    out = [BASEPOINT]
    for v in tree.vertices():
        k = tree.arity(v)
        out.extend((v, (a, b)) for a, b in itertools.combinations(range(1, k + 1), 2))
    return out


def b_structure_map(tree: RpTree) -> dict:
    """The function induced by the full contraction onto the corolla.

    Sends a leaf pair (i, j) to the pair of child labels at the join vertex
    of leaves i and j; never hits the basepoint on actual pairs.
    """
    fn = {BASEPOINT: BASEPOINT}
    for p, (v, a, b) in pair_joins(tree).items():
        fn[p] = (v, (a, b))
    return fn


def b_morphism_map(tree: RpTree, edges) -> tuple[dict, RpTree]:
    """The function induced by contracting the internal ``edges`` of tree,
    target to source, and the contracted tree.

    A pair of child edges at a target vertex pulls back to two source edges;
    the image element sits at their join, which necessarily contracts onto
    the target vertex.
    """
    edges = frozenset(edges)
    tgt, mapping = contract_with_map(tree, edges)
    # each target edge is the image of exactly one surviving source edge
    inv = {q: p for p, q in mapping.items() if p not in edges}
    fn = {BASEPOINT: BASEPOINT}
    for w in tgt.vertices():
        k = tgt.arity(w)
        for a, b in itertools.combinations(range(1, k + 1), 2):
            v, c, d = _join(inv[w + (a - 1,)], inv[w + (b - 1,)])
            fn[(w, (a, b))] = (v, (c, d))
    return fn, tgt


# -- the simplicial two-sphere ------------------------------------------------


def s2_elements(n: int) -> list:
    return b_elements(n)


def s2_face(n: int, i: int) -> dict:
    """Face d_i: level n -> n-1.  Both indices relabel under the i-th ordinal
    surjection; a pair dies to the basepoint when the relabeled indices
    collide or leave the range 1..n-1."""
    if n < 1 or not 0 <= i <= n:
        raise ValueError(f"face index {i} out of range at level {n}")
    fn = {BASEPOINT: BASEPOINT}
    for j, k in _pairs(n):
        jj = j if j <= i else j - 1
        kk = k if k <= i else k - 1
        if jj < 1 or kk > n - 1 or jj == kk:
            fn[(j, k)] = BASEPOINT
        else:
            fn[(j, k)] = (jj, kk)
    return fn


def s2_degeneracy(n: int, i: int) -> dict:
    """Degeneracy s_i: level n -> n+1, shifting indices above i."""
    if not 0 <= i <= n:
        raise ValueError(f"degeneracy index {i} out of range at level {n}")
    fn = {BASEPOINT: BASEPOINT}
    for j, k in _pairs(n):
        fn[(j, k)] = (j if j <= i else j + 1, k if k <= i else k + 1)
    return fn


# -- the operad object ----------------------------------------------------------


class ChooseTwoOperad(OperadInstance):
    """Arity n |-> binom(n,2) pairs plus basepoint, in FSet^op.

    Instead of a forward ``circ`` this operad provides the backward lookup
    tables ``coface_fn``/``codegeneracy_fn`` consumed by
    :func:`knotoperads.operad_core.cosimplicial_from_operad`, and checks its
    own axioms via tree functoriality (associativity of partial composition
    is exactly two-step-versus-one-step contraction agreement).
    """

    name = "choose-two"
    direction = "backward"

    def entry(self, n: int) -> list:
        return b_elements(n)

    def multiplication(self):
        return (1, 2)

    def coface_fn(self, n: int, i: int) -> dict:
        """Backward function of the i-th coface, keyed by level n+1.

        The coface grafts the multiplication onto the arity-n slot; a pair
        joining at the multiplication vertex collapses to the basepoint,
        any other pair reads off its labels at the arity-n vertex.
        """
        if not 0 <= i <= n + 1:
            raise ValueError(f"coface index {i} out of range at level {n}")
        if n == 0:
            return {BASEPOINT: BASEPOINT}
        if i == 0:
            tree, mu_vertex = RpTree(((), ((),) * n)), ()
        elif i == n + 1:
            tree, mu_vertex = RpTree((((),) * n, ())), ()
        else:
            children = [()] * n
            children[i - 1] = ((), ())
            tree, mu_vertex = RpTree(tuple(children)), (i - 1,)
        fn = {BASEPOINT: BASEPOINT}
        for p, (v, a, b) in pair_joins(tree).items():
            fn[p] = BASEPOINT if v == mu_vertex else (a, b)
        return fn

    def codegeneracy_fn(self, n: int, i: int) -> dict:
        """Backward function of contracting leaf i (1 <= i <= n), keyed by
        level n-1: both indices shift up past the contracted leaf."""
        if not 1 <= i <= n:
            raise ValueError(f"codegeneracy index {i} out of range at level {n}")
        fn = {BASEPOINT: BASEPOINT}
        for j, k in _pairs(n - 1):
            fn[(j, k)] = (j if j < i else j + 1, k if k < i else k + 1)
        return fn

    def axiom_report(self, max_arity: int, progress=None) -> CheckReport:
        """Unit laws, then :func:`check_b_functoriality`; ``progress`` as
        there."""
        rep = CheckReport(f"operad-axioms[choose-two]<={max_arity}")
        for n in range(1, max_arity + 1):
            # unit below: unary root over an n-vertex induces the identity
            fn = b_structure_map(RpTree((((),) * n,)))
            ok = all(fn[p] == ((0,), p) for p in _pairs(n))
            rep.record(ok, None if ok else {"law": "left-unit", "n": n})
            for i in range(1, n + 1):
                # unit in slot i: unary vertex under the root, still identity
                children = [()] * n
                children[i - 1] = ((),)
                fn = b_structure_map(RpTree(tuple(children)))
                ok = all(fn[p] == ((), p) for p in _pairs(n))
                rep.record(ok, None if ok else {
                    "law": "right-unit", "n": n, "slot": i})
        rep.merge(check_b_functoriality(max_arity, progress))
        return rep


def check_b_functoriality(max_leaves: int = 5, progress=None) -> CheckReport:
    """Every factorization of a full contraction induces the same function.

    For each enumerated tree and each intermediate contraction, the composite
    of the two induced functions (applied source-last: the category is
    FSet^op) must reproduce the directly computed one.  ``progress(n)``,
    when given, is called once the trees with n leaves are all checked.
    """
    rep = CheckReport(f"b-functoriality<={max_leaves}")
    # each tree's structure map, computed once per check
    structure_map = functools.cache(b_structure_map)
    for n in range(max_leaves + 1):
        for t in enumerate_trees(n, limit=max_leaves):
            full = structure_map(t)
            internal = t.internal_edges()
            via, _ = b_morphism_map(t, internal)
            pairs = _pairs(n)
            ok = all(via[((), p)] == full[p] for p in pairs)
            rep.record(ok, None if ok else {
                "tree": t.to_text(), "law": "corolla-agreement",
                "witness": _first_mismatch({p: via[((), p)] for p in pairs},
                                           {p: full[p] for p in pairs})})
            for r in range(len(internal) + 1):
                for sub in itertools.combinations(internal, r):
                    bf, target = b_morphism_map(t, sub)
                    bg = structure_map(target)
                    comp = {p: bf[bg[p]] for p in bg}
                    ok = comp == full
                    rep.record(ok, None if ok else {
                        "tree": t.to_text(), "contracted": sorted(sub),
                        "witness": _first_mismatch(comp, full)})
        if progress is not None:
            progress(n)
    return rep


def _first_mismatch(got: dict, want: dict):
    for p in want:
        if got.get(p) != want[p]:
            return {"input": repr(p), "got": repr(got.get(p)), "want": repr(want[p])}
    return None


def check_s2_iso(max_n: int = 8) -> CheckReport:
    """The identity on pairs matches the operad's cosimplicial object with
    the two-sphere's faces and degeneracies, level by level up to max_n,
    and the simplicial identities hold."""
    if max_n < 2:
        raise ValueError("need max_n >= 2 to see a nondegenerate pair")
    rep = CheckReport(f"s2-iso<={max_n}")
    cos = cosimplicial_from_operad(ChooseTwoOperad())
    for n in range(max_n + 1):
        ok = list(cos.level_elements(n)) == s2_elements(n)
        rep.record(ok, None if ok else {
            "level": n, "map": "elements", "index": None,
            "witness": "level cardinality or order mismatch"})
    for n in range(1, max_n + 1):
        for i in range(n + 1):
            want = s2_face(n, i)
            face = cos.coface(n - 1, i)
            got = {x: face(x) for x in b_elements(n)}
            ok = got == want
            rep.record(ok, None if ok else {
                "level": n, "map": "face", "index": i,
                "witness": _first_mismatch(got, want)})
    for n in range(max_n):
        for i in range(1, n + 2):
            want = s2_degeneracy(n, i - 1)
            degeneracy = cos.codegeneracy(n + 1, i)
            got = {x: degeneracy(x) for x in b_elements(n)}
            ok = got == want
            rep.record(ok, None if ok else {
                "level": n, "map": "degeneracy", "index": i,
                "witness": _first_mismatch(got, want)})
    rep.merge(check_cosimplicial_identities(cos, max_n))
    return rep
