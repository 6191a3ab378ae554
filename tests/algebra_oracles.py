"""Slow reference implementations that the algebra tests compare against.

No command runs these; each is the independent path for a fast one:

- ``normalize`` reduces any bracket/product expression to normal-form
  monomials by rewriting (``_expand`` and ``_bracket_monomials``, which
  eliminates products by the Leibniz rule down to ``_bracket_words``, the
  bracket of two words in either order).  It is the oracle for the
  substitution kernel behind ``poisson.circ_monomials`` and
  ``poisson.coface_sum``.
- ``coface_sum_per_coface`` expands each middle coface on its own through
  ``poisson._compose_at`` and adds them up, against the grouped column scan
  of ``poisson.coface_sum``.
- ``check_d_squared`` composes consecutive differentials of a
  ``hochschild.CochainComplex`` exactly.
- ``structure_map`` evaluates the structure map of a tree's full
  contraction by plugging children in recursively, and
  ``structure_map_stepwise`` evaluates the same map one internal edge at a
  time, in any order: the contraction-order independence that the operad
  axioms of ``operad_core.check_operad_axioms`` imply.  ``graft`` and
  ``join_vertex`` build the trees and leaf joins these tests use.

The module name does not match ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

from fractions import Fraction

from knotoperads.errors import BoundExceededError
from knotoperads.hochschild import CochainComplex
from knotoperads.operad_core import CheckReport, OperadInstance
from knotoperads.poisson import (
    Monomial,
    PoissonElement,
    Word,
    _compose_at,
    _merge,
    _nf_pair,
    monomial_arity,
    monomial_degree,
)
from knotoperads.trees import Path, RpTree, contract_with_map

# -- the expression normalizer -------------------------------------------------


def _bracket_words(p: Word, q: Word, n: int) -> dict[Word, int]:
    """Normal form of [p, q] for normal words p and q on disjoint letters."""
    if p[0] < q[0]:
        return dict(_nf_pair(p, q, n % 2))
    s = 1 if (len(p) * len(q) * n) % 2 else -1
    return {w: s * c for w, c in _nf_pair(q, p, n % 2)}


def _bracket_monomials(ma: Monomial, mb: Monomial, n: int) -> dict[Monomial, int]:
    """Normal form of [ma, mb], eliminating products by the Leibniz rule."""
    if not ma or not mb:
        return {}
    if len(ma) == 1 and len(mb) == 1:
        return {(w,): c for w, c in _bracket_words(ma[0], mb[0], n).items()}
    if len(mb) == 1:
        # flip so the product sits on the right
        exp = (monomial_degree(ma, n) + n) * (monomial_degree(mb, n) + n)
        s = 1 if exp % 2 else -1
        return {m: s * c for m, c in _bracket_monomials(mb, ma, n).items()}
    b, rest = mb[:1], mb[1:]
    out: dict[Monomial, int] = {}
    for m, c in _bracket_monomials(ma, b, n).items():
        mm, s = _merge(m, rest, n)
        out[mm] = out.get(mm, 0) + c * s
    # ad_ma is a derivation of degree |ma| + n for the product
    s2 = -1 if ((monomial_degree(ma, n) + n) * monomial_degree(b, n)) % 2 else 1
    for m, c in _bracket_monomials(ma, rest, n).items():
        mm, s = _merge(b, m, n)
        out[mm] = out.get(mm, 0) + s2 * c * s
    return {m: c for m, c in out.items() if c}


def _expr_vars(expr, seen: set) -> None:
    if isinstance(expr, int):
        if expr in seen:
            raise ValueError(f"variable x{expr} appears more than once")
        if expr < 1:
            raise ValueError(f"variable index {expr} must be positive")
        seen.add(expr)
    elif expr[0] == "p":
        for sub in expr[1]:
            _expr_vars(sub, seen)
    elif expr[0] == "b":
        _expr_vars(expr[1], seen)
        _expr_vars(expr[2], seen)
    else:
        raise ValueError(f"malformed expression node: {expr!r}")


#: most terms one expression may expand to in normalize: an expression in k
#: variables has at most k! terms at every stage, so all expressions in up
#: to 7 variables fit (7! = 5040)
MAX_EXPANDED_TERMS = 10_000


def _check_expanded_size(terms: dict) -> None:
    if len(terms) > MAX_EXPANDED_TERMS:
        raise BoundExceededError("expression expands to more than "
                                 f"{MAX_EXPANDED_TERMS} terms")


def _expand(expr, n: int) -> dict[Monomial, Fraction]:
    if isinstance(expr, int):
        return {((expr,),): Fraction(1)}
    if expr[0] == "p":
        acc: dict[Monomial, Fraction] = {(): Fraction(1)}
        for sub in expr[1]:
            factor = _expand(sub, n)
            nxt: dict[Monomial, Fraction] = {}
            for m1, c1 in acc.items():
                for m2, c2 in factor.items():
                    mm, s = _merge(m1, m2, n)
                    nxt[mm] = nxt.get(mm, 0) + c1 * c2 * s
                _check_expanded_size(nxt)
            acc = nxt
        return {m: c for m, c in acc.items() if c}
    ta, tb = _expand(expr[1], n), _expand(expr[2], n)
    out: dict[Monomial, Fraction] = {}
    for ma, ca in ta.items():
        for mb, cb in tb.items():
            for m, s in _bracket_monomials(ma, mb, n).items():
                out[m] = out.get(m, 0) + ca * cb * s
        _check_expanded_size(out)
    return {m: c for m, c in out.items() if c}


def normalize(expr, n: int) -> PoissonElement:
    """Reduce any bracket/product expression to normal-form monomials.

    An expression is an int (variable index), ("p", [subexpressions]) for a
    product, or ("b", left, right) for a bracket.  Variables must be
    distinct and form a range 1..k.
    """
    seen: set[int] = set()
    _expr_vars(expr, seen)
    k = len(seen)
    if seen != set(range(1, k + 1)):
        raise ValueError(f"variables must be exactly x1..x{k}, got {sorted(seen)}")
    return PoissonElement(n, k, _expand(expr, n))


# -- the coface sum, one coface at a time -------------------------------------


def coface_sum_per_coface(n: int, m: Monomial) -> dict[Monomial, int]:
    """The alternating coface sum of ``poisson.coface_sum``, each middle
    coface d^i = m o_i mu expanded on its own by ``poisson._compose_at`` and
    then added into the column.  The ends are the same closed forms.  x_i is
    located by one table per monomial, and the relabelled monomial of d^i
    differs from that of d^(i+1) in x_i's letter alone, so each coface after
    the first rewrites one word."""
    p = monomial_arity(m)
    up = tuple([tuple([v + 1 for v in w]) for w in m])
    out = {((1,),) + up: 1}
    where = {v: (b, t) for b, w in enumerate(m) for t, v in enumerate(w)}
    for i in range(1, p + 1):
        # up: letters of m below i kept, the others raised by one; the
        # letter at (b, t), x_i's, is the one the substitution replaces
        b, t = where[i]
        terms = _compose_at(up, b, t, ((i,), (i + 1,)), -1 if i % 2 else 1, n)
        for mm, c in terms.items():
            out[mm] = out.get(mm, 0) + c
        w = up[b]
        up = up[:b] + (w[:t] + (i,) + w[t + 1:],) + up[b + 1:]
    last = m + ((p + 1,),)
    out[last] = out.get(last, 0) + (-1 if (p + 1) % 2 else 1)
    return {mm: c for mm, c in out.items() if c}


# -- d^2 = 0 ---------------------------------------------------------------------


def check_d_squared(c: CochainComplex) -> CheckReport:
    """Exact verification that consecutive differentials compose to zero."""
    tag = "normalized" if c.normalized else "full"
    rep = CheckReport(f"d-squared[{tag},n={c.n}]<={c.max_p}")
    for (p, q), mat in sorted(c.diff.items()):
        nxt = c.diff.get((p + 1, q))
        if nxt is None:
            continue  # empty or out-of-range target level
        comp = nxt.compose(mat)
        ok = comp.is_zero()
        witness = None
        if not ok:
            cc = next(i for i, col in enumerate(comp.col) if col)
            r, v = next(iter(comp.col[cc].items()))
            witness = {"p": p, "q": q, "row": r, "col": cc, "value": v}
        rep.record(ok, witness)
    return rep


# -- trees and structure maps ------------------------------------------------


def graft(n: int, i: int, m: int) -> RpTree:
    """The two-vertex composition tree: an m-corolla grafted onto leaf i of
    an n-corolla; contracting its one internal edge gives the
    (n+m-1)-corolla.

    m = 0 is not representable at tree level (a childless non-root vertex
    reads as a leaf), so m >= 1 is required.
    """
    if n < 1 or m < 1:
        raise ValueError("graft needs n >= 1 and m >= 1")
    if not (1 <= i <= n):
        raise ValueError(f"graft position must satisfy 1 <= i <= {n}, got {i}")
    children = [()] * n
    children[i - 1] = ((),) * m
    return RpTree(tuple(children))


def join_vertex(tree: RpTree, i: int, j: int) -> tuple[Path, int, int]:
    """The deepest vertex through which leaves i and j (1-based, i != j) both
    pass, together with the 1-based planar labels of the child edges of that
    vertex the two leaves lie over: ``trees.pair_joins`` one pair at a time.

    Symmetric in i and j up to swapping the returned labels; planarity gives
    label(i) < label(j) whenever i < j.
    """
    leaves = tree.leaf_paths()
    if i == j or not (1 <= i <= len(leaves) and 1 <= j <= len(leaves)):
        raise ValueError(f"need distinct leaf labels in 1..{len(leaves)}, got ({i}, {j})")
    p, q = leaves[i - 1], leaves[j - 1]
    common = 0  # a leaf has no children, so two leaf paths part before either ends
    while p[common] == q[common]:
        common += 1
    return p[:common], p[common] + 1, q[common] + 1


def structure_map(op: OperadInstance, tree: RpTree, elements: dict):
    """Evaluate the structure map of the full contraction of tree onto a
    corolla.  ``elements`` assigns an operad element to every non-leaf vertex
    path.  Children are plugged in rightmost-first so remaining slot indices
    never shift."""

    def value(vpath):
        node = tree.node_at(vpath)
        x = elements[vpath]
        if op.arity_of(x) != len(node):
            raise ValueError(
                f"element at {vpath!r} has arity {op.arity_of(x)}, vertex has {len(node)}")
        for idx in reversed(range(len(node))):
            if node[idx] != ():
                x = op.circ(x, idx + 1, value(vpath + (idx,)))
        return x

    return value(())


def structure_map_stepwise(op: OperadInstance, tree: RpTree, elements: dict,
                           edge_order: list):
    """Evaluate the same structure map as :func:`structure_map` by
    contracting one internal edge at a time in the given order.  Must agree
    with it for every order (operad axioms 4)."""
    if sorted(edge_order) != sorted(tree.internal_edges()):
        raise ValueError("edge_order must list every internal edge exactly once")
    t = tree
    elems = dict(elements)
    pending = list(edge_order)
    while pending:
        e = pending.pop(0)
        parent, slot = e[:-1], e[-1] + 1
        merged = op.circ(elems[parent], slot, elems[e])
        t2, m = contract_with_map(t, [e])
        new_elems = {}
        for v in t.vertices():
            if v == e:
                continue
            new_elems[m[v]] = merged if v == parent else elems[v]
        t, elems = t2, new_elems
        pending = [m[x] for x in pending]
    return elems[()]
