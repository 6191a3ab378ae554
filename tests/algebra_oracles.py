"""Slow reference implementations that the algebra tests compare against.

No command runs these; each is the independent path for a fast one:

- ``normalize`` reduces any bracket/product expression to normal-form
  monomials by rewriting (``_expand`` and ``_bracket_monomials``, which
  eliminates products by the Leibniz rule).  It is the oracle for the
  substitution kernel behind ``poisson.circ_monomials`` and
  ``poisson.coface_sum``.
- ``check_d_squared`` composes consecutive differentials of a
  ``hochschild.CochainComplex`` exactly.
- ``structure_map_stepwise`` evaluates a structure map one internal edge at
  a time, against ``operad_core.structure_map``.

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
    _bracket_words,
    _merge,
    monomial_degree,
)
from knotoperads.trees import RpTree, contract_with_map

# -- the expression normalizer -------------------------------------------------


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


# -- structure maps edge by edge -------------------------------------------------


def structure_map_stepwise(op: OperadInstance, tree: RpTree, elements: dict,
                           edge_order: list):
    """Evaluate the same structure map as ``operad_core.structure_map`` by
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
