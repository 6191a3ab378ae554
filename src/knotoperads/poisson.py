"""Degree-n Poisson operad over exact rationals.

Arity k is spanned by monomials in which each variable x1..xk appears
exactly once: products of Lie bracket words, the bracket carrying degree n.
Normal form: every bracket word is left-normed with its minimal variable
first, and the blocks of a product are sorted by minimal variable.

Conventions (the bracket rules are forced up to global convention; validated
downstream by d^2 = 0, operad axioms, and the k! dimension count):
    Leibniz       [a, bc] = [a,b] c + (-1)^((|a|+n)|b|) b [a,c]
    antisymmetry  [a, b]  = -(-1)^((|a|+n)(|b|+n)) [b, a]
    Jacobi        [a,[b,c]] = [[a,b],c] + (-1)^((|a|+n)(|b|+n)) [b,[a,c]]
    Koszul        swapping adjacent product blocks costs (-1)^(|a||b|)

Both structure maps are written once, on integer monomials:
``circ_monomials`` and ``codegeneracy_monomial``.  ``circ``, ``coface`` and
``codegeneracy`` are their (bi)linear extensions.  ``circ_monomials``
locates and relabels, then hands the substitution and Koszul merge to
``_compose_at``; ``coface_sum`` (a column of the ``hh`` differential) calls
``_compose_at`` itself for the middle cofaces, with each letter located
once per monomial, and writes the two end cofaces in closed form.  The
tests check this kernel against an independent expression normalizer, which
no command runs (``tests/algebra_oracles.py``).

An element's coefficients are in one canonical exact form: an ``int`` when
integral, else a ``Fraction``, normalized once when the element is built.
So the structure maps on integral elements do integer arithmetic only, and
``repr`` still prints every coefficient as a ``Fraction``.

``PoissonOperad`` fills the linear hook ``coordinates`` of
:mod:`knotoperads.operad_core` with a copy of an element's terms, so the
operad-axiom and cosimplicial checks call ``circ`` and ``codegeneracy`` once
per basis input and compare integer tables.  The bracket degree is at least
2 (:func:`check_bracket_degree`).

Value encodings: a Lie word is a tuple of variable indices read left-normed,
(a, b, c) meaning [[x_a, x_b], x_c]; a monomial is a tuple of words.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
import functools

from .operad_core import OperadInstance

Word = tuple[int, ...]
Monomial = tuple[Word, ...]


def monomial_degree(m: Monomial, n: int) -> int:
    return (monomial_arity(m) - len(m)) * n


def monomial_arity(m: Monomial) -> int:
    return sum(len(w) for w in m)


def _exact(c):
    """The canonical form of a nonzero exact coefficient: an ``int`` when it
    is integral, else a ``Fraction``."""
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


@dataclass
class PoissonElement:
    """A rational combination of normal-form monomials of one arity, each
    coefficient nonzero and in the form of :func:`_exact`."""

    n: int
    arity: int
    terms: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.terms = {m: c if type(c) is int else _exact(c)
                      for m, c in self.terms.items() if c != 0}

    def __repr__(self) -> str:
        # the dataclass form with every coefficient a Fraction, as failure
        # witnesses have always printed it
        terms = ", ".join(f"{m!r}: {Fraction(c)!r}" for m, c in self.terms.items())
        return f"PoissonElement(n={self.n!r}, arity={self.arity!r}, terms={{{terms}}})"

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degrees(self) -> set[int]:
        return {monomial_degree(m, self.n) for m in self.terms}

    def add(self, other: "PoissonElement") -> "PoissonElement":
        if (self.n, self.arity) != (other.n, other.arity):
            raise ValueError("mismatched degree or arity")
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return PoissonElement(self.n, self.arity, out)

    def scale(self, c) -> "PoissonElement":
        return PoissonElement(self.n, self.arity,
                              {m: v * c for m, v in self.terms.items()})


def monomial_element(n: int, arity: int, m: Monomial, coeff=1) -> PoissonElement:
    if monomial_arity(m) != arity:
        raise ValueError(f"monomial {m!r} does not have arity {arity}")
    return PoissonElement(n, arity, {m: coeff})


# -- normal-form rewriting -----------------------------------------------------


@functools.lru_cache(maxsize=None)
def _nf_pair(p: Word, q: Word, parity: int) -> tuple:
    """Normal form of [p, q] for normal words with min(p) < min(q).

    Peeling the last letter of q terminates: the right length drops by one
    each step, and single letters append directly."""
    if len(q) == 1:
        return ((p + q, 1),)
    e, q2 = q[-1], q[:-1]
    acc: dict[Word, int] = {}
    for w, c in _nf_pair(p, q2, parity):
        acc[w + (e,)] = acc.get(w + (e,), 0) + c
    s = 1 if (len(q2) * parity) % 2 else -1
    for w, c in _nf_pair(p + (e,), q2, parity):
        acc[w] = acc.get(w, 0) + s * c
    return tuple((w, c) for w, c in acc.items() if c)


def _bracket_words(p: Word, q: Word, n: int) -> dict[Word, int]:
    if p[0] < q[0]:
        return dict(_nf_pair(p, q, n % 2))
    s = 1 if (len(p) * len(q) * n) % 2 else -1
    return {w: s * c for w, c in _nf_pair(q, p, n % 2)}


def _merge(m1: Monomial, m2: Monomial, n: int) -> tuple[Monomial, int]:
    """The product m1 m2 of two sorted monomials, sorted, with the Koszul
    sign of each word of m2 moving left past words of m1.  Words hold
    distinct letters, so sorting orders them by their minimal letter; only
    words of odd degree (n odd, even length) contribute signs."""
    sign = 1
    if n % 2:
        for w in m2:
            if not len(w) % 2:
                for u in m1:
                    if u[0] > w[0] and not len(u) % 2:
                        sign = -sign
    return tuple(sorted(m1 + m2)), sign


# -- operad structure ------------------------------------------------------------


def _subst_word(w: Word, t: int, sub: Monomial, n: int) -> dict[Monomial, int]:
    """Normal form of the word w with its letter at index t replaced by the
    product sub of normal words.  For t > 0 the head H = w[:t] holds min(w),
    and each term of [H, B_1 ... B_s] brackets H into one B_j; that word
    holds min(w) and moves to the front, for the Koszul sign of B_j passing
    B_1 ... B_{j-1}.  Each later letter v then acts from the right as a
    derivation of degree n, on A_j with the sign (-1)^(n |A_{j+1} ... A_r|).
    [A_j, v] is A_j with v appended when v > min(A_j); else its words start
    with v and move left past the blocks with larger minimal letters.  Only
    degree parities matter: a length-k word is odd iff n is odd, k even."""
    odd = n % 2
    if t:
        head, acc, before = w[:t], {}, 0
        for j, bj in enumerate(sub):
            odd_j = odd and not len(bj) % 2
            rest = sub[:j] + sub[j + 1:]
            for hw, c in _nf_pair(head, bj, odd):
                acc[(hw,) + rest] = -c if odd_j and before else c
            before ^= odd_j
    else:
        acc = {sub: 1}
    for v in w[t + 1:]:
        nxt: dict[Monomial, int] = {}
        get, letter = nxt.get, (v,)
        for m, c in acc.items():
            for j in range(len(m) - 1, -1, -1):
                a = m[j]
                if v > a[0]:
                    key = m[:j] + (a + letter,) + m[j + 1:]
                    nxt[key] = get(key, 0) + c
                else:
                    pos, passed = j, 0
                    while pos and m[pos - 1][0] > v:
                        pos -= 1
                        passed ^= odd and not len(m[pos]) % 2
                    before, after = m[:pos], m[pos:j] + m[j + 1:]
                    for wb, x in _bracket_words(a, letter, n).items():
                        key = before + (wb,) + after
                        if passed and not len(wb) % 2:
                            x = -x
                        nxt[key] = get(key, 0) + c * x
                if odd and not len(a) % 2:
                    c = -c  # the sign of the next j passes a
        acc = {m: c for m, c in nxt.items() if c}
    return acc


def circ_monomials(ma: Monomial, i: int, mb: Monomial,
                   n: int) -> dict[Monomial, int]:
    """Partial composition ma o_i mb of normal-form monomials, with integer
    coefficients: mb, raised by i - 1, replaces x_i, and the letters of ma
    above i rise by arity(mb) - 1.  This locates x_i (word b, index t),
    relabels, and hands the substitution to :func:`_compose_at`.  Moving
    mb past the degree left of x_i (t brackets for index t in its word)
    costs (-1)^(|mb| left)."""
    for b, w in enumerate(ma):
        if i in w:
            break
    kb, t = monomial_arity(mb), w.index(i)
    left = monomial_degree(ma[:b], n) + t * n
    sign = -1 if (left * monomial_degree(mb, n)) % 2 else 1
    sub = tuple([tuple([v + i - 1 for v in u]) for u in mb])
    up = tuple([tuple([v if v < i else v + kb - 1 for v in u]) for u in ma])
    return _compose_at(up, b, t, sub, sign, n)


def _compose_at(up: Monomial, b: int, t: int, sub: Monomial, sign: int,
                n: int) -> dict[Monomial, int]:
    """The relabelled monomial up with the letter at index t of its word b
    replaced by sub, times sign.  Only that word changes
    (:func:`_subst_word`); the blocks before it keep the smallest minimal
    letters, and the blocks after it merge back with Koszul signs."""
    # distinct terms of the word merge to distinct monomials: no cancelling;
    # a Koszul sign needs an odd word (n odd, even length) after x_i's word.
    # The terms are sorted and their words start above every word of head,
    # so with no tail, head + term is already sorted.
    head, tail = up[:b], up[b + 1:]
    terms = _subst_word(up[b], t, sub, n)
    if not tail:
        return {head + em: sign * c for em, c in terms.items()}
    out: dict[Monomial, int] = {}
    signed = n % 2 and any(not len(u) % 2 for u in tail)
    for em, c in terms.items():
        if signed:
            mm, s = _merge(head + em, tail, n)
            out[mm] = sign * s * c
        else:
            out[tuple(sorted(head + em + tail))] = sign * c
    return out


def codegeneracy_monomial(i: int, m: Monomial) -> Monomial | None:
    """Contract leaf i of one monomial: None when x_i sits inside a bracket,
    else m without its singleton block (x_i), letters above i lowered by
    one.  The result is a normal-form monomial with coefficient one."""
    if (i,) not in m:
        return None
    return tuple([tuple([v if v < i else v - 1 for v in w])
                  for w in m if w != (i,)])


def circ(a: PoissonElement, i: int, b: PoissonElement) -> PoissonElement:
    """Partial composition: the bilinear extension of
    :func:`circ_monomials`."""
    if not 1 <= i <= a.arity:
        raise ValueError(f"slot {i} out of range for arity {a.arity}")
    if a.n != b.n:
        raise ValueError("mismatched bracket degree")
    out: dict = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            c = ca * cb
            for m, x in circ_monomials(ma, i, mb, a.n).items():
                out[m] = out.get(m, 0) + c * x
    return PoissonElement(a.n, a.arity + b.arity - 1, out)


def codegeneracy(i: int, e: PoissonElement) -> PoissonElement:
    """Contract leaf i: the linear extension of
    :func:`codegeneracy_monomial`."""
    if not 1 <= i <= e.arity:
        raise ValueError(f"leaf {i} out of range for arity {e.arity}")
    # distinct monomials contract to distinct ones: nothing to add up
    return PoissonElement(e.n, e.arity - 1, {
        kept: c for m, c in e.terms.items()
        if (kept := codegeneracy_monomial(i, m)) is not None})


def multiplication(n: int) -> PoissonElement:
    return monomial_element(n, 2, ((1,), (2,)))


def unit(n: int) -> PoissonElement:
    return monomial_element(n, 1, ((1,),))


def coface(i: int, e: PoissonElement) -> PoissonElement:
    """Cosimplicial coface: multiply by a fresh first/last variable at the
    ends, insert the two-variable product in the middle."""
    mu = multiplication(e.n)
    if i == 0:
        return circ(mu, 2, e)
    if i == e.arity + 1:
        return circ(mu, 1, e)
    if 1 <= i <= e.arity:
        return circ(e, i, mu)
    raise ValueError(f"coface index {i} out of range for arity {e.arity}")


def coface_sum(n: int, m: Monomial) -> dict[Monomial, int]:
    """The alternating coface sum  sum_{i=0}^{p+1} (-1)^i d^i(m)  of one
    normal-form monomial m of arity p, with integer coefficients, in one
    pass over the cofaces of :func:`coface`.  The ends are closed forms:
    d^0(m) = x_1 m (letters of m raised by one) and d^{p+1}(m) = m x_{p+1},
    each with coefficient +1.  A middle coface d^i = m o_i mu carries no
    Koszul sign, since |mu| = 0, so it goes straight to :func:`_compose_at`
    with the alternating sign (-1)^i and x_i located by one table per
    monomial."""
    p = monomial_arity(m)
    out = {((1,),) + tuple([tuple([v + 1 for v in w]) for w in m]): 1}
    get = out.get
    where = {v: (b, t) for b, w in enumerate(m) for t, v in enumerate(w)}
    for i in range(1, p + 1):
        b, t = where[i]
        up = tuple([tuple([v if v < i else v + 1 for v in w]) for w in m])
        sign = -1 if i % 2 else 1
        for mm, c in _compose_at(up, b, t, ((i,), (i + 1,)), sign, n).items():
            out[mm] = get(mm, 0) + c
    last = m + ((p + 1,),)
    out[last] = out.get(last, 0) + (-1 if (p + 1) % 2 else 1)
    return {mm: c for mm, c in out.items() if c}


# -- basis ------------------------------------------------------------------------


def _set_partitions(items: tuple) -> list:
    """The set partitions of the ascending tuple items, each block ascending
    and the blocks sorted by minimal letter: the block holding items[0]
    comes first."""
    if not items:
        return [()]
    first, rest = items[0], items[1:]
    out = []
    for part in _set_partitions(rest):
        out.append(((first,),) + part)
        for idx in range(len(part)):
            out.append(((first,) + part[idx],) + part[:idx] + part[idx + 1:])
    return out


@functools.lru_cache(maxsize=None)
def _basis_monomials(k: int) -> tuple:
    """Most blocks first, then lexicographically.  Each block's words start
    with its minimal letter and :func:`_set_partitions` sorts the blocks by
    it, so every product of their words is already a sorted monomial; the
    words have distinct first letters, so plain tuple order compares them."""
    by_blocks: dict[int, list] = {}
    for part in _set_partitions(tuple(range(1, k + 1))):
        words = [[(block[0],) + perm for perm in itertools.permutations(block[1:])]
                 for block in part]
        by_blocks.setdefault(len(part), []).extend(itertools.product(*words))
    return tuple(m for b in sorted(by_blocks, reverse=True)
                 for m in sorted(by_blocks[b]))


def basis(n: int, k: int) -> list:
    """Normal-form monomials of arity k, ordered by degree then
    lexicographically.  The list itself does not depend on n (degrees do)."""
    if k < 0:
        raise ValueError("arity must be non-negative")
    return list(_basis_monomials(k))


def check_bracket_degree(n: int) -> None:
    """The bracket degrees this module serves: n >= 2."""
    if n < 2:
        raise ValueError(f"the bracket degree must be at least 2, got {n}")


class PoissonOperad(OperadInstance):
    """Basis-driven operad instance at a fixed bracket degree n >= 2.

    It fills the linear hook of :mod:`knotoperads.operad_core`:
    ``coordinates(e)`` is a copy of ``e.terms``, keyed by normal-form
    monomial, already in canonical form."""

    def __init__(self, n: int):
        check_bracket_degree(n)
        self.n = n
        self.name = f"poisson[n={n}]"

    def coordinates(self, e: PoissonElement) -> dict:
        return dict(e.terms)

    def entry(self, k: int) -> list:
        return [monomial_element(self.n, k, m) for m in basis(self.n, k)]

    def arity_of(self, e: PoissonElement) -> int:
        return e.arity

    def circ(self, a, i, b):
        return circ(a, i, b)

    def degree(self, e: PoissonElement) -> int:
        degs = e.degrees
        if len(degs) > 1:
            raise ValueError("element is not homogeneous")
        return next(iter(degs), 0)

    def unit(self):
        return unit(self.n)

    def multiplication(self):
        return multiplication(self.n)

    def codegeneracy(self, i, e):
        return codegeneracy(i, e)

