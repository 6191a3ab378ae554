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
``circ_monomials`` and ``codegeneracy_monomial``.  ``circ`` and
``codegeneracy`` are their (bi)linear extensions; the cofaces of an element
are those of :func:`knotoperads.operad_core.cosimplicial_from_operad`.  ``circ_monomials``
locates and relabels, then hands the substitution to ``_compose_at``: the
word holding x_i is rewritten (``_subst_word``) and merged back among the
other blocks with Koszul signs (``_place``).  ``coface_sum`` (a column of
the ``hh`` differential) writes the two end cofaces in closed form and the
middle ones in one left-to-right scan per word, adding together the cofaces
that every remaining letter relabels alike, so that terms cancelling across
cofaces cancel before later letters expand them.  Both rewrite a word one
letter at a time with the same step, ``_step_letter``.  Zeros are dropped
once per substitution (``_subst_word``, on return) and once per column, not
after every step; ``_place`` skips a group's cancelled terms before it
sorts or merges them.  The tests check this kernel against an independent
expression normalizer, which no command runs, and the column scan against
the cofaces expanded one at a time (``tests/algebra_oracles.py``).

An element's coefficients are in one canonical exact form: an ``int`` when
integral, else a ``Fraction``, normalized once when the element is built.
So the structure maps on integral elements do integer arithmetic only, and
``repr`` still prints every coefficient as a ``Fraction``.  A result that
is canonical by construction skips that normalization: ``circ`` of two
one-term elements whose coefficients multiply to an ``int`` (the nonzero
ints of ``circ_monomials``, scaled), every ``codegeneracy`` (the
coefficients of its input, on distinct monomials) and the basis elements of
``PoissonOperad.entry``.

``PoissonOperad`` fills the linear hook ``coordinates`` of
:mod:`knotoperads.operad_core` with a copy of an element's terms, so the
operad-axiom and cosimplicial checks call ``circ`` and ``codegeneracy`` once
per basis input and compare integer tables.  The bracket degree is at least
2 (:func:`check_bracket_degree`).

Value encodings: a Lie word is a tuple of variable indices read left-normed,
(a, b, c) meaning [[x_a, x_b], x_c]; a monomial is a tuple of words.
"""

from __future__ import annotations

import bisect
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

    @property
    def degrees(self) -> set[int]:
        return {monomial_degree(m, self.n) for m in self.terms}

    def scale(self, c) -> "PoissonElement":
        return PoissonElement(self.n, self.arity,
                              {m: v * c for m, v in self.terms.items()})


def _element(n: int, arity: int, terms: dict) -> PoissonElement:
    """The element with these terms, taken as they are: every coefficient
    must already be nonzero and in the form of :func:`_exact`."""
    e = object.__new__(PoissonElement)
    e.n, e.arity, e.terms = n, arity, terms
    return e


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


@functools.lru_cache(maxsize=None)
def _nf_letter(a: Word, v: int, parity: int) -> tuple:
    """Normal form of [a, x_v] for a normal word a with v < min(a), as
    (word, coefficient) pairs.  Antisymmetry gives -(-1)^(len(a) n) times
    the normal form of [x_v, a]; memoized so the sign is applied once per
    word and letter, not once per bracket."""
    s = 1 if (len(a) * parity) % 2 else -1
    return tuple((w, s * c) for w, c in _nf_pair((v,), a, parity))


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


def _step_letter(acc: dict, v: int, odd: int, out: dict) -> None:
    """Add [M, x_v] for every term c M of acc into out.  x_v acts from the
    right as a derivation of degree n, on the block A_j with the sign
    (-1)^(n |A_{j+1} ... A_r|).  [A_j, v] is A_j with v appended when
    v > min(A_j); else its words start with v and move left past the blocks
    with larger minimal letters.  Only degree parities matter: a length-k
    word is odd iff n is odd, k even.  A term of acc that cancelled to zero
    is skipped, and out may cancel to zero in turn."""
    get, letter = out.get, (v,)
    for m, c in acc.items():
        if not c:
            continue
        blocks = list(m)
        for j in range(len(m) - 1, -1, -1):
            a = m[j]
            if v > a[0]:
                blocks[j] = a + letter
                key = tuple(blocks)
                blocks[j] = a
                out[key] = get(key, 0) + c
            else:
                pos, passed = j, 0
                while pos and m[pos - 1][0] > v:
                    pos -= 1
                    passed ^= odd and not len(m[pos]) % 2
                before, after = m[:pos], m[pos:j] + m[j + 1:]
                for wb, x in _nf_letter(a, v, odd):
                    key = before + (wb,) + after
                    if passed and not len(wb) % 2:
                        x = -x
                    out[key] = get(key, 0) + c * x
            if odd and not len(a) % 2:
                c = -c  # the sign of the next j passes a


def _subst_word(w: Word, t: int, sub: Monomial, n: int) -> dict[Monomial, int]:
    """Normal form of the word w with its letter at index t replaced by the
    product sub of normal words.  For t > 0 the head H = w[:t] holds min(w),
    and each term of [H, B_1 ... B_s] brackets H into one B_j; that word
    holds min(w) and moves to the front, for the Koszul sign of B_j passing
    B_1 ... B_{j-1}.  Each later letter then acts as a derivation
    (:func:`_step_letter`).

    A term that cancels to zero after one letter stays in the dict and is
    skipped when the next letter reads it.  Cancellation is rare (400 of the
    29,680 terms after a letter when each middle coface of
    ``build_complex(2, 7)`` is substituted on its own, and the same at
    n = 3), so the zeros are dropped once, on return: every returned
    coefficient is nonzero."""
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
        _step_letter(acc, v, odd, nxt)
        acc = nxt
    if 0 in acc.values():
        acc = {m: c for m, c in acc.items() if c}
    return acc


def circ_monomials(ma: Monomial, i: int, mb: Monomial,
                   n: int) -> dict[Monomial, int]:
    """Partial composition ma o_i mb of normal-form monomials, with integer
    coefficients: mb, raised by i - 1, replaces x_i, and the letters of ma
    above i rise by arity(mb) - 1.  This locates x_i (word b, index t),
    relabels, and hands the substitution to :func:`_compose_at`.  Moving
    mb past the degree left of x_i (t brackets for index t in its word)
    costs (-1)^(|mb| left), which is -1 only when n is odd, |mb| is odd
    (arity(mb) - len(mb) odd) and so is the left parity, the sum of
    len(u) - 1 over the words u before word b, plus t.  A relabelling that
    moves no letter is skipped: mb's at i = 1, ma's when arity(mb) = 1.  At
    arity(mb) = 0 the letters of ma above i drop by one."""
    for b, w in enumerate(ma):
        if i in w:
            break
    kb, t, sign = monomial_arity(mb), w.index(i), 1
    if n % 2 and (kb - len(mb)) % 2 and \
            (sum([len(u) for u in ma[:b]]) - b + t) % 2:
        sign = -1
    sub = mb if i == 1 else tuple([tuple([v + i - 1 for v in u]) for u in mb])
    up = ma if kb == 1 else \
        tuple([tuple([v if v < i else v + kb - 1 for v in u]) for u in ma])
    return _compose_at(up, b, t, sub, sign, n)


def _compose_at(up: Monomial, b: int, t: int, sub: Monomial, sign: int,
                n: int) -> dict[Monomial, int]:
    """The relabelled monomial up with the letter at index t of its word b
    replaced by sub, times sign.  Only that word changes
    (:func:`_subst_word`); :func:`_place` merges its terms back among the
    other blocks.  Distinct terms of the word merge to distinct monomials,
    so the result holds no zero."""
    out: dict[Monomial, int] = {}
    _place(up[:b], _subst_word(up[b], t, sub, n), up[b + 1:], sign, n, out)
    return out


def _place(head: Monomial, terms: dict, tail: Monomial, sign: int, n: int,
           out: dict) -> None:
    """Add sign times head E tail, sorted with its Koszul sign, into out
    for every nonzero term E of terms; a zero term (a group of
    :func:`coface_sum` keeps cancelled ones) is skipped before it is
    sorted or merged.  The blocks of head have the smallest minimal
    letters, so they stay in front; the blocks of tail merge in.  A Koszul
    sign needs an odd word (n odd, even length) in tail.  Every word of a
    term starts above every word of head, so with no tail, head + E is
    already sorted."""
    get = out.get
    if not tail:
        for em, c in terms.items():
            if c:
                mm = head + em
                out[mm] = get(mm, 0) + sign * c
    elif n % 2 and any(not len(u) % 2 for u in tail):
        for em, c in terms.items():
            if c:
                mm, s = _merge(head + em, tail, n)
                out[mm] = get(mm, 0) + sign * s * c
    else:
        for em, c in terms.items():
            if c:
                mm = tuple(sorted(head + em + tail))
                out[mm] = get(mm, 0) + sign * c


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
    arity = a.arity + b.arity - 1
    if len(a.terms) == len(b.terms) == 1:
        # one term each: circ_monomials' nonzero ints, scaled by an int,
        # need no normalizing
        (ma, ca), = a.terms.items()
        (mb, cb), = b.terms.items()
        c = ca * cb
        if type(c) is int:
            out = circ_monomials(ma, i, mb, a.n)
            return _element(a.n, arity, out if c == 1 else
                            {m: c * x for m, x in out.items()})
    out: dict = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            c = ca * cb
            for m, x in circ_monomials(ma, i, mb, a.n).items():
                out[m] = out.get(m, 0) + c * x
    return PoissonElement(a.n, arity, out)


def codegeneracy(i: int, e: PoissonElement) -> PoissonElement:
    """Contract leaf i: the linear extension of
    :func:`codegeneracy_monomial`."""
    if not 1 <= i <= e.arity:
        raise ValueError(f"leaf {i} out of range for arity {e.arity}")
    # distinct monomials contract to distinct ones: nothing to add up, and
    # the coefficients are e's own, already canonical
    return _element(e.n, e.arity - 1, {
        kept: c for m, c in e.terms.items()
        if (kept := codegeneracy_monomial(i, m)) is not None})


def multiplication(n: int) -> PoissonElement:
    return monomial_element(n, 2, ((1,), (2,)))


def unit(n: int) -> PoissonElement:
    return monomial_element(n, 1, ((1,),))


def coface_sum(n: int, m: Monomial) -> dict[Monomial, int]:
    """The alternating coface sum  sum_{i=0}^{p+1} (-1)^i d^i(m)  of one
    normal-form monomial m of arity p, with integer coefficients: a column
    of the ``hh`` differential.  The ends are closed forms:
    d^0(m) = x_1 m (letters of m raised by one) and d^{p+1}(m) = m x_{p+1},
    each with coefficient +1.  A middle coface d^i = m o_i mu carries no
    Koszul sign, since |mu| = 0, only the alternating (-1)^i.

    The middle cofaces are taken one word W of m at a time, in one scan of
    W from the left.  Coface i, the letter at index t, starts as
    (-1)^i [H, x_i x_(i+1)], H the prefix W[:t] with its letters above i
    raised by one.  Every later letter u of W then acts on it as the
    derivation [., x_u'] (:func:`_step_letter`), u' = u + 1 when u > i, else
    u.  So two cofaces see the same steps from here on exactly when no free
    letter (one of W not yet scanned, or one of another word) lies between
    them, and the same relabelling of the other words too.  Their partial
    sums are added into one group, keyed by its rank: the number of free
    letters below its cofaces.  As u is scanned, the groups just below and
    above it merge, and the new coface u joins the merged group.  Each
    letter steps each group once, into its target group's dict; the step is
    linear, so terms that cancel across cofaces cancel before later letters
    expand them.  After W's last letter each group merges among the other
    words, relabelled by its rank (:func:`_place`); for a one-word m, the
    last letter writes straight into the column.  Zeros are dropped once, at
    the end."""
    p, odd = monomial_arity(m), n % 2
    out = {((1,),) + tuple([tuple([v + 1 for v in w]) for w in m]): 1}
    for b, word in enumerate(m):
        passive = m[:b] + m[b + 1:]
        free, groups = list(range(1, p + 1)), {}
        for t, u in enumerate(word):
            k = bisect.bisect_left(free, u)
            del free[k]
            direct = not passive and t == len(word) - 1
            nxt: dict[int, dict] = {}
            for r, acc in groups.items():
                # rank r <= k: the cofaces lie below u, which they raise
                into = out if direct else nxt.setdefault(r if r <= k else r - 1, {})
                _step_letter(acc, u + 1 if r <= k else u, odd, into)
            if t:
                # [H, x_u x_(u+1)] = [H, x_u] x_(u+1) + [H, x_(u+1)] x_u: both
                # letters are even and above min(H), so each bracket appends
                head = tuple([v if v < u else v + 1 for v in word[:t]])
                new = ((head + (u,), (u + 1,)), (head + (u + 1,), (u,)))
            else:
                new = (((u,), (u + 1,)),)
            into = out if direct else nxt.setdefault(k, {})
            for key in new:
                into[key] = into.get(key, 0) + (-1 if u % 2 else 1)
            groups = nxt
        for r, acc in groups.items():
            # free holds the other words' letters; those above the group rise
            low = free[r] if r < len(free) else p + 1
            up = tuple([tuple([v if v < low else v + 1 for v in w]) for w in passive])
            _place(up[:b], acc, up[b:], 1, n, out)
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
def basis_slices(k: int, least: int = 1) -> tuple:
    """The monomials of arity k whose blocks all hold at least ``least``
    letters, as (b, monomials) pairs by block count b: most blocks first,
    each slice sorted lexicographically.  A slice is one bidegree, q =
    (k - b) n.  Each block's words start with its minimal letter and
    :func:`_set_partitions` sorts the blocks by it, so every product of
    their words is already a sorted monomial; the words have distinct first
    letters, so plain tuple order compares them.  The partitions are
    filtered before any word is built, so a larger ``least`` keeps the full
    basis's order on fewer monomials."""
    by_blocks: dict[int, list] = {}
    for part in _set_partitions(tuple(range(1, k + 1))):
        if any(len(block) < least for block in part):
            continue
        words = [[(block[0],) + perm for perm in itertools.permutations(block[1:])]
                 for block in part]
        by_blocks.setdefault(len(part), []).extend(itertools.product(*words))
    return tuple((b, tuple(sorted(by_blocks[b])))
                 for b in sorted(by_blocks, reverse=True))


def basis(n: int, k: int, least: int = 1) -> list:
    """Normal-form monomials of arity k, ordered by degree then
    lexicographically: the slices of :func:`basis_slices`, concatenated.
    The list itself does not depend on n (degrees do).  With ``least`` > 1
    only the monomials whose blocks all hold at least that many letters, in
    the same order: ``least=2`` drops every monomial with a singleton
    block."""
    if k < 0:
        raise ValueError("arity must be non-negative")
    return [m for _, mons in basis_slices(k, least) for m in mons]


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
        return [_element(self.n, k, {m: 1}) for m in basis(self.n, k)]

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

