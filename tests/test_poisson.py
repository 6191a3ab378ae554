"""Tests for the Poisson operad: normal forms, composition, (co)faces.

The main correctness oracle (even bracket degree only, where all Koszul
signs are +1) is the classical expansion into the free associative algebra:
send a bracket to the commutator of expansions and a product to the sum of
its factor orderings, concatenated.  That map is independent of the
rewriting of ``normalize`` (``algebra_oracles``) and must agree with it term
by term; it is also injective on the basis, which pins linear independence
of the normal forms.
"""

import hashlib
import itertools
from fractions import Fraction

import pytest

from knotoperads import operad_core, poisson
from knotoperads.errors import BoundExceededError
from knotoperads.operad_core import (
    check_cosimplicial_identities,
    check_operad_axioms,
    cosimplicial_from_operad,
)
from knotoperads.poisson import (
    PoissonElement,
    PoissonOperad,
    _compose_at,
    _nf_letter,
    _subst_word,
    basis,
    basis_slices,
    circ,
    circ_monomials,
    codegeneracy,
    codegeneracy_monomial,
    coface_sum,
    monomial_arity,
    monomial_degree,
    monomial_element,
    multiplication,
    unit,
)

from algebra_oracles import MAX_EXPANDED_TERMS, coface_sum_per_coface, normalize

# -- the associative-expansion oracle (independent of the module's rewriting) --


def _cat(a: dict, b: dict) -> dict:
    out = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            w = wa + wb
            out[w] = out.get(w, 0) + ca * cb
    return out


def _acc(a: dict, b: dict, s=1) -> dict:
    out = dict(a)
    for w, c in b.items():
        out[w] = out.get(w, 0) + s * c
    return {w: c for w, c in out.items() if c}


def _flatten_product(expr) -> list:
    if isinstance(expr, tuple) and expr[0] == "p":
        out = []
        for sub in expr[1]:
            out.extend(_flatten_product(sub))
        return out
    return [expr]


def phi(expr) -> dict:
    """Free-associative expansion, valid for even bracket degree.

    Brackets become commutators and products become sums over all orderings
    of their factors.  This agrees with the rewriting engine only when every
    product node multiplies pure bracket words (no products nested inside a
    factor) and every bracket node has at least one pure-bracket-word side;
    otherwise the ordering sum has the wrong granularity (symmetrization is
    not an algebra map, and a commutator of two symmetrized products is not
    the symmetrized bracket).
    """
    if isinstance(expr, int):
        return {(expr,): Fraction(1)}
    if expr[0] == "b":
        a, b = phi(expr[1]), phi(expr[2])
        return _acc(_cat(a, b), _cat(b, a), -1)
    factors = [phi(f) for f in _flatten_product(expr)]
    out = {}
    for perm in itertools.permutations(factors):
        term = {(): Fraction(1)}
        for f in perm:
            term = _cat(term, f)
        out = _acc(out, term)
    return out


def _word_ast(w):
    ast = w[0]
    for v in w[1:]:
        ast = ("b", ast, v)
    return ast


def _mono_ast(m):
    return ("p", [_word_ast(w) for w in m])


def phi_element(e: PoissonElement) -> dict:
    assert e.n % 2 == 0
    out = {}
    for m, c in e.terms.items():
        out = _acc(out, {w: c * v for w, v in phi(_mono_ast(m)).items()})
    return out


def _subst_ast(ma, i, mb):
    """Composite of two monomials rebuilt from scratch as an expression."""
    kb = monomial_arity(mb)
    mb_shift = tuple(tuple(v + i - 1 for v in w) for w in mb)
    sub = _mono_ast(mb_shift)

    # substitute and relabel in one pass: with kb = 0 the shift is
    # downward, and a staged relabel would collide with the slot
    def leaf(v):
        if v == i:
            return sub
        return v if v < i else v + kb - 1

    blocks = []
    for w in ma:
        ast = leaf(w[0])
        for v in w[1:]:
            ast = ("b", ast, leaf(v))
        blocks.append(ast)
    return ("p", blocks)


def _subst_sign(ma, i, mb, n):
    """Koszul sign for plugging mb into slot i of ma, via an infix walk:
    letters carry degree 0 and each bracket sits between its operands
    carrying degree n, so left degree accumulates bracket by bracket."""
    left = 0
    for w in ma:
        if i in w:
            left += n * w.index(i)
            break
        left += n * (len(w) - 1)
    else:
        raise AssertionError(f"variable {i} not in {ma}")
    db = sum(n * (len(w) - 1) for w in mb)
    return -1 if (left * db) % 2 else 1


def _expand_circ(ma, i, mb, n) -> dict:
    """ma o_i mb through the expression normalizer, not the word kernel."""
    want = normalize(_subst_ast(ma, i, mb), n)
    return want.scale(_subst_sign(ma, i, mb, n)).terms


def _rank_fractions(rows) -> int:
    rows = [list(map(Fraction, r)) for r in rows]
    rank, col = 0, 0
    width = len(rows[0]) if rows else 0
    while rank < len(rows) and col < width:
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


# -- basis ----------------------------------------------------------------------


def _independent_dim(k: int) -> int:
    # blocks containing variable 1 chosen of size s: C(k-1, s-1) subsets,
    # (s-1)! bracket words, then recurse on the rest
    if k == 0:
        return 1
    total = 0
    for s in range(1, k + 1):
        n_choose = 1
        for t in range(1, s):
            n_choose = n_choose * (k - t) // t
        fact = 1
        for t in range(1, s):
            fact *= t
        total += n_choose * fact * _independent_dim(k - s)
    return total


def _sorted_per_monomial_slices(k: int) -> tuple:
    """The basis slices as the basis was first enumerated: blocks in the
    order the set partitions grow them, each monomial sorted on its own,
    then (b, bucket) by block count b, most blocks first, each sorted."""
    def partitions(items):
        if not items:
            return [()]
        out = []
        for part in partitions(items[1:]):
            out.append(((items[0],),) + part)
            for idx in range(len(part)):
                out.append(part[:idx] + ((items[0],) + part[idx],) + part[idx + 1:])
        return out

    by_blocks = {}
    for part in partitions(tuple(range(1, k + 1))):
        words = [[(block[0],) + perm for perm in itertools.permutations(block[1:])]
                 for block in part]
        by_blocks.setdefault(len(part), []).extend(
            tuple(sorted(choice)) for choice in itertools.product(*words))
    return tuple((b, tuple(sorted(by_blocks[b])))
                 for b in sorted(by_blocks, reverse=True))


class TestBasis:
    def test_dimension_is_factorial(self):
        for k in range(8):
            want = _independent_dim(k)
            assert want == max(1, k) if k <= 1 else True
            assert len(basis(2, k)) == want
            fact = 1
            for t in range(1, k + 1):
                fact *= t
            assert want == fact

    def test_arity_two(self):
        assert basis(5, 2) == [((1,), (2,)), ((1, 2),)]

    def test_arity_three(self):
        got = basis(2, 3)
        assert got[0] == ((1,), (2,), (3,))
        assert set(got[1:4]) == {((1,), (2, 3)), ((1, 2), (3,)), ((1, 3), (2,))}
        assert got[4:] == [((1, 2, 3),), ((1, 3, 2),)]

    def test_sorted_by_degree_then_lex(self):
        for k in range(6):
            b = basis(3, k)
            keys = [(monomial_arity(m) - len(m), m) for m in b]
            assert keys == sorted(keys)

    def test_order_pinned(self):
        # digest of basis(2, k), k <= 7, as the key-sorted construction gave
        # it: the block-count buckets and native comparisons keep the order
        got = repr([basis(2, k) for k in range(8)]).encode()
        assert hashlib.sha256(got).hexdigest() == \
            "45d415aa09b1e01693144ffd7e13fdbb808741e5d38e5feff7535a2e88cece80"

    def test_matches_sort_per_monomial_enumeration(self):
        # blocks sorted by minimal letter once per partition give the same
        # slices, in the same order, as sorting every monomial; basis() is
        # their concatenation
        for k in range(9):
            slices = basis_slices(k)
            assert slices == _sorted_per_monomial_slices(k), k
            assert basis(2, k) == [m for _, mons in slices for m in mons], k
        basis_slices.cache_clear()  # drop the arity-8 level

    def test_normal_forms_linearly_independent(self):
        # oracle: associative expansions of the basis have full rank
        for k in range(1, 6):
            b = basis(2, k)
            words = list(itertools.permutations(range(1, k + 1)))
            rows = []
            for m in b:
                vec = phi(_mono_ast(m))
                rows.append([vec.get(w, 0) for w in words])
            assert _rank_fractions(rows) == len(b)


# -- normalize -------------------------------------------------------------------


class TestNormalize:
    @pytest.mark.parametrize("n", [2, 3])
    def test_leibniz_example(self, n):
        e = normalize(("b", 1, ("p", [2, 3])), n)
        assert e.terms == {((1, 2), (3,)): 1, ((1, 3), (2,)): 1}

    def test_product_sorting(self):
        e = normalize(("p", [2, 1]), 2)
        assert e.terms == {((1,), (2,)): 1}

    @pytest.mark.parametrize("n,sign", [(2, -1), (3, 1), (4, -1), (5, 1)])
    def test_antisymmetry_on_generators(self, n, sign):
        e = normalize(("b", 2, 1), n)
        assert e.terms == {((1, 2),): sign}

    @pytest.mark.parametrize("n,sign", [(2, 1), (3, -1)])
    def test_koszul_block_swap(self, n, sign):
        # [x3,x4][x1,x2] = (-1)^(n*n) [x1,x2][x3,x4]
        e = normalize(("p", [("b", 3, 4), ("b", 1, 2)]), n)
        assert e.terms == {((1, 2), (3, 4)): sign}

    def test_jacobi_even(self):
        e = normalize(("b", 1, ("b", 2, 3)), 2)
        assert e.terms == {((1, 2, 3),): 1, ((1, 3, 2),): -1}

    def test_idempotent_on_basis(self):
        for n in (2, 3):
            for k in range(5):
                for m in basis(n, k):
                    e = normalize(_mono_ast(m), n)
                    assert e.terms == {m: 1}

    def test_rejects_repeated_variable(self):
        with pytest.raises(ValueError):
            normalize(("p", [1, 1]), 2)
        with pytest.raises(ValueError):
            normalize(("b", 1, ("p", [2, ("b", 1, 3)])), 2)

    def test_rejects_gap_in_variables(self):
        with pytest.raises(ValueError):
            normalize(("p", [1, 3]), 2)

    def test_oracle_agreement(self):
        # every expression here stays inside phi's validity domain
        exprs = [
            ("b", 1, ("p", [2, 3])),
            ("b", ("p", [1, 2]), 3),
            ("b", ("b", 1, 2), ("b", 3, 4)),
            ("b", 1, ("b", 2, ("b", 3, 4))),
            ("p", [("b", 2, 4), 1, 3]),
            ("b", ("b", ("p", [1, 2]), 3), 4),
            ("b", 1, ("p", [2, ("b", 3, 4)])),
            ("p", [("b", 1, ("b", 2, 3)), 4]),
            ("b", ("b", 2, 3), 1),
        ]
        for expr in exprs:
            e = normalize(expr, 2)
            assert phi_element(e) == phi(expr), expr

    def test_expanded_size_bound(self):
        # a bracket of products nested d deep, in 2d + 1 variables, grows
        # past MAX_EXPANDED_TERMS first at d = 6 (25,988 terms)
        def nested(d, s=0):
            inner = s + 3 if d == 1 else nested(d - 1, s + 2)
            return ("b", ("p", [s + 1, inner]), s + 2)

        assert len(normalize(nested(5), 2).terms) == 2612
        assert 2612 <= MAX_EXPANDED_TERMS < 25988
        for d in (6, 8):
            with pytest.raises(BoundExceededError, match="terms"):
                normalize(nested(d), 2)


# -- circ -------------------------------------------------------------------------


class TestCirc:
    def test_product_substitution(self):
        mu = multiplication(2)
        got = circ(mu, 2, mu)
        assert got.terms == {((1,), (2,), (3,)): 1}

    def test_bracket_slot_expands(self):
        a = monomial_element(2, 2, ((1, 2),))
        got = circ(a, 2, multiplication(2))
        assert got.terms == {((1, 2), (3,)): 1, ((1, 3), (2,)): 1}

    @pytest.mark.parametrize("n", [2, 3])
    def test_unit_laws(self, n):
        e = unit(n)
        for k in range(4):
            for m in basis(n, k):
                a = monomial_element(n, k, m)
                assert circ(e, 1, a) == a
                for i in range(1, k + 1):
                    assert circ(a, i, e) == a

    def test_degree_additive(self):
        for n in (2, 3):
            for ma in basis(n, 3):
                for mb in basis(n, 2):
                    a = monomial_element(n, 3, ma)
                    b = monomial_element(n, 2, mb)
                    q = monomial_degree(ma, n) + monomial_degree(mb, n)
                    got = circ(a, 2, b)
                    assert got.degrees <= {q}

    def test_slot_range(self):
        with pytest.raises(ValueError):
            circ(unit(2), 2, unit(2))

    @pytest.mark.parametrize("n", [2, 3])
    def test_substitution_oracle(self, n):
        # every basis pair and slot with composite arity <= 5, the arity-0
        # input included: rebuild the composite expression from scratch and
        # normalize it, independently of the word kernel; moving an odd
        # substituted term into its slot costs the infix-walk sign
        for ka in range(1, 6):
            for kb in range(6 - ka + 1):
                for ma in basis(n, ka):
                    a = monomial_element(n, ka, ma)
                    for mb in basis(n, kb):
                        b = monomial_element(n, kb, mb)
                        for i in range(1, ka + 1):
                            want = _expand_circ(ma, i, mb, n)
                            got = circ_monomials(ma, i, mb, n)
                            assert got == want, (ma, i, mb)
                            assert all(type(c) is int for c in got.values())
                            assert circ(a, i, b).terms == want

    @pytest.mark.parametrize("n", [2, 3])
    def test_circ_monomials_edge_cases(self, n):
        # the cases whose relabelling or sign circ_monomials shortcuts:
        # mb = () (letters above i drop by one) and mb = the unit at every
        # slot, and the first and last slots under larger mb; at n = 3 odd
        # mb are inserted both where the left degree is odd (sign -1) and
        # where it is even
        cases = []
        for k in range(1, 5):
            for ma in basis(n, k):
                cases += [(ma, i, mb) for i in range(1, k + 1)
                          for mb in ((), ((1,),))]
                cases += [(ma, i, mb) for i in sorted({1, k})
                          for kb in (2, 3) for mb in basis(n, kb)]
        for ma, i, mb in cases:
            got = circ_monomials(ma, i, mb, n)
            want = _expand_circ(ma, i, mb, n)
            assert {m: (c, type(c)) for m, c in got.items()} == \
                {m: (c, type(c)) for m, c in want.items()}, (ma, i, mb)
        odd_signs = {_subst_sign(ma, i, mb, n) for ma, i, mb in cases
                     if monomial_degree(mb, n) % 2}
        assert odd_signs == ({1, -1} if n % 2 else set())

    @pytest.mark.parametrize("n", [2, 3])
    def test_substitution_oracle_three_blocks_into_word(self, n):
        # arity 6 is the first where a substituted block moves left past
        # another odd one: x3 -> [x3,x4] x5 x6 in [[x1,x3],x2] puts x2
        # after the substituted blocks and below their letters
        for ma in basis(n, 3):
            for mb in basis(n, 4):
                for i in (1, 2, 3):
                    assert circ_monomials(ma, i, mb, n) == \
                        _expand_circ(ma, i, mb, n), (ma, i, mb)

    def test_free_associative_oracle(self):
        # substituting a single bracket word keeps every product factor a
        # pure word, so phi stays inside its validity domain end to end
        singles = [(2, ((1, 2),)), (3, ((1, 2, 3),)), (3, ((1, 3, 2),))]
        for ma in basis(2, 3):
            a = monomial_element(2, 3, ma)
            for kb, mb in singles:
                b = monomial_element(2, kb, mb)
                for i in (1, 2, 3):
                    got = circ(a, i, b)
                    want = phi(_subst_ast(ma, i, mb))
                    assert phi_element(got) == want, (ma, i, mb)


# -- codegeneracy and coface --------------------------------------------------------


class TestCodegeneracy:
    def test_spec_values(self):
        assert codegeneracy(1, multiplication(2)).terms == {((1,),): 1}
        assert codegeneracy(1, monomial_element(2, 2, ((1, 2),))).terms == {}
        e = monomial_element(2, 3, ((1, 3), (2,)))
        assert codegeneracy(2, e).terms == {((1, 2),): 1}

    def test_monomial_values(self):
        assert codegeneracy_monomial(1, ((1,), (2,))) == ((1,),)
        assert codegeneracy_monomial(2, ((1,), (2,))) == ((1,),)
        assert codegeneracy_monomial(1, ((1, 2),)) is None
        assert codegeneracy_monomial(2, ((1, 3), (2,), (4, 5))) == \
            ((1, 2), (3, 4))
        assert codegeneracy_monomial(1, ((1,),)) == ()

    def test_degree_preserved(self):
        for n in (2, 3):
            for m in basis(n, 4):
                e = monomial_element(n, 4, m)
                for i in range(1, 5):
                    got = codegeneracy(i, e)
                    assert got.degrees <= {monomial_degree(m, n)}

    def test_index_range(self):
        with pytest.raises(ValueError):
            codegeneracy(3, multiplication(2))


def _coface(i, e):
    """d^i(e), as the cosimplicial object of the Poisson operad defines it."""
    return cosimplicial_from_operad(PoissonOperad(e.n)).coface(e.arity, i)(e)


class TestCoface:
    def test_bottom(self):
        got = _coface(0, unit(2))
        assert got.terms == {((1,), (2,)): 1}

    def test_top(self):
        e = monomial_element(2, 2, ((1, 2),))
        got = _coface(3, e)
        assert got.terms == {((1, 2), (3,)): 1}

    @pytest.mark.parametrize("n", [2, 3])
    def test_middle_leibniz(self, n):
        e = monomial_element(n, 2, ((1, 2),))
        got = _coface(1, e)
        assert got.terms == {((1, 3), (2,)): 1, ((1,), (2, 3)): 1}

    def test_degree_preserved(self):
        for n in (2, 3):
            for m in basis(n, 3):
                e = monomial_element(n, 3, m)
                for i in range(5):
                    assert _coface(i, e).degrees <= {monomial_degree(m, n)}

    def test_index_range(self):
        with pytest.raises(ValueError):
            _coface(4, multiplication(2))


def _expand_coface_sum(n, m):
    """The alternating coface sum with each coface taken through the
    expression normalizer: d^0 = mu o_2 m, d^{p+1} = mu o_1 m and
    d^i = m o_i mu in between."""
    p = monomial_arity(m)
    mu = ((1,), (2,))
    images = [_expand_circ(mu, 2, m, n)]
    images += [_expand_circ(m, i, mu, n) for i in range(1, p + 1)]
    images.append(_expand_circ(mu, 1, m, n))
    total = {}
    for i, img in enumerate(images):
        total = _acc(total, img, -1 if i % 2 else 1)
    return total


def _circ_coface_sum(n, m):
    """The alternating coface sum with every coface, the ends included,
    taken by the generic kernel circ_monomials."""
    p = monomial_arity(m)
    mu = ((1,), (2,))
    images = [circ_monomials(mu, 2, m, n)]
    images += [circ_monomials(m, i, mu, n) for i in range(1, p + 1)]
    images.append(circ_monomials(mu, 1, m, n))
    total = {}
    for i, img in enumerate(images):
        total = _acc(total, img, -1 if i % 2 else 1)
    return total


class TestCofaceSum:
    """coface_sum against cofaces composed through the expression normalizer
    (_expand_circ), column by column; even and odd n cover both Koszul
    parities, and n = 4, 5 a bracket degree above the smallest of each."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_circ_on_every_monomial_to_p5(self, n):
        for p in range(6):
            for m in basis(n, p):
                got = coface_sum(n, m)
                assert got == _expand_coface_sum(n, m), m
                assert all(type(c) is int and c for c in got.values())

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_circ_on_normalized_monomials_p6(self, n):
        for m in basis(n, 6):
            if all(len(w) > 1 for w in m):
                assert coface_sum(n, m) == _expand_coface_sum(n, m), m

    @pytest.mark.parametrize("n", [2, 3])
    def test_closed_form_ends_match_circ_to_p6(self, n):
        # d^0(m) = x1 m (letters raised by one) and d^{p+1}(m) = m x_{p+1},
        # coefficient +1, are what the generic kernel gives for mu o_2 m and
        # mu o_1 m; the whole sum matches the all-circ_monomials sum
        for p in range(7):
            for m in basis(n, p):
                raised = tuple(tuple(v + 1 for v in w) for w in m)
                assert circ_monomials(((1,), (2,)), 2, m, n) == {((1,),) + raised: 1}
                assert circ_monomials(((1,), (2,)), 1, m, n) == {m + ((p + 1,),): 1}
                assert coface_sum(n, m) == _circ_coface_sum(n, m), m

    @pytest.mark.parametrize("n", [2, 3])
    def test_coface_sum_oracle_to_p6(self, n):
        # with the normalized monomials above, every monomial of level 6:
        # the ones with a singleton block
        for m in basis(n, 6):
            if any(len(w) == 1 for w in m):
                assert coface_sum(n, m) == _expand_coface_sum(n, m), m

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_per_coface_oracle_to_p6(self, n):
        # the grouped scan against each middle coface expanded on its own:
        # every monomial to p = 5 and every normalized one of level 6.  Each
        # coface the oracle adds is a fresh _compose_at dict with no zero
        for p in range(7):
            for m in basis(n, p, least=1 if p < 6 else 2):
                assert coface_sum(n, m) == coface_sum_per_coface(n, m), m
                if p < 6:
                    for i in range(1, p + 1):
                        b = next(b for b, w in enumerate(m) if i in w)
                        up = tuple(tuple(v if v < i else v + 1 for v in w) for w in m)
                        assert all(_compose_at(up, b, m[b].index(i), ((i,), (i + 1,)),
                                               1, n).values()), (m, i)

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_per_coface_oracle_level7(self, n):
        # all D(7) = 1,854 normalized monomials of level 7, the columns of
        # the last differential of hh at max_p 8; n = 3 has Koszul signs
        mons = basis(n, 7, least=2)
        assert len(mons) == 1854
        for m in mons:
            assert coface_sum(n, m) == coface_sum_per_coface(n, m), m

    @pytest.mark.parametrize("n, want", [
        (2, {((1, 6), (2, 4), (3, 5)): -1, ((1, 4), (2, 6), (3, 5)): -1,
             ((1, 3), (2, 5), (4, 6)): -1, ((1, 4), (2, 5), (3, 6)): -1}),
        (3, {((1, 6), (2, 4), (3, 5)): 1, ((1, 4), (2, 6), (3, 5)): -1,
             ((1, 3), (2, 5), (4, 6)): 1, ((1, 4), (2, 5), (3, 6)): 1}),
    ])
    def test_passive_letters_split_groups(self, n, want):
        # in (1 3 5)(2 4) the letters 2 and 4 of the other word lie between
        # the cofaces 1, 3 and 5, so they stay in three groups to the end and
        # each relabels (2 4) its own way; in (1 3)(2 4) each word keeps two
        # groups and the column cancels to zero; in (1 3)(2) the singleton
        # block splits the word's two cofaces
        cases = {((1, 3, 5), (2, 4)): want, ((1, 3), (2, 4)): {},
                 ((1, 3), (2,)): {((1, 4), (2,), (3,)): -1}}
        for m, value in cases.items():
            assert coface_sum(n, m) == value, m
            assert coface_sum_per_coface(n, m) == value, m
            assert _expand_coface_sum(n, m) == value, m

    def test_hand_values(self):
        # d(1) = x1 - x1 cancels; d(x1) = x1x2 - x1x2 + x1x2
        assert coface_sum(2, ()) == {}
        assert coface_sum(2, ((1,),)) == {((1,), (2,)): 1}
        # the bracket is a cocycle: its four cofaces cancel term by term
        assert coface_sum(2, ((1, 2),)) == {}


def _letter_keys(state, v: int, parity: int) -> set:
    """Every monomial the next letter v writes from the terms of state,
    whatever its coefficient: one word of each term takes v, and the
    product is re-sorted by minimal letter."""
    keys = set()
    for m in state:
        for j, a in enumerate(m):
            words = [a + (v,)] if v > a[0] else [wb for wb, _ in _nf_letter(a, v, parity)]
            keys.update(tuple(sorted(m[:j] + (wb,) + m[j + 1:])) for wb in words)
    return keys


class TestSubstWord:
    @pytest.mark.parametrize("n", [2, 3])
    def test_subst_word_drops_zeros(self, n):
        # the coface substitutions x_i -> x_i x_{i+1} into every normal word
        # to length 6.  The terms after letter k are the result on the
        # prefix w[:k + 1], so a monomial that letter k writes but the
        # prefix result lacks has cancelled to exactly zero
        cancelled = {"last": [], "inner": []}
        for length in range(2, 7):
            for rest in itertools.permutations(range(2, length + 1)):
                for t, i in enumerate((1,) + rest):
                    w = tuple(v if v < i else v + 1 for v in (1,) + rest)
                    sub = ((i,), (i + 1,))
                    prev = _subst_word(w[:t + 1], t, sub, n)
                    for k in range(t + 1, length):
                        got = _subst_word(w[:k + 1], t, sub, n)
                        assert all(got.values()), (w, t, k)
                        if _letter_keys(prev, w[k], n % 2) - set(got):
                            where = "last" if k == length - 1 else "inner"
                            cancelled[where].append((w, t, k))
                        prev = got
        # (1, 5, 6, 3, 2) at t = 1 cancels at its last letter, and
        # (1, 5, 6, 3, 2, 7) before a later letter reads the zero
        assert ((1, 5, 6, 3, 2), 1, 4) in cancelled["last"]
        assert ((1, 5, 6, 3, 2, 7), 1, 4) in cancelled["inner"]


# -- operad instance ------------------------------------------------------------------


class TestOperadInstance:
    @pytest.mark.parametrize("n", [2, 3])
    def test_axioms_small(self, n):
        rep = check_operad_axioms(PoissonOperad(n), max_arity=3)
        assert rep.passed, rep.failures[:2]

    @pytest.mark.parametrize("n", [2, 3])
    def test_cosimplicial_identities_small(self, n):
        cos = cosimplicial_from_operad(PoissonOperad(n))
        rep = check_cosimplicial_identities(cos, max_level=3)
        assert rep.passed, rep.failures[:2]

    @pytest.mark.parametrize("n", [-3, 0, 1])
    def test_degree_domain(self, n):
        with pytest.raises(ValueError, match="at least 2"):
            PoissonOperad(n)

    def test_coordinates(self):
        op = PoissonOperad(2)
        e = PoissonElement(2, 2, {((1,), (2,)): Fraction(2),
                                  ((1, 2),): Fraction(-1, 3)})
        coords = op.coordinates(e)
        assert coords == {((1,), (2,)): 2, ((1, 2),): Fraction(-1, 3)}
        assert type(coords[((1,), (2,))]) is int

    def test_normalized_monomials_degree_bound(self):
        # no singleton block forces every block size >= 2, so
        # q = (k - blocks) n >= k n / 2
        for k in range(8):
            for m in basis(3, k):
                if all(len(w) >= 2 for w in m):
                    assert len(m) <= k // 2
                    assert monomial_degree(m, 3) * 2 >= k * 3


def _sum(a: PoissonElement, b: PoissonElement) -> PoissonElement:
    """a + b, for two elements of one degree and arity."""
    assert (a.n, a.arity) == (b.n, b.arity)
    terms = dict(a.terms)
    for m, c in b.terms.items():
        terms[m] = terms.get(m, 0) + c
    return PoissonElement(a.n, a.arity, terms)


class TestOddDegreeSigns:
    """Koszul coherence where several odd-degree blocks interact.

    In odd bracket degree a length-2 word is an odd element, so the
    bracket-against-product expansion must treat ad_a as a derivation of
    degree |a| + n; these identities pin that sign down."""

    def test_graded_leibniz_with_odd_blocks(self):
        lhs = normalize(("b", ("b", 1, 2),
                         ("p", [("b", 3, 4), ("b", 5, 6)])), 3)
        first = normalize(("p", [("b", ("b", 1, 2), ("b", 3, 4)),
                                 ("b", 5, 6)]), 3)
        second = normalize(("p", [("b", 3, 4),
                                  ("b", ("b", 1, 2), ("b", 5, 6))]), 3)
        # (-1)^{(|a|+n)|b|} = +1 here: |a|+n = 6, |b| = 3
        assert lhs == _sum(first, second)

    def test_graded_jacobi_with_odd_blocks(self):
        lhs = normalize(("b", ("b", 1, 2),
                         ("b", ("b", 3, 4), ("b", 5, 6))), 3)
        first = normalize(("b", ("b", ("b", 1, 2), ("b", 3, 4)),
                           ("b", 5, 6)), 3)
        second = normalize(("b", ("b", 3, 4),
                            ("b", ("b", 1, 2), ("b", 5, 6))), 3)
        assert lhs == _sum(first, second)

    def test_coface_interchange_reaches_arity_six(self):
        # first composite size where three odd blocks appear, odd degree
        x = monomial_element(3, 4, ((1, 2, 3, 4),))
        assert _coface(3, _coface(1, x)) == _coface(1, _coface(2, x))
        assert _coface(4, _coface(1, x)) == _coface(1, _coface(3, x))
        assert _coface(2, _coface(2, x)) == _coface(3, _coface(2, x))


# -- the linear checking path against the element path ------------------------------


class FlippedPoisson(PoissonOperad):
    """Compositions into a binary operation's first slot carry the wrong sign
    (the benchmark's negative control); only ``circ`` is overridden."""

    def circ(self, a, i, b):
        out = super().circ(a, i, b)
        return out.scale(-1) if i == 1 and a.arity == 2 else out


class BrokenCodegeneracy(PoissonOperad):
    """Contracting the first leaf at arity 3 flips the sign."""

    def codegeneracy(self, i, e):
        out = super().codegeneracy(i, e)
        return out.scale(-1) if i == 1 and e.arity == 3 else out


def _element_path(op):
    """The same operad with the linear hook switched off."""
    op.coordinates = None
    return op


def _both_paths(cls, n, check, bound):
    """(linear, element) reports of one check on a fresh operad each."""
    reports = []
    for op in (cls(n), _element_path(cls(n))):
        if check == "axioms":
            reports.append(check_operad_axioms(op, bound))
        else:
            reports.append(check_cosimplicial_identities(
                cosimplicial_from_operad(op), bound))
    return reports


class TestLinearPath:
    @pytest.mark.parametrize("bound", [0, 1, 2, 5])
    @pytest.mark.parametrize("check", ["axioms", "cosimplicial"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_element_path(self, n, check, bound):
        fast, slow = _both_paths(PoissonOperad, n, check, bound)
        assert (fast.checks, fast.passed, fast.failures) == \
            (slow.checks, slow.passed, slow.failures)
        assert fast.passed and (fast.checks > 0 or bound < 2)

    @pytest.mark.parametrize("cls, checks", [
        (FlippedPoisson, ["axioms", "cosimplicial"]),
        (BrokenCodegeneracy, ["cosimplicial"]),
    ])
    @pytest.mark.parametrize("n", [2, 3])
    def test_broken_maps_fail_with_element_witnesses(self, cls, checks, n):
        assert cls(n).coordinates is not None  # the linear path runs
        for check in checks:
            fast, slow = _both_paths(cls, n, check, 4)
            assert not fast.passed and fast.failures
            # the witnesses are read off the elements, byte for byte
            assert fast.to_json() == slow.to_json()

    def test_broken_map_reports_pinned(self):
        # each composite is compared as it arrives; the records, their order
        # and the first twenty witnesses stay those of the check that held
        # every table until the end, pinned by their digest
        reports = [check_cosimplicial_identities(cosimplicial_from_operad(cls(n)), 4)
                   for cls in (FlippedPoisson, BrokenCodegeneracy) for n in (2, 3)]
        digest = hashlib.sha256("\n".join(r.to_json() for r in reports).encode())
        assert digest.hexdigest() == \
            "92ce51285b8360a5b951c3c3a1124463d37df9b41ce41265edbcc9d26eb5e15e"

    @pytest.mark.parametrize("check", ["axioms", "cosimplicial"])
    def test_tables_keyed_by_interned_ints(self, check, monkeypatch):
        # each check numbers the hook's monomial keys 0, 1, 2, ... in the
        # order first seen, one number per monomial, and keeps the
        # coefficients; the hook itself still returns monomial keys
        calls = _record_interned(monkeypatch)
        fast, slow = _both_paths(PoissonOperad, 3, check, 4)
        assert fast.passed and fast.checks == slow.checks
        ids = {}
        for coords, img, _ in calls:
            assert all(type(m) is tuple for m in coords)
            assert list(img.values()) == list(coords.values())
            for m, k in zip(coords, img):
                assert ids.setdefault(m, k) == k
        assert sorted(ids.values()) == list(range(len(ids)))

    def test_circ_tabulated_once_per_basis_pair(self):
        calls = []

        class Spy(PoissonOperad):
            def circ(self, a, i, b):
                calls.append((tuple(a.terms), i, tuple(b.terms),
                              set(a.terms.values()) | set(b.terms.values())))
                return super().circ(a, i, b)

        assert check_operad_axioms(Spy(3), 4).checks == 1026
        assert len({c[:3] for c in calls}) == len(calls)
        assert all(len(a) == len(b) == 1 and coeffs == {1}
                   for a, _, b, coeffs in calls)

    def test_arrows_tabulated_once_per_basis_element(self):
        calls = []

        class Spy(PoissonOperad):
            def codegeneracy(self, i, e):
                calls.append((i, tuple(e.terms)))
                return super().codegeneracy(i, e)

        check_cosimplicial_identities(cosimplicial_from_operad(Spy(2)), 5)
        # s^i at level p for 1 <= i <= p <= 5, once on each of the p! basis
        # monomials
        assert len(calls) == len(set(calls)) == \
            sum(p * len(basis(2, p)) for p in range(1, 6))


class TestCanonicalCoefficients:
    def test_int_exactly_when_integral(self):
        e = PoissonElement(2, 2, {((1,), (2,)): Fraction(4, 2),
                                  ((1, 2),): Fraction(1, 2)})
        assert type(e.terms[((1,), (2,))]) is int
        assert type(e.terms[((1, 2),)]) is Fraction
        half = PoissonElement(3, 2, {((1,), (2,)): Fraction(1, 2),
                                     ((1, 2),): Fraction(2)})
        assert [type(c) for c in half.terms.values()] == [Fraction, int]
        assert all(type(c) is int for c in half.scale(2).terms.values())
        bracket = PoissonElement(3, 2, {((1, 2),): Fraction(1)})
        assert all(type(c) is int for c in
                   circ(multiplication(3), 1, bracket).terms.values())
        assert all(type(c) is int for k in range(5) for m in basis(2, k)
                   for c in monomial_element(2, k, m).terms.values())

    @pytest.mark.parametrize("n, terms, want_repr", [
        (2, {((1,), (2,)): Fraction(1, 2)},
         "PoissonElement(n=2, arity=2, terms={((1,), (2,)): Fraction(1, 2)})"),
        (3, {((1,), (2,)): Fraction(3), ((1, 2),): Fraction(-1)},
         "PoissonElement(n=3, arity=2, terms={((1,), (2,)): Fraction(3, 1), "
         "((1, 2),): Fraction(-1, 1)})"),
    ], ids=["half", "integral"])
    def test_forms_unchanged(self, n, terms, want_repr):
        # the repr (the failure witnesses) reads as it did when every
        # coefficient was stored as a Fraction
        assert repr(PoissonElement(n, 2, terms)) == want_repr

    def test_coordinates_copy_terms(self):
        e = PoissonElement(2, 2, {((1,), (2,)): Fraction(2),
                                  ((1, 2),): Fraction(-1)})
        coords = PoissonOperad(2).coordinates(e)
        assert coords == e.terms and coords is not e.terms


def _items_and_types(e: PoissonElement) -> tuple:
    return e.n, e.arity, list(e.terms.items()), [type(c) for c in e.terms.values()]


def _one_term_mismatches(n: int) -> list:
    """Where circ or codegeneracy on one-term elements differs from the
    element built and normalized from circ_monomials or
    codegeneracy_monomial, in terms, their order or coefficient types:
    every basis pair and slot of arities up to 4, some scaled pairs up to
    arity 3, and every basis element and leaf up to arity 5."""
    bad = []
    for p, q in itertools.product(range(1, 5), repeat=2):
        for ma, mb in itertools.product(basis(n, p), basis(n, q)):
            a, b = monomial_element(n, p, ma), monomial_element(n, q, mb)
            scales = [(1, 1)] + ([(-1, 2), (Fraction(1, 2), 2),
                                  (Fraction(1, 2), Fraction(2, 3))]
                                 if p + q <= 4 else [])
            for (ca, cb), i in itertools.product(scales, range(1, p + 1)):
                got = circ(a.scale(ca), i, b.scale(cb))
                want = PoissonElement(n, p + q - 1, {
                    m: ca * cb * x for m, x in circ_monomials(ma, i, mb, n).items()})
                if _items_and_types(got) != _items_and_types(want):
                    bad.append(("circ", ma, i, mb, ca, cb))
    for k in range(1, 6):
        for m in basis(n, k):
            for i in range(1, k + 1):
                kept = codegeneracy_monomial(i, m)
                want = PoissonElement(n, k - 1, {} if kept is None else {kept: 1})
                got = codegeneracy(i, monomial_element(n, k, m))
                if _items_and_types(got) != _items_and_types(want):
                    bad.append(("codegeneracy", i, m))
    return bad


class TestOneTermPaths:
    """circ and codegeneracy build one-term results without normalizing
    them again; they must equal the normalized elements."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_match_normalized_elements(self, n):
        assert _one_term_mismatches(n) == []

    def test_wrong_sign_in_one_term_branch_is_caught(self, monkeypatch):
        # a mutant: the results built without normalizing carry the wrong sign
        build = poisson._element
        monkeypatch.setattr(poisson, "_element", lambda n, k, terms: build(
            n, k, {m: -c for m, c in terms.items()}))
        kinds = {bad[0] for bad in _one_term_mismatches(2)}
        assert kinds == {"circ", "codegeneracy"}


def _record_interned(monkeypatch) -> list:
    """Patch the checks' key interning to record, for every hook call, the
    hook's own coordinates, the interned dict handed to the check and a
    copy of it taken at once."""
    calls, interned = [], operad_core._interned

    def recording(coordinates):
        hook = interned(coordinates)

        def record(x):
            img = hook(x)
            calls.append((coordinates(x), img, dict(img)))
            return img

        return record

    monkeypatch.setattr(operad_core, "_interned", recording)
    return calls


class TestNonzeroColumnTables:
    def test_tables_hold_nonzero_columns_only(self, monkeypatch):
        # the codegeneracies kill every monomial whose leaf sits in a
        # bracket, so zero columns occur: they must be left out
        tables = []
        for name in ("_arrow_table", "_composite_table"):
            fn = getattr(operad_core, name)

            def record(*args, fn=fn, **kwargs):
                out = fn(*args, **kwargs)
                tables.append(out)
                return out

            monkeypatch.setattr(operad_core, name, record)
        op = PoissonOperad(2)
        assert check_cosimplicial_identities(cosimplicial_from_operad(op), 4).passed
        assert tables and all(isinstance(t, dict) for t in tables)
        assert all(img for t in tables for img in t.values())
        level = [monomial_element(2, 3, m) for m in basis(2, 3)]
        s1 = operad_core._arrow_table(op.coordinates, basis(2, 3), level,
                                      lambda x: codegeneracy(1, x))
        assert set(s1) == {m for m in basis(2, 3) if (1,) in m}

    def test_one_term_shortcut_aliases_table_images(self):
        img = {"a": 2, "b": -1}
        table = {"x": img}
        assert operad_core._apply(table, {"x": 1}) is img
        assert operad_core._apply(table, {"x": -3}) == {"a": -6, "b": 3}
        assert operad_core._apply(table, {"y": 5}) == {}
        assert img == {"a": 2, "b": -1}

    @pytest.mark.parametrize("check", ["axioms", "cosimplicial"])
    def test_table_images_never_mutated(self, check, monkeypatch):
        # every table image is a dict the check's interned hook returned;
        # the one-term shortcuts hand those very dicts on, so any later
        # write to a result would corrupt the tables
        calls = _record_interned(monkeypatch)
        fast, slow = _both_paths(PoissonOperad, 3, check, 4)
        assert fast.passed and fast.checks == slow.checks
        assert calls and all(img == copy for _, img, copy in calls)
