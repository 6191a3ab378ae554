import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotoperads import hochschild, poisson
from knotoperads.errors import BoundExceededError
from knotoperads.hochschild import (
    IntMatrix,
    _unit_factors,
    _unit_rank,
    build_complex,
    cohomology,
    eliminate_units,
    hh_table,
    matmul_int,
    rank_int,
    smith_normal_form,
    snf_is_valid,
)

from algebra_oracles import check_d_squared


# -- exact linear algebra oracles -------------------------------------------------


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


def _nullspace(rows):
    """RREF nullspace basis over Fraction, one vector per free column."""
    m = [list(map(Fraction, r)) for r in rows]
    nr = len(m)
    nc = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [v / m[r][c] for v in m[r]]
        for i in range(nr):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    basis = []
    for f in (c for c in range(nc) if c not in pivots):
        v = [Fraction(0)] * nc
        v[f] = Fraction(1)
        for rr, c in enumerate(pivots):
            v[c] = -m[rr][f]
        basis.append(tuple(v))
    return basis


def _det(rows) -> Fraction:
    m = [list(map(Fraction, r)) for r in rows]
    n = len(m)
    sign = 1
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        det *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return sign * det


def _random_matrix(rng, rows, cols, lo=-4, hi=4):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


class TestRank:
    def test_matches_fraction_elimination(self):
        rng = random.Random(7)
        for rows, cols in [(3, 5), (5, 3), (4, 4), (1, 6), (6, 1)]:
            for _ in range(10):
                a = _random_matrix(rng, rows, cols)
                assert rank_int(a) == _rank_fractions(a)

    def test_empty(self):
        assert rank_int([]) == 0


class TestSmithNormalForm:
    def test_identity(self):
        s = smith_normal_form([[1, 0], [0, 1]])
        assert s.factors == (1, 1)
        assert snf_is_valid([[1, 0], [0, 1]], s)

    def test_diag_2_3(self):
        a = [[2, 0], [0, 3]]
        s = smith_normal_form(a)
        assert s.factors == (1, 6)
        assert snf_is_valid(a, s)

    def test_zero(self):
        a = [[0, 0, 0], [0, 0, 0]]
        s = smith_normal_form(a)
        assert s.factors == ()
        assert snf_is_valid(a, s)

    def test_random_certificates(self):
        rng = random.Random(13)
        for rows, cols in [(3, 3), (2, 5), (5, 2), (4, 4), (4, 6)]:
            for _ in range(8):
                a = _random_matrix(rng, rows, cols)
                s = smith_normal_form(a)
                assert snf_is_valid(a, s), (a, s.factors)
                assert len(s.factors) == _rank_fractions(a)

    def test_square_determinant_product(self):
        rng = random.Random(29)
        for _ in range(12):
            a = _random_matrix(rng, 4, 4)
            d = _det(a)
            s = smith_normal_form(a)
            prod = 1
            for f in s.factors:
                prod *= f
            if d:
                assert prod == abs(d)
            else:
                assert len(s.factors) < 4

    def test_torsion_with_unimodular_conjugation(self):
        # diag(2,4) hidden behind row/column mixing keeps factors 2, 4
        a = [[2, 2], [2, 6]]  # = [[1,0],[1,1]] @ diag(2,4) @ [[1,1],[0,1]]
        s = smith_normal_form(a)
        assert s.factors == (2, 4)
        assert snf_is_valid(a, s)


class TestIntMatrix:
    def test_set_and_dense(self):
        m = IntMatrix(2, 3)
        m.col[1][0] = 5
        m.col[2][1] = -1
        del m.col[1][0]
        assert m.to_dense() == [[0, 0, 0], [0, 0, -1]]
        assert m.col[2] == {1: -1}

    def test_compose_matches_dense(self):
        rng = random.Random(5)
        a = IntMatrix(4, 3)
        b = IntMatrix(3, 5)
        for m in (a, b):
            for _ in range(6):
                r, c = rng.randrange(m.rows), rng.randrange(m.cols)
                v = rng.randint(-3, 3)
                if v:
                    m.col[c][r] = v
                else:
                    m.col[c].pop(r, None)
        assert a.compose(b).to_dense() == matmul_int(a.to_dense(),
                                                     b.to_dense())

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            IntMatrix(2, 2).compose(IntMatrix(3, 3))

    def test_is_zero(self):
        m = IntMatrix(2, 2)
        assert m.is_zero()
        m.col[1][1] = 4
        assert not m.is_zero()


def _int_matrix(dense, cols=None):
    m = IntMatrix(len(dense), len(dense[0]) if dense else cols or 0)
    for r, row in enumerate(dense):
        for c, v in enumerate(row):
            if v:
                m.col[c][r] = v
    return m


@st.composite
def _small_matrices(draw):
    """Small integer matrices, 0 x k and k x 0 included, with plenty of
    non-unit entries."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entry = st.sampled_from((0, 0, 0, 1, -1, 2, -2, 3, 4, -6))
    dense = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    return _int_matrix(dense, cols)


class TestUnitElimination:
    """eliminate_units against the dense oracles rank_int and
    smith_normal_form on whole matrices."""

    @staticmethod
    def _assert_matches_oracle(m):
        dense = m.to_dense()
        assert _unit_rank(*eliminate_units(m)) == rank_int(dense)
        assert _unit_factors(*eliminate_units(m)) == smith_normal_form(dense).factors
        assert m.to_dense() == dense  # the input is left untouched

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("normalized", [True, False])
    def test_matches_oracle_on_complex(self, n, normalized):
        c = build_complex(n, 6, normalized)
        for (p, q), m in sorted(c.diff.items()):
            self._assert_matches_oracle(m)

    @settings(max_examples=300, deadline=None, database=None,
              derandomize=True)
    @given(_small_matrices())
    def test_matches_oracle_on_small_matrices(self, m):
        self._assert_matches_oracle(m)

    @settings(max_examples=200, deadline=None, database=None,
              derandomize=True)
    @given(_small_matrices(), st.randoms(use_true_random=False))
    def test_pivot_order_invariants(self, m, rnd):
        # permuting rows and columns changes the pivot order, not the rank
        # or the invariant factors; every order leaves no unit behind
        dense = m.to_dense()
        rank, factors = rank_int(dense), smith_normal_form(dense).factors
        for _ in range(4):
            rperm = rnd.sample(range(m.rows), m.rows)
            cperm = rnd.sample(range(m.cols), m.cols)
            pm = _int_matrix([[dense[r][c] for c in cperm] for r in rperm],
                             m.cols)
            assert _unit_rank(*eliminate_units(pm)) == rank
            assert _unit_factors(*eliminate_units(pm)) == factors
            _, block = eliminate_units(pm)
            assert not any(v in (1, -1) for row in block for v in row)

    @pytest.mark.parametrize("rows,cols", [(0, 3), (3, 0), (0, 0), (2, 4)])
    def test_empty_and_zero(self, rows, cols):
        m = IntMatrix(rows, cols)
        assert eliminate_units(m) == (0, [])
        assert _unit_rank(*eliminate_units(m)) == 0
        assert _unit_factors(*eliminate_units(m)) == ()

    def test_no_unit_leaves_whole_matrix(self):
        twos = [[2] * 4 for _ in range(3)]
        assert eliminate_units(_int_matrix(twos)) == (0, twos)
        assert _unit_factors(*eliminate_units(_int_matrix(twos))) == (2,)
        a = [[2, 4], [6, 8]]
        assert eliminate_units(_int_matrix(a)) == (0, a)
        assert _unit_factors(*eliminate_units(_int_matrix(a))) == (2, 4)

    def test_unit_pivot_leaves_schur_complement(self):
        # pivot 1 at (0, 0): the block is [[5 - 2*3]] = [[-1]], also a unit
        assert eliminate_units(_int_matrix([[1, 3], [2, 5]])) == (2, [])
        # a torsion factor survives only in the leftover block
        units, block = eliminate_units(_int_matrix([[1, 1, 0], [1, 3, 2]]))
        assert units == 1 and block == [[2, 2]]
        assert _unit_factors(*eliminate_units(
            _int_matrix([[1, 1, 0], [1, 3, 2]]))) == (1, 2)


# -- complex construction ----------------------------------------------------------


def _codegeneracy_rows(n, p):
    bas = list(poisson.basis(n, p))
    tgt = {m: i for i, m in enumerate(poisson.basis(n, p - 1))}
    rows = []
    for i in range(1, p + 1):
        block = [[0] * len(bas) for _ in tgt]
        for j, m in enumerate(bas):
            img = poisson.codegeneracy(i, poisson.monomial_element(n, p, m))
            for tm, cv in img.terms.items():
                block[tgt[tm]][j] = int(cv)
        rows.extend(block)
    return rows


class TestBuildComplex:
    def test_low_levels_full(self):
        c = build_complex(2, 3, normalized=False)
        assert c.dim(0, 0) == 1
        assert c.dim(1, 0) == 1
        assert c.dim(2, 0) == 1
        assert c.dim(2, 2) == 1

    def test_low_levels_normalized(self):
        c = build_complex(2, 3, normalized=True)
        assert c.dim(0, 0) == 1
        assert c.dim(1, 0) == 0
        assert c.dim(2, 0) == 0
        assert c.basis[(2, 2)] == [((1, 2),)]

    @pytest.mark.parametrize("n,p", [(2, 2), (2, 3), (2, 4), (3, 3)])
    def test_normalized_kernel_matches_nullspace(self, n, p):
        # honest kernel intersection of all codegeneracies via RREF
        bas = list(poisson.basis(n, p))
        supports = set()
        for v in _nullspace(_codegeneracy_rows(n, p)):
            nz = [i for i, x in enumerate(v) if x]
            assert len(nz) == 1 and v[nz[0]] == 1
            supports.add(nz[0])
        want = {i for i, m in enumerate(bas)
                if not any(len(w) == 1 for w in m)}
        assert supports == want

    @pytest.mark.parametrize("n,max_p,normalized", [
        (2, 6, True), (2, 6, False), (3, 5, True), (3, 5, False)])
    def test_d_squared_zero(self, n, max_p, normalized):
        rep = check_d_squared(build_complex(n, max_p, normalized))
        assert rep.checks > 0
        assert rep.passed, rep.failures[:2]

    def test_vanishing_line(self):
        c = build_complex(2, 6, normalized=True)
        for (p, q) in c.bidegrees():
            assert 2 * q >= p * c.n, (p, q)

    def test_level_bound(self, monkeypatch):
        with pytest.raises(BoundExceededError, match="level bound 7"):
            build_complex(2, 8)
        monkeypatch.setattr(hochschild, "MAX_LEVEL_BOUND", 8)
        build_complex(2, 8, normalized=False)

    def test_leaving_normalized_span_raises(self, monkeypatch):
        # d^{p+1} alone appends a singleton block, which no normalized
        # basis monomial has
        def top_coface_only(n, m):
            return {m + ((poisson.monomial_arity(m) + 1,),): 1}

        monkeypatch.setattr(poisson, "coface_sum", top_coface_only)
        with pytest.raises(AssertionError, match="normalized span"):
            build_complex(2, 3)

    def test_codegeneracy_proof_once_per_level(self, monkeypatch):
        calls = []
        real = poisson.codegeneracy_monomial

        def counted(i, m):
            calls.append(i)
            return real(i, m)

        monkeypatch.setattr(poisson, "codegeneracy_monomial", counted)
        hochschild._assert_codegeneracy_kernel_structure.cache_clear()
        build_complex(2, 5)
        # the proof calls s^i once per singleton block (i,): (p - 1)! basis
        # monomials of level p >= 1 have it, so p! calls per level, on the
        # levels below max_p only (the top level is a codomain)
        assert len(calls) == sum(math.factorial(p) for p in range(1, 5))
        calls.clear()
        build_complex(3, 5)
        build_complex(2, 4)
        assert calls == []

    @pytest.mark.parametrize("fake", [
        # not injective: every image is the all-singleton monomial
        lambda i, m: None if (i,) not in m else tuple(
            (v,) for v in range(1, sum(map(len, m)))),
        # not a basis monomial: every word of the image is reversed
        lambda i, m, real=poisson.codegeneracy_monomial: None
        if (i,) not in m else tuple(tuple(reversed(w)) for w in real(i, m)),
    ], ids=["non-injective", "non-basis"])
    def test_codegeneracy_proof_rejects_bad_images(self, monkeypatch, fake):
        hochschild._assert_codegeneracy_kernel_structure.cache_clear()
        monkeypatch.setattr(poisson, "codegeneracy_monomial", fake)
        try:
            # both fakes are first caught at p = 3, which the proof reaches
            # only below the top level max_p = 4
            with pytest.raises(AssertionError, match="partial bijection"):
                build_complex(2, 4)
        finally:
            hochschild._assert_codegeneracy_kernel_structure.cache_clear()

    def test_normalized_levels_are_derangements(self):
        # outside oracle: a monomial without a singleton block is a
        # permutation without fixed points, read through its cycles; the
        # derangement numbers D(p) are OEIS A000166.  Every level, the top
        # one too, is its slices in basis order, each at its own degree
        for n in (2, 3):
            c = build_complex(n, 7)
            levels = [[m for q in c.q_values(p) for m in c.basis[(p, q)]]
                      for p in range(8)]
            assert [len(level) for level in levels] == [
                1, 0, 1, 2, 9, 44, 265, 1854]
            for p, level in enumerate(levels):
                assert level == [m for m in poisson.basis(n, p)
                                 if min(map(len, m), default=2) > 1], p
            for (p, q), mons in c.basis.items():
                assert {poisson.monomial_degree(m, n) for m in mons} == {q}

    def test_top_level_equals_filtered_basis_to_p8(self):
        # every normalized level, the top one included, is enumerated from
        # the partitions into blocks of size >= 2, never filtered from the
        # basis; slice by slice it is the filtered full slice.  D(8) = 14,833
        try:
            levels = [poisson.basis_slices(p, 2) for p in range(9)]
            assert [sum(len(mons) for _, mons in slices)
                    for slices in levels] == [
                1, 0, 1, 2, 9, 44, 265, 1854, 14833]
            for p, slices in enumerate(levels):
                full = [(b, tuple(m for m in mons
                                  if min(map(len, m), default=2) > 1))
                        for b, mons in poisson.basis_slices(p)]
                assert list(slices) == [(b, mons) for b, mons in full if mons], p
        finally:
            poisson.basis_slices.cache_clear()  # drop the arity-8 levels

    def test_codegeneracy_proof_holds_to_p8(self):
        # called directly, the proof passes on every level to p = 8, the
        # levels a top level skips included
        hochschild._assert_codegeneracy_kernel_structure.cache_clear()
        try:
            for p in range(9):
                assert hochschild._assert_codegeneracy_kernel_structure(p) \
                    is None, p
        finally:
            hochschild._assert_codegeneracy_kernel_structure.cache_clear()
            poisson.basis_slices.cache_clear()

    @pytest.mark.parametrize("n", [2, 3])
    def test_top_level_missing_an_image_monomial_raises(self, monkeypatch, n):
        # the top level is not proven to be the kernel; the span check is
        # what catches a top slice that lacks a term of some image
        c = build_complex(n, 5)
        q, d = next((q, d) for (p, q), d in sorted(c.diff.items())
                    if p == 4 and any(d.col))
        dropped = c.basis[(5, q)][next(r for col in d.col for r in col)]
        real = poisson.basis_slices

        def without(k, least=1):
            slices = real(k, least)
            if (k, least) != (5, 2):
                return slices
            return tuple((b, tuple(m for m in mons if m != dropped))
                         for b, mons in slices)

        monkeypatch.setattr(poisson, "basis_slices", without)
        with pytest.raises(AssertionError,
                           match=f"leaves the normalized span at p=4, q={q}$"):
            build_complex(n, 5)

    def test_coface_changing_the_degree_raises(self, monkeypatch):
        # one block of all p + 1 letters has degree p n, which only the
        # empty monomial (p = 0) keeps; the full complex indexes the rest
        def one_block(n, m):
            return {(tuple(range(1, poisson.monomial_arity(m) + 2)),): 1}

        monkeypatch.setattr(poisson, "coface_sum", one_block)
        with pytest.raises(AssertionError, match="^coface changed the degree$"):
            build_complex(2, 3, normalized=False)

    def test_missing_target_raises(self, monkeypatch):
        # reversed words keep the degree but leave normal form: below p = 3
        # every nonzero column is all singletons and indexed, d(x1 [x2, x3])
        # holds (4, 3), which is not
        real = poisson.coface_sum

        def reversed_words(n, m):
            return {tuple(w[::-1] for w in tm): c
                    for tm, c in real(n, m).items()}

        monkeypatch.setattr(poisson, "coface_sum", reversed_words)
        with pytest.raises(AssertionError, match="^target monomial missing$"):
            build_complex(2, 4, normalized=False)

    @pytest.mark.parametrize("first", ["missing", "degree"])
    def test_first_unindexed_term_decides(self, monkeypatch, first):
        # d(x1) gets the unsorted ((2,), (1,)) of degree 0, which no slice
        # indexes, and [x1, x2] of degree 2: the term listed first decides
        def both(n, m):
            k = poisson.monomial_arity(m) + 1
            terms = {"missing": tuple((v,) for v in range(k, 0, -1)),
                     "degree": (tuple(range(1, k + 1)),)}
            return {terms[t]: 1 for t in sorted(terms, key=lambda t: t != first)}

        monkeypatch.setattr(poisson, "coface_sum", both)
        message = {"missing": "target monomial missing",
                   "degree": "coface changed the degree"}[first]
        with pytest.raises(AssertionError, match=f"^{message}$"):
            build_complex(2, 2, normalized=False)

    def test_negative_max_p(self):
        with pytest.raises(ValueError):
            build_complex(2, -1)

    def test_dim_zero_x1_differential(self):
        # d(x1) = x1x2 - x1x2 + x1x2 on the full complex, one survivor
        c = build_complex(2, 2, normalized=False)
        assert c.diff[(1, 0)].to_dense() == [[1]]
        # d at level 0 cancels: d^0(1) = x1 = d^1(1)
        assert c.diff[(0, 0)].to_dense() == [[0]]


class TestCohomology:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("normalized", [True, False])
    def test_rank_one_at_origin(self, n, normalized):
        c = build_complex(n, 3, normalized)
        assert cohomology(c, 0, 0) == 1

    @pytest.mark.parametrize("n", [2, 3])
    def test_hand_values_full(self, n):
        c = build_complex(n, 4, normalized=False)
        assert cohomology(c, 1, 0) == 0
        # the bracket generator is a surviving cocycle: its coface sum
        # cancels termwise and nothing of degree n exists at arity 1
        assert cohomology(c, 2, n) == 1

    @pytest.mark.parametrize("n", [2, 3])
    def test_integral_matches_rational(self, n):
        c = build_complex(n, 5, normalized=True)
        for (p, q) in c.bidegrees():
            if p >= c.max_p:
                continue
            rank, torsion = cohomology(c, p, q, "integral")
            assert rank == cohomology(c, p, q, "rational"), (p, q)
            assert all(f > 1 for f in torsion)

    @pytest.mark.parametrize("n", [2, 3])
    def test_normalized_full_ranks_agree(self, n):
        cn = build_complex(n, 5, normalized=True)
        cf = build_complex(n, 5, normalized=False)
        qs = {q for (p, q) in set(cn.bidegrees()) | set(cf.bidegrees())}
        for p in range(5):
            for q in qs:
                assert cohomology(cn, p, q) == cohomology(cf, p, q), (p, q)

    @pytest.mark.parametrize("n,torsion", [
        (2, {(6, 8): (2,)}),
        (3, {(4, 6): (2,), (5, 9): (3,), (6, 9): (2,), (6, 12): (2,)}),
    ])
    def test_integral_torsion_to_p7(self, n, torsion):
        t = hh_table(n, 7, "integral")
        assert {(e.p, e.q): e.torsion for e in t.entries if e.torsion} == \
            torsion

    # dim A^fr(k): chord diagrams on k chords modulo the 4T relation only,
    # sum_{j<=k} dim A(j) with dim A(j) = 1, 0, 1, 1 for j = 0..3 (A also
    # modulo 1T; Bar-Natan, "On the Vassiliev knot invariants", Topology 34,
    # 1995).  The n = 2 diagonal H^{2k,2k} must equal it.
    A_FR = {1: 1, 2: 2, 3: 3}

    @pytest.mark.parametrize("n,ranks", [
        (2, {(0, 0): 1, (2, 2): 1, (3, 4): 1, (4, 4): 2, (5, 6): 2,
             (6, 6): 3}),
        # measured here, not checked against the literature
        (3, {(0, 0): 1, (2, 3): 1, (4, 6): 1, (5, 9): 1, (6, 9): 2}),
    ])
    def test_rational_ranks_to_p7(self, n, ranks):
        t = hh_table(n, 7)
        assert {(e.p, e.q): e.rank for e in t.entries if e.rank} == ranks
        if n == 2:
            for k, dim in self.A_FR.items():
                assert t.entry(2 * k, 2 * k).rank == dim, k

    # measured here at max_p 8, not checked against the literature: each
    # p = 7 entry as (q, dim, rank, torsion), the rational ranks the same;
    # snf_is_valid certifies every torsion factor inside _unit_factors
    @pytest.mark.parametrize("n,column", [
        (2, [(8, 210, 5, (2,)), (10, 924, 0, ()), (12, 720, 0, ())]),
        (3, [(12, 210, 1, (30,)), (15, 924, 1, (5,)), (18, 720, 0, ())]),
    ])
    def test_integral_column_p7(self, monkeypatch, n, column):
        monkeypatch.setattr(hochschild, "MAX_LEVEL_BOUND", 8)
        try:
            t = hh_table(n, 8, "integral")
        finally:
            poisson.basis_slices.cache_clear()  # drop the arity-8 levels
        assert [(e.q, e.dim, e.rank, e.torsion)
                for e in t.entries if e.p == 7] == column

    def test_incoming_image_not_a_cocycle_raises(self):
        c = build_complex(2, 6)  # d: C^{4,6} -> C^{5,6} -> C^{6,6}
        p, q = next((p, q) for (p, q), d_in in sorted(c.diff.items())
                    if d_in.cols and (p + 1, q) in c.diff
                    and not c.diff[(p + 1, q)].is_zero())
        d_in, d_out = c.diff[(p, q)], c.diff[(p + 1, q)]
        # adding 1 at row r of d_in adds column r of d_out to d_out d_in
        r = next(r for r, col in enumerate(d_out.col) if col)
        d_in.col[0][r] = d_in.col[0].get(r, 0) + 1
        with pytest.raises(AssertionError, match="not a cocycle"):
            cohomology(c, p + 1, q, "integral")

    def test_out_of_range(self):
        c = build_complex(2, 3)
        with pytest.raises(ValueError):
            cohomology(c, 3, 2)
        with pytest.raises(ValueError):
            cohomology(c, -1, 0)
        with pytest.raises(ValueError):
            cohomology(c, 1, 0, "p-adic")


class TestTable:
    def test_requires_two_levels(self):
        with pytest.raises(ValueError):
            hh_table(2, 1)

    def test_euler_characteristic_per_complete_row(self):
        max_p = 6
        t = hh_table(2, max_p, "rational", normalized=True)
        for q in sorted({e.q for e in t.entries}):
            if 2 * (q // 2) > max_p - 1:
                continue  # row extends past the computed range
            ranks = sum((-1) ** e.p * e.rank for e in t.entries if e.q == q)
            dims = sum((-1) ** e.p * e.dim for e in t.entries if e.q == q)
            assert ranks == dims, q

    def test_integral_table_consistent(self):
        ti = hh_table(2, 4, "integral")
        tr = hh_table(2, 4, "rational")
        assert [(e.p, e.q, e.rank) for e in ti.entries] == \
            [(e.p, e.q, e.rank) for e in tr.entries]
        for e in ti.entries:
            assert e.torsion is not None
        for e in tr.entries:
            assert e.torsion is None

    def test_json_shape_and_determinism(self):
        t = hh_table(2, 4)
        obj = t.to_json_obj()
        assert set(obj) == {"n", "max_p", "normalized", "coefficients",
                            "entries"}
        assert all(set(e) == {"p", "q", "dim", "rank"}
                   for e in obj["entries"])
        again = hh_table(2, 4).to_json_obj()
        assert json.dumps(obj, sort_keys=True) == \
            json.dumps(again, sort_keys=True)
        timed = t.to_json_obj(timings=True)
        assert all("seconds" in e for e in timed["entries"])

    def test_csv_layout(self):
        t = hh_table(2, 4)
        lines = t.to_csv().strip().splitlines()
        assert lines[0].split(",") == ["q\\p", "0", "1", "2", "3"]
        origin = lines[1].split(",")
        assert origin[0] == "0" and origin[1] == "1"

    def test_csv_torsion_cells(self):
        t = hh_table(2, 4, "integral")
        cells = [cell for line in t.to_csv().splitlines()[1:]
                 for cell in line.split(",")[1:] if cell]
        assert cells  # every populated cell prints rank or rank;factors
        for cell in cells:
            head = cell.split(";")[0]
            assert head.lstrip("-").isdigit() and int(head) >= 0

    def test_entry_lookup(self):
        t = hh_table(2, 4)
        assert t.entry(0, 0).rank == 1
        assert t.entry(0, 99) is None

    @pytest.mark.parametrize("coefficients", ["rational", "integral"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_each_differential_eliminated_once(self, monkeypatch, n, coefficients):
        # d_out at p is d_in at p + 1: the table eliminates it once, and
        # every entry is still the one cohomology() gives on its own
        calls = []
        eliminate = hochschild.eliminate_units

        def spy(m):
            calls.append(m)
            return eliminate(m)

        monkeypatch.setattr(hochschild, "eliminate_units", spy)
        t = hh_table(n, 6, coefficients)
        needed = {(pp, e.q) for e in t.entries for pp in (e.p, e.p - 1)}
        assert len(calls) == len(needed) < 2 * len(t.entries)
        c = hochschild.build_complex(n, 6)
        for e in t.entries:
            alone = cohomology(c, e.p, e.q, coefficients)
            assert alone == ((e.rank, e.torsion) if coefficients == "integral"
                             else e.rank)
