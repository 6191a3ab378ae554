"""Tests for the generic operad interface and cosimplicial machinery."""

import itertools

import pytest

from knotoperads.operad_core import (
    AssociativeOperad,
    CheckReport,
    CosimplicialObject,
    OperadInstance,
    _composite_table,
    check_cosimplicial_identities,
    check_operad_axioms,
    cosimplicial_from_operad,
    structure_map,
)
from knotoperads.trees import corolla, enumerate_trees, graft, parse_tree

from algebra_oracles import structure_map_stepwise


class BrokenOperad(AssociativeOperad):
    """Deliberately wrong composition; the axiom checker must notice."""

    name = "broken"

    def circ(self, x, i, y):
        if i == 2 and y == 2:
            return x + y  # off by one
        return super().circ(x, i, y)


class NoMultiplication(OperadInstance):
    name = "unit-only"

    def entry(self, n):
        return [n] if n == 1 else []

    def arity_of(self, x):
        return x

    def circ(self, x, i, y):
        return x + y - 1

    def unit(self):
        return 1


def _arity_assignment(t):
    return {v: t.arity(v) for v in t.vertices()}


class TestCheckReport:
    def test_pass_fail(self):
        rep = CheckReport("demo")
        rep.record(True)
        assert rep.passed and rep.checks == 1
        rep.record(False, {"why": "x"})
        assert not rep.passed
        assert rep.failures == [{"why": "x"}]
        assert "FAIL demo" in rep.summary()

    def test_merge_and_json(self):
        a, b = CheckReport("a"), CheckReport("b")
        a.record(True)
        b.record(False, "bad")
        a.merge(b)
        assert a.checks == 2 and a.failures == ["bad"]
        assert a.to_json_obj()["passed"] is False


class TestAxiomChecker:
    def test_associative_passes(self):
        rep = check_operad_axioms(AssociativeOperad(), max_arity=6)
        assert rep.passed
        assert rep.checks > 100

    def test_detects_broken_composition(self):
        rep = check_operad_axioms(BrokenOperad(), max_arity=4)
        assert not rep.passed

    def test_graded_interchange_sign(self):
        # disjoint-slot grafts of two odd elements anticommute; the
        # checker must compare against the transposed-sign composite
        from knotoperads.poisson import PoissonOperad, circ, monomial_element

        op = PoissonOperad(3)
        prod = monomial_element(3, 2, ((1,), (2,)))
        brk = monomial_element(3, 2, ((1, 2),))
        assert op.degree(brk) == 3 and op.degree(prod) == 0
        lhs = circ(circ(prod, 1, brk), 3, brk)
        rhs = circ(circ(prod, 2, brk), 1, brk)
        assert lhs == rhs.scale(-1)
        assert check_operad_axioms(op, max_arity=3).passed


class TestStructureMap:
    def test_corolla_is_identity(self):
        op = AssociativeOperad()
        assert structure_map(op, corolla(4), {(): 4}) == 4

    def test_graft_is_single_circ(self):
        op = AssociativeOperad()
        for n in range(1, 4):
            for m in range(1, 4):
                for i in range(1, n + 1):
                    g = graft(n, i, m)
                    elems = _arity_assignment(g.source)
                    assert structure_map(op, g, elems) == op.circ(n, i, m)

    def test_rejects_non_corolla_target(self):
        from knotoperads.trees import TreeMorphism
        t = parse_tree("(* (* *) (* *))")
        partial = TreeMorphism(t, frozenset({(1,)}))
        with pytest.raises(ValueError):
            structure_map(AssociativeOperad(), partial, _arity_assignment(t))

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            structure_map(AssociativeOperad(), corolla(3), {(): 2})

    def test_order_independence(self):
        # every contraction order gives the same composite
        op = AssociativeOperad()
        for n in range(2, 6):
            for t in enumerate_trees(n):
                elems = _arity_assignment(t)
                want = structure_map(op, t, elems)
                assert want == n
                orders = list(itertools.permutations(t.internal_edges()))
                for order in orders[:6]:
                    got = structure_map_stepwise(op, t, elems, list(order))
                    assert got == want

    def test_stepwise_needs_all_edges(self):
        t = parse_tree("(* (* *) (* *))")
        with pytest.raises(ValueError):
            structure_map_stepwise(AssociativeOperad(), t,
                                   _arity_assignment(t), [(1,)])


class TestCosimplicial:
    def test_associative_levels_and_maps(self):
        cos = cosimplicial_from_operad(AssociativeOperad())
        assert cos.level_elements(3) == [3]
        for n in range(4):
            for i in range(n + 2):
                assert cos.coface(n, i)(n) == n + 1
            for i in range(1, n + 1):
                assert cos.codegeneracy(n, i)(n) == n - 1

    def test_associative_identities(self):
        cos = cosimplicial_from_operad(AssociativeOperad())
        rep = check_cosimplicial_identities(cos, max_level=6)
        assert rep.passed

    def test_requires_multiplication(self):
        with pytest.raises(ValueError):
            cosimplicial_from_operad(NoMultiplication())

    def test_coface_index_range(self):
        cos = cosimplicial_from_operad(AssociativeOperad())
        with pytest.raises(ValueError):
            cos.coface(2, 4)
        with pytest.raises(ValueError):
            cos.codegeneracy(2, 0)

    def test_detects_wrong_face(self):
        # two-point levels where d^0 swaps: d^0 d^0 != d^1 d^0 as functions
        # although both cover the ordinal identity
        def coface(n, i):
            if i == 0:
                return lambda x: 1 - x
            return lambda x: x

        broken = CosimplicialObject(
            level_elements=lambda n: [0, 1],
            coface=coface,
            codegeneracy=lambda n, i: (lambda x: x),
        )
        rep = check_cosimplicial_identities(broken, max_level=3)
        assert not rep.passed

    def test_linear_composite_drops_cancelled_terms(self):
        # arrow tables in coordinates: f1(x) = a + b, f2(a) = z, f2(b) = -z,
        # so f2 f1 (x) = 0 and must compare equal to the zero vector, which a
        # table of nonzero columns holds as a missing key
        def f1(v):
            raise AssertionError("the linear path reads only the tables")

        def f2(v):
            raise AssertionError("the linear path reads only the tables")

        lin = CosimplicialObject(None, None, None, coordinates=lambda v: v)
        tables = {f1: {"x": {"a": 1, "b": 1}},
                  f2: {"a": {"z": 1}, "b": {"z": -1}}}
        assert _composite_table(lin, [{"x": 1}], f1, f2, tables) == {}

    def test_linear_levels_must_be_basis_elements(self):
        lin = CosimplicialObject(
            level_elements=lambda n: [{"e": 2}],
            coface=lambda n, i: (lambda v: v),
            codegeneracy=lambda n, i: (lambda v: v),
            coordinates=lambda v: v)
        with pytest.raises(ValueError, match="not a basis element"):
            check_cosimplicial_identities(lin, max_level=2)
