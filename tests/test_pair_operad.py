"""Tests for the choose-two operad and the two-sphere comparison."""

import collections
import itertools

import pytest

from knotoperads import pair_operad
from knotoperads.operad_core import check_operad_axioms, cosimplicial_from_operad
from knotoperads.pair_operad import (
    BASEPOINT,
    ChooseTwoOperad,
    b_elements,
    b_morphism_map,
    b_structure_map,
    b_tree_elements,
    check_b_functoriality,
    check_s2_iso,
    pair_count,
    s2_degeneracy,
    s2_face,
)
from knotoperads.trees import corolla, enumerate_trees, parse_tree


class TestElements:
    def test_cardinality(self):
        for n in range(9):
            assert len(b_elements(n)) == pair_count(n) + 1

    def test_low_levels_are_basepoint_only(self):
        assert b_elements(0) == [BASEPOINT]
        assert b_elements(1) == [BASEPOINT]
        assert b_elements(2) == [BASEPOINT, (1, 2)]

    def test_tree_value_is_wedge_over_vertices(self):
        t = parse_tree("(* (* *))")
        assert b_tree_elements(t) == [BASEPOINT, ((), (1, 2)), ((1,), (1, 2))]
        assert len(b_tree_elements(corolla(4))) == 1 + 6


class TestS2Maps:
    def test_face_examples(self):
        assert s2_face(3, 2)[(2, 3)] == BASEPOINT
        assert s2_face(3, 0)[(1, 3)] == BASEPOINT
        assert s2_face(3, 2)[(1, 2)] == (1, 2)

    def test_boundary_rules(self):
        # bottom face kills first-index-1 pairs, top kills last-index-n
        for n in range(2, 7):
            for j, k in itertools.combinations(range(1, n + 1), 2):
                assert (s2_face(n, 0)[(j, k)] == BASEPOINT) == (j == 1)
                assert (s2_face(n, n)[(j, k)] == BASEPOINT) == (k == n)

    def test_degeneracy_examples(self):
        assert s2_degeneracy(2, 0)[(1, 2)] == (2, 3)
        assert s2_degeneracy(2, 2)[(1, 2)] == (1, 2)
        assert s2_degeneracy(5, 3)[BASEPOINT] == BASEPOINT

    def test_degeneracy_injective_off_basepoint(self):
        for n in range(2, 7):
            for i in range(n + 1):
                fn = s2_degeneracy(n, i)
                images = [fn[p] for p in b_elements(n) if p != BASEPOINT]
                assert len(set(images)) == len(images)
                assert BASEPOINT not in images

    def test_index_ranges(self):
        with pytest.raises(ValueError):
            s2_face(3, 4)
        with pytest.raises(ValueError):
            s2_face(0, 0)
        with pytest.raises(ValueError):
            s2_degeneracy(3, -1)


class TestStructureMap:
    def test_corolla_identity(self):
        fn = b_structure_map(corolla(5))
        for p in itertools.combinations(range(1, 6), 2):
            assert fn[p] == ((), p)

    def test_two_level_tree(self):
        t = parse_tree("(* (* *))")
        fn = b_structure_map(t)
        assert fn[(1, 2)] == ((), (1, 2))
        assert fn[(2, 3)] == ((1,), (1, 2))
        assert fn[(1, 3)] == ((), (1, 2))

    def test_pairs_never_die(self):
        for n in range(6):
            for t in enumerate_trees(n):
                fn = b_structure_map(t)
                for p, v in fn.items():
                    if p != BASEPOINT:
                        assert v != BASEPOINT


class TestMorphismMap:
    def test_identity_morphism(self):
        t = parse_tree("(* (* *))")
        fn, target = b_morphism_map(t, [])
        assert target == t
        assert fn == {x: x for x in b_tree_elements(t)}

    def test_hand_example(self):
        # contract the middle vertex of a three-level chain
        t = parse_tree("(* (* (* *)))")
        fn, target = b_morphism_map(t, [(1,)])
        assert target == parse_tree("(* * (* *))")
        # the deep vertex survives as target child 3
        assert fn[((2,), (1, 2))] == ((1, 1), (1, 2))
        # root pairs pull back to joins in the source
        assert fn[((), (1, 2))] == ((), (1, 2))
        assert fn[((), (2, 3))] == ((1,), (1, 2))
        assert fn[((), (1, 3))] == ((), (1, 2))

    def test_functoriality_property(self):
        rep = check_b_functoriality(5)
        assert rep.passed
        assert rep.checks > 200


class TestCosimplicialStructure:
    def test_coface_tables_match_sphere_faces(self):
        op = ChooseTwoOperad()
        for n in range(7):
            for i in range(n + 2):
                assert op.coface_fn(n, i) == s2_face(n + 1, i)

    def test_codegeneracy_tables_match_sphere_degeneracies(self):
        op = ChooseTwoOperad()
        for n in range(1, 8):
            for i in range(1, n + 1):
                assert op.codegeneracy_fn(n, i) == s2_degeneracy(n - 1, i - 1)

    def test_index_ranges(self):
        op = ChooseTwoOperad()
        with pytest.raises(ValueError):
            op.coface_fn(2, 4)
        with pytest.raises(ValueError):
            op.codegeneracy_fn(2, 0)

    def test_backward_direction_plumbing(self):
        cos = cosimplicial_from_operad(ChooseTwoOperad())
        assert cos.direction == "backward"
        # the arrow at level 1 with index 1 collapses the only level-2 pair
        assert cos.coface(1, 1)((1, 2)) == BASEPOINT


class TestIsomorphism:
    def test_s2_iso_small(self):
        rep = check_s2_iso(2)
        assert rep.passed

    def test_s2_iso_full(self):
        rep = check_s2_iso(8)
        assert rep.passed
        assert rep.checks > 100

    def test_needs_a_pair(self):
        with pytest.raises(ValueError):
            check_s2_iso(1)

    def test_each_arrow_built_once_per_comparison(self, monkeypatch):
        # the face and degeneracy comparisons take each arrow once per
        # (level, index), not once per element; the identity check takes it
        # once more
        built, coface_fn = collections.Counter(), ChooseTwoOperad.coface_fn

        def counted(self, n, i):
            built[n, i] += 1
            return coface_fn(self, n, i)

        monkeypatch.setattr(ChooseTwoOperad, "coface_fn", counted)
        assert check_s2_iso(8).passed
        assert set(built) == {(n, i) for n in range(8) for i in range(n + 2)}
        assert set(built.values()) == {2}


class TestOperadAxioms:
    def test_dispatches_and_passes(self):
        rep = check_operad_axioms(ChooseTwoOperad(), max_arity=5)
        assert rep.passed
        assert "choose-two" in rep.name


class TestWitnesses:
    def test_built_only_on_failure(self, monkeypatch):
        calls, first_mismatch = [], pair_operad._first_mismatch

        def counted(got, want):
            calls.append(1)
            return first_mismatch(got, want)

        monkeypatch.setattr(pair_operad, "_first_mismatch", counted)
        assert check_s2_iso(8).passed
        assert check_operad_axioms(ChooseTwoOperad(), max_arity=5).passed
        assert calls == []
        # a wrong face still reports the witness it always has
        face = pair_operad.s2_face

        def wrong_face(n, i):
            fn = face(n, i)
            if (n, i) == (3, 1):
                fn[(1, 3)] = BASEPOINT
            return fn

        monkeypatch.setattr(pair_operad, "s2_face", wrong_face)
        rep = check_s2_iso(8)
        assert rep.checks == 596 and len(calls) == 1
        assert rep.failures == [{
            "level": 3, "map": "face", "index": 1,
            "witness": {"input": "(1, 3)", "got": "(1, 2)", "want": "'+'"}}]

    def test_corolla_agreement_failure_has_witness(self, monkeypatch):
        structure_map = pair_operad.b_structure_map

        def wrong(tree):
            fn = structure_map(tree)
            if tree == corolla(3):
                fn[(1, 2)] = ((), (2, 3))
            return fn

        monkeypatch.setattr(pair_operad, "b_structure_map", wrong)
        rep = check_b_functoriality(3)
        assert {"tree": corolla(3).to_text(), "law": "corolla-agreement",
                "witness": {"input": "(1, 2)", "got": "((), (1, 2))",
                            "want": "((), (2, 3))"}} in rep.failures
