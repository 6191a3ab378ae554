"""Tests for rooted planar trees, contraction, and enumeration."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotoperads.errors import BoundExceededError
from knotoperads.trees import (
    MAX_TREE_DEPTH,
    RpTree,
    contract_with_map,
    corolla,
    enumerate_trees,
    pair_joins,
    parse_tree,
)

from algebra_oracles import graft, join_vertex


# -- independent counting oracle ---------------------------------------------

def _reduced_count(n: int) -> int:
    """Count reduced planar trees with n leaves via the standard three-term
    recurrence, with no tree construction involved:

        (n+1) * s(n+1) = 3*(2n-1)*s(n) - (n-2)*s(n-1),  s(1) = s(2) = 1.
    """
    if n <= 0:
        return 1
    s = [0, 1, 1]
    while len(s) <= n:
        k = len(s) - 1
        num = 3 * (2 * k - 1) * s[k] - (k - 2) * s[k - 1]
        assert num % (k + 1) == 0
        s.append(num // (k + 1))
    return s[n]


def all_trees(max_leaves):
    for n in range(max_leaves + 1):
        yield from enumerate_trees(n)


def _is_reduced(t):
    """No vertex has exactly one child, except in the 1-corolla."""
    return t.root == ((),) or all(t.arity(v) != 1 for v in t.vertices())


def _contract(t, edges):
    return contract_with_map(t, edges)[0]


# -- parsing and formatting ----------------------------------------------------

class TestTextForm:
    @pytest.mark.parametrize("text", [
        "()",
        "(*)",
        "(* *)",
        "(* (* *))",
        "((* *) (* * *))",
        "(* (* (* *)) *)",
    ])
    def test_round_trip(self, text):
        assert parse_tree(text).to_text() == text

    def test_whitespace_insensitive(self):
        assert parse_tree(" ( *   ( * * ) ) ") == parse_tree("(* (* *))")

    @pytest.mark.parametrize("bad", ["", "*", "(", "(* *", "(* *) *", "(x)"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_tree(bad)

    def test_depth_bound(self):
        def nested(depth):
            return "(" * (depth - 1) + "(* *)" + ")" * (depth - 1)

        deepest = parse_tree(nested(MAX_TREE_DEPTH))
        assert parse_tree(deepest.to_text()) == deepest
        assert len(deepest.internal_edges()) == MAX_TREE_DEPTH - 1
        for depth in (MAX_TREE_DEPTH + 1, 3000):
            with pytest.raises(BoundExceededError):
                parse_tree(nested(depth))

    @settings(max_examples=400, deadline=None, database=None,
              derandomize=True)
    @given(st.tuples(st.integers(0, 2 * MAX_TREE_DEPTH),
                     st.text(alphabet="()* ", max_size=60)))
    def test_fuzz_outcomes(self, wrapped):
        # a random core inside k balanced parentheses, so that deep and
        # well-formed texts both occur
        k, core = wrapped
        text = "(" * k + core + ")" * k
        try:
            tree = parse_tree(text)
        except (ValueError, BoundExceededError):
            return
        assert parse_tree(tree.to_text()) == tree

    def test_corolla_text(self):
        assert corolla(0).to_text() == "()"
        assert corolla(3).to_text() == "(* * *)"


# -- structure queries ---------------------------------------------------------

class TestStructure:
    def test_corolla_shape(self):
        t = corolla(4)
        assert t.leaf_count == 4
        assert t.vertices() == [()]
        assert t.internal_edges() == []
        assert t.leaf_paths() == [(0,), (1,), (2,), (3,)]

    def test_nested_paths(self):
        t = parse_tree("(* (* *))")
        assert t.vertices() == [(), (1,)]
        assert t.leaf_paths() == [(0,), (1, 0), (1, 1)]
        assert t.internal_edges() == [(1,)]
        assert t.arity(()) == 2
        assert t.arity((1,)) == 2

    def test_leaf_order_is_planar(self):
        t = parse_tree("((* *) * (* (* *)))")
        # depth-first left-to-right
        assert t.leaf_paths() == [
            (0, 0), (0, 1), (1,), (2, 0), (2, 1, 0), (2, 1, 1),
        ]

    def test_is_reduced(self):
        # the predicate the enumeration tests below rely on
        assert _is_reduced(corolla(1))
        assert _is_reduced(parse_tree("(* (* *))"))
        assert not _is_reduced(parse_tree("((* *))"))
        assert not _is_reduced(parse_tree("(* ((* *)))"))


# -- contraction ----------------------------------------------------------------

class TestContraction:
    def test_single_edge(self):
        t = parse_tree("(* (* *))")
        assert _contract(t, [(1,)]) == corolla(3)

    def test_splice_preserves_planar_order(self):
        t = parse_tree("((* *) (* * *))")
        assert _contract(t, [(0,)]) == parse_tree("(* * (* * *))")
        assert _contract(t, [(1,)]) == parse_tree("((* *) * * *)")
        assert _contract(t, [(0,), (1,)]) == corolla(5)

    def test_vertex_map(self):
        t = parse_tree("(* (* (* *)))")
        _, m = contract_with_map(t, [(1,)])
        # contracted vertex absorbed into the root
        assert m[(1,)] == ()
        # leaves stay leaves, renumbered by splice position
        assert m[(0,)] == (0,)
        assert m[(1, 0)] == (1,)
        assert m[(1, 1)] == (2,)
        assert m[(1, 1, 0)] == (2, 0)

    def test_rejects_leaf_and_root(self):
        t = parse_tree("(* *)")
        with pytest.raises(ValueError):
            _contract(t, [(0,)])
        with pytest.raises(ValueError):
            _contract(t, [()])

    def test_two_step_equals_one_step(self):
        # contracting A then the images of B matches contracting A | B, both
        # on trees and on vertex maps; a surviving edge maps to an edge
        for t in all_trees(5):
            internal = t.internal_edges()
            for r in range(len(internal) + 1):
                for sub in itertools.combinations(internal, r):
                    whole, hm = contract_with_map(t, sub)
                    for k in range(len(sub) + 1):
                        for a in itertools.combinations(sub, k):
                            mid, fm = contract_with_map(t, a)
                            b = [fm[e] for e in sub if e not in a]
                            assert all(mid.node_at(e) != () for e in b)
                            end, gm = contract_with_map(mid, b)
                            assert end == whole
                            for v in fm:
                                assert gm[fm[v]] == hm[v]


class TestMorphism:
    def test_identity(self):
        # contracting nothing is the identity, on the tree and on paths
        t = parse_tree("(* (* *))")
        target, m = contract_with_map(t, [])
        assert target == t
        assert m == {v: v for v in [()] + t.edges()}

    def test_to_corolla(self):
        for t in all_trees(5):
            if t.leaf_count == 0:
                continue
            target, m = contract_with_map(t, t.internal_edges())
            assert target == corolla(t.leaf_count)
            # leaf order is preserved
            images = [m[l] for l in t.leaf_paths()]
            assert images == target.leaf_paths()


# -- join_vertex -----------------------------------------------------------------

class TestJoinVertex:
    def test_corolla(self):
        t = corolla(4)
        for i, j in itertools.combinations(range(1, 5), 2):
            assert join_vertex(t, i, j) == ((), i, j)

    def test_nested(self):
        t = parse_tree("(* (* *))")
        assert join_vertex(t, 2, 3) == ((1,), 1, 2)
        assert join_vertex(t, 1, 3) == ((), 1, 2)
        assert join_vertex(t, 1, 2) == ((), 1, 2)

    def test_labels_ordered(self):
        # planarity: the two children the leaves pass through are ordered
        for t in all_trees(5):
            n = t.leaf_count
            for i, j in itertools.combinations(range(1, n + 1), 2):
                v, a, b = join_vertex(t, i, j)
                assert 1 <= a < b <= t.arity(v)

    def test_symmetry(self):
        for t in all_trees(4):
            n = t.leaf_count
            for i, j in itertools.combinations(range(1, n + 1), 2):
                v, a, b = join_vertex(t, i, j)
                assert join_vertex(t, j, i) == (v, b, a)

    def test_rejects_bad_pairs(self):
        t = corolla(3)
        for i, j in [(0, 1), (2, 2), (1, 4)]:
            with pytest.raises(ValueError):
                join_vertex(t, i, j)

    def test_pair_joins_match_join_vertex(self):
        # every pair of every tree with at most 6 leaves, unary vertices
        # included, keyed in combinations order
        for t in all_trees(6):
            n = t.leaf_count
            pairs = list(itertools.combinations(range(1, n + 1), 2))
            joins = pair_joins(t)
            assert list(joins) == pairs
            assert all(joins[p] == join_vertex(t, *p) for p in pairs)

    def test_pair_joins_walk_the_tree_once(self, monkeypatch):
        walks, leaf_paths = [], RpTree.leaf_paths

        def counted(tree):
            walks.append(tree)
            return leaf_paths(tree)

        monkeypatch.setattr(RpTree, "leaf_paths", counted)
        t = parse_tree("((* *) (* * *) *)")
        assert len(pair_joins(t)) == 15
        assert walks == [t]


# -- graft ------------------------------------------------------------------------

class TestGraft:
    def test_source_and_target(self):
        t = graft(3, 2, 2)
        assert t == parse_tree("(* (* *) *)")
        assert _contract(t, [(1,)]) == corolla(4)

    def test_leaf_arithmetic(self):
        for n in range(1, 5):
            for m in range(1, 5):
                for i in range(1, n + 1):
                    t = graft(n, i, m)
                    assert t.leaf_count == n + m - 1
                    assert _contract(t, [(i - 1,)]) == corolla(n + m - 1)

    def test_rejects_m_zero(self):
        with pytest.raises(ValueError):
            graft(2, 1, 0)
        with pytest.raises(ValueError):
            graft(2, 3, 1)


# -- enumeration --------------------------------------------------------------------

class TestEnumeration:
    def test_counts_match_recurrence_oracle(self):
        for n in range(7):
            assert len(enumerate_trees(n, limit=6)) == _reduced_count(n)

    def test_small_counts(self):
        assert [len(enumerate_trees(n)) for n in range(6)] == [1, 1, 1, 3, 11, 45]

    def test_all_reduced_with_right_leaves(self):
        for n in range(6):
            seen = set()
            for t in enumerate_trees(n):
                assert _is_reduced(t)
                assert t.leaf_count == n
                seen.add(t)
            assert len(seen) == _reduced_count(n)

    def test_bound(self):
        with pytest.raises(BoundExceededError):
            enumerate_trees(7)
        assert len(enumerate_trees(7, limit=7)) == _reduced_count(7)
