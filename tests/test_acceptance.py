"""End-to-end acceptance battery: one test per release criterion.

Each test prints a single PASS/FAIL line (bypassing capture) with its
measured wall time, and enforces both the numeric tolerances and the
runtime budget it was signed off with.
"""

import itertools
import math
import time
from fractions import Fraction

import pytest

from knotoperads import cli
from knotoperads.geometry import (
    check_insertion_naturality,
    closure_trials,
    disks_comparison_trials,
    membership_trials,
)
from knotoperads.hochschild import (
    build_complex,
    check_d_squared,
    hh_table,
    smith_normal_form,
    snf_is_valid,
)
from knotoperads.operad_core import (
    check_cosimplicial_identities,
    check_operad_axioms,
    cosimplicial_from_operad,
)
from knotoperads.pair_operad import ChooseTwoOperad, check_s2_iso, s2_elements
from knotoperads.poisson import PoissonOperad, basis, monomial_degree
from knotoperads.trees import RpTree, parse_tree


def _report(capsys, name: str, ok: bool, elapsed: float, budget: float,
            detail: str = "") -> None:
    ok = ok and elapsed < budget
    line = f"{'PASS' if ok else 'FAIL'} {name} [{elapsed:.2f}s < {budget:.0f}s]"
    if detail:
        line += f" {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


# six representative composite shapes, each with at most 3 internal vertices
SHAPES = ["(* * * *)", "((* *) * *)", "(* (* * *))",
          "((* *) (* *))", "(((* *) *) *)", "((* *) (* *) * *)"]


def _set_partitions(xs):
    if not xs:
        yield []
        return
    first, rest = xs[0], xs[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


class TestAcceptance:
    def test_01_pair_sphere_isomorphism(self, capsys):
        t0 = time.perf_counter()
        rep = check_s2_iso(8)
        sizes_ok = all(len(s2_elements(n)) == n * (n - 1) // 2 + 1
                       for n in range(9))
        code = cli.main(["verify", "s2-iso", "--max-level", "8"])
        capsys.readouterr()  # drop the artifact from the captured stream
        _report(capsys, "pair-operad levels match the simplicial 2-sphere",
                rep.passed and sizes_ok and code == 0,
                time.perf_counter() - t0, 1.0,
                f"({rep.checks} checks, levels 0..8)")

    def test_02_operad_axioms_exhaustive(self, capsys):
        t0 = time.perf_counter()
        reps = [ChooseTwoOperad().axiom_report(5)]
        reps += [check_operad_axioms(PoissonOperad(n), 4) for n in (2, 3)]
        _report(capsys, "operad axioms pass exhaustively (pairs <=5 leaves,"
                " brackets <=4 slots, n in {2,3}, exact)",
                all(r.passed for r in reps),
                time.perf_counter() - t0, 60.0,
                f"({sum(r.checks for r in reps)} checks)")

    def test_03_basis_dimension_count(self, capsys):
        t0 = time.perf_counter()
        ok = True
        for k in range(8):
            # independent oracle: partitions weighted by cyclic block counts
            expected = sum(
                math.prod(math.factorial(len(b) - 1) for b in part)
                for part in _set_partitions(list(range(1, k + 1))))
            ok &= expected == math.factorial(k)
            for n in (2, 3):
                by_q: dict[int, int] = {}
                for mono in basis(n, k):
                    q = monomial_degree(mono, n)
                    by_q[q] = by_q.get(q, 0) + 1
                ok &= sum(by_q.values()) == expected
        _report(capsys, "graded basis dimensions sum to k! for k <= 7,"
                " both parities", ok, time.perf_counter() - t0, 60.0)

    def test_04_cosimplicial_identities_and_d_squared(self, capsys):
        t0 = time.perf_counter()
        ok, checks = True, 0
        for n in (2, 3):
            rep = check_cosimplicial_identities(
                cosimplicial_from_operad(PoissonOperad(n)), 6)
            ok, checks = ok and rep.passed, checks + rep.checks
            for normalized in (True, False):
                rep = check_d_squared(build_complex(n, 6, normalized))
                ok, checks = ok and rep.passed, checks + rep.checks
        _report(capsys, "cosimplicial identities (levels <=6) and d^2 = 0"
                " (p <= 6, n in {2,3}, exact)", ok,
                time.perf_counter() - t0, 600.0, f"({checks} checks)")

    def test_05_normalized_matches_full_ranks(self, capsys):
        t0 = time.perf_counter()
        ok, compared = True, 0
        for n in (2, 3):
            norm = hh_table(n, 5, "rational", normalized=True)
            full = hh_table(n, 5, "rational", normalized=False)
            ranks_n = {(e.p, e.q): e.rank for e in norm.entries}
            ranks_f = {(e.p, e.q): e.rank for e in full.entries}
            for pq, r in ranks_f.items():
                if pq in ranks_n:
                    ok &= ranks_n[pq] == r
                    compared += 1
                else:
                    # bidegrees killed by normalization must carry no cohomology
                    ok &= r == 0
        _report(capsys, "normalized and full complexes give equal rational"
                " ranks (interior p < 5, n in {2,3})", ok,
                time.perf_counter() - t0, 600.0,
                f"({compared} shared bidegrees)")

    def test_06_normalized_vanishing_line(self, capsys):
        t0 = time.perf_counter()
        ok = True
        for n in (2, 3):
            c = build_complex(n, 7, normalized=True)
            for p, q in c.bidegrees():
                ok &= 2 * q >= p * n
                if n >= 3 and p >= 1:
                    # the line q >= 3p/2 clears the diagonal once p >= 1
                    ok &= q > p
            # non-vacuity: pure bracket words survive normalization
            ok &= all(c.dim(p, (p - 1) * n) > 0 for p in range(2, 8))
        _report(capsys, "normalized groups vanish below q = p*n/2"
                " (p <= 7; diagonal clears for n = 3)", ok,
                time.perf_counter() - t0, 60.0)

    def test_07_membership_closed_under_composition(self, capsys):
        t0 = time.perf_counter()
        ok, worst = True, 0.0
        for m in (3, 4, 5):
            r = membership_trials(6, m, 1000)
            ok, worst = ok and r["passed"], max(worst, r["max_residual"])
            for text in SHAPES:
                r = closure_trials(parse_tree(text), m, 1000)
                ok, worst = ok and r["passed"], max(worst, r["max_residual"])
        _report(capsys, "sphere-image and composite configurations pass both"
                " membership checks (21000 seeded trials)",
                ok and worst <= 1e-9, time.perf_counter() - t0, 120.0,
                f"(max residual {worst:.2e} <= 1e-09)")

    def test_08_projection_insertion_naturality(self, capsys):
        t0 = time.perf_counter()
        reps = [check_insertion_naturality(n, 3, 15) for n in range(7)]
        _report(capsys, "projection intertwines point insertions with"
                " cofaces, exactly (105 seeded inputs)",
                all(r.passed for r in reps),
                time.perf_counter() - t0, 10.0,
                f"({sum(r.checks for r in reps)} checks)")

    def test_09_disks_homotopy_endpoints(self, capsys):
        t0 = time.perf_counter()
        ok, end_gap, limit_gap = True, 0.0, 0.0
        # every root-plus-one-level shape with at most 4 leaves
        trees = [RpTree(tuple(((),) * a if a else () for a in pattern))
                 for k in range(1, 5) for pattern in itertools.product(range(5), repeat=k)
                 if sum(max(a, 1) for a in pattern) <= 4]
        for tree in trees:
            r = disks_comparison_trials(tree, 3, 100)
            ok &= r["passed"]
            end_gap = max(end_gap, r["max_end_gap"])
            limit_gap = max(limit_gap, r["max_limit_gap"])
        _report(capsys, "disk-composition homotopy matches both endpoint"
                f" composites ({len(trees)} trees x 100 trials)",
                ok and end_gap <= 1e-12 and limit_gap <= 1e-4,
                time.perf_counter() - t0, 30.0,
                f"(end {end_gap:.2e} <= 1e-12, limit {limit_gap:.2e} <= 1e-4)")

    def test_10_integral_certificates(self, capsys):
        t0 = time.perf_counter()
        ok, certified = True, 0
        for normalized in (True, False):
            c = build_complex(2, 5, normalized)
            for p in sorted(c.diff):
                dense = c.diff[p].to_dense()
                ok &= snf_is_valid(dense, smith_normal_form(dense))
                certified += 1
        rational = hh_table(2, 5, "rational")
        integral = hh_table(2, 5, "integral")
        ranks_r = {(e.p, e.q): e.rank for e in rational.entries}
        ranks_z = {(e.p, e.q): e.rank for e in integral.entries}
        ok &= ranks_r == ranks_z
        _report(capsys, "Smith-form certificates verify exactly and integral"
                " ranks match rational ones (p < 5, n = 2)", ok,
                time.perf_counter() - t0, 600.0,
                f"({certified} matrices certified)")
