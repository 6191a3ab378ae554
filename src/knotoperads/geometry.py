"""Floating-point configuration geometry on spheres.

Gauss maps of point configurations, the three-dependence/four-consistency
membership checks for compactified configurations, operad composition on
sphere coordinates with its coface/codegeneracy maps, the little-disks
comparison homotopy, the endpoint-stretching maps lambda/pi_k taking
long-knot data to sphere configurations, and evaluation of sampled knots.

A sphere configuration is a point of (S^{m-1})^{B(n)}, B the choose-two
operad: one array of rows u_ij, i < j.  Its composition, cofaces and
codegeneracies are the maps B's pair functions induce, B's basepoint going
to *_S, each one row gather through a table read off pair_operad.

All arithmetic runs on numpy stacks of rows, (..., m): one configuration is
a stack of one, and the trial suites stack a chunk of trials and decide them
in one pass, each trial drawn from its own stream.  Three-dependence
enumerates the candidate combinations of every 3-loop by support, and
four-consistency is decided exactly from the coefficients of its identity.

Conventions fixed here once and used throughout:

- a norm sums the squares in coordinate order from 0.0 (``_dots``), and
  ``_unit_rows`` normalizes axis-aligned rows exactly (sign flip only),
  which is what makes the bookkeeping identities (cosimplicial, naturality)
  hold to the bit; point configurations are read-only row arrays too,
  validated in one pass, and hold a direction row only for each pair that
  carries one, so they take memory linear in their points and rows; disks
  exist only as (centers, radii) stacks, checked by ``_check_disks``;
- membership-side Gauss map is u_ij = u(x_i - x_j) for i < j, anti-symmetry
  extends the accessor;
- boundary data (knot samples, pi_k outputs) uses forward directions
  u(x_j - x_i) so that a coincident pair's direction is the curve tangent;
- the cube picture has marked endpoints *_+ = (0,..,0,1), *_- = (0,..,0,-1),
  and the sphere basepoint is *_S = (0,..,0,-1).
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import BoundExceededError
from .pair_operad import ChooseTwoOperad, b_elements, \
    b_structure_map, b_tree_elements, pair_count
from .trees import RpTree
from .operad_core import CheckReport, CosimplicialObject, check_cosimplicial_identities

DEFAULT_TOL = 1e-9
DEFAULT_EPS = 0.125          # endpoint shell width, must stay <= 1/6
EPS_MAX = 1.0 / 6.0
EPS_MIN = 2.0 ** -53         # at and below it 1 - eps/2 rounds to 1.0
LIMIT_TIME = 1e-6            # disks homotopy time for the t -> 0 comparison
LIMIT_TIME_MIN = 1e-8        # below it the limit gap may exceed LIMIT_TOL by rounding
LIMIT_TOL = 1e-4
UNIT_NORM_TOL = 1e-6         # slack for unit vectors arriving from JSON
MIN_SEP = 1e-3               # least distance between sampled points


# -- vector helpers -----------------------------------------------------------


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.cache
def south(m: int) -> np.ndarray:
    """The sphere basepoint *_S (also the lower cube endpoint *_-), read-only."""
    return _read_only(np.append(np.zeros(m - 1), -1.0))


@functools.cache
def north(m: int) -> np.ndarray:
    return _read_only(np.append(np.zeros(m - 1), 1.0))


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of coordinate-row stacks (m, ...) -> (...), summed from
    0.0 coordinate by coordinate in index order, so every stack shape gives
    the same floats (no einsum or matmul, whose order differs, and no sum(),
    which compensates on Python 3.12)."""
    total = np.zeros(a.shape[1:])
    for x, y in zip(a, b):
        total += x * y
    return total


def _norms(a: np.ndarray) -> np.ndarray:
    return np.sqrt(_dots(a, a))


def _check_dimension(m: int) -> None:
    """Configurations live in R^m, m >= 1: in R^0 all points coincide, so a
    separation-seeking sampler would never end."""
    if m < 1:
        raise ValueError(f"bad ambient dimension m={m}")


def _finite_rows(x, m: int, what: str, labels: Sequence | None = None,
                 unit: bool = False) -> np.ndarray:
    """x as a new read-only float64 array (len(x), m) of finite rows (a NaN
    would pass every tolerance test), unit vectors within UNIT_NORM_TOL if
    unit.  An error names the first bad row as what and its label (1-based
    index by default), checking every length, then finiteness, then norms."""
    labels = range(1, len(x) + 1) if labels is None else labels
    k = next((k for k, v in enumerate(x) if len(v) != m), None)
    if k is not None:
        raise ValueError(f"{what} {labels[k]} has dimension {len(x[k])}, expected {m}")
    arr = np.array(x, dtype=np.float64).reshape(len(x), m)
    bad, message = ~np.isfinite(arr).all(axis=1), "has a non-finite coordinate"
    if unit and not bad.any():
        with np.errstate(over="ignore"):  # a square past the float range is inf
            bad, message = np.abs(_norms(arr.T) - 1.0) > UNIT_NORM_TOL, "is not a unit vector"
    if bad.any():
        raise ValueError(f"{what} {labels[int(np.argmax(bad))]} {message}")
    return _read_only(arr)


def _json_object(obj, what: str) -> dict:
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(obj).__name__}")
    return obj


def _json_int(obj: dict, key: str) -> int:
    v = obj.get(key)
    if type(v) is not int:
        raise ValueError(f"field {key!r} must be an integer, got {v!r}")
    return v


def _json_vector(x, what: str) -> list:
    """A JSON list of finite numbers (a NaN would pass every tolerance test)."""
    try:
        ok = isinstance(x, list) and all(
            type(c) in (int, float) and math.isfinite(c) for c in x)
    except OverflowError:  # an integer beyond the float range
        ok = False
    if not ok:
        raise ValueError(f"{what} must be a list of finite numbers")
    return x


def _json_vectors(x, what: str) -> list:
    if not isinstance(x, list):
        raise ValueError(f"{what} must be a list of vectors")
    return [_json_vector(v, f"{what}[{k}]") for k, v in enumerate(x)]


def _json_pair_map(obj, what: str) -> dict:
    """``{"i,j": vector}`` -> ``{(i, j): vector}``."""
    out = {}
    for key, val in _json_object(obj, what).items():
        try:
            i, j = (int(part) for part in key.split(","))
        except ValueError:
            raise ValueError(
                f"{what} key {key!r} is not of the form 'i,j'") from None
        out[(i, j)] = _json_vector(val, f"{what}[{key!r}]")
    return out


# -- configuration types ------------------------------------------------------


def _pair_row(n: int, a, b):
    """The row of the pair of 0-based points a < b of n, in combinations
    order; elementwise on index arrays."""
    return a * (2 * n - a - 1) // 2 + b - a - 1


def _check_unit_rows(rows: np.ndarray, n: int, tol: float = UNIT_NORM_TOL) -> None:
    """Raise ValueError naming the first pair whose row, in the stack of pair
    rows (..., C(n, 2), m), is not finite or not a unit vector within tol."""
    with np.errstate(over="ignore"):      # a square past the float range is inf
        norms = _norms(rows.T).T
    ok = np.abs(norms - 1.0) <= tol       # false on a NaN or an inf too
    if not ok.all():
        bad = np.unravel_index(np.argmin(ok), ok.shape)
        what = (f"is not a unit vector: |v| = {norms[bad]}" if np.isfinite(rows[bad]).all()
                else "has a non-finite coordinate")
        raise ValueError(f"u{b_elements(n)[1 + int(bad[-1])]} {what}")


class SphereConfiguration:
    """A point of (S^{m-1})^{n choose 2}: the read-only float64 array
    ``rows`` (C(n, 2), m) of the u_ij, i < j, in combinations order.

    Every construction validates the rows: shape, finiteness, and unit norm
    within tol.  The accessor extends
    anti-symmetrically, u_ji = -u_ij."""

    __slots__ = ("m", "n", "rows")

    def __init__(self, m: int, n: int, rows, tol: float = UNIT_NORM_TOL):
        if m < 1 or n < 0:
            raise ValueError(f"bad dimensions m={m}, n={n}")
        count = pair_count(n)
        arr = np.array(rows, dtype=np.float64)
        if arr.size == 0:  # an empty list carries no width
            arr = arr.reshape(0, m)
        if arr.shape != (count, m):
            raise ValueError(f"rows have shape {arr.shape}, expected ({count}, {m}): "
                             f"one unit vector in R^{m} per pair of {n} points")
        _check_unit_rows(arr, n, tol)
        self.m = m
        self.n = n
        self.rows = _read_only(arr)

    def u(self, i: int, j: int) -> tuple[float, ...]:
        if i == j or not (1 <= i <= self.n and 1 <= j <= self.n):
            raise ValueError(f"pair ({i}, {j}) out of range for n={self.n}")
        row = self.rows[_pair_row(self.n, min(i, j) - 1, max(i, j) - 1)]
        return tuple((row if i < j else -row).tolist())

    def __eq__(self, other) -> bool:
        return (isinstance(other, SphereConfiguration)
                and self.m == other.m and self.n == other.n
                and bool((self.rows == other.rows).all()))

    def __repr__(self) -> str:
        return f"SphereConfiguration(m={self.m}, n={self.n}, rows={self.rows.tolist()!r})"

    def to_json_obj(self) -> dict:
        return {"m": self.m, "n": self.n,
                "u": {f"{i},{j}": v for (i, j), v in
                      zip(b_elements(self.n)[1:], self.rows.tolist())}}

    @staticmethod
    def from_json_obj(obj: dict) -> "SphereConfiguration":
        obj = _json_object(obj, "sphere configuration")
        u = _json_pair_map(obj.get("u"), "u")
        m, n = _json_int(obj, "m"), _json_int(obj, "n")
        if len(u) != pair_count(n):  # before building the n^2 index set
            raise ValueError(f"pair index mismatch: n={n} needs "
                             f"{pair_count(n)} pairs, got {len(u)}")
        pairs = b_elements(n)[1:]
        missing = [pair for pair in pairs if pair not in u]
        if missing:  # as many pairs as keys, so as many extra keys
            raise ValueError(f"pair index mismatch: missing {missing[:3]}, "
                             f"extra {sorted(set(u) - set(pairs))[:3]}")
        return SphereConfiguration(m, n, [u[pair] for pair in pairs])


class PointConfiguration:
    """n labeled points in R^m, optionally with unit tangents per point and
    stored directions for coincident pairs (the diagonal data of boundary
    configurations): the read-only float64 arrays ``points`` (n, m) and
    ``tangents`` (n, m) or None, and one direction row (P, m) per pair that
    carries one, with its 0-based points (2, P), in pair order."""

    __slots__ = ("m", "points", "tangents", "_pairs", "_dirs")

    def __init__(self, m: int, points: Sequence[Sequence[float]],
                 tangents: Sequence[Sequence[float]] | None = None,
                 pair_directions: Mapping[tuple[int, int], Sequence[float]] | None = None):
        _check_dimension(m)
        pairs = sorted(pair_directions or {})
        self._set(m, points, tangents, np.array(pairs, dtype=np.intp).reshape(-1, 2).T - 1,
                  [pair_directions[pair] for pair in pairs])

    @classmethod
    def _from_rows(cls, m: int, points, tangents, pairs: np.ndarray,
                   dirs) -> "PointConfiguration":
        """The configuration whose pairs (2, P) of 0-based points, in pair
        order, carry the direction rows dirs (P, m)."""
        c = cls.__new__(cls)
        c._set(m, points, tangents, pairs, dirs)
        return c

    def _set(self, m: int, points, tangents, pairs: np.ndarray, dirs) -> None:
        """Validate points, tangents, then the pairs and their directions;
        store all read-only."""
        points = _finite_rows(points, m, "point")
        if tangents is not None:
            if len(tangents) != len(points):
                raise ValueError("one tangent per point required")
            tangents = _finite_rows(tangents, m, "tangent", unit=True)
        pairs = np.array(pairs, dtype=np.intp).reshape(2, -1)
        if pairs.size:  # most configurations carry no direction: skip the checks
            a, b = pairs
            labels = list(zip((a + 1).tolist(), (b + 1).tolist()))
            out = (a < 0) | (a >= b) | (b >= len(points))
            if out.any():
                raise ValueError(f"pair direction index {labels[int(np.argmax(out))]} "
                                 "out of range")
            distinct = (points[a] != points[b]).any(axis=1)
            if distinct.any():
                raise ValueError(f"pair {labels[int(np.argmax(distinct))]} has a direction "
                                 "but distinct points")
            dirs = _finite_rows(dirs, m, "direction", labels, unit=True)
        else:
            dirs = _read_only(np.empty((0, m)))
        self.m = m
        self.points = points
        self.tangents = tangents
        self._pairs = _read_only(pairs)
        self._dirs = dirs

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def pair_directions(self) -> dict[tuple[int, int], np.ndarray]:
        """The direction row of each coincident pair (i, j), in pair order."""
        a, b = self._pairs + 1
        return dict(zip(zip(a.tolist(), b.tolist()), self._dirs))

    def __eq__(self, other) -> bool:
        return (isinstance(other, PointConfiguration) and self.m == other.m
                and np.array_equal(self.points, other.points)
                and np.array_equal(self.tangents, other.tangents)  # None too
                and np.array_equal(self._pairs, other._pairs)
                and np.array_equal(self._dirs, other._dirs))

    def __repr__(self) -> str:
        tangents = None if self.tangents is None else self.tangents.tolist()
        dirs = {pair: v.tolist() for pair, v in self.pair_directions.items()}
        return (f"PointConfiguration(m={self.m}, points={self.points.tolist()!r}, "
                f"tangents={tangents!r}, pair_directions={dirs!r})")

    def to_json_obj(self) -> dict:
        out: dict = {"m": self.m, "n": self.n, "points": self.points.tolist()}
        if self.tangents is not None:
            out["tangents"] = self.tangents.tolist()
        if len(self._dirs):
            out["pair_directions"] = {f"{i},{j}": v.tolist()
                                      for (i, j), v in self.pair_directions.items()}
        return out

    @staticmethod
    def from_json_obj(obj: dict) -> "PointConfiguration":
        obj = _json_object(obj, "point configuration")
        points = _json_vectors(obj.get("points"), "points")
        if "n" in obj and _json_int(obj, "n") != len(points):
            raise ValueError(f"point count mismatch: n={obj['n']}, "
                             f"got {len(points)} points")
        tangents = obj.get("tangents")
        if tangents is not None:
            tangents = _json_vectors(tangents, "tangents")
        dirs = None
        if "pair_directions" in obj:
            dirs = _json_pair_map(obj["pair_directions"], "pair_directions")
        return PointConfiguration(_json_int(obj, "m"), points, tangents, dirs)


def _check_disks(centers: np.ndarray, radii: np.ndarray, tol: float) -> None:
    """Raise ValueError on the first configuration of the stack, centers
    (T, n, m) and radii (T, n), with a radius outside (0, 1] or a ball
    leaving the unit ball by more than tol, checked disk by disk, or else
    with two balls overlapping by more than tol."""
    a, b = _pair_points(radii.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):
        disk = np.where((0.0 < radii) & (radii <= 1.0),
                        2 * (_norms(centers.T).T + radii > 1.0 + tol), 1)
        pair = _norms((centers[:, a] - centers[:, b]).T).T < radii[:, a] + radii[:, b] - tol
    t = int(np.argmax(disk.any(axis=1) | pair.any(axis=1)))
    if disk[t].any():
        k = int(np.argmax(disk[t] > 0))
        raise ValueError(f"radius {k + 1} = {float(radii[t, k])} outside (0, 1]"
                         if disk[t, k] == 1 else f"ball {k + 1} leaves the unit ball")
    if pair[t].any():
        r = int(np.argmax(pair[t]))
        raise ValueError(f"balls {a[r] + 1} and {b[r] + 1} overlap")


# -- Gauss map ---------------------------------------------------------------


@functools.cache
def _pair_points(n: int) -> np.ndarray:
    """The 0-based points (i, j) of each pair i < j of n points, in
    combinations order: (2, C(n, 2))."""
    out = np.array(list(itertools.combinations(range(n), 2)), dtype=np.intp).reshape(-1, 2).T
    return _read_only(out)


def _unit_rows(v: np.ndarray) -> np.ndarray:
    """Every row of the stack v (..., m) made a unit vector: a row with a
    single nonzero coordinate maps to that signed basis vector exactly, any
    other row is divided by its norm.  A zero row, or one whose norm
    underflows, comes out non-finite, for the unit-norm check to reject."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        out = v / _norms(v.T).T[..., None]
    single = np.count_nonzero(v, axis=-1) == 1
    if single.any():
        s = v[single]
        out[single] = np.where(s != 0.0, np.copysign(1.0, s), 0.0)
    return out


def _gauss_rows(points: np.ndarray, pairs: np.ndarray | None = None) -> np.ndarray:
    """The Gauss map of a stack of point sets (..., n, m): the pair rows
    unit(x_i - x_j), i < j, as (..., C(n, 2), m), or over the pairs (2, P)
    of 0-based points given.  Coincident points are an error, named by the
    first such pair."""
    a, b = _pair_points(points.shape[-2]) if pairs is None else pairs
    with np.errstate(over="ignore"):
        diffs = points[..., a, :] - points[..., b, :]
    coincide = ~diffs.any(axis=-1)
    if coincide.any():
        r = int(np.unravel_index(np.argmax(coincide), coincide.shape)[-1])
        raise ValueError(f"points {a[r] + 1} and {b[r] + 1} coincide")
    return _unit_rows(diffs)


def gauss_map(c: PointConfiguration) -> SphereConfiguration:
    """u_ij = unit(x_i - x_j) for i < j.  Coincident points are an error here;
    diagonal data is the business of _pi_rows."""
    return SphereConfiguration(c.m, c.n, _gauss_rows(c.points))


# -- membership: batched kernels ----------------------------------------------

# Both checks run on stacks of pair rows: the rows of one or many
# configurations as an array (..., C(n, 2), m).  A single configuration is a
# stack of one; a trial suite stacks a chunk of samples and decides them in
# one pass.

#: most points a membership report covers (exit 3 above): it lists every
#: 3-loop and 4-subset, C(32, 4) = 35,960 of them at the bound; also the most
#: leaves of a disks comparison tree
MAX_REPORT_POINTS = 32
_TRIAL_CHUNK = 50             # trials a suite samples and decides together
_LOOP_SIGNS = np.array([[1.0], [1.0], [-1.0]])   # (u_ij, u_jk, u_ik) -> u_ki = -u_ik


def check_report_points(n: int) -> None:
    """Raise BoundExceededError when n points exceed MAX_REPORT_POINTS."""
    if n > MAX_REPORT_POINTS:
        raise BoundExceededError(f"{n} points exceed the point bound {MAX_REPORT_POINTS}")


@functools.cache
def _subset_rows(n: int, k: int) -> np.ndarray:
    """Per k-subset of {1..n}, in combinations order, the pair-row indices
    of its C(k, 2) pairs, also in combinations order: (C(n, k), C(k, 2))."""
    row = {pair: r for r, pair in enumerate(itertools.combinations(range(1, n + 1), 2))}
    out = np.array([[row[pair] for pair in itertools.combinations(sub, 2)]
                    for sub in itertools.combinations(range(1, n + 1), k)], dtype=np.intp)
    return _read_only(out)


# -- membership: three-dependence --------------------------------------------


def _three_residuals(loops: np.ndarray, tol: float) -> np.ndarray:
    """Per loop of the stack loops (L, 3, m), the least norm of a candidate
    non-negative vanishing combination of its three unit vectors.

    The candidates are found by support: each pair's sum (antipodal pairs),
    each pair's 2-support solve (min over alpha of |alpha v_p + v_q|, kept
    when alpha >= -tol), and the three 3-support solves with one coefficient
    normalized to 1 (kept when the pair's Gram determinant is at least 1e-14
    and both solved coefficients are >= -tol).  Every loop computes every
    candidate; np.where drops the ones a condition rules out, and the
    arithmetic is that of _dots and _norms, so each residual is bit-identical
    to the scalar enumeration."""
    vecs = np.ascontiguousarray(np.moveaxis(loops, 0, -1))   # (3, m, L)
    # each Gram entry once: a product of floats commutes exactly, so
    # _dots(v_q, v_p) is _dots(v_p, v_q) to the bit
    gram = {(p, q): _dots(vecs[p], vecs[q])
            for p, q in itertools.combinations_with_replacement(range(3), 2)}
    best = np.full(len(loops), np.inf)
    for p, q in itertools.combinations(range(3), 2):
        vp, vq = vecs[p], vecs[q]
        best = np.minimum(best, _norms(vp + vq))
        alpha = -gram[p, q]
        best = np.minimum(best, np.where(alpha >= -tol, _norms(alpha * vp + vq), np.inf))
    for pivot in range(3):
        p, q = [k for k in range(3) if k != pivot]
        vp, vq, vc = vecs[p], vecs[q], vecs[pivot]
        gpp, gpq, gqq = gram[p, p], gram[p, q], gram[q, q]
        det = gpp * gqq - gpq * gpq
        # below 1e-14 the pair is parallel; the antipodal branch covers it
        solvable = np.abs(det) >= 1e-14
        det = np.where(solvable, det, 1.0)
        rp, rq = -gram[min(p, pivot), max(p, pivot)], -gram[min(q, pivot), max(q, pivot)]
        alpha = (rp * gqq - rq * gpq) / det
        beta = (gpp * rq - gpq * rp) / det
        keep = solvable & (alpha >= -tol) & (beta >= -tol)
        best = np.minimum(best, np.where(keep, _norms(alpha * vp + beta * vq + vc), np.inf))
    return best


def _loop_residuals(rows: np.ndarray, loops: np.ndarray, tol: float) -> np.ndarray:
    """Three-dependence residuals (..., L) of the configurations with pair
    rows (..., P, m), one per row of loops (L, 3): the rows of a 3-loop's
    pairs ij, ik, jk (see _subset_rows), on the vectors (u_ij, u_jk, u_ki)."""
    vecs = rows[..., loops[:, [0, 2, 1]], :] * _LOOP_SIGNS
    return _three_residuals(vecs.reshape(-1, 3, rows.shape[-1]), tol).reshape(vecs.shape[:-2])


def check_three_dependent(s: SphereConfiguration, tol: float = DEFAULT_TOL) -> dict:
    """For every 3-loop {ij, jk, ki}: is 0 a nontrivial non-negative
    combination of u_ij, u_jk, u_ki?  Decided by the batched kernel
    _three_residuals on the configuration's loops, as a stack of one."""
    if s.n < 3:
        raise ValueError(f"need at least 3 points, have {s.n}")
    check_report_points(s.n)
    residuals = _loop_residuals(s.rows, _subset_rows(s.n, 3), tol).tolist()
    loops = [{"loop": list(loop), "dependent": r <= tol, "residual": r}
             for loop, r in zip(itertools.combinations(range(1, s.n + 1), 3),
                                residuals)]
    return {"check": "three-dependent", "n": s.n, "m": s.m, "tol": tol,
            "passed": all(entry["dependent"] for entry in loops),
            "max_residual": max(residuals), "loops": loops}


# -- membership: four-consistency --------------------------------------------

# The identity is a sum over the 12 straight 3-chains on a 4-subset (the
# Hamiltonian paths modulo reversal).  All edges enter through their
# canonical orientation u_ij with i < j; the chain's sign is the parity of
# its vertex sequence as a permutation of the sorted subset.  Positions are
# 0-based here; the six unordered position pairs are indexed once.

_PAIR_SLOTS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_SLOT_INDEX = {p: k for k, p in enumerate(_PAIR_SLOTS)}
MAX_FOUR_DIM = 16             # C(m+2, 3)^2 = 666k coefficients per subset at 16
#: most coefficient cells, C(n, 4) * C(m+2, 3)^2, one configuration's
#: four-consistency computes (exit 3 above): 32 points at m = 8 take 5 s
MAX_FOUR_CELLS = 52 * 10 ** 7
# array cells per batch of 4-subsets: about one trial's worth at m = 5, so a
# suite's stacked chunks peak no higher than per-trial calls did
_FOUR_BATCH_CELLS = 1 << 15


def _perm_parity(seq: Sequence[int]) -> int:
    inv = sum(1 for a, b in itertools.combinations(seq, 2) if a > b)
    return -1 if inv % 2 else 1


def complement_chain(seq: Sequence[int]) -> tuple[int, ...]:
    """The complementary Hamiltonian path: the three edges of K4 not used by
    the path (i, j, k, l) again form a path, traversed as (k, i, l, j)."""
    if len(seq) != 4 or len(set(seq)) != 4:
        raise ValueError("need a sequence of four distinct vertices")
    i, j, k, l = seq
    return (k, i, l, j)


def _chain_terms() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 12 chains use 12 distinct edge triples, and each complement is
    again one of them: the triples' slots (3, 12), each chain's sign, and
    the index of its complement's triple."""
    def triple(seq: Sequence[int]) -> tuple[int, ...]:
        return tuple(sorted(_SLOT_INDEX[tuple(sorted(seq[t:t + 2]))] for t in range(3)))

    paths = [seq for seq in itertools.permutations(range(4))
             if seq[0] < seq[3]]  # modulo reversal
    triples = [triple(seq) for seq in paths]
    return (np.array(triples).T, np.array([_perm_parity(seq) for seq in paths]),
            np.array([triples.index(triple(complement_chain(seq))) for seq in paths]))


_CHAIN_SLOTS, _CHAIN_SIGNS, _COMPLEMENTS = _chain_terms()


@functools.cache
def _cubic_fold(m: int) -> np.ndarray:
    """The 0/1 matrix (m^3, C(m+2, 3)) taking a flattened tensor T to the
    coefficients of sum_ijk T_ijk v_i v_j v_k on the degree-3 monomials."""
    column = {mono: k for k, mono in enumerate(
        itertools.combinations_with_replacement(range(m), 3))}
    fold = np.eye(len(column))[[column[tuple(sorted(ijk))]
                                for ijk in itertools.product(range(m), repeat=3)]]
    return _read_only(fold)


def _chain_cubes(edges: np.ndarray) -> np.ndarray:
    """The tensors x_i y_j z_k of the 12 chain triples (x, y, z) of each
    4-subset of the stack edges (S, 6, m), flattened: (S, 12, m^3).

    The products run on the transposed stack (6, m, S), so the subset axis
    is the innermost loop of each, not one of length m.  Each entry is still
    (x_i y_j) z_k, so the floats are those of the products on the stack."""
    a, b, c = _CHAIN_SLOTS
    e = np.ascontiguousarray(edges.transpose(1, 2, 0))
    cubes = e[a, :, None, None] * e[b, None, :, None] * e[c, None, None, :]
    return np.ascontiguousarray(np.moveaxis(cubes.reshape(12, -1, len(edges)), -1, 0))


def _four_coefficients(edges: np.ndarray) -> np.ndarray:
    """The chain sums of 4-subsets with edge vectors ``edges`` (S, 6, m), in
    _PAIR_SLOTS order, as coefficient matrices (S, K, K) on the monomials
    v^alpha w^beta, |alpha| = |beta| = 3: C = sum_t sign_t F[t]^T F[comp_t],
    where row k of F is the cubic form of chain triple k on the monomials.

    Both products are stacked matmuls, one BLAS call per subset in these
    exact shapes: (12, m^3) @ _cubic_fold(m), then (K, 12) @ (12, K).  So a
    subset's coefficients do not depend on the stack it comes in.  One
    (S * 12, m^3) @ fold product would round some entries differently."""
    forms = _chain_cubes(edges) @ _cubic_fold(edges.shape[2])
    # sign_t on the complement's row: the same products, exactly
    signed = forms[:, _COMPLEMENTS]
    signed *= _CHAIN_SIGNS[:, None]
    return np.swapaxes(forms, 1, 2) @ signed


def _four_residuals(edges: np.ndarray) -> np.ndarray:
    """Per 4-subset of the stack edges (S, 6, m), in _PAIR_SLOTS order, the
    l1 norm of the coefficients of its chain sum P(v, w) (see
    _four_coefficients), computed over batches of _FOUR_BATCH_CELLS.

    On unit vectors every monomial is at most 1 in absolute value, so the
    residual bounds |P(v, w)| at every unit pair: it is at least as strict
    as evaluating P at any set of pairs.  It is zero exactly when P vanishes
    identically, that is, when the identity holds.

    A subset's residual is a function of its own edges alone, to the bit:
    every step is elementwise or a per-subset BLAS call of fixed shape, so
    neither the batch nor the subset's place in it changes it.  The trial
    suites rely on that to decide each distinct edge stack once."""
    m = edges.shape[-1]
    step = max(1, _FOUR_BATCH_CELLS // (_cubic_fold(m).shape[1] ** 2 + 12 * m ** 3))
    residuals = []
    for lo in range(0, len(edges), step):
        coeffs = _four_coefficients(edges[lo:lo + step])
        residuals.append(np.abs(coeffs, out=coeffs).sum(axis=(1, 2)))
    return np.concatenate(residuals)


def check_dimension_bound(m: int) -> None:
    """Raise BoundExceededError when m exceeds MAX_FOUR_DIM, the highest
    ambient dimension in which four-consistency is decided."""
    if m > MAX_FOUR_DIM:
        raise BoundExceededError(f"dimension {m} exceeds the four-consistency "
                                 f"dimension bound {MAX_FOUR_DIM}")


def _check_four_work(n: int, m: int) -> None:
    """Raise BoundExceededError when four-consistency on n points in R^m
    passes MAX_FOUR_DIM or, over all C(n, 4) subsets, MAX_FOUR_CELLS."""
    check_dimension_bound(m)
    cells = math.comb(n, 4) * math.comb(m + 2, 3) ** 2
    if cells > MAX_FOUR_CELLS:
        raise BoundExceededError(f"four-consistency on {n} points in R^{m} takes "
                                 f"{cells} coefficient cells, above the work "
                                 f"bound {MAX_FOUR_CELLS}")


def _subset_residuals(rows: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """Four-consistency residuals (..., S) of the configurations with pair
    rows (..., P, m), one per row of subsets (S, 6): the rows of a 4-subset's
    pairs in _PAIR_SLOTS order (see _subset_rows)."""
    edges = rows[..., subsets, :]
    return _four_residuals(edges.reshape(-1, 6, rows.shape[-1])).reshape(edges.shape[:-2])


def check_four_consistent(s: SphereConfiguration, tol: float = DEFAULT_TOL) -> dict:
    """Decide the signed chain/complement identity on every 4-subset.

    The identity is a polynomial of bidegree (3, 3) in a pair of unit
    vectors (v, w).  It is decided from its exact coefficients: a subset's
    residual is their l1 norm, which bounds the chain sum at every unit pair
    and is zero exactly when the identity holds (see _four_residuals)."""
    if s.n < 4:
        raise ValueError(f"need at least 4 points, have {s.n}")
    check_report_points(s.n)
    _check_four_work(s.n, s.m)
    residuals = _subset_residuals(s.rows, _subset_rows(s.n, 4)).tolist()
    worst = max(residuals)
    return {"check": "four-consistent", "n": s.n, "m": s.m, "tol": tol,
            "passed": worst <= tol, "max_residual": worst,
            "subsets": [{"subset": list(sub), "residual": r} for sub, r in
                        zip(itertools.combinations(range(1, s.n + 1), 4), residuals)]}


def membership_report(s: SphereConfiguration, tol: float = DEFAULT_TOL) -> dict:
    """Both membership checks, skipping the ones below their arity; four
    first, so that its bounds are checked before any work."""
    four = check_four_consistent(s, tol) if s.n >= 4 else None
    three = check_three_dependent(s, tol) if s.n >= 3 else None
    passed = all(rep["passed"] for rep in (three, four) if rep is not None)
    worst = max((rep["max_residual"] for rep in (three, four)
                 if rep is not None), default=0.0)
    return {"check": "membership", "n": s.n, "m": s.m, "tol": tol,
            "passed": passed, "max_residual": worst,
            "three_dependent": three, "four_consistent": four}


# -- operad composition on sphere coordinates ---------------------------------

# Each structure map gathers rows through its pair function, written target to
# source; the basepoint reads a *_S row appended to the rows (only cofaces do).


def _table(fn: dict, source: list, target: list) -> np.ndarray:
    """The gather index of fn from target to source, listed basepoint first."""
    row = {x: r for r, x in enumerate(source[1:] + source[:1])}
    out = np.array([row[fn[x]] for x in target[1:]], dtype=np.intp)
    return _read_only(out)


@functools.lru_cache(maxsize=128)
def _compose_table(tree: RpTree) -> tuple[tuple, np.ndarray]:
    """The vertices of tree, whose input rows stacked in that order list
    b_tree_elements(tree), and the gather index of b_structure_map(tree)."""
    return tuple(tree.vertices()), _table(
        b_structure_map(tree), b_tree_elements(tree), b_elements(tree.leaf_count))


@functools.lru_cache(maxsize=256)
def _coface_table(n: int, i: int) -> np.ndarray:
    return _table(ChooseTwoOperad().coface_fn(n, i), b_elements(n), b_elements(n + 1))


@functools.lru_cache(maxsize=256)
def _codegeneracy_table(n: int, i: int) -> np.ndarray:
    return _table(ChooseTwoOperad().codegeneracy_fn(n, i), b_elements(n), b_elements(n - 1))


def _vertex_inputs(tree: RpTree, inputs: Mapping[tuple, object]) -> int:
    """The common dimension of inputs, one per vertex of tree, of its arity."""
    internal = tree.vertices()
    if set(inputs) != set(internal):
        raise ValueError(f"inputs must be keyed by the internal vertices {internal}")
    ms = {x.m for x in inputs.values()}
    if len(ms) != 1:
        raise ValueError(f"mixed ambient dimensions {sorted(ms)}")
    for p in internal:
        arity = len(tree.node_at(p))
        if inputs[p].n != arity:
            raise ValueError(f"vertex {p!r} has arity {arity}, "
                             f"its input has arity {inputs[p].n}")
    return ms.pop()


def kontsevich_compose(tree: RpTree,
                       inputs: Mapping[tuple, SphereConfiguration]) -> SphereConfiguration:
    """w_ij = u^v_{a,b}, where b_structure_map(tree) sends (i, j) to the
    pair (a, b) of child slots at vertex v: the join vertex of leaves i and
    j and the slots the two leaves lie over."""
    m = _vertex_inputs(tree, inputs)
    internal, index = _compose_table(tree)
    rows = np.concatenate([inputs[p].rows for p in internal])
    return SphereConfiguration(m, tree.leaf_count, rows[index])


def _coface_rows(rows: np.ndarray, n: int, i: int) -> np.ndarray:
    """d^i on a stack of level-n rows (..., C(n, 2), m), the map
    ChooseTwoOperad.coface_fn(n, i) induces: a middle index doubles point i
    with the new mutual direction *_S, and i = 0 / n+1 adds a first / last
    point whose direction with every other is *_S.  One gather through
    _coface_table(n, i) from the rows with a *_S row appended."""
    m = rows.shape[-1]
    base = np.broadcast_to(south(m), rows.shape[:-2] + (1, m))
    return np.concatenate([rows, base], axis=-2)[..., _coface_table(n, i), :]


def _codegeneracy_rows(rows: np.ndarray, n: int, i: int) -> np.ndarray:
    """s^i on a stack of level-n rows (..., C(n, 2), m), deleting point i and
    relabeling, the map ChooseTwoOperad.codegeneracy_fn(n, i) induces: one
    gather through _codegeneracy_table(n, i)."""
    return rows[..., _codegeneracy_table(n, i), :]


class _SphereStack:
    """T sphere configurations of level n as one read-only stack of rows
    (T, C(n, 2), m), an element of check_sphere_cosimplicial's levels.  Every
    construction runs SphereConfiguration's unit-norm check on the stack;
    ``unstack`` gives the stacks of one that a witness names."""

    __slots__ = ("m", "n", "rows")

    def __init__(self, m: int, n: int, rows: np.ndarray):
        _check_unit_rows(rows, n)
        self.m, self.n, self.rows = m, n, _read_only(rows)

    def coface(self, i: int) -> "_SphereStack":
        return _SphereStack(self.m, self.n + 1, _coface_rows(self.rows, self.n, i))

    def codegeneracy(self, i: int) -> "_SphereStack":
        return _SphereStack(self.m, self.n - 1, _codegeneracy_rows(self.rows, self.n, i))

    def unstack(self) -> list:
        return [_SphereStack(self.m, self.n, rows[None]) for rows in self.rows]

    def __eq__(self, other) -> bool:
        return (isinstance(other, _SphereStack) and self.n == other.n
                and self.rows.shape == other.rows.shape
                and bool((self.rows == other.rows).all()))

    def __repr__(self) -> str:
        """The SphereConfiguration repr of each configuration, comma-joined."""
        return ", ".join(f"SphereConfiguration(m={self.m}, n={self.n}, rows={rows.tolist()!r})"
                         for rows in self.rows)


def check_sphere_cosimplicial(m: int, max_level: int = 6, per_level: int = 15,
                              seed: int = 0, progress: Callable | None = None) -> CheckReport:
    """All cosimplicial identities, exactly, on random sphere configurations.

    The maps only relabel and insert constants, so equality is on the nose;
    the samples need not satisfy any membership condition.  Each level's
    per_level samples are one stack (T, C(n, 2), m), drawn by one normal
    draw that takes the samples' draws in turn, so it holds the configurations
    _sphere_rows would give one at a time.  The stack is its
    level's one element: every coface and codegeneracy is one gather on it,
    and each composite is one check, as it was over the list of samples.  A
    failure's witness names the first sample that differs.  ``progress`` as
    in check_cosimplicial_identities."""
    _check_dimension(m)
    rng = np.random.default_rng(seed)
    levels = {n: [_SphereStack(m, n, _sphere_rows(rng, (per_level,), n, m))]
              for n in range(max_level + 1)}
    return check_cosimplicial_identities(CosimplicialObject(
        levels.__getitem__, lambda n, i: lambda s: s.coface(i),
        lambda n, i: lambda s: s.codegeneracy(i)), max_level, progress)


# -- random samplers ----------------------------------------------------------


def _sphere_rows(rng: np.random.Generator, lead: tuple, n: int, m: int) -> np.ndarray:
    """A stack lead + (C(n, 2), m) of independent uniform unit rows, from one
    normal draw that fills the stack's configurations in turn."""
    return _unit_rows(rng.standard_normal(lead + (pair_count(n), m)))


def _sample_points(rng: np.random.Generator, n: int, m: int,
                   min_sep: float = MIN_SEP) -> np.ndarray:
    """The accepted draw (n, m) of n points uniform in the cube [-1, 1]^m,
    redrawn until every pair is at least min_sep apart."""
    _check_dimension(m)
    a, b = _pair_points(n)
    while True:
        pts = rng.uniform(-1.0, 1.0, size=(n, m))
        if (_norms((pts[a] - pts[b]).T) >= min_sep).all():
            return pts


def _draw_disks(rng: np.random.Generator, n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The centers (n, m) and radii (n,) of n disjoint disks in the unit ball.
    Each center is uniform in the 0.7-ball, so every disk has room: 0.7 R g/|g|
    with g standard normal and R the largest of m uniforms.  P(R <= r) = r^m
    is the law of U^(1/m), drawn in exact arithmetic, where numpy's power
    rounds differently on AVX-512 hosts.  The vertex is drawn again while two
    centers lie within 1e-2: a radius scales with the separation, and the
    homotopy's x_e + t r_e x' at t = LIMIT_TIME must keep the digits the
    limit comparison reads."""
    _check_dimension(m)
    while True:
        (pts,), (sep,), (room,) = _disk_centers(rng.standard_normal((1, n, m)),
                                                rng.random((1, n, m)))
        if sep >= 1e-2:
            return pts, room * rng.uniform(0.3, 0.95, n)  # factors drawn in turn, one per disk


def _disk_centers(g: np.ndarray, u: np.ndarray):
    """_draw_disks' centers (T, n, m) from a stack of draws, normal g and
    uniform u (T, n, m), each configuration's least center distance (T,),
    and each disk's room (T, n): to the unit sphere, or half that distance."""
    pts = (0.7 * u.max(axis=-1) / _norms(g.T).T)[..., None] * g
    a, b = _pair_points(g.shape[1])
    sep = np.min(_norms((pts[:, a] - pts[:, b]).T), axis=0, initial=math.inf)
    return pts, sep, np.minimum(1.0 - _norms(pts.T).T, sep[:, None] / 2.0)


def _draw_disk_chunk(rngs: list, n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The disks _draw_disks draws from each stream of rngs, as the stacks
    (T, n, m) and (T, n).  Every stream's first draw is decided on the
    chunk's stack and those that pass draw their radius factors; a stream
    whose first draw is rejected carries on in _draw_disks."""
    g, u = zip(*[(rng.standard_normal((n, m)), rng.random((n, m))) for rng in rngs])
    pts, sep, radii = _disk_centers(np.array(g), np.array(u))
    for t, (rng, ok) in enumerate(zip(rngs, (sep >= 1e-2).tolist())):
        if ok:
            radii[t] *= rng.uniform(0.3, 0.95, n)
        else:
            pts[t], radii[t] = _draw_disks(rng, n, m)
    return pts, radii


# -- Monte Carlo trial batches -------------------------------------------------


def _trial_rng(seed: int, index: int) -> np.random.Generator:
    """Splittable per-trial stream: identical results in any execution order."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def _chunks(trials: int) -> list[range]:
    """The trial indices, _TRIAL_CHUNK at a time: a suite decides a chunk in
    one pass, so its memory stays flat in the trial count."""
    return [range(lo, min(trials, lo + _TRIAL_CHUNK))
            for lo in range(0, trials, _TRIAL_CHUNK)]


def _aggregate_trials(name: str, outcomes: list[dict], extra: dict) -> dict:
    worst = max((o["max_residual"] for o in outcomes), default=0.0)
    failures = [o for o in outcomes if not o["passed"]]
    report = {"check": name, "trials": len(outcomes), "passed": not failures,
              "max_residual": worst, "failed_trials": len(failures)}
    report.update(extra)
    if failures:
        report["first_failure"] = failures[0]
    return report


@functools.lru_cache(maxsize=128)
def _vertex_pairs(arities: tuple[int, ...]) -> np.ndarray:
    """The pairs (2, P) of 0-based points that lie at one vertex, vertex
    after vertex, when the points of vertices of the given arities are listed
    in that order: the rows of b_tree_elements past its basepoint."""
    offsets = itertools.accumulate(arities, initial=0)
    out = np.concatenate([_pair_points(k) + o for k, o in zip(arities, offsets)], axis=1)
    return _read_only(out)


# The trial streams of one seed and their leading random() doubles, a row per
# trial: {seed: (streams, prefixes)}.  The suites of a battery share a seed
# and visit its chunks in turn, so the memo keeps every trial of the current
# seed and drops them all when another seed arrives.
_PREFIXES: dict = {}


def _stream_prefixes(seed: int, ks: range, size: int) -> np.ndarray:
    """The first size doubles _trial_rng(seed, k).random() gives, a row per
    trial k of ks, as one read-only slice of the seed's prefixes: each stream
    is built once, and the rows grow when a later trial or a longer prefix is
    asked for."""
    if seed not in _PREFIXES:
        _PREFIXES.clear()
        _PREFIXES[seed] = [], np.empty((0, 0))
    streams, rows = _PREFIXES[seed]
    (have, drawn), width = rows.shape, max(size, rows.shape[1])
    if ks.stop > have or width > drawn:
        streams += [_trial_rng(seed, k) for k in range(have, ks.stop)]
        grown = np.empty((len(streams), width))
        grown[:have, :drawn] = rows
        for t, rng in enumerate(streams):
            start = drawn if t < have else 0
            if start < width:
                grown[t, start:] = rng.random(width - start)
        rows = _read_only(grown)
        _PREFIXES[seed] = streams, rows
    return rows[ks.start:ks.stop, :size]


def _draw_points(seed: int, ks: range, arities: tuple[int, ...], m: int,
                 min_sep: float) -> np.ndarray:
    """The points (T, sum(arities), m) the trials ks draw vertex after vertex
    through _sample_points, from _trial_rng(seed, k).  One uniform draw per
    trial gives them when every vertex's first draw is separated: numpy fills
    it from the stream as it fills the vertices' draws in turn.  That draw is
    -1 + 2 u over the stream's leading random() doubles u, bit for bit (each
    double is the stream's next 64-bit output scaled, and 2 u is exact), so
    the chunk is one slice of the memo of stream prefixes that every suite of
    the seed shares.  The trials one separation test over the chunk rejects
    are drawn again vertex by vertex from a fresh stream."""
    _check_dimension(m)
    size = sum(arities) * m
    pts = (-1.0 + 2.0 * _stream_prefixes(seed, ks, size)).reshape(len(ks), sum(arities), m)
    a, b = _vertex_pairs(arities)
    apart = (_norms((pts[:, a] - pts[:, b]).T) >= min_sep).all(axis=0)
    for t in np.flatnonzero(~apart).tolist():
        rng = _trial_rng(seed, ks[t])
        pts[t] = np.concatenate([_sample_points(rng, k, m, min_sep) for k in arities])
    return pts


def _distinct_stacks(stacks: np.ndarray) -> np.ndarray:
    """The distinct rows of the index array stacks (N, k), sorted, (D, k).
    A set of tuples: np.unique(axis=0) raises a battery's peak memory by
    about 0.6 MiB."""
    distinct = sorted(set(map(tuple, stacks.tolist())))
    return np.array(distinct, dtype=np.intp).reshape(-1, stacks.shape[1])


def _membership_suite(name: str, arities: tuple[int, ...], index: np.ndarray,
                      n: int, m: int, trials: int, seed: int, tol: float,
                      extra: dict) -> dict:
    """Both membership checks, in trial order, on the sample of each trial's
    own stream: the Gauss images of its points at vertices of the given
    arities (see _draw_points), gathered through index into n-point rows.
    Trials go a chunk at a time: the chunk's rows (T, C(n, 2), m) get the
    unit-norm check of every SphereConfiguration, then its loops and
    4-subsets go through the kernels in one pass.  So a trial's outcome is
    the membership_report of its sample.  Four-consistency is decided
    exactly, so the seed draws nothing but the samples.

    The n-point rows are a gather of the source rows, so two loops or
    4-subsets can read the same source rows in the same order: 8 of the 15
    subsets of ((* *) (* *) * *) are distinct, and 10 of its 20 loops.  A
    residual depends on its own edge stack alone, to the bit (see
    _four_residuals; the loop kernel is elementwise), and a trial reports
    only the worst.  So each distinct stack of source-row indices is decided
    once, on rows gathered straight from the source, and the outcomes are
    those of every loop and subset.  Both four-consistency bounds hold on
    all C(n, 4) subsets, before any work."""
    if n >= 4:
        _check_four_work(n, m)
    loops = _distinct_stacks(index[_subset_rows(n, 3)]) if n >= 3 else None
    subsets = _distinct_stacks(index[_subset_rows(n, 4)]) if n >= 4 else None
    outcomes = []
    for ks in _chunks(trials):
        pts = _draw_points(seed, ks, arities, m, MIN_SEP)
        source = _gauss_rows(pts, _vertex_pairs(arities))
        _check_unit_rows(source[:, index], n)
        worst = np.zeros(len(ks))
        if loops is not None:
            worst = np.maximum(worst, _loop_residuals(source, loops, tol).max(axis=1))
        if subsets is not None:
            worst = np.maximum(worst, _subset_residuals(source, subsets).max(axis=1))
        outcomes += [{"trial": k, "passed": w <= tol, "max_residual": w}
                     for k, w in zip(ks, worst.tolist())]
    return _aggregate_trials(name, outcomes,
                             {**extra, "n": n, "m": m, "tol": tol, "seed": seed})


def membership_trials(n: int, m: int, trials: int, seed: int = 0,
                      tol: float = DEFAULT_TOL) -> dict:
    """Gauss-map images of random configurations pass both checks."""
    if n < 3:
        raise ValueError("membership trials need n >= 3")
    return _membership_suite("membership-trials", (n,), np.arange(pair_count(n)), n, m,
                             trials, seed, tol, {})


def closure_trials(tree: RpTree, m: int, trials: int, seed: int = 0,
                   tol: float = DEFAULT_TOL) -> dict:
    """Compositions of Gauss images along a tree still pass both checks.
    Each trial draws its vertices' points in _compose_table's vertex order,
    and one gather through the table's index composes a chunk's Gauss
    images, as kontsevich_compose does one configuration's."""
    internal, index = _compose_table(tree)
    return _membership_suite("closure-trials", tuple(map(tree.arity, internal)), index,
                             tree.leaf_count, m, trials, seed, tol,
                             {"tree": tree.to_text()})


# -- little disks --------------------------------------------------------------

# The disk maps run on stacks of a tree's vertex disks: centers (T, k, m) and
# radii (T, k), the vertices' disks listed in _compose_table's vertex order.


@functools.lru_cache(maxsize=128)
def _disk_table(tree: RpTree) -> tuple[np.ndarray, np.ndarray]:
    """Per leaf j of a root-plus-one-level tree, in planar order, the stack
    index of its root disk e(j) and of its disk o(j) at the child vertex,
    which for a leaf right under the root is its root disk."""
    internal, _ = _compose_table(tree)
    offset = dict(zip(internal, itertools.accumulate(map(tree.arity, internal), initial=0)))
    outer, inner = [], []
    for e, child in enumerate(tree.root):
        if any(child):
            raise ValueError("tree is deeper than root-plus-one-level")
        outer += [offset[()] + e] * max(1, len(child))
        inner += [offset[(e,)] + o for o in range(len(child))] if child else outer[-1:]
    if not outer:
        raise ValueError("the empty tree has no disks to compose")
    return np.array(outer), np.array(inner)


def _slid_disks(tree: RpTree, disks, time: float) -> tuple[np.ndarray, np.ndarray]:
    """The little disks' composition along a root-plus-one-level tree slid to
    time: leaf centers y_j(time) = x_e + time r_e x'_o (T, n, m) and radii
    r_e r'_o (T, n), on the stack (centers, radii) of its vertex disks; a
    leaf right under the root keeps its root disk.  At time 1 this is the
    composite, and as time -> 0 its Gauss map tends to kontsevich_compose of
    the vertices' Gauss maps."""
    (centers, radii), (outer, inner) = disks, _disk_table(tree)
    x, r, through = centers[:, outer], radii[:, outer], (outer == inner)[:, None]
    return (np.where(through, x, x + (time * r)[..., None] * centers[:, inner]),
            np.where(through[:, 0], r, r * radii[:, inner]))


def _check_time(time: float) -> None:
    """time must lie in [1e-8, 1].  _draw_disks keeps centers 1e-2 apart
    and radii above 1.5e-3, so two leaves under one vertex differ by at
    least 1.5e-5 time, which clears the spacing of floats below 1 for every
    m <= MAX_FOUR_DIM only once time passes about sqrt(m) 7.4e-12; smaller
    times may round the leaves onto each other.  Those offsets keep only a
    few digits well above that: at 1e-10 the limit gap read up to 3.4e-4,
    past LIMIT_TOL, on correct disks, and at 1e-9 up to 1.8e-4.  At 1e-8 it
    stayed below 1.1e-5 on 2,160 runs of 100 trials: three trees at
    m = 2..4 over 200 seeds, and at m = 5, 8, 12 and 16 over 30 seeds."""
    if not LIMIT_TIME_MIN <= time <= 1.0:
        raise ValueError(f"time {time} outside [1e-8, 1]")


def _sphere_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per configuration of two stacks of pair rows (T, P, m), the max over
    pairs of the euclidean distance between coordinates: (T,)."""
    return np.max(_norms((a - b).T), axis=0, initial=0.0)


def disks_comparison_trials(tree: RpTree, m: int, trials: int, seed: int = 0,
                            end_tol: float = 1e-12, limit_tol: float = LIMIT_TOL,
                            limit_time: float = LIMIT_TIME) -> dict:
    """Both endpoint comparisons of the homotopy on random disk inputs:
    time 1 against the Gauss map of the composition, time ~ 0 against the
    sphere-coordinate composition of the projected inputs.  The homotopy at
    time 1 is the composition by its formula, so the end gap reads one array
    twice and is 0.0.  The tree's leaves are bounded by MAX_REPORT_POINTS
    before anything is drawn.  Each trial draws its vertices' disks in
    _compose_table's vertex order, a chunk's trials one vertex at a time (see
    _draw_disk_chunk), and a chunk's maps run on the chunk's stack, as on a
    stack of one."""
    _check_dimension(m)
    check_report_points(tree.leaf_count)
    _check_time(limit_time)
    internal, index = _compose_table(tree)
    arities = tuple(map(tree.arity, internal))
    outcomes = []
    for ks in _chunks(trials):
        rngs = [_trial_rng(seed, k) for k in ks]
        vertices = [_draw_disk_chunk(rngs, a, m) for a in arities]
        for centers, radii in vertices:
            _check_disks(centers, radii, DEFAULT_TOL)
        disks = tuple(np.concatenate(x, axis=1) for x in zip(*vertices))
        composed = _slid_disks(tree, disks, 1.0)
        _check_disks(*composed, DEFAULT_TOL)
        rows = [_gauss_rows(composed[0]), _gauss_rows(_slid_disks(tree, disks, limit_time)[0]),
                _gauss_rows(disks[0], _vertex_pairs(arities))[:, index]]
        for r in rows:
            _check_unit_rows(r, tree.leaf_count)
        gaps = zip(_sphere_distances(rows[0], rows[0]).tolist(),
                   _sphere_distances(*rows[1:]).tolist())
        # the aggregate residual is the worse tolerance ratio (dimensionless)
        outcomes += [{"trial": k, "passed": end_gap <= end_tol and limit_gap <= limit_tol,
                      "max_residual": max(end_gap / end_tol, limit_gap / limit_tol),
                      "end_gap": end_gap, "limit_gap": limit_gap}
                     for k, (end_gap, limit_gap) in zip(ks, gaps)]
    report = _aggregate_trials("disks-comparison", outcomes,
                               {"tree": tree.to_text(), "m": m, "seed": seed,
                                "end_tol": end_tol, "limit_tol": limit_tol,
                                "limit_time": limit_time})
    report["max_end_gap"] = max((o["end_gap"] for o in outcomes), default=0.0)
    report["max_limit_gap"] = max((o["limit_gap"] for o in outcomes), default=0.0)
    return report


# -- endpoint maps -------------------------------------------------------------

# The maps run on stacks of points (..., m) and return, beside their values,
# an error code per point or pair: 0, or the index of its message here.

_ERRORS = (None,
           "no differential at the marked endpoints",
           "point inside an endpoint shell is off-axis",
           "lambda is undefined at the marked endpoints",
           "coincident pair ({i}, {j}) carries no direction",
           "degenerate direction for pair ({i}, {j}) at an endpoint",
           "pair ({i}, {j}) has an endpoint out of order: "
           "*_+ may only lead and *_- only trail")


def _raise_first(codes: np.ndarray, pairs: np.ndarray | None = None) -> None:
    """Raise the error of the first nonzero code of the stack codes, naming
    its pair by the 0-based points pairs (2, P) when the codes are per pair."""
    if codes.any():
        at = np.unravel_index(np.argmax(codes != 0), codes.shape)
        i, j = (None, None) if pairs is None else pairs[:, at[-1]] + 1
        raise ValueError(_ERRORS[codes[at]].format(i=i, j=j))


def _check_eps(eps: float) -> None:
    """eps must lie in (2**-53, 1/6]: at most 1/6 keeps the endpoint shells
    disjoint, and above 2**-53 the sampler's on-axis shell point 1 - eps/2
    stays off the endpoint in floating point."""
    if not EPS_MIN < eps <= EPS_MAX:
        raise ValueError(f"eps must lie in (2**-53, 1/6], got {eps}")


def _lambda_rows(x: np.ndarray, eps: float, tol: float = DEFAULT_TOL):
    """lambda of every point of the stack x (..., m) with its error codes,
    and lambda's last-coordinate stretch rate there with its error codes.
    lambda stretches the last coordinate near each endpoint: within distance
    eps of *_+ or *_-, a_m becomes eps a_m / d(a), and elsewhere it is the
    identity (the shells are disjoint as eps <= 1/6).  On the axis inside a
    shell its differential is diag(1, .., 1, eps/d^2), which gives the rate.
    Neither is defined at an endpoint, nor the rate off the axis inside a
    shell, where boundary data cannot lie."""
    v = np.array(x, dtype=np.float64)
    factor, undefined = np.ones(v.shape[:-1]), np.zeros(v.shape[:-1], dtype=bool)
    done, codes = undefined.copy(), np.zeros(v.shape[:-1], dtype=np.intp)
    off_axis = (np.abs(v[..., :-1]) > tol).any(axis=-1)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for sign in (-1.0, 1.0):  # lambda = lambda_+ after lambda_-
            d = _norms((v - sign * north(v.shape[-1])).T).T  # v is x where not done
            at_pole, shell = d == 0.0, (d < eps) & (d != 0.0)
            undefined |= at_pole
            codes = np.where(done, codes, np.where(at_pole, 1, 2 * (shell & off_axis)))
            factor = np.where(shell & ~done, eps / (d * d), factor)
            done |= at_pole | shell
            v[..., -1] = np.where(shell, eps * v[..., -1] / np.where(shell, d, 1.0),
                                  v[..., -1])
    return v, 3 * undefined, factor, codes


# A boundary stack is T configurations of n points as the arrays: points
# (T, n, m), a direction row per pair (T, C(n, 2), m), and the mask (T, C(n, 2))
# of the pairs that carry one; a pair with no direction reads 0.


def _pi_rows(points: np.ndarray, dirs: np.ndarray, has: np.ndarray,
             eps: float) -> np.ndarray:
    """pi_k on a boundary stack (points, dirs, has): the forward directions
    (T, C(n, 2), m) of the lambda-stretched points, or the error of the first
    pair, in the first configuration, that has one.

    For i < j the row is u(lambda(x_j) - lambda(x_i)) when the points differ
    and no endpoint rule applies, and *_S when x_i = *_+ or x_j = *_- (the
    knot leaves the top endpoint southward and arrives at the bottom one).  A
    coincident pair's stored direction is pushed through lambda's
    differential and renormalized; at an endpoint the rescale diverges and
    the limit keeps only the last coordinate's sign."""
    m = points.shape[-1]
    pairs = a, b = _pair_points(points.shape[1])
    top = (points == north(m)).all(axis=-1)
    bottom = (points == south(m)).all(axis=-1)
    same = (points[:, a] == points[:, b]).all(axis=-1)
    ends = same & (top | bottom)[:, a]
    rule = ~same & (top[:, a] | bottom[:, b])
    wrong = ~same & ~rule & (top[:, b] | bottom[:, a])
    lam, lam_codes, factor, jac_codes = _lambda_rows(points, eps)
    pushed = dirs.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        pushed[..., -1] *= factor[:, a]
        rows = _unit_rows(np.where(same[..., None], pushed, lam[:, b] - lam[:, a]))
    rows[..., :-1] = np.where(ends[..., None], 0.0, rows[..., :-1])
    rows[..., -1] = np.where(ends, np.copysign(1.0, dirs[..., -1]), rows[..., -1])
    rows = np.where(rule[..., None], south(m), rows)
    _raise_first(np.select(
        [same & ~has, ends & (dirs[..., -1] == 0.0), same & ~ends, wrong, ~same & ~rule],
        [4, 5, jac_codes[:, a], 6, np.maximum(lam_codes[:, a], lam_codes[:, b])]), pairs)
    return rows


# -- insertion maps on boundary data ------------------------------------------


@functools.lru_cache(maxsize=256)
def _insertion_tables(n: int, i: int) -> tuple[np.ndarray, np.ndarray]:
    """The gather indices of e^i on n points listed with *_+ and *_- after
    them (rows n and n + 1), and on their C(n, 2) pairs listed with one more
    row: the pairs of two copies of a point, or with an inserted endpoint,
    read that last row."""
    if not 0 <= i <= n + 1:
        raise ValueError(f"insertion index {i} out of range for n={n}")
    rows = list(range(n))
    points = [n] + rows if i == 0 else rows + [n + 1] if i == n + 1 else \
        rows[:i] + [i - 1] + rows[i:]
    row = {pair: r for r, pair in enumerate(itertools.combinations(rows, 2))}
    return np.array(points), np.array(
        [row.get((points[a], points[b]), len(row))
         for a, b in itertools.combinations(range(n + 1), 2)], dtype=np.intp)


def _insert_stack(points: np.ndarray, dirs: np.ndarray, has: np.ndarray, i: int):
    """e^i on a boundary stack (points, dirs, has): for 1 <= i <= n it
    doubles point i with new mutual direction *_S, and e^0 and e^{n+1} plant
    a copy of the matching marked endpoint at that end, indices relabeling by
    sigma_i.  The points gather through _insertion_tables, and so do the pair
    directions, a new coincident pair reading *_S."""
    t, n, m = points.shape
    point_index, pair_index = _insertion_tables(n, i)
    return (np.concatenate([points, np.broadcast_to([north(m), south(m)], (t, 2, m))],
                           axis=1)[:, point_index],
            np.concatenate([dirs, np.broadcast_to(south(m), (t, 1, m))], axis=1)[:, pair_index],
            np.concatenate([has, np.ones((t, 1), dtype=bool)], axis=1)[:, pair_index])


def _interior_points(rng: np.random.Generator, cands: np.ndarray, eps: float) -> np.ndarray:
    """The k interior points of a boundary configuration, taken in turn from
    the candidates cands (k, m) and then from further uniform draws: a
    candidate is kept when it lies at least 1.5 eps from both poles and 1e-3
    from every point kept before it.  Each candidate keeps at most one point,
    so drawing the k - kept still missing at once draws what drawing one at
    a time would."""
    k, m = cands.shape
    poles = np.array([north(m), south(m)])
    pts: list = []
    while True:
        for cand in cands:
            near = (_norms((cand - poles).T) < eps * 1.5).any()
            if not near and not (pts and (_norms((cand - np.array(pts)).T) < 1e-3).any()):
                pts.append(cand)
        if len(pts) == k:
            return np.array(pts).reshape(k, m)
        cands = rng.uniform(-1.0, 1.0, (k - len(pts), m))


def _draw_boundary_chunk(rngs: list, n: int, m: int, eps: float):
    """The configurations random_boundary_configuration draws from each
    stream of rngs, as a boundary stack with its tangents: (points, dirs,
    has, tangents (T, n, m)), unchecked.

    A stream's k interior candidates come from one uniform draw (k, m), the
    doubles of k draws of one, and the chunk's candidates are tested
    together; a stream that must reject one carries on in _interior_points.
    Then each stream draws the rest of its configuration in turn, and the
    tangents and stored directions are normalized on the stack."""
    count, pairs = len(rngs), pair_count(n)
    points, ends = np.zeros((count, n, m)), []
    for t, rng in enumerate(rngs):
        lead = int(rng.integers(0, 2)) if n >= 2 else 0
        trail = int(rng.integers(0, 2)) if n - lead >= 2 else 0
        ends.append((lead, n - trail))   # the interior rows
        points[t, lead:n - trail] = rng.uniform(-1.0, 1.0, (n - lead - trail, m))
    row, (a, b) = np.arange(n), _pair_points(n)
    first, end = np.array(ends, dtype=np.intp).reshape(count, 2).T[..., None]
    interior = (first <= row) & (row < end)
    poles = np.array([north(m), south(m)])
    near = (_norms((points[:, :, None] - poles).T).T < eps * 1.5).any(axis=-1)
    close = _norms((points[:, b] - points[:, a]).T).T < 1e-3
    rejected = ((near & interior).any(axis=1)
                | (close & interior[:, a] & interior[:, b]).any(axis=1)).tolist()
    dirs, has = np.zeros((count, pairs, m)), np.zeros((count, pairs), dtype=bool)
    tangents = np.empty((count, n, m))
    for t, (rng, (lo, hi)) in enumerate(zip(rngs, ends)):
        pts, k, pair = points[t, lo:hi], hi - lo, None
        if rejected[t]:
            pts[:] = _interior_points(rng, pts.copy(), eps)
        if k >= 2 and rng.random() < 0.5:
            # duplicate one interior point; the pair needs a direction
            which = int(rng.integers(0, k - 1))
            pts[which + 1] = pts[which]
            pair = lo + which
        elif k >= 1 and rng.random() < 0.3:
            # an on-axis near-endpoint coincident pair takes the rescale path
            sign = 1.0 if rng.random() < 0.5 else -1.0
            pts[:2] = 0.0
            pts[:2, -1] = sign * (1.0 - eps / 2.0)
            pair = lo if k >= 2 else None
        if pair is not None:
            r = _pair_row(n, pair, pair + 1)
            dirs[t, r], has[t, r] = rng.standard_normal(m), True
        tangents[t] = rng.standard_normal((n, m))
    points[row < first] = north(m)
    points[row >= end] = south(m)
    dirs[has] = _unit_rows(dirs[has])
    return points, dirs, has, _unit_rows(tangents)


def _boundary_configuration(stack, t: int) -> PointConfiguration:
    """Configuration t of a boundary stack with its tangents, validated."""
    points, dirs, has, tangents = stack
    pairs = _pair_points(points.shape[1])[:, has[t]]
    return PointConfiguration._from_rows(points.shape[2], points[t], tangents[t], pairs,
                                         dirs[t, has[t]])


def _check_boundary_stack(points: np.ndarray, dirs: np.ndarray, has: np.ndarray,
                          tangents: np.ndarray) -> None:
    """Raise the ValueError PointConfiguration raises on the first
    configuration of a boundary stack that it rejects: one with a point not
    finite, a tangent or a stored direction not a finite unit vector within
    UNIT_NORM_TOL, or a direction on two distinct points."""
    n = points.shape[1]
    a, b = _pair_points(n)
    with np.errstate(over="ignore", invalid="ignore"):
        rows = np.concatenate([tangents, dirs], axis=1)
        unit = np.abs(_norms(rows.T).T - 1.0) <= UNIT_NORM_TOL   # false on a NaN too
    bad = (~np.isfinite(points).all(axis=(1, 2)) | ~unit[:, :n].all(axis=1)
           | (has & (~unit[:, n:] | (points[:, a] != points[:, b]).any(axis=-1))).any(axis=1))
    if bad.any():
        _boundary_configuration((points, dirs, has, tangents), int(np.argmax(bad)))
        raise AssertionError("PointConfiguration took a configuration the stack check rejects")


def random_boundary_configuration(rng: np.random.Generator, n: int, m: int,
                                  eps: float = DEFAULT_EPS) -> PointConfiguration:
    """A valid pi_k input hitting all the map's cases: optional leading *_+
    and trailing *_- copies, interior points clear of the endpoint shells,
    an occasional coincident interior pair with a stored direction, and an
    occasional on-axis shell point exercising the Jacobian rescale.  Drawn
    as a chunk of one stream (see _draw_boundary_chunk)."""
    return _boundary_configuration(_draw_boundary_chunk([rng], n, m, eps), 0)


def check_insertion_naturality(n: int, m: int, trials: int, seed: int = 0,
                               eps: float = DEFAULT_EPS) -> CheckReport:
    """pi_k(e^i(c)) == d^i(pi_k(c)), exactly, for 0 <= i <= n+1.  Each trial
    draws its configuration from its own stream, a chunk's trials together
    (see _draw_boundary_chunk), and the chunk's stack is validated as every
    PointConfiguration is.  Both sides run on the stack, all n + 2
    insertions in one pi_k call, and a configuration is built only for a
    failure's witness."""
    _check_eps(eps)
    rep = CheckReport(f"insertion-naturality[n={n},m={m}]")
    for ks in _chunks(trials):
        stack = _draw_boundary_chunk([_trial_rng(seed, k) for k in ks], n, m, eps)
        _check_boundary_stack(*stack)
        base = _pi_rows(*stack[:3], eps)
        _check_unit_rows(base, n)
        base = np.concatenate([base, np.broadcast_to(south(m), (len(ks), 1, m))], axis=1)
        inserted = zip(*(_insert_stack(*stack[:3], i) for i in range(n + 2)))
        lhs = _pi_rows(*map(np.concatenate, inserted), eps)
        _check_unit_rows(lhs, n + 1)
        rhs = np.concatenate([base[:, _coface_table(n, i)] for i in range(n + 2)])
        same = (lhs == rhs).all(axis=(1, 2)).reshape(n + 2, len(ks)).T.tolist()
        for t, k in enumerate(ks):
            for i, ok in enumerate(same[t]):
                rep.record(ok, None if ok else {
                    "trial": k, "index": i,
                    "config": _boundary_configuration(stack, t).to_json_obj()})
    return rep


# -- long knots ----------------------------------------------------------------


class LongUnknot:
    """The straight descending arc from *_+ to *_- with southward tangents."""

    def __init__(self, m: int = 3):
        if m < 2:
            raise ValueError("long knots need m >= 2")
        self.m = m

    def value(self, t: float) -> tuple[float, ...]:
        return (0.0,) * (self.m - 1) + (-float(t),)

    def derivative(self, t: float) -> tuple[float, ...]:
        return (0.0,) * (self.m - 1) + (-1.0,)


class LongTrefoil:
    """A smooth long trefoil in the 3-cube: the closed (2,3) torus-knot curve
    scaled into the cube and faded by the window (1-t^2)^3 into the straight
    descending arc, so the endpoints and endpoint tangents match *_+-."""

    m = 3

    @staticmethod
    def _window(t: float) -> tuple[float, float]:
        s = 1.0 - t * t
        return s ** 3, -6.0 * t * s * s

    @staticmethod
    def _loop(t: float) -> tuple[tuple, tuple]:
        th = math.pi * t
        g = ((math.sin(th) + 2.0 * math.sin(2.0 * th)) / 4.0,
             (math.cos(th) - 2.0 * math.cos(2.0 * th)) / 4.0,
             -math.sin(3.0 * th) / 4.0)
        dg = (math.pi * (math.cos(th) + 4.0 * math.cos(2.0 * th)) / 4.0,
              math.pi * (-math.sin(th) + 4.0 * math.sin(2.0 * th)) / 4.0,
              -3.0 * math.pi * math.cos(3.0 * th) / 4.0)
        return g, dg

    def value(self, t: float) -> tuple[float, ...]:
        w, _ = self._window(t)
        g, _ = self._loop(t)
        return (w * g[0], w * g[1], -t + w * g[2])

    def derivative(self, t: float) -> tuple[float, ...]:
        w, dw = self._window(t)
        g, dg = self._loop(t)
        return (dw * g[0] + w * dg[0],
                dw * g[1] + w * dg[1],
                -1.0 + dw * g[2] + w * dg[2])


BUILTIN_CURVES = {"unknot": LongUnknot, "trefoil": LongTrefoil}


def knot_eval(curve, times: Sequence[float]) -> PointConfiguration:
    """Evaluate a sampled long knot: points f(t_i) with tangents u(f'(t_i));
    repeated times give coincident points whose pair direction is the
    tangent there (the diagonal extension)."""
    ts = [float(t) for t in times]
    if any(not -1.0 <= t <= 1.0 for t in ts):
        raise ValueError("times must lie in [-1, 1]")
    if any(a > b for a, b in zip(ts, ts[1:])):
        raise ValueError("times must be weakly increasing")
    points = [curve.value(t) for t in ts]
    m = len(points[0]) if points else getattr(curve, "m", 3)
    derivatives = np.array([curve.derivative(t) for t in ts], dtype=np.float64).reshape(-1, m)
    zero = ~derivatives.any(axis=1)
    if zero.any():
        raise ValueError(f"zero derivative at t={ts[int(np.argmax(zero))]}")
    tangents = _unit_rows(derivatives)
    pairs = _pair_points(len(ts))
    pairs = pairs[:, np.array(ts)[pairs[0]] == np.array(ts)[pairs[1]]]
    return PointConfiguration._from_rows(m, points, tangents, pairs, tangents[pairs[0]])
