"""Geometry tests.

The membership checks are themselves the oracle for Gauss images and
composites (closure under composition is the property being exercised);
everything else is pinned against independent oracles written here: the
scalar support enumeration that the batched three-dependence kernel must
match bit for bit, a naive 24-permutation chain sum for four-consistency,
the pair-by-pair relabellings that the row gathers of composition, cofaces
and codegeneracies must match bit for bit, the scalar vector arithmetic
(unit, dot, norm) and the per-configuration endpoint maps, insertions and
disk maps that the stacked kernels must match bit for bit, per-trial
membership reports, per-vertex draws and the every-loop-and-subset suite
body for the batched trial suites, which decide each distinct edge stack
once, central finite differences for the endpoint-map derivative, and
direct formula evaluation for the little disks.  The kernels meet the
per-configuration oracles and the paper facts on stacks of one, through the
small helpers below.
"""

import hashlib
import itertools
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotoperads import cli, geometry as G
from knotoperads.errors import BoundExceededError
from knotoperads.operad_core import CheckReport, CosimplicialObject, OperadInstance, \
    check_cosimplicial_identities
from knotoperads.trees import RpTree, corolla, enumerate_trees, parse_tree

from algebra_oracles import graft, join_vertex, structure_map, structure_map_stepwise


# -- the kernels on a stack of one ---------------------------------------------


def _random_sphere(rng, n, m):
    return G.SphereConfiguration(m, n, G._sphere_rows(rng, (), n, m))


def _random_points(rng, n, m, min_sep=G.MIN_SEP):
    return G.PointConfiguration(m, G._sample_points(rng, n, m, min_sep))


class _DiskConfiguration:
    """Disjoint round balls B(x_i, r_i) inside the unit ball of R^m: the
    read-only float64 arrays ``centers`` (n, m) and ``radii`` (n,), checked
    by the disk kernels' own ``_check_disks`` on a stack of one.  The
    program takes disks as stacks only, so the per-configuration type lives
    here, for the oracles and the validation tests."""

    __slots__ = ("m", "centers", "radii")

    def __init__(self, m: int, centers, radii):
        G._check_dimension(m)
        if len(centers) != len(radii):
            raise ValueError("one radius per center required")
        self.m = m
        self.centers = G._finite_rows(centers, m, "center")
        self.radii = G._read_only(np.array(radii, dtype=np.float64).reshape(len(radii)))
        G._check_disks(self.centers[None], self.radii[None], G.DEFAULT_TOL)

    @property
    def n(self) -> int:
        return len(self.radii)

    def __eq__(self, other) -> bool:
        return (isinstance(other, _DiskConfiguration) and self.m == other.m
                and np.array_equal(self.centers, other.centers)
                and np.array_equal(self.radii, other.radii))

    def __repr__(self) -> str:
        return (f"_DiskConfiguration(m={self.m}, centers={self.centers.tolist()!r}, "
                f"radii={self.radii.tolist()!r})")


def _random_disks(rng, n, m):
    return _DiskConfiguration(m, *G._draw_disks(rng, n, m))


def _coface(s, i):
    return G.SphereConfiguration(s.m, s.n + 1, G._coface_rows(s.rows, s.n, i))


def _codegeneracy(s, i):
    return G.SphereConfiguration(s.m, s.n - 1, G._codegeneracy_rows(s.rows, s.n, i))


def _lambda(x, eps=G.DEFAULT_EPS):
    v, codes, _, _ = G._lambda_rows(np.array([x], dtype=float), eps)
    G._raise_first(codes)
    return tuple(v[0].tolist())


def _jacobian(x, eps=G.DEFAULT_EPS, tol=G.DEFAULT_TOL):
    _, _, factor, codes = G._lambda_rows(np.array([x], dtype=float), eps, tol)
    G._raise_first(codes)
    return float(factor[0])


def _boundary_stack(configs):
    """The boundary stack (points, dirs, has) of point configurations of one
    shape, the form the endpoint maps take."""
    n, m = configs[0].n, configs[0].m
    dirs = np.zeros((len(configs), G.pair_count(n), m))
    has = np.zeros(dirs.shape[:2], dtype=bool)
    t = np.repeat(np.arange(len(configs)), [len(c._dirs) for c in configs])
    rows = G._pair_row(n, *np.concatenate([c._pairs for c in configs], axis=1))
    dirs[t, rows] = np.concatenate([c._dirs for c in configs])
    has[t, rows] = True
    return np.stack([c.points for c in configs]), dirs, has


def _pi(c, eps=G.DEFAULT_EPS):
    return G.SphereConfiguration(c.m, c.n, G._pi_rows(*_boundary_stack([c]), eps)[0])


def _insert(c, i):
    """e^i keeping the directions of coincident pairs; tangents are inserted
    as points are, *_S at the ends."""
    points, dirs, has = (x[0] for x in G._insert_stack(*_boundary_stack([c]), i))
    tangents = None if c.tangents is None else np.concatenate(
        [c.tangents, [G.south(c.m)] * 2])[G._insertion_tables(c.n, i)[0]]
    pairs = G._pair_points(c.n + 1)
    keep = has & (points[pairs[0]] == points[pairs[1]]).all(axis=-1)
    return G.PointConfiguration._from_rows(c.m, points, tangents, pairs[:, keep], dirs[keep])


def _disk_stack(tree, inputs):
    """Disk configurations keyed by vertex as the stack of one the disk
    kernels take, in _compose_table's vertex order."""
    disks = [inputs[p] for p in G._compose_table(tree)[0]]
    return (np.concatenate([d.centers for d in disks])[None],
            np.concatenate([d.radii for d in disks])[None])


def _compose_disks(tree, inputs):
    centers, radii = G._slid_disks(tree, _disk_stack(tree, inputs), 1.0)
    return _DiskConfiguration(centers.shape[-1], centers[0], radii[0])


def _homotopy(tree, inputs, time):
    centers, _ = G._slid_disks(tree, _disk_stack(tree, inputs), time)
    return G.SphereConfiguration(centers.shape[-1], tree.leaf_count,
                                 G._gauss_rows(centers)[0])


class _SphereOperad(OperadInstance):
    """Sphere configurations under kontsevich_compose, for operad_core's
    structure-map evaluators: circ composes along a graft."""

    def arity_of(self, x):
        return x.n

    def circ(self, x, i, y):
        return G.kontsevich_compose(graft(x.n, i, y.n), {(): x, (i - 1,): y})


def _two_level_trees(max_leaves):
    """All root-plus-one-level shapes with at most max_leaves leaves."""
    return [RpTree(tuple(((),) * a if a else () for a in pattern))
            for k in range(1, max_leaves + 1)
            for pattern in itertools.product(range(max_leaves + 1), repeat=k)
            if sum(max(a, 1) for a in pattern) <= max_leaves]


# -- independent oracles -------------------------------------------------------


def _dot(a, b):
    """The products added in index order from 0.0, the order _dots repeats
    (Python 3.12's sum() compensates, so a sum() here would round
    differently there)."""
    total = 0.0
    for x, y in zip(a, b):
        total += x * y
    return total


def _norm(a):
    return math.sqrt(_dot(a, a))


def _unit(v):
    """v/|v|, with axis-aligned vectors normalized exactly: the scalar
    arithmetic _unit_rows repeats row by row."""
    nz = [k for k, x in enumerate(v) if x != 0.0]
    if not nz:
        raise ValueError("cannot normalize the zero vector")
    if len(nz) == 1:
        k = nz[0]
        out = [0.0] * len(v)
        out[k] = math.copysign(1.0, v[k])
        return tuple(out)
    r = _norm(tuple(v))
    if r == 0.0:
        raise ValueError("cannot normalize: the norm underflows to 0")
    return tuple(x / r for x in v)


def _south(m):
    return (0.0,) * (m - 1) + (-1.0,)


def _north(m):
    return (0.0,) * (m - 1) + (1.0,)


def _tuples(rows):
    """The rows of a configuration array as tuples of floats, where a scalar
    oracle starts."""
    return None if rows is None else tuple(map(tuple, rows.tolist()))


def _direction_map(c):
    """The pair directions of a point configuration as tuples of floats."""
    return {pair: tuple(g.tolist()) for pair, g in c.pair_directions.items()}


def _unit_row(v):
    """_unit_rows on one vector, as a tuple."""
    return tuple(G._unit_rows(np.array([v], dtype=float))[0].tolist())


def _support_candidates(a, b, c, tol):
    """Residuals of candidate non-negative vanishing combinations of three
    unit vectors, by support: antipodal pairs (2-support) and the three
    3-support solves with one coefficient normalized to 1.  The scalar
    enumeration the batched kernel replaced; each loop's residual is the
    min of its candidates."""
    vecs = (a, b, c)
    for p, q in itertools.combinations(range(3), 2):
        yield _norm(tuple(x + y for x, y in zip(vecs[p], vecs[q])))
        # 2-support solve: min over alpha of |alpha v_p + v_q|
        alpha = -_dot(vecs[p], vecs[q])
        if alpha >= -tol:
            yield _norm(tuple(alpha * x + y for x, y in zip(vecs[p], vecs[q])))
    for pivot in range(3):
        p, q = [k for k in range(3) if k != pivot]
        vp, vq, vc = vecs[p], vecs[q], vecs[pivot]
        gpp, gpq, gqq = _dot(vp, vp), _dot(vp, vq), _dot(vq, vq)
        det = gpp * gqq - gpq * gpq
        if abs(det) < 1e-14:
            continue  # parallel pair; the antipodal branch covers it
        rp, rq = -_dot(vp, vc), -_dot(vq, vc)
        alpha = (rp * gqq - rq * gpq) / det
        beta = (gpp * rq - gpq * rp) / det
        if alpha >= -tol and beta >= -tol:
            yield _norm(tuple(alpha * x + beta * y + z
                               for x, y, z in zip(vp, vq, vc)))


def _assert_kernel_matches_oracle(triples, tol):
    """The batched residual of every loop (a, b, c) equals the min of its
    scalar candidates to the bit."""
    got = G._three_residuals(np.array(triples, dtype=float), tol).tolist()
    want = [min(_support_candidates(*t, tol)) for t in triples]
    assert [r.hex() for r in got] == [r.hex() for r in want]


def _naive_chain_sum(s, subset, v, w):
    """The four-point identity summed over all 24 vertex orderings, halved.

    Recomputes everything from scratch: parity by inversion count, edges by
    canonical (sorted) orientation, complement as the plain edge-set
    complement in K4.  Shares no code with the module's 12-term core.
    """
    total = 0.0
    for seq in itertools.permutations(subset):
        inv = sum(1 for a, b in itertools.combinations(seq, 2) if a > b)
        sign = -1.0 if inv % 2 else 1.0
        path = {tuple(sorted((seq[k], seq[k + 1]))) for k in range(3)}
        comp = set(itertools.combinations(sorted(subset), 2)) - path
        pv = math.prod(_dot(s.u(*e), v) for e in sorted(path))
        pw = math.prod(_dot(s.u(*e), w) for e in sorted(comp))
        total += sign * pv * pw
    return total / 2.0


def _from_pairs(m, n, w):
    """A configuration from vectors keyed by pair, rows in combinations order."""
    return G.SphereConfiguration(
        m, n, [w[pair] for pair in itertools.combinations(range(1, n + 1), 2)])


def _compose_oracle(tree, inputs):
    """w_ij = u^v_{a,b} where v is the join vertex of leaves i and j and
    (a, b) are the child slots of v the two leaves lie over: the pair
    bookkeeping the row gather replaced."""
    ms = {cfg.m for cfg in inputs.values()}
    w = {}
    for i, j in itertools.combinations(range(1, tree.leaf_count + 1), 2):
        v, a, b = join_vertex(tree, i, j)
        w[(i, j)] = inputs[v].u(a, b)
    return _from_pairs(ms.pop(), tree.leaf_count, w)


def _coface_oracle(s, i):
    """d^i: level n -> n+1.  Middle indices double point i with the new
    mutual direction *_S; i = 0 / n+1 insert a new first/last point whose
    coordinates with everything are *_S (the basepoint rule)."""
    n, m = s.n, s.m
    base = _south(m)
    w = {}
    if i == 0:
        for a, b in itertools.combinations(range(1, n + 2), 2):
            w[(a, b)] = base if a == 1 else s.u(a - 1, b - 1)
    elif i == n + 1:
        for a, b in itertools.combinations(range(1, n + 2), 2):
            w[(a, b)] = base if b == n + 1 else s.u(a, b)
    else:
        def back(a):
            return a if a <= i else a - 1
        for a, b in itertools.combinations(range(1, n + 2), 2):
            w[(a, b)] = base if (a, b) == (i, i + 1) else s.u(back(a), back(b))
    return _from_pairs(m, n + 1, w)


def _codegeneracy_oracle(s, i):
    """s^i: level n -> n-1, deleting point i and relabeling."""
    def skip(a):
        return a if a < i else a + 1

    w = {}
    for a, b in itertools.combinations(range(1, s.n), 2):
        w[(a, b)] = s.u(skip(a), skip(b))
    return _from_pairs(s.m, s.n - 1, w)


def _sphere_cosimplicial_oracle(m, max_level, per_level, seed):
    """check_sphere_cosimplicial one configuration at a time: each level a
    list of per_level random configurations drawn in turn, each coface and
    codegeneracy applied to each one."""
    rng = np.random.default_rng(seed)
    levels = {n: [_random_sphere(rng, n, m) for _ in range(per_level)]
              for n in range(max_level + 1)}
    return check_cosimplicial_identities(CosimplicialObject(
        levels.__getitem__, lambda n, i: lambda s: _coface(s, i),
        lambda n, i: lambda s: _codegeneracy(s, i)), max_level)


def _unit_oracle(points):
    """unit(x_i - x_j) for every pair i < j of each point set in the stack
    points (..., n, m), in combinations order: the per-pair Gauss map the
    stacked one replaced."""
    pts = np.asarray(points)
    out = [[_unit(tuple(p - q for p, q in zip(cfg[i], cfg[j])))
            for i, j in itertools.combinations(range(len(cfg)), 2)]
           for cfg in pts.reshape(-1, *pts.shape[-2:]).tolist()]
    return np.array(out).reshape(*pts.shape[:-2], -1, pts.shape[-1])


def _hex(a):
    return [x.hex() for x in np.asarray(a, dtype=float).ravel().tolist()]


def _old_point_draw(rng, n, m, min_sep=1e-3):
    """The accepted draw of the per-pair rejection loop the vectorised
    separation test replaced."""
    while True:
        pts = rng.uniform(-1.0, 1.0, size=(n, m))
        if all(np.linalg.norm(pts[a] - pts[b]) >= min_sep
               for a, b in itertools.combinations(range(n), 2)):
            return pts


def _old_boundary_draw(rng, n, m, eps=G.DEFAULT_EPS):
    """The boundary sampler the chunk sampler replaced, one candidate per
    draw: its configuration, and the kinds of rejection ("pole", "point")
    among its first k candidates, the ones a chunk draws at once."""
    top, bottom = G.north(m), G.south(m)
    lead = int(rng.integers(0, 2)) if n >= 2 else 0
    trail = int(rng.integers(0, 2)) if n - lead >= 2 else 0
    k = n - lead - trail
    poles = np.array([top, bottom])
    pts, drawn, rejected = [], 0, set()
    while len(pts) < k:
        cand = rng.uniform(-1.0, 1.0, size=m)
        drawn += 1
        if (G._norms((cand - poles).T) < eps * 1.5).any():
            rejected |= {"pole"} if drawn <= k else set()
            continue
        if pts and (G._norms((cand - np.array(pts)).T) < 1e-3).any():
            rejected |= {"point"} if drawn <= k else set()
            continue
        pts.append(cand)
    dirs = {}
    if k >= 2 and rng.random() < 0.5:
        which = int(rng.integers(0, k - 1))
        pts[which + 1] = pts[which]
        dirs[(lead + which + 1, lead + which + 2)] = G._unit_rows(rng.standard_normal((1, m)))[0]
    elif k >= 1 and rng.random() < 0.3:
        sign = 1.0 if rng.random() < 0.5 else -1.0
        axis = np.zeros(m)
        axis[-1] = sign * (1.0 - eps / 2.0)
        pts[0] = axis
        if k >= 2:
            pts[1] = axis
            dirs[(lead + 1, lead + 2)] = G._unit_rows(rng.standard_normal((1, m)))[0]
    tangents = G._unit_rows(rng.standard_normal((n, m)))
    return G.PointConfiguration(m, [top] * lead + pts + [bottom] * trail, tangents,
                                dirs), rejected


def _old_disk_draw(rng, n, m):
    """The disk sampler's rejection loop as first written, one vertex on one
    stream: its centers and radii, and how many draws it took."""
    a, b = G._pair_points(n)
    for tries in itertools.count(1):
        g = rng.standard_normal((n, m))
        pts = (0.7 * rng.random((n, m)).max(axis=1) / G._norms(g.T))[:, None] * g
        sep = np.min(G._norms((pts[a] - pts[b]).T), initial=math.inf)
        if sep >= 1e-2:
            room = np.minimum(1.0 - G._norms(pts.T), sep / 2.0)
            return pts, room * rng.uniform(0.3, 0.95, n), tries


def _assert_same(got, want):
    """Equal shapes and the same float bits in every row."""
    assert (got.m, got.n) == (want.m, want.n)
    assert got.rows.tobytes() == want.rows.tobytes()


def _pole_distance(x, sign):
    return _norm(tuple(a - b for a, b in zip(x, (0.0,) * (len(x) - 1) + (sign,))))


def _lambda_oracle(x, eps=G.DEFAULT_EPS):
    """lambda point by point: the scalar body the stacked kernel replaced."""
    v = tuple(float(c) for c in x)
    for sign in (-1.0, 1.0):
        d = _pole_distance(v, sign)
        if d == 0.0:
            raise ValueError("lambda is undefined at the marked endpoints")
        if d < eps:
            v = v[:-1] + (eps * v[-1] / d,)
    return v


def _jacobian_oracle(x, eps=G.DEFAULT_EPS, tol=G.DEFAULT_TOL):
    v = tuple(float(c) for c in x)
    for sign in (-1.0, 1.0):
        d = _pole_distance(v, sign)
        if d == 0.0:
            raise ValueError("no differential at the marked endpoints")
        if d < eps:
            if any(abs(c) > tol for c in v[:-1]):
                raise ValueError("point inside an endpoint shell is off-axis")
            return eps / (d * d)
    return 1.0


def _project_oracle(c, eps=G.DEFAULT_EPS):
    """pi_k pair by pair, as rows (C(n, 2), m)."""
    m, points, dirs = c.m, _tuples(c.points), _direction_map(c)
    top, bottom = _north(m), _south(m)
    rows = []
    for i, j in itertools.combinations(range(1, c.n + 1), 2):
        xi, xj = points[i - 1], points[j - 1]
        if xi == xj:
            g = dirs.get((i, j))
            if g is None:
                raise ValueError(f"coincident pair ({i}, {j}) carries no direction")
            if xi == top or xi == bottom:
                if g[-1] == 0.0:
                    raise ValueError(f"degenerate direction for pair ({i}, {j}) "
                                     "at an endpoint")
                rows.append((0.0,) * (m - 1) + (math.copysign(1.0, g[-1]),))
            else:
                rows.append(_unit(g[:-1] + (_jacobian_oracle(xi, eps) * g[-1],)))
        elif xi == top or xj == bottom:
            rows.append(bottom)
        elif xj == top or xi == bottom:
            raise ValueError(f"pair ({i}, {j}) has an endpoint out of order")
        else:
            yi, yj = _lambda_oracle(xi, eps), _lambda_oracle(xj, eps)
            rows.append(_unit(tuple(a - b for a, b in zip(yj, yi))))
    return np.array(rows).reshape(-1, m)


def _projection_branches(c, eps=G.DEFAULT_EPS):
    """Which of pi_k's cases the pairs of c take."""
    top, bottom = _north(c.m), _south(c.m)
    out = set()
    for xi, xj in itertools.combinations(_tuples(c.points), 2):
        if xi == xj:
            out.add("endpoint pair" if xi in (top, bottom) else
                    "shell pair" if _jacobian_oracle(xi, eps) != 1.0 else "interior pair")
        elif xi == top or xj == bottom:
            out.add("endpoint rule")
        else:
            out.add("shell point" if _lambda_oracle(xi, eps) != xi
                    or _lambda_oracle(xj, eps) != xj else "generic")
    return out


def _insertion_oracle(c, i):
    """e^i by relabeling the pair-direction dictionary."""
    n, m = c.n, c.m
    old_points, old_tangents, old_dirs = _tuples(c.points), _tuples(c.tangents), _direction_map(c)
    base = _south(m)
    if i == 0 or i == n + 1:
        endpoint = _north(m) if i == 0 else _south(m)
        at = 0 if i == 0 else n
        points = old_points[:at] + (endpoint,) + old_points[at:]
        tangents = None if old_tangents is None else \
            old_tangents[:at] + (base,) + old_tangents[at:]
        shift = (lambda a: a + 1) if i == 0 else (lambda a: a)
        dirs = {(shift(a), shift(b)): g for (a, b), g in old_dirs.items()}
        new_idx = 1 if i == 0 else n + 1
        for k, p in enumerate(points, start=1):
            if k != new_idx and p == endpoint:
                dirs[(min(k, new_idx), max(k, new_idx))] = base
        return G.PointConfiguration(m, points, tangents, dirs)
    points = old_points[:i] + (old_points[i - 1],) + old_points[i:]
    tangents = None if old_tangents is None else \
        old_tangents[:i] + (old_tangents[i - 1],) + old_tangents[i:]

    def h(a):
        return a if a <= i else a + 1

    dirs = {}
    for (a, b), g in old_dirs.items():
        dirs[(h(a), h(b))] = g
        if a == i:
            dirs[(i + 1, h(b))] = g
        if b == i:
            dirs[(a, i + 1)] = g
    dirs[(i, i + 1)] = base
    return G.PointConfiguration(m, points, tangents, dirs)


def _delete_oracle(c, i):
    """Forget point i (1-based), relabeling the rest downward."""
    def g(k):
        return k if k < i else k - 1

    points, tangents = _tuples(c.points), _tuples(c.tangents)
    return G.PointConfiguration(
        c.m, points[:i - 1] + points[i:],
        None if tangents is None else tangents[:i - 1] + tangents[i:],
        {(g(p), g(q)): v for (p, q), v in _direction_map(c).items() if i not in (p, q)})


def _naturality_oracle(n, m, trials, seed, eps=G.DEFAULT_EPS):
    """The per-configuration naturality loop, in trial-major order, on the
    per-candidate boundary sampler."""
    rep = CheckReport(f"insertion-naturality[n={n},m={m}]")
    for k in range(trials):
        c, _ = _old_boundary_draw(G._trial_rng(seed, k), n, m, eps)
        base = G.SphereConfiguration(m, n, _project_oracle(c, eps))
        for i in range(n + 2):
            ok = np.array_equal(_project_oracle(_insertion_oracle(c, i), eps),
                                _coface(base, i).rows)
            rep.record(ok, None if ok else {"trial": k, "index": i, "config": c.to_json_obj()})
    return rep


def _two_level_slots(tree):
    """Leaf descriptors (root slot e, child vertex path or None, slot o)."""
    slots = []
    for c, child in enumerate(tree.root):
        if child == ():
            slots.append((c + 1, None, 0))
        for o, grand in enumerate(child):
            assert grand == ()
            slots.append((c + 1, (c,), o + 1))
    return slots


def _centers_oracle(tree, inputs, time):
    """The slid centers x_e + time r_e x'_o leaf by leaf."""
    vertex_centers = {p: _tuples(d.centers) for p, d in inputs.items()}
    root_radii = inputs[()].radii.tolist()
    centers = []
    for e, vpath, o in _two_level_slots(tree):
        x, r = vertex_centers[()][e - 1], root_radii[e - 1]
        if vpath is None:
            centers.append(x)
        else:
            y = vertex_centers[vpath][o - 1]
            centers.append(tuple(xc + time * r * yc for xc, yc in zip(x, y)))
    return centers


def _disks_compose_oracle(tree, inputs):
    vertex_radii = {p: d.radii.tolist() for p, d in inputs.items()}
    root = vertex_radii[()]
    radii = [root[e - 1] if vpath is None else root[e - 1] * vertex_radii[vpath][o - 1]
             for e, vpath, o in _two_level_slots(tree)]
    return _DiskConfiguration(inputs[()].m, _centers_oracle(tree, inputs, 1.0), radii)


def _projection_oracle(m, centers):
    return G.SphereConfiguration(m, len(centers), _unit_oracle(
        np.array(centers, dtype=float).reshape(len(centers), m)))


def _distance_oracle(a, b):
    return max((_norm(tuple(x - y for x, y in zip(u, v)))
                for u, v in zip(a.rows.tolist(), b.rows.tolist())), default=0.0)


def _disk_gaps_oracle(tree, m, seed, k, limit_time=G.LIMIT_TIME):
    """One trial of the disk comparison, configuration by configuration."""
    rng = G._trial_rng(seed, k)
    inputs = {p: _random_disks(rng, tree.arity(p), m) for p in tree.vertices()}
    at_one = _projection_oracle(m, _centers_oracle(tree, inputs, 1.0))
    composed = _projection_oracle(m, _disks_compose_oracle(tree, inputs).centers)
    at_limit = _projection_oracle(m, _centers_oracle(tree, inputs, limit_time))
    limit = _compose_oracle(tree, {p: _projection_oracle(m, d.centers)
                                   for p, d in inputs.items()})
    return _distance_oracle(at_one, composed), _distance_oracle(at_limit, limit)


def _suite_outcomes(monkeypatch, run):
    """The per-trial outcomes a suite hands to _aggregate_trials."""
    seen, aggregate = [], G._aggregate_trials

    def spy(name, outcomes, extra):
        seen.append(outcomes)
        return aggregate(name, outcomes, extra)

    monkeypatch.setattr(G, "_aggregate_trials", spy)
    run()
    monkeypatch.setattr(G, "_aggregate_trials", aggregate)
    return seen.pop()


def _membership_suite_oracle(name, arities, index, n, m, trials, seed, tol, extra):
    """The trial suites' earlier body: every loop and every 4-subset of the
    composed rows goes through the kernels, one per trial and not one per
    distinct edge stack."""
    outcomes = []
    for ks in G._chunks(trials):
        pts = G._draw_points(seed, ks, arities, m, G.MIN_SEP)
        rows = G._gauss_rows(pts, G._vertex_pairs(arities))[:, index]
        G._check_unit_rows(rows, n)
        worst = np.zeros(len(ks))
        if n >= 3:
            worst = np.maximum(worst, G._loop_residuals(rows, G._subset_rows(n, 3),
                                                        tol).max(axis=1))
        if n >= 4:
            worst = np.maximum(worst, G._subset_residuals(rows, G._subset_rows(n, 4))
                               .max(axis=1))
        outcomes += [{"trial": k, "passed": w <= tol, "max_residual": w}
                     for k, w in zip(ks, worst.tolist())]
    return G._aggregate_trials(name, outcomes,
                               {**extra, "n": n, "m": m, "tol": tol, "seed": seed})


def _closure_oracle(tree, m, trials, seed, tol):
    internal, index = G._compose_table(tree)
    return _membership_suite_oracle(
        "closure-trials", tuple(map(tree.arity, internal)), index, tree.leaf_count,
        m, trials, seed, tol, {"tree": tree.to_text()})


def _stacked_cubes(edges):
    """The chain-triple cubes as products on the (S, 6, m) stack itself,
    the layout _chain_cubes replaces: (S, 12, m^3)."""
    a, b, c = G._CHAIN_SLOTS
    cubes = edges[:, a, :, None, None] * edges[:, b, None, :, None] \
        * edges[:, c, None, None, :]
    return cubes.reshape(len(edges), 12, -1)


def _monomials(v):
    """The degree-3 monomials of v, in combinations_with_replacement order."""
    return np.array([v[i] * v[j] * v[k] for i, j, k in
                     itertools.combinations_with_replacement(range(len(v)), 3)])


def _fd_last_coordinate_rate(x, eps, h=1e-7):
    """Central difference of lambda's last coordinate along the axis."""
    up = list(x)
    dn = list(x)
    up[-1] += h
    dn[-1] -= h
    return (_lambda(up, eps)[-1] - _lambda(dn, eps)[-1]) / (2 * h)


def _basis(m, k):
    return tuple(1.0 if i == k else 0.0 for i in range(m))


# -- vectors and configuration types -------------------------------------------


class TestVectors:
    def test_unit_axis_exact(self):
        # single-nonzero rows must normalize with zero rounding
        assert _unit_row((0.0, -3.7, 0.0)) == (0.0, -1.0, 0.0)
        assert _unit_row((2.5,)) == (1.0,)

    def test_unit_generic(self):
        v = _unit_row((1.0, 2.0, 2.0))
        assert abs(_norm(v) - 1.0) < 1e-15
        assert v[0] == pytest.approx(1 / 3)
        assert v == _unit((1.0, 2.0, 2.0))

    def test_unit_zero_rejected(self):
        # where the scalar unit raises, the row is non-finite, which no
        # configuration accepts
        with pytest.raises(ValueError):
            _unit((0.0, 0.0))
        with pytest.raises(ValueError, match="non-finite"):
            G.SphereConfiguration(2, 2, [_unit_row((0.0, 0.0))])

    def test_unit_underflowing_norm_rejected(self):
        # two nonzero coordinates whose squares underflow: the norm is 0.0
        for v in [(1e-200, 1e-200), (-1e-200, 0.0, 5e-324)]:
            with pytest.raises(ValueError, match="underflows"):
                _unit(v)
            with pytest.raises(ValueError, match="non-finite"):
                G.SphereConfiguration(len(v), 2, [_unit_row(v)])
        # a single tiny coordinate is still the exact basis vector
        assert _unit_row((0.0, -5e-324)) == (0.0, -1.0)

    def test_poles(self):
        assert G.south(4).tolist() == [0.0, 0.0, 0.0, -1.0]
        assert G.north(2).tolist() == [0.0, 1.0]
        with pytest.raises(ValueError, match="read-only"):
            G.south(3)[0] = 1.0


class TestSphereConfiguration:
    def test_accessor_antisymmetry(self):
        s = G.SphereConfiguration(3, 2, [(0.6, 0.0, 0.8)])
        assert s.u(2, 1) == (-0.6, -0.0, -0.8)
        s = _random_sphere(np.random.default_rng(1), 5, 4)
        for r, (i, j) in enumerate(itertools.combinations(range(1, 6), 2)):
            assert s.u(i, j) == tuple(s.rows[r].tolist())
            assert s.u(j, i) == tuple(-x for x in s.u(i, j))

    def test_bad_pairs(self):
        # pair keys exist only at the JSON boundary
        with pytest.raises(ValueError, match="pair index mismatch"):
            G.SphereConfiguration.from_json_obj(
                {"m": 3, "n": 3, "u": {"1,2": [1.0, 0, 0]}})
        with pytest.raises(ValueError, match=r"missing \[\(1, 2\)\]"):
            G.SphereConfiguration.from_json_obj(
                {"m": 3, "n": 2, "u": {"1,3": [1.0, 0, 0]}})
        s = G.SphereConfiguration(3, 2, [(1.0, 0, 0)])
        with pytest.raises(ValueError):
            s.u(1, 1)
        with pytest.raises(ValueError):
            s.u(1, 3)

    def test_row_shape_validated(self):
        e1 = (1.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="shape"):
            G.SphereConfiguration(3, 3, [e1, e1])            # one row short
        with pytest.raises(ValueError, match="shape"):
            G.SphereConfiguration(3, 3, [e1] * 4)            # one row over
        with pytest.raises(ValueError, match="shape"):
            G.SphereConfiguration(3, 2, [(1.0, 0.0)])        # too narrow
        with pytest.raises(ValueError, match="shape"):
            G.SphereConfiguration(2, 2, [e1])                # too wide
        assert G.SphereConfiguration(3, 1, []).rows.shape == (0, 3)

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError, match=r"u\(1, 3\) is not a unit vector"):
            G.SphereConfiguration(3, 3, [(1.0, 0.0, 0.0), (1.0, 1.0, 0.0),
                                         (0.0, 1.0, 0.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")    # an overflowing square is no warning
            with pytest.raises(ValueError, match=r"\|v\| = inf"):
                G.SphereConfiguration(3, 2, [(1e200, 0.0, 0.0)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match=r"u\(2, 3\) has a non-finite"):
            G.SphereConfiguration(3, 3, [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                                         (bad, 0.0, 0.0)])

    def test_rows_read_only(self):
        given = np.array([[0.0, 0.0, 1.0]])
        s = G.SphereConfiguration(3, 2, given)
        with pytest.raises(ValueError, match="read-only"):
            s.rows[0, 0] = 1.0
        given[0, 2] = 5.0                     # the caller's array is copied
        assert s.u(1, 2) == (0.0, 0.0, 1.0)

    def test_json_round_trip(self):
        rng = np.random.default_rng(0)
        s = _random_sphere(rng, 4, 3)
        assert G.SphereConfiguration.from_json_obj(s.to_json_obj()) == s
        assert set(s.to_json_obj()) == {"m", "n", "u"}


# JSON values as json.load returns them, biased towards the loaders' keys
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from(["1,2", "1,3", "2,3", "x"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["m", "n", "u", "points", "tangents",
                         "pair_directions", "1,2", "1,3", "2,3", "0,5"]),
        inner, max_size=5),
    max_leaves=12)


class TestJsonLoaderFuzz:
    @settings(max_examples=300, deadline=None, database=None,
              derandomize=True)
    @given(_JSON)
    def test_loaders_accept_or_raise_value_error(self, obj):
        for cls in (G.SphereConfiguration, G.PointConfiguration):
            try:
                cfg = cls.from_json_obj(obj)
            except ValueError:
                continue
            assert cls.from_json_obj(cfg.to_json_obj()) == cfg


class TestPointConfiguration:
    def test_tangent_validation(self):
        with pytest.raises(ValueError, match="one tangent per point"):
            G.PointConfiguration(2, [(0, 0), (1, 0)], tangents=[(1, 0)])
        with pytest.raises(ValueError, match="unit"):
            G.PointConfiguration(2, [(0, 0)], tangents=[(2.0, 0)])

    def test_pair_direction_validation(self):
        with pytest.raises(ValueError, match="distinct points"):
            G.PointConfiguration(2, [(0, 0), (1, 0)],
                                 pair_directions={(1, 2): (1.0, 0.0)})
        with pytest.raises(ValueError, match="out of range"):
            G.PointConfiguration(2, [(0, 0), (0, 0)],
                                 pair_directions={(2, 1): (1.0, 0.0)})

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            G.PointConfiguration(2, [(0.0, bad), (1.0, 0.0)])
        with pytest.raises(ValueError, match="non-finite"):
            G.PointConfiguration(2, [(0.0, 0.0)], tangents=[(bad, 0.0)])
        with pytest.raises(ValueError, match="non-finite"):
            G.PointConfiguration(2, [(0.0, 0.0), (0.0, 0.0)],
                                 pair_directions={(1, 2): (1.0, bad)})

    def test_errors_name_the_first_bad_row(self):
        # each check names the first row that fails it, as the point-by-point
        # loop did; every length is checked before any coordinate
        cases = [([(0, 0), (1,)], None, "point 2 has dimension 1, expected 2"),
                 ([(0, math.nan), (1,)], None, "point 2 has dimension 1, expected 2"),
                 ([(0, 0), (1, 0), (math.inf, 0)], None, "point 3 has a non-finite"),
                 ([(0, 0), (1, 0)], [(1, 0), (0, 0.5)], "tangent 2 is not a unit vector"),
                 ([(0, 0), (1, 0)], [(1, 0), (0, 1, 0)], "tangent 2 has dimension 3")]
        for points, tangents, message in cases:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
                G.PointConfiguration(2, points, tangents)
        same = [(0.0, 0.0)] * 3
        for dirs, message in (({(2, 3): (0.6, 0.8), (1, 3): (1.0,)},
                               "direction (1, 3) has dimension 1, expected 2"),
                              ({(2, 3): (0.6, 0.7), (1, 2): (1.0, 0.0)},
                               "direction (2, 3) is not a unit vector")):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                G.PointConfiguration(2, same, pair_directions=dirs)
        with pytest.raises(ValueError, match=r"^pair \(2, 3\) has a direction but distinct"):
            G.PointConfiguration(2, [(0, 0), (0, 0), (1, 0)],
                                 pair_directions={(1, 2): (1.0, 0.0), (2, 3): (1.0, 0.0)})

    def test_read_only_arrays(self):
        source = np.array([[0.1, 0.2, 0.3], [0.1, 0.2, 0.3], [0.0, 0.0, -1.0]])
        c = G.PointConfiguration(3, source, tangents=[(0, 0, 1.0)] * 3,
                                 pair_directions={(1, 2): (0, 1.0, 0)})
        source[0, 0] = 5.0  # the configuration holds its own copy
        assert c.points[0].tolist() == [0.1, 0.2, 0.3]
        for rows in (c.points, c.tangents, c.pair_directions[(1, 2)]):
            assert rows.dtype == np.float64
            with pytest.raises(ValueError, match="read-only"):
                rows[0] = 1.0
        assert list(c.pair_directions) == [(1, 2)]
        for made in (_insert(c, 2), _delete_oracle(c, 3),
                     G.knot_eval(G.LongTrefoil(), [-0.5, -0.5, 0.5]),
                     G.random_boundary_configuration(np.random.default_rng(1), 5, 3)):
            assert not (made.points.flags.writeable or made.tangents.flags.writeable)

    def test_json_round_trip(self):
        c = G.PointConfiguration(
            3, [(0, 0, 0.5), (0, 0, 0.5), (0.1, 0.2, 0.3)],
            tangents=[(0, 0, 1.0)] * 3,
            pair_directions={(1, 2): (0, 0, 1.0)})
        assert G.PointConfiguration.from_json_obj(c.to_json_obj()) == c
        plain = G.PointConfiguration(2, [(0, 1), (1, 0)])
        obj = plain.to_json_obj()
        assert "tangents" not in obj and "pair_directions" not in obj
        assert G.PointConfiguration.from_json_obj(obj) == plain


# -- Gauss map -----------------------------------------------------------------


class TestGaussMap:
    def test_two_points(self):
        s = G.gauss_map(G.PointConfiguration(2, [(1.0, 0.0), (0.0, 0.0)]))
        assert s.u(1, 2) == (1.0, 0.0)
        assert s.u(2, 1) == (-1.0, -0.0)

    def test_collinear(self):
        pts = [(0, 0, float(k)) for k in (3, 2, 1)]
        s = G.gauss_map(G.PointConfiguration(3, pts))
        for i, j in itertools.combinations(range(1, 4), 2):
            assert s.u(i, j) == (0.0, 0.0, 1.0)

    def test_coincident_rejected(self):
        with pytest.raises(ValueError, match="coincide"):
            G.gauss_map(G.PointConfiguration(2, [(0, 0), (0, 0)]))

    def test_overflowing_difference_rejected(self):
        # finite points whose difference overflows: inf/inf would be a NaN
        c = G.PointConfiguration(2, [(1e308, 1e308), (-1e308, -1e308)])
        with pytest.raises(ValueError, match="non-finite"):
            G.gauss_map(c)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_rows_match_unit_bitwise(self, m):
        rng = np.random.default_rng(100 + m)
        pts = rng.uniform(-1.0, 1.0, size=(4, 6, m))
        # equal coordinates make differences with one or few nonzeros
        pts[0, 3] = pts[0, 1]
        pts[0, 3, 0] = pts[0, 1, 0] + 0.5
        pts[1, :, 1:] = 0.25
        got = G._gauss_rows(pts)
        assert got.shape == (4, 15, m)
        assert _hex(got) == _hex(_unit_oracle(pts))

    def test_axis_aligned_and_signed_zero_differences(self):
        pts = [[(0.0, 2.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, 7.5),
                (-0.0, 1.0, 0.5), (0.0, 0.2, 0.3)],
               [(3.0, 0.0, -0.0), (-3.0, -0.0, 0.0), (1.0, 0.0, 0.0),
                (1.0, 0.0, 2.0), (1.0, -5.0, 2.0)]]
        got = G._gauss_rows(np.array(pts))
        assert _hex(got) == _hex(_unit_oracle(pts))
        # both signs of an exact basis vector, whose other coordinates are
        # +0.0 even where the difference has -0.0; the division keeps -0.0
        assert got[0, 0].tolist() == [0.0, 1.0, 0.0]
        assert got[1, 7].tolist() == [0.0, 0.0, -1.0]
        assert math.copysign(1.0, got[1, 0, 2]) == 1.0
        assert math.copysign(1.0, got[0, 9, 0]) == -1.0

    def test_overflowing_difference_rejected_without_warning(self):
        pts = np.array([[1e308, 1e308], [-1e308, -1e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = G._gauss_rows(pts)
            assert not np.isfinite(rows).all()
            with pytest.raises(ValueError, match=r"u\(1, 2\) has a non-finite"):
                G._check_unit_rows(rows, 2)
        # one overflowing coordinate alone is still a basis direction
        assert G._gauss_rows(np.array([[1e308, 0.0], [-1e308, 0.0]])).tolist() == \
            [[1.0, 0.0]]

    def test_underflowing_difference_rejected(self):
        # unit divides by a norm that underflows to 0.0 here (ZeroDivisionError)
        c = G.PointConfiguration(2, [(1e-200, 1e-200), (0.0, 0.0)])
        with pytest.raises(ValueError, match="non-finite"):
            G.gauss_map(c)

    def test_coincident_in_stack_named(self):
        pts = np.random.default_rng(5).uniform(-1, 1, size=(3, 5, 2))
        pts[1, 3] = pts[1, 1]
        pts[2, 4] = pts[2, 0]
        with pytest.raises(ValueError, match="^points 2 and 4 coincide$"):
            G._gauss_rows(pts)
        with pytest.raises(ValueError, match="^points 2 and 4 coincide$"):
            G.gauss_map(G.PointConfiguration(2, pts[1].tolist()))

    def test_small_point_sets(self):
        for n in (0, 1):
            assert G._gauss_rows(np.zeros((2, n, 3))).shape == (2, 0, 3)
            assert G.gauss_map(G.PointConfiguration(3, [(0, 0, 1)] * n)).rows.shape == (0, 3)

    def test_random_image_is_four_consistent(self):
        rng = np.random.default_rng(4)
        c = _random_points(rng, 4, 3)
        rep = G.check_four_consistent(G.gauss_map(c), tol=1e-9)
        assert rep["passed"]


# -- membership checks -----------------------------------------------------------


class TestThreeDependent:
    def test_antipodal_pair(self):
        v = (1.0, 0.0, 0.0)
        # u12 = u23 = v and u31 = -v, i.e. u13 = v: combination (1, 0, 1)
        s = G.SphereConfiguration(3, 3, [v, v, v])
        rep = G.check_three_dependent(s)
        assert rep["passed"] and rep["max_residual"] == 0.0

    def test_triangle_gauss_dependent(self):
        rng = np.random.default_rng(5)
        for m in (2, 3, 5):
            s = G.gauss_map(_random_points(rng, 3, m))
            rep = G.check_three_dependent(s)
            assert rep["passed"], rep
            assert rep["max_residual"] <= 1e-12

    def test_independent_triple_not_dependent(self):
        # loop vectors e1, e2, e3: no non-negative combination vanishes
        s = G.SphereConfiguration(3, 3, [_basis(3, 0), (0.0, 0.0, -1.0),
                                         _basis(3, 1)])
        rep = G.check_three_dependent(s)
        assert not rep["passed"]
        assert rep["loops"][0]["residual"] > 0.5

    def test_small_arity_rejected(self):
        s = G.SphereConfiguration(3, 2, [_basis(3, 0)])
        with pytest.raises(ValueError):
            G.check_three_dependent(s)

    def test_kernel_matches_support_oracle_on_samples(self):
        # loops gathered here through the accessor, not the kernel's indexing
        rng = np.random.default_rng(41)
        samples = [G.gauss_map(_random_points(rng, 6, m))
                   for m in (2, 3, 5)]
        samples += [_random_sphere(rng, 6, m) for m in (2, 3, 4)]
        for s in samples:
            triples = [(s.u(i, j), s.u(j, k), s.u(k, i))
                       for i, j, k in itertools.combinations(range(1, 7), 3)]
            _assert_kernel_matches_oracle(triples, G.DEFAULT_TOL)
            rep = G.check_three_dependent(s)
            assert [e["residual"] for e in rep["loops"]] == \
                [min(_support_candidates(*t, G.DEFAULT_TOL)) for t in triples]

    @pytest.mark.parametrize("fixture", [
        "antipodal", "parallel", "equal", "alpha-at-tol", "beta-at-tol",
        "collinear"])
    def test_kernel_matches_support_oracle_on_degenerate_loops(self, fixture):
        # every ordering of the three vectors, so each special case reaches
        # every pair slot and every pivot of the enumeration
        tol = G.DEFAULT_TOL
        a, b, c = (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), _unit((0.3, -0.5, 0.8))
        if fixture == "antipodal":
            a = _unit((0.6, 0.0, 0.8))
            b = tuple(-x for x in a)
        elif fixture in ("parallel", "equal"):
            b = (1.0, 1e-9, 0.0) if fixture == "parallel" else a
            assert _dot(a, a) * _dot(b, b) - _dot(a, b) ** 2 < 1e-14
        elif fixture == "alpha-at-tol":
            # the 2-support solve of (a, b) has alpha = -tol exactly
            tol = 0.25
            b = (tol, math.sqrt(1.0 - tol * tol), 0.0)
            c = _unit(tuple(x + y for x, y in zip(a, b)))
        elif fixture == "beta-at-tol":
            # the 3-support solve with pivot c, as the oracle computes it,
            # has beta = -tol exactly
            c = _unit((-1.0, 0.001, -0.1))
            tol = _dot(b, c)   # -beta, since a and b are orthonormal
            assert tol > 0
        else:
            s = G.gauss_map(G.PointConfiguration(
                3, [(0.0, 0.0, 3.0), (0.0, 0.0, 2.0), (0.0, 0.0, -1.0)]))
            a, b, c = s.u(1, 2), s.u(2, 3), s.u(3, 1)
        if fixture.endswith("-at-tol"):
            # the candidate on the boundary is the loop's least one
            assert min(_support_candidates(a, b, c, tol)) < \
                min(_support_candidates(a, b, c, math.nextafter(tol, 0.0)))
        _assert_kernel_matches_oracle(list(itertools.permutations((a, b, c))), tol)


class TestFourConsistent:
    def test_complement_chain_example(self):
        assert G.complement_chain((1, 2, 3, 4)) == (3, 1, 4, 2)

    def test_complement_is_edge_complement(self):
        # the complement path must use exactly the K4 edges the path missed
        for seq in itertools.permutations((1, 2, 3, 4)):
            comp = G.complement_chain(seq)
            path_edges = {tuple(sorted((seq[k], seq[k + 1]))) for k in range(3)}
            comp_edges = {tuple(sorted((comp[k], comp[k + 1]))) for k in range(3)}
            assert path_edges | comp_edges == set(
                itertools.combinations((1, 2, 3, 4), 2))
            assert not path_edges & comp_edges

    def test_against_naive_permutation_sum(self):
        # generic configuration: the sums are O(1), so this pins the sign
        # conventions, not just the vanishing.  The coefficient matrix,
        # evaluated at all basis pairs and at random unit pairs, must equal
        # the naive sum, and its l1 norm (the residual) must bound it.
        rng = np.random.default_rng(11)
        for m in (3, 4):
            s = _random_sphere(rng, 5, m)
            rep = G.check_four_consistent(s)
            raw = rng.standard_normal((40, m))
            unit_rows = raw / np.linalg.norm(raw, axis=1, keepdims=True)
            pairs = [(_basis(m, a), _basis(m, b))
                     for a in range(m) for b in range(m)]
            pairs += [(tuple(v), tuple(w))
                      for v, w in zip(unit_rows[:20], unit_rows[20:])]
            for entry in rep["subsets"]:
                sub = tuple(entry["subset"])
                edges = [[s.u(sub[a], sub[b]) for a, b in G._PAIR_SLOTS]]
                coeffs = G._four_coefficients(np.array(edges))[0]
                assert np.abs(coeffs).sum() == pytest.approx(entry["residual"],
                                                              rel=1e-12)
                for v, w in pairs:
                    naive = _naive_chain_sum(s, sub, v, w)
                    exact = _monomials(v) @ coeffs @ _monomials(w)
                    assert exact == pytest.approx(naive, abs=1e-12)
                    assert entry["residual"] >= abs(naive)

    def test_gauss_images_pass(self):
        rng = np.random.default_rng(6)
        for n, m in [(4, 3), (5, 4), (6, 5)]:
            s = G.gauss_map(_random_points(rng, n, m))
            rep = G.check_four_consistent(s, tol=1e-9)
            assert rep["passed"], rep

    def test_generic_configuration_fails(self):
        rng = np.random.default_rng(7)
        s = _random_sphere(rng, 4, 3)
        assert not G.check_four_consistent(s)["passed"]

    def test_work_bound(self, monkeypatch):
        # at the bound the check runs; one coefficient cell over raises
        # before any kernel does
        s = _random_sphere(np.random.default_rng(47), 5, 3)
        cells = math.comb(5, 4) * math.comb(3 + 2, 3) ** 2
        monkeypatch.setattr(G, "MAX_FOUR_CELLS", cells)
        assert len(G.membership_report(s)["four_consistent"]["subsets"]) == 5

        def kernel(*args):
            raise AssertionError("a kernel ran past the work bound")

        monkeypatch.setattr(G, "MAX_FOUR_CELLS", cells - 1)
        monkeypatch.setattr(G, "_four_residuals", kernel)
        monkeypatch.setattr(G, "_three_residuals", kernel)
        with pytest.raises(BoundExceededError, match="work bound"):
            G.membership_report(s)

    def test_small_arity_rejected(self):
        rng = np.random.default_rng(8)
        with pytest.raises(ValueError):
            G.check_four_consistent(_random_sphere(rng, 3, 3))

    def test_membership_report_combines(self):
        rng = np.random.default_rng(9)
        s = G.gauss_map(_random_points(rng, 5, 3))
        rep = G.membership_report(s)
        assert rep["passed"]
        assert rep["three_dependent"]["passed"] and rep["four_consistent"]["passed"]
        two = G.gauss_map(_random_points(rng, 2, 3))
        rep2 = G.membership_report(two)
        assert rep2["passed"] and rep2["three_dependent"] is None


class TestFourBatchIndependence:
    """The trial suites decide each distinct edge stack once and take the
    worst, which gives every trial's bytes only while a loop's or subset's
    residual does not depend on the batch it is computed in.  These tests
    pin that on every numpy and BLAS the package is tested with."""

    @staticmethod
    def _edges(m, count, seed):
        # Gauss-image subsets (residuals near 0) and generic unit rows
        # (residuals of order 1), interleaved
        rng = np.random.default_rng(seed)
        gauss = G._gauss_rows(rng.uniform(-1.0, 1.0, (count, 4, m)))
        generic = G._unit_rows(rng.standard_normal((count, 6, m)))
        edges = np.stack([gauss, generic], axis=1).reshape(-1, 6, m)[:count]
        return np.ascontiguousarray(edges)

    @pytest.mark.parametrize("m", [3, 4, 5, G.MAX_FOUR_DIM])
    def test_four_residuals(self, m):
        # at MAX_FOUR_DIM a _FOUR_BATCH_CELLS batch holds one subset, so
        # fewer subsets go through it there, and the stacking itself is
        # checked on _four_coefficients below
        edges = self._edges(m, 24 if m == G.MAX_FOUR_DIM else 300, m)
        alone = np.concatenate([G._four_residuals(e[None]) for e in edges])
        assert G._four_residuals(edges).tobytes() == alone.tobytes()
        assert G._four_residuals(edges[::-1])[::-1].tobytes() == alone.tobytes()
        assert alone.min() < 1e-12 and alone.max() > 1e-3

    @pytest.mark.parametrize("m", [3, 4, 5, G.MAX_FOUR_DIM])
    def test_four_coefficients(self, m):
        edges = self._edges(m, 4 if m == G.MAX_FOUR_DIM else 40, m + 1)
        alone = np.concatenate([G._four_coefficients(e[None]) for e in edges])
        assert G._four_coefficients(edges).tobytes() == alone.tobytes()
        assert G._four_coefficients(edges[::-1])[::-1].tobytes() == alone.tobytes()

    @pytest.mark.parametrize("m", [3, 4, 5, G.MAX_FOUR_DIM])
    def test_three_residuals(self, m):
        rng = np.random.default_rng(m + 2)
        gauss = G._loop_residuals(G._gauss_rows(rng.uniform(-1.0, 1.0, (100, 3, m))),
                                  G._subset_rows(3, 3), G.DEFAULT_TOL)
        assert gauss.max() <= G.DEFAULT_TOL
        loops = G._unit_rows(rng.standard_normal((300, 3, m)))
        loops[::3] = G._gauss_rows(rng.uniform(-1.0, 1.0, (100, 3, m)))[:, [0, 2, 1]] \
            * G._LOOP_SIGNS
        alone = np.concatenate([G._three_residuals(x[None], G.DEFAULT_TOL) for x in loops])
        assert G._three_residuals(loops, G.DEFAULT_TOL).tobytes() == alone.tobytes()
        assert G._three_residuals(loops[::-1], G.DEFAULT_TOL)[::-1].tobytes() \
            == alone.tobytes()
        assert alone.min() <= G.DEFAULT_TOL < alone.max()

    @pytest.mark.parametrize("m", [1, 3, 4, 5, G.MAX_FOUR_DIM])
    def test_cube_layouts_agree(self, m):
        # the products on the transposed stack are those on the stack, bit
        # for bit, and come back C-contiguous for the stacked fold product
        edges = self._edges(m, 30, m + 3)
        cubes = G._chain_cubes(edges)
        assert cubes.flags.c_contiguous and cubes.shape == (30, 12, m ** 3)
        assert cubes.tobytes() == _stacked_cubes(edges).tobytes()


# -- sphere-coordinate composition ----------------------------------------------


class TestKontsevichCompose:
    def test_corolla_identity(self):
        rng = np.random.default_rng(10)
        s = _random_sphere(rng, 4, 3)
        assert G.kontsevich_compose(corolla(4), {(): s}) == s

    def test_graft_example(self):
        rng = np.random.default_rng(12)
        root = _random_sphere(rng, 2, 3)
        upper = _random_sphere(rng, 2, 3)
        w = G.kontsevich_compose(graft(2, 1, 2), {(): root, (0,): upper})
        assert w.u(1, 2) == upper.u(1, 2)
        assert w.u(1, 3) == root.u(1, 2)
        assert w.u(2, 3) == root.u(1, 2)

    def test_closure_of_membership(self):
        rep = G.closure_trials(graft(3, 2, 3), 3, 60, seed=13, tol=1e-9)
        assert rep["passed"], rep

    def test_functoriality_exact(self):
        # fold the structure map one graft at a time, in every edge order;
        # pure index bookkeeping, so equality is on the nose
        rng = np.random.default_rng(14)
        tree = parse_tree("((* (* *)) * *)")
        op = _SphereOperad()
        inputs = {p: _random_sphere(rng, len(tree.node_at(p)), 3)
                  for p in tree.vertices() if not tree.is_leaf(p)}
        direct = G.kontsevich_compose(tree, inputs)
        assert structure_map(op, tree, inputs) == direct
        for order in itertools.permutations(tree.internal_edges()):
            assert structure_map_stepwise(op, tree, inputs, list(order)) == direct

    def test_gather_matches_oracle_on_every_tree(self):
        # every reduced tree with at most 6 leaves, and unary vertices, whose
        # inputs carry no rows
        rng = np.random.default_rng(45)
        shapes = [t for k in range(7) for t in enumerate_trees(k)]
        shapes += [parse_tree(text) for text in ("((* *))", "(* ((* * *)) (*))")]
        for tree in shapes:
            inputs = {p: _random_sphere(rng, tree.arity(p), 4)
                      for p in tree.vertices()}
            _assert_same(G.kontsevich_compose(tree, inputs),
                         _compose_oracle(tree, inputs))
        tree = graft(3, 2, 2)
        inputs = {(): _random_sphere(rng, 3, 3),
                  (1,): _random_sphere(rng, 2, 3)}
        _assert_same(G.kontsevich_compose(tree, inputs), _compose_oracle(tree, inputs))

    def test_input_validation(self):
        rng = np.random.default_rng(15)
        t = graft(2, 1, 2)
        ok = {(): _random_sphere(rng, 2, 3),
              (0,): _random_sphere(rng, 2, 3)}
        with pytest.raises(ValueError, match="internal vertices"):
            G.kontsevich_compose(t, {(): ok[()]})
        with pytest.raises(ValueError, match="arity"):
            G.kontsevich_compose(t, {(): ok[()],
                                     (0,): _random_sphere(rng, 3, 3)})
        with pytest.raises(ValueError, match="dimensions"):
            G.kontsevich_compose(t, {(): ok[()],
                                     (0,): _random_sphere(rng, 2, 4)})


class TestCofaces:
    def test_codegeneracy_inverts_middle_coface(self):
        rng = np.random.default_rng(16)
        s = _random_sphere(rng, 4, 3)
        assert _codegeneracy(_coface(s, 1), 1) == s

    def test_top_coface_basepoint_row(self):
        rng = np.random.default_rng(17)
        s = _random_sphere(rng, 3, 3)
        d = _coface(s, 4)
        for i in range(1, 4):
            assert d.u(i, 4) == _south(3)

    def test_bottom_coface_basepoint_row(self):
        rng = np.random.default_rng(18)
        s = _random_sphere(rng, 3, 4)
        d = _coface(s, 0)
        for j in range(2, 5):
            assert d.u(1, j) == _south(4)

    def test_middle_coface_doubles(self):
        rng = np.random.default_rng(19)
        s = _random_sphere(rng, 3, 3)
        d = _coface(s, 2)
        assert d.u(2, 3) == _south(3)
        assert d.u(1, 2) == s.u(1, 2) and d.u(1, 3) == s.u(1, 2)
        assert d.u(1, 4) == s.u(1, 3) and d.u(2, 4) == s.u(2, 3)

    def test_gathers_match_oracles_at_every_level(self):
        rng = np.random.default_rng(46)
        for n in range(8):
            for m in (1, 3):
                s = _random_sphere(rng, n, m)
                for i in range(n + 2):
                    _assert_same(_coface(s, i), _coface_oracle(s, i))
                for i in range(1, n + 1):
                    _assert_same(_codegeneracy(s, i),
                                 _codegeneracy_oracle(s, i))

    def test_all_identities_exact(self):
        rep = G.check_sphere_cosimplicial(3, max_level=6, per_level=15, seed=20)
        assert rep.passed, rep.failures[:2]

    @pytest.mark.parametrize("m,max_level,per_level,seed", [
        (3, 5, 10, 1), (3, 6, 15, 20), (1, 4, 3, 2), (2, 3, 1, 0), (5, 2, 7, 9),
        (4, 0, 4, 3)])
    def test_stacked_check_matches_per_configuration_oracle(self, m, max_level,
                                                            per_level, seed):
        got = G.check_sphere_cosimplicial(m, max_level, per_level, seed)
        want = _sphere_cosimplicial_oracle(m, max_level, per_level, seed)
        assert got.passed and got.to_json_obj() == want.to_json_obj()

    @pytest.mark.parametrize("m", [1, 3])
    def test_level_stack_holds_the_per_configuration_samples(self, m):
        # one (T, C(n, 2), m) normal draw takes the T samples' draws in turn
        stacked, single = np.random.default_rng(m), np.random.default_rng(m)
        for n in range(6):
            got = G._sphere_rows(stacked, (7,), n, m)
            want = [_random_sphere(single, n, m).rows for _ in range(7)]
            assert got.shape == (7, n * (n - 1) // 2, m)
            assert got.tobytes() == np.stack(want).tobytes()

    def test_swapped_coface_rows_fail_both_paths_alike(self, monkeypatch):
        # a coface table with two rows swapped breaks identities; the stacked
        # check fails as the per-configuration one does, with the same
        # witnesses, each naming one of the sampled configurations
        table = G._coface_table

        def swapped(n, i):
            out = table(n, i).copy()
            other = np.flatnonzero(out != out[:1])
            if len(other):
                out[[0, other[0]]] = out[[other[0], 0]]
            return out

        monkeypatch.setattr(G, "_coface_table", swapped)
        got = G.check_sphere_cosimplicial(3, max_level=4, per_level=5, seed=11)
        want = _sphere_cosimplicial_oracle(3, 4, 5, 11)
        assert not got.passed and got.checks == want.checks
        assert got.to_json_obj() == want.to_json_obj()
        rng = np.random.default_rng(11)
        samples = {repr(_random_sphere(rng, n, 3))
                   for n in range(5) for _ in range(5)}
        for failure in got.failures:
            witness = failure["witness"]
            assert witness["input"] in samples
            assert all(witness[key].count("SphereConfiguration(") == 1
                       for key in ("got", "want"))

    @pytest.mark.parametrize("kernel", ["_coface_rows", "_codegeneracy_rows"])
    def test_every_gathered_stack_gets_the_unit_check(self, kernel, monkeypatch):
        gather = getattr(G, kernel)
        monkeypatch.setattr(G, kernel, lambda rows, n, i: 2.0 * gather(rows, n, i))
        with pytest.raises(ValueError, match="is not a unit vector"):
            G.check_sphere_cosimplicial(3, max_level=3, per_level=4, seed=1)

    def test_index_ranges(self):
        rng = np.random.default_rng(21)
        s = _random_sphere(rng, 2, 3)
        with pytest.raises(ValueError):
            _coface(s, 4)
        with pytest.raises(ValueError):
            _codegeneracy(s, 0)


# -- little disks ---------------------------------------------------------------


class TestDisks:
    def test_validation(self):
        with pytest.raises(ValueError, match="outside"):
            _DiskConfiguration(2, [(0.0, 0.0)], [1.5])
        with pytest.raises(ValueError, match="leaves the unit ball"):
            _DiskConfiguration(2, [(0.8, 0.0)], [0.5])
        with pytest.raises(ValueError, match="overlap"):
            _DiskConfiguration(2, [(0.3, 0.0), (-0.3, 0.0)], [0.5, 0.5])
        with pytest.raises(ValueError, match="non-finite"):
            _DiskConfiguration(2, [(math.nan, 0.0)], [0.5])
        with pytest.raises(ValueError, match="^bad ambient dimension m=0$"):
            _DiskConfiguration(0, [[]], [0.5])
        with pytest.raises(ValueError, match="^center 2 has dimension 3, expected 2$"):
            _DiskConfiguration(2, [(0.5, 0.0), (-0.5, 0.0, 0.0)], [0.2, 0.2])

    def test_read_only_arrays(self):
        d = _random_disks(np.random.default_rng(21), 3, 3)
        for rows in (d.centers, d.radii):
            assert rows.dtype == np.float64
            with pytest.raises(ValueError, match="read-only"):
                rows[0] = 0.0
        assert (d.centers.shape, d.radii.shape) == ((3, 3), (3,))

    def test_unit_case_translates_and_scales(self):
        child = _DiskConfiguration(2, [(0.4, 0.0), (-0.4, 0.0)], [0.3, 0.3])
        root = _DiskConfiguration(2, [(0.2, 0.1)], [0.5])
        out = _compose_disks(parse_tree("((* *))"), {(): root, (0,): child})
        for k in range(2):
            want = tuple(0.5 * c + x for c, x in zip(child.centers[k], (0.2, 0.1)))
            assert out.centers[k] == pytest.approx(want)
            assert out.radii[k] == pytest.approx(0.5 * 0.3)

    def test_pass_through_slot(self):
        # graft(2,1,2): two disks into the first of two, third passes through
        rng = np.random.default_rng(22)
        root = _random_disks(rng, 2, 3)
        child = _random_disks(rng, 2, 3)
        out = _compose_disks(graft(2, 1, 2), {(): root, (0,): child})
        assert out.n == 3
        assert out.centers[2].tolist() == root.centers[1].tolist()
        assert out.radii[2] == root.radii[1]
        assert out.radii[0] == pytest.approx(root.radii[0] * child.radii[0])

    def test_four_disks_radii_products(self):
        rng = np.random.default_rng(23)
        t = parse_tree("((* *) (* *))")
        root = _random_disks(rng, 2, 3)
        kids = {(0,): _random_disks(rng, 2, 3),
                (1,): _random_disks(rng, 2, 3)}
        out = _compose_disks(t, {(): root, **kids})
        assert out.n == 4
        want = [root.radii[0] * kids[(0,)].radii[0],
                root.radii[0] * kids[(0,)].radii[1],
                root.radii[1] * kids[(1,)].radii[0],
                root.radii[1] * kids[(1,)].radii[1]]
        assert list(out.radii) == pytest.approx(want)

    def test_deep_tree_rejected(self):
        rng = np.random.default_rng(24)
        t = parse_tree("((* (* *)))")
        with pytest.raises(ValueError, match="deeper"):
            _compose_disks(t, {(): _random_disks(rng, 1, 2),
                                (0,): _random_disks(rng, 2, 2),
                                (0, 1): _random_disks(rng, 2, 2)})

    def test_homotopy_time_range(self):
        t = parse_tree("((* *))")
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="outside"):
                G.disks_comparison_trials(t, 2, 1, seed=25, limit_time=bad)

    def test_homotopy_endpoints(self):
        # time 1 is literally the same formula; time ~ 0 is the operad limit
        rng = np.random.default_rng(26)
        for text in ("(* (* *))", "((* *) (* *))", "((* * *) *)"):
            t = parse_tree(text)
            inputs = {p: _random_disks(rng, len(t.node_at(p)), 3)
                      for p in t.vertices() if not t.is_leaf(p)}
            at_one = _homotopy(t, inputs, 1.0)
            assert _distance_oracle(
                at_one, _projection_oracle(3, _compose_disks(t, inputs).centers)) <= 1e-12
            limit = G.kontsevich_compose(
                t, {p: _projection_oracle(3, d.centers) for p, d in inputs.items()})
            assert _distance_oracle(
                _homotopy(t, inputs, 1e-6), limit) <= 1e-4

    def test_sweep_is_continuous(self):
        rng = np.random.default_rng(27)
        t = parse_tree("((* *) (* *))")
        inputs = {p: _random_disks(rng, len(t.node_at(p)), 3)
                  for p in t.vertices() if not t.is_leaf(p)}
        prev = None
        for time in np.geomspace(1e-6, 1.0, 120):
            s = _homotopy(t, inputs, float(time))
            if prev is not None:
                assert _distance_oracle(prev, s) < 0.2
            prev = s

    def test_comparison_trials(self):
        rep = G.disks_comparison_trials(parse_tree("(* (* *))"), 3, 40, seed=28)
        assert rep["passed"], rep
        assert rep["max_end_gap"] <= 1e-12
        assert rep["max_limit_gap"] <= 1e-4

    @pytest.mark.parametrize("m", [3, 4])
    def test_maps_match_oracles(self, m):
        rng = np.random.default_rng(42 + m)
        for t in _two_level_trees(4):
            inputs = {p: _random_disks(rng, t.arity(p), m) for p in t.vertices()}
            assert _compose_disks(t, inputs) == _disks_compose_oracle(t, inputs)
            for time in (1.0, 0.3, 1e-6):
                _assert_same(_homotopy(t, inputs, time),
                             _projection_oracle(m, _centers_oracle(t, inputs, time)))

    @pytest.mark.parametrize("text,m", [("(* (* *))", 3), ("((* *) (* *))", 3),
                                        ("((* * *) *)", 4), ("(*)", 3)])
    def test_comparison_trials_match_per_trial_oracle(self, text, m, monkeypatch):
        tree, trials = parse_tree(text), G._TRIAL_CHUNK + 3
        outcomes = _suite_outcomes(
            monkeypatch, lambda: G.disks_comparison_trials(tree, m, trials, seed=9))
        assert [(o["trial"], o["end_gap"], o["limit_gap"]) for o in outcomes] == \
            [(k, *_disk_gaps_oracle(tree, m, 9, k)) for k in range(trials)]

    def test_comparison_trials_check_their_composites(self, monkeypatch):
        # every trial's composite disks are checked as a _DiskConfiguration
        # is, on the stack of the chunk
        tree, checked, check = parse_tree("((* *) (* * *))"), [], G._check_disks
        monkeypatch.setattr(G, "_check_disks", lambda c, r, tol: checked.append((c, r)))
        G.disks_comparison_trials(tree, 3, G._TRIAL_CHUNK + 3, seed=10)
        monkeypatch.setattr(G, "_check_disks", check)
        composites = [(c, r) for c, r in checked if c.shape[1] == tree.leaf_count]
        want = []
        for k in range(G._TRIAL_CHUNK + 3):
            rng = G._trial_rng(10, k)
            inputs = {p: _random_disks(rng, tree.arity(p), 3)
                      for p in tree.vertices()}
            want.append(_disks_compose_oracle(tree, inputs))
        assert [len(c) for c, _ in composites] == [G._TRIAL_CHUNK, 3]
        assert np.concatenate([c for c, _ in composites]).tolist() == \
            [d.centers.tolist() for d in want]
        assert np.concatenate([r for _, r in composites]).tolist() == \
            [d.radii.tolist() for d in want]

    @pytest.mark.parametrize("m,digest", [
        pytest.param(1, "835ac95e717660b3d69dcdb95742698d26b8adabebfb4f8b196cf00e8d25cc42", id="1"),
        pytest.param(3, "dc628bd19cc6a0c28cc0c0aaff0235204a0f4eadfaa97847594e88d1bbae1083", id="3"),
        pytest.param(8, "0eb8b5a9718331420cb9048e3bf80af5ca2f36d859100a357de4fbc95e05135b", id="8")])
    def test_raw_draws_pinned(self, m, digest):
        # the sampler's centers and radii to the bit: numpy's normal and
        # uniform streams and exact arithmetic, with no BLAS or libm call
        h = hashlib.sha256()
        for seed in range(4):
            rng = np.random.default_rng(seed)
            for n in (1, 2, 6):
                centers, radii = G._draw_disks(rng, n, m)
                h.update(centers.tobytes() + radii.tobytes())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("m", [1, 2, 3, 8])
    def test_centers_uniform_in_the_ball(self, m):
        # the ball of radius 0.7 2^(-1/m) holds half the 0.7-ball's volume;
        # a center radius of another law misses that half by far
        rng = np.random.default_rng(60 + m)
        radii = G._norms(np.concatenate([G._draw_disks(rng, 6, m)[0] for _ in range(1000)]).T)
        assert radii.max() <= 0.7 + 1e-15
        assert abs(np.mean(radii < 0.7 * 2 ** (-1 / m)) - 0.5) < 0.02

    def test_leaf_bound_before_any_draw(self, monkeypatch):
        # a 32-disk vertex in R^1, the slowest tree the bound admits, runs;
        # more leaves exit 3 before any disk is drawn
        assert G.disks_comparison_trials(corolla(32), 1, 3, seed=1)["passed"]
        monkeypatch.setattr(G, "_draw_disks", None)
        for tree in (corolla(33), parse_tree("(" + "(* *) " * 17 + ")")):
            with pytest.raises(BoundExceededError, match="point bound 32"):
                G.disks_comparison_trials(tree, 1, 1)


# -- endpoint maps --------------------------------------------------------------


class TestLambdaMap:
    def test_far_branch_identity(self):
        x = (0.2, -0.3, 0.1)
        assert _lambda(x) == x

    def test_near_top_formula(self):
        # oracle: direct evaluation of eps a_m / d_+(a) on a sample sequence
        eps = 0.125
        for am in (0.99, 0.999, 0.9999):
            out = _lambda((0.0, 0.0, am), eps)
            assert out[:2] == (0.0, 0.0)
            assert out[2] == pytest.approx(eps * am / (1 - am), rel=1e-12)
        seq = [_lambda((0.0, 0.0, 1 - 10.0 ** -k))[2] for k in range(2, 7)]
        assert all(a < b for a, b in zip(seq, seq[1:]))  # diverges upward

    def test_near_bottom_formula(self):
        eps = 0.125
        out = _lambda((0.0, 0.0, -0.999), eps)
        assert out[2] == pytest.approx(eps * (-0.999) / 0.001, rel=1e-12)

    def test_shell_continuity(self):
        eps = 0.125
        direction = _unit((0.3, -0.5, 0.8))
        for delta in (1e-10, 1e-12):
            inner = tuple(p + (eps - delta) * d
                          for p, d in zip((0, 0, 1.0), direction))
            outer = tuple(p + (eps + delta) * d
                          for p, d in zip((0, 0, 1.0), direction))
            gap = max(abs(a - b) for a, b in
                      zip(_lambda(inner, eps), _lambda(outer, eps)))
            assert gap <= 1e-9

    def test_preconditions(self):
        # eps is checked where it enters, by the naturality check and --eps
        with pytest.raises(ValueError, match="eps"):
            G.check_insertion_naturality(3, 3, 1, eps=0.2)
        with pytest.raises(ValueError, match="undefined"):
            _lambda((0.0, 0.0, 1.0))
        with pytest.raises(ValueError, match="undefined"):
            _lambda((0.0, 0.0, -1.0))


    def test_matches_oracle_bitwise(self):
        rng = np.random.default_rng(41)
        eps = 0.125
        pts = [tuple(rng.uniform(-1.0, 1.0, size=3)) for _ in range(50)]
        pts += [(0.0, 0.0, s * (1.0 - eps * f)) for s in (1.0, -1.0) for f in (0.01, 0.5, 0.99)]
        pts += [tuple(p + 0.1 * eps * d for p, d in zip((0.0, 0.0, s), rng.standard_normal(3)))
                for s in (1.0, -1.0) for _ in range(10)]
        assert [_lambda(x, eps) for x in pts] == [_lambda_oracle(x, eps) for x in pts]
        stacked, codes, _, _ = G._lambda_rows(np.array(pts), eps)
        assert not codes.any()
        assert _hex(stacked) == _hex([_lambda_oracle(x, eps) for x in pts])


class TestJacobianFactor:
    def test_matches_finite_difference(self):
        eps = 0.125
        for am in (1 - eps / 2, 1 - eps / 3, -(1 - eps / 2), -(1 - eps / 5)):
            x = (0.0, 0.0, am)
            assert _jacobian(x, eps) == pytest.approx(
                _fd_last_coordinate_rate(x, eps), rel=1e-5)

    def test_far_point_is_identity(self):
        assert _jacobian((0.1, 0.4, -0.2)) == 1.0

    def test_off_axis_shell_rejected(self):
        with pytest.raises(ValueError, match="off-axis"):
            _jacobian((0.01, 0.0, 0.95))

    def test_matches_oracle(self):
        eps = 0.125
        for x in [(0.1, 0.4, -0.2), (0.0, 0.0, 0.95), (0.0, -0.0, -0.99), (0.0, 0.0, 0.875),
                  (1e-12, 0.0, 0.9), (5e-9, 0.0, 0.95), (0.01, 0.0, 0.95), (0.0, 0.0, 1.0),
                  (0.0, 0.0, -1.0)]:
            try:
                want = _jacobian_oracle(x, eps)
            except ValueError as exc:
                with pytest.raises(ValueError, match=str(exc)):
                    _jacobian(x, eps)
            else:
                assert _jacobian(x, eps).hex() == want.hex()


class TestProjectPiK:
    def test_interior_case_is_gauss_of_lambda(self):
        rng = np.random.default_rng(29)
        c = _random_points(rng, 4, 3)
        got = _pi(c)
        lam = G.PointConfiguration(3, [_lambda(p) for p in c.points])
        want = G.gauss_map(lam)
        for i, j in itertools.combinations(range(1, 5), 2):
            # forward direction: u(lambda x_j - lambda x_i) = -gauss u_ij
            assert got.u(i, j) == want.u(j, i)

    def test_endpoint_rules(self):
        c = G.PointConfiguration(3, [(0, 0, 1.0), (0.2, 0.3, 0.1), (0, 0, -1.0)])
        s = _pi(c)
        assert s.u(1, 2) == _south(3)
        assert s.u(2, 3) == _south(3)
        assert s.u(1, 3) == _south(3)

    def test_approach_to_top_endpoint(self):
        other = (0.3, 0.2, -0.1)
        gaps = []
        for d in (1e-2, 1e-4, 1e-6):
            c = G.PointConfiguration(3, [(d, 0.0, 1.0 - 2 * d), other])
            v = _pi(c).u(1, 2)
            gaps.append(_norm(tuple(a - b for a, b in zip(v, _south(3)))))
        assert gaps[-1] <= 1e-4
        assert gaps == sorted(gaps, reverse=True)

    def test_coincident_interior_pair(self):
        g = _unit((0.3, -0.4, 0.8))
        c = G.PointConfiguration(3, [(0.1, 0.2, 0.3)] * 2,
                                 pair_directions={(1, 2): g})
        # far from the shells the differential is the identity
        assert _pi(c).u(1, 2) == _unit(g)

    def test_coincident_shell_pair_rescales(self):
        eps = 0.125
        d = eps / 2
        g = _unit((0.3, -0.4, 0.8))
        c = G.PointConfiguration(3, [(0.0, 0.0, 1 - d)] * 2,
                                 pair_directions={(1, 2): g})
        want = _unit((g[0], g[1], (eps / d ** 2) * g[2]))
        assert _pi(c, eps).u(1, 2) == want

    def test_error_cases(self):
        with pytest.raises(ValueError, match="no direction"):
            _pi(G.PointConfiguration(3, [(0.1, 0.2, 0.3)] * 2))
        with pytest.raises(ValueError, match="out of order"):
            _pi(G.PointConfiguration(
                3, [(0.1, 0.2, 0.3), (0.0, 0.0, 1.0)]))
        with pytest.raises(ValueError, match="degenerate"):
            _pi(G.PointConfiguration(
                3, [(0.0, 0.0, 1.0)] * 2,
                pair_directions={(1, 2): (1.0, 0.0, 0.0)}))


    @pytest.mark.parametrize("m", [3, 4])
    @pytest.mark.parametrize("n", range(7))
    def test_stacked_projection_matches_oracle(self, n, m):
        # a stack of boundary samples and of each of their insertions, which
        # add leading *_+ and trailing *_- copies, gives every configuration's
        # oracle rows to the bit
        rng = np.random.default_rng(50 + 10 * n + m)
        configs = [G.random_boundary_configuration(rng, n, m) for _ in range(30)]
        branches = set()
        for stack in [configs] + [[_insert(c, i) for c in configs]
                                  for i in range(n + 2)]:
            got = G._pi_rows(*_boundary_stack(stack), G.DEFAULT_EPS)
            want = [_project_oracle(c) for c in stack]
            assert _hex(got) == _hex(want)
            assert [_hex(_pi(c).rows) for c in stack[:3]] == \
                [_hex(w) for w in want[:3]]
            branches.update(*map(_projection_branches, stack))
        if n >= 4:
            assert branches == {"endpoint pair", "endpoint rule", "shell pair",
                                "interior pair", "shell point", "generic"}

    def test_stacked_errors_name_the_first_pair(self):
        # the first configuration, then the first pair, that has an error
        # raises it, as the per-configuration loop would
        good = G.PointConfiguration(3, [(0.1, 0.2, 0.3), (0.3, 0.2, 0.1), (0.0, 0.0, -1.0)])
        bad = G.PointConfiguration(3, [(0.1, 0.2, 0.3), (0.0, 0.0, 1.0), (0.1, 0.2, 0.3)])
        with pytest.raises(ValueError, match=r"pair \(1, 2\) has an endpoint out of order"):
            G._pi_rows(*_boundary_stack([good, bad, good]), G.DEFAULT_EPS)
        with pytest.raises(ValueError, match=r"pair \(1, 2\) has an endpoint out of order"):
            _project_oracle(bad)
        with pytest.raises(ValueError, match=r"pair \(1, 3\) carries no direction"):
            _pi(G.PointConfiguration(3, [(0.1, 0.2, 0.3), (0.2, 0.2, 0.2),
                                                    (0.1, 0.2, 0.3), (0.0, 0.0, 1.0)]))


# -- insertions and naturality ----------------------------------------------------


class TestInsertion:
    def _sample(self, seed=30, n=4, m=3):
        return G.random_boundary_configuration(np.random.default_rng(seed), n, m)

    def test_insert_then_forget(self):
        c = self._sample()
        for i in range(1, c.n + 1):
            assert _delete_oracle(_insert(c, i), i + 1) == c
            assert _delete_oracle(_insert(c, i), i) == c
        assert _delete_oracle(_insert(c, 0), 1) == c
        assert _delete_oracle(_insert(c, c.n + 1), c.n + 1) == c

    def test_delete_point_relabels_directions(self):
        a, b = (0.1, 0.2, 0.3), (0.3, 0.2, 0.1)
        dirs = {(1, 2): (1.0, 0, 0), (1, 4): (0, 1.0, 0), (2, 4): (0, 0, 1.0),
                (3, 5): (0, 0, -1.0)}
        c = G.PointConfiguration(3, [a, a, b, a, b], pair_directions=dirs)
        for i in range(1, 6):
            def g(k):
                return k if k < i else k - 1
            expected = {(g(p), g(q)): v for (p, q), v in dirs.items() if i not in (p, q)}
            d = _delete_oracle(c, i)
            assert _direction_map(d) == expected
            assert _tuples(d.points) == _tuples(c.points)[:i - 1] + _tuples(c.points)[i:]

    def test_inserted_pair_maps_to_basepoint(self):
        c = self._sample(31)
        for i in range(1, c.n + 1):
            s = _pi(_insert(c, i))
            assert s.u(i, i + 1) == _south(3)

    def test_naturality_exact(self):
        for n in range(0, 7):
            rep = G.check_insertion_naturality(n, 3, trials=25, seed=32)
            assert rep.passed, (n, rep.failures[:1])

    def test_naturality_other_dimension(self):
        rep = G.check_insertion_naturality(4, 4, trials=10, seed=33)
        assert rep.passed

    @pytest.mark.parametrize("m", [3, 4])
    def test_insertion_matches_oracle(self, m):
        rng = np.random.default_rng(35 + m)
        for n in range(7):
            for _ in range(8):
                c = G.random_boundary_configuration(rng, n, m)
                for i in range(n + 2):
                    got, want = _insert(c, i), _insertion_oracle(c, i)
                    assert got == want and got.to_json_obj() == want.to_json_obj()

    @pytest.mark.parametrize("n,m,trials", [(0, 3, 5), (3, 3, 25), (5, 4, 25),
                                            (6, 3, G._TRIAL_CHUNK + 3)])
    def test_naturality_matches_per_configuration_loop(self, n, m, trials):
        got = G.check_insertion_naturality(n, m, trials, seed=36)
        assert got.to_json() == _naturality_oracle(n, m, trials, 36).to_json()
        assert got.passed and got.checks == trials * (n + 2)

    def test_wrong_coface_gives_the_reference_witnesses(self, monkeypatch):
        # a coface shifted by one index fails from n = 2 on; the stacked check
        # records the failures and witnesses of the per-configuration loop,
        # pinned by their digest
        orig = G._coface_table
        monkeypatch.setattr(G, "_coface_table", lambda n, i: orig(n, (i + 1) % (n + 2)))
        reps = [G.check_insertion_naturality(n, m, trials=25, seed=32)
                for n, m in ((2, 3), (3, 3), (4, 4), (6, 3))]
        assert all(not rep.passed for rep in reps)
        assert reps[0].to_json() == _naturality_oracle(2, 3, 25, 32).to_json()
        digest = hashlib.sha256("\n".join(rep.to_json() for rep in reps).encode()).hexdigest()
        assert digest == "61db3d812d23da3c2e897028eb0b76fac3f52c0e3b12a7b1d299cc02341261bc"

    def test_index_range(self):
        c = self._sample(34)
        for i in (c.n + 2, -1):
            with pytest.raises(ValueError, match="out of range"):
                G._insert_stack(*_boundary_stack([c]), i)


# -- long knots -----------------------------------------------------------------


class TestKnotEval:
    def test_straight_descending_unknot(self):
        cfg = G.knot_eval(G.LongUnknot(), [-0.5, 0.0, 0.5])
        s = G.gauss_map(cfg)
        for i, j in itertools.combinations(range(1, 4), 2):
            assert s.u(i, j) == (0.0, 0.0, 1.0)
        assert _tuples(cfg.tangents) == ((0.0, 0.0, -1.0),) * 3

    def test_straight_ascending_line(self):
        class Line:
            m = 3

            def value(self, t):
                return (0.0, 0.0, float(t))

            def derivative(self, t):
                return (0.0, 0.0, 1.0)

        cfg = G.knot_eval(Line(), [-0.5, 0.0, 0.5])
        s = G.gauss_map(cfg)
        for i, j in itertools.combinations(range(1, 4), 2):
            assert s.u(i, j) == (0.0, 0.0, -1.0)
        assert _tuples(cfg.tangents) == ((0.0, 0.0, 1.0),) * 3

    def test_trefoil_membership(self):
        cfg = G.knot_eval(G.LongTrefoil(), [-0.8, -0.3, 0.2, 0.7])
        rep = G.membership_report(G.gauss_map(cfg), tol=1e-9)
        assert rep["passed"], rep

    def test_repeated_time_diagonal(self):
        cfg = G.knot_eval(G.LongTrefoil(), [-0.5, -0.5, 0.5])
        assert cfg.points[0].tolist() == cfg.points[1].tolist()
        assert _direction_map(cfg) == {(1, 2): _tuples(cfg.tangents)[0]}
        # and the boundary projection accepts the diagonal sample
        _pi(cfg)

    def test_time_validation(self):
        with pytest.raises(ValueError, match="weakly increasing"):
            G.knot_eval(G.LongUnknot(), [0.5, -0.5])
        with pytest.raises(ValueError, match="lie in"):
            G.knot_eval(G.LongUnknot(), [-2.0])

    def test_zero_derivative_rejected(self):
        class Stall:
            m = 3

            def value(self, t):
                return (0.0, 0.0, t * t)

            def derivative(self, t):
                return (0.0, 0.0, 2.0 * t)

        with pytest.raises(ValueError, match="zero derivative"):
            G.knot_eval(Stall(), [0.0])

    def test_trefoil_is_valid_plumbing(self):
        tr = G.LongTrefoil()
        assert tr.value(-1.0) == (0.0, -0.0, 1.0)
        assert tr.value(1.0) == (-0.0, -0.0, -1.0)
        assert _unit(tr.derivative(-1.0)) == (0.0, 0.0, -1.0)
        assert _unit(tr.derivative(1.0)) == (0.0, 0.0, -1.0)
        ts = np.linspace(-1.0, 1.0, 4001)
        vals = np.array([tr.value(t) for t in ts])
        ders = np.array([tr.derivative(t) for t in ts])
        assert np.abs(vals).max() <= 1.0 + 1e-12
        assert np.linalg.norm(ders, axis=1).min() > 0.5

    def test_unknot_other_dimension(self):
        cfg = G.knot_eval(G.LongUnknot(4), [-0.2, 0.6])
        assert cfg.m == 4
        assert G.gauss_map(cfg).u(1, 2) == (0.0, 0.0, 0.0, 1.0)


# -- trial batches ---------------------------------------------------------------


class TestChunkSamplers:
    """Each chunk sampler draws, stream by stream, what the per-trial sampler
    draws, also where a first draw is rejected and the trial carries on
    alone; and the stacked naturality check keeps every check of the
    per-configuration loop.  The rejected trials are found by scanning seeds
    and trial indices in R^1 and R^2, where the program's own thresholds
    reject often."""

    def test_boundary_chunks_match_per_candidate_loop(self):
        rejected = set()
        for m, n, seed in itertools.product((1, 2), (3, 6), range(3)):
            for ks in G._chunks(120):
                want, why = zip(*(_old_boundary_draw(G._trial_rng(seed, k), n, m)
                                  for k in ks))
                got = G._draw_boundary_chunk([G._trial_rng(seed, k) for k in ks],
                                             n, m, G.DEFAULT_EPS)
                assert [x.tobytes() for x in got] == [
                    x.tobytes() for x in _boundary_stack(want)
                    + (np.stack([c.tangents for c in want]),)]
                assert [G._boundary_configuration(got, t) for t in range(len(ks))] == \
                    list(want)
                rejected.update(*why)
        assert rejected == {"pole", "point"}

    def test_disk_chunks_match_per_vertex_loop(self):
        redrawn = 0
        for m, arities, seed in itertools.product((1, 2), ((2, 3), (3, 1, 2)), range(2)):
            for ks in G._chunks(120):
                rngs = [G._trial_rng(seed, k) for k in ks]
                got = [G._draw_disk_chunk(rngs, a, m) for a in arities]
                for t, k in enumerate(ks):
                    old, new = G._trial_rng(seed, k), G._trial_rng(seed, k)
                    for (centers, radii), a in zip(got, arities):
                        want_c, want_r, tries = _old_disk_draw(old, a, m)
                        assert [x.tobytes() for x in G._draw_disks(new, a, m)] == \
                            [centers[t].tobytes(), radii[t].tobytes()] == \
                            [want_c.tobytes(), want_r.tobytes()]
                        redrawn += tries > 1
        assert redrawn > 0

    def test_point_chunks_match_per_vertex_loop(self, monkeypatch):
        monkeypatch.setattr(G, "_PREFIXES", {})
        redrawn = 0
        for arities, seed in itertools.product(((6,), (4, 2, 2)), range(3)):
            for ks in G._chunks(120):
                got = G._draw_points(seed, ks, arities, 1, G.MIN_SEP)
                for t, k in enumerate(ks):
                    rng = G._trial_rng(seed, k)
                    want = np.concatenate([_old_point_draw(rng, a, 1, G.MIN_SEP)
                                           for a in arities])
                    assert got[t].tobytes() == want.tobytes()
                    first = G._trial_rng(seed, k).uniform(-1.0, 1.0, want.shape)
                    redrawn += first.tobytes() != want.tobytes()
        assert redrawn > 0

    def test_one_wrong_coface_entry_gives_the_per_insertion_witnesses(self, monkeypatch):
        # d^2 at n = 4 reads *_S for the pair (1, 2): the stacked check
        # records the failures and the witnesses of the per-insertion loop
        table = G._coface_table

        def patched(n, i):
            if (n, i) != (4, 2):
                return table(n, i)
            wrong = table(n, i).copy()
            wrong[0] = G.pair_count(n)
            return wrong

        monkeypatch.setattr(G, "_coface_table", patched)
        trials = G._TRIAL_CHUNK + 10
        got = G.check_insertion_naturality(4, 3, trials, seed=37)
        want = _naturality_oracle(4, 3, trials, 37)
        assert not got.passed and got.to_json() == want.to_json()
        assert got.checks == trials * 6 and len(got.failures) == got.max_failures
        first = got.failures[0]
        assert first["index"] == 2 and set(first) == {"trial", "index", "config"}
        c, _ = _old_boundary_draw(G._trial_rng(37, first["trial"]), 4, 3)
        assert first["config"] == c.to_json_obj()

    @pytest.mark.parametrize("flaw", ["tangent", "tangent-nan", "direction", "point",
                                      "distinct"])
    def test_stack_check_raises_the_configuration_error(self, flaw, monkeypatch):
        # a chunk's stack is checked as every PointConfiguration is, before
        # pi_k runs, and the first configuration it rejects raises the text
        # its PointConfiguration raises, not a later one's
        rngs = [G._trial_rng(38, k) for k in range(20)]
        stack = [x.copy() for x in G._draw_boundary_chunk(rngs, 5, 3, G.DEFAULT_EPS)]
        points, dirs, has, tangents = stack
        G._check_boundary_stack(*stack)
        t, later = np.flatnonzero(has.any(axis=1))[1:3].tolist()
        r = int(np.flatnonzero(has[t])[0])
        a, b = G._pair_points(5)[:, r]
        if flaw == "tangent":
            tangents[t, 3] *= 1.5
        elif flaw == "tangent-nan":
            tangents[t, 0, 1] = np.nan
        elif flaw == "direction":
            dirs[t, r] *= 2.0
        elif flaw == "point":
            points[t, 2, 0] = np.inf
        else:
            points[t, b, 0] += 0.25
        points[later, 0, 0] = np.nan
        with pytest.raises(ValueError) as want:
            G.PointConfiguration(3, points[t], tangents[t], {(a + 1, b + 1): dirs[t, r]})
        with pytest.raises(ValueError) as got:
            G._check_boundary_stack(*stack)
        assert str(got.value) == str(want.value)

        def never(*args):
            raise AssertionError("pi_k ran on a stack that fails the check")

        monkeypatch.setattr(G, "_draw_boundary_chunk", lambda rngs, n, m, eps: stack)
        monkeypatch.setattr(G, "_pi_rows", never)
        with pytest.raises(ValueError) as got:
            G.check_insertion_naturality(5, 3, 20, seed=38)
        assert str(got.value) == str(want.value)


class TestStreamPrefixes:
    """The suites read each trial's first uniform draw off a memo of its
    stream's leading random() doubles.  That is exact only while numpy fills
    uniform(-1, 1) as -1 + 2 u from those doubles, in C order; these tests
    pin it on every numpy the package supports."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 2 ** 40 + 3])
    def test_uniform_draw_is_the_random_prefix(self, seed):
        # up to the longest first draw a suite can ask for
        longest = G.MAX_REPORT_POINTS * G.MAX_FOUR_DIM
        shapes = [(1, 1), (3, 2), (6, 3), (8, 5), (G.MAX_REPORT_POINTS, G.MAX_FOUR_DIM)]
        for k in (0, 1, 49, 50, 4999):
            prefix = G._trial_rng(seed, k).random(longest)
            for a, m in shapes:
                want = G._trial_rng(seed, k).uniform(-1.0, 1.0, size=(a, m))
                got = (-1.0 + 2.0 * prefix[:a * m]).reshape(a, m)
                assert got.tobytes() == want.tobytes()

    def test_memo_gives_the_stream_prefix(self, monkeypatch):
        # rows grown in width, cut, grown in trials and in width together:
        # every slice holds each trial's own leading doubles
        monkeypatch.setattr(G, "_PREFIXES", {})
        longest = G.MAX_REPORT_POINTS * G.MAX_FOUR_DIM
        for ks, size in ((range(0, 3), 18), (range(1, 3), 5), (range(0, 3), 40),
                         (range(2, 9), longest), (range(5, 7), 30)):
            got = G._stream_prefixes(3, ks, size)
            assert got.tobytes() == np.stack(
                [G._trial_rng(3, k).random(size) for k in ks]).tobytes()
            with pytest.raises(ValueError):
                got[0, 0] = 0.0
        assert list(G._PREFIXES) == [3] and len(G._PREFIXES[3][0]) == 9
        G._stream_prefixes(4, range(0, 2), 4)
        assert list(G._PREFIXES) == [4] and G._PREFIXES[4][1].shape == (2, 4)

    def test_memo_holds_every_trial_of_the_seed(self, monkeypatch):
        # the suites visit a seed's chunks in turn, so a memo that kept fewer
        # trials than the suite has would rebuild every stream
        monkeypatch.setattr(G, "_PREFIXES", {})
        built, trial_rng = [], G._trial_rng
        monkeypatch.setattr(G, "_trial_rng",
                            lambda seed, k: built.append(k) or trial_rng(seed, k))
        G.membership_trials(6, 3, 2 * G._TRIAL_CHUNK + 3, seed=5)
        G.closure_trials(parse_tree("((* *) (* *) * *)"), 5, 2 * G._TRIAL_CHUNK + 3, seed=5)
        assert built == list(range(2 * G._TRIAL_CHUNK + 3))
        assert len(G._PREFIXES[5][0]) == len(G._PREFIXES[5][1]) == len(built)

    def test_suites_do_not_depend_on_memo_history(self, monkeypatch):
        # a suite run alone gives the bytes it gives after suites of another
        # seed, of another trial count and shorter or longer draws, or of
        # another chunk size
        tree = parse_tree("((* *) (* *) * *)")

        def suite():
            return json.dumps(G.closure_trials(tree, 4, 60, seed=3), sort_keys=True)

        histories = [
            lambda: G.membership_trials(6, 5, 60, seed=4),
            lambda: G.closure_trials(tree, 3, 130, seed=3),
            lambda: G.closure_trials(tree, 5, 17, seed=3),
            lambda: G.membership_trials(5, 3, 2 * G._TRIAL_CHUNK + 3, seed=3),
        ]
        monkeypatch.setattr(G, "_PREFIXES", {})
        alone = suite()
        for before in histories:
            monkeypatch.setattr(G, "_PREFIXES", {})
            before()
            assert suite() == alone
        monkeypatch.setattr(G, "_PREFIXES", {})
        monkeypatch.setattr(G, "_TRIAL_CHUNK", 7)
        G.membership_trials(6, 3, 45, seed=3)
        assert suite() == alone
        monkeypatch.setattr(G, "_TRIAL_CHUNK", 50)
        assert suite() == alone


class TestTrialRunners:
    def test_membership_trials_pass(self):
        rep = G.membership_trials(5, 3, trials=50, seed=35)
        assert rep["passed"] and rep["failed_trials"] == 0
        assert rep["max_residual"] <= 1e-9
        assert rep["trials"] == 50 and rep["seed"] == 35

    def test_impossible_tolerance_reports_failure(self):
        rep = G.membership_trials(4, 3, trials=5, seed=36, tol=1e-22)
        assert not rep["passed"]
        assert rep["failed_trials"] == 5
        assert "first_failure" in rep

    def test_membership_is_closure_on_corolla(self):
        # both samplers run through one driver on the same per-trial streams
        for n, tol in ((5, 1e-9), (4, 1e-22)):
            mem = G.membership_trials(n, 3, trials=12, seed=37, tol=tol)
            clo = G.closure_trials(corolla(n), 3, trials=12, seed=37, tol=tol)
            assert (mem.pop("check"), clo.pop("check"), clo.pop("tree")) == \
                ("membership-trials", "closure-trials", corolla(n).to_text())
            assert mem == clo

    @pytest.mark.parametrize("case", ["chunks", "one-trial", "failing",
                                      "closure", "three-only", "no-checks"])
    def test_suite_outcomes_match_membership_report(self, case, monkeypatch):
        # each trial's chunked sample is, to the bit, the per-trial Gauss map
        # (and composite) of its own stream, and its outcome is that
        # sample's membership report
        n, m, tol, trials = 6, 3, 1e-9, G._TRIAL_CHUNK + 7
        tree = None
        if case == "one-trial":
            n, m, trials = 5, 5, 1
        elif case == "failing":
            n, tol, trials = 4, 1e-22, 12
        elif case == "closure":
            tree, m, trials = parse_tree("((* *) (* *) * *)"), 4, 20
        elif case == "three-only":
            n, m, trials = 3, 2, 20
        elif case == "no-checks":
            tree, trials = corolla(2), 5

        def sample(rng):
            if tree is None:
                return G.gauss_map(_random_points(rng, n, m))
            return G.kontsevich_compose(tree, {
                p: G.gauss_map(_random_points(
                    rng, len(tree.node_at(p)), m))
                for p in tree.vertices() if not tree.is_leaf(p)})

        seen, checked = [], []
        aggregate, check = G._aggregate_trials, G._check_unit_rows

        def spy(name, outcomes, extra):
            seen.append(outcomes)
            return aggregate(name, outcomes, extra)

        def check_spy(rows, *args):
            checked.append(rows.copy())
            return check(rows, *args)

        monkeypatch.setattr(G, "_aggregate_trials", spy)
        monkeypatch.setattr(G, "_check_unit_rows", check_spy)
        if tree is None:
            got = G.membership_trials(n, m, trials, 42, tol)
            extra = {"n": n}
        else:
            got = G.closure_trials(tree, m, trials, 42, tol)
            extra = {"tree": tree.to_text(), "n": tree.leaf_count}
        monkeypatch.setattr(G, "_check_unit_rows", check)
        want, rows = [], []
        for k in range(trials):
            s = sample(G._trial_rng(42, k))
            rep = G.membership_report(s, tol)
            rows.append(s.rows)
            want.append({"trial": k, "passed": rep["passed"],
                         "max_residual": rep["max_residual"]})
        assert [len(c) for c in checked] == \
            [len(range(trials)[lo:lo + G._TRIAL_CHUNK])
             for lo in range(0, trials, G._TRIAL_CHUNK)]
        assert np.concatenate(checked).tobytes() == np.stack(rows).tobytes()
        assert seen == [want]
        assert got == aggregate(got["check"], want,
                                {**extra, "m": m, "tol": tol, "seed": 42})
        if case == "failing":
            assert got["failed_trials"] == trials
            assert got["first_failure"] == want[0]

    @pytest.mark.parametrize("suite", ["membership", "closure"])
    def test_suite_rows_pass_the_unit_check(self, suite, monkeypatch):
        # finite points whose differences overflow give NaN rows, which the
        # stacked unit-norm check rejects as any construction would
        def overflowing(seed, ks, arities, m, min_sep):
            return np.array([[[(-1.0) ** i * 1e308] + [0.5 * i] * (m - 1)
                              for i in range(sum(arities))] for _ in ks])

        monkeypatch.setattr(G, "_draw_points", overflowing)
        with pytest.raises(ValueError, match="non-finite"):
            if suite == "membership":
                G.membership_trials(4, 3, 3, seed=1)
            else:
                G.closure_trials(parse_tree("((* *) * *)"), 3, 3, seed=1)

    @pytest.mark.parametrize("text,m", [("(* * * *)", 3), ("((* *) * *)", 4),
                                        ("((* *) (* *) * *)", 3), ("(* (* * *))", 4)])
    def test_redraw_fallback_matches_per_vertex_draws(self, text, m, monkeypatch):
        # a wide separation rejects many one-draw samples; those trials are
        # drawn again vertex by vertex, so every trial's points are those of
        # per-vertex draws on a fresh stream, and its outcome is the
        # membership report of their composite
        tree, min_sep, seed, trials = parse_tree(text), 0.5, 5, 2 * G._TRIAL_CHUNK + 3
        internal, _ = G._compose_table(tree)
        arities = tuple(tree.arity(p) for p in internal)
        draws = [[G._sample_points(rng, k, m, min_sep) for k in arities]
                 for rng in (G._trial_rng(seed, k) for k in range(trials))]
        got = np.concatenate([G._draw_points(seed, ks, arities, m, min_sep)
                              for ks in G._chunks(trials)])
        assert got.tobytes() == np.stack([np.concatenate(d) for d in draws]).tobytes()
        first = [G._trial_rng(seed, k).uniform(-1.0, 1.0, size=got.shape[1:])
                 for k in range(trials)]
        redrawn = [f.tobytes() != g.tobytes() for f, g in zip(first, got)]
        assert any(redrawn) and not all(redrawn)
        monkeypatch.setattr(G, "MIN_SEP", min_sep)
        outcomes = _suite_outcomes(
            monkeypatch, lambda: G.closure_trials(tree, m, trials, seed=seed))
        want = []
        for k, d in enumerate(draws):
            rep = G.membership_report(G.kontsevich_compose(tree, {
                p: G.gauss_map(G.PointConfiguration(m, pts)) for p, pts in zip(internal, d)}))
            want.append({"trial": k, "passed": rep["passed"],
                         "max_residual": rep["max_residual"]})
        assert outcomes == want

    @pytest.mark.parametrize("n,m,min_sep", [(6, 3, 1e-3), (1, 2, 1e-3),
                                             (0, 4, 1e-3), (5, 1, 0.2),
                                             (6, 2, 0.5)])
    def test_point_draws_match_per_pair_loop(self, n, m, min_sep):
        # the last two reject most draws, so the redraw loop is exercised
        for seed in range(5):
            got = G._sample_points(np.random.default_rng(seed), n, m, min_sep)
            want = _old_point_draw(np.random.default_rng(seed), n, m, min_sep)
            assert got.shape == (n, m) and got.tobytes() == want.tobytes()
            cfg = _random_points(np.random.default_rng(seed), n, m, min_sep)
            assert cfg.points.tobytes() == want.tobytes()

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_sphere_sampler_matches_per_pair_units(self, m):
        # one (C(n, 2), m) normal draw is the C(n, 2) draws of size m in turn
        for n in (0, 2, 5):
            got = _random_sphere(np.random.default_rng(m), n, m)
            rng = np.random.default_rng(m)
            want = [_unit(tuple(rng.standard_normal(m))) for _ in range(n * (n - 1) // 2)]
            assert _hex(got.rows) == _hex(want)

    @pytest.mark.parametrize("text", [t.to_text() for t in cli._geometry_shapes()] + [
        "(((* *) *) (* *))", "((* (* *)) ((* *) * *))", "((((* *) *) *) (* (* *)))"])
    def test_distinct_stacks_match_every_subset(self, text):
        # the battery's shapes and three deeper trees: deciding each distinct
        # edge stack once gives, byte for byte, the report of deciding every
        # loop and 4-subset, on passing and on failing trials (tol 1e-22),
        # across a chunk boundary
        tree = parse_tree(text)
        for m, seed, tol in itertools.product((3, 4, 5), (0, 1, 2), (1e-9, 1e-22)):
            got = G.closure_trials(tree, m, G._TRIAL_CHUNK + 3, seed, tol)
            want = _closure_oracle(tree, m, G._TRIAL_CHUNK + 3, seed, tol)
            assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
            assert got["passed"] == (tol > 1e-20)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_distinct_stacks_match_every_subset_membership(self, n):
        for m, seed, tol in itertools.product((3, 5), (0, 1, 2), (1e-9, 1e-22)):
            got = G.membership_trials(n, m, 20, seed, tol)
            want = _membership_suite_oracle("membership-trials", (n,), slice(None),
                                            n, m, 20, seed, tol, {})
            assert got == want

    def test_four_bounds_before_any_work(self, monkeypatch):
        # both four-consistency bounds count all C(n, 4) subsets, not the
        # distinct stacks (8 of 15 here), and stop a suite before it draws
        # or decides anything
        def never(*args):
            raise AssertionError("a suite worked past a four-consistency bound")

        tree = parse_tree("((* *) (* *) * *)")
        cells = math.comb(6, 4) * math.comb(3 + 2, 3) ** 2
        monkeypatch.setattr(G, "MAX_FOUR_CELLS", cells)
        assert G.closure_trials(tree, 3, 2, seed=1)["passed"]
        for name in ("_draw_points", "_three_residuals", "_four_residuals"):
            monkeypatch.setattr(G, name, never)
        monkeypatch.setattr(G, "MAX_FOUR_CELLS", cells - 1)
        with pytest.raises(BoundExceededError, match="work bound"):
            G.closure_trials(tree, 3, 2, seed=1)
        with pytest.raises(BoundExceededError, match="dimension bound"):
            G.membership_trials(4, G.MAX_FOUR_DIM + 1, 2, seed=1)

    def test_distinct_stack_counts(self):
        # ((* *) (* *) * *): 8 distinct 4-subset stacks of 15, 10 loops of 20;
        # the other n = 4 shapes have one subset and 4, 3, 4, 2, 3 loops
        counts = {}
        for text in ("((* *) (* *) * *)", "(* * * *)", "((* *) * *)", "(* (* * *))",
                     "((* *) (* *))", "(((* *) *) *)"):
            tree = parse_tree(text)
            _, index = G._compose_table(tree)
            n = tree.leaf_count
            counts[text] = tuple(
                len(G._distinct_stacks(index[G._subset_rows(n, k)])) for k in (3, 4))
        assert counts == {"((* *) (* *) * *)": (10, 8), "(* * * *)": (4, 1),
                          "((* *) * *)": (3, 1), "(* (* * *))": (4, 1),
                          "((* *) (* *))": (2, 1), "(((* *) *) *)": (3, 1)}

    def test_closure_trials_record_tree(self):
        t = parse_tree("((* *) * *)")
        rep = G.closure_trials(t, 3, trials=30, seed=38)
        assert rep["passed"]
        assert rep["tree"] == "((* *) * *)"

    def test_disk_sampler_always_valid(self):
        rng = np.random.default_rng(39)
        for _ in range(50):
            _random_disks(rng, int(rng.integers(1, 5)), 3)

    def test_boundary_sampler_feeds_projection(self):
        rng = np.random.default_rng(40)
        for n in (1, 2, 5):
            c = G.random_boundary_configuration(rng, n, 3)
            _pi(c)
