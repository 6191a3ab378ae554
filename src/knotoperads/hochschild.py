"""Exact cochain complexes over the bracket-operad levels.

C^{p,q} is the degree-q slice of the arity-p entries, and the differential
is the alternating coface sum d = sum_{i=0}^{p+1} (-1)^i d^i -- the index
range under which the complex squares to zero.  Each column is
``poisson.coface_sum`` of one basis monomial: integer coefficients from the
substitution kernel behind ``poisson.circ_monomials``.  The normalized
complex drops monomials with a singleton block; the fact that makes this the
exact codegeneracy kernel is proven once per level and process with
``poisson.codegeneracy_monomial``.

All linear algebra is exact.  ``eliminate_units`` pivots on the +-1 entries
first (unimodular steps: the shortest column with a unit, at its unit in the
shortest row), so A ~ diag(I_r, S) with a small leftover block S.  Ranks are
r plus fraction-free (Bareiss) elimination on S; invariant factors are r ones
plus the Smith normal form of S, checked against its transformation
certificates.  Unimodular steps keep rank and invariant factors, so neither
depends on the pivot order; S does.  Torsion of HH^{p,q} is read off
the incoming differential alone, because the kernel of the outgoing one is
saturated (see ``cohomology``).  The dense ``rank_int`` and
``smith_normal_form`` stay the test oracle on whole matrices.
"""

from __future__ import annotations

import csv
import heapq
import io
import time
from dataclasses import dataclass, field
from functools import lru_cache

from . import poisson
from .errors import BoundExceededError

#: levels above this need an explicit opt-in (basis sizes grow like p!)
MAX_LEVEL_BOUND = 7


# -- sparse integer matrices ------------------------------------------------------


class IntMatrix:
    """Column-sparse exact integer matrix; column c is a {row: value} dict."""

    def __init__(self, rows: int, cols: int):
        self.rows = rows
        self.cols = cols
        self.col: list[dict[int, int]] = [{} for _ in range(cols)]

    def set(self, r: int, c: int, v: int) -> None:
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError((r, c))
        if v:
            self.col[c][r] = v
        else:
            self.col[c].pop(r, None)

    def compose(self, other: "IntMatrix") -> "IntMatrix":
        """Matrix product self @ other (other applied first)."""
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.cols} != {other.rows}")
        out = IntMatrix(self.rows, other.cols)
        for c, vec in enumerate(other.col):
            acc: dict[int, int] = {}
            for mid, v in vec.items():
                for r, w in self.col[mid].items():
                    acc[r] = acc.get(r, 0) + v * w
            out.col[c] = {r: v for r, v in acc.items() if v}
        return out

    def is_zero(self) -> bool:
        return all(not c for c in self.col)

    def to_dense(self) -> list[list[int]]:
        dense = [[0] * self.cols for _ in range(self.rows)]
        for c, vec in enumerate(self.col):
            for r, v in vec.items():
                dense[r][c] = v
        return dense


def matmul_int(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    bw = len(b[0]) if b else 0
    out = [[0] * bw for _ in a]
    for i, arow in enumerate(a):
        orow = out[i]
        for k, v in enumerate(arow):
            if v:
                brow = b[k]
                for j in range(bw):
                    orow[j] += v * brow[j]
    return out


def _identity(k: int) -> list[list[int]]:
    return [[int(i == j) for j in range(k)] for i in range(k)]


def rank_int(dense: list[list[int]]) -> int:
    """Rank over the rationals by fraction-free (Bareiss) elimination."""
    m = [row[:] for row in dense]
    nr = len(m)
    nc = len(m[0]) if m else 0
    rank, prev = 0, 1
    for c in range(nc):
        piv = next((r for r in range(rank, nr) if m[r][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        p = m[rank][c]
        top = m[rank]
        for r in range(rank + 1, nr):
            row, head = m[r], m[r][c]
            for j in range(c + 1, nc):
                row[j] = (row[j] * p - head * top[j]) // prev
            row[c] = 0
        prev = p
        rank += 1
        if rank == nr:
            break
    return rank


# -- Smith normal form -------------------------------------------------------------


@dataclass(frozen=True)
class SmithForm:
    """Invariant factors with full transformation certificates.

    U @ A @ V is diagonal with ``factors`` on the diagonal (then zeros);
    Uinv and Vinv witness unimodularity by exact multiplication.
    """

    factors: tuple[int, ...]
    U: tuple[tuple[int, ...], ...]
    V: tuple[tuple[int, ...], ...]
    Uinv: tuple[tuple[int, ...], ...]
    Vinv: tuple[tuple[int, ...], ...]


def smith_normal_form(dense: list[list[int]]) -> SmithForm:
    """Diagonalize an integer matrix by unimodular row/column operations.

    Pivots are chosen smallest-in-magnitude; a pivot is only finalized once
    it divides every entry of the remaining submatrix, so the diagonal comes
    out in divisibility order d1 | d2 | ...
    """
    a = [list(map(int, row)) for row in dense]
    nr = len(a)
    nc = len(a[0]) if a else 0
    if any(len(row) != nc for row in a):
        raise ValueError("ragged matrix")
    U, Uinv = _identity(nr), _identity(nr)
    V, Vinv = _identity(nc), _identity(nc)
    t = 0
    while True:
        piv = None
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                v = abs(a[i][j])
                if v and (best is None or v < best):
                    piv, best = (i, j), v
        if piv is None:
            break
        i, j = piv
        if i != t:
            a[t], a[i] = a[i], a[t]
            U[t], U[i] = U[i], U[t]
            for row in Uinv:
                row[t], row[i] = row[i], row[t]
        if j != t:
            for row in a:
                row[t], row[j] = row[j], row[t]
            for row in V:
                row[t], row[j] = row[j], row[t]
            Vinv[t], Vinv[j] = Vinv[j], Vinv[t]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            U[t] = [-x for x in U[t]]
            for row in Uinv:
                row[t] = -row[t]
        p = a[t][t]
        dirty = False
        for r in range(t + 1, nr):
            if a[r][t]:
                q = a[r][t] // p
                if q:
                    a[r] = [x - q * y for x, y in zip(a[r], a[t])]
                    U[r] = [x - q * y for x, y in zip(U[r], U[t])]
                    for row in Uinv:
                        row[t] += q * row[r]
                if a[r][t]:
                    dirty = True
        for c in range(t + 1, nc):
            if a[t][c]:
                q = a[t][c] // p
                if q:
                    for row in a:
                        row[c] -= q * row[t]
                    for row in V:
                        row[c] -= q * row[t]
                    Vinv[t] = [x + q * y for x, y in zip(Vinv[t], Vinv[c])]
                if a[t][c]:
                    dirty = True
        if dirty:
            continue  # a remainder became the new smallest entry
        off = next((i2 for i2 in range(t + 1, nr)
                    for j2 in range(t + 1, nc) if a[i2][j2] % p), None)
        if off is not None:
            # pull a non-divisible entry into the pivot row and repeat
            a[t] = [x + y for x, y in zip(a[t], a[off])]
            U[t] = [x + y for x, y in zip(U[t], U[off])]
            for row in Uinv:
                row[off] -= row[t]
            continue
        t += 1
    factors = tuple(a[k][k] for k in range(min(nr, nc)) if a[k][k])

    def frz(m):
        return tuple(tuple(row) for row in m)

    return SmithForm(factors, frz(U), frz(V), frz(Uinv), frz(Vinv))


# -- sparse unit-pivot elimination -------------------------------------------------


def eliminate_units(m: IntMatrix) -> tuple[int, list[list[int]]]:
    """Eliminate on +-1 pivots: A ~ diag(I_r, S) by unimodular operations.

    Returns r and the leftover block S, dense and without its zero rows and
    columns.  Each step pivots on the shortest live column that has a unit
    entry, at its unit in the row with the fewest live entries (ties by
    column, then row index), clears the pivot row by column operations
    (integral, since the pivot is its own inverse) and drops its row and
    column; what is left of the other columns is the Schur complement.
    Columns wait in a heap keyed by (length, index): a popped column without
    a unit leaves it, and a column goes back in whenever an update changes
    it, the only way it can gain a unit.  So no step scans the live columns.

    Any sequence of unimodular steps gives the same rank and invariant
    factors, so r + rank(S) and the factors of diag(I_r, S) do not depend on
    the pivot order; S itself does.  A matrix without a unit entry comes
    back whole.
    """
    cols = {c: dict(vec) for c, vec in enumerate(m.col) if vec}
    rows: dict[int, set[int]] = {}
    for c, vec in cols.items():
        for r in vec:
            rows.setdefault(r, set()).add(c)
    heap = [(len(vec), c) for c, vec in cols.items()]
    heapq.heapify(heap)
    units = 0
    while heap:
        length, pcol = heapq.heappop(heap)
        pivot = cols.get(pcol)
        if pivot is None or len(pivot) != length:
            continue  # eliminated, or queued again at its new length
        cands = [(len(rows[r]), r) for r, v in pivot.items()
                 if v == 1 or v == -1]
        if not cands:
            continue
        prow = min(cands)[1]
        del cols[pcol]
        u = pivot.pop(prow)
        for r in pivot:
            rows[r].discard(pcol)
        others = rows.pop(prow)
        others.discard(pcol)
        for c in others:
            vec = cols[c]
            f = vec.pop(prow) * u
            for r, v in pivot.items():
                nv = vec.get(r, 0) - f * v
                if nv:
                    if r not in vec:
                        rows[r].add(c)
                    vec[r] = nv
                else:
                    del vec[r]
                    rows[r].discard(c)
            if vec:
                heapq.heappush(heap, (len(vec), c))
            else:
                del cols[c]
        units += 1
    live = sorted({r for vec in cols.values() for r in vec})
    where = {r: i for i, r in enumerate(live)}
    block = [[0] * len(cols) for _ in live]
    for j, c in enumerate(sorted(cols)):
        for r, v in cols[c].items():
            block[where[r]][j] = v
    return units, block


def _unit_rank(units: int, block: list[list[int]]) -> int:
    """Rank over the rationals of a matrix from its :func:`eliminate_units`
    result: the unit pivots plus Bareiss on the leftover block."""
    return units + rank_int(block)


def _unit_factors(units: int, block: list[list[int]]) -> tuple[int, ...]:
    """Nonzero invariant factors of a matrix from its
    :func:`eliminate_units` result: one per unit pivot, then the certified
    Smith form of the leftover block."""
    s = smith_normal_form(block)
    if not snf_is_valid(block, s):
        raise AssertionError("invalid Smith certificates for the leftover "
                             "block")
    return (1,) * units + s.factors


def snf_is_valid(dense: list[list[int]], s: SmithForm) -> bool:
    """Exact certificate check: U A V diagonal, inverses multiply to I,
    factors positive in a divisibility chain."""
    nr = len(dense)
    nc = len(dense[0]) if dense else 0
    U, V = [list(r) for r in s.U], [list(r) for r in s.V]
    Uinv, Vinv = [list(r) for r in s.Uinv], [list(r) for r in s.Vinv]
    if matmul_int(U, Uinv) != _identity(nr):
        return False
    if matmul_int(V, Vinv) != _identity(nc):
        return False
    d = matmul_int(matmul_int(U, [list(r) for r in dense]), V) if nr and nc \
        else [[0] * nc for _ in range(nr)]
    want = [[0] * nc for _ in range(nr)]
    for k, f in enumerate(s.factors):
        want[k][k] = f
    if d != want:
        return False
    if any(f <= 0 for f in s.factors):
        return False
    return all(b % a == 0 for a, b in zip(s.factors, s.factors[1:]))


# -- the cochain complex -----------------------------------------------------------


@dataclass
class CochainComplex:
    """Bigraded integer cochain complex.

    ``basis[(p, q)]`` is the ordered monomial basis of C^{p,q} and
    ``diff[(p, q)]`` the matrix of d: C^{p,q} -> C^{p+1,q} over it.  The
    differential dict covers every populated slice with p < max_p.
    """

    n: int
    max_p: int
    normalized: bool
    basis: dict = field(repr=False)
    diff: dict = field(repr=False)
    seconds: dict = field(default_factory=dict, repr=False)

    def dim(self, p: int, q: int) -> int:
        return len(self.basis.get((p, q), ()))

    def q_values(self, p: int) -> list[int]:
        return sorted(q for (pp, q) in self.basis if pp == p)

    def bidegrees(self) -> list[tuple[int, int]]:
        return sorted(self.basis)


def _level_monomials(n: int, p: int, normalized: bool):
    if not normalized:
        return poisson.basis(n, p)
    return _assert_codegeneracy_kernel_structure(p)


@lru_cache(maxsize=None)
def _assert_codegeneracy_kernel_structure(p: int) -> tuple:
    """The basis monomials of level p without a singleton block, in basis
    order, proven to span the exact kernel of all codegeneracies.

    ``poisson.codegeneracy_monomial(i, m)`` is None exactly when (i,) is not
    a block of m, and else one monomial with coefficient one.  So one pass
    keeps the monomials without a singleton block, which every s^i kills,
    and applies s^i only where (i,) is a block (p! calls).  If every image
    is a basis monomial of level p - 1 and each s^i is injective on the
    monomials it does not kill, a combination lies in every kernel iff it is
    supported on the kept monomials, so the intersection is exact.  A
    codegeneracy deletes a singleton block, which leaves p - b (b blocks)
    and so q = (p - b) n unchanged: the argument holds slice by slice.

    Neither the basis nor a codegeneracy reads the bracket degree, so the
    proof depends on p alone and runs once per level and process (a failed
    proof raises, is not cached, and so fails again on the next call).
    """
    n = 2  # any bracket degree: the proof does not depend on it
    kept, by_leaf = [], [[] for _ in range(p + 1)]
    for m in poisson.basis(n, p):
        single = False
        for w in m:
            if len(w) == 1:
                by_leaf[w[0]].append(m)
                single = True
        if not single:
            kept.append(m)
    below = set(poisson.basis(n, max(p - 1, 0)))
    for i in range(1, p + 1):
        images = [poisson.codegeneracy_monomial(i, m) for m in by_leaf[i]]
        if len(set(images)) < len(images) or not below.issuperset(images):
            raise AssertionError(f"codegeneracy {i} at p={p} is not a "
                                 "partial bijection onto basis monomials")
    return tuple(kept)


def build_complex(n: int, max_p: int, normalized: bool = True,
                  level_bound: int = MAX_LEVEL_BOUND) -> CochainComplex:
    """Assemble bases and differentials for levels p <= max_p.

    Normalized slices keep only monomials in the kernel of every
    codegeneracy (no single-variable block); the restricted differential is
    checked to land back in that span.  Each term is looked up in the index
    of slice (p + 1, q), so only a term missing there has its degree
    checked.  ``seconds`` times the levels (with their proof) and assembly.
    """
    if max_p < 0:
        raise ValueError("max_p must be non-negative")
    if max_p > level_bound:
        raise BoundExceededError(
            f"max_p={max_p} exceeds the level bound {level_bound}")
    t0 = time.perf_counter()
    basis: dict = {}
    for p in range(max_p + 1):
        for m in _level_monomials(n, p, normalized):  # arity p, len(m) blocks
            basis.setdefault((p, (p - len(m)) * n), []).append(m)
    t1 = time.perf_counter()
    diff: dict = {}
    for p in range(max_p):
        idx = {q: {m: i for i, m in enumerate(mons)}
               for (pp, q), mons in basis.items() if pp == p + 1}
        for (pp, q), mons in basis.items():
            if pp != p:
                continue
            mat = IntMatrix(len(basis.get((p + 1, q), ())), len(mons))
            tmap = idx.get(q, {})
            for j, m in enumerate(mons):
                col = poisson.coface_sum(n, m)
                try:
                    mat.col[j] = {tmap[tm]: cv for tm, cv in col.items()}
                except KeyError:  # the first term not indexed decides
                    tm = next(tm for tm in col if tm not in tmap)
                    if poisson.monomial_degree(tm, n) != q:
                        raise AssertionError("coface changed the degree") from None
                    if normalized:
                        raise AssertionError("differential leaves the normalized "
                                             f"span at p={p}, q={q}") from None
                    raise AssertionError("target monomial missing") from None
            diff[(p, q)] = mat
    return CochainComplex(n, max_p, normalized, basis, diff, {
        "levels_s": t1 - t0, "assembly_s": time.perf_counter() - t1})


# -- cohomology -------------------------------------------------------------------


def _differential(c: CochainComplex, p: int, q: int) -> IntMatrix:
    """d: C^{p,q} -> C^{p+1,q}, the zero map where no matrix is stored."""
    mat = c.diff.get((p, q))
    if mat is None:
        mat = IntMatrix(c.dim(p + 1, q), c.dim(p, q))
    return mat


def cohomology(c: CochainComplex, p: int, q: int,
               coefficients: str = "rational"):
    """Rank of HH^{p,q}; with integral coefficients also the torsion factors.

    Returns an int for rational coefficients and (rank, torsion-tuple) for
    integral ones.  Needs both adjacent differentials, so p < max_p.

    The rank is dim - rk d_out - rk d_in.  ker d_out is saturated, so
    Z^dim / ker d_out is free and Z^dim / im d_in = ker/im + (a free
    group); the torsion is therefore the invariant factors > 1 of d_in.
    """
    if not 0 <= p < c.max_p:
        raise ValueError(f"bidegree p={p} outside built range "
                         f"0..{c.max_p - 1}")
    if coefficients not in ("rational", "integral"):
        raise ValueError(f"unknown coefficients {coefficients!r}")
    return _cohomology(c, p, q, coefficients, {})


def _cohomology(c: CochainComplex, p: int, q: int, coefficients: str,
                eliminated: dict):
    """:func:`cohomology` on checked arguments.  ``eliminated`` maps the
    bidegree of a differential to its :func:`eliminate_units` result, so a
    table that shares it eliminates each differential once: d_out at p is
    d_in at p + 1.  The ranks (Bareiss) and the invariant factors (Smith)
    are read off the small leftover blocks."""
    def reduced(pp: int) -> tuple[int, list[list[int]]]:
        if (pp, q) not in eliminated:
            eliminated[pp, q] = eliminate_units(_differential(c, pp, q))
        return eliminated[pp, q]

    rank = c.dim(p, q) - _unit_rank(*reduced(p))
    if coefficients == "rational":
        return rank - _unit_rank(*reduced(p - 1))
    if not _differential(c, p, q).compose(_differential(c, p - 1, q)).is_zero():
        raise AssertionError("incoming image is not a cocycle")
    factors = _unit_factors(*reduced(p - 1))
    return rank - len(factors), tuple(f for f in factors if f != 1)


# -- tables -----------------------------------------------------------------------


@dataclass(frozen=True)
class HHEntry:
    p: int
    q: int
    dim: int
    rank: int
    torsion: tuple | None
    seconds: float

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("negative rank")
        if self.torsion is not None:
            chain = all(b % a == 0
                        for a, b in zip(self.torsion, self.torsion[1:]))
            if not chain or any(f < 2 for f in self.torsion):
                raise ValueError(f"bad torsion chain {self.torsion}")


@dataclass
class CohomologyTable:
    n: int
    max_p: int
    normalized: bool
    coefficients: str
    entries: list
    stages: dict = field(default_factory=dict)

    def entry(self, p: int, q: int):
        return next((e for e in self.entries if (e.p, e.q) == (p, q)), None)

    def to_json_obj(self, timings: bool = False) -> dict:
        out = []
        for e in sorted(self.entries, key=lambda e: (e.p, e.q)):
            rec = {"p": e.p, "q": e.q, "dim": e.dim, "rank": e.rank}
            if e.torsion is not None:
                rec["torsion"] = list(e.torsion)
            if timings:
                rec["seconds"] = round(e.seconds, 6)
            out.append(rec)
        obj = {"n": self.n, "max_p": self.max_p,
               "normalized": self.normalized,
               "coefficients": self.coefficients, "entries": out}
        if timings:
            obj["stages"] = self.stages
        return obj

    def to_csv(self) -> str:
        """Rows are q, columns p; cells are rank or rank;f1,f2,..."""
        buf = io.StringIO()
        writer = csv.writer(buf)
        ps = list(range(self.max_p))
        writer.writerow(["q\\p"] + ps)
        cells = {(e.p, e.q): e for e in self.entries}
        for q in sorted({e.q for e in self.entries}):
            row = [q]
            for p in ps:
                e = cells.get((p, q))
                if e is None:
                    row.append("")
                elif e.torsion:
                    row.append(f"{e.rank};{','.join(map(str, e.torsion))}")
                else:
                    row.append(str(e.rank))
            writer.writerow(row)
        return buf.getvalue()


def hh_table(n: int, max_p: int, coefficients: str = "rational",
             normalized: bool = True,
             level_bound: int = MAX_LEVEL_BOUND) -> CohomologyTable:
    """Cohomology over every computable interior bidegree p < max_p, each
    differential eliminated once (see :func:`_cohomology`).  ``stages`` has
    the seconds per stage and each eliminated differential's shape, nonzeros,
    unit pivots and leftover block."""
    if max_p < 2:
        raise ValueError("max_p must be at least 2")
    if coefficients not in ("rational", "integral"):
        raise ValueError(f"unknown coefficients {coefficients!r}")
    c = build_complex(n, max_p, normalized, level_bound)
    entries, eliminated = [], {}
    for p in range(max_p):
        for q in c.q_values(p):
            t0 = time.perf_counter()
            if coefficients == "integral":
                rank, tors = _cohomology(c, p, q, "integral", eliminated)
            else:
                rank, tors = _cohomology(c, p, q, coefficients, eliminated), None
            entries.append(HHEntry(p, q, c.dim(p, q), rank, tors,
                                   time.perf_counter() - t0))
    seconds = dict(c.seconds, elimination_s=sum(e.seconds for e in entries))
    stages = {stage: round(s, 6) for stage, s in seconds.items()}
    stages["differentials"] = [
        {"p": p, "q": q, "rows": d.rows, "cols": d.cols,
         "nnz": sum(map(len, d.col)), "unit_pivots": units,
         "leftover": [len(block), len(block[0]) if block else 0]}
        for (p, q), (units, block) in sorted(eliminated.items()) if p >= 0
        for d in [_differential(c, p, q)]]
    return CohomologyTable(n, max_p, normalized, coefficients, entries, stages)
