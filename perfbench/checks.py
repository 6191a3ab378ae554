"""Output checks computed apart from the program under test.

Every check takes a CLI artifact (the parsed JSON) and returns a list of
problems; an empty list means the artifact is correct.  The expected values
come from counting and elimination written here, not from the library's own
rank, Smith-form or normal-form code:

- dimensions count weighted set partitions (no library call);
- ranks come from elimination modulo a large prime on the differentials
  that ``hochschild.build_complex`` assembles;
- torsion is confirmed through the universal coefficient theorem from
  ranks modulo small primes;
- the n = 3 diagonal is compared with Bar-Natan's chord-diagram counts.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial

#: a Mersenne prime: rank over F_P equals rank over Q unless P divides a
#: minor, which no integer matrix here can make happen by chance
BIG_PRIME = (1 << 61) - 1

#: dim A(k), chord diagrams modulo the 4T and 1T relations, k = 0..6
#: (Bar-Natan, "On the Vassiliev knot invariants", Topology 34, 1995)
BAR_NATAN_DIMS = (1, 0, 1, 1, 3, 4, 9)

#: primes always probed for torsion, besides those dividing a reported factor
SMALL_PRIMES = (2, 3)


# -- dimensions ---------------------------------------------------------------


@lru_cache(maxsize=None)
def _weighted_partitions(m: int, k: int) -> int:
    """Partitions of an m-set into k blocks of size >= 2, a block of size b
    weighted by (b-1)!, the number of normal bracket words on it.

    Recursion on the block holding the smallest element."""
    if m == 0:
        return 1 if k == 0 else 0
    if k == 0:
        return 0
    return sum(comb(m - 1, b - 1) * factorial(b - 1)
               * _weighted_partitions(m - b, k - 1)
               for b in range(2, m + 1))


def normalized_dims(n: int, p: int) -> dict:
    """{q: dim C^{p,q}} for the normalized complex: q = (p - #blocks) n."""
    out = {}
    for k in range(p // 2 + 1):
        count = _weighted_partitions(p, k)
        if count:
            out[(p - k) * n] = count
    return out


# -- exact ranks modulo a prime ----------------------------------------------


def _columns(matrix) -> list:
    """Columns as {row: value} dicts from the complex's matrix type."""
    if hasattr(matrix, "col"):
        return matrix.col
    dense = matrix.to_dense()
    ncols = len(dense[0]) if dense else 0
    return [{r: row[c] for r, row in enumerate(dense) if row[c]}
            for c in range(ncols)]


def rank_mod(columns, prime: int) -> int:
    """Rank over F_prime by sparse column elimination.

    Each pivot column is stored normalized at its largest row, so reducing
    against it only touches smaller rows and the leading row strictly
    drops until the column vanishes or finds a free pivot."""
    pivots: dict = {}
    for col in columns:
        v = {r: x % prime for r, x in col.items() if x % prime}
        while v:
            lead = max(v)
            piv = pivots.get(lead)
            if piv is None:
                inv = pow(v[lead], -1, prime)
                pivots[lead] = {r: x * inv % prime for r, x in v.items()}
                break
            f = v[lead]
            for r, x in piv.items():
                y = (v.get(r, 0) - f * x) % prime
                if y:
                    v[r] = y
                else:
                    v.pop(r, None)
    return len(pivots)


class ComplexFacts:
    """Dimensions and mod-prime cohomology of one normalized complex."""

    def __init__(self, n: int, max_p: int, diff: dict):
        self.n = n
        self.max_p = max_p
        self.dims = {(p, q): d for p in range(max_p + 1)
                     for q, d in normalized_dims(n, p).items()}
        self._diff = {key: _columns(mat) for key, mat in diff.items()}
        self._ranks: dict = {}

    def rank(self, p: int, q: int, prime: int) -> int:
        key = (p, q, prime)
        if key not in self._ranks:
            cols = self._diff.get((p, q))
            self._ranks[key] = rank_mod(cols, prime) if cols else 0
        return self._ranks[key]

    def betti(self, p: int, q: int, prime: int = BIG_PRIME) -> int:
        """dim H^{p,q}(C (x) F_prime), for p < max_p."""
        return (self.dims.get((p, q), 0) - self.rank(p, q, prime)
                - (self.rank(p - 1, q, prime) if p else 0))


def complex_facts(n: int, max_p: int) -> ComplexFacts:
    """Build the program's normalized complex and wrap it for checking."""
    from knotoperads import hochschild
    c = hochschild.build_complex(n, max_p, normalized=True)
    return ComplexFacts(n, max_p, c.diff)


# -- hh tables ---------------------------------------------------------------


def _prime_factors(x: int) -> set:
    out, d = set(), 2
    while d * d <= x:
        while x % d == 0:
            out.add(d)
            x //= d
        d += 1
    if x > 1:
        out.add(x)
    return out


def check_hh(artifact: dict, facts: ComplexFacts) -> list:
    res = artifact.get("results", {})
    problems = []
    n, max_p = facts.n, facts.max_p
    if (res.get("n"), res.get("max_p"), res.get("normalized")) != (n, max_p, True):
        return [f"hh header {res.get('n')}/{res.get('max_p')}/"
                f"{res.get('normalized')} != {n}/{max_p}/True"]
    integral = res.get("coefficients") == "integral"
    entries = {(e["p"], e["q"]): e for e in res.get("entries", [])}
    want = {key for key, d in facts.dims.items() if key[0] < max_p and d}
    if set(entries) != want:
        problems.append(f"bidegrees differ: missing {sorted(want - set(entries))}"
                        f", extra {sorted(set(entries) - want)}")
    for (p, q), e in sorted(entries.items()):
        if e["dim"] != facts.dims.get((p, q), 0):
            problems.append(f"dim({p},{q}) = {e['dim']}, "
                            f"count gives {facts.dims.get((p, q), 0)}")
        if e["rank"] != facts.betti(p, q):
            problems.append(f"rank({p},{q}) = {e['rank']}, elimination mod "
                            f"2^61-1 gives {facts.betti(p, q)}")
        if integral != ("torsion" in e):
            problems.append(f"torsion field at ({p},{q}) does not match "
                            f"the coefficients")
    # Euler characteristic on every q slice lying wholly below max_p
    for q in sorted({q for (_, q) in facts.dims}):
        support = [p for (p, qq), d in facts.dims.items() if qq == q and d]
        if max(support) >= max_p:
            continue
        chi_rank = sum((-1) ** p * entries[(p, q)]["rank"]
                       for p in support if (p, q) in entries)
        chi_dim = sum((-1) ** p * facts.dims[(p, q)] for p in support)
        if chi_rank != chi_dim:
            problems.append(f"Euler characteristic at q={q}: ranks give "
                            f"{chi_rank}, dimensions give {chi_dim}")
    # the n = 3 diagonal against chord diagrams: dim A(k) + dim A(k-1)
    if n == 3:
        for k in range(1, len(BAR_NATAN_DIMS)):
            if 2 * k >= max_p:
                break
            e = entries.get((2 * k, 3 * k))
            want_rank = BAR_NATAN_DIMS[k] + BAR_NATAN_DIMS[k - 1]
            if e is None or e["rank"] != want_rank:
                problems.append(f"diagonal k={k}: rank "
                                f"{None if e is None else e['rank']}, "
                                f"Bar-Natan gives {want_rank}")
    if integral:
        problems += _check_torsion(entries, facts)
    return problems


def _check_torsion(entries: dict, facts: ComplexFacts) -> list:
    """Universal coefficients: dim H^p(C (x) F_l) = rank H^p + t_l(H^p)
    + t_l(H^{p+1}), t_l counting factors divisible by l.  Checked wherever
    H^{p+1} is in the table, i.e. p + 1 < max_p."""
    problems = []
    primes = set(SMALL_PRIMES)
    for e in entries.values():
        tors = e.get("torsion") or []
        if any(f < 2 for f in tors) or any(b % a for a, b in zip(tors, tors[1:])):
            problems.append(f"bad torsion chain {tors} at ({e['p']},{e['q']})")
        for f in tors:
            primes |= _prime_factors(f)

    def t(p, q, ell):
        e = entries.get((p, q))
        return sum(1 for f in (e.get("torsion") or []) if f % ell == 0) if e else 0

    for (p, q), e in sorted(entries.items()):
        if p + 1 >= facts.max_p:
            continue
        for ell in sorted(primes):
            got = facts.betti(p, q, ell)
            want = e["rank"] + t(p, q, ell) + t(p + 1, q, ell)
            if got != want:
                problems.append(f"dim H^({p},{q})(F_{ell}) = {got}, the table "
                                f"implies {want}")
    return problems


# -- verification suites ------------------------------------------------------


def _reports(obj):
    """Every check report (name/passed/checks/failures) inside an artifact."""
    if isinstance(obj, dict):
        if {"name", "passed", "checks", "failures"} <= set(obj):
            yield obj
        for v in obj.values():
            yield from _reports(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _reports(v)


def check_verify(artifact: dict, params: dict) -> list:
    """Passed, no failure recorded anywhere, parameters as requested."""
    problems = []
    res = artifact.get("results", {})
    got = artifact.get("parameters", {})
    for key, val in params.items():
        if got.get(key) != val:
            problems.append(f"parameter {key} = {got.get(key)!r}, requested {val!r}")
    if res.get("passed") is not True:
        problems.append(f"{artifact.get('command')}: passed is not true")
    for rep in _reports(res):
        if rep["failures"] or rep["passed"] is not True or rep["checks"] < 1:
            problems.append(f"report {rep['name']}: {rep['checks']} checks, "
                            f"{len(rep['failures'])} failures")
    return problems


def check_geometry(artifact: dict, trials: int, seed: int) -> list:
    """The geometry battery: every suite ran the requested trials, none failed."""
    problems = check_verify(artifact, {"trials": trials, "seed": seed})
    res = artifact.get("results", {})
    suites = res.get("membership_and_closure", [])
    disks = res.get("disks", [])
    if len(suites) != 21 or len(disks) != 2 or len(res.get("naturality", [])) != 7:
        problems.append(f"battery shape {len(suites)}/{len(disks)}/"
                        f"{len(res.get('naturality', []))} != 21/2/7")
    for suite, want in [(s, trials) for s in suites] + \
                        [(d, min(trials, 100)) for d in disks]:
        if suite.get("trials") != want:
            problems.append(f"{suite.get('check')}: {suite.get('trials')} "
                            f"trials, requested {want}")
        if suite.get("failed_trials") != 0 or suite.get("passed") is not True:
            problems.append(f"{suite.get('check')}: "
                            f"{suite.get('failed_trials')} failed trials")
    return problems


def count_trials(artifact: dict) -> int:
    res = artifact.get("results", {})
    return sum(s.get("trials", 0) for key in ("membership_and_closure", "disks")
               for s in res.get(key, []))


def count_checks(artifact: dict) -> int:
    return sum(rep["checks"] for rep in _reports(artifact.get("results", {})))


# -- negative controls --------------------------------------------------------


def generic_sphere_configuration(seed: int, n: int = 6, m: int = 3) -> dict:
    """Independent uniform unit vectors: generically outside the
    compactified configuration space (four-consistency fails)."""
    import numpy as np
    rng = np.random.default_rng([seed, 0x5EED])
    u = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            v = rng.standard_normal(m)
            u[f"{i},{j}"] = (v / np.linalg.norm(v)).tolist()
    return {"m": m, "n": n, "u": u}


def flipped_poisson(n: int):
    """A Poisson operad whose compositions into a binary operation's first
    slot carry the wrong sign; the axiom checker must reject it."""
    from knotoperads.poisson import PoissonOperad

    class FlippedPoisson(PoissonOperad):
        def circ(self, a, i, b):
            out = super().circ(a, i, b)
            return out.scale(-1) if i == 1 and a.arity == 2 else out

    return FlippedPoisson(n)
