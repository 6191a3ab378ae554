"""Non-symmetric operads, their cosimplicial objects and the exhaustive
checks of both.

An operad instance assigns a finite element list to each arity, a partial
composition ``circ(x, i, y)`` plugging y into the i-th slot of x (slots are
1-based), a unit in arity 1, and optionally a multiplication in arity 2.
The structure map of a tree contraction is a composite of ``circ``s, so the
unit, sequential and parallel laws checked here make every contraction
order agree.

An operad with multiplication yields a cosimplicial object: level n is the
arity-n entry, cofaces insert the multiplication, codegeneracies contract a
leaf.  Some operads live in the opposite category of finite pointed sets;
their structure maps are stored as honest functions in the target-to-source
direction, and their cosimplicial object is flagged with
``direction = "backward"``.  The one place the
resulting composition reversal is applied is :func:`_composite_table`.

A linear operad may fill the optional hook ``coordinates(x)``, which maps an
element to ``{basis key: exact coefficient}`` over its entry basis.  The
checks then apply ``circ`` and the codegeneracies only to basis elements,
once per basis input and arrow (or basis pair and slot), and extend those
tables (bi)linearly with dict sums; every table entry still comes from the
operad's own maps.  Each check wraps the hook once (:func:`_interned`) so
that its basis keys become small ints, numbered as first seen: the basis
handles, the tables and every dict a law or identity compares are keyed by
those ints, and no lookup hashes a hook key again.  A table maps each basis
key to its image and holds nonzero images only: a missing key is the zero
vector.  Table images are shared, never copied or mutated, so a one-term
input (the common case: a basis element, or a one-term column of a
composite) reads its image straight from the table.  The operad laws hold
basis elements by their keys and compose through three maps: basis ∘
basis, one table read, and value ∘ basis and basis ∘ value, the linear
extensions, where a value is a composite in coordinates.  A failed check
rebuilds its witness from the elements, so the report does not depend on
which path ran.  Operads without the hook (``coordinates = None``) are
checked on their elements, through the same law loop with ``circ`` as all
three maps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

Arrow = Callable


@dataclass
class CheckReport:
    """Outcome of an exhaustive property check."""

    name: str
    checks: int = 0
    failures: list = field(default_factory=list)
    max_failures: int = 20

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, ok: bool, witness=None) -> None:
        self.checks += 1
        if not ok and len(self.failures) < self.max_failures:
            self.failures.append(witness)

    def merge(self, other: "CheckReport") -> None:
        self.checks += other.checks
        self.failures.extend(other.failures[: self.max_failures - len(self.failures)])

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "checks": self.checks,
            "failures": [repr(w) if not isinstance(w, (dict, str)) else w
                         for w in self.failures],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)


class OperadInstance:
    """Duck-typed operad interface.

    Subclasses provide ``entry``, ``arity_of``, ``circ``, ``unit`` and, when
    a multiplication exists, ``multiplication``.  ``codegeneracy(i, x)``
    contracts the i-th leaf (1-based) and is only needed for the
    cosimplicial object.  Backward (opposite-category) operads skip ``circ``
    and instead provide ``coface_fn``/``codegeneracy_fn`` lookup tables.

    ``coordinates`` is the optional linear hook (see the module docstring):
    a callable ``x -> {basis key: coefficient}`` under which every entry
    element is one basis key with coefficient 1, keys being distinct across
    arities, and ``circ`` and ``codegeneracy`` are (bi)linear.  Keys need
    only be hashable: the checks replace them by ints of their own, per
    check, and never hand those back to the operad.  The returned dict is
    read-only: the hook may hand out an element's own storage, and the
    checks build dicts of their own from it.
    """

    name = "operad"
    coordinates = None

    def entry(self, n: int) -> list:
        raise NotImplementedError

    def arity_of(self, x) -> int:
        raise NotImplementedError

    def circ(self, x, i: int, y):
        raise NotImplementedError

    def unit(self):
        raise NotImplementedError

    def multiplication(self):
        return None

    def degree(self, x) -> int:
        """Homogeneous degree of an element; 0 when there is no grading.

        Graded operads must override this: the interchange of compositions
        at disjoint slots transposes the two inserted elements, which costs
        a sign when both are odd."""
        return 0

    def codegeneracy(self, i: int, x):
        raise NotImplementedError


class AssociativeOperad(OperadInstance):
    """The associative operad: one element per arity, encoded by the arity."""

    name = "associative"

    def entry(self, n: int) -> list:
        return [n]

    def arity_of(self, x: int) -> int:
        return x

    def circ(self, x: int, i: int, y: int) -> int:
        if not 1 <= i <= x:
            raise ValueError(f"slot {i} out of range for arity {x}")
        return x + y - 1

    def unit(self) -> int:
        return 1

    def multiplication(self) -> int:
        return 2

    def codegeneracy(self, i: int, x: int) -> int:
        if not 1 <= i <= x:
            raise ValueError(f"leaf {i} out of range for arity {x}")
        return x - 1


# -- cosimplicial objects ------------------------------------------------------


@dataclass
class CosimplicialObject:
    """Levels plus coface and codegeneracy maps.

    coface(n, i): level n -> n+1, for 0 <= i <= n+1.
    codegeneracy(n, i): level n -> n-1, for 1 <= i <= n (contracts leaf i).

    With ``direction == "backward"`` the callables are the arrows' underlying
    functions written target-to-source (the object lives in the opposite
    category of finite pointed sets).  ``coordinates`` is the operad's
    linear hook, when it has one: the levels are then basis vectors and the
    arrows linear maps.
    """

    level_elements: Callable[[int], list]
    coface: Callable[[int, int], Arrow]
    codegeneracy: Callable[[int, int], Arrow]
    direction: str = "forward"
    coordinates: Callable | None = None


def cosimplicial_from_operad(op: OperadInstance) -> CosimplicialObject:
    """The cosimplicial object of an operad with multiplication.

    d0(x) = mu o_2 x, di(x) = x o_i mu for 0 < i < n+1, d(n+1)(x) = mu o_1 x.
    Codegeneracies are the operad's own leaf contractions.
    """
    if hasattr(op, "coface_fn"):
        return CosimplicialObject(
            level_elements=op.entry,
            coface=lambda n, i: op.coface_fn(n, i).__getitem__,
            codegeneracy=lambda n, i: op.codegeneracy_fn(n, i).__getitem__,
            direction="backward",
        )
    mu = op.multiplication()
    if mu is None:
        raise ValueError(f"operad {op.name!r} has no multiplication")

    def coface(n: int, i: int) -> Arrow:
        if i == 0:
            return lambda x: op.circ(mu, 2, x)
        if i == n + 1:
            return lambda x: op.circ(mu, 1, x)
        if 0 < i < n + 1:
            return lambda x: op.circ(x, i, mu)
        raise ValueError(f"coface index {i} out of range at level {n}")

    def codegeneracy(n: int, i: int) -> Arrow:
        if not 1 <= i <= n:
            raise ValueError(f"codegeneracy index {i} out of range at level {n}")
        return lambda x: op.codegeneracy(i, x)

    return CosimplicialObject(op.entry, coface, codegeneracy,
                              coordinates=op.coordinates)


# ordinal maps underlying the arrows, as image tuples on {0..n}

def _delta(n: int, i: int) -> tuple:
    """The injection [n] -> [n+1] missing i."""
    return tuple(m if m < i else m + 1 for m in range(n + 1))


def _sigma(n: int, i: int) -> tuple:
    """The surjection [n] -> [n-1] repeating i-1 (1-based leaf index i)."""
    return tuple(m if m <= i - 1 else m - 1 for m in range(n + 1))


def _arrows_from(c: CosimplicialObject, n: int, max_level: int):
    """All single cofaces/codegeneracies out of level n, staying in bounds."""
    if n + 1 <= max_level:
        for i in range(n + 2):
            yield (f"d^{i}", n + 1, _delta(n, i), c.coface(n, i))
    if n >= 1:
        for i in range(1, n + 1):
            yield (f"s^{i}", n - 1, _sigma(n, i), c.codegeneracy(n, i))


def _basis_key(coordinates: Callable, x):
    """The one basis key of a basis element x."""
    coords = coordinates(x)
    if len(coords) != 1 or next(iter(coords.values())) != 1:
        raise ValueError(f"{x!r} is not a basis element")
    return next(iter(coords))


def _interned(coordinates: Callable) -> Callable:
    """The hook ``coordinates`` with each basis key replaced by a small
    int, numbered in the order the keys are first seen.  One check wraps the
    hook once, so its keys are distinct across arities as the hook's are,
    and every table and compared dict of that check hashes ints, not the
    hook's keys."""
    ids: dict = {}
    return lambda x: {ids.setdefault(k, len(ids)): c
                      for k, c in coordinates(x).items()}


def _arrow_table(coordinates: Callable, keys: list, inputs: list,
                 f: Arrow) -> dict:
    """{basis key of x: coordinates of f(x)} over the basis ``inputs`` with
    their ``keys``, for the nonzero images only."""
    return {k: img for k, x in zip(keys, inputs) if (img := coordinates(f(x)))}


#: the zero vector, for a basis key a table leaves out; never mutated
_ZERO: dict = {}


def _scale(img: dict, c) -> dict:
    """c times the coordinate dict img: img itself when c is 1, so a one-term
    input reads its image straight from a table.  One nonzero term cannot
    cancel, so the result needs no zero filter."""
    return img if c == 1 else {m: c * b for m, b in img.items()}


def _apply(table: dict, col: dict) -> dict:
    """The linear extension of a basis table, applied to a coordinate dict.

    A one-term column returns its table image itself, scaled only when its
    coefficient is not 1 (:func:`_scale`).  Callers never mutate a table
    image or a result."""
    if len(col) == 1:
        (key, a), = col.items()
        return _scale(table[key], a) if key in table else {}
    out: dict = {}
    for key, a in col.items():
        for img, b in table.get(key, _ZERO).items():
            out[img] = out.get(img, 0) + a * b
    return {img: c for img, c in out.items() if c}


def _composite_table(c: CosimplicialObject, inputs: list, f1: Arrow,
                     f2: Arrow, tables: dict | None = None):
    """Tabulate the two-step composite arrow start -> mid -> end.

    Element outputs are a list aligned with ``inputs``, the keying level's
    element list (built once per check), so elements need not be hashable.
    This is the single point handling opposite-category composition: for a
    backward object the stored functions compose in reversed order, and the
    table runs over end-level elements.  With ``tables`` (the linear path,
    keyed by arrow: see :func:`_arrow_table`) the composite is built column
    by column from the two arrows' tables, in coordinates, as a table of the
    same form: {basis key: nonzero image}.  A one-term column reads its image
    straight from the second table.
    """
    if c.direction == "backward":
        return [f1(f2(y)) for y in inputs]
    if tables is None:
        return [f2(f1(x)) for x in inputs]
    second, out = tables[f2], {}
    for key, col in tables[f1].items():
        if len(col) == 1:
            (k, a), = col.items()
            if k in second:
                out[key] = _scale(second[k], a)
        elif img := _apply(second, col):
            out[key] = img
    return out


def check_cosimplicial_identities(c: CosimplicialObject, max_level: int,
                                  progress: Callable | None = None) -> CheckReport:
    """Verify all cosimplicial identities on levels <= max_level.

    Two-step composites are grouped by their underlying ordinal map; all
    composites over the same ordinal map must tabulate identically, and
    identity ordinal maps must tabulate as the identity.  This covers the
    coface/coface, codegeneracy/codegeneracy, and mixed identities at once.
    With the linear hook, every arrow is tabulated once on its level's basis
    and the composites are compared in coordinates.  Each composite is
    compared as it arrives, so only one table per group is held.
    ``progress(n)``, when given, is called once level n's composites are all
    compared.
    """
    rep = CheckReport(f"cosimplicial-identities<={max_level}")
    levels = [list(c.level_elements(n)) for n in range(max_level + 1)]
    arrows = [list(_arrows_from(c, n, max_level)) for n in range(max_level + 1)]
    linear = c.coordinates is not None
    keys = tables = None
    if linear:
        coordinates = _interned(c.coordinates)
        keys = [[_basis_key(coordinates, x) for x in level] for level in levels]
        tables = {f: _arrow_table(coordinates, keys[n], levels[n], f)
                  for n in range(max_level + 1) for _, _, _, f in arrows[n]}
    # per group: its first composite and label, the identity's table where
    # the ordinal map is one (else None), and the (ok, witness) records of the
    # later composites against the first and of all against the identity,
    # which are recorded group by group once every composite has arrived
    groups: dict[tuple, tuple] = {}
    for n in range(max_level + 1):
        at = keys[n] if linear else None
        for lab1, mid, ord1, f1 in arrows[n]:
            for lab2, end, ord2, f2 in arrows[mid]:
                ordc = tuple(ord2[v] for v in ord1)
                inputs = levels[end if c.direction == "backward" else n]
                label, maps = f"{lab2} {lab1}", (f1, f2)
                table = _composite_table(c, inputs, f1, f2, tables)
                key = (n, end, ordc)
                if key not in groups:
                    ident = None
                    if n == end and ordc == tuple(range(n + 1)):
                        ident = {k: {k: 1} for k in at} if linear else inputs
                    groups[key] = (label, table, maps, ident, [], [])
                label0, table0, maps0, ident, same, identity = groups[key]
                if table is not table0:
                    ok = table == table0
                    same.append((ok, None if ok else {
                        "level": n, "maps": [label0, label],
                        "witness": _first_diff(c, inputs, at, table0, table,
                                               maps0, maps)}))
                if ident is not None:
                    ok = table == ident
                    identity.append((ok, None if ok else {
                        "level": n, "maps": [label, "identity"],
                        "witness": _first_diff(c, inputs, at, ident, table,
                                               None, maps)}))
        if progress is not None:
            progress(n)
    for *_, same, identity in groups.values():
        for ok, witness in same + identity:
            rep.record(ok, witness)
    return rep


def _first_diff(c: CosimplicialObject, inputs: list, keys: list | None, t0,
                t1, maps0, maps1) -> dict | None:
    """Input, got and want at the first place two tables differ, in input
    order, read off the element maps; ``maps0`` None stands for the
    identity.  Linear tables are dicts over the inputs' basis ``keys``, a
    missing key the zero vector; element tables are lists aligned with
    ``inputs`` (``keys`` None).  In elements that are stacks of samples
    (with an ``unstack`` method into stacks of one), the witness is the
    first sample that differs."""
    if keys is not None:
        t0, t1 = ([t.get(k, {}) for k in keys] for t in (t0, t1))
    for x, a, b in zip(inputs, t0, t1):
        if a != b:
            if hasattr(x, "unstack"):
                x, a, b = next(s for s in zip(x.unstack(), a.unstack(), b.unstack())
                               if s[1] != s[2])
            want = x if maps0 is None else _composite_table(c, [x], *maps0)[0]
            got = _composite_table(c, [x], *maps1)[0]
            return {"input": repr(x), "got": repr(got), "want": repr(want)}
    return None


# -- operad axiom checking -------------------------------------------------------


def check_operad_axioms(op: OperadInstance, max_arity: int,
                        progress: Callable | None = None) -> CheckReport:
    """Exhaustive unit/associativity/interchange check over entry bases.

    Unit laws run for every arity <= max_arity.  The two composition
    relations run over basis triples of positive arities whose composite
    arity p+q+r-2 stays within max_arity.  Operads defining their own
    ``axiom_report`` (the opposite-category ones) are dispatched there.
    With the linear hook every law is evaluated in coordinates, on a table
    of ``op.circ`` over basis pairs built lazily during the check
    (:func:`_circ_maps`).
    ``progress(p)``, when given, is called once the laws whose outer element
    has arity p are all checked (the unit laws count for p = 0).
    A negative max_arity would check nothing and raises ``ValueError``.
    """
    if max_arity < 0:
        raise ValueError(f"max_arity must be non-negative, got {max_arity}")
    if hasattr(op, "axiom_report"):
        return op.axiom_report(max_arity, progress)
    rep = CheckReport(f"operad-axioms[{op.name}]<={max_arity}")
    entries = [op.entry(n) for n in range(max_arity + 1)]
    unit = op.unit()
    if op.coordinates is None:
        handles, e, value, maps = entries, unit, _identity, (op.circ,) * 3
    else:
        value = _interned(op.coordinates)
        handles = [[_basis_key(value, x) for x in ent] for ent in entries]
        e = _basis_key(value, unit)
        maps = _circ_maps(op, value, [unit] + [x for ent in entries for x in ent],
                          [e] + [k for keys in handles for k in keys])
    circ = maps[0]
    for n in range(max_arity + 1):
        for x, hx in zip(entries[n], handles[n]):
            vx = value(x)
            ok = circ(e, 1, hx) == vx
            rep.record(ok, None if ok else {"law": "left-unit", "x": repr(x)})
            for i in range(1, n + 1):
                ok = circ(hx, i, e) == vx
                rep.record(ok, None if ok else {
                    "law": "right-unit", "x": repr(x), "slot": i})
    if progress is not None:
        progress(0)
    for p in range(1, max_arity + 1):
        for q in range(1, max_arity + 2 - p):
            for r in range(1, max_arity + 3 - p - q):
                _check_triple(op, rep, entries, handles, maps, p, q, r)
        if progress is not None:
            progress(p)
    return rep


def _identity(x):
    return x


def _circ_maps(op: OperadInstance, coordinates: Callable, elements: list,
               keys: list) -> tuple:
    """Partial composition in ``coordinates``, as the three maps of
    :func:`_check_triple`, on the basis ``elements`` with their ``keys``.
    ``bb(a, i, b)`` composes two basis keys: one read of a table of
    ``op.circ``, each pair and slot composed once, when first asked.
    ``vb(u, i, b)`` and ``bv(a, i, v)`` are its linear extensions in the
    coordinate dict u or v; a one-term dict returns the table image itself,
    scaled only when its coefficient is not 1 (:func:`_scale`)."""
    basis, table = dict(zip(keys, elements)), {}

    def bb(a, i: int, b) -> dict:
        img = table.get((a, i, b))
        if img is None:
            img = table[a, i, b] = coordinates(op.circ(basis[a], i, basis[b]))
        return img

    def vb(u: dict, i: int, b) -> dict:
        if len(u) == 1:
            (a, c), = u.items()
            return _scale(bb(a, i, b), c)
        return _apply({a: bb(a, i, b) for a in u}, u)

    def bv(a, i: int, v: dict) -> dict:
        if len(v) == 1:
            (b, c), = v.items()
            return _scale(bb(a, i, b), c)
        return _apply({b: bb(a, i, b) for b in v}, v)

    return bb, vb, bv


def _negate(v):
    return {m: -c for m, c in v.items()} if isinstance(v, dict) else v.scale(-1)


def _check_triple(op: OperadInstance, rep: CheckReport, entries: list,
                  handles: list, maps: tuple, p: int, q: int, r: int) -> None:
    """The sequential and parallel laws on the basis triples of arities p, q
    and r.  ``handles`` name the entries for the three ``maps``: basis ∘
    basis, value ∘ basis and basis ∘ value, where a value is a composite.
    On the linear path the handles are basis keys and the maps those of
    :func:`_circ_maps`; on the element path they are the entries themselves
    and every map is ``op.circ``."""
    bb, vb, bv = maps
    for x, hx in zip(entries[p], handles[p]):
        for y, hy in zip(entries[q], handles[q]):
            for z, hz in zip(entries[r], handles[r]):
                # the two insertion orders of the parallel law transpose y
                # past z, which costs a sign when both are odd
                odd = p > 1 and (op.degree(y) * op.degree(z)) % 2
                for i in range(1, p + 1):
                    xy = bb(hx, i, hy)
                    for j in range(1, q + 1):
                        # sequential: plug z inside the grafted y
                        ok = vb(xy, i + j - 1, hz) == bv(hx, i, bb(hy, j, hz))
                        rep.record(ok, None if ok else {
                            "law": "sequential", "x": repr(x), "y": repr(y),
                            "z": repr(z), "i": i, "j": j})
                    for k in range(i + 1, p + 1):
                        # parallel: graft y and z at disjoint slots
                        lhs = vb(xy, k + q - 1, hz)
                        rhs = vb(bb(hx, k, hz), i, hy)
                        ok = lhs == (_negate(rhs) if odd else rhs)
                        rep.record(ok, None if ok else {
                            "law": "parallel", "x": repr(x), "y": repr(y),
                            "z": repr(z), "i": i, "k": k})
