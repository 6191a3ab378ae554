"""Command-line surface: cohomology tables, verification suites, geometry artifacts.

Every run writes a single JSON artifact (stdout by default, or ``--output``)
that embeds the tool version, the full parameter set (with the seed of every
seeded command), and the results, serialized with sorted keys so that
identical run configurations produce byte-identical bytes.  Human-oriented
one-liners go to stderr.

Exit codes: 0 all checks passed, 1 a check failed (artifact still written),
2 invalid usage or unreadable input, 3 resource bound exceeded.  An
``--output`` that cannot be written is exit 2 before any work.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__, geometry, hochschild, operad_core, pair_operad, poisson, trees
from .errors import BoundExceededError

OUTPUT_DIR_ENV = "KNOTOPERADS_OUTPUT_DIR"

#: highest --max-level of ``verify s2-iso`` and ``verify cosimplicial``
#: (exit 3 above); at the bound, on 2 vCPUs, s2-iso takes about 0.6 s and the
#: Poisson cosimplicial check about 0.5 s (49 MiB peak)
MAX_S2_ISO_LEVEL = 16
MAX_COSIMPLICIAL_LEVEL = 7

#: highest --max-arity of ``verify operad-axioms``, for every operad (exit 3
#: above); at the bound poisson takes 5-6 s (n = 2 and 3, 86 MiB peak) and
#: choose-two 1.5 s on 2 vCPUs, and each arity costs about ten times the last
MAX_OPERAD_ARITY = 7

#: highest --trials of ``verify geometry`` and ``geom disks-compare`` (exit 3
#: above); at the bound ``verify geometry`` takes 9.5 s and ``disks-compare``
#: on its default tree 0.9 s on 2 vCPUs, both at a 41 MiB peak
MAX_TRIALS = 5000


# -- artifact plumbing -----------------------------------------------------------


def _artifact(command: str, parameters: dict, results) -> dict:
    return {
        "tool": "knotoperads",
        "version": __version__,
        "command": command,
        "parameters": parameters,
        "results": results,
    }


def _resolve_output(path):
    """Relative --output paths land in $KNOTOPERADS_OUTPUT_DIR when it is set."""
    if path is None:
        return None
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _check_output(output) -> None:
    """Fail before the work when --output cannot be written: its directory
    must exist and be writable, and the path must name a file."""
    path = _resolve_output(output)
    if path is None:
        return
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder) or not os.access(folder, os.W_OK | os.X_OK):
        raise ValueError(f"cannot write --output {path!r}: {folder!r} is not a "
                         "writable directory")
    if not os.path.basename(path) or os.path.isdir(path):
        raise ValueError(f"cannot write --output {path!r}: it names no file")


def _write_text(text: str, output) -> None:
    path = _resolve_output(output)
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {path}", file=sys.stderr)


def _emit(artifact: dict, output) -> None:
    _write_text(json.dumps(artifact, sort_keys=True, indent=2) + "\n", output)


def _check_bound(option: str, value: int, bound: int, what: str) -> None:
    if value > bound:
        raise BoundExceededError(f"{option} {value} exceeds the {what} {bound}")


def _status(passed: bool, label: str) -> int:
    print(f"{label}: {'PASS' if passed else 'FAIL'}", file=sys.stderr)
    return 0 if passed else 1


def _tolerance(text: str) -> float:
    """argparse type of every tolerance option: a finite positive float.
    A NaN tolerance would fail every comparison and read as a failed check."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"a tolerance must be finite and positive, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    """argparse type of the trial and level counts: a run of zero trials
    or levels checks nothing and must not read as a pass."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _seed(text: str) -> int:
    """argparse type of every --seed: a non-negative integer, the domain of
    numpy's SeedSequence, checked before any work."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return value


def _eps(text: str) -> float:
    """argparse type of --eps: geometry._check_eps's domain (0, 1/6], checked
    before the battery's first suite runs."""
    value = float(text)
    try:
        geometry._check_eps(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


# -- hh --------------------------------------------------------------------------


def cmd_hh(args) -> int:
    if args.timings and args.format != "json":
        raise ValueError("--timings needs --format json: csv and text carry no stages")
    poisson.check_bracket_degree(args.degree)
    table = hochschild.hh_table(args.degree, args.max_p, args.coeff,
                                normalized=args.normalized)
    params = {
        "degree": args.degree,
        "max_p": args.max_p,
        "coeff": args.coeff,
        "normalized": args.normalized,
        "format": args.format,
        "seed": None,  # deterministic command, recorded for schema uniformity
    }
    artifact = _artifact("hh", params, table.to_json_obj(timings=args.timings))
    if args.format == "json":
        _write_text(json.dumps(artifact, sort_keys=True, indent=2) + "\n",
                    args.output)
    else:
        # CSV/text carry the provenance header as comment lines so the
        # byte-identity and embedding invariants hold in every format.
        head = [f"# tool: knotoperads {__version__}",
                "# command: hh",
                "# parameters: " + json.dumps(params, sort_keys=True)]
        if args.format == "csv":
            body = table.to_csv()
        else:
            body = "\n".join(f"p={e.p} q={e.q} dim={e.dim} rank={e.rank}"
                             + (f" torsion={list(e.torsion)}" if e.torsion else "")
                             for e in table.entries) + "\n"
        _write_text("\n".join(head) + "\n" + body, args.output)
    print(f"hh: degree={args.degree} entries={len(table.entries)}",
          file=sys.stderr)
    return 0


# -- verify ----------------------------------------------------------------------


def _geometry_shapes() -> list:
    """Representative composition trees with 1-3 internal vertices."""
    texts = [
        "(* * * *)",
        "((* *) * *)",
        "(* (* * *))",
        "((* *) (* *))",
        "(((* *) *) *)",
        "((* *) (* *) * *)",
    ]
    return [trees.parse_tree(t) for t in texts]


def _progress(command: str):
    """A callback that reports the end of one section of a long command on
    stderr, with the seconds spent so far."""
    started = time.perf_counter()

    def report(section: str) -> None:
        print(f"{command}: {section} done "
              f"({time.perf_counter() - started:.1f} s)", file=sys.stderr)

    return report


def _geometry_battery(trials: int, tol: float, seed: int, eps: float) -> dict:
    """The four sections of ``verify geometry``.  Each membership and closure
    suite, and each later section, reports its end on stderr."""
    progress = _progress("verify geometry")
    suites = []
    for m in (3, 4, 5):
        suites.append(geometry.membership_trials(6, m, trials, seed=seed, tol=tol))
        progress(f"membership n=6 m={m}")
    for tree in _geometry_shapes():
        for m in (3, 4, 5):
            suites.append(geometry.closure_trials(tree, m, trials, seed=seed,
                                                  tol=tol))
            progress(f"closure {tree.to_text()} m={m}")
    naturality = []
    for n in range(7):
        rep = geometry.check_insertion_naturality(
            n, 3, trials=min(trials, 25), seed=seed, eps=eps)
        naturality.append(rep.to_json_obj())
    progress("naturality")
    disks = []
    for text in ("(* (* *))", "((* *) (* *))"):
        disks.append(geometry.disks_comparison_trials(
            trees.parse_tree(text), 3, min(trials, 100), seed=seed))
    progress("disks")
    cosimp = geometry.check_sphere_cosimplicial(3, max_level=5, per_level=10,
                                                seed=seed)
    progress("cosimplicial")
    passed = (all(s["passed"] for s in suites)
              and all(not r["failures"] for r in naturality)
              and all(d["passed"] for d in disks)
              and cosimp.passed)
    return {
        "passed": passed,
        "membership_and_closure": suites,
        "naturality": naturality,
        "disks": disks,
        "cosimplicial": cosimp.to_json_obj(),
    }


def cmd_verify(args) -> int:
    if args.suite == "s2-iso":
        _check_bound("--max-level", args.max_level, MAX_S2_ISO_LEVEL, "level bound")
    elif args.suite == "cosimplicial":
        _check_bound("--max-level", args.max_level, MAX_COSIMPLICIAL_LEVEL,
                     "level bound")
    elif args.suite == "operad-axioms":
        _check_bound("--max-arity", args.max_arity, MAX_OPERAD_ARITY,
                     "arity bound")
    else:
        _check_bound("--trials", args.trials, MAX_TRIALS, "trial bound")
    if args.suite == "s2-iso":
        rep = pair_operad.check_s2_iso(args.max_level)
        params = {"max_level": args.max_level, "seed": None}
        results = rep.to_json_obj()
        passed = rep.passed
    elif args.suite == "operad-axioms":
        op = _make_operad(args.operad, args.degree)
        report = _progress("verify operad-axioms")
        rep = operad_core.check_operad_axioms(
            op, args.max_arity, lambda p: report(f"arity {p}"))
        params = {"operad": args.operad, "degree": args.degree,
                  "max_arity": args.max_arity, "seed": None}
        results = rep.to_json_obj()
        passed = rep.passed
    elif args.suite == "cosimplicial":
        params = {"operad": args.operad, "degree": args.degree,
                  "max_level": args.max_level, "seed": args.seed}
        report = _progress("verify cosimplicial")
        if args.operad == "sphere":
            geometry.check_dimension_bound(args.degree)  # before sampling
            rep = geometry.check_sphere_cosimplicial(
                args.degree, max_level=args.max_level, seed=args.seed,
                progress=lambda n: report(f"level {n}"))
        else:
            c = operad_core.cosimplicial_from_operad(
                _make_operad(args.operad, args.degree))
            rep = operad_core.check_cosimplicial_identities(
                c, args.max_level, lambda n: report(f"level {n}"))
        results = rep.to_json_obj()
        passed = rep.passed
    else:  # geometry
        params = {"trials": args.trials, "tol": args.tol, "seed": args.seed,
                  "eps": args.eps}
        results = _geometry_battery(args.trials, args.tol, args.seed, args.eps)
        passed = results["passed"]
    _emit(_artifact(f"verify {args.suite}", params, results), args.output)
    return _status(passed, f"verify {args.suite}")


def _make_operad(name: str, degree: int):
    if name == "choose-two":
        return pair_operad.ChooseTwoOperad()
    if name == "associative":
        return operad_core.AssociativeOperad()
    if name == "poisson":
        return poisson.PoissonOperad(degree)
    raise ValueError(f"unknown operad {name!r}")


# -- geom ------------------------------------------------------------------------


def _load_json(path) -> dict:
    """The top-level JSON object of an input file; any other shape is bad
    input (exit 2), as is nesting too deep for the decoder."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object, "
                         f"got {type(data).__name__}")
    return data


def cmd_geom_check(args) -> int:
    data = _load_json(args.input)
    if "u" in data:
        sphere = geometry.SphereConfiguration.from_json_obj(data)
    else:
        points = geometry.PointConfiguration.from_json_obj(data)
        geometry.check_report_points(points.n)  # before the Gauss map's C(n, 2) pairs
        sphere = geometry.gauss_map(points)
    report = geometry.membership_report(sphere, tol=args.tol)
    params = {"input": os.path.basename(args.input), "tol": args.tol}
    results = {"configuration": sphere.to_json_obj(), "membership": report}
    _emit(_artifact("geom check", params, results), args.output)
    return _status(report["passed"], "geom check")


def _parse_path(key: str) -> tuple:
    if key in ("", "()"):
        return ()
    return tuple(int(part) for part in key.split(","))


def cmd_geom_compose(args) -> int:
    data = _load_json(args.input)
    if not isinstance(data.get("tree"), str):
        raise ValueError("'tree' must be the text form of a tree")
    if not isinstance(data.get("inputs"), dict):
        raise ValueError("'inputs' must be an object keyed by vertex path")
    tree = trees.parse_tree(data["tree"])
    inputs = {_parse_path(k): geometry.SphereConfiguration.from_json_obj(v)
              for k, v in data["inputs"].items()}
    composed = geometry.kontsevich_compose(tree, inputs)
    report = geometry.membership_report(composed, tol=args.tol)
    params = {"input": os.path.basename(args.input), "tol": args.tol}
    results = {"tree": tree.to_text(), "configuration": composed.to_json_obj(),
               "membership": report}
    _emit(_artifact("geom compose", params, results), args.output)
    return _status(report["passed"], "geom compose")


def cmd_geom_knot_eval(args) -> int:
    curve_cls = geometry.BUILTIN_CURVES.get(args.curve)
    if curve_cls is None:
        raise ValueError(f"unknown curve {args.curve!r}")
    curve = curve_cls()
    explicit = args.at is not None
    if explicit:
        if not args.at.strip():
            raise ValueError("--at needs at least one time")
        times = tuple(float(t) for t in args.at.split(","))
    elif args.times < 1:
        raise ValueError("--times must be positive")
    geometry.check_report_points(len(times) if explicit else args.times)  # before any draw
    if not explicit:
        rng = np.random.default_rng(args.seed)
        times = tuple(sorted(rng.uniform(-0.98, 0.98, args.times).tolist()))
    cfg = geometry.knot_eval(curve, times)
    sphere = geometry.gauss_map(cfg) if not cfg.pair_directions else None
    report = (geometry.membership_report(sphere, tol=args.tol)
              if sphere is not None and cfg.n >= 3 else None)
    params = {"curve": args.curve, "times": len(times), "at": args.at,
              "tol": args.tol, "seed": args.seed}
    results = {"times": list(times), "configuration": cfg.to_json_obj()}
    if report is not None:
        results["membership"] = report
    _emit(_artifact("geom knot-eval", params, results), args.output)
    passed = report is None or report["passed"]
    return _status(passed, "geom knot-eval")


def cmd_geom_disks_compare(args) -> int:
    tree = trees.parse_tree(args.tree)
    geometry.check_dimension_bound(args.dim)  # before sampling
    _check_bound("--trials", args.trials, MAX_TRIALS, "trial bound")
    report = geometry.disks_comparison_trials(
        tree, args.dim, args.trials, seed=args.seed, end_tol=args.end_tol,
        limit_tol=args.limit_tol, limit_time=args.t_min)
    params = {"tree": args.tree, "dim": args.dim, "trials": args.trials,
              "t_min": args.t_min, "end_tol": args.end_tol,
              "limit_tol": args.limit_tol, "seed": args.seed}
    _emit(_artifact("geom disks-compare", params, report), args.output)
    return _status(report["passed"], "geom disks-compare")


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knotoperads",
        description="Bracket-operad cohomology tables and spherical "
                    "configuration checks.")
    parser.add_argument("--version", action="version",
                        version=f"knotoperads {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    hh = sub.add_parser("hh", help="bracket-complex cohomology table")
    hh.add_argument("--degree", type=int, required=True,
                    help="bracket degree n (>= 2)")
    hh.add_argument("--max-p", type=int, default=5, dest="max_p")
    hh.add_argument("--coeff", choices=("rational", "integral"),
                    default="rational")
    norm = hh.add_mutually_exclusive_group()
    norm.add_argument("--normalized", dest="normalized", action="store_true",
                      help="use the normalized complex (default)")
    norm.add_argument("--full", dest="normalized", action="store_false",
                      help="use the full complex")
    hh.set_defaults(normalized=True)
    hh.add_argument("--format", choices=("json", "csv", "text"),
                    default="json")
    hh.add_argument("--timings", action="store_true")
    hh.add_argument("--output", default=None)
    hh.set_defaults(func=cmd_hh)

    verify = sub.add_parser("verify", help="run a verification suite")
    vsub = verify.add_subparsers(dest="suite", required=True)

    s2 = vsub.add_parser("s2-iso", help="pair-subsets vs. simplicial-sphere "
                                        "level comparison")
    s2.add_argument("--max-level", type=int, default=8, dest="max_level")
    s2.add_argument("--output", default=None)
    s2.set_defaults(func=cmd_verify)

    ax = vsub.add_parser("operad-axioms", help="unit/associativity/"
                                               "functoriality checks")
    ax.add_argument("--operad", choices=("choose-two", "associative",
                                         "poisson"), default="choose-two")
    ax.add_argument("--degree", type=int, default=2,
                    help="bracket degree (poisson only)")
    ax.add_argument("--max-arity", type=int, default=4, dest="max_arity")
    ax.add_argument("--output", default=None)
    ax.set_defaults(func=cmd_verify)

    cs = vsub.add_parser("cosimplicial", help="coface/codegeneracy identity "
                                              "checks")
    cs.add_argument("--operad", choices=("poisson", "choose-two",
                                         "associative", "sphere"),
                    default="poisson")
    cs.add_argument("--degree", type=int, default=2,
                    help="bracket degree, or ambient dimension for sphere")
    cs.add_argument("--max-level", type=_positive_int, default=4,
                    dest="max_level")
    cs.add_argument("--seed", type=_seed, default=0)
    cs.add_argument("--output", default=None)
    cs.set_defaults(func=cmd_verify)

    ge = vsub.add_parser("geometry", help="membership, closure, naturality, "
                                          "and disk-comparison battery")
    ge.add_argument("--trials", type=_positive_int, default=200)
    ge.add_argument("--tol", type=_tolerance, default=geometry.DEFAULT_TOL)
    ge.add_argument("--seed", type=_seed, default=0)
    ge.add_argument("--eps", type=_eps, default=geometry.DEFAULT_EPS)
    ge.add_argument("--output", default=None)
    ge.set_defaults(func=cmd_verify)

    geom = sub.add_parser("geom", help="one-off geometric computations")
    gsub = geom.add_subparsers(dest="geom_command", required=True)

    gc = gsub.add_parser("check", help="membership report for a "
                                       "configuration file")
    gc.add_argument("--input", required=True)
    gc.add_argument("--tol", type=_tolerance, default=geometry.DEFAULT_TOL)
    gc.add_argument("--output", default=None)
    gc.set_defaults(func=cmd_geom_check)

    gp = gsub.add_parser("compose", help="operad composition of sphere "
                                         "configurations")
    gp.add_argument("--input", required=True,
                    help="JSON file with 'tree' text and 'inputs' keyed by "
                         "internal-vertex path, e.g. '' or '0,1'")
    gp.add_argument("--tol", type=_tolerance, default=geometry.DEFAULT_TOL)
    gp.add_argument("--output", default=None)
    gp.set_defaults(func=cmd_geom_compose)

    gk = gsub.add_parser("knot-eval", help="evaluate a built-in curve and "
                                           "check its Gauss image")
    gk.add_argument("--curve", choices=sorted(geometry.BUILTIN_CURVES),
                    default="trefoil")
    gk.add_argument("--times", type=int, default=4,
                    help="number of seeded random sample times")
    gk.add_argument("--at", default=None,
                    help="explicit comma-separated times, overrides --times "
                         "(write --at=-0.5,0,0.5 when the first is negative)")
    gk.add_argument("--tol", type=_tolerance, default=geometry.DEFAULT_TOL)
    gk.add_argument("--seed", type=_seed, default=0)
    gk.add_argument("--output", default=None)
    gk.set_defaults(func=cmd_geom_knot_eval)

    gd = gsub.add_parser("disks-compare", help="disk-homotopy endpoints vs. "
                                               "the two composites")
    gd.add_argument("--tree", default="(* (* *))")
    gd.add_argument("--dim", type=int, default=3)
    gd.add_argument("--trials", type=_positive_int, default=100)
    gd.add_argument("--t-min", type=float, default=geometry.LIMIT_TIME,
                    dest="t_min")
    gd.add_argument("--end-tol", type=_tolerance, default=1e-12, dest="end_tol")
    gd.add_argument("--limit-tol", type=_tolerance, default=geometry.LIMIT_TOL,
                    dest="limit_tol")
    gd.add_argument("--seed", type=_seed, default=0)
    gd.add_argument("--output", default=None)
    gd.set_defaults(func=cmd_geom_disks_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_output(args.output)
        return args.func(args)
    except BoundExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
