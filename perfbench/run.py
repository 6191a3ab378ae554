"""End-to-end benchmark of the knotoperads CLI.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

A closed loop with one client: one process at a time.  Each sample is a
fresh interpreter (perfbench/child.py) that imports ``knotoperads.cli`` from
``src/`` and runs one command, so every memo and basis cache starts cold.
A run repeats rounds, each running every command of the workload once,
until ``--seconds`` is used up.  A probe thread times a fixed piece of
Python work on the sample's CPUs while each sample runs, and every time is
scaled to a reference host speed by it; wall_s sums, over the commands, the
fastest scaled time of each command in the run.
Outputs are checked after the timed loop against facts computed apart from
the program (perfbench/checks.py).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds, prints the per-layer metrics and writes
perfbench/out/trace-<workload>-seed<seed>.json with the spans of the last
traced round, per-span totals and the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

BENCH = "perfbench"
OUT = os.path.join(BENCH, "out")
SETUP_PROBES = 6          # extra import-only processes per run, for setup_s
RUN_BUDGET_S = 150.0      # no round starts that would end later than this
PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
       "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

sys.path.insert(0, os.path.join(os.getcwd(), BENCH))
import checks  # noqa: E402  (benchmark-local modules)
import tracer as tracing  # noqa: E402


@dataclass
class Command:
    argv: list
    kind: str                      # "hh", "geometry" or "verify"
    params: dict                   # what the artifact must echo back


def _hh(n: int, coeff: str = "rational") -> Command:
    argv = ["hh", "--degree", str(n), "--max-p", "7"]
    if coeff != "rational":
        argv += ["--coeff", coeff]
    return Command(argv, "hh", {"degree": n, "max_p": 7, "coeff": coeff})


def workload(name: str, seed: int) -> list:
    if name == "hh-rational":
        return [_hh(2), _hh(3)]
    if name == "hh-integral":
        return [_hh(2, "integral")]
    if name == "verify-geometry":
        return [Command(["verify", "geometry", "--trials", "200", "--seed",
                         str(seed)], "geometry", {"trials": 200, "seed": seed})]
    if name == "verify-algebra":
        return [
            Command(["verify", "operad-axioms", "--operad", "poisson",
                     "--degree", "3", "--max-arity", "5"], "verify",
                    {"operad": "poisson", "degree": 3, "max_arity": 5}),
            Command(["verify", "cosimplicial", "--operad", "poisson",
                     "--degree", "2", "--max-level", "6"], "verify",
                    {"operad": "poisson", "degree": 2, "max_level": 6}),
            Command(["verify", "s2-iso", "--max-level", "8"], "verify",
                    {"max_level": 8}),
            Command(["verify", "operad-axioms", "--operad", "choose-two",
                     "--max-arity", "5"], "verify",
                    {"operad": "choose-two", "max_arity": 5}),
        ]
    raise SystemExit(f"unknown workload {name!r}")


WORKLOADS = ("hh-rational", "hh-integral", "verify-geometry", "verify-algebra")


class Fatal(RuntimeError):
    """The program cannot be benchmarked here at all."""


PROBE_KEYS = 1500             # dictionary updates in one host-speed probe
PROBE_EVERY_S = 0.05         # probe period while a sample runs
REFERENCE_PROBE_S = 0.0010   # the probe's CPU time on a quiet reference vCPU


def _probe() -> float:
    """CPU seconds of a fixed piece of pure-Python work on the current CPU:
    tuple keys into a dictionary, then a sort, the kind of work the
    program's rewriting and assembly do.  About 1 ms on a quiet 2.1 GHz
    Xeon vCPU; on a shared host it follows how fast the vCPU runs at that
    moment."""
    t = time.thread_time()
    d: dict = {}
    for i in range(PROBE_KEYS):
        key = (i % 97, i % 89, i >> 3)
        d[key] = d.get(key, 0) + i
    sorted(d.items())
    return time.thread_time() - t


def _quickest(cpus: list) -> int:
    """The CPU among ``cpus`` whose probe (median of three) is quickest."""
    speeds = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        speeds[cpu] = statistics.median(_probe() for _ in range(3))
    return min(cpus, key=speeds.get)


class SpeedProbe(threading.Thread):
    """Runs the probe on the sample's CPUs, in turn, every PROBE_EVERY_S
    while the sample runs, and once more when it has ended.  It takes about
    2% of one CPU.  Only this thread's affinity changes."""

    def __init__(self, cpus: list):
        super().__init__(daemon=True)
        self.cpus = cpus
        self.times: list = []
        self.stopped = threading.Event()

    def run(self) -> None:
        k = 0
        while True:
            os.sched_setaffinity(0, {self.cpus[k % len(self.cpus)]})
            self.times.append(_probe())
            k += 1
            if self.stopped.is_set():
                return
            self.stopped.wait(PROBE_EVERY_S)

    def stop(self) -> float:
        """Stop, wait for the thread, and return the median probe time."""
        self.stopped.set()
        self.join()
        return statistics.median(self.times)


class Runner:
    def __init__(self, root: str, run_dir: str, deadline: float):
        self.root = root
        self.allowed = os.sched_getaffinity(0)
        self.cpus = sorted(self.allowed)[:8]
        self.run_dir = run_dir
        self.deadline = deadline
        self.env = dict(os.environ, **PIN)
        self.env.pop("KNOTOPERADS_OUTPUT_DIR", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src")]
            + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
        self.setup: list = []
        self.count = 0

    def sample(self, argv: list, trace: bool = False, pin: bool = True) -> dict:
        """Run one fresh interpreter, pinned to the quickest CPU when the
        command is single-threaded; returns its report plus setup_s/wall_s,
        or {"rc": ...} without timings if it died before reporting.

        A SpeedProbe runs on the sample's CPUs alongside it; setup_s and
        wall_s are the raw times scaled by REFERENCE_PROBE_S over the
        median probe time."""
        self.count += 1
        tag = os.path.join(self.run_dir, f"p{self.count}")
        cmd = [sys.executable, os.path.join(BENCH, "child.py"),
               tag + ".spans.json" if trace else "-"] + argv
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise Fatal("run budget exhausted")
        pin = pin and len(self.cpus) > 1
        cpus = [_quickest(self.cpus)] if pin else self.cpus
        probe = SpeedProbe(cpus)
        with open(tag + ".err", "w", encoding="utf-8") as err:
            try:
                os.sched_setaffinity(0, set(cpus) if pin else self.allowed)
                probe.start()
                spawn = time.monotonic()
                proc = subprocess.run(cmd, cwd=self.root, env=self.env,
                                      stdout=subprocess.PIPE, stderr=err,
                                      timeout=remaining)
            except subprocess.TimeoutExpired:
                return {"rc": "timeout", "argv": argv}
            finally:
                os.sched_setaffinity(0, self.allowed)
                probe_s = probe.stop() if probe.is_alive() else None
        lines = proc.stdout.decode(errors="replace").strip().splitlines()
        try:
            rep = json.loads(lines[-1])
        except (IndexError, ValueError):
            with open(tag + ".err", encoding="utf-8") as err:
                tail = err.read()[-2000:]
            return {"rc": proc.returncode, "argv": argv, "stderr": tail}
        src = os.path.realpath(os.path.join(self.root, "src"))
        if not os.path.realpath(rep["module"]).startswith(src + os.sep):
            raise Fatal(f"knotoperads imported from {rep['module']}, not {src}")
        scale = REFERENCE_PROBE_S / probe_s
        rep["probe_s"] = probe_s
        rep["raw_setup_s"] = rep["ready"] - spawn
        rep["raw_wall_s"] = rep["t1"] - rep["t0"]
        rep["setup_s"] = rep["raw_setup_s"] * scale
        rep["wall_s"] = rep["raw_wall_s"] * scale
        rep["spans_file"] = tag + ".spans.json" if trace else None
        rep["argv"] = argv
        self.setup.append(rep["setup_s"])
        return rep

    def round(self, cmds: list, index: int, trace: bool) -> dict:
        start = time.monotonic()
        samples = []
        for k, c in enumerate(cmds):
            out = os.path.join(self.run_dir, f"r{index}-c{k}.json")
            # the geometry battery runs a thread pool: leave it unpinned
            rep = self.sample(c.argv + ["--output", out], trace,
                              pin=c.kind != "geometry")
            rep["artifact"] = out
            samples.append(rep)
        return {"samples": samples, "trace": trace,
                "elapsed": time.monotonic() - start}


def _ok(rep: dict) -> bool:
    return rep.get("rc") == 0 and "wall_s" in rep


def _round_wall(rnd: dict, key: str = "wall_s") -> float:
    return sum(s.get(key, 0.0) for s in rnd["samples"])


def _fastest(rounds: list, key: str = "wall_s") -> float:
    """Sum over the workload's commands of the fastest time each command
    took in ``rounds``.  Host noise only ever adds time, so the fastest
    sample is the steadiest estimate of the program's own cost."""
    return sum(min((r["samples"][k][key] for r in rounds
                    if _ok(r["samples"][k])), default=0.0)
               for k in range(len(rounds[0]["samples"])))


def _load(path: str):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        return raw, json.loads(raw)
    except (OSError, ValueError):
        return None, None


def check_outputs(cmds: list, rounds: list, seed: int, runner: Runner) -> list:
    """Independent checks, outside the timed region.  Every round's artifact
    of a command must be byte-identical; the first is checked in depth."""
    sys.path.insert(0, os.path.join(runner.root, "src"))
    problems = []
    facts = {}
    for k, c in enumerate(cmds):
        raws = [_load(r["samples"][k]["artifact"]) for r in rounds
                if _ok(r["samples"][k])]
        if not raws:
            problems.append(f"{' '.join(c.argv)}: no run produced an artifact")
            continue
        raw, art = raws[0]
        if raw is None:
            problems.append(f"{' '.join(c.argv)}: unreadable artifact")
            continue
        if any(other != raw for other, _ in raws[1:]):
            problems.append(f"{' '.join(c.argv)}: artifacts differ between rounds")
        try:
            problems += _check_one(c, art, seed, facts)
        except Exception as exc:  # a check that cannot run is a failed check
            problems.append(f"{' '.join(c.argv)}: check raised {exc!r}")
    try:
        problems += negative_controls(seed, runner)
    except Exception as exc:
        problems.append(f"negative controls raised {exc!r}")
    return problems


def _check_one(c: Command, art: dict, seed: int, facts: dict) -> list:
    if c.kind == "geometry":
        return checks.check_geometry(art, c.params["trials"], seed)
    if c.kind != "hh":
        return checks.check_verify(art, c.params)
    key = (c.params["degree"], c.params["max_p"])
    if key not in facts:
        facts[key] = checks.complex_facts(*key)
    problems = checks.check_hh(art, facts[key])
    got = art.get("results", {}).get("coefficients")
    if got != c.params["coeff"]:
        problems.append(f"hh coefficients {got!r} != {c.params['coeff']!r}")
    return problems


def negative_controls(seed: int, runner: Runner) -> list:
    """Broken inputs the program must reject: a generic sphere configuration
    fails ``geom check`` (exit 1), a sign-flipped Poisson operad fails the
    axiom checker."""
    from knotoperads.operad_core import check_operad_axioms
    problems = []
    cfg = os.path.join(runner.run_dir, "generic.json")
    out = os.path.join(runner.run_dir, "generic-check.json")
    with open(cfg, "w", encoding="utf-8") as fh:
        json.dump(checks.generic_sphere_configuration(seed), fh)
    proc = subprocess.run([sys.executable, "-m", "knotoperads.cli", "geom",
                           "check", "--input", cfg, "--output", out],
                          cwd=runner.root, env=runner.env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                          timeout=max(1.0, runner.deadline - time.monotonic()))
    _, art = _load(out)
    verdict = (art or {}).get("results", {}).get("membership", {}).get("passed")
    if proc.returncode != 1 or verdict is not False:
        problems.append(f"negative control: geom check on a generic "
                        f"configuration gave exit {proc.returncode}, "
                        f"passed={verdict!r}")
    if check_operad_axioms(checks.flipped_poisson(2), 3).passed:
        problems.append("negative control: sign-flipped Poisson operad passed "
                        "the axiom check")
    return problems


def end_to_end(rounds: list, setup: list) -> dict:
    rss = [max(s.get("rss_kib", 0) for s in r["samples"]) / 1024.0 for r in rounds]
    return {"wall_s": {"value": _fastest(rounds), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mib": {"value": statistics.median(rss), "unit": "MiB"}}


def per_layer(untraced: list, traced: list, out_path: str, meta: dict) -> dict:
    """Medians over traced rounds of the per-round sums of every layer
    metric; writes the trace file."""
    absent: set = set()
    per_round = []
    for rnd in traced:
        sums: dict = {}
        for s in rnd["samples"]:
            if "by_name" not in s:
                continue
            vals, missing = tracing.layer_values(s["by_name"], s["counters"],
                                                 s["absent"])
            absent |= set(missing)
            for key, v in vals.items():
                sums[key] = sums.get(key, 0) + v
            raw, art = _load(s["artifact"])
            if art is not None:
                counts = {"trials": checks.count_trials(art),
                          "checks": checks.count_checks(art), "bytes": len(raw)}
                for name, _, _, kind, source in tracing.PER_LAYER:
                    if kind == "artifact":
                        sums[name] = sums.get(name, 0) + counts[source]
        per_round.append(sums)
    wall_u = _fastest(untraced)
    wall_t = _fastest(traced)
    run_vals = {"cpu_s": statistics.median(
                    sum(s.get("cpu_s", 0.0) for s in r["samples"]) for r in untraced),
                "raw_wall_s": _fastest(untraced, "raw_wall_s"),
                "overhead_pct": 100.0 * (wall_t / wall_u - 1.0) if wall_u else 0.0}
    metrics = {}
    for name, unit, _, kind, source in tracing.PER_LAYER:
        if kind == "run":
            value = run_vals[source]
        else:
            value = statistics.median(r.get(name, 0) for r in per_round)
        metrics[name] = {"value": value, "unit": unit}
    last = traced[-1]
    spans, totals = [], {}
    for s in last["samples"]:
        for name, rec in s.get("by_name", {}).items():
            tot = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key in tot:
                tot[key] += rec[key]
        if s.get("spans_file") and os.path.exists(s["spans_file"]):
            with open(s["spans_file"], encoding="utf-8") as fh:
                spans.append({"argv": s["argv"], **json.load(fh)})
    trace = dict(meta, untraced_rounds=len(untraced), traced_rounds=len(traced),
                 untraced_wall_s=wall_u, traced_wall_s=wall_t,
                 reference_probe_s=REFERENCE_PROBE_S,
                 median_probe_s=statistics.median(
                     s["probe_s"] for r in untraced + traced
                     for s in r["samples"] if "probe_s" in s),
                 overhead_pct=run_vals["overhead_pct"],
                 absent=sorted(absent), metrics=metrics,
                 last_round_by_span=totals, last_round_spans=spans)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(trace, fh, separators=(",", ":"))
    if absent:
        print(f"absent (reported as 0): {sorted(absent)}", file=sys.stderr)
    print(f"trace: {out_path}, overhead {run_vals['overhead_pct']:.1f}% "
          f"over {len(traced)} traced rounds", file=sys.stderr)
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "knotoperads", "cli.py")):
        print("error: run from the root of a knotoperads checkout "
              "(src/knotoperads/cli.py not found)", file=sys.stderr)
        return 2
    os.environ.update(PIN)      # the checks below import numpy in this process
    started = time.monotonic()
    run_dir = os.path.join(OUT, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    runner = Runner(root, run_dir, started + RUN_BUDGET_S + 20.0)
    cmds = workload(args.workload, args.seed)
    try:
        warm = runner.sample(["--version"])   # compiles bytecode, warms file cache
        if "wall_s" not in warm:
            raise Fatal(f"the CLI does not start: {warm.get('stderr', '')}")
        runner.setup.clear()
        for _ in range(SETUP_PROBES):
            runner.sample(["--version"])
        # measured loop: stop when the next round (or untraced+traced pair)
        # would end more than half a round past --seconds
        rounds, t0 = [], time.monotonic()
        unit = 2 if args.trace else 1
        while True:
            for j in range(unit):
                rounds.append(runner.round(cmds, len(rounds), trace=j == 1))
            step = statistics.median(
                sum(r["elapsed"] for r in rounds[i:i + unit])
                for i in range(0, len(rounds), unit))
            elapsed = time.monotonic() - t0
            if elapsed + step / 2 >= args.seconds or \
                    elapsed + step >= RUN_BUDGET_S:
                break
        attempted = sum(len(r["samples"]) for r in rounds)
        failed = sum(not _ok(s) for r in rounds for s in r["samples"])
        for r in rounds:
            for s in r["samples"]:
                if not _ok(s):
                    print(f"failed: {s.get('argv')} rc={s.get('rc')} "
                          f"{s.get('stderr', '')}", file=sys.stderr)
        problems = check_outputs(cmds, rounds, args.seed, runner)
        for p in problems:
            print(f"check: {p}", file=sys.stderr)
        untraced = [r for r in rounds if not r["trace"]]
        if args.trace:
            meta = {"workload": args.workload, "seed": args.seed,
                    "commands": [c.argv for c in cmds],
                    "python": sys.version.split()[0], "nproc": os.cpu_count(),
                    "pin": PIN}
            metrics = per_layer(untraced, [r for r in rounds if r["trace"]],
                                os.path.join(OUT, f"trace-{args.workload}-"
                                                  f"seed{args.seed}.json"), meta)
        else:
            metrics = end_to_end(untraced, runner.setup)
    except Fatal as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(f"{args.workload}: {len(rounds)} rounds in "
          f"{time.monotonic() - started:.1f}s, round wall_s "
          f"{[round(_round_wall(r), 3) for r in rounds]} (unscaled "
          f"{[round(_round_wall(r, 'raw_wall_s'), 3) for r in rounds]})",
          file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
