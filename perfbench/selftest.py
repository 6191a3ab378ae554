"""Self-test of the benchmark's output checks and metric tables.

Usage, from the root of a source checkout (about 15 s):

    python3 perfbench/selftest.py

It runs the CLI once for an integral hh table and a short geometry
battery, shows that the checks accept those artifacts and reject each
corruption (a rank off by one, a dropped torsion factor, a wrong dimension,
a failed trial, a short trial count, a recorded failure), checks that
BENCHMARK.json names exactly the metrics the benchmark prints, and that
run.py refuses to run where there is no program to measure.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
BENCH = os.path.join(ROOT, "perfbench")
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import tracer  # noqa: E402

FAILURES = []


def expect(label: str, ok: bool) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {label}")
    if not ok:
        FAILURES.append(label)


def cli(*argv) -> dict:
    out = os.path.join(BENCH, "out", "selftest-artifact.json")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    subprocess.run([sys.executable, "-m", "knotoperads.cli", *argv,
                    "--output", out], cwd=ROOT, env=env, check=True,
                   stderr=subprocess.DEVNULL)
    with open(out, encoding="utf-8") as fh:
        art = json.load(fh)
    os.remove(out)
    return art


def corrupted(art: dict, edit) -> dict:
    bad = copy.deepcopy(art)
    edit(bad)
    return bad


def entry(art: dict, p: int, q: int) -> dict:
    return next(e for e in art["results"]["entries"] if (e["p"], e["q"]) == (p, q))


def test_hh() -> None:
    art = cli("hh", "--degree", "2", "--max-p", "7", "--coeff", "integral")
    facts = checks.complex_facts(2, 7)
    expect("hh integral n=2: pristine artifact passes",
           checks.check_hh(art, facts) == [])

    def rank_up(a):
        entry(a, 5, 6)["rank"] += 1

    def drop_torsion(a):
        entry(a, 6, 8)["torsion"] = []

    def dim_up(a):
        entry(a, 4, 6)["dim"] += 1

    def extra_torsion(a):
        entry(a, 5, 8)["torsion"] = [3]

    for label, edit in [("rank off by one", rank_up),
                        ("dropped torsion factor", drop_torsion),
                        ("wrong dimension", dim_up),
                        ("invented torsion factor", extra_torsion)]:
        expect(f"hh integral n=2: {label} rejected",
               checks.check_hh(corrupted(art, edit), facts) != [])
    rational = cli("hh", "--degree", "3", "--max-p", "7")
    facts3 = checks.complex_facts(3, 7)
    expect("hh rational n=3: pristine artifact passes",
           checks.check_hh(rational, facts3) == [])

    def diagonal(a):
        entry(a, 6, 9)["rank"] = 1

    expect("hh rational n=3: Bar-Natan diagonal violation rejected",
           checks.check_hh(corrupted(rational, diagonal), facts3) != [])


def test_verify() -> None:
    art = cli("verify", "geometry", "--trials", "10", "--seed", "5")
    expect("verify geometry: pristine artifact passes",
           checks.check_geometry(art, 10, 5) == [])

    def failed_trial(a):
        s = a["results"]["membership_and_closure"][3]
        s["failed_trials"], s["passed"] = 1, False

    def short_trials(a):
        a["results"]["disks"][1]["trials"] = 9

    def naturality_failure(a):
        a["results"]["naturality"][2]["failures"] = [{"trial": 0}]

    for label, edit in [("failed trial", failed_trial),
                        ("short trial count", short_trials),
                        ("recorded failure", naturality_failure)]:
        expect(f"verify geometry: {label} rejected",
               checks.check_geometry(corrupted(art, edit), 10, 5) != [])
    expect("verify geometry: wrong seed rejected",
           checks.check_geometry(art, 10, 6) != [])
    alg = cli("verify", "s2-iso", "--max-level", "4")
    expect("verify s2-iso: pristine artifact passes",
           checks.check_verify(alg, {"max_level": 4}) == [])

    def not_passed(a):
        a["results"]["passed"] = False
        a["results"]["failures"] = ["x"]

    expect("verify s2-iso: failed report rejected",
           checks.check_verify(corrupted(alg, not_passed), {"max_level": 4}) != [])


def test_negative_controls() -> None:
    from knotoperads.operad_core import check_operad_axioms
    from knotoperads.poisson import PoissonOperad
    expect("flipped-sign Poisson operad fails the axiom check",
           not check_operad_axioms(checks.flipped_poisson(3), 3).passed)
    expect("unflipped Poisson operad passes the same check",
           check_operad_axioms(PoissonOperad(3), 3).passed)


def test_metric_tables() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    want = [{"name": n, "unit": u, "better": b}
            for n, u, b, _, _ in tracer.PER_LAYER]
    expect("BENCHMARK.json per_layer matches tracer.PER_LAYER",
           spec["per_layer"] == want)
    expect("BENCHMARK.json end_to_end names match run.py",
           [m["name"] for m in spec["end_to_end"]]
           == ["wall_s", "setup_s", "peak_rss_mib"])


def test_bare_directory() -> None:
    bare = os.path.join(BENCH, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "hh-rational", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], cwd=bare, capture_output=True,
                          text=True, timeout=60)
    shutil.rmtree(bare, ignore_errors=True)
    expect("run.py without a program exits non-zero and prints no result",
           proc.returncode != 0 and proc.stdout.strip() == "")


if __name__ == "__main__":
    os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
    test_metric_tables()
    test_negative_controls()
    test_hh()
    test_verify()
    test_bare_directory()
    print(f"{len(FAILURES)} failed")
    sys.exit(1 if FAILURES else 0)
