"""Exit-code contract and artifact reproducibility of the command line."""

import contextlib
import hashlib
import io
import json
import math
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from knotoperads import __version__, cli, geometry, hochschild, poisson, trees
from knotoperads.cli import (MAX_COSIMPLICIAL_LEVEL, MAX_OPERAD_ARITY,
                              MAX_S2_ISO_LEVEL, main)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def artifact(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    return code, json.loads(out)


def _random_sphere(rng, n):
    return geometry.SphereConfiguration(3, n, geometry._sphere_rows(rng, (), n, 3))


def _blas() -> str:
    """The failure message of the battery goldens.  The four-consistency
    residuals come out of matmuls, so the digests depend on the BLAS numpy
    dispatches to, not only on the Python and numpy versions."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy < 1.25 only prints its configuration
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            np.show_config()
        blas = buf.getvalue()
    return f"battery digest changed; numpy {np.__version__}, BLAS: {blas}"


class TestHH:
    def test_json_artifact_envelope(self, capsys):
        code, art = artifact(capsys, "hh", "--degree", "2", "--max-p", "3")
        assert code == 0
        assert art["tool"] == "knotoperads"
        assert art["version"] == __version__
        assert art["command"] == "hh"
        assert art["parameters"]["degree"] == 2
        assert "seed" in art["parameters"]
        ranks = {(e["p"], e["q"]): e["rank"] for e in art["results"]["entries"]}
        assert ranks[(2, 2)] == 1

    def test_degree_zero_is_usage_error(self, capsys):
        code, _, err = run(capsys, "hh", "--degree", "0")
        assert code == 2
        assert "error" in err

    def test_bound_exceeded_is_resource_error(self, capsys):
        code, _, _ = run(capsys, "hh", "--degree", "2", "--max-p", "9")
        assert code == 3

    def test_full_and_normalized_conflict(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["hh", "--degree", "2", "--normalized", "--full"])
        assert exc.value.code == 2

    def test_csv_embeds_provenance_header(self, capsys):
        code, out, _ = run(capsys, "hh", "--degree", "2", "--max-p", "3",
                           "--format", "csv")
        assert code == 0
        head = out.splitlines()
        assert head[0] == f"# tool: knotoperads {__version__}"
        assert head[1] == "# command: hh"
        assert "q\\p" in out  # grid layout from the table writer

    def test_untimed_artifact_has_no_stages(self, capsys):
        # without --timings the results are the deterministic table alone,
        # pinned to the digest the per-entry assembly gave
        args = ["hh", "--degree", "3", "--max-p", "6"]
        code, out, _ = run(capsys, *args)
        assert code == 0
        results = json.loads(out)["results"]
        assert "stages" not in results
        assert all("seconds" not in e for e in results["entries"])
        assert hashlib.sha256(json.dumps(results, sort_keys=True).encode()
                              ).hexdigest() == \
            "ab2ffb461a17715187f068207f27fd0432b836becf604366cb5ed97124eb357f"
        assert run(capsys, *args)[1] == out

    @pytest.mark.parametrize("coeff", ["rational", "integral"])
    def test_timings_stage_breakdown(self, capsys, coeff):
        args = ["hh", "--degree", "2", "--max-p", "6", "--coeff", coeff]
        code, timed = artifact(capsys, *args, "--timings")
        assert code == 0
        stages = timed["results"].pop("stages")
        for e in timed["results"]["entries"]:
            assert e.pop("seconds") >= 0
        # apart from the timings it is the untimed artifact
        assert timed == artifact(capsys, *args)[1]
        diffs = stages.pop("differentials")
        caches = stages.pop("caches")
        assert set(stages) == {"levels_s", "proof_s", "assembly_s",
                               "elimination_s"}
        assert all(s >= 0 for s in stages.values())
        # one record per differential the table eliminates: d_out and d_in
        entries = timed["results"]["entries"]
        assert [(d["p"], d["q"]) for d in diffs] == sorted(
            {(p, e["q"]) for e in entries for p in (e["p"], e["p"] - 1)
             if p >= 0})
        # each differential's assembly seconds, which add up to the stage's
        # (each rounded to 6 places)
        seconds = [d.pop("assembly_s") for d in diffs]
        assert all(s >= 0 for s in seconds)
        assert sum(seconds) == pytest.approx(stages["assembly_s"],
                                             abs=1e-6 * (len(diffs) + 1))
        assert sum(seconds) > 0
        # and the seconds of its eliminate_units call, part of the
        # elimination stage (each rounded to 6 places)
        seconds = [d.pop("elimination_s") for d in diffs]
        assert all(s >= 0 for s in seconds)
        assert sum(seconds) <= stages["elimination_s"] + 1e-6 * (len(diffs) + 1)
        c = hochschild.build_complex(2, 6)
        for d in diffs:
            mat = hochschild._differential(c, d["p"], d["q"])
            units, block = hochschild.eliminate_units(mat)
            assert d == {"p": d["p"], "q": d["q"], "rows": mat.rows,
                         "cols": mat.cols, "nnz": sum(map(len, mat.col)),
                         "unit_pivots": units,
                         "leftover": [len(block), len(block[0]) if block else 0]}
        assert sum(d["nnz"] for d in diffs) > 0
        # the memos' hits and misses over the command: from empty memos the
        # misses are the entries they end with, and a second run misses none.
        # _nf_letter does not recurse, so the second run repeats each of its
        # calls as a hit
        memos = {"nf_pair": poisson._nf_pair, "nf_letter": poisson._nf_letter}
        assert set(caches) == set(memos)
        for f in memos.values():
            f.cache_clear()
        first = artifact(capsys, *args, "--timings")[1]["results"]["stages"]["caches"]
        for name, f in memos.items():
            assert first[name]["misses"] == f.cache_info().currsize > 0
            assert first[name]["hits"] > 0
        again = artifact(capsys, *args, "--timings")[1]["results"]["stages"]["caches"]
        assert again["nf_pair"]["misses"] == again["nf_letter"]["misses"] == 0
        assert again["nf_letter"]["hits"] == sum(first["nf_letter"].values())

    def test_elimination_seconds_only_with_timings(self, capsys):
        # each differential record carries the time of its own elimination
        # under --timings; the default artifact names no such key
        args = ["hh", "--degree", "3", "--max-p", "5", "--coeff", "integral"]
        code, out, _ = run(capsys, *args)
        assert code == 0 and "elimination_s" not in out
        code, timed = artifact(capsys, *args, "--timings")
        assert code == 0
        diffs = timed["results"]["stages"]["differentials"]
        assert diffs and all(d["elimination_s"] >= 0 for d in diffs)
        assert run(capsys, *args)[1] == out

    @pytest.mark.parametrize("fmt", ["csv", "text"])
    def test_timings_need_json(self, capsys, tmp_path, monkeypatch, fmt):
        # csv and text carry no stage breakdown, so asking for one is bad
        # input, found before the table is built, and nothing is written
        monkeypatch.setattr(hochschild, "hh_table", None)
        out = tmp_path / "table.out"
        code, stdout, err = run(capsys, "hh", "--degree", "2", "--max-p", "4", "--format",
                                fmt, "--timings", "--output", str(out))
        assert code == 2 and stdout == "" and not out.exists()
        assert "--timings needs --format json" in err

    def test_integral_text_run(self, capsys):
        code, out, _ = run(capsys, "hh", "--degree", "2", "--max-p", "4",
                           "--coeff", "integral", "--format", "text")
        assert code == 0
        assert "rank=" in out


class TestVerify:
    def test_s2_iso(self, capsys):
        code, art = artifact(capsys, "verify", "s2-iso", "--max-level", "6")
        assert code == 0
        assert art["results"]["passed"]

    def test_s2_iso_at_level_bound(self, capsys):
        # the bound case runs in tier-1 now that each arrow is taken once per
        # (level, index); one level past it exits 3 (test_level_bound_exceeded)
        code, art = artifact(capsys, "verify", "s2-iso", "--max-level",
                             str(MAX_S2_ISO_LEVEL))
        assert code == 0
        assert art["results"]["passed"] and art["results"]["checks"] == 3688

    def test_operad_axioms_poisson(self, capsys):
        code, art = artifact(capsys, "verify", "operad-axioms", "--operad",
                             "poisson", "--degree", "2", "--max-arity", "3")
        assert code == 0
        assert art["results"]["failures"] == []

    def test_operad_axioms_choose_two(self, capsys):
        code, art = artifact(capsys, "verify", "operad-axioms", "--operad",
                             "choose-two", "--max-arity", "4")
        assert code == 0
        assert art["results"]["passed"]

    def test_cosimplicial_sphere(self, capsys):
        code, art = artifact(capsys, "verify", "cosimplicial", "--operad",
                             "sphere", "--degree", "3", "--max-level", "4")
        assert code == 0
        assert art["results"]["checks"] > 0

    def test_cosimplicial_poisson(self, capsys):
        code, art = artifact(capsys, "verify", "cosimplicial", "--operad",
                             "poisson", "--degree", "2", "--max-level", "3")
        assert code == 0
        assert art["results"]["passed"]

    def test_geometry_battery_passes(self, capsys):
        code, art = artifact(capsys, "verify", "geometry", "--trials", "5",
                             "--seed", "11")
        assert code == 0
        res = art["results"]
        assert res["passed"]
        assert len(res["membership_and_closure"]) == 3 + 6 * 3
        assert all(not r["failures"] for r in res["naturality"])

    def test_geometry_battery_fails_on_impossible_tolerance(self, capsys):
        code, art = artifact(capsys, "verify", "geometry", "--trials", "3",
                             "--tol", "1e-22")
        assert code == 1
        assert not art["results"]["passed"]

    def test_geometry_battery_golden(self):
        # the battery's bytes are pinned: per-trial streams, the stacked
        # Gauss map and the kernels must keep every float of the reference
        # implementation, on every Python and numpy CI runs.  They are not
        # independent of the BLAS: the four-consistency residuals come out
        # of matmuls, so a BLAS kernel that rounds those products otherwise
        # changes this digest (tests/test_geometry.py::TestFourBatchIndependence
        # checks that a residual does not depend on its batch)
        battery = cli._geometry_battery(20, 1e-9, 7, 0.125)
        digest = hashlib.sha256(json.dumps(battery, sort_keys=True).encode()).hexdigest()
        assert battery["passed"]
        assert digest == "1163f2868add8f2e10fd04edc81d4dd13d3bb6971a2da9cba3d538904d0f3dd3", _blas()

    def test_golden_failure_names_the_blas(self, monkeypatch):
        # the message is built only when a digest differs, so build it here,
        # and through the printed configuration of numpy < 1.25
        message = _blas()
        assert np.__version__ in message
        assert message.split("BLAS: ", 1)[1].strip()
        monkeypatch.setattr(np, "show_config",
                            lambda: print("blas_opt_info: openblas"))
        assert _blas().endswith("BLAS: blas_opt_info: openblas\n")

    def test_geometry_battery_golden_across_chunks(self):
        # 120 trials cross the 50-trial chunk boundary twice in every
        # membership and closure suite, and once in each disk suite
        battery = cli._geometry_battery(120, 1e-9, 7, 0.125)
        digest = hashlib.sha256(json.dumps(battery, sort_keys=True).encode()).hexdigest()
        assert battery["passed"]
        assert digest == "31bbb3c2ad25d5d315cd4e94ddc93ffc19d0519eb41400847bd8245e823e0492", _blas()

    def test_geometry_battery_builds_each_stream_once(self, monkeypatch):
        # the 21 membership and closure suites share one stream per trial
        # index (200); naturality (7 x 25) and the disks (2 x 100) build their
        # own; no trial of seed 1 is redrawn.  The sphere check builds no
        # SphereConfiguration: its levels are row stacks.
        streams, trial_rng = [], geometry._trial_rng
        monkeypatch.setattr(geometry, "_trial_rng",
                            lambda seed, k: streams.append(k) or trial_rng(seed, k))
        monkeypatch.setattr(geometry, "_PREFIXES", {})
        built, init = [], geometry.SphereConfiguration.__init__

        def counted(self, *args, **kwargs):
            built.append(args[:2])
            init(self, *args, **kwargs)

        monkeypatch.setattr(geometry.SphereConfiguration, "__init__", counted)
        assert cli._geometry_battery(200, 1e-9, 1, 0.125)["passed"]
        assert len(streams) == 575 and built == []

    def test_geometry_battery_decides_each_distinct_stack_once(self, monkeypatch):
        # per m and trial: 28 distinct 4-subset stacks of 35 (15 at n = 6,
        # one per n = 4 shape, 8 of ((* *) (* *) * *)'s 15) and 46 distinct
        # loops of 60 (20; 4, 3, 4, 2, 3; 10 of 20)
        subsets, loops = Counter(), Counter()
        four, three = geometry._four_residuals, geometry._three_residuals
        monkeypatch.setattr(geometry, "_four_residuals", lambda edges: subsets.update(
            {edges.shape[-1]: len(edges)}) or four(edges))
        monkeypatch.setattr(geometry, "_three_residuals", lambda vecs, tol: loops.update(
            {vecs.shape[-1]: len(vecs)}) or three(vecs, tol))
        assert cli._geometry_battery(200, 1e-9, 1, 0.125)["passed"]
        assert subsets == {3: 5600, 4: 5600, 5: 5600}
        assert loops == {3: 9200, 4: 9200, 5: 9200}

    @pytest.mark.parametrize("argv", [
        ["verify", "geometry", "--eps", "0.5"],
        ["verify", "geometry", "--trials", "2000", "--eps", "0.5"],
        ["verify", "geometry", "--eps", "0"],
        ["verify", "geometry", "--eps", "-0.1"],
        ["verify", "geometry", "--eps", "nan"],
        ["verify", "geometry", "--eps", "inf"],
        ["verify", "geometry", "--eps", "wide"],
        # at and below 2**-53 the sampler's on-axis shell point 1 - eps/2
        # rounds onto the endpoint: these used to run the membership and
        # closure suites, then exit 2 on a pair with no direction
        ["verify", "geometry", "--eps", "1.1e-16"],
        ["verify", "geometry", "--eps", "1e-17"],
        ["verify", "geometry", "--eps", repr(2.0 ** -53)],
        ["verify", "geometry", "--seed", "-1"],
        ["verify", "geometry", "--seed", "1.5"],
        ["verify", "cosimplicial", "--operad", "sphere", "--seed", "-1"],
        ["geom", "knot-eval", "--seed", "-1"],
        ["geom", "disks-compare", "--seed", "-1"],
    ])
    def test_bad_eps_or_seed_exits_before_any_suite(self, capsys, monkeypatch, argv):
        # both are usage errors found at parse time, naming the flag; the
        # battery used to run its 21 membership and closure suites first
        def never(*args, **kwargs):
            raise AssertionError("a suite ran on a bad --eps or --seed")

        for name in ("membership_trials", "closure_trials", "check_sphere_cosimplicial",
                     "disks_comparison_trials", "knot_eval"):
            monkeypatch.setattr(geometry, name, never)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert f"argument {argv[-2]}:" in out.err and out.out == ""

    def test_eps_and_seed_domains(self):
        assert cli._eps(repr(geometry.EPS_MAX)) == geometry.EPS_MAX
        assert cli._eps("0.125") == geometry.DEFAULT_EPS
        assert cli._eps("1.2e-16") == 1.2e-16
        floor = math.nextafter(geometry.EPS_MIN, 1.0)
        assert cli._eps(repr(floor)) == floor
        with pytest.raises(ValueError, match=r"\(2\*\*-53, 1/6\]"):
            geometry.check_insertion_naturality(2, 3, 1, eps=geometry.EPS_MIN)
        assert cli._seed("0") == 0 and cli._seed(str(2 ** 70)) == 2 ** 70

    def test_geometry_progress_goes_to_stderr_only(self, capsys, tmp_path):
        args = ["verify", "geometry", "--trials", "20", "--seed", "7"]
        code, out, err = run(capsys, *args)
        assert code == 0
        # one line per membership or closure suite, then one per section
        sections = [f"membership n=6 m={m}" for m in (3, 4, 5)] + [
            f"closure {tree.to_text()} m={m}" for tree in cli._geometry_shapes()
            for m in (3, 4, 5)] + ["naturality", "disks", "cosimplicial"]
        assert [line.split(" done (")[0] for line in err.splitlines()[:-1]] == [
            f"verify geometry: {section}" for section in sections]
        assert "verify geometry:" not in out and " done (" not in out
        results = json.loads(out)["results"]
        digest = hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()
        assert digest == "1163f2868add8f2e10fd04edc81d4dd13d3bb6971a2da9cba3d538904d0f3dd3", _blas()
        path = tmp_path / "battery.json"
        assert main(args + ["--output", str(path)]) == 0
        assert path.read_text(encoding="utf-8") == out

    @pytest.mark.parametrize("argv, step, last, digest", [
        (["operad-axioms", "--operad", "poisson", "--degree", "3", "--max-arity", "4"],
         "arity", 4, "b6f1ceb2ed8926c7b461d41bb1f3248187404e6c53dd028310b12e8b89dcbd55"),
        (["operad-axioms", "--operad", "choose-two", "--max-arity", "4"],
         "arity", 4, "263190030ed1ecbf711b52cf4126e275541d13ca52e20ad8445487fbc682281d"),
        (["cosimplicial", "--operad", "poisson", "--degree", "2", "--max-level", "4"],
         "level", 4, "d128d5bdce1f4807d28442279c7607ac4b17ef468463f072747865dde0756dcc"),
        (["cosimplicial", "--operad", "sphere", "--degree", "3", "--max-level", "4"],
         "level", 4, "d128d5bdce1f4807d28442279c7607ac4b17ef468463f072747865dde0756dcc"),
    ])
    def test_check_progress_goes_to_stderr_only(self, capsys, tmp_path, argv, step,
                                                last, digest):
        # one line per arity or level, from 0 up; the artifact is unchanged
        args = ["verify"] + argv
        code, out, err = run(capsys, *args)
        assert code == 0
        assert [line.split(" done (")[0] for line in err.splitlines()[:-1]] == [
            f"verify {argv[0]}: {step} {k}" for k in range(last + 1)]
        assert " done (" not in out
        results = json.loads(out)["results"]
        assert hashlib.sha256(json.dumps(results, sort_keys=True).encode()
                              ).hexdigest() == digest
        path = tmp_path / "check.json"
        assert main(args + ["--output", str(path)]) == 0
        assert path.read_text(encoding="utf-8") == out

    @pytest.mark.parametrize("argv, checks, digest", [
        (["s2-iso", "--max-level", "8"],
         596, "0cb1bed5b151665491d90467520903f33f601607f9bf4e22b47817f0e359eb9f"),
        (["operad-axioms", "--operad", "choose-two", "--max-arity", "5"],
         336, "e26bfd76dcdca108480ad5838d2a662cea73c567752efba3b0cad71d27813db1"),
        (["operad-axioms", "--operad", "poisson", "--degree", "3", "--max-arity", "5"],
         7542, "74a3bb1a0a92b43834ed91494d383f5ec3e57fa3a9eba131cb9250822f7e745d"),
        (["cosimplicial", "--operad", "poisson", "--degree", "2", "--max-level", "6"],
         238, "71a050db19cae2dd9126f0a26fceae37aea6c2df83ab2faaa562a3458c6ff425"),
    ])
    def test_benchmark_size_results_pinned(self, capsys, argv, checks, digest):
        # the four commands of the verify-algebra benchmark workload, at its
        # sizes: the Poisson tables and the tree contractions behind them
        # keep every byte
        code, out, _ = run(capsys, "verify", *argv)
        assert code == 0
        results = json.loads(out)["results"]
        assert results["checks"] == checks
        assert hashlib.sha256(json.dumps(results, sort_keys=True).encode()
                              ).hexdigest() == digest

    def test_same_config_byte_identical(self, capsys):
        args = ["verify", "geometry", "--trials", "5", "--seed", "42"]
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    @pytest.mark.parametrize("argv", [
        ["verify", "geometry", "--trials", "0"],
        ["verify", "geometry", "--trials", "-3"],
        ["geom", "disks-compare", "--trials", "0"],
        ["geom", "disks-compare", "--trials", "-2"],
        ["verify", "cosimplicial", "--max-level", "0"],
        ["verify", "operad-axioms", "--operad", "choose-two", "--max-arity", "0"],
        ["verify", "operad-axioms", "--operad", "associative", "--max-arity", "0"],
        ["verify", "operad-axioms", "--operad", "poisson", "--max-arity", "0"],
    ])
    def test_empty_run_is_usage_error(self, capsys, argv):
        # zero trials or levels check nothing, and the laws up to arity 0 a
        # check or two, so they must not report PASS
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert f"argument {argv[-2]}:" in out.err and out.out == ""

    @pytest.mark.parametrize("argv", [
        ["verify", "geometry", "--probes", "20"],
        ["geom", "check", "--input", "cfg.json", "--probes", "20"],
        ["geom", "compose", "--input", "comp.json", "--probes", "20"],
        ["geom", "knot-eval", "--probes", "20"],
        ["geom", "check", "--input", "cfg.json", "--seed", "0"],
        ["geom", "compose", "--input", "comp.json", "--seed", "0"],
    ])
    def test_removed_probe_options_are_usage_errors(self, capsys, argv):
        # four-consistency is decided exactly: nothing is left to sample
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("operad", ["choose-two", "poisson"])
    def test_negative_arity_is_usage_error(self, capsys, operad):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "operad-axioms", "--operad", operad,
                  "--max-arity", "-1"])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert "argument --max-arity:" in out.err and out.out == ""

    @pytest.mark.parametrize("argv", [
        ["verify", "s2-iso", "--max-level", str(MAX_S2_ISO_LEVEL + 1)],
        ["verify", "s2-iso", "--max-level", "60"],
        ["verify", "cosimplicial", "--max-level",
         str(MAX_COSIMPLICIAL_LEVEL + 1)],
        ["verify", "cosimplicial", "--operad", "sphere", "--degree", "3",
         "--max-level", "40"],
    ])
    def test_level_bound_exceeded(self, capsys, argv):
        # the bound is checked before any work, so these return at once
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert "level bound" in err and out == ""

    def test_sphere_dimension_bound(self, capsys, tmp_path, monkeypatch):
        # the ambient dimension is bounded before any configuration is drawn
        bound = geometry.MAX_FOUR_DIM
        out = tmp_path / "cos.json"
        code, _, _ = run(capsys, "verify", "cosimplicial", "--operad", "sphere",
                         "--degree", str(bound), "--max-level", "3",
                         "--output", str(out))
        assert code == 0 and out.exists()
        monkeypatch.setattr(geometry, "_sphere_rows", None)
        for dim in (bound + 1, 3000000000):
            out = tmp_path / f"cos{dim}.json"
            code, _, err = run(capsys, "verify", "cosimplicial", "--operad",
                               "sphere", "--degree", str(dim), "--max-level", "3",
                               "--output", str(out))
            assert code == 3 and "dimension bound" in err
            assert not out.exists()

    @pytest.mark.parametrize("operad", ["choose-two", "associative", "poisson"])
    def test_arity_bound(self, capsys, tmp_path, monkeypatch, operad):
        # checked before any work, for every operad: past it nothing is
        # built and the command returns at once
        out = tmp_path / "ax.json"
        start = time.monotonic()
        code, _, err = run(capsys, "verify", "operad-axioms", "--operad", operad,
                           "--max-arity", str(MAX_OPERAD_ARITY + 1),
                           "--output", str(out))
        assert code == 3 and "arity bound" in err
        assert not out.exists() and time.monotonic() - start < 1.0
        # the bound case itself runs (bound lowered: arity 7 takes seconds)
        monkeypatch.setattr(cli, "MAX_OPERAD_ARITY", 3)
        code, _, _ = run(capsys, "verify", "operad-axioms", "--operad", operad,
                         "--max-arity", "3", "--output", str(out))
        assert code == 0 and out.exists()
        code, _, _ = run(capsys, "verify", "operad-axioms", "--operad", operad,
                         "--max-arity", "4")
        assert code == 3

    @pytest.mark.parametrize("degree", ["0", "-3", "1"])
    @pytest.mark.parametrize("suite", [["operad-axioms", "--max-arity", "3"],
                                       ["cosimplicial", "--max-level", "3"]])
    def test_poisson_degree_domain(self, capsys, tmp_path, suite, degree):
        # the same domain as hh: a bracket degree below 2 is bad input
        out = tmp_path / "bad.json"
        code, _, err = run(capsys, "verify", suite[0], "--operad", "poisson",
                           "--degree", degree, *suite[1:], "--output", str(out))
        assert code == 2 and "bracket degree must be at least 2" in err
        assert not out.exists()
        code, _, err = run(capsys, "hh", "--degree", degree)
        assert code == 2 and "bracket degree must be at least 2" in err

    def test_sphere_degree_is_a_dimension(self, capsys):
        # for the sphere operad --degree is the ambient dimension, and R^1
        # is a valid one
        code, art = artifact(capsys, "verify", "cosimplicial", "--operad",
                             "sphere", "--degree", "1", "--max-level", "3")
        assert code == 0 and art["results"]["passed"]

    @pytest.mark.parametrize("degree", ["0", "-1"])
    def test_sphere_bad_dimension_is_bad_input(self, capsys, tmp_path,
                                               monkeypatch, degree):
        # m is checked before any configuration is drawn, as every sampler
        # checks it, not found by a unit-norm check or by numpy
        monkeypatch.setattr(geometry, "_sphere_rows", None)
        out = tmp_path / "cos.json"
        code, _, err = run(capsys, "verify", "cosimplicial", "--operad",
                           "sphere", "--degree", degree, "--max-level", "3",
                           "--output", str(out))
        assert code == 2 and f"bad ambient dimension m={degree}" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["verify", "geometry"],
                                      ["geom", "disks-compare"]])
    def test_trial_bound(self, capsys, tmp_path, monkeypatch, argv):
        out = tmp_path / "trials.json"
        runners = ["membership_trials", "closure_trials", "disks_comparison_trials"]
        for name in runners:
            monkeypatch.setattr(geometry, name, None)  # never reached
        code, _, err = run(capsys, *argv, "--trials", str(cli.MAX_TRIALS + 1),
                           "--output", str(out))
        assert code == 3 and "trial bound" in err and not out.exists()
        monkeypatch.undo()
        # the bound case runs (bound lowered, so that no test runs long)
        monkeypatch.setattr(cli, "MAX_TRIALS", 2)
        code, _, _ = run(capsys, *argv, "--trials", "2", "--output", str(out))
        assert code == 0 and out.exists()
        code, _, err = run(capsys, *argv, "--trials", "3")
        assert code == 3 and "trial bound" in err


class TestGeomCheck:
    def test_point_configuration_file(self, capsys, tmp_path):
        cfg = {"m": 3, "n": 4,
               "points": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0.2, 0.3, 0.9]]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, art = artifact(capsys, "geom", "check", "--input", str(path),
                             "--tol", "1e-9")
        assert code == 0
        assert art["results"]["membership"]["passed"]
        assert art["results"]["configuration"]["n"] == 4

    def test_point_count_must_match_n(self, capsys, tmp_path):
        # a declared n must count the points, as it must count a sphere
        # configuration's pairs; without n the count is the points'
        points = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0.2, 0.3, 0.9]]
        path = tmp_path / "cfg.json"
        out = tmp_path / "out.json"
        for n in (7, 3, 0):
            path.write_text(json.dumps({"m": 3, "n": n, "points": points}))
            code, _, err = run(capsys, "geom", "check", "--input", str(path),
                               "--output", str(out))
            assert code == 2 and f"n={n}, got 4 points" in err
            assert not out.exists()
        path.write_text(json.dumps({"m": 3, "points": points}))
        code, art = artifact(capsys, "geom", "check", "--input", str(path))
        assert code == 0
        assert art["results"]["configuration"]["n"] == 4

    def test_underflowing_difference_is_bad_input(self, capsys, tmp_path):
        # the difference's norm underflows to zero: a non-finite row, exit 2
        cfg = {"m": 2, "n": 2, "points": [[1e-200, 1e-200], [0, 0]]}
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(cfg))
        code, _, err = run(capsys, "geom", "check", "--input", str(path))
        assert code == 2 and "non-finite" in err
        # the same for two sample times 1e-300 apart on a curve
        code, _, err = run(capsys, "geom", "knot-eval", "--at=0,1e-300,0.5")
        assert code == 2 and "non-finite" in err

    def test_sphere_configuration_file(self, capsys, tmp_path):
        cfg = {"m": 3, "n": 2, "u": {"1,2": [0.0, 0.0, 1.0]}}
        path = tmp_path / "sphere.json"
        path.write_text(json.dumps(cfg))
        code, art = artifact(capsys, "geom", "check", "--input", str(path))
        assert code == 0  # below both arities: vacuous pass

    def test_generic_sphere_input_fails(self, capsys, tmp_path):
        s = _random_sphere(np.random.default_rng(3), 4)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(s.to_json_obj()))
        code, art = artifact(capsys, "geom", "check", "--input", str(path))
        assert code == 1
        assert not art["results"]["membership"]["passed"]

    def test_dimension_bound_exceeded(self, capsys, tmp_path):
        m = geometry.MAX_FOUR_DIM + 1
        axis = [1.0] + [0.0] * (m - 1)
        cfg = {"m": m, "n": 4, "u": {f"{i},{j}": axis for i in range(1, 5)
                                     for j in range(i + 1, 5)}}
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run(capsys, "geom", "check", "--input", str(path))
        assert code == 3
        assert "dimension bound" in err and out == ""

    def test_point_bound(self, capsys, tmp_path):
        # at the bound the report lists all C(32, 4) subsets; one more point
        # exits 3 before the Gauss map or either check runs
        bound = geometry.MAX_REPORT_POINTS
        rng = np.random.default_rng(17)
        for n in (bound, bound + 1):
            path = tmp_path / f"points{n}.json"
            path.write_text(json.dumps(
                {"m": 3, "points": rng.uniform(-1, 1, (n, 3)).tolist()}))
            out = tmp_path / f"report{n}.json"
            code, _, err = run(capsys, "geom", "check", "--input", str(path),
                               "--output", str(out))
            if n == bound:
                assert code == 0
                report = json.loads(out.read_text())["results"]["membership"]
                assert len(report["four_consistent"]["subsets"]) == 35960
            else:
                assert code == 3 and "point bound" in err
                assert not out.exists()
        s = _random_sphere(rng, bound + 1)
        path = tmp_path / "sphere.json"
        path.write_text(json.dumps(s.to_json_obj()))
        code, out, err = run(capsys, "geom", "check", "--input", str(path))
        assert code == 3 and "point bound" in err and out == ""

    def test_point_bound_before_pair_arrays(self, capsys, tmp_path):
        # a points file far past the bound exits 3 having allocated memory
        # linear in its points, none for its C(n, 2) = 12.5 million pairs
        n = 5000
        path = tmp_path / "many.json"
        path.write_text(json.dumps({"m": 3, "n": n, "points": np.random.default_rng(
            3).uniform(-1, 1, (n, 3)).tolist()}))
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "geom", "check", "--input", str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3 and "point bound" in err and out == ""
        assert peak < 16 * 2 ** 20

    def test_four_work_bound(self, capsys, tmp_path, monkeypatch):
        # C(n, 4) C(m+2, 3)^2 coefficient cells: at the bound the report is
        # written; one cell more exits 3 before either check runs
        s = _random_sphere(np.random.default_rng(5), 5)
        path = tmp_path / "sphere.json"
        path.write_text(json.dumps(s.to_json_obj()))
        cells = 5 * 10 ** 2                   # C(5, 4) C(3 + 2, 3)^2
        for bound, want in ((cells, 1), (cells - 1, 3)):
            monkeypatch.setattr(geometry, "MAX_FOUR_CELLS", bound)
            out = tmp_path / f"report{bound}.json"
            code, _, err = run(capsys, "geom", "check", "--input", str(path),
                               "--output", str(out))
            assert code == want and out.exists() == (want == 1)
        assert "work bound" in err
        monkeypatch.undo()
        # unpatched: 32 points in R^9 take 9.8e8 cells; in R^17 the
        # dimension bound is named first
        rng = np.random.default_rng(6)
        for m, message in ((9, "work bound"), (17, "dimension bound")):
            path = tmp_path / f"points{m}.json"
            path.write_text(json.dumps(
                {"m": m, "points": rng.uniform(-1, 1, (32, m)).tolist()}))
            code, out, err = run(capsys, "geom", "check", "--input", str(path))
            assert code == 3 and message in err and out == ""

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "geom", "check", "--input",
                           str(tmp_path / "nope.json"))
        assert code == 2

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, _ = run(capsys, "geom", "check", "--input", str(path))
        assert code == 2

    @pytest.mark.parametrize("doc", [
        '{"m": 3, "n": 2, "u": [1, 2]}',    # pairs as a list
        '[1]',                              # not an object
        '{"m": 3, "n": 2, "u": {"1,2": [NaN, 0, 0]}}',
        '{"m": 3, "points": [[0, 0, 0], 5]}',
        '{"m": "3", "points": [[0, 0, 0]]}',
        '{"m": 3, "n": 100000000, "u": {}}',
        "[" * 100000 + "]" * 100000,
    ])
    def test_malformed_shape_is_bad_input(self, capsys, tmp_path, doc):
        path = tmp_path / "shape.json"
        path.write_text(doc)
        code, _, err = run(capsys, "geom", "check", "--input", str(path))
        assert code == 2
        assert "error" in err


SPHERE2 = {"m": 3, "n": 2, "u": {"1,2": [0.0, 0.0, 1.0]}}


class TestGeomCompose:
    def test_compose_two_level(self, capsys, tmp_path):
        doc = {"tree": "(* (* *))",
               "inputs": {"": {"m": 3, "n": 2, "u": {"1,2": [0.0, 0.0, 1.0]}},
                          "1": {"m": 3, "n": 2, "u": {"1,2": [1.0, 0.0, 0.0]}}}}
        path = tmp_path / "comp.json"
        path.write_text(json.dumps(doc))
        code, art = artifact(capsys, "geom", "compose", "--input", str(path))
        assert code == 0
        u = art["results"]["configuration"]["u"]
        assert u["1,2"] == [0.0, 0.0, 1.0]
        assert u["1,3"] == [0.0, 0.0, 1.0]
        assert u["2,3"] == [1.0, 0.0, 0.0]

    @pytest.mark.parametrize("doc", [
        {"tree": 5, "inputs": {}},
        {"tree": "(* *)", "inputs": [1]},
        {"tree": "(* *)", "inputs": {"": [1]}},
    ])
    def test_malformed_shape_is_bad_input(self, capsys, tmp_path, doc):
        path = tmp_path / "comp.json"
        path.write_text(json.dumps(doc))
        code, _, _ = run(capsys, "geom", "compose", "--input", str(path))
        assert code == 2

    def test_bad_input_key(self, capsys, tmp_path):
        doc = {"tree": "(* *)", "inputs": {"2": {"m": 3, "n": 2,
               "u": {"1,2": [0.0, 0.0, 1.0]}}}}
        path = tmp_path / "comp.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "geom", "compose", "--input", str(path))
        assert code == 2 and out == ""
        assert ("inputs must be keyed by the internal vertices [()]: "
                "missing vertices [()], extra vertices [(2,)]") in err

    @pytest.mark.parametrize("inputs,message", [
        ({"": SPHERE2, "()": {}}, "keys '' and '()' name the same vertex ()"),
        ({"x": {}}, "'inputs' key 'x' is not a vertex path"),
        ({"": SPHERE2, "1": {}}, "[()]: extra vertices [(1,)]"),
    ])
    def test_vertex_paths_checked(self, capsys, tmp_path, inputs, message):
        # checked against the tree before any configuration is read: {} is
        # not one, and reading it would fail with another message
        path = tmp_path / "comp.json"
        path.write_text(json.dumps({"tree": "(* *)", "inputs": inputs}))
        code, out, err = run(capsys, "geom", "compose", "--input", str(path))
        assert code == 2 and out == ""
        assert message in err


class TestGeomKnotEval:
    def test_seeded_run_reproducible(self, capsys):
        args = ["geom", "knot-eval", "--curve", "trefoil", "--times", "4",
                "--seed", "7"]
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        art = json.loads(out1)
        assert art["parameters"]["seed"] == 7
        assert art["results"]["membership"]["passed"]

    def test_explicit_times_with_repeat(self, capsys):
        code, art = artifact(capsys, "geom", "knot-eval", "--curve", "unknot",
                             "--at=-0.5,0.0,0.0,0.5")
        assert code == 0
        cfg = art["results"]["configuration"]
        assert cfg["pair_directions"]["2,3"] == [0.0, 0.0, -1.0]

    @pytest.mark.parametrize("argv,digest", [
        (["--curve", "trefoil", "--times", "12", "--seed", "3"],
         "a1968887f2416e1d693827b716d3cc39650ef7a7302db9fa4c6d320a9902de86"),
        # repeated times write tangents and the pair directions of the diagonal
        (["--curve", "trefoil", "--at=-0.6,-0.2,-0.2,0.3,0.3,0.3,0.7"],
         "2f4d7ec9cd42787a11da5bc81085757283f30285ea3e213266a5dcd0eca651ef"),
    ])
    def test_golden(self, capsys, argv, digest):
        # the evaluated points, tangents and directions are pinned to the bit
        code, art = artifact(capsys, "geom", "knot-eval", *argv)
        assert code == 0
        assert hashlib.sha256(json.dumps(art["results"], sort_keys=True).encode()
                              ).hexdigest() == digest

    def test_point_bound_before_evaluation(self, capsys, tmp_path, monkeypatch):
        bound = geometry.MAX_REPORT_POINTS
        out = tmp_path / "at-bound.json"
        code, _, _ = run(capsys, "geom", "knot-eval", "--times", str(bound),
                         "--output", str(out))
        assert code == 0
        assert len(json.loads(out.read_text())["results"]["times"]) == bound
        # one more point exits 3 before any time is drawn or evaluated
        monkeypatch.setattr(geometry, "knot_eval", None)
        monkeypatch.setattr(np.random, "default_rng", None)
        at = "--at=" + ",".join(["0.5"] * (bound + 1))
        for args in (["--times", str(bound + 1)], [at]):
            out = tmp_path / "over.json"
            code, _, err = run(capsys, "geom", "knot-eval", *args,
                               "--output", str(out))
            assert code == 3 and "point bound" in err
            assert not out.exists()

    def test_zero_times_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["geom", "knot-eval", "--times", "0"])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert "argument --times:" in out.err and out.out == ""

    @pytest.mark.parametrize("at", ["--at=", "--at= "])
    def test_empty_times_rejected(self, capsys, tmp_path, monkeypatch, at):
        # an empty --at is bad input, not a fall-back to seeded times
        monkeypatch.setattr(np.random, "default_rng", None)
        out = tmp_path / "empty.json"
        code, _, err = run(capsys, "geom", "knot-eval", at, "--output", str(out))
        assert code == 2 and "--at needs at least one time" in err
        assert not out.exists()

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-9"])
    def test_tolerance_must_be_finite_positive(self, capsys, tol):
        with pytest.raises(SystemExit) as exc:
            main(["geom", "knot-eval", "--tol", tol])
        assert exc.value.code == 2


class TestGeomDisksCompare:
    def test_default_tree(self, capsys):
        code, art = artifact(capsys, "geom", "disks-compare", "--tree",
                             "(* (* *))", "--t-min", "1e-6", "--trials", "10")
        assert code == 0
        assert art["results"]["passed"]
        assert art["results"]["max_end_gap"] <= 1e-12

    @pytest.mark.parametrize("dim,digest", [
        pytest.param("3", "4d1968cbe0daab38ad3d5f1eb4337c3414f65ee8b4333400e2fc10147a24d4ba", id="3"),
        pytest.param("4", "1bceac298c4f3f423bea32f55e687465900e85713b9804b70a4f3bd26b2df2d3", id="4"),
    ])
    def test_golden(self, capsys, dim, digest):
        # the sampled disks and both endpoint gaps are pinned to the bit
        code, art = artifact(capsys, "geom", "disks-compare", "--tree",
                             "((* *) (* *))", "--dim", dim)
        assert code == 0
        assert hashlib.sha256(json.dumps(art["results"], sort_keys=True).encode()
                              ).hexdigest() == digest

    def test_deep_tree_rejected(self, capsys):
        code, _, _ = run(capsys, "geom", "disks-compare", "--tree",
                         "((* (* *)) *)", "--trials", "2")
        assert code == 2

    def test_overdeep_tree_text_is_bound_exceeded(self, capsys):
        deep = "(" * 2999 + "(* *)" + ")" * 2999
        code, _, err = run(capsys, "geom", "disks-compare", "--tree", deep,
                           "--trials", "2")
        assert code == 3
        assert "depth bound" in err

    def test_dimension_bound(self, capsys, tmp_path, monkeypatch):
        # at the bound the trials run; above it nothing is drawn
        out = tmp_path / "at-bound.json"
        code, _, _ = run(capsys, "geom", "disks-compare", "--dim",
                         str(geometry.MAX_FOUR_DIM), "--trials", "2", "--output", str(out))
        assert code == 0 and out.exists()
        monkeypatch.setattr(geometry, "_draw_disks", None)
        for dim in (str(geometry.MAX_FOUR_DIM + 1), "3000000000"):
            out = tmp_path / f"over{dim}.json"
            code, _, err = run(capsys, "geom", "disks-compare", "--dim", dim,
                               "--trials", "2", "--output", str(out))
            assert code == 3 and "dimension bound" in err
            assert not out.exists()

    def test_point_bound(self, capsys, tmp_path, monkeypatch):
        # a tree of more than MAX_REPORT_POINTS leaves exits 3 before any
        # disk is drawn, whatever the dimension
        monkeypatch.setattr(geometry, "_draw_disks", None)
        for tree, leaves in (("(" + "* " * 33 + ")", 33), ("(" + "(* *) " * 30 + ")", 60)):
            out = tmp_path / "over.json"
            code, _, err = run(capsys, "geom", "disks-compare", "--tree", tree, "--dim", "1",
                               "--trials", "1", "--output", str(out))
            assert code == 3 and not out.exists()
            assert f"{leaves} points exceed the point bound 32" in err

    def test_zero_dimension_is_bad_input(self, capsys):
        # in R^0 every centre coincides, so no separated sample exists
        code, _, err = run(capsys, "geom", "disks-compare", "--dim", "0",
                           "--trials", "2")
        assert code == 2
        assert "dimension" in err

    @pytest.mark.parametrize("t_min", ["1e-11", "1e-320", "0", "1.5", "nan", "1e-9"])
    def test_t_min_outside_domain_exits_before_any_draw(self, capsys, tmp_path,
                                                        monkeypatch, t_min):
        # below 1e-10 the slid leaves under one vertex may round onto each
        # other: at 1e-15 the default tree used to exit 2 ("points 2 and 3
        # coincide") on seeds 0 and 2, after every draw; below 1e-8 the limit
        # gap of correct disks may exceed --limit-tol (exit 1 at 1e-9 and
        # 1e-10)
        monkeypatch.setattr(geometry, "_draw_disks", None)
        out = tmp_path / "t-min.json"
        with pytest.raises(SystemExit) as exc:
            main(["geom", "disks-compare", "--t-min", t_min, "--output", str(out)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "argument --t-min:" in captured.err and captured.out == ""
        assert not out.exists()
        with pytest.raises(ValueError, match=r"outside \[1e-8, 1\]"):
            geometry.disks_comparison_trials(trees.parse_tree("(* (* *))"), 3, 1,
                                             limit_time=float(t_min))

    @pytest.mark.parametrize("t_min", [repr(geometry.LIMIT_TIME_MIN), None])
    def test_t_min_floor_and_default_run(self, capsys, t_min):
        # at the floor the limit gap stayed inside --limit-tol on every seed
        # scanned, so both runs pass
        argv = ["geom", "disks-compare", "--trials", "20", "--seed", "2"]
        if t_min is not None:
            argv += ["--t-min", t_min]
        code, art = artifact(capsys, *argv)
        assert code == 0 and art["results"]["passed"]
        assert art["parameters"]["t_min"] == float(t_min or geometry.LIMIT_TIME)

    @pytest.mark.parametrize("flag", ["--end-tol", "--limit-tol"])
    def test_nan_tolerance_rejected(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["geom", "disks-compare", flag, "nan"])
        assert exc.value.code == 2


class TestOutputs:
    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "art.json"
        code, out, err = run(capsys, "hh", "--degree", "2", "--max-p", "3",
                             "--output", str(path))
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["command"] == "hh"

    def test_env_var_output_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("KNOTOPERADS_OUTPUT_DIR", str(tmp_path))
        code, _, _ = run(capsys, "hh", "--degree", "2", "--max-p", "3",
                         "--output", "rel.json")
        assert code == 0
        assert (tmp_path / "rel.json").exists()

    @pytest.mark.parametrize("argv", [
        ["verify", "geometry", "--trials", "200", "--seed", "1"],
        ["hh", "--degree", "2", "--max-p", "7"],
    ], ids=["geometry", "hh"])
    def test_unwritable_output_exits_before_the_work(self, capsys, tmp_path,
                                                     monkeypatch, argv):
        def work(*args, **kwargs):
            raise AssertionError("the work ran before --output was checked")

        monkeypatch.setattr(cli, "_geometry_battery", work)
        monkeypatch.setattr(hochschild, "hh_table", work)
        for output in (tmp_path / "missing" / "x.json", tmp_path, ""):
            code, out, err = run(capsys, *argv, "--output", str(output))
            assert (code, out) == (2, "") and "--output" in err, err
        monkeypatch.setenv("KNOTOPERADS_OUTPUT_DIR", str(tmp_path / "gone"))
        code, _, err = run(capsys, *argv, "--output", "rel.json")
        assert code == 2 and "gone" in err, err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fault", [KeyError, AssertionError])
    def test_program_fault_is_not_bad_input(self, capsys, monkeypatch, fault):
        # only ValueError and file OSError are bad input (exit 2); a fault of
        # the program surfaces as itself, with its traceback
        def work(*args, **kwargs):
            raise fault("a program fault")

        monkeypatch.setattr(hochschild, "hh_table", work)
        with pytest.raises(fault):
            main(["hh", "--degree", "2", "--max-p", "3"])

    def test_negative_threads_usage_error(self, capsys):
        # trials run serially: there is no --threads option to set
        with pytest.raises(SystemExit) as exc:
            main(["verify", "geometry", "--trials", "1", "--threads", "-2"])
        assert exc.value.code == 2

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
