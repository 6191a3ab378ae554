"""The exit-code contract under drawn command lines.

Every subcommand and option comes from ``build_parser()`` itself, so a new
option is fuzzed without a change here.  Values are drawn from edge tokens
(empty, 0, -1, 10^22, nan, inf, 1e400, 1e-320, unbalanced trees, a
directory, a missing file, malformed JSON) and from each option's own small
valid values; counts come from small ranges or from just past their bound,
which exits 3 before any work.  No bound is changed for the test.  One test
sweeps every single fault (each option, each of its edge tokens) with the
counts small; the other draws whole command lines with hypothesis.

Every run must exit 0, 1, 2 or 3 with no exception but argparse's own
``SystemExit``, write no artifact on 2 or 3, and find bad input before any
random draw: an input that fails only once sampling has started (as
``--t-min 1e-15`` did, "points 2 and 3 coincide") exits 2 after the work.
"""

import argparse
import contextlib
import io
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotoperads import cli, geometry, hochschild

#: the highest valid count of each option; the fuzz draws one past it too
BOUNDS = {
    ("hh", "--max-p"): hochschild.MAX_LEVEL_BOUND,
    ("s2-iso", "--max-level"): cli.MAX_S2_ISO_LEVEL,
    ("cosimplicial", "--max-level"): cli.MAX_COSIMPLICIAL_LEVEL,
    ("operad-axioms", "--max-arity"): cli.MAX_OPERAD_ARITY,
    ("geometry", "--trials"): cli.MAX_TRIALS,
    ("disks-compare", "--trials"): cli.MAX_TRIALS,
    ("disks-compare", "--dim"): geometry.MAX_FOUR_DIM,
    ("knot-eval", "--times"): geometry.MAX_REPORT_POINTS,
    ("cosimplicial", "--degree"): geometry.MAX_FOUR_DIM,  # sphere's dimension
}

VALID = {
    "--tol": ["1e-9", "0.1"],
    "--end-tol": ["1e-12", "0.5"],
    "--limit-tol": ["1e-4"],
    "--eps": ["0.125", "1e-3"],
    "--t-min": ["1e-6", "1e-8", "1"],
    "--seed": ["0", "3"],
    "--degree": ["2", "3"],
    "--tree": ["(* (* *))", "((* *) (* *))", "(* *)", "((* *) * *)"],
    "--at": ["0.5,-0.2,0.1", "0,0.5", "0.3,0.3", "-0.5"],
}

NUMBER_EDGES = ["", "0", "-1", str(10 ** 22), "nan", "inf", "1e400", "1e-320"]
TREE_EDGES = ["(* (*", "((* *)))", ")(", "*", "", "(* (* * *) *"]


def _leaves(parser, prefix=()):
    """(argv prefix, parser) of every command that takes options."""
    sub = next((a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)), None)
    if sub is None:
        yield prefix, parser
        return
    for name, child in sub.choices.items():
        yield from _leaves(child, prefix + (name,))


def _options(parser):
    return [a for a in parser._actions if a.option_strings
            and not isinstance(a, (argparse._HelpAction, argparse._VersionAction))]


def _own(command, action, files):
    """Strategy for the text of one of an option's own values."""
    flag = action.option_strings[0]
    if action.choices:
        return st.sampled_from(sorted(action.choices))
    if flag == "--input":
        return st.sampled_from(files[command])
    if (command, flag) in BOUNDS:
        past = [str(BOUNDS[command, flag] + 1), str(10 ** 22)]
        return st.one_of(st.integers(1, 3).map(str), st.sampled_from(past))
    return st.sampled_from(VALID.get(flag, ["1"]))


def _edges(action, files) -> list:
    """The edge tokens of an option's kind."""
    flag = action.option_strings[0]
    if action.choices:
        return ["", "bogus"]
    if flag == "--input":
        return files["bad"]
    if flag == "--tree":
        return TREE_EDGES
    return NUMBER_EDGES


@st.composite
def _argv(draw, leaves, files):
    """A command line: one command, each of its options present or not
    (always when required) with one of its own values, and at most one
    option given an edge token instead, so that no other fault masks it.
    --output is left to the test."""
    prefix, parser = draw(st.sampled_from(leaves))
    command = prefix[-1]
    options = [a for a in _options(parser) if a.dest != "output"]
    valued = [a for a in options if a.nargs != 0]
    fault = draw(st.sampled_from([None] + valued))
    argv = list(prefix)
    for action in options:
        if action is not fault and not (action.required or draw(st.booleans())):
            continue
        flag = action.option_strings[-1]
        if action.nargs == 0:
            argv.append(flag)
            continue
        value = (st.sampled_from(_edges(action, files)) if action is fault
                 else _own(command, action, files))
        argv.append(f"{flag}={draw(value)}")
    return argv


def _single_faults(files):
    """Every command with its counts at 2 and its required options set, and
    once for each option and each of its edge tokens, that one fault."""
    for prefix, parser in _leaves(cli.build_parser()):
        options = [a for a in _options(parser) if a.nargs != 0 and a.dest != "output"]
        base = {a.option_strings[-1]: "2" for a in options
                if (prefix[-1], a.option_strings[-1]) in BOUNDS}
        base.update({a.option_strings[-1]: VALID[a.option_strings[-1]][0]
                     for a in options if a.required and a.dest != "input"})
        if prefix[-1] in files:
            base["--input"] = files[prefix[-1]][0]
        for action in options:
            flag = action.option_strings[-1]
            for token in _edges(action, files):
                yield list(prefix) + [f"{f}={v}" for f, v in
                                      dict(base, **{flag: token}).items()]


@pytest.fixture
def files(tmp_path):
    """The input files: the valid ones of each command that reads one, and
    the bad ones (not an object, malformed, empty, a directory, missing)."""
    docs = {
        "points.json": {"m": 3, "n": 4, "points": [[0, 0, 0], [1, 0, 0],
                                                   [0, 1, 0], [0.2, 0.3, 0.9]]},
        "sphere.json": {"m": 3, "n": 2, "u": {"1,2": [0.0, 0.0, 1.0]}},
        "compose.json": {"tree": "(* (* *))", "inputs": {
            "": {"m": 3, "n": 2, "u": {"1,2": [0.0, 0.0, 1.0]}},
            "1": {"m": 3, "n": 2, "u": {"1,2": [1.0, 0.0, 0.0]}}}},
        "array.json": [1, 2],
    }
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps(doc))
    (tmp_path / "malformed.json").write_text('{"m": 3, "points": [[0, 0')
    (tmp_path / "empty.json").write_text("")
    (tmp_path / "folder").mkdir()

    def paths(*names):
        return [str(tmp_path / name) for name in names]

    return {"check": paths("points.json", "sphere.json"),
            "compose": paths("compose.json"),
            "bad": paths("array.json", "malformed.json", "empty.json",
                         "folder", "missing.json")}


@pytest.fixture
def contract(tmp_path, monkeypatch):
    """Run one command line in process and check the contract: exit 0, 1, 2
    or 3 with no exception but argparse's SystemExit; on 2 or 3 nothing on
    stdout or in --output; on 2 no random generator made."""
    monkeypatch.delenv(cli.OUTPUT_DIR_ENV, raising=False)
    fresh = itertools.count()
    draws, default_rng = [], np.random.default_rng

    def counted_rng(*args, **kwargs):
        draws.append(args)
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counted_rng)

    def check(argv, to_file=False):
        output = tmp_path / f"out{next(fresh)}.json"
        if to_file:
            argv = argv + ["--output", str(output)]
        out, err = io.StringIO(), io.StringIO()
        draws.clear()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's usage errors only
                code = exc.code
        assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
        if code in (2, 3):
            assert not output.exists() and out.getvalue() == "", argv
        else:
            assert output.exists() or out.getvalue(), argv
        if code == 2:
            assert not draws, (argv, err.getvalue())

    return check


def test_every_single_fault(contract, files):
    for argv in _single_faults(files):
        contract(argv)


def test_drawn_command_lines(contract, files):
    leaves = list(_leaves(cli.build_parser()))

    @settings(max_examples=250, deadline=None, database=None, derandomize=True)
    @given(_argv(leaves, files), st.booleans())
    def run(argv, to_file):
        contract(argv, to_file)

    run()
