import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import levelrank
from levelrank import smatrix
from levelrank.cli import main

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_branch_text(capsys):
    code, out, _ = run(capsys, "branch", "3", "6", "0")
    assert code == 0
    assert "10 summands" in out
    assert "[6,0,0] x [3,0,0,0,0,0]" in out


def test_branch_json_round_trip(capsys):
    code, out, _ = run(capsys, "branch", "3", "6", "0", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 3 and payload["m"] == 6 and payload["i"] == 0
    assert len(payload["summands"]) == 10
    for entry in payload["summands"]:
        assert set(entry) == {"left", "right", "left_partition", "right_partition"}


def test_branch_json_deterministic(capsys):
    _, first, _ = run(capsys, "branch", "3", "6", "0", "--json")
    _, second, _ = run(capsys, "branch", "3", "6", "0", "--json")
    assert first == second


def test_branch_young(capsys):
    code, out, _ = run(capsys, "branch", "2", "2", "0", "--young")
    assert code == 0
    assert "1 x 1" in out
    assert "[][] x [][]" in out


@pytest.mark.parametrize("command", [("branch", "3", "6", "0"), ("etale", "3", "6")])
def test_json_with_young_prints_only_json(capsys, command):
    _, plain, _ = run(capsys, "branch", "3", "6", "0", "--json")
    code, out, _ = run(capsys, *command, "--json", "--young")
    assert code == 0
    assert out == plain


def test_etale_equals_branch_zero(capsys):
    _, a, _ = run(capsys, "etale", "3", "6", "--json")
    _, b, _ = run(capsys, "branch", "3", "6", "0", "--json")
    assert a == b


def test_tau(capsys):
    code, out, _ = run(capsys, "tau", "2", "10", "0", "[4,6]")
    assert code == 0
    assert out.strip() == "[0,0,0,1,0,0,0,1,0,0]"


def test_tau_wrong_class_exits_2(capsys):
    code, _, err = run(capsys, "tau", "3", "6", "9", "[3,2,1]")
    assert code == 2
    assert "degree" in err


def test_tau_wrong_rank_exits_2(capsys):
    code, _, err = run(capsys, "tau", "3", "6", "0", "[4,6]")
    assert code == 2


def test_qdim_partition(capsys):
    code, out, _ = run(capsys, "qdim", "4", "4", "--partition", "(4,3,1)")
    assert code == 0
    assert "[7][5]^2" in out
    assert "5.82842712474619" in out


def test_qdim_weight_float_backend(capsys):
    code, out, _ = run(capsys, "qdim", "2", "2", "[1,1]", "--backend", "float")
    assert code == 0
    assert "1.414" in out


def test_qdim_without_argument_exits_2(capsys):
    code, _, err = run(capsys, "qdim", "2", "2")
    assert code == 2


def test_qdim_with_a_weight_and_a_partition_exits_2(capsys):
    code, out, err = run(capsys, "qdim", "2", "2", "[1,1]", "--partition", "(1)")
    assert code == 2
    assert out == ""
    assert err == "error: give a weight literal or --partition, not both\n"


@pytest.mark.parametrize("n,m", [("0", "3"), ("0", "0")])
def test_qdim_rank_below_two_exits_2(capsys, n, m):
    code, out, err = run(capsys, "qdim", n, m, "--partition", "()")
    assert code == 2
    assert out == ""
    assert "rank must be at least 2" in err


@pytest.mark.parametrize("command", [
    ("qdim", "2", "-1", "--partition", "()"),
    ("qdim", "2", "-1", "--partition", "()", "--backend", "float"),
    ("fuse", "2", "-1", "[0,0]", "[0,0]"),
    ("tau", "2", "-1", "0", "[0,0]"),
])
def test_negative_level_exits_2_by_name(capsys, command):
    code, out, err = run(capsys, *command)
    assert code == 2
    assert out == ""
    assert err == "error: level must be non-negative\n"


def test_fuse(capsys):
    code, out, _ = run(capsys, "fuse", "2", "2", "[1,1]", "[1,1]")
    assert code == 0
    assert "[2,0]" in out and "[0,2]" in out


def test_fuse_json(capsys):
    code, out, _ = run(capsys, "fuse", "2", "2", "[1,1]", "[1,1]", "--json")
    payload = json.loads(out)
    assert payload["result"] == [
        {"weight": [2, 0], "multiplicity": 1},
        {"weight": [0, 2], "multiplicity": 1},
    ]


def test_cc_equal(capsys):
    code, out, _ = run(capsys, "cc", "4", "5", "1")
    assert code == 0
    assert "19 = pair 19" in out


def test_cc_unequal(capsys):
    code, out, _ = run(capsys, "cc", "2", "2", "2")
    assert code == 0
    assert "5 != pair 4" in out


def test_smatrix_json(capsys):
    code, out, _ = run(capsys, "smatrix", "2", "1", "--precision", "64")
    assert code == 0
    payload = json.loads(out)
    assert payload["central_charge"] == "1"
    assert payload["weights"] == [[1, 0], [0, 1]]
    assert float(payload["entries"][0][0][0]) == pytest.approx(0.7071067811865475)


def _fresh_env() -> dict[str, str]:
    """The environment of a fresh interpreter that imports this package."""
    src = str(Path(levelrank.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def _run_fresh(script: str, *flags: str) -> None:
    """Run ``script`` in a fresh interpreter that imports this package."""
    done = subprocess.run([sys.executable, *flags, "-c", script], env=_fresh_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_exact_commands_do_not_load_mpmath():
    """In a fresh interpreter, ``verify`` leaves mpmath unimported; the float
    commands import it when they run."""
    _run_fresh("""
import contextlib, io, sys
from levelrank.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["verify", "all", "--bound", "3"]) == 0
    assert "mpmath" not in sys.modules
    assert main(["qdim", "3", "2", "--partition", "(2,1)", "--backend", "float"]) == 0
    assert main(["smatrix", "2", "2", "--json"]) == 0
assert "mpmath" in sys.modules
""")


def test_verify_loads_only_the_modules_it_needs():
    """Under ``python -S`` nothing from site-packages is preloaded. There,
    importing the CLI and running ``verify`` loads none of the listed
    modules; a ``--json`` run then loads json."""
    _run_fresh("""
import contextlib, io, sys
from levelrank.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["verify", "all", "--bound", "3"]) == 0
loaded = [name for name in ("dataclasses", "inspect", "traceback", "json", "typing", "mpmath")
          if name in sys.modules]
assert not loaded, loaded
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["verify", "golden", "--json"]) == 0
assert "json" in sys.modules
""", "-S")


def test_smatrix_runs_the_exact_unitarity_pass_once(capsys, monkeypatch):
    calls = []
    check = smatrix.SMatrixData.unitarity_residual

    def counting(self):
        calls.append(1)
        return check(self)

    monkeypatch.setattr(smatrix.SMatrixData, "unitarity_residual", counting)
    code, out, _ = run(capsys, "smatrix", "3", "3")
    assert code == 0
    assert len(calls) == 1
    assert json.loads(out)["unitarity_residual"] == 0


def test_smatrix_low_precision_rejected(capsys):
    code, _, err = run(capsys, "smatrix", "2", "2", "--precision", "8")
    assert code == 2


def test_mirror(capsys):
    code, out, _ = run(capsys, "mirror", "2", "10", "[10,0]", "[4,6]")
    assert code == 0
    assert "[0,0,0,1,0,0,0,1,0,0]" in out


def test_mirror_missing_vacuum_exits_2(capsys):
    code, _, err = run(capsys, "mirror", "2", "10", "[4,6]")
    assert code == 2
    assert "vacuum" in err


@pytest.mark.parametrize("argv", [
    ("5", "7", "[2,0]", "[0,2]"),  # both summands of the wrong rank and level
    ("2", "10", "[10,0]", "[2,2]"),  # right rank, wrong level
    ("2", "10", "[10,0]", "[4,6,0]"),  # right level, wrong rank
])
def test_mirror_wrong_rank_or_level_exits_2(capsys, argv):
    code, out, err = run(capsys, "mirror", *argv)
    assert code == 2
    assert out == ""
    assert f"is not a rank-{argv[0]} level-{argv[1]} weight" in err


@pytest.mark.parametrize("literal,shown", [("5", "[5]"), ("[5]", "[5]"), ("5,1", "[5,1]")])
def test_qdim_weight_of_the_wrong_rank_names_it(capsys, literal, shown):
    """A one-component literal is a weight of the wrong rank, not a rank
    below two."""
    code, out, err = run(capsys, "qdim", "3", "3", literal)
    assert code == 2
    assert out == ""
    assert f"{shown} is not a rank-3 level-3 weight" in err


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "table.json"
    code, _, _ = run(capsys, "branch", "2", "2", "0", "--out", str(target))
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["n"] == 2


def test_out_path_that_cannot_be_written_exits_2(tmp_path, capsys):
    """A bad output path is a usage error: one line, no traceback."""
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "branch", "3", "3", "0", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err == f"error: cannot write {target}: No such file or directory\n"


def test_verify_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "golden")
    assert code == 0
    assert "[PASS]" in out
    assert "3/3 checks passed" in out


def test_verify_json_is_only_the_report(capsys):
    code, out, _ = run(capsys, "verify", "golden", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert [r["name"] for r in payload["results"]] == [
        "ten summands at n=3 m=6 i=0", "class-13 pair at n=3 m=6", "hook-content product [7][5]^2",
    ]
    for r in payload["results"]:
        assert set(r) == {"suite", "name", "holds", "checked", "detail", "counterexample",
                          "error"}
        assert r["suite"] == "golden" and r["holds"] is True and r["counterexample"] is None
        assert r["error"] is None


def test_verify_json_serializes_a_counterexample(capsys, monkeypatch):
    """A failing record carries cyclotomic numbers; they serialize as their
    repr."""
    from levelrank import branching

    graded = branching.graded_dim
    monkeypatch.setattr(branching, "graded_dim", lambda n, m, i: graded(n, m, i) + 1)
    code, out, _ = run(capsys, "verify", "exhaustion", "--bound", "2", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    (first,) = payload["results"]
    assert first["name"] == "n=2 m=2 i=0" and first["holds"] is False
    assert first["counterexample"] == repr((graded(2, 2, 0), graded(2, 2, 0) + 1))


def test_verify_all_small_bound(capsys):
    code, out, _ = run(capsys, "verify", "all", "--bound", "2")
    assert code == 0
    assert "[FAIL]" not in out


def test_verify_has_no_jobs_option():
    with pytest.raises(SystemExit) as err:
        main(["verify", "all", "--jobs", "2"])
    assert err.value.code == 2


@pytest.mark.parametrize("suite", ["exhaustion", "cardinality", "golden"])
@pytest.mark.parametrize("bound", ["1", "0", "-3"])
def test_verify_bound_below_two_exits_2(capsys, suite, bound):
    """A bound below 2 would sweep nothing and pass vacuously."""
    code, out, err = run(capsys, "verify", suite, "--bound", bound)
    assert code == 2
    assert "--bound" in err
    assert out == ""


def test_unknown_suite_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "nonsense"])
    assert err.value.code == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["branch", "three", "6", "0"])
    assert err.value.code == 2


def test_verify_all_default_bounds(capsys):
    """The whole default sweep must come back clean, line for line as pinned."""
    code, out, _ = run(capsys, "verify", "all")
    assert code == 0
    assert "[FAIL]" not in out
    assert out == (GOLDEN / "verify_all.txt").read_text()


def test_verify_all_bound_3_matches_golden(capsys):
    code, out, _ = run(capsys, "verify", "all", "--bound", "3")
    assert code == 0
    assert out == (GOLDEN / "verify_all_bound3.txt").read_text()


def test_verify_exhaustion_bound_6_matches_golden(capsys):
    code, out, _ = run(capsys, "verify", "exhaustion", "--bound", "6")
    assert code == 0
    assert out == (GOLDEN / "verify_exhaustion_bound6.txt").read_text()


def test_precision_env_var(capsys, monkeypatch):
    monkeypatch.setenv("LEVELRANK_PRECISION", "64")
    code, out, _ = run(capsys, "smatrix", "2", "1")
    assert code == 0
    assert json.loads(out)["precision_bits"] == 64


@pytest.mark.parametrize("value", ["many", "16"])
def test_bad_precision_env_var_exits_2(capsys, monkeypatch, value):
    monkeypatch.setenv("LEVELRANK_PRECISION", value)
    code, _, err = run(capsys, "smatrix", "2", "1")
    assert code == 2
    assert "LEVELRANK_PRECISION" in err


def test_verify_has_no_precision_option():
    with pytest.raises(SystemExit) as err:
        main(["verify", "golden", "--precision", "64"])
    assert err.value.code == 2


def test_qdim_float_precision_validated(capsys):
    code, _, err = run(capsys, "qdim", "2", "2", "[1,1]", "--backend", "float",
                       "--precision", "16")
    assert code == 2


@pytest.mark.parametrize("error, command, target", [
    pytest.param(ArithmeticError, ["verify", "verlinde"], "fusion.verlinde_check",
                 id="ArithmeticError"),
    pytest.param(AssertionError, ["verify", "verlinde"], "fusion.verlinde_check",
                 id="AssertionError"),
    *(pytest.param(error, command, target, id=f"{error.__name__}-{command[0]}")
      for error in (KeyError, ZeroDivisionError)
      for command, target in ((["fuse", "2", "2", "[1,1]", "[1,1]"], "fusion.fuse"),
                              (["branch", "3", "3", "0"], "branching.branch"))),
])
def test_internal_error_exits_3(capsys, monkeypatch, error, command, target):
    """A crash inside a check or a command is an internal error, reported
    with its traceback: not a counterexample, and not a usage error, which
    only a ValueError is."""
    module, name = target.split(".")

    def broken(*_):
        raise error("M_0d vanished")

    monkeypatch.setattr(getattr(levelrank, module), name, broken)
    code, _, err = run(capsys, *command)
    assert code == 3
    assert "Traceback" in err
    assert err.splitlines()[-1] == f"internal error: {error.__name__}: {error('M_0d vanished')}"


def _raising_suite(bound=2):
    raise AssertionError("negative fusion multiplicity")


def test_a_raising_suite_is_an_error_not_a_counterexample(capsys, monkeypatch):
    """One suite raising does not abort the sweep: it gives one ERROR line,
    every other suite still runs, and the exit status is 3, not 1."""
    from levelrank import verify

    monkeypatch.setitem(verify.SUITES, "rotation", _raising_suite)
    code, out, err = run(capsys, "verify", "all", "--bound", "2")
    assert code == 3
    lines = out.splitlines()
    assert "[ERROR] rotation: raised  (AssertionError: negative fusion multiplicity)" in lines
    assert [line for line in lines if line.startswith(("[FAIL]", "[ERROR]"))] == [
        "[ERROR] rotation: raised  (AssertionError: negative fusion multiplicity)"]
    assert {line.split(":")[0] for line in lines if line.startswith("[PASS]")} == {
        f"[PASS] {name}" for name in verify.SUITES if name != "rotation"}
    assert lines[-1] == f"{len(lines) - 2}/{len(lines) - 1} checks passed, 1 raised"
    assert "Traceback" in err
    assert err.splitlines()[-1] == "internal error: AssertionError: negative fusion multiplicity"


def test_a_failure_outranks_an_error(capsys, monkeypatch):
    from levelrank import Verdict, verify

    monkeypatch.setitem(verify.SUITES, "golden", lambda: [Verdict("golden", "off", False)])
    monkeypatch.setitem(verify.SUITES, "rotation", _raising_suite)
    code, out, _ = run(capsys, "verify", "all", "--bound", "2", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    bad = [(r["suite"], r["holds"], r["error"]) for r in payload["results"]
           if not r["holds"]]
    assert bad == [("golden", False, None),
                   ("rotation", False, "AssertionError: negative fusion multiplicity")]


def test_a_closed_stdout_ends_quietly():
    """A reader that stops early, as in ``levelrank smatrix 5 4 | head -1``,
    is not an internal error: the command keeps its own exit status and
    writes nothing to stderr, at interpreter shutdown included. The JSON
    (about 367 KB) is larger than a pipe buffer, so the write meets the
    closed pipe."""
    proc = subprocess.Popen([sys.executable, "-m", "levelrank.cli", "smatrix", "5", "4"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_fresh_env())
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0
    assert err == b""


# Every command in text, --json, --out and --young mode, pinned byte for
# byte in tests/golden/cli_transcript.txt: exit status, stdout, stderr and
# the --out file. DIR in an argument stands for a fresh directory. Usage
# and help text are laid out for 80 columns.
PINNED = [
    "branch 3 6 0",
    "branch 3 6 0 --json",
    "branch 3 6 0 --out DIR/report.json",
    "branch 3 6 0 --json --out DIR/report.json",
    "branch 2 4 1 --young",
    "branch 2 4 1 --young --json",
    "branch 2 4 1 --young --out DIR/report.json",
    "etale 3 3",
    "etale 3 3 --young",
    "etale 3 3 --json",
    "etale 3 3 --out DIR/report.json",
    "tau 2 10 0 [4,6]",
    "tau 3 6 13 [3,2,1] --json",
    "tau 2 10 0 [4,6] --out DIR/report.json",
    "qdim 4 4 --partition (4,3,1)",
    "qdim 3 3 [1,1,1]",
    "qdim 3 3 [2,1,0] --json",
    "qdim 4 4 --partition (4,3,1) --out DIR/report.json",
    "qdim 2 2 [1,1] --backend float",
    "qdim 3 2 --partition (2,1) --backend float --precision 64 --json",
    "qdim 3 2 --partition (2,1) --backend float --out DIR/report.json",
    "fuse 2 2 [1,1] [1,1]",
    "fuse 3 2 [1,1,0] [0,1,1] --json",
    "fuse 3 2 [1,1,0] [0,1,1] --out DIR/report.json",
    "smatrix 2 1",
    "smatrix 2 2 --json",
    "smatrix 3 2 --precision 64",
    "smatrix 2 2 --out DIR/report.json",
    "smatrix 2 2 --json --out DIR/report.json",
    "cc 4 5 1",
    "cc 2 2 2",
    "cc 3 4 --json",
    "cc 2 2 2 --out DIR/report.json",
    "mirror 2 10 [10,0] [4,6]",
    "mirror 2 10 [10,0] [4,6] --json",
    "mirror 2 10 [10,0] [4,6] --out DIR/report.json",
    "verify golden",
    "verify golden --json",
    "verify golden --out DIR/report.json",
    "verify exhaustion --bound 3 --json --out DIR/report.json",
    "verify all --bound 2",
    "tau 3 6 0 [4,6]",
    "tau 3 6 0 [4,6] --json",
    "branch 3 3 0 --out DIR/missing/report.json",
    "branch three 6 0",
    "qdim 2 2 [1,1] --backend bogus",
    "qdim -h",
    "-h",
]


def _transcript(command: str, directory: Path) -> str:
    """Run one pinned command line in-process and record what it left."""
    out, err = io.StringIO(), io.StringIO()
    argv = [token.replace("DIR", str(directory)) for token in command.split()]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected the command line
            code = exc.code
    report = directory / "report.json"
    streams = [("stdout", out.getvalue()), ("stderr", err.getvalue())]
    if report.exists():
        streams.append(("DIR/report.json", report.read_text()))
    lines = [f"$ levelrank {command}\nexit {code}\n"]
    for name, text in streams:
        text = text.replace(str(directory), "DIR")
        lines.append(f"{name} ({len(text.encode())} bytes):\n{text}")
    return "".join(lines)


def test_every_command_and_mode_is_pinned_byte_for_byte(tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("LEVELRANK_PRECISION", raising=False)
    got = []
    for k, command in enumerate(PINNED):
        directory = tmp_path / str(k)
        directory.mkdir()
        got.append(_transcript(command, directory))
    assert "".join(got) == (GOLDEN / "cli_transcript.txt").read_text()
