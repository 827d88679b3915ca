import argparse
import json
import os
import subprocess
import sys
from dataclasses import fields

import pytest

import latstab

from latstab.cli import _ALL_BUDGETS, build_parser, main
from latstab.config import Budgets

from latstab import (CodeSpec, Lattice, PauliOp, make_bacon_shor_2d, make_toric_2d,
                     serialize_code)


@pytest.fixture
def bs3_file(tmp_path):
    path = tmp_path / "bs3.code"
    path.write_text(serialize_code(make_bacon_shor_2d(3)))
    return str(path)


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def test_zoo_writes_parseable_file(tmp_path, capsys):
    out = tmp_path / "toric.code"
    rc, _ = run(capsys, "zoo", "toric", "--L", "3", "--out", str(out))
    assert rc == 0
    rc, text = run(capsys, "validate", "--code", str(out))
    assert rc == 0
    rep = json.loads(text)
    assert rep["result"]["n"] == 18
    assert rep["result"]["k"] == 2
    assert rep["result"]["r_actual"] == 2


def test_distance_subcommand_bacon_shor(bs3_file, capsys):
    rc, text = run(capsys, "distance", "--code", bs3_file, "--mode", "subsystem")
    assert rc == 0
    rep = json.loads(text)
    assert rep["result"]["value"] == 3
    assert rep["result"]["status"] == "exact"


def test_lindist_subcommand(bs3_file, capsys):
    rc, text = run(capsys, "lindist", "--code", bs3_file, "--axis", "0")
    assert rc == 0
    assert json.loads(text)["result"]["value"] == 1


def test_barrier_subcommand(bs3_file, capsys):
    rc, text = run(capsys, "barrier", "--code", bs3_file)
    assert rc == 0
    rep = json.loads(text)
    assert rep["result"]["value"] == 2
    assert rep["result"]["method"] == "exact_bottleneck"


def test_sweep_and_clean_subcommands(bs3_file, capsys):
    rc, text = run(capsys, "sweep", "--code", bs3_file, "--axis", "0")
    assert rc == 0
    witness = json.loads(text)["result"]["witness"]
    assert witness
    rc, text = run(capsys, "clean", "--code", bs3_file, "--op", witness,
                   "--box", "0:1,0:1")
    assert rc == 0
    assert json.loads(text)["result"]["outcome"] in ("cleaned", "trapped_logical")


def test_restrict_audit_subcommand(bs3_file, capsys):
    rc, text = run(capsys, "restrict-audit", "--code", bs3_file, "--box", "0:2,0:2")
    assert rc == 0
    assert json.loads(text)["result"]["holds"] is True


def test_restrict_audit_region_without_qubits_counts_shell(tmp_path, capsys):
    # D=1, L=4 with no qubit at site (3): its r=2 shell holds qubits 1 and 2
    path = tmp_path / "holey.code"
    path.write_text("lattice D=1 L=4 boundary=open\nname=holey\nrole=stabilizer\nr=2\n"
                    "qubits:\n(0)\n(1)\n(2)\nZ(0) Z(1)\nZ(1) Z(2)\n")
    rc, text = run(capsys, "restrict-audit", "--code", str(path), "--sites", "(3)")
    assert rc == 0
    result = json.loads(text)["result"]
    assert result["case"] == "no_logicals" and result["shell_qubits"] == 2


def test_min_block_subcommand(bs3_file, capsys):
    rc, text = run(capsys, "min-block", "--code", bs3_file, "--axis", "0")
    assert rc == 0
    rep = json.loads(text)
    assert rep["result"]["found"] is True
    assert all(rep["result"]["checks"].values())


def test_validate_nonlocal_code_exit_1(tmp_path, capsys):
    bad = tmp_path / "nonlocal.code"
    bad.write_text(
        "lattice D=1 L=8 boundary=open\n"
        "name=nonlocal\nrole=stabilizer\nr=2\n"
        "X(0) X(7)\n"
    )
    rc = main(["validate", "--code", str(bad)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "generator 0" in err


HEAD = b"lattice D=1 L=3 boundary=open\nname=x\n"
STAB = HEAD + b"role=stabilizer\nr=2\n"


@pytest.mark.parametrize("data", [
    HEAD + b"role=stabilizer\nr=abc\n",
    "lattice D=1 L=3 boundary=open\nname=\xe9\n".encode("latin-1"),
    HEAD + b"role=stabilizer\nr=-1\n",
    STAB + b"Z(0) Z(1)\nrole=gauge\n",
    HEAD + b"r=2\nZ(0) Z(1)\n",
    HEAD + b"role=stabilizer\nZ(0) Z(1)\n",
    STAB + b"Z()\n",
    STAB + b"qubits:\n(0\n",
    STAB + b"qubits:\n(0)\n(5)\n",
    STAB + b"qubits:\n(0)\n(0)\n",
    STAB + b"qubits:\n(0,0)\n",
    STAB + b"Z(5)\n",
    STAB + b"Z(0) Z(0)\n",
    HEAD + b"role=bogus\nr=2\n",
    STAB + b"scale=3\n",
    STAB + b"scale=2\nZ(0) Z(1)\n",
    STAB + b"Z(0)\nX(0)\n",
], ids=["bad_integer", "non_utf8", "negative_r", "repeated_role", "missing_role",
        "missing_r", "empty_factor_coordinates", "bad_qubit_cell", "cell_outside_lattice",
        "duplicate_cell", "cell_arity", "no_qubit_at_cell", "identity_generator",
        "unknown_role", "scale_3", "scale_2_without_qubits", "anticommuting_stabilizers"])
def test_malformed_code_file_exit_1(tmp_path, capsys, data):
    bad = tmp_path / "bad.code"
    bad.write_bytes(data)
    assert main(["validate", "--code", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["audit", "--family", "repetition", "--L", "x"],
    ["audit", "--family", "repetition", "--L", "2..3..4"],
    ["clean", "--code", "{code}", "--op", "", "--sites", "(1,,2)"],
    ["validate", "--code", "{dir}"],
    ["audit", "--family", "toric", "--L", "5..2"],
    ["audit", "--family", "repetition", "--L", "3", "--jobs", "0"],
    ["audit", "--family", "repetition", "--L", "3", "--jobs", "-4"],
    ["barrier", "--code", "{code}", "--method", "walk", "--class-mask", "0"],
    ["barrier", "--code", "{code}", "--method", "exact", "--axis", "7"],
    ["barrier", "--code", "{code}", "--method", "walk", "--node-cap", "1"],
    ["barrier", "--code", "{code}", "--method", "exact", "--schedule", "arbitrary"],
    ["barrier", "--code", "{code}", "--class-mask", "-1"],
    ["clean", "--code", "{code}", "--op", "", "--sites", "(0,0) junk (1,1) 7"],
    ["restrict-audit", "--code", "{code}", "--box", "0:2"],
    ["restrict-audit", "--code", "{code}", "--box", "0:2,1"],
], ids=["L_not_integer", "L_two_ranges", "site_empty_coordinate", "code_is_directory",
        "L_empty_range", "jobs_zero", "jobs_negative", "class_mask_with_walk",
        "exact_barrier_bad_axis", "node_cap_with_walk", "schedule_with_exact",
        "class_mask_negative", "sites_stray_text", "box_range_count", "box_range_not_start_stop"])
def test_malformed_cli_input_exit_1(bs3_file, tmp_path, capsys, argv):
    argv = [a.format(code=bs3_file, dir=tmp_path) for a in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("method", ["walk", "exact"])
def test_barrier_takes_no_enumeration_or_dp_budget(bs3_file, capsys, method):
    # neither barrier engine enumerates weights or runs the transfer DP
    argv = ["barrier", "--code", bs3_file, "--method", method]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--weight-cap", "1", "--mem-budget", "1"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --weight-cap 1 --mem-budget 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["distance", "lindist"])
def test_stabilizer_mode_is_not_a_choice(bs3_file, capsys, command):
    # a stabilizer code's distance is the subsystem one (G = S), so argparse
    # offers only subsystem and bare
    with pytest.raises(SystemExit) as exc:
        main([command, "--code", bs3_file, "--mode", "stabilizer"])
    assert exc.value.code == 1
    assert "invalid choice: 'stabilizer'" in capsys.readouterr().err


def test_restrict_audit_reads_weight_cap(tmp_path, capsys):
    # the DP is over a 1 MiB budget on toric 3 (d = 3), so enumeration up to
    # the cap decides; cap 1 cannot certify d and the command fails
    path = tmp_path / "toric3.code"
    path.write_text(serialize_code(make_toric_2d(3)))
    argv = ["restrict-audit", "--code", str(path), "--box", "0:3,0:3", "--mem-budget", "1"]
    assert main(argv + ["--weight-cap", "1"]) == 1
    assert "weight cap 1" in capsys.readouterr().err
    rc, text = run(capsys, *argv, "--weight-cap", "3")
    assert rc == 0 and json.loads(text)["result"]["d_M"] == 3


@pytest.mark.parametrize("command, extra, box", [
    ("restrict-audit", [], "2:0,0:2"),
    ("clean", ["--op", "Z(0,0)"], "1:1,0:2"),
], ids=["restrict_audit_reversed", "clean_zero_width"])
def test_empty_box_range_exit_1(bs3_file, capsys, command, extra, box):
    assert main([command, "--code", bs3_file, *extra, "--box", box]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: box range {box.split(',')[0]!r} is empty")


def test_distance_auto_reports_bad_axis(tmp_path, capsys):
    path = tmp_path / "toric3.code"
    path.write_text(serialize_code(make_toric_2d(3)))
    rc = main(["distance", "--code", str(path), "--axis", "7", "--method", "auto"])
    assert rc == 1
    assert "axis 7 outside 0..1" in capsys.readouterr().err


def test_audit_repetition_deterministic(tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["audit", "--family", "repetition", "--L", "3..5",
                 "--out", str(out1)]) == 0
    assert main(["audit", "--family", "repetition", "--L", "3,4,5",
                 "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rep = json.loads(out1.read_text())
    assert rep["summary"]["checks_failed"] == 0
    assert rep["tool"]["name"] == "latstab"


def test_audit_csv_columns(tmp_path, capsys):
    out = tmp_path / "t.json"
    csvp = tmp_path / "t.csv"
    assert main(["audit", "--family", "toric", "--L", "2..3",
                 "--out", str(out), "--csv", str(csvp)]) == 0
    lines = csvp.read_text().splitlines()
    assert lines[0] == "family,L,n,k,r,participation,d,d1,barrier,method,margins"
    assert len(lines) == 3
    assert lines[1].startswith("toric,2,8,2,2,4,2,1,4,")


def test_audit_jobs_parallel_matches_serial(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["audit", "--family", "bacon_shor", "--L", "2..3", "--out", str(a)]) == 0
    assert main(["audit", "--family", "bacon_shor", "--L", "2..3", "--out", str(b),
                 "--jobs", "2"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_audit_jobs_starts_one_worker_per_size_at_most(tmp_path, monkeypatch):
    # the pool forks all max_workers at its first submit; this stand-in
    # records max_workers and runs the tasks in process, starting nothing
    import concurrent.futures

    started = []

    class InlinePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    for sizes in ("2", "2..3"):
        assert main(["audit", "--family", "bacon_shor", "--L", sizes,
                     "--out", str(tmp_path / f"{sizes}.json"), "--jobs", "64"]) == 0
    assert started == [2]


def test_missing_file_exit_1(capsys):
    assert main(["distance", "--code", "/nonexistent.code"]) == 1


def test_audit_exit_2_on_failed_check(tmp_path, monkeypatch, capsys):
    # the exit contract must fire if any audited bound ever failed to hold
    import latstab.cli as cli
    from latstab.audit import Check

    def fake_audit_family(*args, **kwargs):
        return [], [Check("synthetic", "0 <= -1", 0, -1, False)]

    monkeypatch.setattr(cli, "audit_family", fake_audit_family)
    assert main(["audit", "--family", "toric", "--L", "2",
                 "--out", str(tmp_path / "x.json")]) == 2


def test_zoo_rejects_bad_family(capsys):
    with pytest.raises(SystemExit):
        main(["zoo", "nosuch", "--L", "3"])


@pytest.mark.parametrize("argv", [
    ["barrier", "--code", "{code}", "--class-mask", "0x"],
    ["barrier", "--code", "{code}", "--method", "nosuch"],
    ["distance"],
    ["nosuch"],
    [],
])
def test_rejected_command_line_exits_1(bs3_file, capsys, argv):
    # 2 is reserved for a failed bound, so a malformed command line is a
    # usage error like any other
    with pytest.raises(SystemExit) as exc:
        main([a.format(code=bs3_file) for a in argv])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: latstab") and "error: " in err


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["barrier", "--help"]])
def test_help_and_version_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out


def test_bad_budget_env_does_not_break_import_or_version():
    src = os.path.dirname(os.path.dirname(latstab.__file__))
    env = dict(os.environ, LATSTAB_NODE_CAP="xyz", PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-m", "latstab.cli", "--version"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"latstab {latstab.__version__}"


@pytest.mark.parametrize("flag, value, field", [
    ("--weight-cap", "-3", "weight_cap"),
    ("--node-cap", "0", "node_cap"),
    ("--mem-budget", "-1", "mem_mb"),
])
def test_bad_budget_flag_exit_1(bs3_file, capsys, flag, value, field):
    assert main(["distance", "--code", bs3_file, "--method", "bruteforce", flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {field}={value} is not a positive integer")


@pytest.mark.parametrize("kwargs", [{"weight_cap": 0}, {"node_cap": -1},
                                    {"mem_mb": 1.5}, {"weight_cap": True}])
def test_budgets_reject_non_positive_integers(kwargs):
    from latstab.config import Budgets
    from latstab.errors import ValidationError

    with pytest.raises(ValidationError, match="is not a positive integer"):
        Budgets(**kwargs)


@pytest.mark.parametrize("argv, family, arg", [
    (["zoo", "toric", "--L", "3", "--D", "3"], "toric", "D"),
    (["zoo", "bacon_shor", "--L", "3", "--boundary", "periodic"], "bacon_shor", "boundary"),
    (["audit", "--family", "toric", "--L", "2", "--D", "3"], "toric", "D"),
    (["audit", "--family", "heisenberg", "--L", "3", "--boundary", "open",
      "--jobs", "2"], "heisenberg", "boundary"),
])
def test_family_argument_not_taken_exit_1(tmp_path, capsys, argv, family, arg):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: family {family!r} takes no {arg} argument")
    assert not out.exists()


def test_family_arguments_taken(capsys):
    rc, text = run(capsys, "zoo", "repetition", "--L", "3", "--boundary", "periodic")
    assert rc == 0 and text.startswith("lattice D=1 L=3 boundary=periodic")
    rc, text = run(capsys, "zoo", "generalized_toric", "--L", "2", "--D", "2")
    assert rc == 0 and text.startswith("lattice D=2 ")


@pytest.mark.parametrize("command", ["distance", "lindist", "barrier"])
def test_axis_outside_lattice_on_no_logicals_code_exit_1(tmp_path, capsys, command):
    path = tmp_path / "k0.code"
    path.write_text(serialize_code(CodeSpec("fixed", Lattice(1, 2), "stabilizer", 2,
                                            [PauliOp.single(2, 0, "Z"),
                                             PauliOp.single(2, 1, "Z")])))
    rc, text = run(capsys, command, "--code", str(path))
    assert rc == 0 and json.loads(text)["result"]["status"] == "no_logicals"
    assert main([command, "--code", str(path), "--axis", "7"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: axis 7 outside 0..0")


@pytest.mark.parametrize("command, extra", [
    ("validate", []),
    ("lindist", []),
    ("clean", ["--op", "Z(0,0)", "--box", "0:1,0:1"]),
    ("sweep", []),
])
@pytest.mark.parametrize("flag", ["--weight-cap", "--node-cap", "--mem-budget"])
def test_budget_flags_only_where_read(bs3_file, capsys, command, extra, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, "--code", bs3_file, *extra, flag, "5"])
    assert exc.value.code == 1
    assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err


def _registered_budget_flags():
    """(subcommand, flag) for every budget flag the parser registers: every
    option whose dest is a Budgets field or whose flag is in _ALL_BUDGETS."""
    budget_fields = {f.name for f in fields(Budgets)}
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [(command, action.option_strings[0])
            for command, parser in sub.choices.items()
            for action in parser._actions
            if action.dest in budget_fields or set(action.option_strings) & set(_ALL_BUDGETS)]


# per (subcommand, flag), a command line on toric 3 whose exit code or report
# changes when the flag is added with value 1
_FLAG_READ_CASES = {
    ("distance", "--weight-cap"): ["distance", "--code", "{code}", "--method", "bruteforce"],
    ("distance", "--node-cap"): ["distance", "--code", "{code}", "--method", "bruteforce"],
    ("distance", "--mem-budget"): ["distance", "--code", "{code}", "--method", "dp"],
    ("barrier", "--node-cap"): ["barrier", "--code", "{code}"],
    ("restrict-audit", "--weight-cap"): ["restrict-audit", "--code", "{code}",
                                         "--box", "0:3,0:3", "--mem-budget", "1"],
    ("restrict-audit", "--node-cap"): ["restrict-audit", "--code", "{code}",
                                       "--box", "0:3,0:3", "--mem-budget", "1"],
    ("restrict-audit", "--mem-budget"): ["restrict-audit", "--code", "{code}",
                                         "--box", "0:3,0:3", "--weight-cap", "1"],
    ("min-block", "--weight-cap"): ["min-block", "--code", "{code}", "--mem-budget", "1"],
    ("min-block", "--node-cap"): ["min-block", "--code", "{code}", "--mem-budget", "1"],
    ("min-block", "--mem-budget"): ["min-block", "--code", "{code}", "--weight-cap", "1"],
    ("audit", "--weight-cap"): ["audit", "--family", "toric", "--L", "3", "--mem-budget", "1"],
    ("audit", "--node-cap"): ["audit", "--family", "toric", "--L", "3"],
    ("audit", "--mem-budget"): ["audit", "--family", "toric", "--L", "3"],
}


@pytest.mark.parametrize("command, flag", _registered_budget_flags())
def test_every_budget_flag_is_read(tmp_path, capsys, command, flag):
    # a budget flag registered without a case here fails, so no flag is
    # accepted and then ignored
    path = tmp_path / "toric3.code"
    path.write_text(serialize_code(make_toric_2d(3)))
    argv = [a.format(code=path) for a in _FLAG_READ_CASES[command, flag]]
    base = run(capsys, *argv)
    assert base[0] == 0
    assert run(capsys, *argv, flag, "1") != base
