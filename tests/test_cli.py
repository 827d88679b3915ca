import json
import os
import subprocess
import sys

import pytest

import latstab

from latstab.cli import main

from latstab import make_bacon_shor_2d, make_toric_2d, serialize_code


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


@pytest.mark.parametrize("data", [
    b"lattice D=1 L=3 boundary=open\nname=x\nrole=stabilizer\nr=abc\n",
    "lattice D=1 L=3 boundary=open\nname=\xe9\n".encode("latin-1"),
], ids=["bad_integer", "non_utf8"])
def test_malformed_code_file_exit_1(tmp_path, capsys, data):
    bad = tmp_path / "bad.code"
    bad.write_bytes(data)
    assert main(["validate", "--code", str(bad)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["audit", "--family", "repetition", "--L", "x"],
    ["audit", "--family", "repetition", "--L", "2..3..4"],
    ["clean", "--code", "{code}", "--op", "", "--sites", "(1,,2)"],
    ["validate", "--code", "{dir}"],
    ["distance", "--code", "{code}", "--mode", "stabilizer"],
], ids=["L_not_integer", "L_two_ranges", "site_empty_coordinate", "code_is_directory",
        "stabilizer_mode_on_gauge_code"])
def test_malformed_cli_input_exit_1(bs3_file, tmp_path, capsys, argv):
    argv = [a.format(code=bs3_file, dir=tmp_path) for a in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


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


def test_bad_budget_env_does_not_break_import_or_version():
    src = os.path.dirname(os.path.dirname(latstab.__file__))
    env = dict(os.environ, LATSTAB_NODE_CAP="xyz", PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-m", "latstab.cli", "--version"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"latstab {latstab.__version__}"


@pytest.mark.parametrize("name, raw", [
    ("LATSTAB_NODE_CAP", "xyz"),
    ("LATSTAB_NODE_CAP", "0"),
    ("LATSTAB_WEIGHT_CAP", "-3"),
    ("LATSTAB_MEM_MB", "1.5"),
])
def test_bad_budget_env_exit_1(bs3_file, monkeypatch, capsys, name, raw):
    monkeypatch.setenv(name, raw)
    assert main(["barrier", "--code", bs3_file]) == 1
    assert capsys.readouterr().err.startswith(f"error: {name}={raw!r} is not a positive integer")


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


def test_budget_env_overrides_cli_default(bs3_file, monkeypatch, capsys):
    from latstab.config import Budgets

    monkeypatch.setenv("LATSTAB_NODE_CAP", "1024")
    assert Budgets.from_env().node_cap == 1024
    assert main(["barrier", "--code", bs3_file]) == 1
    assert "node cap 1024" in capsys.readouterr().err
