"""Every subcommand's output is byte-identical to a recorded one.

The recordings in tests/data/golden are the outputs of the commands below, run
in a directory that holds the zoo code files under the relative names in
CODES.  After an intended report change, re-record them with

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import os
import sys
from pathlib import Path

import pytest

from latstab.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"

CODES = {
    "toric3.code": ["toric", "--L", "3"],
    "toric8.code": ["toric", "--L", "8"],
    "bs3.code": ["bacon_shor", "--L", "3"],
    "sc3.code": ["steane_chain", "--L", "3"],
}

LOGICAL_X = "X(1,0) X(1,2) X(1,4)"

# name -> argv; each writes its report to <name>.json (audit also <name>.csv)
CASES = {
    "validate_toric3": ["validate", "--code", "toric3.code"],
    "validate_bs3": ["validate", "--code", "bs3.code"],
    "validate_sc3": ["validate", "--code", "sc3.code"],
    "distance_toric3": ["distance", "--code", "toric3.code"],
    "distance_toric3_bruteforce": ["distance", "--code", "toric3.code",
                                   "--method", "bruteforce"],
    "distance_toric3_capped": ["distance", "--code", "toric3.code",
                               "--method", "bruteforce", "--weight-cap", "2"],
    "distance_bs3_subsystem": ["distance", "--code", "bs3.code"],
    "distance_bs3_bare": ["distance", "--code", "bs3.code", "--mode", "bare",
                          "--axis", "1"],
    "lindist_toric3": ["lindist", "--code", "toric3.code"],
    "lindist_bs3_bare": ["lindist", "--code", "bs3.code", "--mode", "bare",
                         "--axis", "1"],
    "barrier_toric3_exact": ["barrier", "--code", "toric3.code"],
    "barrier_bs3_exact": ["barrier", "--code", "bs3.code"],
    "barrier_bs3_class_mask": ["barrier", "--code", "bs3.code", "--class-mask", "1"],
    "barrier_toric8_walk": ["barrier", "--code", "toric8.code", "--method", "walk"],
    "barrier_bs3_walk_arbitrary": ["barrier", "--code", "bs3.code", "--method", "walk",
                                   "--schedule", "arbitrary", "--axis", "1"],
    "clean_toric3_cleaned": ["clean", "--code", "toric3.code", "--op", LOGICAL_X,
                             "--box", "0:2,0:2"],
    "clean_toric3_trapped": ["clean", "--code", "toric3.code", "--op", LOGICAL_X,
                             "--box", "0:3,0:1"],
    "clean_toric3_sites": ["clean", "--code", "toric3.code", "--op", LOGICAL_X,
                           "--sites", "(0,0) (0,1) (0,2)"],
    "clean_bs3_cleaned": ["clean", "--code", "bs3.code", "--op", "X(0,0) X(0,1) X(0,2)",
                          "--sites", "(0,0) (0,1)"],
    "clean_bs3_trapped": ["clean", "--code", "bs3.code", "--op", "X(0,0) X(0,1) X(0,2)",
                          "--box", "0:3,0:1"],
    "sweep_toric8": ["sweep", "--code", "toric8.code"],
    "sweep_bs3": ["sweep", "--code", "bs3.code", "--axis", "1"],
    "restrict_audit_toric3": ["restrict-audit", "--code", "toric3.code", "--box", "0:2,0:2"],
    "restrict_audit_bs3": ["restrict-audit", "--code", "bs3.code",
                           "--sites", "(0,0) (1,0) (2,0)"],
    "min_block_sc3": ["min-block", "--code", "sc3.code"],
    "min_block_bs3": ["min-block", "--code", "bs3.code"],
    "audit_repetition": ["audit", "--family", "repetition", "--L", "2..4",
                         "--csv", "audit_repetition.csv"],
    "audit_steane_chain": ["audit", "--family", "steane_chain", "--L", "1,3"],
    "audit_bacon_shor": ["audit", "--family", "bacon_shor", "--L", "2..4"],
}


def _make_codes(workdir: Path) -> None:
    for name, argv in CODES.items():
        assert main(["zoo", *argv, "--out", str(workdir / name)]) == 0


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    _make_codes(path)
    return path


@pytest.mark.parametrize("name", sorted(CODES))
def test_zoo_output_matches_recording(workdir, name):
    assert (workdir / name).read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_recording(workdir, monkeypatch, name):
    monkeypatch.chdir(workdir)
    assert main([*CASES[name], "--out", f"{name}.json"]) == 0
    recordings = sorted(GOLDEN.glob(f"{name}.*"))
    assert recordings, f"no recording for {name}"
    for recorded in recordings:
        assert (workdir / recorded.name).read_bytes() == recorded.read_bytes(), recorded.name


def record() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    _make_codes(GOLDEN)
    os.chdir(GOLDEN)
    for name, argv in CASES.items():
        if main([*argv, "--out", f"{name}.json"]) != 0:
            sys.exit(f"{name} did not exit 0")


if __name__ == "__main__":
    record()
