"""Fuzz tests: malformed input gives a typed LatstabError (exit 1 in the CLI),
never an uncaught exception."""

import argparse
import contextlib
import io

import pytest
from hypothesis import example, given, settings, strategies as st

from latstab import make_bacon_shor_2d, make_repetition_1d, parse_code, serialize_code
from latstab.cli import build_parser, main
from latstab.errors import LatstabError

FUZZ = settings(max_examples=150, deadline=None)

small = st.integers(-2, 4)
coords = st.lists(small, max_size=3).map(lambda cs: ",".join(map(str, cs)))
noise = st.text(max_size=12)

# code-file lines: near-valid ones with small numbers (so a lattice stays
# tiny), plus arbitrary text
code_line = st.one_of(
    st.builds("lattice D={} L={} boundary={}".format, small, small,
              st.sampled_from(["open", "periodic", "x"])),
    st.builds("{}={}".format, st.sampled_from(["r", "scale", "role", "name"]),
              st.one_of(small.map(str), st.sampled_from(["stabilizer", "gauge"]), noise)),
    st.sampled_from(["qubits:", "#", ""]),
    coords.map("({})".format),
    st.lists(st.builds("{}({})".format, st.sampled_from("IXYZW"), coords), max_size=3)
    .map(" ".join),
    noise,
)


@FUZZ
@given(st.lists(code_line, max_size=8).map("\n".join))
@example("lattice D=1 L=3 boundary=open\nrole=stabilizer\nr=-1")
def test_parse_code_raises_only_latstab_errors(text):
    try:
        parse_code(text)
    except LatstabError:
        pass


@pytest.fixture(scope="module")
def code_paths(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz")
    paths = [str(base), str(base / "missing.code")]
    for name, code in (("rep3.code", make_repetition_1d(3)),
                       ("bs2.code", make_bacon_shor_2d(2))):
        (base / name).write_text(serialize_code(code))
        paths.append(str(base / name))
    return paths


def choice(*values):
    return st.sampled_from(values)


BUDGETS = {
    "--weight-cap": small.map(str),
    "--node-cap": choice("0", "1", "64", "4096", "x"),
    "--mem-budget": small.map(str),
}
REGION = {
    "--box": st.text(alphabet="0123:,- ", max_size=8),
    "--sites": st.text(alphabet="0123(), -", max_size=10),
}
# per subcommand: its options and their values, a few of them invalid
OPTIONS = {
    "validate": {},
    "distance": {"--mode": choice("subsystem", "bare", "x"),
                 "--method": choice("auto", "dp", "bruteforce", "x"),
                 "--axis": small.map(str)},
    "lindist": {"--mode": choice("subsystem", "bare", "x"),
                "--axis": small.map(str)},
    "barrier": {"--method": choice("exact", "walk", "x"),
                "--schedule": choice("row_by_row", "arbitrary", "x"),
                "--axis": small.map(str),
                "--class-mask": small.map(str)},
    "clean": REGION,
    "sweep": {"--axis": small.map(str)},
    "restrict-audit": REGION,
    "min-block": {"--axis": small.map(str)},
    "audit": {"--boundary": choice("open", "periodic", "x")},
}
# the budget flags each subcommand reads
BUDGETED = {
    "distance": BUDGETS,
    "barrier": {"--node-cap": BUDGETS["--node-cap"]},
    "restrict-audit": BUDGETS,
    "min-block": BUDGETS,
    "audit": BUDGETS,
}


def command_options(command):
    return {**OPTIONS[command], **BUDGETED.get(command, {})}


OP = st.one_of(choice("X(0) X(1) X(2)", "Z(0)", "X(0,0) X(0,1)", ""), noise)
L_SPEC = st.builds(
    lambda parts, sep: sep.join(parts),
    st.lists(st.one_of(small.map(str), choice("x", "", " ")), min_size=1, max_size=3),
    choice(",", "..", "..."),
)


@st.composite
def argvs(draw, code_paths):
    command = draw(choice(*OPTIONS))
    if command == "audit":
        head = ["audit", "--family", "repetition", "--L", draw(L_SPEC)]
    else:
        head = [command, "--code", draw(choice(*code_paths))]
        if command == "clean":
            head += ["--op", draw(OP)]
    options = command_options(command)
    names = draw(st.lists(choice(*options), max_size=4, unique=True)) if options else []
    return head + [a for name in names for a in (name, draw(options[name]))]


@FUZZ
@given(data=st.data())
def test_cli_exits_with_a_code(code_paths, data):
    argv = data.draw(argvs(code_paths))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = main(argv)
        except SystemExit as e:  # the parser rejects the command line
            assert e.code == 1
            return
    assert rc in (0, 1, 2)


def test_option_table_matches_parser():
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    for command in OPTIONS:
        defined = subparsers.choices[command]._option_string_actions
        assert set(command_options(command)) <= set(defined), command
        assert all((flag in defined) == (flag in BUDGETED.get(command, {}))
                   for flag in BUDGETS), command
