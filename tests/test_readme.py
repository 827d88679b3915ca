"""README's examples run as written: the library quick start gives its
commented values, and every command of the CLI block exits 0."""

import ast
import json
import re
import shlex
from pathlib import Path

from latstab.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block_under(heading):
    """The first fenced block after the given '## ' heading, as lines."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    block = re.search(r"```[a-z]*\n(.*?)```", section, re.S).group(1)
    return [line for line in block.splitlines() if line.strip()]


def _leading_int(comment):
    m = re.match(r"\s*(\d+)\b", comment)
    return int(m.group(1)) if m else None


def test_library_quick_start_gives_its_commented_values():
    namespace = {}
    checked = []
    for line in _block_under("Library quick start"):
        stmt, _, comment = line.partition("#")
        expected = _leading_int(comment)
        tree = ast.parse(stmt.strip())
        if expected is not None and isinstance(tree.body[0], ast.Expr):
            assert eval(stmt.strip(), namespace) == expected, line
            checked.append(expected)
        else:
            exec(stmt, namespace)
    # k, d by the DP and by brute force, d1, the exact barrier, the walk bound
    assert checked == [2, 3, 3, 1, 4, 4]


def test_cli_block_runs_as_written(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = _block_under("CLI")
    assert lines and all(line.startswith("latstab ") for line in lines)
    for line in lines:
        rc = main(shlex.split(line, comments=True)[1:])
        out, err = capsys.readouterr()
        assert rc == 0, (line, err)
        expected = _leading_int(line.partition("#")[2])
        if expected is not None:
            assert json.loads(out)["result"]["value"] == expected, line
