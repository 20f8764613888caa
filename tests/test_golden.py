"""Golden CLI outputs: stdout bytes and exit codes of stored runs.

``data/golden/cases.json`` maps each case name to its argument list and exit
code, and ``data/golden/<name>.out`` holds its stdout. The cases cover the
``check`` battery on all five shipped configurations at two seeds, rk4 and
rk45 geodesics on all five (truncated runs included), so that
``background.sample`` reuses all, some or none of its stages, ``eval``,
``conformal`` and ``angle`` records, and ``hamiltonian`` on the closed and Newton routes, the
dual gap and the action residual. A refactor must leave every byte as it is; a case is
rewritten only for an intended change of output, and the change log says so.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from finsleroid import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_and_exit_code_match(name, monkeypatch, capsys):
    case = CASES[name]
    # the cases name their configurations relative to the root, and `check`
    # prints that path
    monkeypatch.chdir(ROOT)
    code = cli.main(case["argv"])
    stdout = capsys.readouterr().out
    assert code == case["exit"]
    assert stdout.encode("utf-8") == (GOLDEN / f"{name}.out").read_bytes()
