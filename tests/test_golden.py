"""Golden CLI outputs: stdout bytes, stderr bytes and exit codes of stored runs.

``data/golden/cases.json`` maps each case name to its argument list and exit
code, and ``data/golden/<name>.out`` holds its stdout. Where
``data/golden/<name>.err`` exists it holds the stderr, less the
``wall_time_s`` line that every run prints. The cases cover the
``check`` battery on all five shipped configurations at two seeds, rk4 and
rk45 geodesics on all five (truncated runs included), so that
``background.sample`` reuses all, some or none of its stages, geodesics
whose exact zero components (of both signs) and space-like velocities reach
the terms of the spray that vanish, ``eval``,
``conformal`` and ``angle`` records, and ``hamiltonian`` on the closed and Newton routes, the
dual gap and the action residual. The ``eval_err_*`` cases cover the error paths of
loading and sampling: constants rejected at load, a constant that cannot be
evaluated, points where the base metric or the preferred-direction norm
fails, and a frame metric that overflows (their configurations are
``data/golden/err_*.cfg``). A refactor must
leave every byte as it is; a case is rewritten only for an intended change of
output, and the change log says so.
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
    captured = capsys.readouterr()
    assert code == case["exit"]
    assert captured.out.encode("utf-8") == (GOLDEN / f"{name}.out").read_bytes()
    err_path = GOLDEN / f"{name}.err"
    if err_path.exists():
        stderr = "".join(
            line for line in captured.err.splitlines(keepends=True)
            if not line.startswith("wall_time_s = ")
        )
        assert stderr.encode("utf-8") == err_path.read_bytes()
