"""Each demo script runs to completion in a fresh interpreter."""

from pathlib import Path

import pytest

from helpers import run_python

_DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", _DEMOS, ids=[p.stem for p in _DEMOS])
def test_demo_exits_0(tmp_path, demo):
    proc = run_python([str(demo)], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert not any(tmp_path.iterdir())  # a demo writes no files
