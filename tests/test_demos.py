"""Each script under demos/ runs to completion, so a demo that has drifted
from the library's API fails here rather than in a reader's hands."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_there_are_demos():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(script, tmp_path):
    # the package from this checkout; scratch files in the test's directory
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": path,
                              "TMPDIR": str(tmp_path)},
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr[-2000:]
