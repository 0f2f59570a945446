"""Every demo script runs to completion against the installed package."""
from __future__ import annotations

import glob
import os
import subprocess
import sys

import pytest

import egoqa

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(egoqa.__file__)))
DEMOS = sorted(glob.glob(os.path.join(REPO, "demos", "*.py")))


def test_demos_found():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_exits_0(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.pop("EGOQA_BASE_URL", None)
    env.pop("EGOQA_API_KEY", None)
    result = subprocess.run(
        [sys.executable, demo], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert os.listdir(tmp_path) == []
