"""The demos run as plain scripts against the source tree."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_demos_run_cleanly(tmp_path):
    # TMPDIR is the test's own directory, so whatever a demo leaves there shows
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert [p.name[:3] for p in demos] == ["01_", "02_", "03_", "04_", "05_", "06_"]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmp_path)}
    for demo in demos:
        proc = subprocess.run([sys.executable, str(demo)], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, (demo.name, proc.stderr)
        assert proc.stderr == "", demo.name
        assert list(tmp_path.glob("rtm_demo_*")) == [], demo.name
