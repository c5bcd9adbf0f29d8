import os
import subprocess
import sys
from pathlib import Path

import avgrank


def test_demos_run():
    demos = sorted((Path(__file__).parents[1] / "demos").glob("demo_*.py"))
    assert len(demos) == 4
    env = dict(os.environ, PYTHONPATH=str(Path(avgrank.__file__).parents[1]))
    for demo in demos:
        out = subprocess.run(
            [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120
        )
        assert out.returncode == 0, f"{demo.name}: {out.stderr}"
