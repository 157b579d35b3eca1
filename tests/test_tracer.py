"""The benchmark tracer (``perfbench/tracer.py``) wraps functions of the
package by name.  A wrapped name that is merely missing is listed and skipped,
but a module-level name that no longer exists makes ``install`` raise, and
every traced benchmark run with it.  ``install`` monkeypatches the package,
so it runs in a child process."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_against_the_package():
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    code = "from tracer import Tracer, install; install(Tracer(hot=True))"
    result = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
