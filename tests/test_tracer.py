"""The benchmark tracer (``perfbench/tracer.py``) wraps functions of the
package by name.  A wrapped name that is merely missing is listed and skipped,
but a module-level name that no longer exists makes ``install`` raise, and
every traced benchmark run with it.  ``install`` monkeypatches the package,
so it runs in a child process."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _install_and_list_missing() -> list:
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    code = ("import json; from tracer import Tracer, install; t = Tracer(hot=True); "
            "install(t); print(json.dumps(t.missing))")
    result = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_tracer_installs_against_the_package():
    _install_and_list_missing()


def test_tracer_finds_every_module_level_name():
    """A module attribute the tracer wraps but cannot find (listed as
    ``hodgeloci.<module>.<name>``) is a span that reads 0 while its time goes
    to the caller's span; ``cli`` holds ``integrability_check`` and
    ``block_foliation_forms`` for this reason."""
    assert [m for m in _install_and_list_missing() if m.startswith("hodgeloci.")] == []
