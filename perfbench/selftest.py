"""Self-test of the benchmark harness at toy sizes (a D=4 quartic, a 5-point
locus grid, a 1,2,1 block gm).

    python3 perfbench/selftest.py

Runs every workload end to end with tracing off and on, asserts that every
metric named in BENCHMARK.json is printed with its unit and that the seed
code is counted correct, that a deliberately corrupted output is counted
in error_rate, and that the benchmark refuses to run without the source
tree.  Exits non-zero on the first failed assertion.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from math import comb
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
import workloads  # noqa: E402


def bench(*args: str, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=600)


def check_all_workloads(spec: dict) -> None:
    machine = run.machine_record()
    assert machine["compiled_kernel"] == "absent" and machine["clients"] == 1, machine
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        units = {m["name"]: m["unit"] for m in spec[key]}
        results = {}
        for name in workloads.WORKLOADS:
            res = run.run_one(name, 3, 1, bool(trace), workloads.TOY)
            doc = run.result_doc(res)
            assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1, (name, doc)
            got = {k: v["unit"] for k, v in doc["metrics"].items()}
            assert got == units, (name, set(got) ^ set(units))
            lines = run.summary_lines(res)
            for k, unit in list(units.items()) + [("error_rate", "ratio")]:
                assert any(l.split()[1:2] == [k] and f" {unit}" in l for l in lines), (name, k)
            results[name] = doc
        if trace:
            m = results["quartic"]["metrics"]  # denominators and periods: 21 rows each
            assert m["coeff_kernel.tuples_visited"]["value"] == 2 * 21 * comb(4 + 4, 4)
            assert m["coeff_kernel.calls"]["value"] == 2 * 21
            assert results["isogeny_locus"]["metrics"]["hypergeo.points_ratio"]["value"] > 0
            assert results["foliation"]["metrics"]["forms.integrability_check.calls"]["value"] == 2
        print(f"ok: every workload runs with --trace {trace} and prints every {key} metric")


def check_corruption_counted() -> None:
    """Truncate the first output of each run; the harness must count it as failed."""
    spawn = run.spawn

    def corrupting_spawn(args, stdout, kill_at):
        code, wall, rss = spawn(args, stdout, kill_at)
        if "-m" in args and not corrupted:
            data = stdout.read_bytes()
            stdout.write_bytes(data[: len(data) // 2])
            corrupted.append(stdout)
        return code, wall, rss

    run.spawn = corrupting_spawn
    try:
        for name in workloads.WORKLOADS:
            corrupted = []
            res = run.run_one(name, 5, 5, False, workloads.TOY)
            assert corrupted and res["failed"] >= 1 and res["error_rate"] > 0, (name, res)
            assert run.result_doc(res)["correct"] is False, name
    finally:
        run.spawn = spawn
    print("ok: a corrupted output is counted in error_rate for every workload")


def check_refuses_without_source() -> None:
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench("--workload", "quartic", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok: exits non-zero without a result when the source tree is absent")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    check_all_workloads(spec)
    check_corruption_counted()
    check_refuses_without_source()
    return 0


if __name__ == "__main__":
    sys.exit(main())
