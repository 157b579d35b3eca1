"""Benchmark of the ``hodgeloci`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` (nothing is installed).  One client runs one child process at a
time in a closed loop: the next invocation starts only after the previous
one has exited.  No workload passes ``--threads`` or ``--kernel``, so every
run is the plain single-threaded pure-Python case.

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``wall_s``: median wall time of one pass over the workload's command
  lines, each a fresh ``python -m hodgeloci`` process timed from spawn to exit;
* ``setup_s``: median wall time of a fresh interpreter that imports
  ``hodgeloci.cli``, calls ``build_parser()`` and parses the workload's
  argv, then stops before any command runs (at least ``SETUP_SAMPLES``
  probes, taken between the passes across the whole measuring window);
* ``peak_rss_mb``: median over passes of the largest child peak RSS of the
  pass (``os.wait4``).

``wall_s`` and ``setup_s`` are scaled to a fixed machine speed: a fixed
reference program runs after every command, and each sample is multiplied by
``REFERENCE_S`` over the mean of the reference runs just before and after it.
The unscaled medians are printed in the summary.

``--trace 1`` runs the same command lines in-process under
``perfbench/tracer.py``, cycling through an untraced child, a child with
every layer but the hot per-term calls wrapped, and a fully wrapped child,
and reports the per-layer metrics listed in ``BENCHMARK.json``: a layer's
times come from the least wrapped child that records it.

Every invocation's output is checked (see ``workloads.py``); a failed check
or an unexpected exit code counts in ``failed``, and its timing is not
reported.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; earlier lines, prefixed ``#``,
carry the machine record and a readable summary, including ``error_rate``.
``--workload all`` runs every workload and prints one table.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

SETUP_SAMPLES = 20  # at least this many set-up probes per run
GRACE_S = 120  # a child still running this long after the measuring window is killed
SETUP_PROBE = ("import json, sys\n"
               "from hodgeloci.cli import build_parser\n"
               "parser = build_parser()\n"
               "for argv in json.loads(sys.argv[1]):\n"
               "    parser.parse_args(argv)\n")
# A fixed pure-Python program (dict updates, integer and Fraction arithmetic, a
# keyed sort) run after every command.  The shared host's speed swings by tens
# of percent over seconds to minutes; a sample divided by the mean of the
# reference runs just before and after it does not, so timings are reported
# as seconds at the speed where the reference takes REFERENCE_S.
REFERENCE_PROGRAM = ("from fractions import Fraction\n"
                     "d = {}\n"
                     "for i in range(300_000):\n"
                     "    k = (i * 7919) % 1009\n"
                     "    d[k] = d.get(k, 0) + i * i % 13\n"
                     "f = Fraction(0)\n"
                     "for i in range(1, 4000):\n"
                     "    f += Fraction(i % 17 - 8, i)\n"
                     "assert len(sorted(d.items(), key=lambda kv: (kv[1], kv[0]))) == 1009\n")
REFERENCE_S = 0.25  # the reference program's median spawn-to-exit time on a 2-core Xeon

# per-layer metrics and their units, in the order they are reported
PER_LAYER = {
    "coeff_kernel.busy_s": "s",
    "coeff_kernel.calls": "count",
    "coeff_kernel.tuples_visited": "count",
    "coeff_kernel.terms_emitted": "count",
    "coeff_kernel.survival_ratio": "ratio",
    "periods.period_series.busy_s": "s",
    "periods.period_series.self_s": "s",
    "periods.denominator_profile.busy_s": "s",
    "series.ctor.busy_s": "s",
    "series.ctor.calls": "count",
    "series.ctor.terms_in": "count",
    "series.mul.busy_s": "s",
    "series.mul.calls": "count",
    "series.add.calls": "count",
    "series.to_doc.busy_s": "s",
    "cli.command.busy_s": "s",
    "cli.command.self_s": "s",
    "cli.output_bytes": "bytes",
    "hypergeo.eval_2f1.busy_s": "s",
    "hypergeo.eval_2f1.calls": "count",
    "hypergeo.invert_tau.busy_s": "s",
    "hypergeo.invert_tau.calls": "count",
    "hypergeo.tau_evals_per_inversion": "ratio",
    "hypergeo.locus_function.busy_s": "s",
    "hypergeo.points_ratio": "ratio",
    "exprparse.parse.busy_s": "s",
    "exprparse.print.busy_s": "s",
    "forms.integrability_check.busy_s": "s",
    "forms.integrability_check.calls": "count",
    "gauss_manin.gm_assemble.busy_s": "s",
    "gauss_manin.block_foliation_forms.self_s": "s",
    "ideals.ideal_membership_bounded.busy_s": "s",
    "linalg.busy_s": "s",
    "linalg.system_entries": "count",
    "pcurvature.vf_pow_p.busy_s": "s",
    "modp.mul.calls": "count",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, bad arguments)."""


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(args: List[str], stdout: Path, kill_at: float) -> tuple:
    """Run one child to completion, killing it at time ``kill_at``
    (perf_counter): (exit code, wall seconds, peak RSS in MB)."""
    with open(stdout, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(args, stdout=out, stderr=subprocess.PIPE, env=child_env(),
                                cwd=ROOT)
        killer = threading.Timer(max(0.0, kill_at - t0), proc.kill)
        killer.start()
        try:
            err = proc.stderr.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            proc.stderr.close()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode and err:
        sys.stderr.write(err.decode(errors="replace")[-2000:])
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def machine_record() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    compiled = sorted(p.name for p in (SRC / "hodgeloci").glob("_coeff_kernel*")
                      if p.suffix in (".so", ".pyd"))
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "compiled_kernel": compiled or "absent",
        "loadavg_start": [round(x, 2) for x in os.getloadavg()],
        "clients": 1,
        "children_at_a_time": 1,
        "loop": "closed",
    }


def prepare(name: str, seed: int, size) -> tuple:
    if not (SRC / "hodgeloci" / "cli.py").is_file():
        raise BenchError(f"no package source at {SRC}; run from the root of a hodgeloci checkout")
    if name not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {name!r}; choose from {sorted(workloads.WORKLOADS)}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    workdir = WORK / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return workdir, workloads.WORKLOADS[name].build(seed, size, workdir)


class Tally:
    """Invocations attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def record(self, cmd, code: int, out_path: Path) -> bool:
        self.attempted += 1
        if code != 0:
            why = f"exit code {code}"
        else:
            try:
                why = cmd.check(out_path.read_bytes())
            except Exception as exc:  # malformed output: a failed check, not a crash
                why = f"check raised {exc!r}"
        if why is None:
            return True
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(f"{cmd.argv[0]}: {why}")
        return False


def measure(commands, seconds: float, workdir: Path, tally: Tally) -> Optional[dict]:
    argvs = [c.argv for c in commands]
    probe = [sys.executable, "-c", SETUP_PROBE, json.dumps(argvs)]
    start = time.perf_counter()
    deadline = start + seconds
    kill_at = deadline + GRACE_S
    raw = {"wall_s": [], "setup_s": [], "reference_s": []}
    walls, setup, rss = [], [], []

    def reference() -> float:
        code, wall, _ = spawn([sys.executable, "-c", REFERENCE_PROGRAM],
                              workdir / "reference.out", kill_at)
        if code != 0:
            raise BenchError(f"reference program: exit code {code}")
        raw["reference_s"].append(wall)
        return wall

    def probes(n: int) -> List[float]:
        got: List[float] = []
        for _ in range(n):
            code, wall, _ = spawn(probe, workdir / "setup.out", kill_at)
            tally.attempted += 1
            if code != 0:
                tally.failed += 1
                tally.reasons.append(f"setup probe: exit code {code}")
                break
            got.append(wall)
        return got

    # the first probe also compiles bytecode: discarded
    spawn(probe, workdir / "setup.out", kill_at)
    before = reference()

    def bracket() -> float:
        """Run the next reference; the scale of the samples since the last one."""
        nonlocal before
        after = reference()
        scale = REFERENCE_S / ((before + after) / 2)
        before = after
        return scale

    def add_setup(walls_: List[float], scale: float) -> None:
        raw["setup_s"].extend(walls_)
        setup.extend(w * scale for w in walls_)

    while True:
        cycle_start = time.perf_counter()
        # set-up probes are spread over the window so that they see the same
        # drift in machine speed as the passes: one before each pass, more if
        # fewer than SETUP_SAMPLES * (elapsed share of the window) were taken
        frac = (cycle_start - start) / seconds
        cycle_setup = probes(max(1, math.ceil(SETUP_SAMPLES * frac) - len(setup)))
        ok, wall, raw_wall, peak = True, 0.0, 0.0, 0.0
        for k, cmd in enumerate(commands):
            out = workdir / f"out{k}"
            code, w, r = spawn([sys.executable, "-m", "hodgeloci", *cmd.argv], out, kill_at)
            ok = tally.record(cmd, code, out) and ok
            # a reference run after every command, so each command (and the
            # probes before the first) is scaled by the references around it
            scale = bracket()
            if k == 0:
                add_setup(cycle_setup, scale)
            wall += w * scale
            raw_wall += w
            peak = max(peak, r)
        if ok:
            raw["wall_s"].append(raw_wall)
            walls.append(wall)
            rss.append(peak)
        now = time.perf_counter()
        if now + (now - cycle_start) > deadline:
            break
    while 0 < len(setup) < SETUP_SAMPLES:
        cycle_setup = probes(SETUP_SAMPLES - len(setup))
        add_setup(cycle_setup, bracket())
        if not cycle_setup:
            break
    if not walls or not setup:
        return None
    return {
        "metrics": {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (statistics.median(rss), "MB"),
        },
        "samples": {"wall_s": walls, "setup_s": setup, "peak_rss_mb": rss},
        "unscaled": {k: statistics.median(v) for k, v in raw.items() if v},
        "unscaled_samples": raw,
    }


def trace(commands, seconds: float, workdir: Path, tally: Tally) -> Optional[dict]:
    # "off" runs untraced, "coarse" wraps every layer but the hot per-term
    # calls (so the callers' busy and self time carry almost no tracer cost),
    # "full" wraps the hot calls too and gives their counts and times
    runs = {"off": [], "coarse": [], "full": []}
    deadline = time.perf_counter() + seconds
    kill_at = deadline + GRACE_S
    spans_file = workdir / "spans.json"
    while True:
        round_wall = 0.0
        for mode in runs:
            spec = {"trace": mode, "result": str(workdir / "trace_result.json"),
                    "commands": [{"argv": c.argv, "stdout": str(workdir / f"tout{k}")}
                                 for k, c in enumerate(commands)]}
            (workdir / "trace_spec.json").write_text(json.dumps(spec))
            code, wall, _ = spawn([sys.executable, str(HERE / "tracer.py"),
                                   str(workdir / "trace_spec.json")], workdir / "tracer.out",
                                  kill_at)
            round_wall += wall
            if code != 0:
                tally.attempted += len(commands)
                tally.failed += len(commands)
                tally.reasons.append(f"tracer exit code {code}")
                continue
            result = json.loads((workdir / "trace_result.json").read_text())
            ok = all([tally.record(c, result["codes"][k], workdir / f"tout{k}")
                      for k, c in enumerate(commands)])
            if not ok:
                continue
            result["wall"] = wall
            result["output_bytes"] = sum((workdir / f"tout{k}").stat().st_size
                                         for k in range(len(commands)))
            if mode == "full":
                spans_file.write_text(json.dumps(result.pop("spans")))
            runs[mode].append(result)
        if time.perf_counter() + round_wall > deadline and (runs["full"] or tally.failed):
            break
    if not all(runs.values()):
        return None
    first = runs["full"][0]
    for other in runs["full"][1:]:
        if other["counters"] != first["counters"] or \
                {k: v[0] for k, v in other["stats"].items()} != \
                {k: v[0] for k, v in first["stats"].items()}:
            print("# warning: traced counts differ between repeats", file=sys.stderr)
    if first["missing"]:
        print(f"# warning: not wrapped: {first['missing']}", file=sys.stderr)

    def med(key, idx):  # median over traced repeats of a stats column
        mode = "coarse" if key in runs["coarse"][0]["stats"] else "full"
        return statistics.median(r["stats"].get(key, [0, 0.0, 0.0])[idx] for r in runs[mode])

    def calls(key):
        return first["stats"].get(key, [0])[0]
    cnt = first["counters"]
    visited = cnt.get("coeff_kernel.tuples_visited", 0)
    inversions = calls("hypergeo.invert_tau")
    grid = cnt.get("hypergeo.grid_points", 0)
    values = {
        "coeff_kernel.busy_s": med("coeff_kernel", 1),
        "coeff_kernel.calls": calls("coeff_kernel"),
        "coeff_kernel.tuples_visited": visited,
        "coeff_kernel.terms_emitted": cnt.get("coeff_kernel.terms_emitted", 0),
        "coeff_kernel.survival_ratio":
            cnt.get("coeff_kernel.terms_emitted", 0) / visited if visited else 0.0,
        "periods.period_series.busy_s": med("periods.period_series", 1),
        "periods.period_series.self_s": med("periods.period_series", 2),
        "periods.denominator_profile.busy_s": med("periods.denominator_profile", 1),
        "series.ctor.busy_s": med("series.ctor", 1),
        "series.ctor.calls": calls("series.ctor"),
        "series.ctor.terms_in": cnt.get("series.ctor.terms_in", 0),
        "series.mul.busy_s": med("series.mul", 1),
        "series.mul.calls": calls("series.mul"),
        "series.add.calls": calls("series.add"),
        "series.to_doc.busy_s": med("series.to_doc", 1),
        "cli.command.busy_s": med("cli.command", 1),
        "cli.command.self_s": med("cli.command", 2),
        "cli.output_bytes": first["output_bytes"],
        "hypergeo.eval_2f1.busy_s": med("hypergeo.eval_2f1", 1),
        "hypergeo.eval_2f1.calls": calls("hypergeo.eval_2f1"),
        "hypergeo.invert_tau.busy_s": med("hypergeo.invert_tau", 1),
        "hypergeo.invert_tau.calls": inversions,
        "hypergeo.tau_evals_per_inversion":
            cnt.get("hypergeo.tau_evals_in_inversions", 0) / inversions if inversions else 0.0,
        "hypergeo.locus_function.busy_s": med("hypergeo.locus_function", 1),
        "hypergeo.points_ratio": cnt.get("hypergeo.points_kept", 0) / grid if grid else 0.0,
        "exprparse.parse.busy_s": med("exprparse.parse", 1),
        "exprparse.print.busy_s": med("exprparse.print", 1),
        "forms.integrability_check.busy_s": med("forms.integrability_check", 1),
        "forms.integrability_check.calls": calls("forms.integrability_check"),
        "gauss_manin.gm_assemble.busy_s": med("gauss_manin.gm_assemble", 1),
        "gauss_manin.block_foliation_forms.self_s": med("gauss_manin.block_foliation_forms", 2),
        "ideals.ideal_membership_bounded.busy_s": med("ideals.ideal_membership_bounded", 1),
        "linalg.busy_s": med("linalg", 1),
        "linalg.system_entries": cnt.get("linalg.system_entries", 0),
        "pcurvature.vf_pow_p.busy_s": med("pcurvature.vf_pow_p", 1),
        "modp.mul.calls": calls("modp.mul"),
        "trace.overhead_s": statistics.median(r["wall"] for r in runs["full"])
        - statistics.median(r["wall"] for r in runs["off"]),
    }
    return {"metrics": {k: (values[k], unit) for k, unit in PER_LAYER.items()},
            "samples": {f"{mode}_wall_s": [r["wall"] for r in rs] for mode, rs in runs.items()},
            "spans_file": str(spans_file.relative_to(ROOT))}


def run_one(name: str, seed: int, seconds: float, traced: bool,
            size=workloads.FULL) -> dict:
    workdir, commands = prepare(name, seed, size)
    tally = Tally()
    res = (trace if traced else measure)(commands, seconds, workdir, tally)
    if res is None:
        raise BenchError(f"{name}: no invocation succeeded ({'; '.join(tally.reasons)})")
    res.update(workload=name, seed=seed, trace=int(traced), attempted=tally.attempted,
               failed=tally.failed, failures=tally.reasons,
               error_rate=tally.failed / tally.attempted,
               commands=[c.argv for c in commands])
    return res


def result_doc(res: dict) -> dict:
    """The result object the last stdout line carries."""
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
    }


def summary_lines(res: dict) -> List[str]:
    out = [f"# {res['workload']} seed={res['seed']} trace={res['trace']}"]
    for k, (v, u) in res["metrics"].items():
        n = len(res["samples"].get(k, ()))
        out.append(f"#   {k:<44} {v:>14.6g} {u}" + (f"  (n={n})" if n else ""))
    out.append(f"#   {'error_rate':<44} {res['error_rate']:>14.6g} ratio"
               f"  ({res['failed']}/{res['attempted']})")
    for k, v in res.get("unscaled", {}).items():
        out.append(f"#   {k + ' (unscaled)':<44} {v:>14.6g} s"
                   f"  (n={len(res['unscaled_samples'][k])})")
    out += [f"#   failure: {r}" for r in res["failures"]]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    machine = machine_record()
    results = []
    try:
        for name in names:
            res = run_one(name, args.seed, args.seconds, bool(args.trace))
            res["machine"] = machine
            res_file = WORK / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
            res_file.write_text(json.dumps(res, indent=1))
            results.append(res)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("# machine " + json.dumps(machine))
    for res in results:
        print("\n".join(summary_lines(res)))
    if len(results) == 1:
        print(json.dumps(result_doc(results[0])))
    else:
        print(json.dumps({r["workload"]: result_doc(r) for r in results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
