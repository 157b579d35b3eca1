"""Run ``hodgeloci.cli.main`` in-process on a list of command lines, with or
without per-layer spans, and write what happened to a JSON file.

    python3 perfbench/tracer.py SPEC.json

SPEC holds ``{"commands": [{"argv": [...], "stdout": PATH}, ...],
"trace": "off"|"coarse"|"full", "result": PATH}``; "coarse" leaves the hot
per-term calls unwrapped.  ``src`` must be on PYTHONPATH.

Spans are recorded from this file only: each public function is replaced
at the name its caller looks up (a module attribute such as
``periods.period_series``, a class attribute such as
``SparseSeries.__init__``, or ``cli._cmd_*`` before ``build_parser()``
stores them), and nothing under ``src/`` is edited.  Self time comes from a
span stack.  The cost of each wrapper is measured once at start (a wrapped
no-op against the bare one) and taken out of the span's own time and of
every enclosing span's busy and self time.  Hot per-term calls are
aggregated (calls, busy and self time) instead of kept one span each; every
other span is kept in memory with its parent and written out at the end.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from math import comb

perf_counter = time.perf_counter


class Tracer:
    CALIBRATION_CALLS = 1000
    CALIBRATION_REPEATS = 3

    def __init__(self, hot: bool):
        self.hot = hot             # wrap the hot per-term calls too
        self.stack = []            # open spans: [child seconds, span id, nested overhead]
        self.depth = Counter()     # open spans per name; busy counts the outermost
        self.stats = {}            # name -> [calls, busy seconds, self seconds]
        self.spans = []            # (id, parent id, name, start, end, busy) of non-hot spans
        self.counters = Counter()
        self.missing = []
        self.overhead = {}         # name -> (seconds seen by the caller, seconds inside the span)

    def wrap(self, owner, attr, name, hot=False, after=None):
        """Replace owner.attr by a timed wrapper; ``after(args, kwargs, result)``
        updates counters once the call returns."""
        if hot and not self.hot:
            return
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        if name not in self.overhead:
            # a hot wrapper's ``after`` runs per term, so its cost is calibrated
            # too; it must accept the calibration's dummy arguments
            self.overhead[name] = (self._calibrate(hot, after) if hot else
                                   self.overhead.setdefault("", self._calibrate(False, None)))
        wrapper = self._make_wrapper(fn, name, hot, after, *self.overhead[name])
        wrapper.__wrapped__ = fn
        setattr(owner, attr, wrapper)

    def _make_wrapper(self, fn, name, hot, after, outer, inner):
        """A timed wrapper of ``fn``.  Its own cost is taken out of the figures:
        ``outer`` seconds per call from every enclosing span, and ``inner``
        seconds per call (the part between its two clock reads) from itself."""
        stack, depth, spans = self.stack, self.depth, self.spans
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else 0
            sid = parent if hot else len(spans) + 1
            if not hot:
                spans.append(None)  # reserve the id; filled in on return
            frame = [0.0, sid, 0.0]
            stack.append(frame)
            depth[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                depth[name] -= 1
                busy = t1 - t0 - frame[2] - inner
                stat[0] += 1
                if not depth[name]:
                    stat[1] += busy
                stat[2] += t1 - t0 - frame[0] - inner
                if stack:
                    stack[-1][0] += busy + outer
                    stack[-1][2] += frame[2] + outer
                if not hot:
                    spans[sid - 1] = (sid, parent, name, t0, t1, busy)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _calibrate(self, hot, after):
        """Cost of one wrapped call of a no-op, with this wrapper's ``after``:
        (seconds the caller sees beyond the bare call, seconds the wrapper's
        own clock reads add to the span)."""
        def noop(*args, **kwargs):
            return ()
        args = (None, [()], ())  # shaped like the real calls' arguments
        saved = self.stats, self.spans, self.counters, self.depth
        self.stats, self.spans, self.counters, self.depth = {}, [], Counter(), Counter()
        wrapped = self._make_wrapper(noop, "calibration", hot, after, 0.0, 0.0)
        self.stack.append([0.0, 0, 0.0])
        n = self.CALIBRATION_CALLS
        best_bare = best_wrapped = best_inner = float("inf")
        try:
            for _ in range(self.CALIBRATION_REPEATS):
                t0 = perf_counter()
                for _ in range(n):
                    noop(*args)
                t1 = perf_counter()
                before = self.stats["calibration"][2]
                for _ in range(n):
                    wrapped(*args)
                t2 = perf_counter()
                best_bare = min(best_bare, t1 - t0)
                best_wrapped = min(best_wrapped, t2 - t1)
                best_inner = min(best_inner, self.stats["calibration"][2] - before)
        finally:
            self.stack.pop()
            self.stats, self.spans, self.counters, self.depth = saved
        outer = max(0.0, best_wrapped - best_bare) / n
        inner = max(0.0, best_inner - best_bare) / n
        return outer, inner

    def wrap_module(self, owner, attr, name):
        """Replace a module reference held by ``owner`` with a namespace whose
        public functions are wrapped under one span name."""
        mod = getattr(owner, attr, None)
        if mod is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        proxy = type(mod)(mod.__name__)
        proxy.__dict__.update(mod.__dict__)

        def count_entries(args, kwargs, result):
            rows = list(args[0]) if args else []
            self.counters["linalg.system_entries"] += len(rows) * (len(rows[0]) if rows else 0)
        for fname, fn in vars(mod).items():
            if callable(fn) and not fname.startswith("_") and getattr(fn, "__module__", "") == mod.__name__:
                self.wrap(proxy, fname, name, after=count_entries)
        setattr(owner, attr, proxy)


def install(tracer: Tracer) -> None:
    from hodgeloci import (_coeff_kernel_py, cli, exprparse, gauss_manin, hypergeo, ideals,
                           modp, pcurvature, periods, series)

    c = tracer.counters
    w = tracer.wrap

    def kernel_done(args, kwargs, result):
        beta, d, alphas, trunc = args[:4]
        c["coeff_kernel.tuples_visited"] += comb(trunc + len(alphas), len(alphas))
        c["coeff_kernel.terms_emitted"] += len(result)
    w(_coeff_kernel_py, "coefficient_terms", "coeff_kernel", after=kernel_done)
    w(periods, "period_series", "periods.period_series")
    w(periods, "denominator_profile", "periods.denominator_profile")

    def ctor_done(args, kwargs, result):
        terms = args[2] if len(args) > 2 else kwargs.get("terms")
        if hasattr(terms, "__len__"):
            c["series.ctor.terms_in"] += len(terms)
    sparse = series.SparseSeries
    w(sparse, "__init__", "series.ctor", hot=True, after=ctor_done)
    w(sparse, "__mul__", "series.mul", hot=True)
    w(sparse, "__add__", "series.add", hot=True)
    w(sparse, "to_doc", "series.to_doc")
    w(modp.ModPoly, "__mul__", "modp.mul", hot=True)

    def locus_done(args, kwargs, result):
        c["hypergeo.grid_points"] += len(args[1])
        c["hypergeo.points_kept"] += len(result.points)

    def tau_done(args, kwargs, result):
        if tracer.depth["hypergeo.invert_tau"]:
            c["hypergeo.tau_evals_in_inversions"] += 1
    w(hypergeo, "sample_locus", "hypergeo.sample_locus", after=locus_done)
    w(hypergeo, "eval_2f1", "hypergeo.eval_2f1", hot=True)
    w(hypergeo, "tau_of_t", "hypergeo.tau_of_t", hot=True, after=tau_done)
    w(hypergeo, "invert_tau", "hypergeo.invert_tau", hot=True)
    w(hypergeo, "locus_function", "hypergeo.locus_function", hot=True)

    for attr in ("parse_poly", "parse_oneform", "parse_field"):
        w(exprparse, attr, "exprparse.parse")
    for attr in ("poly_to_expr", "oneform_to_expr", "field_to_expr"):
        w(exprparse, attr, "exprparse.print")
    w(cli, "integrability_check", "forms.integrability_check")
    w(cli, "block_foliation_forms", "gauss_manin.block_foliation_forms")
    w(gauss_manin, "gm_assemble", "gauss_manin.gm_assemble")
    w(ideals, "tangency_check", "ideals.tangency_check")
    w(ideals, "ideal_membership_bounded", "ideals.ideal_membership_bounded")
    tracer.wrap_module(ideals, "linalg", "linalg")
    w(pcurvature, "vf_pow_p", "pcurvature.vf_pow_p")
    for attr in [a for a in vars(cli) if a.startswith("_cmd_")]:
        w(cli, attr, "cli.command")


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    from hodgeloci import cli

    tracer = None if spec["trace"] == "off" else Tracer(hot=spec["trace"] == "full")
    if tracer is not None:
        install(tracer)
    codes = []
    real_stdout = sys.stdout
    t0 = perf_counter()
    for cmd in spec["commands"]:
        with open(cmd["stdout"], "w", encoding="utf-8") as out:
            sys.stdout = out
            try:
                codes.append(cli.main(cmd["argv"]))
            finally:
                sys.stdout = real_stdout
    wall = perf_counter() - t0
    result = {"codes": codes, "wall_s": wall}
    if tracer is not None:
        result.update(stats=tracer.stats, counters=tracer.counters, missing=tracer.missing,
                      overhead=tracer.overhead,
                      spans=[s for s in tracer.spans if s is not None])
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
