"""besselkit benchmark: one closed-loop caller evaluating operators at target points.

    python3 bench/run.py --workload {semigroup,singular,maximal} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; besselkit is imported from ./src.
The run draws its inputs from the seed, sets besselkit up (fresh import,
inputs, specs, cache warm-up) at least SETUP_REPEATS times and for at least
SETUP_SECONDS and reports the median, computes every reference outside the
timed region, then evaluates whole cycles through the workload's passes,
one evaluation after another, as many as fit in S seconds (at least
MIN_CYCLES).  Every evaluation is checked against its reference.
Latencies are reported per case as the median over the cycles, so that the
host's phases of a few seconds, fast or slow, do not move them.  With
--trace 1 one cycle of the same evaluations is then replayed under the
outside-in tracer and the per-layer metrics are printed instead.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  Details, the environment and the trace spans are
written under .bench_out/.  See README.md in this directory.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy loads: one caller, one thread, steady timings on a
# small shared machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402
import warnings  # noqa: E402
from array import array  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Durations are CPU time of this process.  The program runs in one thread
# (BLAS pinned), so on an idle machine CPU time equals wall time; on a shared
# one it leaves out the time other tenants hold the core, which is not the
# program's cost and swung wall-clock rates by 20% between identical runs.
CLOCK = time.process_time
# Set-ups per run: at least this many, and more while their total is short
# of SETUP_SECONDS, so that a set-up of 0.1 s is a median of many.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
# Cycles through the pool a run makes at least.  The repeats of one case lie
# a cycle apart, so its median latency is that of the host's prevailing
# speed, not of a passing fast or slow phase; see README.md.
MIN_CYCLES = 5
TAIL_PCT = 90  # eval_tail_s: this percentile of the cases' median latencies
OPERATORS = ("apply_semigroup", "apply_riesz", "apply_frac", "commutator",
             "frac_integral_Igamma", "hl_maximal", "hl_maximal_t", "h_beta_maximal")
MODULES = ("special", "measure", "quadrature", "kernels", "operators")


def fresh_import():
    """Import besselkit anew from ./src, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "besselkit" or m.startswith("besselkit.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("besselkit")
    if Path(pkg.__file__).resolve().parent != SRC / "besselkit":
        raise ImportError(f"besselkit imported from {pkg.__file__}, not from {SRC}")
    return types.SimpleNamespace(**{m: importlib.import_module(f"besselkit.{m}") for m in MODULES})


def set_up(workload: str, seed: int):
    """One set-up: import, inputs and specs, warm-up.  Returns (bk, passes, calls)."""
    bk = fresh_import()
    passes = workloads.draw(workload, seed)
    calls = [[workloads.bind(c, bk) for c in p] for p in passes]
    workloads.warm_up([c for p in passes for c in p], bk)
    return bk, passes, calls


def evaluate(call):
    """(value or None, error name or None, CPU seconds) of one timed evaluation."""
    t0 = CLOCK()
    try:
        value = call()
    except Exception as exc:  # a raising operator is a counted failure, not a crash
        return None, type(exc).__name__, CLOCK() - t0
    return value, None, CLOCK() - t0


def classify(case, value, error):
    """('pass' | 'raise' | 'nonfinite' | 'miss', |err|/tol or None)."""
    if error is not None:
        return "raise", None
    if not (isinstance(value, float) or np.isscalar(value)) or not math.isfinite(value):
        return "nonfinite", None
    if case.ref is None:
        return "pass", None
    ratio = abs(value - case.ref) / case.tol
    return ("pass" if ratio <= 1.0 else "miss"), ratio


class Tally:
    """What the timed loop keeps of one case: its latencies and outcomes.

    Latencies go into a flat array of doubles, so a program many times
    faster, which makes many more cycles, adds little to peak_rss_mb.
    """

    def __init__(self, case):
        self.case = case
        self.latencies = array("d")
        self.kinds = Counter()  # "pass", "miss", "nonfinite", "raise <Error>"
        self.outcomes = Counter()  # the same without the error name
        self.err_max_over_tol = 0.0

    def add(self, outcome, ratio, dt, error):
        self.latencies.append(dt)
        self.outcomes[outcome] += 1
        self.kinds[outcome if error is None else f"{outcome} {error}"] += 1
        if ratio is not None:
            self.err_max_over_tol = max(self.err_max_over_tol, ratio)

    @property
    def n(self):
        return len(self.latencies)

    @property
    def failed(self):
        return self.n - self.outcomes["pass"]

    @property
    def median(self):
        return statistics.median(self.latencies)


def run_loop(passes, calls, seconds, on_eval=None, replay=False):
    """Evaluate whole cycles through ``passes``, as many as fit in ``seconds``.

    The first MIN_CYCLES cycles always run; another starts only if, at the
    mean cycle time so far, it would end within ``seconds``.  Every case is
    thus evaluated the same number of times, and at least MIN_CYCLES.  With
    ``replay`` the loop makes exactly one cycle (the traced replay).
    Returns one Tally per case, the loop's CPU seconds and its wall seconds.
    """
    tallies = [Tally(case) for p in passes for case in p]
    flat = [call for p in calls for call in p]
    start, cpu_start = time.perf_counter(), CLOCK()
    cycles = 0
    while True:
        for i, (tally, call) in enumerate(zip(tallies, flat)):
            if on_eval is not None:
                on_eval(i, tally.case)
            value, error, dt = evaluate(call)
            if on_eval is not None:
                on_eval(None, tally.case)
            outcome, ratio = classify(tally.case, value, error)
            tally.add(outcome, ratio, dt, error)
        cycles += 1
        elapsed = time.perf_counter() - start
        if replay or (cycles >= MIN_CYCLES and elapsed * (cycles + 1) / cycles > seconds):
            return tallies, CLOCK() - cpu_start, elapsed


def end_to_end(tallies, setup_times):
    lat = sorted(t.median for t in tallies)
    rank = math.ceil(TAIL_PCT / 100.0 * len(lat))  # nearest rank
    n = sum(t.n for t in tallies)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        # Each case counts by the share of its evaluations that passed.
        "evals_per_s": (sum(1.0 - t.failed / t.n for t in tallies) / sum(lat), "1/s"),
        "eval_p50_s": (statistics.median(lat), "s"),
        "eval_tail_s": (lat[rank - 1], "s"),
        "pass_frac": (1.0 - sum(t.failed for t in tallies) / n, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {"eval_tail_percentile": TAIL_PCT, "cases": len(lat), "cycles": n // len(lat)}
    return metrics, notes


def per_layer(tracer, tallies, busy, traced_busy, traced_wall):
    sel, cnt, calls = tracer.self_s, tracer.counts, tracer.calls

    def rate(points, seconds):
        return points / seconds if seconds > 0 else 0.0

    n_evals = len(tallies)  # the replay is one cycle
    m = {}
    b_pts = cnt["special.bessel_i.points"]
    m["special.bessel_i.calls"] = (calls["special.bessel_i"], "count")
    m["special.bessel_i.points"] = (b_pts, "count")
    m["special.bessel_i.self_s"] = (sel["special.bessel_i"], "s")
    m["special.bessel_i.points_per_s"] = (rate(b_pts, sel["special.bessel_i"]), "1/s")
    m["special.bessel_i.asymptotic_share"] = (
        cnt["special.bessel_i.asymptotic"] / b_pts if b_pts else 0.0, "ratio")
    kernel_points = 0.0
    for kind in spans.KERNEL_KINDS:
        name = f"kernels.{kind}"
        pts = cnt[f"{name}.points"]
        kernel_points += pts
        m[f"{name}.points"] = (pts, "count")
        m[f"{name}.self_s"] = (sel[name], "s")
        m[f"{name}.points_per_s"] = (rate(pts, sel[name]), "1/s")
    t_pts = cnt["kernels.theta_moments.points"]
    m["kernels.theta_moments.points"] = (t_pts, "count")
    m["kernels.theta_moments.self_s"] = (sel["kernels.theta_moments"], "s")
    m["kernels.theta_moments.near_share"] = (
        cnt["kernels.theta_moments.near"] / t_pts if t_pts else 0.0, "ratio")
    qa = "quadrature.integrate_adaptive"
    panels = cnt[f"{qa}.panels"]
    m[f"{qa}.calls"] = (calls[qa], "count")
    m[f"{qa}.panels"] = (panels, "count")
    m[f"{qa}.panels_per_eval"] = (panels / n_evals, "count")
    m[f"{qa}.kernel_points_per_eval"] = (kernel_points / n_evals, "count")
    m[f"{qa}.self_s"] = (sel[qa], "s")
    m[f"{qa}.nonconverged"] = (cnt[f"{qa}.nonconverged"], "count")
    m[f"{qa}.min_panel_rel"] = (
        tracer.min_panel_rel if math.isfinite(tracer.min_panel_rel) else 0.0, "ratio")
    qp = "quadrature.integrate_pv"
    m[f"{qp}.calls"] = (calls[qp], "count")
    m[f"{qp}.self_s"] = (sel[qp], "s")
    m[f"{qp}.raised"] = (cnt[f"{qp}.raised"], "count")
    for name, counter in (("measure.grid_eval", "points"), ("measure.cumulative", "windows"),
                          ("measure.abs_dev", None)):
        if counter is None:
            m[f"{name}.calls"] = (calls[name], "count")
        else:
            m[f"{name}.{counter}"] = (cnt[f"{name}.{counter}"], "count")
        m[f"{name}.self_s"] = (sel[name], "s")
    for op in OPERATORS:
        mine = [t for t in tallies if t.case.op == op]
        m[f"operators.{op}.calls"] = (sum(t.n for t in mine), "count")
        m[f"operators.{op}.self_s"] = (sel[f"operators.{op}"], "s")
        m[f"operators.{op}.p50_s"] = (
            statistics.median([t.median for t in mine]) if mine else 0.0, "s")
        m[f"operators.{op}.failed"] = (sum(t.failed for t in mine), "count")
        m[f"operators.{op}.err_max_over_tol"] = (
            max([t.err_max_over_tol for t in mine], default=0.0), "ratio")
    # Layers are every span but the root "bench" (the harness loop around the
    # evaluations) and the collector's own time; they should cover the traced
    # wall time less the collector's share.
    collector = sel[spans.TRACE]
    layers = sum(sel.values()) - sel["bench"] - collector
    m["bench.self_s"] = (sel["bench"], "s")
    m["trace.self_s"] = (collector, "s")
    m["trace.self_sum_frac"] = (layers / (traced_wall - collector), "ratio")
    # The replay is one cycle; the untraced loop's mean cycle is its baseline.
    cycles = sum(t.n for t in tallies) / n_evals
    m["trace.overhead_frac"] = (traced_busy / (busy / cycles) - 1.0, "ratio")
    return m


def environment(seed):
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
        "seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "besselkit" / "__init__.py").is_file():
        print(f"error: no besselkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    warnings.simplefilter("ignore", RuntimeWarning)

    setup_times = []
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
        t0 = CLOCK()
        bk, passes, calls = set_up(args.workload, args.seed)
        setup_times.append(CLOCK() - t0)

    try:
        for p in passes:
            for case in p:
                workloads.attach_reference(case)
    except reference.ReferenceInaccurate as exc:
        print(f"error: reference not certified: {exc}", file=sys.stderr)
        return 3

    tallies, busy, wall = run_loop(passes, calls, args.seconds)
    unexpected = sorted({(t.case.stratum, outcome) for t in tallies for outcome in t.outcomes
                         if outcome != "pass"} - workloads.EXPECTED_FAILURES)
    attempted = sum(t.n for t in tallies)
    failed = sum(t.failed for t in tallies)

    metrics, notes = end_to_end(tallies, setup_times)
    notes["wall_s"] = wall
    notes["evals_per_wall_s"] = (attempted - failed) / wall
    if args.trace:
        tracer = spans.Tracer()
        current = {"op": None}

        def on_eval(index, case):
            if index is None:
                tracer.end()
                return
            tracer.request, tracer.target = index, case.x
            current["op"] = f"operators.{case.op}"
            tracer.begin(current["op"])

        saved = spans.install(tracer, bk, lambda: current["op"])
        try:
            tracer.begin("bench")
            _, traced_busy, traced_wall = run_loop(
                passes, calls, args.seconds, on_eval=on_eval, replay=True)
            tracer.end()
        finally:
            spans.uninstall(saved)
        metrics = per_layer(tracer, tallies, busy, traced_busy, traced_wall)
        notes["traced_wall_s"] = traced_wall
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json")

    env = environment(args.seed)
    by_stratum = {}
    for t in tallies:
        s = by_stratum.setdefault(t.case.stratum, {"n": 0, "failed": 0, "seconds": 0.0,
                                                   "err_max_over_tol": 0.0, "kinds": Counter()})
        s["n"] += t.n
        s["failed"] += t.failed
        s["seconds"] += sum(t.latencies)
        s["err_max_over_tol"] = max(s["err_max_over_tol"], t.err_max_over_tol)
        s["kinds"].update({k: v for k, v in t.kinds.items() if k != "pass"})

    print(f"environment: {json.dumps(env)}")
    print(f"workload {args.workload}: {attempted} evaluations in {busy:.2f} CPU s, "
          f"{wall:.2f} wall s "
          f"in passes of {len(passes[0])}, {failed} failed")
    for stratum, s in sorted(by_stratum.items()):
        kinds = ", ".join(f"{k} {v}" for k, v in sorted(s["kinds"].items()))
        print(f"  {stratum:28s} n={s['n']:5d} mean={s['seconds'] / s['n']:.4g} s "
              f"err/tol<={s['err_max_over_tol']:.3g} "
              f"failed={s['failed']}{' (' + kinds + ')' if kinds else ''}")
    if not args.trace:
        print(f"latencies are each case's median of {notes['cycles']} cycles; eval_tail_s "
              f"is the p{notes['eval_tail_percentile']} of {notes['cases']} cases")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    if unexpected:
        print(f"unexpected failures: {unexpected}")

    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({**result, "environment": env, "notes": notes, "strata": by_stratum,
                   "setup_times_s": setup_times}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
