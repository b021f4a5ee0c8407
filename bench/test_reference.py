"""Checks of the benchmark's references against besselkit where it is known good.

    PYTHONPATH=src python3 -m pytest -q bench/test_reference.py

The heat semigroup and the far-field Poisson and conjugate-Poisson kernels
are the regimes where besselkit is independently trusted (exact formula;
well-separated angular integrals), so agreement there validates the
subordination integrals the other references are built from.
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import reference as ref  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from besselkit.kernels import KernelSpec  # noqa: E402
from besselkit.measure import GridFunction, MeasureSpace  # noqa: E402
from besselkit.operators import LadderConfig, OperatorSpec, apply_semigroup, hl_maximal  # noqa: E402

S = 0.25


def gaussian_grid(n=1500):
    nodes = np.linspace(workloads.GRID_LO, workloads.GRID_HI, n)
    return nodes, GridFunction(nodes, np.exp(-nodes * nodes / (4.0 * S)))


def grid_tol(nodes):
    return workloads.TOL_FACTOR * workloads.interpolation_bound(nodes, S)


@pytest.mark.parametrize("lam,t,x", [(0.6, 0.05, 0.7), (1.0, 0.3, 1.4), (1.7, 1.0, 0.2)])
def test_heat_reference_matches_library(lam, t, x):
    nodes, f = gaussian_grid()
    spec = OperatorSpec(KernelSpec("heat", MeasureSpace(lam), t=t))
    assert apply_semigroup(spec, f, x) == pytest.approx(ref.heat(lam, S, t, x), abs=grid_tol(nodes))


@pytest.mark.parametrize("kind", ["poisson", "conj_poisson"])
@pytest.mark.parametrize("lam,t,x", [(0.7, 0.2, 7.0), (1.5, 1.0, 9.0)])
def test_far_field_poisson_references_match_library(kind, lam, t, x):
    nodes, f = gaussian_grid()
    tol = grid_tol(nodes)
    spec = OperatorSpec(KernelSpec(kind, MeasureSpace(lam), t=t))
    want = (ref.poisson if kind == "poisson" else ref.conj_poisson)(lam, S, t, x, tol)
    assert apply_semigroup(spec, f, x) == pytest.approx(want, abs=tol)


def test_commutator_reference_matches_finite_difference_in_s():
    lam, x, h = 1.2, 0.9, 1e-4
    d_s = (ref.riesz(lam, S + h, x, 1e-10) - ref.riesz(lam, S - h, x, 1e-10)) / (2.0 * h)
    want = x * x * ref.riesz(lam, S, x, 1e-10) - 4.0 * S * S * d_s
    assert ref.riesz_commutator_y2(lam, S, x, 1e-8) == pytest.approx(want, abs=1e-6)


def test_reference_refuses_an_uncertified_tolerance():
    with pytest.raises(ref.ReferenceInaccurate):
        ref.poisson(1.0, S, 0.3, 0.7, 1e-16)


def test_exact_maximal_against_dense_interval_sweep():
    rng = np.random.default_rng(7)
    lam = 0.8
    nodes, values = workloads._step_function(rng, 60)
    cells = values[:-1]
    q = 2.0 * lam + 1.0
    mass = np.concatenate([[0.0], np.cumsum(cells * np.diff(nodes ** q / q))])
    x = 2.3

    def cum(y):
        return np.interp(y, nodes, mass)  # exact at nodes; used only at nodes below

    # every pair of nodes around x, plus x itself, by brute force
    left = np.concatenate([[0.0], nodes[nodes <= x], [x]])
    right = np.concatenate([nodes[nodes >= x], [x]])
    cell_x = np.searchsorted(nodes, x, side="right") - 1
    px = x ** q / q
    mx = mass[cell_x] + cells[cell_x] * (px - nodes[cell_x] ** q / q)
    best = 0.0
    for a in left:
        for b in right:
            if b <= a:
                continue
            ma = mx if a == x else cum(a)
            mb = mx if b == x else cum(b)
            best = max(best, (mb - ma) / (b ** q / q - a ** q / q))
    assert ref.exact_maximal(lam, nodes, cells, x) == pytest.approx(best, rel=1e-12)


def test_exact_maximal_bounds_the_ladder_and_matches_it_on_constants():
    rng = np.random.default_rng(3)
    nodes, values = workloads._step_function(rng, 400)
    for lam, x in ((0.6, 1.3), (1.5, 4.0)):
        space = MeasureSpace(lam)
        f = GridFunction(nodes, values, "pconst")
        exact = ref.exact_maximal(lam, nodes, values[:-1], x)
        assert hl_maximal(space, f, x) <= exact * (1 + 1e-12)
    flat = GridFunction(nodes, np.ones_like(nodes), "pconst")
    got = hl_maximal(MeasureSpace(1.0), flat, 2.0, LadderConfig(1e-3, 10.0))
    assert got == pytest.approx(ref.exact_maximal(1.0, nodes, np.ones(nodes.size - 1), 2.0), rel=1e-12)


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "maximal", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_draw_is_determined_by_the_seed():
    a, b = workloads.draw("singular", 5), workloads.draw("singular", 5)
    c = workloads.draw("singular", 6)
    xs = [[case.x for case in p] for p in a]
    assert xs == [[case.x for case in p] for p in b]
    assert xs != [[case.x for case in p] for p in c]
    assert all(math.isfinite(x) for p in xs for x in p)


def test_expected_failures_name_strata_the_workloads_draw():
    strata = {case.stratum for name in workloads.NAMES
              for p in workloads.draw(name, 1) for case in p}
    assert {stratum for stratum, _ in workloads.EXPECTED_FAILURES} <= strata


def test_tracer_keeps_its_own_time_out_of_layer_self_times():
    tracer = spans.Tracer()
    tracer.begin("root")
    tracer.begin("layer")
    tracer.end()
    since = time.perf_counter()
    time.sleep(0.02)  # stands for counter work done between spans
    tracer.charge(since)
    tracer.end()
    root = tracer.spans[-1]
    assert tracer.self_s[spans.TRACE] >= 0.02
    assert tracer.self_s["root"] < 0.01
    assert sum(tracer.self_s.values()) == pytest.approx(root[5] - root[4], abs=1e-4)


def test_latencies_are_per_case_medians_over_cycles():
    import run

    a, b = run.Tally(None), run.Tally(None)
    for dt in (1.0, 9.0, 2.0):
        a.add("pass", 0.1, dt, None)
    for dt in (3.0, 3.5, 0.5):
        b.add("raise", None, dt, "ValueError")
    metrics, notes = run.end_to_end([a, b], [0.1, 0.3, 0.2])
    assert metrics["eval_p50_s"][0] == pytest.approx(2.5)  # medians 2.0 and 3.0
    assert metrics["eval_tail_s"][0] == 3.0
    assert metrics["evals_per_s"][0] == pytest.approx(1 / 5.0)  # one case passes
    assert metrics["pass_frac"][0] == 0.5
    assert metrics["setup_s"][0] == 0.2
    assert notes["cycles"] == 3
    assert b.kinds == {"raise ValueError": 3} and b.failed == 3
