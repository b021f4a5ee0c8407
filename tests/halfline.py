"""Half-line integration for the tests: dyadic octaves of the adaptive rule.

The library has no half-line integrator; the kernel tests use this one to
check that the heat and Poisson kernels conserve mass over (0, inf).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from besselkit.quadrature import IntegralResult, QuadConfig, integrate_adaptive


def integrate_halfline(f: Callable, cfg: QuadConfig = QuadConfig()) -> IntegralResult:
    """Integral of f over (0, inf) by dyadic octave summation.

    Octaves [2^k, 2^(k+1)] are integrated adaptively and summed outward in
    both directions until contributions fall below the absolute tolerance;
    a geometric extrapolation of the outward tail is added and its residual
    folded into the error.  Persistent non-decay flags the result.
    """
    inner = QuadConfig(abs_tol=cfg.abs_tol * 1e-2, rel_tol=cfg.rel_tol * 1e-1,
                       max_depth=min(cfg.max_depth, 24))
    total_v = 0.0
    total_e = 0.0
    converged = True

    def octave(k: int) -> IntegralResult:
        return integrate_adaptive(f, 2.0 ** k, 2.0 ** (k + 1), inner)

    # upward sweep
    prev = None
    k = 0
    up_vals = []
    while k <= 420:
        res = octave(k)
        total_v += res.value
        total_e += res.error
        up_vals.append(res.value)
        if abs(res.value) <= 0.01 * cfg.abs_tol and (prev is None or abs(prev) <= 0.01 * cfg.abs_tol):
            break
        prev = res.value
        k += 1
    else:
        converged = False
    if len(up_vals) >= 3 and abs(up_vals[-2]) > 0:
        rho = abs(up_vals[-1]) / abs(up_vals[-2])
        rho_prev = abs(up_vals[-2]) / abs(up_vals[-3]) if abs(up_vals[-3]) > 0 else rho
        if rho >= 0.98:
            converged = False  # decay too slow to certify a tail
        elif rho > 0:
            tail = abs(up_vals[-1]) * rho / (1.0 - rho)
            if abs(rho - rho_prev) < 0.05:
                total_v += np.sign(up_vals[-1]) * tail
                total_e += tail * (3.0 * abs(rho - rho_prev) + 0.02)
            else:
                total_e += tail

    # downward sweep toward 0
    prev = None
    k = -1
    down_vals = []
    while k >= -420:
        res = octave(k)
        total_v += res.value
        total_e += res.error
        down_vals.append(res.value)
        if abs(res.value) <= 0.01 * cfg.abs_tol and (prev is None or abs(prev) <= 0.01 * cfg.abs_tol):
            break
        prev = res.value
        k -= 1
    else:
        converged = False
    if len(down_vals) >= 3 and abs(down_vals[-2]) > 0:
        rho = abs(down_vals[-1]) / abs(down_vals[-2])
        rho_prev = abs(down_vals[-2]) / abs(down_vals[-3]) if abs(down_vals[-3]) > 0 else rho
        if rho >= 0.98:
            converged = False
        elif rho > 0:
            tail = abs(down_vals[-1]) * rho / (1.0 - rho)
            if abs(rho - rho_prev) < 0.05:
                total_v += np.sign(down_vals[-1]) * tail
                total_e += tail * (3.0 * abs(rho - rho_prev) + 0.02)
            else:
                total_e += tail

    return IntegralResult(total_v, total_e, converged)
