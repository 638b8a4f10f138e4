"""Numerical rank and the fixed-step RK4 integrator.

Singular values go through LAPACK; the integrator is our own.  All
arrays are float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative singular-value cutoff for rank decisions.
RANK_REL_TOL = 1.0e-10

# Any state component beyond this magnitude is treated as divergence. [model units]
DIVERGENCE_LIMIT = 1.0e12

# Rows integrate_rk4 propagates between two divergence checks.
_CHECK_BLOCK = 1024


@dataclass(frozen=True)
class IntegrationResult:
    times: np.ndarray    # (k,)
    states: np.ndarray   # (k, dim), one row per step including t = 0
    diverged: bool


def numerical_rank(a: np.ndarray) -> int:
    """Rank by singular values: count sigma_i > RANK_REL_TOL * sigma_max."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return 0
    sigma = np.linalg.svd(a, compute_uv=False)
    if sigma[0] == 0.0:
        return 0
    return int(np.count_nonzero(sigma > RANK_REL_TOL * sigma[0]))


def _rk4_map(mat: np.ndarray, h: float):
    """One classical RK4 step of x' = mat @ x + offset as x -> phi @ x + h * (s @ offset).

    The four stages collapse exactly to x + h S (mat @ x + offset) with
    S = I + hA/2 + (hA)^2/6 + (hA)^3/24, A = mat, so phi = I + hA S.
    Returns (phi, s); only the forcing term depends on the offset.
    """
    eye = np.eye(mat.shape[0])
    ha = h * mat
    s = eye + ha @ (eye / 2.0 + ha @ (eye / 6.0 + ha / 24.0))
    return eye + ha @ s, s


def rk4_multiplier(z):
    """Growth factor R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 of one RK4 step
    on the mode x' = lam x, z = h lam; the step damps the mode iff |R(z)| < 1.
    The R(h lam) are the eigenvalues of integrate_rk4's one-step map."""
    z = np.asarray(z)
    return 1.0 + z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0)))


def _split(span: float, h: float):
    """Full steps of h in span, plus the length of a shortened tail step (0 if none)."""
    n_full = int(np.floor(span / h + 1e-9))
    tail = span - n_full * h
    return n_full, (tail if tail > 1e-9 * h else 0.0)


def integrate_rk4(matrix, x0, schedule, t_end: float, h: float) -> IntegrationResult:
    """Classical 4th-order fixed-step integration of x' = matrix @ x + offset
    with a piecewise-constant offset.

    schedule is [(t_start, offset), ...] with the first start at 0; each
    offset holds until the next start, the last one until t_end.  The step
    grid restarts at every start, so no step straddles a switch: a segment
    takes full steps of h and, when its length is not a multiple of h, one
    shortened step landing exactly on its end.  The trace holds every step
    from t = 0, each switch time once.  Each step is x -> phi @ x + g,
    written in place into the preallocated trace.  Divergence (a
    non-finite component or one beyond DIVERGENCE_LIMIT) is tested once
    per block of rows rather than after every step; the first bad row
    stops the run, sets the diverged flag and ends the truncated trace,
    exactly as a per-step test would.
    """
    if h <= 0.0:
        raise ValueError(f"step size must be positive, got {h}")
    if t_end < 0.0:
        raise ValueError(f"t_end must be non-negative, got {t_end}")
    mat = np.asarray(matrix, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"matrix must be square, got shape {mat.shape}")
    n = mat.shape[0]
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (n,):
        raise ValueError(f"x0 shape {x0.shape} does not match state dimension {n}")
    starts = [float(t) for t, _ in schedule]
    offsets = [np.asarray(off, dtype=float) for _, off in schedule]
    for off in offsets:
        if off.shape != (n,):
            raise ValueError(f"offset shape {off.shape} does not match state dimension {n}")
    stops = starts[1:] + [float(t_end)]
    if not starts or starts[0] != 0.0 or any(b < a for a, b in zip(starts, stops)):
        raise ValueError("schedule must start at t = 0 with increasing times up to t_end")

    plan = [_split(stop - start, h) for start, stop in zip(starts, stops)]
    rows = 1 + sum(n_full + (tail > 0.0) for n_full, tail in plan)
    out = np.empty((rows, n))
    out[0] = x0
    times = np.empty(rows)
    times[0] = 0.0

    phi, s = _rk4_map(mat, h)
    k = 0
    for start, stop, offset, (n_full, tail) in zip(starts, stops, offsets, plan):
        times[k + 1: k + n_full + 1] = np.arange(1, n_full + 1) * h + start
        runs = [(phi, h * (s @ offset), k + n_full)]
        if tail > 0.0:
            phi_tail, s_tail = _rk4_map(mat, tail)
            runs.append((phi_tail, tail * (s_tail @ offset), k + n_full + 1))
            times[k + n_full + 1] = (stop - start) + start
        for step_phi, g, last in runs:
            # rows after the first bad one in a block are discarded, so
            # their overflow needs no warning
            with np.errstate(over="ignore", invalid="ignore"):
                for first in range(k + 1, last + 1, _CHECK_BLOCK):
                    block = out[first: min(first + _CHECK_BLOCK, last + 1)]
                    prev = out[first - 1]
                    for row in block:
                        np.dot(step_phi, prev, out=row)
                        row += g
                        prev = row
                    # written so that NaN also counts as divergence
                    bad = np.flatnonzero(~(np.max(np.abs(block), axis=1) <= DIVERGENCE_LIMIT))
                    if bad.size:
                        end = first + int(bad[0]) + 1
                        return IntegrationResult(times=times[:end], states=out[:end], diverged=True)
            k = last
    return IntegrationResult(times=times, states=out, diverged=False)
