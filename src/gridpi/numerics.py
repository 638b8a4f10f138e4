"""Dense linear-algebra and integration primitives.

Eigendecompositions and singular values go through LAPACK; the fixed-step
RK4 integrator is our own.  All arrays are float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative singular-value cutoff for rank decisions.
RANK_REL_TOL = 1.0e-10

# Any state component beyond this magnitude is treated as divergence. [model units]
DIVERGENCE_LIMIT = 1.0e12


class EigenvalueError(RuntimeError):
    """Raised when the eigenvalue iteration fails to converge."""


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted by real part (descending, ties broken by
    descending imaginary part) with matching unit-norm right eigenvectors
    in the columns of `right_vectors`."""

    eigenvalues: np.ndarray   # complex (k,)
    right_vectors: np.ndarray  # complex (n, k)


@dataclass(frozen=True)
class IntegrationResult:
    times: np.ndarray    # (k,)
    states: np.ndarray   # (k, dim), one row per step including t = 0
    diverged: bool


def eigen(a: np.ndarray) -> Spectrum:
    """Full eigendecomposition of a real square matrix.

    Raises EigenvalueError if the QR iteration does not converge.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    try:
        values, vectors = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise EigenvalueError(f"eigenvalue computation failed: {exc}") from exc
    order = np.lexsort((-values.imag, -values.real))
    values = values[order]
    vectors = vectors[:, order]
    # eig returns unit columns already; renormalize defensively.
    norms = np.linalg.norm(vectors, axis=0)
    vectors = vectors / norms
    return Spectrum(eigenvalues=values, right_vectors=vectors)


def numerical_rank(a: np.ndarray, rel_tol: float = RANK_REL_TOL) -> int:
    """Rank by singular values: count sigma_i > rel_tol * sigma_max."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return 0
    sigma = np.linalg.svd(a, compute_uv=False)
    if sigma[0] == 0.0:
        return 0
    return int(np.count_nonzero(sigma > rel_tol * sigma[0]))


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
    from t = 0, each switch time once.  Non-finite states or components
    beyond DIVERGENCE_LIMIT stop the run and set the diverged flag; the
    trace is truncated there.
    """
    if h <= 0.0:
        raise ValueError(f"step size must be positive, got {h}")
    if t_end < 0.0:
        raise ValueError(f"t_end must be non-negative, got {t_end}")
    mat = np.asarray(matrix, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"matrix must be square, got shape {mat.shape}")
    n = mat.shape[0]
    x = np.asarray(x0, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"x0 shape {x.shape} does not match state dimension {n}")
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
    out[0] = x
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
            for k in range(k + 1, last + 1):
                x = step_phi @ x + g
                out[k] = x
                # written so that NaN also counts as divergence
                if not np.max(np.abs(x)) <= DIVERGENCE_LIMIT:
                    return IntegrationResult(times=times[: k + 1], states=out[: k + 1], diverged=True)
    return IntegrationResult(times=times, states=out, diverged=False)
