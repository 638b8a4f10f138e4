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
class AffineOde:
    """Constant-coefficient affine system x' = matrix @ x + offset."""

    matrix: np.ndarray
    offset: np.ndarray
    x0: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float)
        off = np.asarray(self.offset, dtype=float)
        x0 = np.asarray(self.x0, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"matrix must be square, got shape {mat.shape}")
        n = mat.shape[0]
        if off.shape != (n,):
            raise ValueError(f"offset shape {off.shape} does not match state dimension {n}")
        if x0.shape != (n,):
            raise ValueError(f"x0 shape {x0.shape} does not match state dimension {n}")
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "offset", off)
        object.__setattr__(self, "x0", x0)

    @property
    def dim(self):
        return self.matrix.shape[0]


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


def _rk4_map(mat: np.ndarray, offset: np.ndarray, h: float):
    """One classical RK4 step of x' = mat @ x + offset as the map x -> phi @ x + g.

    The four stages collapse exactly to x + h S (mat @ x + offset) with
    S = I + hA/2 + (hA)^2/6 + (hA)^3/24, A = mat, so phi = I + hA S and
    g = h S offset.
    """
    eye = np.eye(mat.shape[0])
    ha = h * mat
    s = eye + ha @ (eye / 2.0 + ha @ (eye / 6.0 + ha / 24.0))
    return eye + ha @ s, h * (s @ offset)


def integrate_rk4(ode: AffineOde, t_end: float, h: float) -> IntegrationResult:
    """Classical 4th-order fixed-step integration of an affine system.

    The trace holds every step starting at t = 0.  If t_end is not an
    integer multiple of h the final step is shortened to land exactly on
    t_end.  Non-finite states or components beyond DIVERGENCE_LIMIT stop
    the run and set the diverged flag; the trace is truncated there.
    """
    if h <= 0.0:
        raise ValueError(f"step size must be positive, got {h}")
    if t_end < 0.0:
        raise ValueError(f"t_end must be non-negative, got {t_end}")

    # Split into full steps of h plus an optional shortened tail step.
    n_full = int(np.floor(t_end / h + 1e-9))
    tail = t_end - n_full * h
    if tail <= 1e-9 * h:
        tail = 0.0
    n_total = n_full + (1 if tail > 0.0 else 0)

    out = np.empty((n_total + 1, ode.dim))
    out[0] = ode.x0
    times = np.empty(n_total + 1)
    times[: n_full + 1] = np.arange(n_full + 1) * h
    if tail > 0.0:
        times[-1] = t_end

    step = _rk4_map(ode.matrix, ode.offset, h)
    x = ode.x0
    for k in range(1, n_total + 1):
        phi, g = step if k <= n_full else _rk4_map(ode.matrix, ode.offset, tail)
        x = phi @ x + g
        out[k] = x
        # written so that NaN also counts as divergence
        if not np.max(np.abs(x)) <= DIVERGENCE_LIMIT:
            return IntegrationResult(times=times[: k + 1], states=out[: k + 1], diverged=True)
    return IntegrationResult(times=times, states=out, diverged=False)
