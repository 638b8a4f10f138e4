"""The fixed-step RK4 integrator and the trace it returns.

All arrays are float64.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# Any state component beyond this magnitude is treated as divergence. [model units]
DIVERGENCE_LIMIT = 1.0e12

# Rows integrate_rk4 propagates between two divergence checks.
_CHECK_BLOCK = 1024

# integrate_rk4 computes its rows in blocks of m from a stack of the step
# map's powers phi^1 ... phi^m: m * dim**2 doubles, kept within this
# budget, with m at most _MAX_BLOCK_ROWS (15 states: m = 64, 90 states:
# m = 16).  At 15 states blocks of 32 to 512 rows timed alike (2-vCPU VM,
# OpenBLAS on one thread), so deeper stacks only add set-up.
_POWER_STACK_BUDGET = 2 ** 17
_MAX_BLOCK_ROWS = 64


class SimulationTrace(NamedTuple):
    """An integrated run: the state at every step from t = 0.

    For a closed loop, states are the loop's coordinates (for the swing
    model: rotating-frame delta, omega - omega_ref, integrator z); inputs
    and frequencies are computed from them where they are read.
    """

    times: np.ndarray    # (k,)
    states: np.ndarray   # (k, dim)
    diverged: bool


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


def _step_map(mat: np.ndarray, h: float, starts, offsets):
    """phi and the forcing terms g = h * (s @ offset) of _rk4_map(mat, h),
    one g per segment (start, offset); ValueError naming the step unless
    phi, s and every g are finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        phi, s = _rk4_map(mat, h)
        forcing = [h * (s @ offset) for offset in offsets]
    if not (np.isfinite(phi).all() and np.isfinite(s).all()):
        raise ValueError(f"step {h:g} s: the RK4 step map is not finite")
    for start, g in zip(starts, forcing):
        if not np.isfinite(g).all():
            raise ValueError(f"step {h:g} s: the RK4 forcing term from t = {start:g} s is not finite")
    return phi, forcing


def rk4_multiplier(z):
    """Growth factor R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 of one RK4 step
    on the mode x' = lam x, z = h lam; the step damps the mode iff |R(z)| < 1.
    The R(h lam) are the eigenvalues of integrate_rk4's one-step map."""
    z = np.asarray(z)
    return 1.0 + z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0)))


def _block_rows(n: int) -> int:
    """Rows per propagation block at state dimension n (at least 1)."""
    return max(1, min(_MAX_BLOCK_ROWS, _POWER_STACK_BUDGET // (n * n)))


def _split(span: float, h: float):
    """Full steps of h in span, plus the length of a shortened tail step (0 if
    none); ValueError naming the step when span / h is not finite."""
    steps = span / h
    if not np.isfinite(steps):
        raise ValueError(f"step {h:g} s: a segment of {span:g} s takes a non-finite number of steps")
    n_full = int(np.floor(steps + 1e-9))
    tail = span - n_full * h
    return n_full, (tail if tail > 1e-9 * h or not n_full else 0.0)


def _power_stack(phi: np.ndarray, depth: int) -> np.ndarray:
    """The powers phi^1 ... phi^depth stacked as one (depth * n, n) array.

    Stacking stops before the first power with a non-finite entry; phi
    itself always stays, so the stack holds at least one power.
    """
    powers = [phi]
    with np.errstate(over="ignore", invalid="ignore"):
        while len(powers) < depth:
            power = phi @ powers[-1]
            if not np.isfinite(power).all():
                break
            powers.append(power)
    return np.concatenate(powers)


def _propagate(out: np.ndarray, k: int, stack: np.ndarray, g: np.ndarray, steps: int):
    """Write rows k+1 .. k+steps of out from row k by x -> phi @ x + g.

    stack holds phi^1 ... phi^d (see _power_stack).  Row j of a block
    after an anchor row a is phi^j @ a + c_j, with the forcing sums
    c_j = sum_{i<j} phi^i g.  The rows go _CHECK_BLOCK at a time, in
    blocks of m = min(d, steps) from the row before them: each block's
    last row is the next anchor, walked one matvec per block, and the
    other m - 1 rows of all blocks come from one product of the anchors
    with the stack.  Divergence is then tested on those rows.  Returns the
    index one past the first bad row, or None if every row is good.
    """
    n = out.shape[1]
    m = min(stack.shape[0] // n, steps)
    lower = stack[: (m - 1) * n]  # phi^1 ... phi^(m-1)
    c = np.concatenate([g, lower @ g]).reshape(m, n)
    np.cumsum(c, axis=0, out=c)
    phi_m, c_m = stack[(m - 1) * n: m * n], c[m - 1]
    last = k + steps
    # rows after the first bad one are discarded, so their overflow needs
    # no warning
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(k + 1, last + 1, _CHECK_BLOCK):
            stop = min(first + _CHECK_BLOCK, last + 1)
            for anchor in range(first - 1 + m, stop, m):
                np.dot(phi_m, out[anchor - m], out=out[anchor])
                out[anchor] += c_m
            full, rest = divmod(stop - first, m)
            fill = (out[first - 1: stop - 1: m] @ lower.T).reshape(full + (rest > 0), m - 1, n)
            fill += c[: m - 1]
            out[first: first + full * m].reshape(full, m, n)[:, : m - 1] = fill[:full]
            out[first + full * m: stop] = fill[full:].reshape(-1, n)[:rest]
            # NaN fails both tests, so it counts as divergence; rows only in a failing block
            block = out[first:stop]
            if not np.abs(block).max() <= DIVERGENCE_LIMIT:
                good = np.max(np.abs(block), axis=1) <= DIVERGENCE_LIMIT
                return first + int(np.argmin(good)) + 1
    return None


def integrate_rk4(matrix, x0, schedule, t_end: float, h: float) -> SimulationTrace:
    """Classical 4th-order fixed-step integration of x' = matrix @ x + offset
    with a piecewise-constant offset.

    schedule is [(t_start, offset), ...] with the first start at 0 and
    strictly increasing starts below t_end; each offset holds until the
    next start, the last one until t_end.  The step grid restarts at every
    start, so no step straddles a switch: a segment takes full steps of h
    and, when its length is not a multiple of h, one shortened step landing
    exactly on its end.  A length within 1e-9 * h of a nonzero multiple
    of h is that multiple: a remainder that small after a full step is
    rounding and is dropped.  A segment that holds no full step is one
    shortened step, however short.  The trace holds every
    step from t = 0, each switch time once.  Each step is
    x -> phi @ x + g, but the rows are computed a block at a time from
    powers of phi stacked once per step size (see _propagate); they agree
    with a textbook four-stage loop to rounding, within 1e-12 of each
    row's largest component in the tests.
    A shortened step is a one-row run through the same path.  A segment
    whose length over h is not finite raises ValueError naming the step
    before anything is allocated, and so does a trace that cannot be
    allocated.  A step map or forcing term that is not
    finite raises ValueError naming the step: the full step's map and
    forcing terms are checked before any row is written, a shortened
    step's before its row.  Divergence
    (a non-finite component or one beyond DIVERGENCE_LIMIT) is tested once
    per _CHECK_BLOCK rows rather than after every step; the first bad row
    stops the run, sets the diverged flag and ends the truncated trace,
    exactly as a per-step test would.
    """
    if h <= 0.0:
        raise ValueError(f"step size must be positive, got {h}")
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
    if not starts or starts[0] != 0.0 or any(b <= a for a, b in zip(starts, stops)):
        raise ValueError("schedule must start at t = 0 with strictly increasing times "
                         "below t_end")

    plan = [_split(stop - start, h) for start, stop in zip(starts, stops)]
    rows = 1 + sum(n_full + (tail > 0.0) for n_full, tail in plan)
    try:
        out = np.empty((rows, n))
        times = np.empty(rows)
    except (ValueError, MemoryError) as exc:  # beyond numpy's dimension limit or the address space
        raise ValueError(f"step {h:g} s: a trace of {rows:.6g} rows of {n} states "
                         "cannot be allocated") from exc
    out[0] = x0
    times[0] = 0.0

    phi, forcing = _step_map(mat, h, starts, offsets)
    stack = _power_stack(phi, min(_block_rows(n), max(n_full for n_full, _ in plan)))
    k = 0
    for start, stop, offset, g, (n_full, tail) in zip(starts, stops, offsets, forcing, plan):
        times[k + 1: k + n_full + 1] = np.arange(1, n_full + 1) * h + start
        runs = [(stack, g, n_full)]
        if tail > 0.0:
            phi_tail, (g_tail,) = _step_map(mat, tail, [start], [offset])
            runs.append((phi_tail, g_tail, 1))
            times[k + n_full + 1] = (stop - start) + start
        for powers, g, steps in runs:
            end = _propagate(out, k, powers, g, steps) if steps else None
            if end is not None:
                return SimulationTrace(times=times[:end], states=out[:end], diverged=True)
            k += steps
    return SimulationTrace(times=times, states=out, diverged=False)
