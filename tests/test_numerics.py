"""Numerical rank and the fixed-step integrator."""

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from gridpi import integrate_rk4, numerical_rank, numerics
from gridpi.numerics import (_CHECK_BLOCK, DIVERGENCE_LIMIT, _block_rows, _power_stack, _rk4_map,
                             rk4_multiplier)


# ---------------------------------------------------------------------------
# numerical rank
# ---------------------------------------------------------------------------

def test_rank_basics():
    assert numerical_rank(np.zeros((3, 3))) == 0
    assert numerical_rank(np.eye(4)) == 4
    assert numerical_rank(np.array([[1.0, 0.0], [0.0, 1e-20]])) == 1


def test_rank_of_outer_products():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n, r = int(rng.integers(3, 10)), int(rng.integers(1, 3))
        u = rng.normal(size=(n, r))
        assert numerical_rank(u @ u.T) == r


# ---------------------------------------------------------------------------
# integrator
# ---------------------------------------------------------------------------

def _rk4(matrix, offset, x0, t_end, h):
    """Single-segment integration of x' = matrix @ x + offset."""
    return integrate_rk4(matrix, x0, [(0.0, offset)], t_end, h)


def test_scalar_decay_endpoint():
    out = _rk4(np.array([[-1.0]]), np.zeros(1), np.ones(1), 1.0, 0.01)
    assert abs(out.states[-1, 0] - np.exp(-1.0)) < 1e-6
    assert not out.diverged


def test_affine_offset_steady_state():
    # x' = -x + 1 from 0: x(t) = 1 - exp(-t)
    out = _rk4(np.array([[-1.0]]), np.ones(1), np.zeros(1), 3.0, 0.005)
    assert_allclose(out.states[:, 0], 1.0 - np.exp(-out.times), atol=1e-8)


def test_partial_final_step():
    out = _rk4(np.array([[-1.0]]), np.zeros(1), np.ones(1), 0.35, 0.1)
    assert_allclose(out.times, [0.0, 0.1, 0.2, 0.3, 0.35])
    assert abs(out.states[-1, 0] - np.exp(-0.35)) < 1e-6


def test_time_grid_is_uniform_when_step_divides():
    out = _rk4(-np.eye(2), np.zeros(2), np.ones(2), 1.0, 0.1)
    assert out.times.shape[0] == 11
    assert out.times[-1] == 1.0


def test_divergence_is_reported_and_truncated():
    out = _rk4(np.array([[50.0]]), np.zeros(1), np.ones(1), 10.0, 0.1)
    assert out.diverged
    assert out.times.shape[0] < 101
    assert np.all(np.isfinite(out.states))


def test_rk4_tracks_matrix_exponential():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        a = rng.normal(size=(n, n))
        a -= (np.max(np.linalg.eigvals(a).real) + 0.5) * np.eye(n)  # make it decay
        x0 = rng.normal(size=n)
        out = _rk4(a, np.zeros(n), x0, 1.0, 0.001)
        assert_allclose(out.states[-1], scipy.linalg.expm(a) @ x0, atol=1e-9)


# ---------------------------------------------------------------------------
# agreement with a plain four-stage RK4 loop
# ---------------------------------------------------------------------------

def _plain_rk4(mat, offset, x0, times):
    """Textbook RK4 over the given time grid; stops after the first state
    that is non-finite or beyond the divergence limit."""
    states = [np.asarray(x0, dtype=float)]
    for t0, t1 in zip(times[:-1], times[1:]):
        h, x = t1 - t0, states[-1]
        k1 = mat @ x + offset
        k2 = mat @ (x + 0.5 * h * k1) + offset
        k3 = mat @ (x + 0.5 * h * k2) + offset
        k4 = mat @ (x + h * k3) + offset
        states.append(x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        if not np.all(np.abs(states[-1]) <= DIVERGENCE_LIMIT):
            break
    return np.array(states)


def _close(states, plain):
    # relative to each sample's largest component
    scale = np.abs(plain).max(axis=1, keepdims=True)
    assert np.all(np.abs(states - plain) <= 1e-12 * scale)


def test_integrator_matches_a_plain_stage_loop():
    # random 7-state system whose horizon ends in a shortened tail step
    rng = np.random.default_rng(6)
    n = 7
    mat, offset, x0 = rng.normal(size=(n, n)) * 0.3, rng.normal(size=n), rng.normal(size=n)
    out = _rk4(mat, offset, x0, 0.405, 0.01)
    assert out.times.shape[0] == 42 and out.times[-1] == 0.405
    plain = _plain_rk4(mat, offset, x0, out.times)
    assert not out.diverged
    _close(out.states, plain)

    # three segments with different offsets; the middle one ends off the grid,
    # so the grid restarts at 0.235 after a shortened step
    offsets = rng.normal(size=(3, n))
    schedule = [(0.0, offsets[0]), (0.1, offsets[1]), (0.235, offsets[2])]
    out = integrate_rk4(mat, x0, schedule, 0.4, 0.01)
    expected_times = np.concatenate([
        np.arange(11) * 0.01,
        np.arange(1, 14) * 0.01 + 0.1, [(0.235 - 0.1) + 0.1],
        np.arange(1, 17) * 0.01 + 0.235, [(0.4 - 0.235) + 0.235],
    ])
    assert np.array_equal(out.times, expected_times)
    assert not out.diverged
    chained = [x0]
    for (start, off), stop in zip(schedule, [0.1, 0.235, 0.4]):
        grid = out.times[(out.times >= start) & (out.times <= stop)]
        chained.extend(_plain_rk4(mat, off, chained[-1], grid)[1:])
    _close(out.states, np.array(chained))

    # divergent system: both traces end at the same step
    mat, offset, x0 = np.array([[0.0, 1.0], [40.0, 0.5]]), np.array([0.0, 1.0]), np.array([1.0, 0.0])
    out = _rk4(mat, offset, x0, 10.0, 0.1)
    plain = _plain_rk4(mat, offset, x0, np.arange(101) * 0.1)
    assert out.diverged and plain.shape[0] < 101
    assert out.states.shape == plain.shape
    _close(out.states, plain)

    # divergence in the second segment truncates at the same step
    out = integrate_rk4(mat, x0, [(0.0, offset), (0.25, -offset)], 10.0, 0.1)
    first = _plain_rk4(mat, offset, x0, [0.0, 0.1, 0.2, 0.25])
    second = _plain_rk4(mat, -offset, first[-1], np.arange(98) * 0.1 + 0.25)
    plain = np.concatenate([first, second[1:]])
    assert out.diverged and second.shape[0] < 98
    assert out.states.shape == plain.shape and out.times[-1] > 0.25
    _close(out.states, plain)

    # Divergence is tested once per block of rows; the trace must still end
    # at the first bad row.  x' = lam x grows by R = rk4_multiplier(h lam)
    # per step (h a power of two keeps the time grid exact), and x0 puts the
    # first crossing of DIVERGENCE_LIMIT half a step's growth past `row`.
    lam, h = 2.0, 1.0 / 128.0
    mat, zero = np.array([[lam]]), np.zeros(1)
    grow = rk4_multiplier(h * lam)
    block = _CHECK_BLOCK
    for row in (block - 1, block, block + 1):
        x0 = np.array([DIVERGENCE_LIMIT / grow ** (row - 0.5)])
        out = _rk4(mat, zero, x0, 3 * block * h, h)
        plain = _plain_rk4(mat, zero, x0, np.arange(3 * block + 1) * h)
        assert out.diverged and plain.shape == (row + 1, 1)
        assert out.states.shape == plain.shape
        _close(out.states, plain)

    # the first bad row is a shortened tail step, which runs as its own block
    n_full, tail = block + 200, h / 2.0
    x0 = np.array([DIVERGENCE_LIMIT / (grow ** n_full * rk4_multiplier(tail * lam) ** 0.5)])
    out = _rk4(mat, zero, x0, n_full * h + tail, h)
    plain = _plain_rk4(mat, zero, x0, out.times)
    assert out.diverged and plain.shape == (n_full + 2, 1) and out.times[-1] == n_full * h + tail
    assert out.states.shape == plain.shape
    _close(out.states, plain)

    # the first bad row ends the first block of the second segment
    switch, row = 700, 700 + block
    x0 = np.array([DIVERGENCE_LIMIT / grow ** (row - 0.5)])
    nudge = 1e-3 * x0  # small forcing, so that the segments differ
    out = integrate_rk4(mat, x0, [(0.0, nudge), (switch * h, -nudge)], 3 * block * h, h)
    first = _plain_rk4(mat, nudge, x0, np.arange(switch + 1) * h)
    second = _plain_rk4(mat, -nudge, first[-1], np.arange(switch, 3 * block + 1) * h)
    plain = np.concatenate([first, second[1:]])
    assert out.diverged and plain.shape == (row + 1, 1)
    assert out.states.shape == plain.shape
    _close(out.states, plain)

    # after the first bad row the rest of its block overflows to inf and
    # then NaN (phi mixes signs); that must neither leak a warning nor
    # move the truncation
    mat, zero = 800.0 * np.array([[1.0, 1.0], [1.0, -1.0]]), np.zeros(2)
    out = _rk4(mat, zero, np.array([1.0, 0.0]), 300 * h, h)
    plain = _plain_rk4(mat, zero, np.array([1.0, 0.0]), np.arange(301) * h)
    assert out.diverged and plain.shape == (6, 2)
    assert out.states.shape == plain.shape
    _close(out.states, plain)

    # a first bad row that is itself non-finite: overflow to inf, and NaN
    for x0 in (np.array([1e308, -1e308]), np.array([np.nan, 0.0])):
        out = _rk4(mat, zero, x0, 300 * h, h)
        with np.errstate(over="ignore", invalid="ignore"):
            plain = _plain_rk4(mat, zero, x0, np.arange(301) * h)
        assert out.diverged and out.states.shape == plain.shape == (2, 2)
        assert not np.any(np.isfinite(out.states[-1]))


def test_integrator_is_the_step_map_loop():
    # Rows come in blocks of m from a stack of step-map powers; they agree
    # with the sequential loop x -> phi @ x + g to rounding.  Segment
    # lengths around one and two blocks, and several check blocks, each
    # alone and followed by a shortened tail step, then all chained.
    rng = np.random.default_rng(7)
    n, h = 6, 0.01
    m = _block_rows(n)
    mat = rng.normal(size=(n, n)) - 3.0 * np.eye(n)
    offsets, x0 = rng.normal(size=(2, n)), rng.normal(size=n)
    phi, s = _rk4_map(mat, h)

    def loop(x, offset, steps, tail):
        rows = [x]
        for _ in range(steps):
            rows.append(phi @ rows[-1] + h * (s @ offset))
        if tail:
            phi_t, s_t = _rk4_map(mat, tail)
            rows.append(phi_t @ rows[-1] + tail * (s_t @ offset))
        return rows

    lengths = (1, m - 1, m, m + 1, 2 * m + 1, 2 * _CHECK_BLOCK + 300)
    for steps in lengths:
        for t_end in (steps * h, steps * h + h / 2):
            out = _rk4(mat, offsets[0], x0, t_end, h)
            tail = t_end - steps * h  # the shortened step the integrator takes
            expected = loop(x0, offsets[0], steps, tail)
            assert not out.diverged and out.states.shape == (len(expected), n)
            _close(out.states, np.array(expected))

    schedule, expected, start = [], [x0], 0.0
    for k, steps in enumerate(lengths[:-1]):
        schedule.append((start, offsets[k % 2]))
        span = steps * h + h / 2
        expected.extend(loop(expected[-1], offsets[k % 2], steps, span - steps * h)[1:])
        start += span
    out = integrate_rk4(mat, x0, schedule, start, h)
    assert not out.diverged and out.states.shape == (len(expected), n)
    _close(out.states, np.array(expected))


def test_blocked_propagation_truncates_at_the_first_bad_row():
    # x' = lam x as in the divergence cases above: the first crossing of
    # DIVERGENCE_LIMIT lands on a block's anchor row (a multiple of m) or
    # inside a block, and the trace ends there
    lam, h = 2.0, 1.0 / 128.0
    mat, zero = np.array([[lam]]), np.zeros(1)
    grow = rk4_multiplier(h * lam)
    m = _block_rows(1)
    for row in (1, m - 1, m, m + 1, 3 * m, 3 * m + m // 2):
        x0 = np.array([DIVERGENCE_LIMIT / grow ** (row - 0.5)])
        out = _rk4(mat, zero, x0, 3 * _CHECK_BLOCK * h, h)
        plain = _plain_rk4(mat, zero, x0, np.arange(3 * _CHECK_BLOCK + 1) * h)
        assert out.diverged and plain.shape == (row + 1, 1)
        assert out.states.shape == plain.shape
        _close(out.states, plain)

    # a step map growing 1e40 per step: phi^8 overflows, so the stack holds
    # seven powers and blocks are seven rows; the first bad row (8) is the
    # first row after an anchor
    lam = 2.2e10 / h
    phi, _ = _rk4_map(np.array([[lam]]), h)
    assert 1e39 < phi[0, 0] < 1e41
    assert _power_stack(phi, m).shape == (7, 1)
    x0 = np.array([1e-300])
    out = _rk4(np.array([[lam]]), zero, x0, 100 * h, h)
    plain = _plain_rk4(np.array([[lam]]), zero, x0, np.arange(101) * h)
    assert out.diverged and plain.shape == (9, 1)
    assert out.states.shape == plain.shape
    _close(out.states, plain)


def test_non_finite_step_map_or_forcing_is_refused_before_any_row(monkeypatch):
    # an overflowing step map leaked RuntimeWarnings and gave NaN rows
    def no_rows(*args):
        raise AssertionError("propagated a non-finite step map")

    monkeypatch.setattr(numerics, "_propagate", no_rows)
    huge = np.array([[-1e200, 1e200], [1e200, -1e200]])
    with pytest.raises(ValueError, match=r"^step 0\.002 s: the RK4 step map is not finite$"):
        _rk4(huge, np.zeros(2), np.zeros(2), 1.0, 0.002)
    # a finite map whose forcing term h * (s @ offset) overflows, named by
    # its segment's start (s = 0.99 here, so h = 2 doubles the offset)
    mat, x0 = -0.01 * np.eye(2), np.zeros(2)
    schedule = [(0.0, np.ones(2)), (4.0, np.array([1.0, 1.7e308]))]
    with pytest.raises(ValueError,
                       match=r"^step 2 s: the RK4 forcing term from t = 4 s is not finite$"):
        integrate_rk4(mat, x0, schedule, 10.0, 2.0)


def test_rk4_multiplier_is_the_spectrum_of_the_step_map():
    rng = np.random.default_rng(8)
    mat = rng.normal(size=(5, 5))
    phi, _ = _rk4_map(mat, 0.3)
    expected = np.sort_complex(rk4_multiplier(0.3 * np.linalg.eigvals(mat)))
    assert_allclose(np.sort_complex(np.linalg.eigvals(phi)), expected, atol=1e-12)


def test_rk4_stability_region_is_star_shaped_in_the_left_half_plane():
    # Along every ray z = r e^(i theta) with Re z < 0, |R(z)| < 1 holds on
    # one interval 0 < r < r*(theta) and nowhere beyond it (up to |z| = 3.5,
    # outside the whole region).  So if a full step h damps a mode, so does
    # every shortened step t h, 0 < t <= 1: a step check needs only h.
    theta = np.linspace(np.pi / 2, 3 * np.pi / 2, 4003)[1:-1]
    radii = np.linspace(0.0, 3.5, 7002)[1:]
    for rays in np.array_split(theta, 40):
        inside = np.abs(rk4_multiplier(radii[None, :] * np.exp(1j * rays)[:, None])) < 1.0
        assert inside[:, 0].all() and not inside[:, -1].any()
        assert np.all(np.count_nonzero(inside[:, 1:] != inside[:, :-1], axis=1) == 1)
