"""Dense eigendecomposition, rank, and the fixed-step integrator."""

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from gridpi import (
    EigenvalueError,
    eigen,
    integrate_rk4,
    numerical_rank,
)
from gridpi.numerics import DIVERGENCE_LIMIT


# ---------------------------------------------------------------------------
# eigendecomposition
# ---------------------------------------------------------------------------

def test_eigen_companion_oracle():
    # s^2 + 3 s + 2 -> eigenvalues -1, -2
    a = np.array([[0.0, 1.0], [-2.0, -3.0]])
    spec = eigen(a)
    assert_allclose(np.sort(spec.eigenvalues.real), [-2.0, -1.0], atol=1e-12)
    assert_allclose(spec.eigenvalues.imag, 0.0, atol=1e-12)


def test_eigen_sorted_by_real_part_descending():
    a = np.diag([-3.0, 5.0, 1.0])
    spec = eigen(a)
    assert_allclose(spec.eigenvalues.real, [5.0, 1.0, -3.0])


def test_eigen_conjugate_pair_ordering():
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])  # eigenvalues +/- i
    spec = eigen(a)
    assert_allclose(spec.eigenvalues, [1j, -1j], atol=1e-12)


def test_eigen_vectors_satisfy_definition():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        a = rng.normal(size=(n, n))
        spec = eigen(a)
        for k in range(n):
            lam, v = spec.eigenvalues[k], spec.right_vectors[:, k]
            assert_allclose(a @ v, lam * v, atol=1e-9 * max(np.abs(spec.eigenvalues).max(), 1.0))
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_eigen_rejects_bad_input():
    with pytest.raises(ValueError):
        eigen(np.ones((2, 3)))
    with pytest.raises(EigenvalueError):
        eigen(np.array([[np.nan, 0.0], [0.0, 1.0]]))


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


def test_ode_validation():
    with pytest.raises(ValueError):
        _rk4(np.ones((2, 3)), np.zeros(2), np.zeros(2), 1.0, 0.1)
    with pytest.raises(ValueError):
        _rk4(np.eye(2), np.zeros(3), np.zeros(2), 1.0, 0.1)
    with pytest.raises(ValueError):
        _rk4(np.eye(2), np.zeros(2), np.zeros(3), 1.0, 0.1)
    with pytest.raises(ValueError):
        _rk4(np.eye(2), np.zeros(2), np.zeros(2), 1.0, -0.1)
    with pytest.raises(ValueError):
        _rk4(np.eye(2), np.zeros(2), np.zeros(2), -1.0, 0.1)
    with pytest.raises(ValueError):  # a later segment's offset is checked too
        integrate_rk4(np.eye(2), np.zeros(2), [(0.0, np.zeros(2)), (0.5, np.zeros(3))], 1.0, 0.1)
    with pytest.raises(ValueError):  # the schedule must start at 0
        integrate_rk4(np.eye(2), np.zeros(2), [(0.5, np.zeros(2))], 1.0, 0.1)


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


def test_integrator_matches_a_plain_stage_loop():
    def _close(states, plain):
        # relative to each sample's largest component
        scale = np.abs(plain).max(axis=1, keepdims=True)
        assert np.all(np.abs(states - plain) <= 1e-12 * scale)

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
