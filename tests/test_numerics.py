"""The fixed-step integrator."""

from typing import NamedTuple

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gridpi import DEC_PI, ControllerSpec, close_loop, integrate_rk4, numerics
from gridpi.numerics import (_CHECK_BLOCK, DIVERGENCE_LIMIT, _block_rows, _power_stack, _rk4_map,
                             rk4_multiplier)
from support import exact_flow, plain_rk4, random_dist_controller, random_network, two_bus_network


# ---------------------------------------------------------------------------
# the integrator's contract: one table of runs
# ---------------------------------------------------------------------------

class Run(NamedTuple):
    """One integrate_rk4 call.  Besides agreeing with support.plain_rk4, a
    run may pin its row count and its diverged flag; exact = (atol, rtol)
    compares every row x with support.exact_flow:
    |x - exact| <= max(atol, rtol * max|exact row|)."""
    id: str
    matrix: np.ndarray
    x0: np.ndarray
    schedule: list
    t_end: float
    h: float
    rows: int = None
    diverged: bool = False
    exact: tuple = None


def one_segment(id, matrix, offset, x0, t_end, h, **pins):
    """A run of one segment, built from array-likes."""
    return Run(id, np.array(matrix, dtype=float), np.array(x0, dtype=float),
               [(0.0, np.array(offset, dtype=float))], t_end, h, **pins)


def expm_runs():
    """Decaying random systems of 2 to 5 states over 1 s in steps of 1 ms."""
    rng = np.random.default_rng(5)
    for k in range(10):
        n = int(rng.integers(2, 6))
        a = rng.normal(size=(n, n))
        a -= (np.max(np.linalg.eigvals(a).real) + 0.5) * np.eye(n)  # make it decay
        yield one_segment(f"expm-{k}", a, np.zeros(n), rng.normal(size=n), 1.0, 0.001,
                          exact=(1e-9, 0.0))


def stage_loop_runs():
    """A random 7-state system alone and under three loads, and the runs
    where the first bad row falls in various places of the blocked path.
    x' = lam x grows by R = rk4_multiplier(h lam) per step (h a power of two
    keeps the grid exact), and x0 puts the first crossing of
    DIVERGENCE_LIMIT half a step's growth past the pinned row."""
    rng = np.random.default_rng(6)
    n = 7
    mat, offset, x0 = rng.normal(size=(n, n)) * 0.3, rng.normal(size=n), rng.normal(size=n)
    # the horizon ends in a shortened tail step
    yield one_segment("tail-step", mat, offset, x0, 0.405, 0.01, rows=42)
    # the middle segment ends off the grid, so the grid restarts at 0.235
    # after a shortened step
    offsets = rng.normal(size=(3, n))
    yield Run("three-loads", mat, x0, [(0.0, offsets[0]), (0.1, offsets[1]), (0.235, offsets[2])],
              0.4, 0.01, rows=42)
    mat, offset, x0 = np.array([[0.0, 1.0], [40.0, 0.5]]), np.array([0.0, 1.0]), np.array([1.0, 0.0])
    yield one_segment("diverges", mat, offset, x0, 10.0, 0.1, rows=42, diverged=True)
    yield Run("diverges-after-a-switch", mat, x0, [(0.0, offset), (0.25, -offset)], 10.0, 0.1,
              rows=42, diverged=True)

    lam, h = 2.0, 1.0 / 128.0
    grow = rk4_multiplier(h * lam)
    block, m = _CHECK_BLOCK, _block_rows(1)
    # a divergence check block's last row, the next one's first and second;
    # a block stack's first row, the rows around its first anchor, a later
    # anchor and a row inside a later block
    for row in (block - 1, block, block + 1, 1, m - 1, m, m + 1, 3 * m, 3 * m + m // 2):
        yield one_segment(f"bad-row-{row}", [[lam]], [0.0], [DIVERGENCE_LIMIT / grow ** (row - 0.5)],
                          3 * block * h, h, rows=row + 1, diverged=True)
    # the first bad row is a shortened tail step, which runs as its own block
    n_full, tail = block + 200, h / 2.0
    x0 = DIVERGENCE_LIMIT / (grow ** n_full * rk4_multiplier(tail * lam) ** 0.5)
    yield one_segment("bad-tail-row", [[lam]], [0.0], [x0], n_full * h + tail, h,
                      rows=n_full + 2, diverged=True)
    # the first bad row ends the first block of the second segment; the small
    # forcing makes the segments differ
    switch, row = 700, 700 + block
    x0 = np.array([DIVERGENCE_LIMIT / grow ** (row - 0.5)])
    yield Run("bad-row-after-a-switch", np.array([[lam]]), x0,
              [(0.0, 1e-3 * x0), (switch * h, -1e-3 * x0)], 3 * block * h, h, rows=row + 1,
              diverged=True)
    # after the first bad row the rest of its block overflows to inf and then
    # NaN (phi mixes signs); that must neither leak a warning nor move the
    # truncation
    mixed = 800.0 * np.array([[1.0, 1.0], [1.0, -1.0]])
    yield one_segment("overflow-after-the-bad-row", mixed, [0.0, 0.0], [1.0, 0.0], 300 * h, h,
                      rows=6, diverged=True)
    # a first bad row that is itself non-finite: overflow to inf, and NaN
    for name, x0 in (("inf", [1e308, -1e308]), ("nan", [np.nan, 0.0])):
        yield one_segment(f"non-finite-bad-row-{name}", mixed, [0.0, 0.0], x0, 300 * h, h,
                          rows=2, diverged=True)
    # a step map growing 1e40 per step: phi^8 overflows, so the stack holds
    # seven powers (test_power_stack_stops_before_overflow) and blocks are
    # seven rows; the first bad row (8) is the first row after an anchor
    yield one_segment("seven-power-stack", [[2.2e10 / h]], [0.0], [1e-300], 100 * h, h,
                      rows=9, diverged=True)


def block_runs():
    """Segment lengths around one and two stack blocks and several check
    blocks, each alone and followed by a shortened tail step, then all
    chained under alternating loads."""
    rng = np.random.default_rng(7)
    n, h = 6, 0.01
    m = _block_rows(n)
    mat = rng.normal(size=(n, n)) - 3.0 * np.eye(n)
    offsets, x0 = rng.normal(size=(2, n)), rng.normal(size=n)
    lengths = (1, m - 1, m, m + 1, 2 * m + 1, 2 * _CHECK_BLOCK + 300)
    for steps in lengths:
        yield one_segment(f"steps-{steps}", mat, offsets[0], x0, steps * h, h, rows=steps + 1)
        yield one_segment(f"steps-{steps}-and-a-tail", mat, offsets[0], x0, steps * h + h / 2, h,
                          rows=steps + 2)
    schedule, start = [], 0.0
    for k, steps in enumerate(lengths[:-1]):
        schedule.append((start, offsets[k % 2]))
        start += steps * h + h / 2
    yield Run("chained-lengths", mat, x0, schedule, start, h,
              rows=1 + sum(steps + 1 for steps in lengths[:-1]))


def loop_runs():
    """Closed swing loops: random distributed-PI loops, a split at a grid
    point under one load, and a load step."""
    rng = np.random.default_rng(23)
    for k in range(5):
        net = random_network(rng, n_max=5)
        cl = close_loop(net, random_dist_controller(rng, net, gamma=0.4))
        yield one_segment(f"loop-{k}", cl.system_matrix, cl.forcing_dev, rng.normal(size=cl.dim),
                          1.0, 0.002, exact=(1e-8, 1e-8))
    net = two_bus_network()
    cl = close_loop(net, ControllerSpec(kind=DEC_PI, kp=np.ones(2), ki=np.ones(2)))
    # the same steps as one segment: no extra row at the seam
    yield Run("split-at-a-grid-point", cl.system_matrix, np.zeros(cl.dim),
              [(0.0, cl.forcing_dev), (1.0, cl.forcing_dev)], 2.0, 0.01, rows=201)
    rng = np.random.default_rng(24)
    net = two_bus_network(power=(20.0, -20.0))
    ctrl = random_dist_controller(rng, net, gamma=0.3)
    before = close_loop(net, ctrl)
    after = close_loop(net, ctrl, power=[220.0, -20.0])
    yield Run("load-step", before.system_matrix, rng.normal(size=before.dim),
              [(0.0, before.forcing_dev), (1.0, after.forcing_dev)], 2.0, 0.005, rows=401,
              exact=(1e-8, 1e-8))


RUNS = [
    one_segment("decay", [[-1.0]], [0.0], [1.0], 1.0, 0.01, exact=(1e-6, 0.0)),
    # x' = -x + 1 from 0: x(t) = 1 - exp(-t)
    one_segment("affine", [[-1.0]], [1.0], [0.0], 3.0, 0.005, exact=(1e-8, 0.0)),
    one_segment("partial-final-step", [[-1.0]], [0.0], [1.0], 0.35, 0.1, rows=5,
                exact=(1e-6, 0.0)),
    one_segment("step-divides", -np.eye(2), [0.0, 0.0], [1.0, 1.0], 1.0, 0.1, rows=11),
    one_segment("grows", [[50.0]], [0.0], [1.0], 10.0, 0.1, rows=8, diverged=True),
    # a segment that holds no full step is one shortened step, however short
    one_segment("span-below-the-band", [[-1.0]], [0.0], [1.0], 1e-13, 1e-3, rows=2),
    Run("short-middle-segment", np.array([[-1.0]]), np.ones(1),
        [(0.0, np.zeros(1)), (0.5, np.full(1, 1e6)), (0.5 + 1e-13, np.zeros(1))], 1.0, 0.01,
        rows=102, exact=(1e-9, 0.0)),
    # a remainder within 1e-9 h after a full step is rounding
    one_segment("remainder-in-the-band", [[-1.0]], [0.0], [1.0], 0.0030000000001, 1e-3, rows=4),
    *expm_runs(),
    *stage_loop_runs(),
    *block_runs(),
    *loop_runs(),
]


@pytest.mark.parametrize("run", RUNS, ids=[run.id for run in RUNS])
def test_integrator_contract(run):
    out = integrate_rk4(run.matrix, run.x0, run.schedule, run.t_end, run.h)
    times, states, diverged = plain_rk4(run.matrix, run.x0, run.schedule, run.t_end, run.h)
    assert np.array_equal(out.times, times)
    assert out.diverged == diverged == run.diverged
    assert out.states.shape == states.shape == (times.size, run.x0.size)
    assert run.rows in (None, times.size)
    # the rows agree to rounding, within 1e-12 of each row's largest
    # component; a component is non-finite only where the reference's is
    finite = np.isfinite(states)
    assert np.array_equal(np.isfinite(out.states), finite)
    kept = finite.all(axis=1)
    scale = np.abs(states[kept]).max(axis=1, keepdims=True)
    assert np.all(np.abs(out.states[kept] - states[kept]) <= 1e-12 * scale)
    if run.exact is not None:
        atol, rtol = run.exact
        exact = np.array([exact_flow(run.matrix, run.x0, run.schedule, t) for t in times])
        bound = np.maximum(atol, rtol * np.abs(exact).max(axis=1, keepdims=True))
        assert np.all(np.abs(out.states - exact) <= bound)


def test_power_stack_stops_before_overflow():
    phi, _ = _rk4_map(np.array([[2.2e10 * 128.0]]), 1.0 / 128.0)  # row seven-power-stack
    assert _power_stack(phi, _block_rows(1)).shape == (7, 1)


def test_non_finite_step_map_or_forcing_is_refused_before_any_row(monkeypatch):
    # an overflowing step map leaked RuntimeWarnings and gave NaN rows
    def no_rows(*args):
        raise AssertionError("propagated a non-finite step map")

    monkeypatch.setattr(numerics, "_propagate", no_rows)
    huge = np.array([[-1e200, 1e200], [1e200, -1e200]])
    with pytest.raises(ValueError, match=r"^step 0\.002 s: the RK4 step map is not finite$"):
        integrate_rk4(huge, np.zeros(2), [(0.0, np.zeros(2))], 1.0, 0.002)
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
