"""Feasibility, stability, gain bounds, and steady-state predictions."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import gridpi
from gridpi import (
    DEC_PI,
    DIST_PI,
    P,
    ControllerSpec,
    LtiSystem,
    PowerNetwork,
    WeightedGraph,
    close_loop,
    gamma_bar,
    gamma_star_search,
    output_stability_check,
    predict_steady_state,
    stability_cubic,
    stationary_state,
    swing_to_lti,
    xi_rank_test,
)
from gridpi.analysis import _SEARCH_REL_TOL, STABILITY_TOL, unobservable_subspace
from gridpi.numerics import RANK_REL_TOL
from support import (bundled, random_dist_controller, random_network,
                     reference_gamma_star_search, two_bus_network)


# ---------------------------------------------------------------------------
# integral-action feasibility (rank test)
# ---------------------------------------------------------------------------

def test_rank_test_passes_on_a_well_posed_scalar_system():
    sys = LtiSystem(a=[[-1.0]], b=[[1.0]], c=[[1.0]], d=[0.0], eta=[0.0])
    result = xi_rank_test(sys, ki=[2.0])
    assert result.dim == 2
    assert result.rank == 2
    assert result.deficiency == 0
    assert result.full_rank


def test_rank_result_derives_deficiency_and_full_rank():
    result = gridpi.XiRankResult(dim=5, rank=3)
    assert result.deficiency == 2
    assert not result.full_rank
    assert gridpi.XiRankResult(dim=4, rank=4).full_rank


def test_rank_test_sees_swing_degeneracy():
    # frequency rows duplicate the measurement rows: deficiency is always n
    rng = np.random.default_rng(31)
    for _ in range(10):
        net = random_network(rng)
        n = net.n_buses
        result = xi_rank_test(swing_to_lti(net), ki=rng.uniform(0.5, 5.0, n))
        assert result.dim == 3 * n
        assert result.deficiency == n
        assert not result.full_rank


def test_rank_test_validates_gains():
    sys = swing_to_lti(two_bus_network())
    with pytest.raises(ValueError):
        xi_rank_test(sys, ki=[1.0])  # wrong length
    with pytest.raises(ValueError):
        xi_rank_test(sys, ki=[1.0, -1.0])


# ---------------------------------------------------------------------------
# observability machinery
# ---------------------------------------------------------------------------

def test_unobservable_subspace_empty_when_observable():
    a = np.array([[0.0, 1.0], [-2.0, -3.0]])
    c = np.array([[1.0, 0.0]])
    basis, comp = unobservable_subspace(a, c)
    assert basis.shape == (2, 0)
    assert comp.shape == (2, 2)


def test_unobservable_subspace_finds_a_decoupled_mode():
    a = np.diag([-1.0, -2.0])
    c = np.array([[1.0, 0.0]])
    basis, _ = unobservable_subspace(a, c)
    assert basis.shape == (2, 1)
    assert_allclose(np.abs(basis[:, 0]), [0.0, 1.0], atol=1e-12)


def test_unobservable_subspace_shrinks_past_non_invariant_kernels():
    # ker(c) = span{e2, e3} but only e3 is invariant: a e2 = e1 leaves the kernel
    a = np.zeros((3, 3))
    a[0, 1] = 1.0
    c = np.array([[1.0, 0.0, 0.0]])
    basis, _ = unobservable_subspace(a, c)
    assert basis.shape == (3, 1)
    assert_allclose(np.abs(basis[:, 0]), [0.0, 0.0, 1.0], atol=1e-12)


def _residual_subspace(a, c, rel_tol=1.0e-10):
    """Reference search: shrink ker c by SVDs of the n x k residual a B - B B^T a B."""
    def null_basis(mat, cutoff):
        _, sing, vt = np.linalg.svd(mat)
        return vt[int(np.count_nonzero(sing > cutoff)):].T

    scale = max(np.linalg.norm(a, 2), 1.0)
    basis = null_basis(c, rel_tol * max(np.linalg.norm(c, 2), 1.0))
    while basis.shape[1] > 0:
        image = a @ basis
        keep = null_basis(image - basis @ (basis.T @ image), rel_tol * scale)
        if keep.shape[1] == basis.shape[1]:
            break
        basis = basis @ keep
    return basis


def _assert_same_subspace(basis, reference):
    assert basis.shape == reference.shape
    assert_allclose(basis @ basis.T, reference @ reference.T, rtol=0.0, atol=1e-10)


def _assert_complement(basis, comp):
    # [B W] is an orthogonal matrix
    q = np.hstack([basis, comp])
    assert_allclose(q.T @ q, np.eye(q.shape[0]), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("dim", [0, 1, 2, 3])
def test_unobservable_subspace_matches_the_residual_search_on_planted_subspaces(dim):
    rng = np.random.default_rng(60 + dim)
    n, m = 9, 2
    for _ in range(5):
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        t = rng.normal(size=(n, n))
        t[dim:, :dim] = 0.0  # span(q[:, :dim]) is invariant
        a = q @ t @ q.T
        c = rng.normal(size=(m, n - dim)) @ q[:, dim:].T
        basis, comp = unobservable_subspace(a, c)
        assert basis.shape == (n, dim)
        _assert_complement(basis, comp)
        _assert_same_subspace(basis, _residual_subspace(a, c))
        if dim:
            planted = q[:, :dim]
            assert_allclose(basis @ basis.T, planted @ planted.T, atol=1e-10)


@pytest.mark.parametrize("factor", [0.5, 1.0e5, 1.0e6, 1.0e7])
def test_unobservable_subspace_matches_the_residual_search_on_swing_loops(factor):
    # factors of 1e5 and up sit in the region where the norm-relative
    # tolerances break down; both searches must still agree there
    rng = np.random.default_rng(61)
    for _ in range(6):
        net = random_network(rng)
        ctrl = random_dist_controller(rng, net)
        gamma = factor * gamma_bar(net, ctrl).gamma_bar
        cl = close_loop(swing_to_lti(net), ControllerSpec(
            kind=DIST_PI, kp=ctrl.kp, ki=ctrl.ki, gamma=gamma, comm=net.coupling_graph()))
        e, c = cl.system_matrix, cl.output_selector
        basis, comp = unobservable_subspace(e, c)
        _assert_same_subspace(basis, _residual_subspace(e, c))
        _assert_complement(basis, comp)


def test_unobservable_subspace_scale_argument_is_the_default_norm():
    rng = np.random.default_rng(62)
    net = random_network(rng)
    cl = close_loop(swing_to_lti(net), random_dist_controller(rng, net, gamma=0.3))
    e, c = cl.system_matrix, cl.output_selector
    scale = max(np.linalg.norm(e, 2), 1.0)
    for given, default in zip(unobservable_subspace(e, c, scale=scale), unobservable_subspace(e, c)):
        assert np.array_equal(given, default)


def test_observable_unstable_mode_fails_the_check():
    sys = LtiSystem(a=[[2.0]], b=[[1.0]], c=[[1.0]], d=[0.0], eta=[0.0])
    cl = close_loop(sys, ControllerSpec(kind=P, kp=np.array([0.5])))
    report = output_stability_check(cl)
    assert not report.output_stable


def test_proportional_swing_loop_is_output_stable():
    rng = np.random.default_rng(32)
    for _ in range(5):
        net = random_network(rng)
        cl = close_loop(swing_to_lti(net), ControllerSpec(kind=P, kp=rng.uniform(0.5, 5.0, net.n_buses)))
        report = output_stability_check(cl)
        assert report.output_stable
        assert len(report.zero_modes) == 1
        assert not report.zero_modes[0].observable
        assert report.max_real_part_excluding_zero_modes < 0.0


def test_decentralized_pi_loop_spectrum_structure():
    """The per-node integrators leave an n-dimensional marginal manifold.

    None of it is visible from the frequency outputs, so the eigenvalue
    check alone reports output stability; the rank test above is what
    flags the configuration as unable to regulate.  Both statements are
    pinned here.
    """
    net = two_bus_network()
    ctrl = ControllerSpec(kind=DEC_PI, kp=np.ones(2), ki=np.ones(2))
    report = output_stability_check(close_loop(swing_to_lti(net), ctrl))
    assert len(report.zero_modes) == 2
    assert all(not mode.observable for mode in report.zero_modes)
    assert report.output_stable
    assert not xi_rank_test(swing_to_lti(net), ctrl.ki).full_rank


def test_distributed_pi_loop_has_single_marginal_mode():
    rng = np.random.default_rng(33)
    net = random_network(rng)
    ctrl = random_dist_controller(rng, net)
    bound = gamma_bar(net, ctrl)
    cl = close_loop(swing_to_lti(net), ControllerSpec(
        kind=DIST_PI, kp=ctrl.kp, ki=ctrl.ki,
        gamma=0.5 * bound.gamma_bar, comm=net.coupling_graph()))
    report = output_stability_check(cl)
    assert report.output_stable
    assert len(report.zero_modes) == 1
    assert report.max_real_part_excluding_zero_modes < 0.0


def _per_mode_classifier(cl, tol=STABILITY_TOL):
    """Reference: the per-eigenvector classifier that the block split replaced.

    A mode counts as unobservable when c annihilates its right eigenvector
    and the eigenvector lies in the unobservable subspace.  Returns
    (output_stable, zero modes, observable zero modes, max Re at %.6g).
    """
    e, c = cl.system_matrix, cl.output_selector
    values, vectors = np.linalg.eig(e)
    scale = max(np.linalg.norm(e, 2), 1.0)
    basis, _ = unobservable_subspace(e, c, scale=scale)

    def unobservable(vec):
        nrm = np.linalg.norm(vec)
        if np.linalg.norm(c @ vec) > tol * nrm or basis.shape[1] == 0:
            return False
        return np.linalg.norm(vec - basis @ (basis.T @ vec)) <= tol * nrm

    stable, zero_observable, max_real = True, [], -math.inf
    for lam, vec in zip(values, vectors.T):
        if abs(lam) < tol * scale:
            zero_observable.append(not unobservable(vec))
        else:
            max_real = max(max_real, float(lam.real))
        if lam.real >= -tol * scale and not unobservable(vec):
            stable = False
    return stable, len(zero_observable), sum(zero_observable), "%.6g" % max_real


def _classified(cl):
    report = output_stability_check(cl)
    return (report.output_stable, len(report.zero_modes),
            sum(mode.observable for mode in report.zero_modes),
            "%.6g" % report.max_real_part_excluding_zero_modes)


@pytest.mark.parametrize("factor", [1.0e-2, 0.5, 0.99, 2.0, 1.0e3, 1.0e5, 1.0e7])
def test_block_split_gives_the_per_mode_verdicts_on_distributed_loops(factor):
    # from well inside the certified bound to where the norm-relative
    # zero-mode band saturates and the check says unstable
    rng = np.random.default_rng(63)
    for _ in range(8):
        net = random_network(rng)
        ctrl = random_dist_controller(rng, net)
        gamma = factor * gamma_bar(net, ctrl).gamma_bar
        cl = close_loop(swing_to_lti(net), ControllerSpec(
            kind=DIST_PI, kp=ctrl.kp, ki=ctrl.ki, gamma=gamma, comm=net.coupling_graph()))
        assert _classified(cl) == _per_mode_classifier(cl)


@pytest.mark.parametrize("kind", [P, DEC_PI])
def test_block_split_gives_the_per_mode_verdicts_on_p_and_decentralized_loops(kind):
    rng = np.random.default_rng(64)
    for _ in range(8):
        net = random_network(rng)
        n = net.n_buses
        ki = rng.uniform(0.5, 5.0, n) if kind == DEC_PI else None
        cl = close_loop(swing_to_lti(net), ControllerSpec(
            kind=kind, kp=rng.uniform(0.5, 5.0, n), ki=ki))
        assert _classified(cl) == _per_mode_classifier(cl)


def test_report_eigenvalues_are_the_spectrum_sorted_as_eigen_sorts():
    rng = np.random.default_rng(66)
    for _ in range(5):
        net = random_network(rng)
        cl = close_loop(swing_to_lti(net), random_dist_controller(rng, net, gamma=0.3))
        report = output_stability_check(cl)
        lam = report.eigenvalues
        assert np.array_equal(np.lexsort((-lam.imag, -lam.real)), np.arange(lam.size))
        spectrum = np.sort_complex(np.linalg.eigvals(cl.system_matrix))[::-1]
        assert_allclose(lam, spectrum, rtol=0.0, atol=1e-9 * report.scale)


def test_uniform_angle_mode_stays_unobservable_among_slow_consensus_modes():
    # At 1e-6 * gamma_bar the consensus modes are slow enough to fall in
    # the zero-mode band around the uniform-angle mode.  Their eigenvectors
    # mix with it, so _per_mode_classifier can call every zero mode
    # observable; the block split keeps the uniform-angle mode in B.
    rng = np.random.default_rng(65)
    for _ in range(6):
        net = random_network(rng)
        ctrl = random_dist_controller(rng, net)
        gamma = 1.0e-6 * gamma_bar(net, ctrl).gamma_bar
        cl = close_loop(swing_to_lti(net), ControllerSpec(
            kind=DIST_PI, kp=ctrl.kp, ki=ctrl.ki, gamma=gamma, comm=net.coupling_graph()))
        uniform = np.zeros(cl.dim)
        uniform[cl.state_layout["delta"]] = 1.0 / math.sqrt(net.n_buses)
        basis, _ = unobservable_subspace(cl.system_matrix, cl.output_selector)
        assert np.linalg.norm(uniform - basis @ (basis.T @ uniform)) < 1e-10
        report = output_stability_check(cl)
        assert len(report.zero_modes) > 1
        assert any(not mode.observable and abs(mode.eigenvalue) < 1e-12 * report.scale
                   for mode in report.zero_modes)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       frac=st.floats(1.0e-2, 1.0, exclude_max=True))
def test_any_gamma_below_the_bound_is_output_stable(seed, frac):
    # The slowest consensus mode scales with gamma.  Near 1e-3 * gamma_bar
    # it enters the 1e-8 * ||E||_2 zero-mode band on some draws (3 of 300)
    # and is reported as a second, observable zero mode, so fractions start
    # at 1e-2 (6000 random draws above it all pass).
    rng = np.random.default_rng(seed)
    net = random_network(rng)
    ctrl = random_dist_controller(rng, net)
    bound = gamma_bar(net, ctrl).gamma_bar
    assume(math.isfinite(bound))
    cl = close_loop(swing_to_lti(net), ControllerSpec(
        kind=DIST_PI, kp=ctrl.kp, ki=ctrl.ki, gamma=frac * bound, comm=net.coupling_graph()))
    report = output_stability_check(cl)
    assert report.output_stable
    assert len(report.zero_modes) == 1
    assert not report.zero_modes[0].observable


# ---------------------------------------------------------------------------
# the averaging-gain bound
# ---------------------------------------------------------------------------

def test_gamma_bar_on_the_unit_pair_is_one_half():
    # kappa1 = 1, kappa2 = 2, sigma = min(m) * lammax(Lk^2) = 4, alpha = beta = 0
    net = two_bus_network()
    ctrl = ControllerSpec(kind=DIST_PI, kp=np.ones(2), ki=np.ones(2),
                          gamma=None, comm=net.coupling_graph())
    bound = gamma_bar(net, ctrl)
    assert_allclose(bound.gamma_bar, 0.5, rtol=1e-12)
    assert bound.alpha == 0.0
    assert bound.beta == 0.0
    assert_allclose(bound.sigma, 4.0, rtol=1e-12)
    assert_allclose((bound.kappa1, bound.kappa2), (1.0, 2.0))


def test_gamma_bar_scales_out_uniform_gain_growth():
    # multiplying ki and kp by c multiplies kappa1*kappa2 by ~c^2 while the
    # coupling term stays put; the bound must grow
    net = two_bus_network()
    small = gamma_bar(net, ControllerSpec(kind=DIST_PI, kp=np.ones(2), ki=np.ones(2),
                                          gamma=None, comm=net.coupling_graph()))
    big = gamma_bar(net, ControllerSpec(kind=DIST_PI, kp=np.full(2, 10.0), ki=np.full(2, 10.0),
                                        gamma=None, comm=net.coupling_graph()))
    assert big.gamma_bar > 10.0 * small.gamma_bar


def test_gamma_bar_margins_positive_inside_and_zero_at_the_edge():
    rng = np.random.default_rng(34)
    for _ in range(15):
        net = random_network(rng)
        bound = gamma_bar(net, random_dist_controller(rng, net))
        if not math.isfinite(bound.gamma_bar):
            continue
        for frac in np.linspace(0.01, 0.99, 23):
            a1, a2, a0a3 = bound.evaluate(frac * bound.gamma_bar)
            assert a1 > 0.0 and a2 > 0.0
            assert a1 * a2 > a0a3
        a1, a2, a0a3 = bound.evaluate(bound.gamma_bar)
        margin = min(a1, a2, a1 * a2 - a0a3)
        reference = bound.kappa1 * bound.kappa2
        assert abs(margin) < 1e-9 * reference  # the edge is an exact root


def test_gamma_bar_below_the_smallest_normal_float_is_zero():
    # the bound is kappa1 kappa2 / sigma on the unit pair; a subnormal one
    # keeps too few significant bits to verify (one near 7.6e-324 failed its
    # own grid check), and it certifies no usable gamma anyway
    net = two_bus_network()
    for ki, expected in ((1e-320, 0.0), (1e-310, 0.0), (1e-290, 5e-291)):
        ctrl = ControllerSpec(kind=DIST_PI, kp=np.ones(2), ki=np.full(2, ki),
                              gamma=None, comm=net.coupling_graph())
        assert_allclose(gamma_bar(net, ctrl).gamma_bar, expected, rtol=1e-12, atol=0.0)


def test_gamma_bar_rejects_mismatched_communication_weights():
    net = PowerNetwork(inertia=np.ones(4), damping=np.ones(4),
                       voltage=np.full(4, 1e3), power=np.zeros(4),
                       lines=((0, 1, 1e-6), (1, 2, 1e-6), (2, 3, 1e-6)))
    comm = WeightedGraph(4, ((0, 3, 0.4), (1, 2, 1.6), (1, 3, 7.6), (2, 3, 1.4)))
    ctrl = ControllerSpec(kind=DIST_PI, kp=np.ones(4), ki=np.ones(4),
                          gamma=None, comm=comm)
    with pytest.raises(ValueError, match="precondition"):
        gamma_bar(net, ctrl)


def test_gamma_bar_requires_distributed_kind():
    net = two_bus_network()
    with pytest.raises(ValueError):
        gamma_bar(net, ControllerSpec(kind=DEC_PI, kp=np.ones(2), ki=np.ones(2)))


def test_empirical_threshold_sits_above_the_bound():
    # The crossing here, near 5e7 = 1e8 * gamma_bar, is the zero-mode band
    # of the check overtaking a stable mode, and the verdict is noisy next
    # to it: it also flips at 4.99984e7, 4.99991e7 and 4.99994e7.  The
    # secant search and plain bisection therefore land on different flips
    # (49999975.2 against 49999904, 1.4e-6 apart), outside _SEARCH_REL_TOL.
    net = two_bus_network()
    ctrl = ControllerSpec(kind=DIST_PI, kp=np.ones(2), ki=np.ones(2),
                          gamma=None, comm=net.coupling_graph())
    bound = gamma_bar(net, ctrl)
    threshold = gamma_star_search(net, ctrl)
    assert threshold > bound.gamma_bar


def test_one_split_serves_every_gamma_of_the_search():
    # gamma_star_search splits once: B, the uniform-angle direction, must
    # stay the whole unobservable subspace and stay invariant as gamma grows
    rng = np.random.default_rng(64)
    for _ in range(8):
        net = random_network(rng)
        ctrl = random_dist_controller(rng, net)
        bound = gamma_bar(net, ctrl).gamma_bar
        cl = close_loop(swing_to_lti(net), replace(ctrl, gamma=bound))
        basis, comp = unobservable_subspace(cl.system_matrix, cl.output_selector)
        assert basis.shape[1] == 1
        for factor in (1.0, 1e2, 1e4, 1e6):
            cl = close_loop(swing_to_lti(net), replace(ctrl, gamma=factor * bound))
            e = cl.system_matrix
            scale = max(np.linalg.norm(e, 2), 1.0)
            assert unobservable_subspace(e, cl.output_selector)[0].shape[1] == 1
            assert np.linalg.norm(comp.T @ e @ basis, 2) <= RANK_REL_TOL * scale


def test_gamma_star_search_splits_again_when_the_first_split_is_not_invariant(monkeypatch):
    # on net30.grid at kp = ki = 1, gamma_bar = 5e-14 puts gamma * L_c below
    # the rank cutoff: the first split sees 30 unobservable directions, which
    # stop being invariant as gamma grows, and the search splits again, to 1
    net = gridpi.load_network(bundled("net30.grid")).net
    n = net.n_buses
    ctrl = ControllerSpec(kind=DIST_PI, kp=np.ones(n), ki=np.ones(n), gamma=None,
                          comm=net.coupling_graph())
    columns = []

    def split(*args, **kwargs):
        basis, comp = unobservable_subspace(*args, **kwargs)
        columns.append(basis.shape[1])
        return basis, comp

    monkeypatch.setattr(gridpi.analysis, "unobservable_subspace", split)
    threshold = gamma_star_search(net, ctrl)
    monkeypatch.undo()
    assert columns == [30, 1]
    for factor, stable in ((1.0, True), (1.0 + 2e-6, False)):
        cl = close_loop(swing_to_lti(net), replace(ctrl, gamma=factor * threshold))
        assert output_stability_check(cl).output_stable == stable


def test_gamma_star_search_agrees_with_bisection_on_full_checks():
    rng = np.random.default_rng(2024)
    for _ in range(12):
        net = random_network(rng)
        ctrl = random_dist_controller(rng, net)
        reference = reference_gamma_star_search(net, ctrl)
        threshold = gamma_star_search(net, ctrl)
        assert abs(threshold - reference) <= _SEARCH_REL_TOL * reference
        cl = close_loop(swing_to_lti(net), replace(ctrl, gamma=threshold))
        assert output_stability_check(cl).output_stable


def _record_probes(monkeypatch, margin=None):
    """Wrap the search's probe rule; returns the list of each probe's scale."""
    scales, real = [], gridpi.analysis._observable_margin

    def probe(seen, scale):
        scales.append(scale)
        return (margin or real)(seen, scale)

    monkeypatch.setattr(gridpi.analysis, "_observable_margin", probe)
    return scales


def test_gamma_star_search_takes_at_most_14_probes(monkeypatch):
    # growth brackets these crossings in 6 probes; the secant on gamma needs 4 or 5 more
    rng = np.random.default_rng(2024)
    for _ in range(12):
        net = random_network(rng)
        ctrl = random_dist_controller(rng, net)
        scales = _record_probes(monkeypatch)
        assert math.isfinite(gamma_star_search(net, ctrl))
        assert len(scales) <= 14


def test_gamma_star_search_without_a_crossing_takes_8_probes(monkeypatch):
    # start * 2**k for k = 0, 1, 3, 7, 15, 31, 63, 80, and no crossing
    net = two_bus_network()
    ctrl = ControllerSpec(kind=DIST_PI, kp=np.ones(2), ki=np.ones(2),
                          gamma=None, comm=net.coupling_graph())
    scales = _record_probes(monkeypatch, lambda seen, scale: -1.0)
    assert gamma_star_search(net, ctrl) == math.inf
    assert len(scales) == 8


def _scale_at(net, ctrl, gamma):
    cl = close_loop(swing_to_lti(net), replace(ctrl, gamma=gamma))
    return max(np.linalg.norm(cl.system_matrix, 2), 1.0)


def test_gamma_star_search_caps_the_exponent(monkeypatch):
    # a crossing between start * 2**69 and start * 2**70: the step from 63
    # overshoots 80, so the search probes k = 80 and narrows (2**63, 2**80]
    net = two_bus_network()
    ctrl = ControllerSpec(kind=DIST_PI, kp=np.ones(2), ki=np.ones(2),
                          gamma=None, comm=net.coupling_graph())
    start = gamma_bar(net, ctrl).gamma_bar

    def scale_at(k):
        return _scale_at(net, ctrl, math.ldexp(start, k))

    crossing = scale_at(70)
    scales = _record_probes(monkeypatch, lambda seen, scale: -1.0 if scale < crossing else 1.0)
    threshold = gamma_star_search(net, ctrl)
    assert math.ldexp(start, 69) <= threshold < math.ldexp(start, 70)
    exponents = (0, 1, 3, 7, 15, 31, 63, 80)
    assert scales[:len(exponents)] == [scale_at(k) for k in exponents]
    assert max(scales) == scale_at(80)


@pytest.mark.parametrize("k", [9.3, 20.7, 45.2])
def test_gamma_star_search_secant_lands_on_an_affine_crossing(monkeypatch, k):
    # scale - scale_at(crossing) is affine in gamma once gamma L_c dominates
    # E0, as the margin is near a band crossing, so the secant on gamma needs
    # few steps after the doubling brackets the crossing.  At k = 45.2 the
    # first step lands exactly on the crossing, a margin of 0 that fails:
    # the search stops there and takes the final probe just below it.
    net = two_bus_network()
    ctrl = ControllerSpec(kind=DIST_PI, kp=np.ones(2), ki=np.ones(2),
                          gamma=None, comm=net.coupling_graph())
    crossing = gamma_bar(net, ctrl).gamma_bar * 2.0 ** k
    scale_at_crossing = _scale_at(net, ctrl, crossing)
    margins = []

    def margin(seen, scale):
        margins.append(scale - scale_at_crossing)
        return margins[-1]

    _record_probes(monkeypatch, margin)
    threshold = gamma_star_search(net, ctrl)
    assert crossing * (1.0 - _SEARCH_REL_TOL) <= threshold < crossing
    first_failure = next(i for i, f in enumerate(margins) if f >= 0.0)
    assert len(margins) - first_failure - 1 <= 4
    assert (0.0 in margins) == (k == 45.2)


# ---------------------------------------------------------------------------
# the per-direction cubic
# ---------------------------------------------------------------------------

def test_cubic_coefficients_match_their_quadratic_forms():
    rng = np.random.default_rng(35)
    net = random_network(rng)
    n = net.n_buses
    ctrl = random_dist_controller(rng, net, gamma=0.7)
    lk = net.coupling_laplacian()
    lc = lk
    x = rng.normal(size=n)
    a3, a2, a1, a0 = stability_cubic(net, ctrl, 0.7, x)
    dkp = np.diag(net.damping + ctrl.kp)
    assert_allclose(a3, x @ np.diag(net.inertia) @ x)
    assert_allclose(a2, x @ (dkp + 0.7 * np.diag(net.inertia) @ lc) @ x)
    assert_allclose(a1, x @ (0.7 * dkp @ lc + np.diag(ctrl.ki) + lk) @ x)
    assert_allclose(a0, 0.7 * x @ lk @ lc @ x)


def test_cubic_roots_are_loop_eigenvalues_on_uniform_networks():
    # with equal machines and L_c = L_k the loop block-diagonalizes along
    # Laplacian eigenvectors; each direction contributes the cubic's roots
    net = PowerNetwork(inertia=np.full(3, 2.0), damping=np.full(3, 0.7),
                       voltage=np.full(3, 1e3), power=np.zeros(3),
                       lines=((0, 1, 2e-6), (1, 2, 2e-6), (0, 2, 2e-6)))
    gamma = 0.3
    ctrl = ControllerSpec(kind=DIST_PI, kp=np.full(3, 1.5), ki=np.full(3, 2.0),
                          gamma=gamma, comm=net.coupling_graph())
    cl = close_loop(swing_to_lti(net), ctrl)
    loop_eigs = np.linalg.eigvals(cl.system_matrix)

    lam, vecs = np.linalg.eigh(net.coupling_laplacian())
    for k in range(3):
        x = vecs[:, k]
        a3, a2, a1, a0 = stability_cubic(net, ctrl, gamma, x)
        roots = np.roots([a3, a2, a1, a0])
        for root in roots:
            assert np.min(np.abs(loop_eigs - root)) < 1e-8


# ---------------------------------------------------------------------------
# stationary states and steady-state prediction
# ---------------------------------------------------------------------------

def test_stationary_state_is_an_exact_fixed_point_for_pi_kinds():
    rng = np.random.default_rng(36)
    for kind in (DEC_PI, DIST_PI):
        net = random_network(rng)
        n = net.n_buses
        if kind == DIST_PI:
            ctrl = random_dist_controller(rng, net, gamma=0.4)
        else:
            ctrl = ControllerSpec(kind=kind, kp=rng.uniform(0.5, 5.0, n),
                                  ki=rng.uniform(0.5, 5.0, n))
        cl = close_loop(swing_to_lti(net), ctrl)
        x0 = stationary_state(net, ctrl)
        residual = cl.system_matrix @ x0 + cl.forcing_dev
        assert np.max(np.abs(residual)) < 1e-9


def test_stationary_state_for_droop_control_rides_the_angle_ramp():
    # a pure P loop settles at a nonzero frequency offset: the angles keep
    # ramping uniformly, so the only nonzero residual rows are delta' = omega
    rng = np.random.default_rng(41)
    net = random_network(rng)
    ctrl = ControllerSpec(kind=P, kp=rng.uniform(0.5, 5.0, net.n_buses))
    cl = close_loop(swing_to_lti(net), ctrl)
    x0 = stationary_state(net, ctrl)
    residual = cl.system_matrix @ x0 + cl.forcing_dev
    assert_allclose(residual[cl.state_layout["delta"]],
                    x0[cl.state_layout["omega"]], atol=1e-9)
    assert np.max(np.abs(residual[cl.state_layout["omega"]])) < 1e-9
    offsets = x0[cl.state_layout["omega"]]
    assert np.ptp(offsets) < 1e-12  # uniform droop offset


def test_stationary_angles_are_mean_free():
    rng = np.random.default_rng(37)
    net = random_network(rng)
    ctrl = random_dist_controller(rng, net, gamma=0.4)
    x0 = stationary_state(net, ctrl)
    cl = close_loop(swing_to_lti(net), ctrl)
    assert abs(np.sum(x0[cl.state_layout["delta"]])) < 1e-9


def test_prediction_matches_the_conservation_law():
    # sum of stationary inputs = omega_ref * sum(d) - sum(p)
    rng = np.random.default_rng(38)
    for _ in range(10):
        net = random_network(rng)
        ctrl = random_dist_controller(rng, net, gamma=0.6)
        pred = predict_steady_state(net, ctrl)
        expected = net.omega_ref * net.damping.sum() - net.power.sum()
        assert_allclose(pred.u_stationary.sum(), expected, rtol=1e-10)
        assert_allclose(pred.omega_hat, net.omega_ref)
        # inputs split proportionally to the integral gains
        share = pred.u_stationary / ctrl.ki
        assert np.ptp(share) < 1e-9 * max(abs(share[0]), 1.0)


def test_prediction_offset_under_measurement_bias():
    rng = np.random.default_rng(39)
    net = random_network(rng)
    eta = rng.normal(0.0, 0.5, net.n_buses)
    ctrl = random_dist_controller(rng, net, gamma=0.6)
    pred = predict_steady_state(net, ctrl, eta=eta)
    assert_allclose(pred.omega_hat, net.omega_ref - eta.mean(), rtol=1e-12)


def test_prediction_agrees_with_a_long_simulation():
    rng = np.random.default_rng(40)
    net = random_network(rng, n_max=5)
    eta = rng.normal(0.0, 0.3, net.n_buses)
    ctrl = random_dist_controller(rng, net, gamma=0.5)
    pred = predict_steady_state(net, ctrl, eta=eta)
    cl = close_loop(swing_to_lti(net, eta=eta), ctrl)
    tr = gridpi.simulate(cl, 150.0, h=0.005)
    assert not tr.diverged
    assert_allclose(tr.states[-1] @ cl.control_gain.T + cl.control_offset, pred.u_stationary,
                    atol=1e-6)
    omega = tr.states[-1, cl.state_layout["omega"]] + net.omega_ref
    assert_allclose(omega, np.full(net.n_buses, pred.omega_hat), atol=1e-6)


def test_prediction_requires_distributed_kind_and_gamma():
    net = two_bus_network()
    with pytest.raises(ValueError):
        predict_steady_state(net, ControllerSpec(kind=DEC_PI, kp=np.ones(2), ki=np.ones(2)))
    open_gamma = ControllerSpec(kind=DIST_PI, kp=np.ones(2), ki=np.ones(2),
                                gamma=None, comm=net.coupling_graph())
    with pytest.raises(ValueError):
        predict_steady_state(net, open_gamma)
