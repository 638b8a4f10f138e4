"""Feasibility, stability, and steady-state analysis of the closed loops.

Three independent tools:

* a rank test on the augmented matrix [[A, B K_i], [C, 0]] that decides
  whether integral action with diagonal gains can place an equilibrium at
  all (for the swing model it is always rank deficient by exactly the
  number of buses, which is why per-bus integrators alone cannot work);

* an eigenvalue check of the closed loop that tolerates marginal modes as
  long as they are unobservable from the output (the uniform-angle mode is
  structural and harmless);

* a sufficient upper bound gamma_bar on the averaging gain, from
  Routh-Hurwitz conditions applied to the quadratic forms of the
  closed-loop characteristic matrix polynomial, plus the steady-state
  predictor (frequency restored to omega_ref minus the mean measurement
  offset; control effort shared proportionally to the integral gains).
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from . import control as ctrlmod
from . import graph as graphmod
from . import numerics
from . import sysmodel

# Decay margin and zero-mode band of the stability check (relative to the matrix scale).
STABILITY_TOL = 1.0e-8
# gamma_star_search: largest exponent k of a probe start * 2**k; final relative bracket width.
_MAX_DOUBLINGS = 80
_SEARCH_REL_TOL = 1.0e-6
# How negative lambda_min(sym(Lk Lc)) may be before the bound's precondition
# is declared violated (relative to the product's own scale).
PRECONDITION_REL_TOL = 1.0e-9


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.T)


# ---------------------------------------------------------------------------
# integral-action feasibility (rank test)
# ---------------------------------------------------------------------------

class XiRankResult(NamedTuple):
    dim: int          # size of the square test matrix (n_states + n_outputs)
    rank: int

    @property
    def deficiency(self):
        return self.dim - self.rank

    @property
    def full_rank(self):
        return self.rank == self.dim


def xi_rank_test(sys: sysmodel.LtiSystem, ki) -> XiRankResult:
    """Solvability test for equilibria under integral feedback.

    Builds [[A, B K_i], [C, 0]] and reports its numerical rank.  Full rank
    is necessary for any stabilizing diagonal-integral design; a deficiency
    means no choice of the remaining gains can create the required
    equilibrium for generic references and disturbances.
    """
    ki = np.atleast_1d(np.asarray(ki, dtype=float))
    if ki.shape != (sys.n_outputs,):
        raise ValueError(f"ki must have one entry per output, got shape {ki.shape}")
    if not np.all(ki > 0.0):
        raise ValueError("integral gains must be strictly positive")
    n, m = sys.n_states, sys.n_outputs
    xi = np.zeros((n + m, n + m))
    xi[:n, :n] = sys.a
    xi[:n, n:] = sys.b * ki[None, :]
    xi[n:, :n] = sys.c
    rank = numerics.numerical_rank(xi)
    return XiRankResult(dim=n + m, rank=rank)


# ---------------------------------------------------------------------------
# output stability (eigenvalues modulo unobservable modes)
# ---------------------------------------------------------------------------

class ZeroMode(NamedTuple):
    eigenvalue: complex
    observable: bool


class StabilityReport(NamedTuple):
    """Outcome of output_stability_check.  eigenvalues is the spectrum of
    the loop matrix from its unobservable and observable blocks, sorted by
    real part descending, then imaginary part descending; zero_modes are
    those with |lam| < STABILITY_TOL * scale."""

    eigenvalues: np.ndarray
    zero_modes: tuple
    output_stable: bool
    max_real_part_excluding_zero_modes: float
    scale: float  # max(||E||_2, 1); the check's tolerances are relative to it


def _right_singular(mat: np.ndarray):
    """Singular values and the full right singular basis (rows of vt) of mat.

    The thin SVD already returns all of V for tall or square matrices;
    only wide ones need full_matrices to span the null space.
    """
    rows, cols = mat.shape
    _, sing, vt = np.linalg.svd(mat, full_matrices=rows < cols)
    return sing, vt


def unobservable_subspace(a: np.ndarray, c: np.ndarray, *, scale: float = None):
    """Largest a-invariant subspace in the kernel of c, and its complement.

    This is the null space of the observability map of (a, c), computed by
    shrinking a kernel basis B until it is invariant, which avoids forming
    the badly scaled stack of matrix powers.  An orthonormal complement W
    of B is kept alongside, so each step takes the SVD of W^T a B, which
    has the singular values and right singular vectors of the residual
    (I - B B^T) a B at (n - k) x k instead of n x k.  Directions with
    singular values above numerics.RANK_REL_TOL * scale leave B for W.
    scale defaults to max(||a||_2, 1).  Returns (B, W): orthonormal bases
    of shapes (n, k) and (n, n - k) that together span R^n; k = 0 means
    every mode is observable.  In the basis [B W], a is block
    upper-triangular.
    """
    if scale is None:
        scale = max(np.linalg.norm(a, 2), 1.0)
    sing, vt = _right_singular(c)
    # the cutoff is relative to max(||c||_2, 1); ||c||_2 is sing[0]
    rank = int(np.count_nonzero(sing > numerics.RANK_REL_TOL * np.max(sing, initial=1.0)))
    comp, basis = vt[:rank].T, vt[rank:].T
    while basis.shape[1] > 0:
        sing, vt = _right_singular(comp.T @ (a @ basis))
        drop = int(np.count_nonzero(sing > numerics.RANK_REL_TOL * scale))
        if drop == 0:
            break
        comp = np.hstack([comp, basis @ vt[:drop].T])
        basis = basis @ vt[drop:].T
    return basis, comp


def _observable_margin(seen: np.ndarray, scale: float) -> float:
    """max Re(seen) + STABILITY_TOL * scale; in IEEE arithmetic it is < 0
    exactly when all(seen.real < -STABILITY_TOL * scale), the stability rule."""
    return float(np.max(seen.real, initial=-math.inf)) + STABILITY_TOL * scale


def output_stability_check(cl: sysmodel.ClosedLoop) -> StabilityReport:
    """Eigenvalue test: stable iff every observable mode decays.

    The unobservable subspace B is invariant, so in the basis [B W] the
    loop matrix E is block upper-triangular: the eigenvalues of B^T E B
    are the unobservable modes and those of W^T E W the observable ones,
    found without eigenvectors.  Stable iff every observable eigenvalue
    has Re lam < -STABILITY_TOL * scale.  Eigenvalues with
    |lam| < STABILITY_TOL * scale are reported as zero modes, marked
    observable by their block.
    """
    e = cl.system_matrix
    scale = max(np.linalg.norm(e, 2), 1.0)
    basis, comp = unobservable_subspace(e, cl.output_selector, scale=scale)
    hidden = np.linalg.eigvals(basis.T @ e @ basis)
    seen = np.linalg.eigvals(comp.T @ e @ comp)
    lam = np.concatenate([hidden, seen])
    order = np.lexsort((-lam.imag, -lam.real))
    lam, observable = lam[order], order >= hidden.size
    zero = np.abs(lam) < STABILITY_TOL * scale
    return StabilityReport(
        eigenvalues=lam,
        zero_modes=tuple(ZeroMode(complex(z), bool(o)) for z, o in zip(lam[zero], observable[zero])),
        output_stable=_observable_margin(seen, scale) < 0.0,
        max_real_part_excluding_zero_modes=float(np.max(lam.real[~zero], initial=-math.inf)),
        scale=scale,
    )


# ---------------------------------------------------------------------------
# sufficient bound on the averaging gain
# ---------------------------------------------------------------------------

class GammaBound(NamedTuple):
    """Largest gamma for which the coefficient conditions provably hold.

    evaluate() gives the coefficient bounds (a1_lower, a2_lower,
    a0a3_upper) at any gamma; the conditions are a1_lower > 0,
    a2_lower > 0 and a0a3_upper < a1_lower * a2_lower.  gamma_bar may be
    inf when the bound never becomes active (it is a sufficient
    condition, typically very conservative).
    """

    gamma_bar: float
    # primitive scalars of the bounds: a1_lower = alpha*g + kappa1, etc.
    alpha: float
    beta: float
    sigma: float
    kappa1: float
    kappa2: float

    def evaluate(self, gamma: float):
        """(a1_lower, a2_lower, a0a3_upper) at the given gamma."""
        return (
            self.alpha * gamma + self.kappa1,
            self.beta * gamma + self.kappa2,
            self.sigma * gamma,
        )


def _laplacians(net: sysmodel.PowerNetwork, ctrl: ctrlmod.ControllerSpec):
    if ctrl.kind != ctrlmod.DIST_PI:
        raise ValueError("the averaging-gain bound applies to the distributed PI controller")
    lap_k = net.coupling_laplacian()
    lap_c = graphmod.laplacian(ctrl.comm)
    return lap_k, lap_c


def _finite_product(a: np.ndarray, b: np.ndarray, name: str, cause: str) -> np.ndarray:
    """a @ b, or OverflowError naming the product when it is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        prod = a @ b
    if not np.isfinite(prod).all():
        raise OverflowError(f"the product {name} overflows; {cause} too large for the "
                            "averaging-gain bound")
    return prod


def gamma_bar(net: sysmodel.PowerNetwork, ctrl: ctrlmod.ControllerSpec) -> GammaBound:
    """Sufficient stability bound for the averaging gain, from coefficient
    conditions on the quadratic forms of the characteristic polynomial.

    Precondition: x^T Lk Lc x >= 0 for all x, checked as
    lambda_min(sym(Lk Lc)) >= -PRECONDITION_REL_TOL * scale; choosing the
    communication Laplacian proportional to the electrical one satisfies
    it.  A bound below the smallest normal float is reported as 0, which
    certifies no gamma: a subnormal one keeps too few significant bits to
    verify.  A positive finite gamma_bar is verified on a 100-point grid
    (with GammaBound.evaluate) before being handed back.  A product Lk Lc,
    (D + Kp) Lc or M^-1 Lc that overflows raises OverflowError.
    """
    lap_k, lap_c = _laplacians(net, ctrl)
    prod = _finite_product(lap_k, lap_c, "Lk Lc of the coupling and communication Laplacians",
                           "the couplings are")
    prod_sym = _sym(prod)
    prod_eigs = np.linalg.eigvalsh(prod_sym)
    prod_scale = max(abs(prod_eigs[0]), abs(prod_eigs[-1]), 1.0)
    if prod_eigs[0] < -PRECONDITION_REL_TOL * prod_scale:
        raise ValueError(
            "x^T Lk Lc x takes negative values (lambda_min = "
            f"{prod_eigs[0]:.3e}); choose the communication weights "
            "proportional to the electrical coupling to satisfy the bound's "
            "precondition"
        )

    d_plus_kp = net.damping + ctrl.kp
    minv = np.diag(net.inertia)  # inverse of M = diag(1/m_i)
    # Rayleigh bounds; both lambda_min terms are <= 0 because the all-ones
    # vector gives a zero quadratic form, so clamp numerical noise.
    dkp_lap = _finite_product(np.diag(d_plus_kp), lap_c, "(D + Kp) Lc",
                              "the damping and proportional gains are")
    minv_lap = _finite_product(minv, lap_c, "M^-1 Lc", "the inertias are")
    alpha = min(float(np.linalg.eigvalsh(_sym(dkp_lap))[0]), 0.0)
    beta = min(float(np.linalg.eigvalsh(_sym(minv_lap))[0]), 0.0)
    sigma = float(np.min(net.inertia)) * max(float(prod_eigs[-1]), 0.0)
    kappa1 = float(np.min(ctrl.ki))
    kappa2 = float(np.min(d_plus_kp))

    candidates = []
    if alpha < 0.0:
        candidates.append(kappa1 / -alpha)
    if beta < 0.0:
        candidates.append(kappa2 / -beta)
    # smallest positive root of (alpha g + kappa1)(beta g + kappa2) - sigma g
    qa = alpha * beta
    qb = alpha * kappa2 + beta * kappa1 - sigma
    qc = kappa1 * kappa2
    if qa > 0.0:
        disc = qb * qb - 4.0 * qa * qc
        disc = max(disc, 0.0)
        q = 0.5 * (-qb + math.sqrt(disc))
        candidates.append(qc / q)
    elif qb < 0.0:
        candidates.append(-qc / qb)

    bar = float(min(candidates)) if candidates else math.inf
    result = GammaBound(
        gamma_bar=bar if bar >= np.finfo(float).tiny else 0.0,
        alpha=alpha,
        beta=beta,
        sigma=sigma,
        kappa1=kappa1,
        kappa2=kappa2,
    )
    if 0.0 < result.gamma_bar < math.inf:
        a1g, a2g, a0a3g = result.evaluate(result.gamma_bar * np.arange(1, 101) / 101.0)
        with np.errstate(over="ignore"):  # a product that overflows to +inf still orders
            a1a2g = a1g * a2g
        if not (np.all(a1g > 0.0) and np.all(a2g > 0.0) and np.all(a0a3g < a1a2g)):
            raise RuntimeError("gamma_bar failed its own grid verification")
    return result


def stability_cubic(net: sysmodel.PowerNetwork, ctrl: ctrlmod.ControllerSpec,
                    gamma: float, x: np.ndarray):
    """Coefficients (a3, a2, a1, a0) of the scalar cubic obtained by pinching
    the characteristic matrix polynomial with a unit vector x.

    a3 = x^T M^-1 x                                  (M^-1 = diag(m_i))
    a2 = x^T ((D + Kp) + gamma M^-1 Lc) x
    a1 = x^T (gamma (D + Kp) Lc + Ki + Lk) x
    a0 = gamma x^T Lk Lc x
    """
    lap_k, lap_c = _laplacians(net, ctrl)
    x = np.asarray(x, dtype=float)
    d_plus_kp = np.diag(net.damping + ctrl.kp)
    minv = np.diag(net.inertia)
    a3 = float(x @ (minv @ x))
    a2 = float(x @ (d_plus_kp @ x) + gamma * x @ (minv @ (lap_c @ x)))
    a1 = float(gamma * x @ (d_plus_kp @ (lap_c @ x)) + x @ (np.diag(ctrl.ki) @ x)
               + x @ (lap_k @ x))
    a0 = float(gamma * x @ (lap_k @ (lap_c @ x)))
    return a3, a2, a1, a0


def gamma_star_search(net: sysmodel.PowerNetwork, ctrl: ctrlmod.ControllerSpec) -> float:
    """Empirical stability threshold in gamma by a doubling bracket plus a secant.

    Comparison tool only: assumes a single stable-to-unstable crossing.
    Probes gamma = start * 2**k from start = gamma_bar (1 unless gamma_bar
    is positive and finite), growing k by 1, 2, 4, ... (k = 1, 3, 7, ...,
    at most _MAX_DOUBLINGS) until the eigenvalue check fails.  An Illinois
    secant on gamma over the check's margin, which is close to affine in
    gamma near a crossing, then narrows that bracket to _SEARCH_REL_TOL
    relative width, stepping to the geometric mean where a step leaves the
    bracket; a probe whose margin is exactly 0 fails and ends the secant.
    When the bracket's passing end lies within _SEARCH_REL_TOL / 2 of the
    failing end, or the secant ended on a margin of 0, a final probe at
    hi * (1 - _SEARCH_REL_TOL / 2) moves the answer out of the band where
    the full check flips with rounding; it is returned if it passes.
    Otherwise returns the largest gamma found to pass (inf if
    start * 2**_MAX_DOUBLINGS passes).
    Probes apply output_stability_check's rule to E(gamma) = E0 - gamma G on
    one split [B W], redone only where ||W^T E(gamma) B||_2 > RANK_REL_TOL *
    scale.  B is usually the uniform-angle vector and one split serves the
    search; when gamma L_c starts below the rank cutoff (net30.grid at
    kp = ki = 1), the first B also holds the integrator directions, stops
    being invariant as gamma grows, and the search splits again.

    Loops that stay stable for every gamma eventually defeat the
    classifier: once gamma dwarfs the machine dynamics, the norm-relative
    eigenvalue tolerances saturate and the reported crossing marks that
    numerical breakdown rather than a real one.  Treat large answers as
    "no threshold below this" instead of as a threshold.
    """
    cl = sysmodel.close_loop(sysmodel.swing_to_lti(net), replace(ctrl, gamma=1.0))
    zs = cl.state_layout["z"]
    g = np.zeros_like(cl.system_matrix)
    g[zs, zs] = -cl.system_matrix[zs, zs]
    e0 = cl.system_matrix + g  # e0 - gamma * g has close_loop's bits at every gamma
    split = []  # W^T E0 W, W^T G W, W^T E0 B, W^T G B

    def _margin(gamma):
        e = e0 - gamma * g
        scale = max(np.linalg.norm(e, 2), 1.0)
        if not split or (np.linalg.norm(split[2] - gamma * split[3], 2)
                         > numerics.RANK_REL_TOL * scale):
            basis, comp = unobservable_subspace(e, cl.output_selector, scale=scale)
            split[:] = [comp.T @ m @ v for v in (comp, basis) for m in (e0, g)]
        return _observable_margin(np.linalg.eigvals(split[0] - gamma * split[1]), scale)

    gb = gamma_bar(net, ctrl).gamma_bar
    start = gb if 0.0 < gb < math.inf else 1.0  # a gamma_bar of 0 would never grow
    f_lo = _margin(start)
    if not f_lo < 0.0:
        raise ValueError(f"closed loop already fails the eigenvalue check at gamma = {start}")
    k_lo, k = 0, 1
    while (f := _margin(math.ldexp(start, k))) < 0.0:  # grow k by 1, 2, 4, ... until one fails
        if k == _MAX_DOUBLINGS:
            return math.inf
        k_lo, f_lo, k = k, f, min(2 * k + 1, _MAX_DOUBLINGS)
    lo, hi, f_hi = math.ldexp(start, k_lo), math.ldexp(start, k), f
    moved = None  # the end that the last step replaced
    while hi - lo > _SEARCH_REL_TOL * hi and f_hi != 0.0:
        gamma = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        if not lo < gamma < hi:  # the secant step left the bracket
            gamma = math.sqrt(lo) * math.sqrt(hi)
        f = _margin(gamma)
        if f < 0.0:  # Illinois: an end kept twice in a row has its margin halved
            f_hi *= 0.5 if moved == "lo" else 1.0
            lo, f_lo, moved = gamma, f, "lo"
        else:
            f_lo *= 0.5 if moved == "hi" else 1.0
            hi, f_hi, moved = gamma, f, "hi"
    # step back from the crossing, next to which the full check flips with rounding
    gamma = hi * (1.0 - 0.5 * _SEARCH_REL_TOL)
    if (f_hi == 0.0 or lo > gamma) and _margin(gamma) < 0.0:
        return gamma
    return lo


# ---------------------------------------------------------------------------
# steady state
# ---------------------------------------------------------------------------

class SteadyStatePrediction(NamedTuple):
    omega_hat: float          # settled frequency, rad/s
    u_stationary: np.ndarray  # control effort per bus, W


def _bordered_solve(lap: np.ndarray, border: np.ndarray, rhs: np.ndarray):
    """Solve [[lap, border], [1^T, 0]] [x; k] = [rhs; 0] for (x, k).

    The last row pins the zero mode of the Laplacian by sum(x) = 0; the
    multiplier k absorbs the component of rhs along the border column.
    """
    n = lap.shape[0]
    aug = np.zeros((n + 1, n + 1))
    aug[:n, :n] = lap
    aug[:n, n] = border
    aug[n, :n] = 1.0
    sol = np.linalg.solve(aug, np.append(rhs, 0.0))
    return sol[:n], float(sol[n])


def predict_steady_state(net: sysmodel.PowerNetwork, ctrl: ctrlmod.ControllerSpec,
                         eta=None) -> SteadyStatePrediction:
    """Stationary point of the distributed-PI loop.

    Frequency settles at omega_hat = omega_ref - mean(eta) regardless of
    loads.  The control effort comes from the force-balance system
    [Lk, -Ki 1][delta; k] = p - D omega_ref 1 (plus eta corrections), whose
    consensus component k makes u = k * Ki at eta = 0: effort shared in
    proportion to the integral gains.
    """
    if ctrl.kind != ctrlmod.DIST_PI:
        raise ValueError("steady-state prediction applies to the distributed PI controller")
    if ctrl.gamma is None:
        raise ValueError("prediction needs gamma (the integrator filtering enters at eta != 0)")
    n = net.n_buses
    eta = np.zeros(n) if eta is None else np.asarray(eta, dtype=float)
    if eta.shape != (n,):
        raise ValueError(f"eta shape {eta.shape}, expected ({n},)")
    lap_k, lap_c = _laplacians(net, ctrl)

    eta_mean = float(np.mean(eta))
    omega_dev = -eta_mean * np.ones(n)          # omega - omega_ref at stationarity
    # integrator stationarity: gamma Lc z = -omega_dev - eta
    z_structure, _ = _bordered_solve(lap_c, np.ones(n), (-omega_dev - eta) / ctrl.gamma)
    rhs = (net.power - net.damping * net.omega_ref
           - (net.damping + ctrl.kp) * omega_dev - ctrl.kp * eta
           + ctrl.ki * z_structure)
    _, consensus = _bordered_solve(lap_k, -ctrl.ki, rhs)
    u = ctrl.kp * (-omega_dev - eta) + ctrl.ki * (z_structure + consensus)
    return SteadyStatePrediction(omega_hat=net.omega_ref - eta_mean, u_stationary=u)


def stationary_state(net: sysmodel.PowerNetwork, ctrl: ctrlmod.ControllerSpec) -> np.ndarray:
    """Deviation-coordinate stationary state for a disturbance-free loop.

    Used as the scenario initial condition: angles from the pinned force
    balance [Lk, border][delta; k] = p - D omega_ref 1.  For PI kinds the
    border is -Ki and the multiplier k is the integrators' consensus, with
    omega at the reference.  For the plain P controller the border is
    D + Kp and k is the uniform frequency offset the droop settles at;
    since that offset is nonzero in general, the returned point is
    stationary only up to the ever-growing uniform angle ramp along the
    marginal direction (frequencies, flows, and inputs are constant).
    """
    n = net.n_buses
    border = -ctrl.ki if ctrl.has_integrator else net.damping + ctrl.kp
    delta, k = _bordered_solve(net.coupling_laplacian(), border,
                               net.power - net.damping * net.omega_ref)
    # PI: omega at the reference and the integrators at k; P: omega at k
    blocks = [delta, np.zeros(n)] if ctrl.has_integrator else [delta]
    return np.concatenate(blocks + [k * np.ones(n)])
