"""Feasibility, stability, and steady-state analysis of the closed loops.

Three independent tools:

* a rank test on the plant's [[A, B], [C, 0]], in any units and at any
  positive integral gains, that decides whether integral action with
  diagonal gains can place an equilibrium at all (for the swing model it
  is always rank deficient by exactly the number of buses, so per-bus
  integrators alone cannot work);

* an eigenvalue check of the closed loop that tolerates marginal modes as
  long as they are unobservable from the output (the uniform-angle mode is
  structural and harmless);

* a sufficient upper bound gamma_bar on the averaging gain, from
  Routh-Hurwitz conditions applied to the quadratic forms of the
  closed-loop characteristic matrix polynomial, plus the stationary point
  of the loop in the paper's closed form, the same in any units (frequency
  at omega_ref less the mean offset; effort shared in proportion to Ki).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import control as ctrlmod
from . import graph as graphmod
from . import sysmodel

# Relative singular-value cutoff for rank decisions.
RANK_REL_TOL = 1.0e-10
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
    dim: int          # size of the square test matrix (plant states + outputs)
    rank: int

    @property
    def deficiency(self):
        return self.dim - self.rank

    @property
    def full_rank(self):
        return self.rank == self.dim


def xi_rank_test(a, b, c) -> XiRankResult:
    """Solvability test for equilibria under integral feedback.

    Builds [[A, B], [C, 0]] from the plant x' = A x + B u, y = C x (A n x n,
    B n x m, C m x n with n + m > 0; for the swing model,
    PowerNetwork.plant) and reports its numerical rank: the number of
    singular values above RANK_REL_TOL times the largest once each row and
    then each column, twice over, is scaled by the power of two that brings
    its largest magnitude into [1/2, 1).  Such scalings are exact unless an
    entry underflows and keep the rank, so the answer does not depend on the
    units.  The paper's [[A, B K_i], [C, 0]] is this matrix times the
    invertible diag(I, K_i), so every positive K_i gives the same rank
    (Davison's servo condition).  Full rank is necessary for any stabilizing
    diagonal-integral design; a deficiency means no gains can create the
    required equilibrium for generic references and disturbances.
    """
    a, b, c = (np.array(m, dtype=float, ndmin=2) for m in (a, b, c))
    n, m = a.shape[0], c.shape[0]
    if a.shape != (n, n) or b.shape != (n, m) or c.shape != (m, n):
        raise ValueError(f"a, b and c must be n x n, n x m and m x n, got {a.shape}, "
                         f"{b.shape} and {c.shape}")
    if n + m == 0:
        raise ValueError("a plant with no state and no output has no test matrix")
    xi = np.block([[a, b], [c, np.zeros((m, m))]])
    # ldexp, not 2.0**k, which overflows for the exponent of a subnormal entry
    for _ in range(2):
        xi = np.ldexp(xi, -np.frexp(np.max(np.abs(xi), axis=1))[1][:, None])
        xi = np.ldexp(xi, -np.frexp(np.max(np.abs(xi), axis=0))[1])
    sigma = np.linalg.svd(xi, compute_uv=False)
    return XiRankResult(dim=n + m, rank=int(np.count_nonzero(sigma > RANK_REL_TOL * sigma[0])))


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

    @property
    def decaying(self):
        """The eigenvalues with Re lam < -STABILITY_TOL * scale, hidden modes included."""
        return self.eigenvalues[self.eigenvalues.real < -STABILITY_TOL * self.scale]


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
    singular values above RANK_REL_TOL * scale leave B for W.
    scale defaults to max(||a||_2, 1).  Returns (B, W): orthonormal bases
    of shapes (n, k) and (n, n - k) that together span R^n; k = 0 means
    every mode is observable.  In the basis [B W], a is block
    upper-triangular.
    """
    if scale is None:
        scale = max(np.linalg.norm(a, 2), 1.0)
    sing, vt = _right_singular(c)
    # the cutoff is relative to max(||c||_2, 1); ||c||_2 is sing[0]
    rank = int(np.count_nonzero(sing > RANK_REL_TOL * np.max(sing, initial=1.0)))
    comp, basis = vt[:rank].T, vt[rank:].T
    while basis.shape[1] > 0:
        sing, vt = _right_singular(comp.T @ (a @ basis))
        drop = int(np.count_nonzero(sing > RANK_REL_TOL * scale))
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


def _finite_product(a, b, name: str, cause: str, setting: str = "network") -> np.ndarray:
    """a @ b, a vector a as diag(a); setting's SettingError naming the product unless finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        prod = a[:, None] * b if a.ndim == 1 else a @ b
    if not np.isfinite(prod).all():
        raise graphmod.SettingError(setting, None, f"the product {name} overflows; {cause} too "
                                    "large for the averaging-gain bound")
    return prod


def gamma_bar(net: sysmodel.PowerNetwork, ctrl: ctrlmod.ControllerSpec) -> GammaBound:
    """Sufficient stability bound for the averaging gain, from coefficient
    conditions on the quadratic forms of the characteristic polynomial.

    Precondition: x^T Lk Lc x >= 0 for all x, checked as
    lambda_min(sym(Lk Lc)) >= -PRECONDITION_REL_TOL * scale; choosing the
    communication Laplacian proportional to the electrical one satisfies
    it.  A bound below the smallest normal float is reported as 0, which
    certifies no gamma: a subnormal one keeps too few significant bits to
    check.  A product (D + Kp) Lc, Lk Lc or M Lc that overflows, checked in that
    order, is the network's graph.SettingError (kp's when D Lc alone is finite).
    """
    if ctrl.kind != ctrlmod.DIST_PI:
        raise ValueError("the averaging-gain bound applies to the distributed PI controller")
    lap_k, lap_c = net.coupling.laplacian, ctrl.comm.laplacian
    d_plus_kp = net.damping + ctrl.kp
    with np.errstate(over="ignore"):
        gains = "kp" if np.isfinite(net.damping[:, None] * lap_c).all() else "network"
    dkp_lap = _finite_product(d_plus_kp, lap_c, "(D + Kp) Lc",
                              "the damping and proportional gains are", gains)
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

    # Rayleigh bounds, with M = diag(inertia); both lambda_min terms are <= 0
    # because the all-ones vector gives a zero quadratic form, so clamp
    # numerical noise.
    m_lap = _finite_product(net.inertia, lap_c, "M Lc", "the inertias are")
    alpha = min(float(np.linalg.eigvalsh(_sym(dkp_lap))[0]), 0.0)
    beta = min(float(np.linalg.eigvalsh(_sym(m_lap))[0]), 0.0)
    # a0 a3 = gamma (x^T Lk Lc x)(x^T M x) for unit x, so sigma takes the largest inertia
    sigma = float(np.max(net.inertia)) * max(float(prod_eigs[-1]), 0.0)
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
    return GammaBound(bar if bar >= np.finfo(float).tiny else 0.0, alpha, beta, sigma, kappa1, kappa2)


def gamma_star_search(net: sysmodel.PowerNetwork, ctrl: ctrlmod.ControllerSpec) -> float:
    """Empirical stability threshold in gamma: a bisected doubling ladder, then a secant.

    Comparison tool only: assumes a single stable-to-unstable crossing, so
    the eigenvalue check passes on the ladder gamma = start * 2**k, k = 0,
    1, 3, 7, ..., _MAX_DOUBLINGS, up to one rung and fails above it.
    start = gamma_bar (1 unless gamma_bar is positive and finite); a rung
    whose gamma or gamma L_c is not finite is left off.  start is probed
    first, and the network's graph.SettingError is raised if it fails.  A
    bisection then finds the first rung above start that fails (15, 63, 31
    for a crossing between 15 and 63), the bracket that climbing the ladder
    would find.
    A loop that is unstable only on a window between two probes breaks the
    assumption unseen and gets a threshold above that window.  An Illinois
    secant on gamma over the check's margin, which is close to affine in
    gamma near a crossing, then narrows that bracket to
    _SEARCH_REL_TOL relative width, stepping to the geometric mean where a
    step leaves the bracket; a probe whose margin is exactly 0 fails and
    ends the secant.  When the bracket's passing end lies within
    _SEARCH_REL_TOL / 2 of the failing end, or the secant ended on a
    margin of 0, a final probe at hi * (1 - _SEARCH_REL_TOL / 2) moves the
    answer out of the band where the full check flips with rounding; it is
    returned if it passes.  Otherwise returns the largest gamma found to
    pass (inf if the ladder's top rung passes).
    Probes apply output_stability_check's rule to E(gamma) = E0 - gamma G,
    the loop matrix of the paper's z' = -y - gamma L_c z: E0 is the
    decentralized loop, close_loop with DEC_PI at the same gains, and G is
    L_c on the integrator block, so E(gamma) has close_loop's entries at
    every gamma, up to the sign of a zero.  They use one split [B W],
    formed at the probe of start and redone only where
    ||W^T E(gamma) B||_2 > RANK_REL_TOL * scale.  B is usually the
    uniform-angle vector and one split serves the search; when gamma L_c
    starts below the rank cutoff (net30.grid at kp = ki = 1), the first B
    also holds the integrator directions, stops being invariant as gamma
    grows, and the search splits again.

    Loops that stay stable for every gamma eventually defeat the
    classifier: once gamma dwarfs the machine dynamics, the norm-relative
    eigenvalue tolerances saturate and the reported crossing marks that
    numerical breakdown rather than a real one.  Treat large answers as
    "no threshold below this" instead of as a threshold.
    """
    gb = gamma_bar(net, ctrl).gamma_bar  # refuses a controller that is not DIST_PI
    cl = sysmodel.close_loop(net, ctrlmod.ControllerSpec(ctrlmod.DEC_PI, ctrl.kp, ctrl.ki))
    e0, zs = cl.system_matrix, cl.state_layout["z"]
    g = np.zeros_like(e0)
    g[zs, zs] = ctrl.comm.laplacian
    split = []  # W^T E0 W, W^T G W, W^T E0 B, W^T G B

    def _margin(gamma):
        """The probe rule at E(gamma), after splitting again unless the split is still invariant."""
        e = e0 - gamma * g
        # a Python float, and so is the margin: a secant product that overflows is inf, unwarned
        scale = max(float(np.linalg.norm(e, 2)), 1.0)
        if not split or (np.linalg.norm(split[2] - gamma * split[3], 2)
                         > RANK_REL_TOL * scale):
            basis, comp = unobservable_subspace(e, cl.output_selector, scale=scale)
            split[:] = [comp.T @ m @ v for v in (comp, basis) for m in (e0, g)]
        return _observable_margin(np.linalg.eigvals(split[0] - gamma * split[1]), scale)

    start = gb if 0.0 < gb < math.inf else 1.0  # a gamma_bar of 0 would never grow
    # the rungs start * 2**k, k = 0, 1, 3, 7, ..., whose gamma and gamma L_c are finite
    ladder, k, g_max = [start], 1, float(np.max(np.abs(g)))
    while math.isfinite(gamma := start * 2.0 ** k) and math.isfinite(gamma * g_max):
        ladder.append(gamma)
        if k == _MAX_DOUBLINGS:
            break
        k = min(2 * k + 1, _MAX_DOUBLINGS)
    if not (f_lo := _margin(start)) < 0.0:
        raise graphmod.SettingError("network", None, "closed loop already fails the eigenvalue "
                                    f"check at gamma = {start:.9g}")
    i_lo, i_hi = 0, len(ladder)  # ladder[i_lo] passes, ladder[i_hi] fails
    while i_hi - i_lo > 1:
        mid = (i_lo + i_hi) // 2
        if (f := _margin(ladder[mid])) < 0.0:
            i_lo, f_lo = mid, f
        else:
            i_hi, f_hi = mid, f
    if i_hi == len(ladder):
        return math.inf
    lo, hi = ladder[i_lo], ladder[i_hi]
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


def _zero_mean_solve(lap: np.ndarray, rhs: np.ndarray, setting: str) -> np.ndarray:
    """The zero-mean x with lap x = rhs (sum(rhs) = 0, lap a connected graph's Laplacian),
    grounding the node of largest weighted degree; setting's SettingError unless float64 can."""
    keep = np.arange(lap.shape[0]) != np.argmax(np.diag(lap))
    x = np.zeros(lap.shape[0])
    try:
        x[keep] = np.linalg.solve(lap[np.ix_(keep, keep)], rhs[keep])
        if not np.isfinite(x).all():
            raise np.linalg.LinAlgError("the solution is not finite")
    except np.linalg.LinAlgError as exc:
        raise graphmod.SettingError(setting, None, "float64 cannot resolve the stationary point "
                                    f"({exc})") from exc
    return x - np.mean(x)


def stationary_state(net: sysmodel.PowerNetwork, ctrl: ctrlmod.ControllerSpec,
                     eta=None, power=None) -> np.ndarray:
    """Deviation-coordinate stationary state of close_loop(net, ctrl, eta,
    power): the loop under the net injections power (net.power by default).

    The force balance Lk delta + border k = p - D omega_ref (plus the eta
    terms below) sums to sum(border) k = sum(p - D omega_ref): k is that
    ratio, of sums scaled by powers of two, and the angles the zero-mean
    rest, all exact under power-of-two units.  For PI kinds the border is
    -Ki and k the integrators' consensus, with omega at the reference, so
    the inputs Ki k are shared in proportion to the integral gains.  Under
    P the border is D + Kp and k the frequency offset the droop settles at,
    stationary up to the uniform angle ramp along the marginal direction.

    With the measurement offsets eta (distributed PI with gamma only),
    omega settles at -mean(eta) whatever the loads (so the angles ramp as
    under P), and the integrators spread around k by the zero-mean z of
    gamma Lc z = mean(eta) - eta.  The loop's control law at this point
    gives the stationary inputs.  A graph.SettingError refuses a k that is not
    finite as ki's (kp's under P), a spread that float64 cannot resolve as
    gamma's (it scales as 1/gamma) and angles that it cannot as the network's.
    """
    n = net.n_buses
    rhs = sysmodel._per_bus(n, power, "power", net.power) - net.damping * net.omega_ref
    omega = spread = np.zeros(n)
    if eta is not None:
        if ctrl.kind != ctrlmod.DIST_PI or ctrl.gamma is None:
            raise ValueError("the stationary point under eta needs the distributed PI "
                             "controller with gamma set")
        eta = sysmodel._per_bus(n, eta, "eta", None)
    border, gains, k_name = ((-ctrl.ki, "ki", "consensus -sum(p - D omega_ref) / sum(Ki)")
                             if ctrl.has_integrator else (net.damping + ctrl.kp, "kp",
                             "frequency offset sum(p - D omega_ref) / sum(D + Kp)"))
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, unwarned
        if eta is not None:
            omega = np.full(n, -float(np.mean(eta)))
            spread = _zero_mean_solve(ctrl.comm.laplacian, (-omega - eta) / ctrl.gamma, "gamma")
            rhs = rhs - (net.damping + ctrl.kp) * omega - ctrl.kp * eta + ctrl.ki * spread
        er, eb = (np.frexp(np.max(np.abs(v)))[1] for v in (rhs, border))
        k = np.ldexp(np.sum(np.ldexp(rhs, -er)) / np.sum(np.ldexp(border, -eb)), er - eb)
        if not np.isfinite(spread + k).all():
            raise graphmod.SettingError(gains, None, f"the stationary point's {k_name} is not finite")
        delta = _zero_mean_solve(net.coupling.laplacian, rhs - border * k, "network")
    # PI: omega at the reference less mean(eta), the integrators spread around k; P: omega at k
    tail = [omega, spread + k] if ctrl.has_integrator else [np.full(n, k)]
    return np.concatenate([delta, *tail])
