"""Numerical audits of the identities and bounds behind the synthesis.

Each check recomputes a claimed identity or matrix inequality from scratch
and reports a CheckResult instead of asserting, so the command line can
collect verdicts across checks. Margins follow one convention per check
kind: identity checks report the worst absolute residual (small is good),
bound checks report the smallest slack eigenvalue (nonnegative is good).
check_epsilon_interval certifies the design's epsilon: the exact interval
of 1/epsilon on which every design condition holds. verify runs it,
check_loop_energy_bound and check_dissipation.

The inversion identity and the cross-term bound hold unconditionally
under their stated preconditions, and where those fail the design window
is broken, which epsilon_interval reports; verify does not run them. Each
is one check on one (n, n) instance, behind the input contract
(_conform). The bound checks share one verdict rule (_bound_result): a
slack that is not finite fails with margin -inf. The random campaigns,
identity_campaign and cross_term_campaign, stress the two lemmas on
matrices that do not depend on any design, so they measure round-off only
(acceptance criterion 08). They draw each sample from its own generator
and audit it with the public check, in sample order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import FeasibilityError
from .linalg import _symmetric_part, definite, inverse, smallest_eigenvalues, spectral_norm
from .simulation import _integer
from .synthesis import (
    COND_DECAY_PSD,
    COND_EPS_WINDOW,
    COND_PERIODIC_DECAY,
    COND_UNC_SCALED,
    COND_UNC_WEIGHTED,
    COND_WEIGHT_PD,
    SEARCH_OCTAVES,
    SynthesisParams,
    _channel_weights,
    _conform,
    _control_weight,
    _error_gain,
    _hold_interval,
    _kept,
    _maximize,
    _read_only,
    _require_definite,
    _require_epsilon,
    _require_finite,
    _require_sigma,
    _s_inv,
    _window_weights,
)

CHECK_TOL = 1e-8


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one audit.

    margin is a residual for identity-style checks and a smallest slack
    eigenvalue for bound-style checks; the docstring of each check says
    which. witness carries check-specific context for the worst case found.
    """

    name: str
    holds: bool
    margin: float
    witness: dict = field(default_factory=dict)
    note: str = ""


def _bound_result(name: str, slack, dominating) -> CheckResult:
    """The verdict of a bound check from its symmetric slack and dominating side.

    Margin is the smallest slack eigenvalue, and the check holds when it
    stays above minus CHECK_TOL relative to the magnitude of the dominating
    side. A slack that is not finite (the products overflowed) has margin
    NaN (smallest_eigenvalues) and fails, with margin -inf and tolerance
    inf; a finite slack implies a finite dominating side.
    """
    note = "margin is the smallest slack eigenvalue"
    margin = float(smallest_eigenvalues(slack))
    if np.isnan(margin):
        return CheckResult(name, False, -np.inf, {"tolerance": np.inf}, note)
    tol = CHECK_TOL * max(1.0, spectral_norm(dominating))
    return CheckResult(name, margin >= -tol, margin, {"tolerance": tol}, note)


def check_inversion_identity(P, epsilon: float) -> CheckResult:
    """Audit (P^-1 - eps I)^-1 = P + P ((1/eps) I - P)^-1 P.

    Requires P symmetric positive definite (ValueError), epsilon positive
    and both window matrices finite (NumericalError) and invertible
    (SingularMatrixError), the inner gap I - eps P first; the margin is the
    worst entrywise residual between the two sides, and the check holds
    when it stays below CHECK_TOL relative to the magnitude of P.
    """
    (P,) = _conform(P=P)
    epsilon = _require_epsilon(epsilon)
    _require_definite(P, "P", strict=True)
    eye = np.eye(len(P))
    # A window gap that overflows raises NumericalError, so numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        inner_gap = _require_finite(eye - epsilon * P, "inner window gap")
        lhs = P @ inverse(inner_gap, "inner window gap")
        design_gap = _require_finite((1.0 / epsilon) * eye - P, "design window gap")
        rhs = P + P @ inverse(design_gap, "design window gap") @ P
        residual = float(np.max(np.abs(lhs - rhs)))
    tol = CHECK_TOL * max(1.0, spectral_norm(P))
    return CheckResult(
        name="inversion_identity",
        holds=residual <= tol,
        margin=residual,
        witness={"tolerance": tol},
        note="margin is the worst entrywise residual",
    )


def check_cross_term_bound(P, epsilon: float, A_closed, dA) -> CheckResult:
    """Audit the completion-of-squares bound on the uncertainty cross terms.

    Inside the design window ((1/eps) I - P positive definite) the mixed
    terms Ac' P dA + dA' P Ac + dA' P dA are dominated by
    Ac' P ((1/eps) I - P)^-1 P Ac + (1/eps) dA' dA. Raises FeasibilityError
    when the window precondition fails; the bound is not claimed there.
    A design window gap that overflows raises NumericalError. Margin is
    the smallest slack eigenvalue, or -inf with tolerance inf when the
    slack overflowed, and then the check fails.
    """
    P, A_closed, dA = _conform(P=P, A_closed=A_closed, dA=dA)
    epsilon = _require_epsilon(epsilon)
    # A P near the float maximum can overflow the gap (NumericalError) and
    # the products the slack (the check fails), so numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        gap = _require_finite((1.0 / epsilon) * np.eye(len(P)) - P, "design window gap")
        if not definite(smallest_eigenvalues(gap), gap):
            raise FeasibilityError(
                "design window violated: (1/epsilon) I - P is not positive definite, "
                "the cross-term bound is not claimed here",
                condition=COND_EPS_WINDOW,
            )
        cross = A_closed.T @ P @ dA + dA.T @ P @ A_closed + dA.T @ P @ dA
        dominating = (
            A_closed.T @ P @ inverse(gap, "design window gap") @ P @ A_closed
            + (1.0 / epsilon) * (dA.T @ dA)
        )
        return _bound_result("cross_term_bound", _symmetric_part(dominating - cross), dominating)


def check_loop_energy_bound(A, B, P, params: SynthesisParams, K, L) -> CheckResult:
    """Audit the weighted closed-loop energy bound used by the trigger proof.

    With Z the trigger error weight and S the modified Riccati inverse term,
    the audited inequality is
    Ac' Z Ac - A' S^-1 A <= Ac' (P^-1 - eps I)^-1 Ac - K' R1 K - L' R2 L
    where Ac = A + B K. Evaluated wherever both window matrices are
    invertible; margin is the smallest slack eigenvalue, or -inf with
    tolerance inf when the slack overflowed, and then the check fails.
    """
    A, B, P, K, L = _conform(params=params, A=A, B=B, P=P, K=K, L=L)
    # An overflow raises NumericalError (a window gap) or fails the check
    # (the slack), so numpy need not warn of it.
    with np.errstate(over="ignore", invalid="ignore"):
        W, _ = _channel_weights(B, params, params.alpha)
        S_inv = _s_inv(P, W)
        Z, inner = _window_weights(P, params.epsilon)
        A_fb = A + B @ K
        lhs = A_fb.T @ Z @ A_fb - A.T @ S_inv @ A
        rhs = A_fb.T @ inner @ A_fb - K.T @ params.R1 @ K - L.T @ params.R2 @ L
        return _bound_result("loop_energy_bound", _symmetric_part(rhs - lhs), rhs)


_DISSIPATION_BOUNDS = ("raw", "rate", "sandwich")


def _gate_slacks(F, Z, dA):
    """The uncertainty gate slacks F - dA' Z dA of a (k, n, n) stack dA."""
    return F - np.swapaxes(dA, 1, 2) @ Z @ dA


class _DesignTerms:
    """What check_dissipation takes from the design alone, formed once per design.

    The conformed Q1, Z and F, the symmetric error gain K' B' Z B K (all
    read-only copies the package owns), P's extreme eigenvalues, q_min =
    lambda_min(Q1), the derived threshold mu_derived (None when it does
    not exist), the gate tolerance and the vertex gate certificate
    (certified, from the model's vertex_stack). Within tol / 2 of the gate,
    ||dA' Z dA|| <= ||F|| + tol in the box, and no step's rounding (about
    1e-15 ||F||) can cross the other tol / 2, so a certified gate skips no
    step in the box. A vertex slack that is not finite gets margin NaN
    (smallest_eigenvalues), which certifies nothing. The terms keep no
    reference to their model, which keeps them (synthesis._kept), so they
    go away with it.
    """

    __slots__ = (
        "Q1", "Z", "F", "error_gain", "p_extremes", "q_min", "mu_derived", "gate_tol", "certified"
    )

    def __init__(self, model, sigma, B, K, P, Q1, Z, F):
        self.Q1, self.Z, self.F = _read_only(Q1), _read_only(Z), _read_only(F)
        self.error_gain = _read_only(_symmetric_part(_error_gain(K, B, Z)))
        # One kernel call over Q1, Z and the vertex gate slacks and one over
        # error_gain and F: every slice is computed as on its own. An error
        # gain that overflowed gets norm 0, so no rate bound applies.
        eigs, gate = np.linalg.eigvalsh(P), _gate_slacks(F, Z, model.vertex_stack)
        margins = smallest_eigenvalues(np.concatenate([Q1[None], Z[None], gate]))
        denom, F_norm = spectral_norm(np.array([self.error_gain, F])).tolist()
        self.p_extremes, self.q_min = (eigs[0], eigs[-1]), float(margins[0])
        self.mu_derived = (
            sigma * self.q_min / denom if (self.q_min > 0.0 and denom > 0.0) else None
        )
        self.gate_tol = CHECK_TOL * max(1.0, F_norm)
        self.certified = bool(margins[1] >= 0.0 and margins[2:].min() >= -0.5 * self.gate_tol)


# A slack that overflows fails the audit, so numpy need not warn.
@np.errstate(over="ignore", invalid="ignore")
def check_dissipation(trace, P, Q1, K, B, Z, sigma: float, model, F) -> CheckResult:
    """Audit the per-step Lyapunov decrease along a recorded trace.

    At every step k the raw bound
    V(k+1) - V(k) <= -x' Q1 x + e' (K' B' Z B K) e
    is checked, with e the post-decision holding error. Steps whose
    monitored error also satisfies the derived relative threshold get the
    stronger rate bound V(k+1) - V(k) <= -(1 - sigma) lambda_min(Q1) ||x||^2
    as well, and the quadratic sandwich
    lambda_min(P) ||x||^2 <= V <= lambda_max(P) ||x||^2 is confirmed at
    every recorded row, the terminal row n included. The uncertainty gate
    skips the steps whose sampled perturbation violates the weighted
    uncertainty bound dA' Z dA <= F: the theory promises no decrease there,
    so their raw and rate bounds are not audited. The sandwich involves
    only P and the trace and is audited at every row, skipped or not.
    Margin is the worst slack across all audited inequalities.

    The gate is certified at the 2^d vertices of the box: when every
    step's parameters lie in the box, Z is positive semidefinite and no
    vertex's gate slack F - dA' Z dA falls below half the gate tolerance,
    the slack is matrix-concave in p and no step can be skipped, so none
    is formed. Otherwise each step's gate matrix is formed and tested. The
    vertex certificate is a design term, formed with the others from the
    model's vertex_stack whatever the trace. A gate slack that is not
    finite (dA' Z dA overflowed) stays out of eigvalsh: at a vertex it
    certifies nothing, and a step with one is not gated, since nothing
    shows that it breaks the bound.

    The design terms (the conformed arrays, the error gain, the spectra of
    P and Q1, the norms of the error gain and F, and the vertex
    certificate) are kept on the model (synthesis._kept): it keeps those of
    the last design audited on it, keyed on sigma and the bytes of B, K, P,
    Q1, Z and F, and repeated audits of that design reuse them. They go
    away with the model, and concurrent audits are safe without a lock.
    numpy computes a stacked eigvalsh or svd slice by slice, so an audit
    that reuses them has the bits of one that forms them.

    The slacks of the whole trace are formed at once into one
    (n + 1, 3) array, one row per trace row in the bound order above. The
    audit stops at the first violating row, and counts (of steps) and
    margin cover the rows up to it; the witness is the first worst slack in
    (row, bound) order, with dV unless it is the terminal row. A slack that
    is not finite (a NaN or infinite trace row) violates its row and counts
    as -inf. The arrays follow the input contract, trace.states has one
    column per state and trace.p one per model parameter; sigma must lie
    strictly between 0 and 1.
    """
    sigma = _require_sigma(sigma)
    terms = _kept(
        model,
        "_dissipation_terms",
        lambda: _DesignTerms(model, sigma, *_conform(model, B=B, K=K, P=P, Q1=Q1, Z=Z, F=F)),
        (B, K, P, Q1, Z, F),
        (sigma,),
    )
    Q1, q_min, mu_derived = terms.Q1, terms.q_min, terms.mu_derived
    n = trace.n_steps
    if trace.states.shape[1:] != Q1.shape[1:]:
        raise ValueError(
            f"trace.states has shape {trace.states.shape}, expected {(n + 1, len(Q1))}"
        )
    p = trace.p[:n]
    if p.shape != (n, model.dimension):
        raise ValueError(f"trace.p has shape {trace.p.shape}, expected {(n + 1, model.dimension)}")
    # Only a trace inside the box can be certified at the box's vertices (a
    # NaN row is outside). Row n, the terminal row, takes no step: the gate
    # never skips it.
    gated = np.zeros(n + 1, dtype=bool)
    if not (terms.certified and (p >= model.p_lo).all() and (p <= model.p_hi).all()):
        # A step whose slack is not finite has margin NaN: nothing shows
        # that it breaks the bound, so it is not gated.
        margins = smallest_eigenvalues(_gate_slacks(terms.F, terms.Z, model.matrix_at(p)))
        gated[:n] = margins < -terms.gate_tol

    x, e, V = trace.states, trace.errors[:n], trace.V
    x_sq = np.einsum("ki,ki->k", x, x)
    dV = V[1:] - V[:-1]
    tol = CHECK_TOL * (1.0 + np.abs(V))
    # One row per trace row, in the bound order raw, rate, sandwich; the
    # terminal row takes no step and has the sandwich alone.
    slack = np.empty((n + 1, 3))
    np.subtract(
        -np.einsum("ki,ki->k", x[:n] @ Q1, x[:n]) + np.einsum("ki,ki->k", e @ terms.error_gain, e),
        dV,
        out=slack[:n, 0],
    )
    np.subtract(-(1.0 - sigma) * q_min * x_sq[:n], dV, out=slack[:n, 1])
    p_min, p_max = terms.p_extremes
    np.minimum(V - p_min * x_sq, p_max * x_sq - V, out=slack[:, 2])
    applies = np.ones((n + 1, 3), dtype=bool)
    applies[n, :2] = False
    if mu_derived is None:
        applies[:n, 1] = False
    else:
        e_sq = np.einsum("ki,ki->k", e, e)
        applies[:n, 1] = e_sq <= mu_derived * x_sq[:n] + tol[:n]
    applies[gated, :2] = False
    not_finite = applies & ~np.isfinite(slack)
    slack[~applies] = np.inf
    slack[not_finite] = -np.inf
    violated = (not_finite | (slack < -tol[:, None])).any(axis=1)

    failed = bool(violated.any())
    stop = int(np.argmax(violated)) if failed else n
    skipped = int(np.count_nonzero(gated[: stop + 1]))
    audited = min(stop + 1, n) - skipped
    step, bound = divmod(int(np.argmin(slack[: stop + 1])), 3)
    witness = {"step": step, "bound": _DISSIPATION_BOUNDS[bound]}
    if step < n:
        witness["dV"] = float(dV[step])
    if failed:
        note = f"violated at step {stop} ({audited} steps audited, {skipped} skipped)"
    elif audited == 0:
        note = f"no eligible steps ({skipped} skipped by the uncertainty gate)"
    else:
        note = f"{audited} steps audited, {skipped} skipped"
    return CheckResult("dissipation", not failed, float(slack[step, bound]), witness, note)


def _lambda_min_weighted(C, M, w) -> np.ndarray:
    """lambda_min(C - M' diag(w_k) M) for each row w_k of the (k, n) weights.

    M is a (v, n, n) stack; the minimum runs over it as well, so a stack of
    box vertices gives the worst vertex at every weight. A weighted matrix
    that is not finite gives NaN (smallest_eigenvalues).
    """
    weighted = (np.swapaxes(M, 1, 2)[None] * w[:, None, None, :]) @ M
    return smallest_eigenvalues(C - weighted).min(axis=1)


# A margin that overflows fails its condition, so numpy need not warn.
@np.errstate(over="ignore", invalid="ignore")
def check_epsilon_interval(A, B, model, params: SynthesisParams, P, K, L) -> CheckResult:
    """Certify the interval of 1/epsilon on which every design condition holds.

    P, K and L do not depend on epsilon, so every mismatched condition of
    the feasibility report is a function of s = 1/epsilon alone. In P's
    eigenbasis, P = V diag(lam) V', the error weight is
    Z(s) = V diag(s + lam^2 / (s - lam)) V' and the inner window matrix
    s P (s I - P)^-1 = V diag(s lam / (s - lam)) V'. Both are
    matrix-convex in s on the window s > lambda_max(P), so the margins of
    the scaled bound (for every s > 0), the periodic decay, the weighted
    bound and the decay matrix (inside the window) are concave in s, and
    each condition holds on one interval. Its ends are found by stacked
    k-section to END_RTOL; their intersection with the window is the set of
    admissible 1/epsilon. The error weight Z(s) is positive definite on the
    whole window.

    The check holds when the configured 1/epsilon lies in the intersection;
    margin is its distance to the nearer end (-inf when the intersection is
    empty). The witness gives the ends (None when unbounded or empty), the
    conditions that set them, each condition's own interval (None when it
    holds nowhere, an upper end None when unbounded), and the epsilon in
    the intersection that maximizes the trigger coefficient
    mu(s) = sigma lambda_min(Q1(s)) / ||K' B' Z(s) B K||. On the
    intersection mu is a nonnegative concave function over a positive
    convex one, hence quasi-concave, and stacked k-section finds its
    maximum as it does the ends.
    """
    A, B, K, L, P = _conform(model, params, A=A, B=B, K=K, L=L, P=P)
    _require_definite(P, "P", strict=True)
    lam, V = np.linalg.eigh(P)
    lam_max = float(lam[-1])

    F = model.F
    C = _symmetric_part(_control_weight(K, L, params))
    dA = model.vertex_stack
    gram = np.swapaxes(dA, 1, 2) @ dA
    dA_e = V.T @ dA
    A_fb_e = (V.T @ (A + B @ K))[None]
    BK_e = V.T @ B @ K

    def z(s):
        return s[:, None] + lam**2 / (s[:, None] - lam)

    def scaled(s):
        return smallest_eigenvalues(F - s[:, None, None, None] * gram).min(axis=1)

    def periodic(s):
        return _lambda_min_weighted(C, A_fb_e, s[:, None] * lam / (s[:, None] - lam))

    def weighted(s):
        return _lambda_min_weighted(F, dA_e, z(s))

    def decay(s):
        return _lambda_min_weighted(C, A_fb_e, z(s))

    def mu(s):
        error_gain = (BK_e.T[None] * z(s)[:, None, :]) @ BK_e
        return params.sigma * decay(s) / np.linalg.eigvalsh(error_gain)[:, -1]

    # Every eigenvalue s + lam^2 / (s - lam) of Z(s) is positive on the window.
    intervals = {COND_EPS_WINDOW: (lam_max, None), COND_WEIGHT_PD: (lam_max, None)}
    for condition, s0, margin in (
        (COND_UNC_SCALED, 0.0, scaled),
        (COND_PERIODIC_DECAY, lam_max, periodic),
        (COND_UNC_WEIGHTED, lam_max, weighted),
        (COND_DECAY_PSD, lam_max, decay),
    ):
        intervals[condition] = _hold_interval(margin, s0, lam_max)

    inv_eps = 1.0 / params.epsilon
    witness = {
        "inv_eps": inv_eps,
        "inv_eps_lo": None,
        "inv_eps_hi": None,
        "binding_lo": None,
        "binding_hi": None,
        "intervals": {c: None if ends is None else list(ends) for c, ends in intervals.items()},
        "epsilon_best": None,
        "mu_best": None,
    }

    def result(margin, note):
        return CheckResult(
            name="epsilon_interval",
            holds=margin >= 0.0 and inv_eps > lam_max,
            margin=float(margin),
            witness=witness,
            note=note,
        )

    nowhere = [c for c, ends in intervals.items() if ends is None]
    if nowhere:
        return result(
            -np.inf, "no epsilon: " + ", ".join(nowhere) + " hold for no 1/epsilon in the window"
        )
    binding_lo = max(intervals, key=lambda c: intervals[c][0])
    bounded = [c for c in intervals if intervals[c][1] is not None]
    binding_hi = min(bounded, key=lambda c: intervals[c][1]) if bounded else None
    lo = intervals[binding_lo][0]
    hi = None if binding_hi is None else intervals[binding_hi][1]
    witness.update(binding_lo=binding_lo, binding_hi=binding_hi)
    if hi is not None and lo >= hi:
        return result(
            -np.inf,
            f"no epsilon: {binding_lo} needs 1/epsilon >= {lo:.6g}, "
            f"{binding_hi} needs 1/epsilon <= {hi:.6g}",
        )
    t, values = _maximize(
        lambda t: mu(lam_max + lam_max * np.exp2(t)),
        np.log2(lo / lam_max - 1.0) if lo > lam_max else -SEARCH_OCTAVES,
        np.log2(hi / lam_max - 1.0) if hi is not None else SEARCH_OCTAVES,
    )
    t_best, mu_best = t[np.argmax(values)], float(np.max(values))
    witness.update(
        inv_eps_lo=lo,
        inv_eps_hi=hi,
        epsilon_best=1.0 / (lam_max + lam_max * np.exp2(t_best)),
        mu_best=mu_best if np.isfinite(mu_best) else None,
    )
    upper = "inf" if hi is None else f"{hi:.6g}"
    return result(
        min(inv_eps - lo, np.inf if hi is None else hi - inv_eps),
        f"every design condition holds for 1/epsilon in [{lo:.6g}, {upper}]; "
        "margin is the distance of 1/epsilon to the nearer end",
    )


def _campaign_samples(samples, seed, max_dim, loop_terms: bool) -> list:
    """The campaign samples, each drawn from its own generator.

    Sample i draws from SeedSequence(seed).spawn(samples)[i], in this order:
    its dimension n in 1..max_dim, a Gaussian factor g of
    P = (g g' + g' g) / (2 n) + 0.1 I, the place of epsilon inside the
    design window and, with loop_terms, a closed-loop matrix and a scaled
    perturbation. Returns one tuple (P, epsilon), with loop_terms
    (P, epsilon, A_closed, dA), per sample.
    """
    samples, max_dim = _integer(samples, "samples"), _integer(max_dim, "max_dim")
    if samples < 0:
        raise ValueError(f"samples must be nonnegative, got {samples}")
    if max_dim < 1:
        raise ValueError(f"max_dim must be at least 1, got {max_dim}")
    draws = []
    for ss in np.random.SeedSequence(seed).spawn(samples):
        rng = np.random.default_rng(ss)
        n = int(rng.integers(1, max_dim + 1))
        g = rng.normal(size=(n, n))
        P = 0.5 * (g @ g.T + g.T @ g) / n + 0.1 * np.eye(n)
        draw = (P, 1.0 / (np.linalg.eigvalsh(P)[-1] * (1.0 + rng.uniform(0.1, 3.0))))
        if loop_terms:
            draw += (
                rng.normal(size=(n, n)) / np.sqrt(n),
                rng.uniform(0.0, 1.0) * rng.normal(size=(n, n)) / np.sqrt(n),
            )
        draws.append(draw)
    return draws


def identity_campaign(samples: int = 1000, seed: int = 0, max_dim: int = 5) -> CheckResult:
    """Random-instance campaign for the window inversion identity.

    Draws symmetric positive definite P of dimension 1 to max_dim with an
    epsilon placed strictly inside the design window, using per-sample seeds
    derived from the root seed, and audits each with
    check_inversion_identity. Margin is the worst residual scaled by
    max(1, ||P||); the witness is its first sample.
    """
    draws = _campaign_samples(samples, seed, max_dim, loop_terms=False)
    worst, witness, failures = 0.0, {}, 0
    for index, (P, epsilon) in enumerate(draws):
        result = check_inversion_identity(P, epsilon)
        scaled = result.margin / max(1.0, spectral_norm(P))
        if scaled > worst:
            worst, witness = scaled, {"sample": index, "dimension": len(P)}
        failures += not result.holds
    return CheckResult(
        name="inversion_identity_campaign",
        holds=failures == 0,
        margin=worst,
        witness=witness,
        note=f"{len(draws)} samples, {failures} failures; margin is the worst scaled residual",
    )


def cross_term_campaign(samples: int = 1000, seed: int = 0, max_dim: int = 5) -> CheckResult:
    """Random-instance campaign for the completion-of-squares bound.

    Each sample draws P, a closed-loop matrix, and a perturbation, with
    epsilon inside the design window, and is audited by
    check_cross_term_bound. Margin is the worst slack eigenvalue scaled by
    the magnitude of the dominating side, and the witness is its first
    sample; it must not fall below -CHECK_TOL for the campaign to hold.
    """
    draws = _campaign_samples(samples, seed, max_dim, loop_terms=True)
    worst, witness, failures = np.inf, {}, 0
    for index, (P, epsilon, A_closed, dA) in enumerate(draws):
        result = check_cross_term_bound(P, epsilon, A_closed, dA)
        scaled = result.margin / result.witness["tolerance"] * CHECK_TOL
        if scaled < worst:
            worst, witness = scaled, {"sample": index, "dimension": len(P)}
        failures += not result.holds
    return CheckResult(
        name="cross_term_bound_campaign",
        holds=failures == 0,
        margin=worst,
        witness=witness,
        note=f"{len(draws)} samples, {failures} failures; margin is the worst scaled slack eigenvalue",
    )
