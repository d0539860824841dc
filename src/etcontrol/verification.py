"""Numerical audits of the identities and bounds behind the synthesis.

Each check recomputes a claimed identity or matrix inequality from scratch
and reports a CheckResult instead of asserting, so the command line can
collect verdicts across checks. Margins follow one convention per check
kind: identity checks report the worst absolute residual (small is good),
bound checks report the smallest slack eigenvalue (nonnegative is good).
check_epsilon_interval certifies the design's epsilon: the exact interval
of 1/epsilon on which every design condition holds.

The inversion identity and the cross-term bound hold unconditionally
under their stated preconditions. Each has one stacked kernel over
(k, n, n) stacks, inversion_identity_margins and cross_term_margins, which
runs every validation on every matrix of the stack. The single checks are
the kernel on a stack of one. The random campaigns, identity_campaign and
cross_term_campaign, stress the two on matrices that do not depend on any
design, so they measure round-off only; they are library functions that
the acceptance suite runs (criterion 08), and the verify command does not
call them. They draw their samples one by one, exactly as a per-sample
loop would, then audit them by dimension with one kernel call per
dimension. numpy's stacked LAPACK and BLAS calls work slice by slice, so
every margin equals the per-sample one bit for bit.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import FeasibilityError
from .linalg import (
    as_matrix,
    as_stack,
    inverse,
    inverse_stack,
    positive_definite_stack,
    require_square,
    spectral_norm,
    spectral_norm_stack,
    sym_eigvals,
    symmetrize,
    symmetrize_stack,
)
from .synthesis import (
    COND_DECAY_PSD,
    COND_EPS_WINDOW,
    COND_PERIODIC_DECAY,
    COND_UNC_SCALED,
    COND_UNC_WEIGHTED,
    COND_WEIGHT_PD,
    SynthesisParams,
    _input_weight,
    _require_state_dim,
    error_weight,
)

CHECK_TOL = 1e-8

# The epsilon interval search covers s - s0 from 2^-40 to 2^40 times
# lambda_max(P), where s = 1/epsilon and s0 is the lower end of the domain.
SEARCH_OCTAVES = 40.0
KSECTION_POINTS = 65
END_RTOL = 1e-12  # interval ends, relative
MAX_TOL = 1e-10  # brackets of a maximum, in octaves


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


def _instance_weights(epsilon, P) -> np.ndarray:
    """Validate a kernel's (k,) epsilons against the (k, n, n) stack P."""
    epsilon = np.asarray(epsilon, dtype=float)
    if epsilon.shape != P.shape[:1]:
        raise ValueError(f"epsilon must have shape ({P.shape[0]},), got {epsilon.shape}")
    if np.any(epsilon <= 0.0):
        raise ValueError("epsilon must be positive")
    return epsilon


def _like_P(values, P, name: str) -> np.ndarray:
    """Validate a kernel's stack argument against the (k, n, n) stack P."""
    m = as_stack(values, name)
    if m.shape != P.shape:
        raise ValueError(f"{name} must have the shape of P, {P.shape}, got {m.shape}")
    return m


def inversion_identity_margins(P, epsilon):
    """Audit (P^-1 - eps I)^-1 = P + P ((1/eps) I - P)^-1 P on a stack.

    P is a (k, n, n) stack of symmetric positive definite matrices and
    epsilon a (k,) array of positive weights; both window matrices of every
    instance must be invertible (SingularMatrixError otherwise). Returns
    per-instance arrays (margins, tolerances, holds): the worst entrywise
    residual between the two sides, CHECK_TOL relative to the magnitude of
    P, and whether the residual stays within it.
    """
    P = symmetrize_stack(P, "P")
    epsilon = _instance_weights(epsilon, P)
    if not np.all(positive_definite_stack(P)):
        raise ValueError("P must be positive definite")
    eye = np.eye(P.shape[1])
    lhs = P @ inverse_stack(eye - epsilon[:, None, None] * P, "inner window gap")
    gap = (1.0 / epsilon)[:, None, None] * eye - P
    rhs = P + P @ inverse_stack(gap, "design window gap") @ P
    residual = np.max(np.abs(lhs - rhs), axis=(1, 2))
    tol = CHECK_TOL * np.maximum(1.0, spectral_norm_stack(P))
    return residual, tol, residual <= tol


def check_inversion_identity(P, epsilon: float) -> CheckResult:
    """Audit (P^-1 - eps I)^-1 = P + P ((1/eps) I - P)^-1 P.

    Requires P symmetric positive definite and both window matrices
    invertible; the margin is the worst entrywise residual between the two
    sides, and the check holds when it stays below CHECK_TOL relative to
    the magnitude of P. This is inversion_identity_margins on a stack of one.
    """
    residual, tol, holds = inversion_identity_margins(
        require_square(P, "P")[None], [float(epsilon)]
    )
    return CheckResult(
        name="inversion_identity",
        holds=bool(holds[0]),
        margin=float(residual[0]),
        witness={"tolerance": float(tol[0])},
        note="margin is the worst entrywise residual",
    )


def cross_term_margins(P, epsilon, A_closed, dA):
    """Audit the completion-of-squares bound on the cross terms on a stack.

    Inside the design window ((1/eps) I - P positive definite) the mixed
    terms Ac' P dA + dA' P Ac + dA' P dA are dominated by
    Ac' P ((1/eps) I - P)^-1 P Ac + (1/eps) dA' dA. P, A_closed and dA are
    (k, n, n) stacks and epsilon a (k,) array; raises FeasibilityError when
    the window precondition fails for any instance, since the bound is not
    claimed there. Returns per-instance arrays (margins, tolerances,
    holds): the smallest slack eigenvalue, CHECK_TOL relative to the
    magnitude of the dominating side, and whether the margin stays above
    minus that tolerance.
    """
    P = symmetrize_stack(P, "P")
    A_closed = _like_P(A_closed, P, "A_closed")
    dA = _like_P(dA, P, "dA")
    epsilon = _instance_weights(epsilon, P)
    gap = (1.0 / epsilon)[:, None, None] * np.eye(P.shape[1]) - P
    if not np.all(positive_definite_stack(gap)):
        raise FeasibilityError(
            "design window violated: (1/epsilon) I - P is not positive definite, "
            "the cross-term bound is not claimed here",
            condition=COND_EPS_WINDOW,
        )
    A_closed_t = np.swapaxes(A_closed, 1, 2)
    dA_t = np.swapaxes(dA, 1, 2)
    cross = A_closed_t @ P @ dA + dA_t @ P @ A_closed + dA_t @ P @ dA
    dominating = (
        A_closed_t @ P @ inverse_stack(gap, "design window gap") @ P @ A_closed
        + (1.0 / epsilon)[:, None, None] * (dA_t @ dA)
    )
    difference = dominating - cross
    slack = 0.5 * (difference + np.swapaxes(difference, 1, 2))
    margin = np.linalg.eigvalsh(slack)[:, 0]
    tol = CHECK_TOL * np.maximum(1.0, spectral_norm_stack(dominating))
    return margin, tol, margin >= -tol


def _worst_cross_term(P, epsilon: float, A_closed, dA) -> tuple[int, CheckResult]:
    """Audit one design against a (k, n, n) stack dA of perturbations.

    Returns the index of the first perturbation with the smallest margin
    and its CheckResult.
    """
    P = require_square(P, "P")
    A_closed = as_matrix(A_closed, "A_closed")
    k = len(dA)
    margin, tol, holds = cross_term_margins(
        np.broadcast_to(P, (k,) + P.shape),
        np.full(k, float(epsilon)),
        np.broadcast_to(A_closed, (k,) + A_closed.shape),
        dA,
    )
    worst = int(np.argmin(margin))
    return worst, CheckResult(
        name="cross_term_bound",
        holds=bool(holds[worst]),
        margin=float(margin[worst]),
        witness={"tolerance": float(tol[worst])},
        note="margin is the smallest slack eigenvalue",
    )


def check_cross_term_bound(P, epsilon: float, A_closed, dA) -> CheckResult:
    """Audit the completion-of-squares bound on the uncertainty cross terms.

    Inside the design window ((1/eps) I - P positive definite) the mixed
    terms Ac' P dA + dA' P Ac + dA' P dA are dominated by
    Ac' P ((1/eps) I - P)^-1 P Ac + (1/eps) dA' dA. Raises FeasibilityError
    when the window precondition fails; the bound is not claimed there.
    Margin is the smallest slack eigenvalue. This is cross_term_margins on
    a stack of one.
    """
    return _worst_cross_term(P, epsilon, A_closed, as_matrix(dA, "dA")[None])[1]


def check_cross_term_bound_at_vertices(P, epsilon: float, A_closed, model) -> CheckResult:
    """check_cross_term_bound at every vertex of the model's parameter box.

    One cross_term_margins call audits all 2^d vertices. The result is the
    first worst vertex's, with that vertex as the witness p.
    """
    vertices = np.array(list(model.vertices()))
    worst, result = _worst_cross_term(P, epsilon, A_closed, model.matrix_at(vertices))
    return replace(
        result,
        witness={**result.witness, "p": [float(v) for v in vertices[worst]]},
        note=result.note + "; worst over box vertices",
    )


def check_loop_energy_bound(A, B, P, params: SynthesisParams, K, L) -> CheckResult:
    """Audit the weighted closed-loop energy bound used by the trigger proof.

    With Z the trigger error weight and S the modified Riccati inverse term,
    the audited inequality is
    Ac' Z Ac - A' S^-1 A <= Ac' (P^-1 - eps I)^-1 Ac - K' R1 K - L' R2 L
    where Ac = A + B K. Evaluated wherever both window matrices are
    invertible; margin is the smallest slack eigenvalue.
    """
    A = as_matrix(A, "A")
    B = as_matrix(B, "B")
    P = symmetrize(P, "P")
    K = as_matrix(K, "K")
    L = as_matrix(L, "L")
    n = A.shape[0]
    eye = np.eye(n)
    W = _input_weight(B, params)
    S_inv = np.linalg.solve(eye + P @ W, P)
    Z = error_weight(P, params.epsilon, require_window=False)
    inner = P @ inverse(eye - params.epsilon * P, "inner window gap")
    A_fb = A + B @ K
    lhs = A_fb.T @ Z @ A_fb - A.T @ S_inv @ A
    rhs = A_fb.T @ inner @ A_fb - K.T @ params.R1 @ K - L.T @ params.R2 @ L
    slack = 0.5 * ((rhs - lhs) + (rhs - lhs).T)
    margin = float(np.linalg.eigvalsh(slack)[0])
    tol = CHECK_TOL * max(1.0, spectral_norm(rhs))
    return CheckResult(
        name="loop_energy_bound",
        holds=margin >= -tol,
        margin=margin,
        witness={"tolerance": tol},
        note="margin is the smallest slack eigenvalue",
    )


def check_dissipation(
    trace,
    P,
    Q1,
    K,
    B,
    Z,
    sigma: float,
    model=None,
    F=None,
) -> CheckResult:
    """Audit the per-step Lyapunov decrease along a recorded trace.

    At every step k the raw bound
    V(k+1) - V(k) <= -x' Q1 x + e' (K' B' Z B K) e
    is checked, with e the post-decision holding error. Steps whose
    monitored error also satisfies the derived relative threshold get the
    stronger rate bound V(k+1) - V(k) <= -(1 - sigma) lambda_min(Q1) ||x||^2
    as well, and the quadratic sandwich
    lambda_min(P) ||x||^2 <= V <= lambda_max(P) ||x||^2 is confirmed at
    every recorded row. When model and F are both given, steps whose
    sampled perturbation violates the weighted uncertainty bound are
    skipped; the theory promises nothing there. Margin is the worst slack
    across all audited inequalities.
    """
    P = symmetrize(P, "P")
    Q1 = symmetrize(Q1, "Q1")
    Z = symmetrize(Z, "Z")
    K = as_matrix(K, "K")
    B = as_matrix(B, "B")
    sigma = float(sigma)
    error_gain = K.T @ B.T @ Z @ B @ K
    error_gain = 0.5 * (error_gain + error_gain.T)
    p_eigs = sym_eigvals(P, "P")
    q_min = float(sym_eigvals(Q1, "Q1")[0])
    denom = spectral_norm(error_gain)
    mu_derived = sigma * q_min / denom if (q_min > 0.0 and denom > 0.0) else None

    worst = np.inf
    witness = {}
    skipped = 0
    audited = 0
    gated = np.zeros(trace.n_steps, dtype=bool)
    if model is not None and F is not None:
        dA = model.matrix_at(trace.p[: trace.n_steps])
        slack = np.linalg.eigvalsh(F - np.swapaxes(dA, 1, 2) @ Z @ dA)[:, 0]
        gated = slack < -CHECK_TOL * max(1.0, spectral_norm(F))

    for k in range(trace.n_steps):
        if gated[k]:
            skipped += 1
            continue
        audited += 1
        x = trace.states[k]
        e = trace.errors[k]
        x_sq = float(x @ x)
        dV = trace.V[k + 1] - trace.V[k]
        tol_k = CHECK_TOL * (1.0 + abs(float(trace.V[k])))

        raw_slack = (-(x @ Q1 @ x) + e @ error_gain @ e) - dV
        if raw_slack < worst:
            worst = raw_slack
            witness = {"step": k, "bound": "raw", "dV": float(dV)}
        raw_ok = raw_slack >= -tol_k

        rate_ok = True
        if mu_derived is not None and float(e @ e) <= mu_derived * x_sq + tol_k:
            rate_slack = (-(1.0 - sigma) * q_min * x_sq) - dV
            if rate_slack < worst:
                worst = rate_slack
                witness = {"step": k, "bound": "rate", "dV": float(dV)}
            rate_ok = rate_slack >= -tol_k

        v_lo_slack = float(trace.V[k]) - p_eigs[0] * x_sq
        v_hi_slack = p_eigs[-1] * x_sq - float(trace.V[k])
        sandwich = min(v_lo_slack, v_hi_slack)
        if sandwich < worst:
            worst = sandwich
            witness = {"step": k, "bound": "sandwich", "dV": float(dV)}
        sandwich_ok = sandwich >= -tol_k

        if not (raw_ok and rate_ok and sandwich_ok):
            return CheckResult(
                name="dissipation",
                holds=False,
                margin=float(worst),
                witness=witness,
                note=f"violated at step {k} "
                f"({audited} steps audited, {skipped} skipped)",
            )

    if audited == 0:
        return CheckResult(
            name="dissipation",
            holds=True,
            margin=0.0,
            witness={},
            note=f"no eligible steps ({skipped} skipped by the uncertainty gate)",
        )
    return CheckResult(
        name="dissipation",
        holds=True,
        margin=float(worst),
        witness=witness,
        note=f"{audited} steps audited, {skipped} skipped",
    )


def _maximize(f, a: float, b: float, stop=None):
    """Maximize a quasi-concave function on [a, b] by stacked k-section.

    Each round evaluates f at KSECTION_POINTS points spanning the bracket
    and keeps the two neighbours of the best one, which enclose the
    maximum, until the bracket is narrower than MAX_TOL or stop holds for
    the best value. Returns the last round's points and values.
    """
    while True:
        x = np.linspace(a, b, KSECTION_POINTS)
        values = f(x)
        best = int(np.argmax(values))
        if b - a <= MAX_TOL or (stop is not None and stop(values[best])):
            return x, values
        a, b = x[max(best - 1, 0)], x[min(best + 1, x.size - 1)]


def _boundary(margin, s_out: float, s_in: float) -> float:
    """The end of a hold interval between a failing s_out and a holding s_in.

    Stacked k-section: each round evaluates the margin at KSECTION_POINTS
    points across the bracket and keeps the two neighbours where it turns
    nonnegative, until the bracket is within END_RTOL of s_in. The holds
    form a suffix of every bracket, since the hold set is an interval.
    Returns the holding side, so the margin is nonnegative at the end.
    """
    while abs(s_in - s_out) > END_RTOL * abs(s_in):
        s = np.linspace(s_out, s_in, KSECTION_POINTS)[1:-1]
        holds = margin(s) >= 0.0
        first = int(np.argmax(holds)) if holds.any() else s.size
        if first > 0:
            s_out = float(s[first - 1])
        if first < s.size:
            s_in = float(s[first])
    return s_in


def _hold_interval(margin, s0: float, scale: float):
    """The interval of s > s0 on which a quasi-concave margin is nonnegative.

    The search runs over s = s0 + scale 2^t for t in
    [-SEARCH_OCTAVES, SEARCH_OCTAVES] (quasi-concavity survives the
    monotone change of variable): k-section for the maximum until a point
    holds, then k-section for each end between the holding points and
    their failing neighbours. Only the first round's end points can hold,
    since every later bracket lies between failing points. Returns None
    when the margin is negative everywhere, else (lo, hi): lo is s0 when
    the margin holds at the bottom of the search, and hi is None when it
    holds at the top.
    """

    def at(t):
        return s0 + scale * np.exp2(t)

    t, values = _maximize(
        lambda t: margin(at(t)), -SEARCH_OCTAVES, SEARCH_OCTAVES, stop=lambda v: v >= 0.0
    )
    holds = values >= 0.0
    if not holds.any():
        return None
    first = int(np.argmax(holds))
    last = t.size - 1 - int(np.argmax(holds[::-1]))
    lo = s0 if first == 0 else _boundary(margin, at(t[first - 1]), at(t[first]))
    hi = None if last == t.size - 1 else _boundary(margin, at(t[last + 1]), at(t[last]))
    return lo, hi


def _lambda_min_weighted(C, M, w) -> np.ndarray:
    """lambda_min(C - M' diag(w_k) M) for each row w_k of the (k, n) weights.

    M is a (v, n, n) stack; the minimum runs over it as well, so a stack of
    box vertices gives the worst vertex at every weight.
    """
    weighted = (np.swapaxes(M, 1, 2)[None] * w[:, None, None, :]) @ M
    return np.linalg.eigvalsh(C - weighted)[..., 0].min(axis=1)


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
    A = require_square(A, "A")
    n = A.shape[0]
    B, K, L = as_matrix(B, "B"), as_matrix(K, "K"), as_matrix(L, "L")
    P = symmetrize(P, "P")
    m = B.shape[1]
    for name, M, shape in (("B", B, (n, m)), ("K", K, (m, n)), ("L", L, (n, n)), ("P", P, (n, n))):
        if M.shape != shape:
            raise ValueError(f"{name} has shape {M.shape}, expected {shape}")
    _require_state_dim(model, A)
    lam, V = np.linalg.eigh(P)
    if lam[0] <= 0.0:
        raise ValueError("P must be positive definite")
    lam_max = float(lam[-1])

    F = model.F
    C = params.beta**2 * np.eye(n) + K.T @ params.R1 @ K + L.T @ params.R2 @ L
    C = 0.5 * (C + C.T)
    dA = model.matrix_at(np.array(list(model.vertices())))
    gram = np.swapaxes(dA, 1, 2) @ dA
    dA_e = V.T @ dA
    A_fb_e = (V.T @ (A + B @ K))[None]
    BK_e = V.T @ B @ K

    def z(s):
        return s[:, None] + lam**2 / (s[:, None] - lam)

    def scaled(s):
        return np.linalg.eigvalsh(F - s[:, None, None, None] * gram)[..., 0].min(axis=1)

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


def _campaign_draws(samples, seed, max_dim, loop_terms: bool):
    """Draw the campaign samples one by one and stack them by dimension.

    Sample i draws from its own generator, SeedSequence(seed).spawn(samples)[i],
    in this order: its dimension n in 1..max_dim, a Gaussian factor g of
    P = (g g' + g' g) / (2 n) + 0.1 I, the place of epsilon inside the
    design window and, with loop_terms, a closed-loop matrix and a scaled
    perturbation. Only the draws are made per sample; the arithmetic on
    them runs on each dimension's stack. Returns the dimension of every
    sample and, per dimension in increasing order, the sample indices, the
    stacks of P and epsilon and, with loop_terms, of the two loop matrices.
    """
    try:
        samples = operator.index(samples)
        max_dim = operator.index(max_dim)
    except TypeError:
        raise ValueError(
            f"samples and max_dim must be integers, got {samples!r} and {max_dim!r}"
        ) from None
    if samples < 0:
        raise ValueError(f"samples must be nonnegative, got {samples}")
    if max_dim < 1:
        raise ValueError(f"max_dim must be at least 1, got {max_dim}")
    by_dim = {}
    for index, ss in enumerate(np.random.SeedSequence(seed).spawn(samples)):
        rng = np.random.default_rng(ss)
        n = int(rng.integers(1, max_dim + 1))
        draw = [index, rng.normal(size=(n, n)), rng.uniform(0.1, 3.0)]
        if loop_terms:
            draw += [rng.normal(size=(n, n)), rng.uniform(0.0, 1.0), rng.normal(size=(n, n))]
        by_dim.setdefault(n, []).append(draw)
    dims = np.zeros(samples, dtype=int)
    groups = []
    for n, draws in sorted(by_dim.items()):
        index, g, place, *loop = (np.array(column) for column in zip(*draws))
        dims[index] = n
        g_t = np.swapaxes(g, 1, 2)
        P = 0.5 * (g @ g_t + g_t @ g) / n + 0.1 * np.eye(n)
        epsilon = 1.0 / (np.linalg.eigvalsh(P)[:, -1] * (1.0 + place))
        if loop_terms:
            closed, scale, direction = loop
            loop = [closed / np.sqrt(n), scale[:, None, None] * direction / np.sqrt(n)]
        groups.append((index, P, epsilon, *loop))
    return dims, groups


def identity_campaign(samples: int = 1000, seed: int = 0, max_dim: int = 5) -> CheckResult:
    """Random-instance campaign for the window inversion identity.

    Draws symmetric positive definite P of dimension 1 to max_dim with an
    epsilon placed strictly inside the design window, using per-sample seeds
    derived from the root seed. The samples are audited by dimension, one
    inversion_identity_margins call per dimension over the same per-sample
    draws. Margin is the worst scaled residual seen; the witness is its
    first sample.
    """
    dims, groups = _campaign_draws(samples, seed, max_dim, loop_terms=False)
    scaled = np.zeros(dims.size)
    holds = np.ones(dims.size, dtype=bool)
    for index, P, epsilon in groups:
        residual, _, holds_here = inversion_identity_margins(P, epsilon)
        scaled[index] = residual / np.maximum(1.0, spectral_norm_stack(P))
        holds[index] = holds_here
    worst = 0.0
    witness = {}
    if dims.size and scaled.max() > worst:
        index = int(np.argmax(scaled))
        worst = float(scaled[index])
        witness = {"sample": index, "dimension": int(dims[index])}
    failures = int(np.count_nonzero(~holds))
    return CheckResult(
        name="inversion_identity_campaign",
        holds=failures == 0,
        margin=worst,
        witness=witness,
        note=f"{dims.size} samples, {failures} failures; margin is the worst scaled residual",
    )


def cross_term_campaign(samples: int = 1000, seed: int = 0, max_dim: int = 5) -> CheckResult:
    """Random-instance campaign for the completion-of-squares bound.

    Each sample draws P, a closed-loop matrix, and a perturbation, with
    epsilon inside the design window. The samples are audited by dimension,
    one cross_term_margins call per dimension over the same per-sample
    draws. Margin is the worst slack eigenvalue scaled by the magnitude of
    the dominating side, and the witness is its first sample; it must not
    fall below -CHECK_TOL for the campaign to hold.
    """
    dims, groups = _campaign_draws(samples, seed, max_dim, loop_terms=True)
    scaled = np.full(dims.size, np.inf)
    holds = np.ones(dims.size, dtype=bool)
    for index, P, epsilon, A_closed, dA in groups:
        margin, tol, holds_here = cross_term_margins(P, epsilon, A_closed, dA)
        scaled[index] = margin / tol * CHECK_TOL
        holds[index] = holds_here
    worst = np.inf
    witness = {}
    if dims.size and scaled.min() < worst:
        index = int(np.argmin(scaled))
        worst = float(scaled[index])
        witness = {"sample": index, "dimension": int(dims[index])}
    failures = int(np.count_nonzero(~holds))
    return CheckResult(
        name="cross_term_bound_campaign",
        holds=failures == 0,
        margin=worst,
        witness=witness,
        note=f"{dims.size} samples, {failures} failures; margin is the worst scaled slack eigenvalue",
    )
