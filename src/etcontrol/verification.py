"""Numerical audits of the identities and bounds behind the synthesis.

Each check recomputes a claimed identity or matrix inequality from scratch
and reports a CheckResult instead of asserting, so the command line can
collect verdicts across checks. Margins follow one convention per check
kind: identity checks report the worst absolute residual (small is good),
bound checks report the smallest slack eigenvalue (nonnegative is good).
The random campaigns stress the two results that hold unconditionally
under their stated preconditions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import FeasibilityError
from .linalg import (
    as_matrix,
    inverse,
    is_positive_definite,
    spectral_norm,
    sym_eigvals,
    symmetrize,
)
from .synthesis import (
    COND_EPS_WINDOW,
    SynthesisParams,
    _input_weight,
    error_weight,
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


def check_inversion_identity(P, epsilon: float) -> CheckResult:
    """Audit (P^-1 - eps I)^-1 = P + P ((1/eps) I - P)^-1 P.

    Requires P symmetric positive definite and both window matrices
    invertible; the margin is the worst entrywise residual between the two
    sides, and the check holds when it stays below CHECK_TOL relative to
    the magnitude of P.
    """
    P = symmetrize(P, "P")
    epsilon = float(epsilon)
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    if not is_positive_definite(P):
        raise ValueError("P must be positive definite")
    n = P.shape[0]
    eye = np.eye(n)
    lhs = P @ inverse(eye - epsilon * P, "inner window gap")
    gap = (1.0 / epsilon) * eye - P
    rhs = P + P @ inverse(gap, "design window gap") @ P
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
    Margin is the smallest slack eigenvalue.
    """
    P = symmetrize(P, "P")
    A_closed = as_matrix(A_closed, "A_closed")
    dA = as_matrix(dA, "dA")
    epsilon = float(epsilon)
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    n = P.shape[0]
    eye = np.eye(n)
    gap = (1.0 / epsilon) * eye - P
    if not is_positive_definite(gap):
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
    slack = 0.5 * ((dominating - cross) + (dominating - cross).T)
    margin = float(np.linalg.eigvalsh(slack)[0])
    tol = CHECK_TOL * max(1.0, spectral_norm(dominating))
    return CheckResult(
        name="cross_term_bound",
        holds=margin >= -tol,
        margin=margin,
        witness={"tolerance": tol},
        note="margin is the smallest slack eigenvalue",
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


def _random_spd(rng, n: int) -> np.ndarray:
    g = rng.normal(size=(n, n))
    return 0.5 * (g @ g.T + g.T @ g) / n + 0.1 * np.eye(n)


def identity_campaign(samples: int = 1000, seed: int = 0, max_dim: int = 5) -> CheckResult:
    """Random-instance campaign for the window inversion identity.

    Draws symmetric positive definite P of dimension 1 to max_dim with an
    epsilon placed strictly inside the design window, using per-sample seeds
    derived from the root seed. Margin is the worst scaled residual seen.
    """
    seeds = np.random.SeedSequence(seed).spawn(samples)
    failures = 0
    worst = 0.0
    witness = {}
    for index, ss in enumerate(seeds):
        rng = np.random.default_rng(ss)
        n = int(rng.integers(1, max_dim + 1))
        P = _random_spd(rng, n)
        lam_max = float(np.linalg.eigvalsh(P)[-1])
        epsilon = 1.0 / (lam_max * (1.0 + rng.uniform(0.1, 3.0)))
        result = check_inversion_identity(P, epsilon)
        scaled = result.margin / max(1.0, spectral_norm(P))
        if scaled > worst:
            worst = scaled
            witness = {"sample": index, "dimension": n}
        if not result.holds:
            failures += 1
    return CheckResult(
        name="inversion_identity_campaign",
        holds=failures == 0,
        margin=worst,
        witness=witness,
        note=f"{samples} samples, {failures} failures; margin is the worst scaled residual",
    )


def cross_term_campaign(samples: int = 1000, seed: int = 0, max_dim: int = 5) -> CheckResult:
    """Random-instance campaign for the completion-of-squares bound.

    Each sample draws P, a closed-loop matrix, and a perturbation, with
    epsilon inside the design window. Margin is the worst slack eigenvalue
    scaled by the magnitude of the dominating side; it must not fall below
    -CHECK_TOL for the campaign to hold.
    """
    seeds = np.random.SeedSequence(seed).spawn(samples)
    failures = 0
    worst = np.inf
    witness = {}
    for index, ss in enumerate(seeds):
        rng = np.random.default_rng(ss)
        n = int(rng.integers(1, max_dim + 1))
        P = _random_spd(rng, n)
        lam_max = float(np.linalg.eigvalsh(P)[-1])
        epsilon = 1.0 / (lam_max * (1.0 + rng.uniform(0.1, 3.0)))
        A_closed = rng.normal(size=(n, n)) / np.sqrt(n)
        dA = rng.uniform(0.0, 1.0) * rng.normal(size=(n, n)) / np.sqrt(n)
        result = check_cross_term_bound(P, epsilon, A_closed, dA)
        scaled = result.margin / result.witness["tolerance"] * CHECK_TOL
        if scaled < worst:
            worst = scaled
            witness = {"sample": index, "dimension": n}
        if not result.holds:
            failures += 1
    return CheckResult(
        name="cross_term_bound_campaign",
        holds=failures == 0,
        margin=worst,
        witness=witness,
        note=f"{samples} samples, {failures} failures; margin is the worst scaled slack eigenvalue",
    )
