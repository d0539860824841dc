"""Independent reference computations used to pin expected test values.

These deliberately avoid the package's own code paths. The scalar Riccati
solution comes from the quadratic formula, the matrix one from the stable
eigenvectors of the symplectic matrix, the LQR oracle from plain value
iteration on the textbook recursion, and the residual and trigger
coefficient evaluators use explicit matrix inverses instead of the
solver's factored updates, and the closed-loop trace comes from a plain
per-step loop that forms the plant matrix afresh at every step. The
epsilon scan evaluates the design conditions on a dense grid of
1/epsilon with explicit inverses, not in the eigenbasis of P, and the
window weights come from np.linalg.inv of each window gap. The
campaign oracle is the one exception: it is the per-sample loop that the
batched campaigns replace, so it calls the public single-instance checks.
The dissipation oracle is the per-step loop that the audit's array pass
replaces, with the gate's perturbations formed afresh at every step. The
per-call synthesis oracles are the doubling loop and the feasibility report
with one LAPACK call per condition, scale and window gap, which the
package's stacked calls replace; they share its check types and tolerances.
The Lyapunov vertex margins test the inequality the paper's chain ends in,
V(x+) - V(x) <= -x'Q1 x + e'K'B'ZBK e, at each box vertex by plain products,
without the design window or the weighted bound that lead to it.
"""

import itertools

import numpy as np

from etcontrol.errors import NumericalError, RiccatiConvergenceError, SingularMatrixError
from etcontrol.linalg import DEFINITENESS_TOL, RCOND_LIMIT
from etcontrol.synthesis import (
    FAILS,
    HOLD_TOL,
    HOLDS,
    MARGINAL,
    MARGINAL_BAND,
    RICCATI_MAX_ITER,
    RICCATI_RESIDUAL_TOL,
    RICCATI_STEP_TOL,
    ConditionCheck,
)


def scalar_riccati_root(a: float, w: float, q_bar: float) -> float:
    """Positive root of w P^2 + (1 - q_bar w - a^2) P - q_bar = 0.

    This quadratic is the scalar fixed point of P = a^2 P / (1 + w P) + q_bar
    after clearing the denominator, so its positive root is the scalar
    solution of the modified Riccati equation.
    """
    b = 1.0 - q_bar * w - a * a
    disc = b * b + 4.0 * w * q_bar
    return (-b + np.sqrt(disc)) / (2.0 * w)


def lqr_value_iteration(A, B, Q, R, iters: int = 100000, tol: float = 1e-14):
    """Standard discrete LQR cost matrix via value iteration."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    Q = np.asarray(Q, dtype=float)
    R = np.asarray(R, dtype=float)
    P = Q.copy()
    for _ in range(iters):
        BtP = B.T @ P
        P_next = Q + A.T @ P @ A - A.T @ P @ B @ np.linalg.solve(R + BtP @ B, BtP @ A)
        P_next = 0.5 * (P_next + P_next.T)
        if np.max(np.abs(P_next - P)) <= tol:
            return P_next
        P = P_next
    raise RuntimeError("LQR value iteration did not converge")


def lqr_gain(A, B, P, R):
    """Standard discrete LQR feedback gain for a given cost matrix."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    R = np.asarray(R, dtype=float)
    return -np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)


def riccati_residual_explicit(A, B, P, Q, R1, R2, alpha, beta, F) -> float:
    """Worst entrywise residual of the modified equation, via explicit inverses.

    Evaluates A' (P^-1 + W)^-1 A - P + Q + F + beta^2 I directly, where
    W = B R1^-1 B' + alpha^2 Pi R2^-1 Pi' and Pi is the orthogonal projector
    onto the complement of the range of B (computed here from numpy's
    pseudo-inverse, not the package's).
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    P = np.asarray(P, dtype=float)
    n = A.shape[0]
    Pi = np.eye(n) - B @ np.linalg.pinv(B)
    W = B @ np.linalg.inv(np.asarray(R1, dtype=float)) @ B.T
    W = W + alpha**2 * (Pi @ np.linalg.inv(np.asarray(R2, dtype=float)) @ Pi.T)
    S_inv = np.linalg.inv(np.linalg.inv(P) + W)
    residual = A.T @ S_inv @ A - P + np.asarray(Q, dtype=float) + np.asarray(F, dtype=float)
    residual = residual + beta**2 * np.eye(n)
    return float(np.max(np.abs(residual)))


def trigger_coefficient_explicit(A, B, P, R1, R2, alpha, beta, epsilon, sigma) -> float:
    """Trigger coefficient mu rebuilt from P via explicit inverses.

    Recomputes K = -R1^-1 B' (P^-1 + W)^-1 A, L = -alpha R2^-1 Pi (P^-1 + W)^-1 A,
    Z = (1/eps) I + P ((1/eps) I - P)^-1 P,
    Q1 = beta^2 I + K' R1 K + L' R2 L - (A + B K)' Z (A + B K) and
    mu = sigma lambda_min(Q1) / ||K' B' Z B K||, with every inverse taken by
    np.linalg.inv or np.linalg.pinv instead of the package's solves. No
    window check is made: Z is formed whenever the gap is invertible.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    P = np.asarray(P, dtype=float)
    R1 = np.asarray(R1, dtype=float)
    R2 = np.asarray(R2, dtype=float)
    n = A.shape[0]
    eye = np.eye(n)
    Pi = eye - B @ np.linalg.pinv(B)
    R1_inv = np.linalg.inv(R1)
    R2_inv = np.linalg.inv(R2)
    W = B @ R1_inv @ B.T + alpha**2 * (Pi @ R2_inv @ Pi.T)
    S_inv = np.linalg.inv(np.linalg.inv(P) + W)
    K = -R1_inv @ B.T @ S_inv @ A
    L = -alpha * R2_inv @ Pi @ S_inv @ A
    Z = eye / epsilon + P @ np.linalg.inv(eye / epsilon - P) @ P
    A_fb = A + B @ K
    Q1 = beta**2 * eye + K.T @ R1 @ K + L.T @ R2 @ L - A_fb.T @ Z @ A_fb
    q_min = np.linalg.eigvalsh(0.5 * (Q1 + Q1.T))[0]
    return float(sigma * q_min / np.linalg.norm(K.T @ B.T @ Z @ B @ K, 2))


def random_instance(rng, max_dim: int = 5, spectral_lo: float = 0.3, spectral_hi: float = 0.95):
    """Random well-posed synthesis instance for residual campaigns."""
    n = int(rng.integers(1, max_dim + 1))
    m = int(rng.integers(1, n + 1))
    A = rng.normal(size=(n, n))
    radius = max(np.abs(np.linalg.eigvals(A)))
    if radius > 0:
        A = A * (rng.uniform(spectral_lo, spectral_hi) / radius)
    B = rng.normal(size=(n, m))
    G = rng.normal(size=(n, n))
    Q = G @ G.T / n + 0.1 * np.eye(n)
    H = rng.normal(size=(m, m))
    R1 = H @ H.T / m + 0.1 * np.eye(m)
    G2 = rng.normal(size=(n, n))
    R2 = G2 @ G2.T / n + 0.1 * np.eye(n)
    G3 = rng.normal(size=(n, n))
    F = G3 @ G3.T / n * rng.uniform(0.0, 0.5)
    alpha = float(rng.uniform(0.0, 2.0))
    beta = float(rng.uniform(0.0, 1.0))
    return A, B, Q, R1, R2, F, alpha, beta


def box_min_dense(slack, p_lo, p_hi, points: int) -> float:
    """Smallest eigenvalue of slack(p) over a dense grid covering the box.

    The grid has points samples per coordinate, endpoints included, so it
    contains every vertex; slack maps a parameter vector to a symmetric
    matrix. A sample of the box, not a certificate: it bounds the true
    minimum from above.
    """
    axes = [np.linspace(lo, hi, points) for lo, hi in zip(p_lo, p_hi)]
    mesh = np.meshgrid(*axes, indexing="ij")
    grid = np.stack([m.ravel() for m in mesh], axis=1)
    return min(float(np.linalg.eigvalsh(slack(p))[0]) for p in grid)


def dare_symplectic(A, G, H):
    """Stabilizing solution of X = A' X (I + G X)^-1 A + H from the symplectic pencil.

    The stable invariant subspace [U1; U2] of
    [[A + G A^-T H, -G A^-T], [-A^-T H, A^-T]] (its n eigenvalues inside the
    unit circle) gives X = U2 U1^-1. A must be invertible. An eigenvector
    construction, independent of any iteration on the equation itself.
    """
    A = np.asarray(A, dtype=float)
    G = np.asarray(G, dtype=float)
    H = np.asarray(H, dtype=float)
    n = A.shape[0]
    A_inv_t = np.linalg.inv(A).T
    S = np.block([[A + G @ A_inv_t @ H, -G @ A_inv_t], [-A_inv_t @ H, A_inv_t]])
    values, vectors = np.linalg.eig(S)
    stable = vectors[:, np.argsort(np.abs(values))[:n]]
    X = np.real(stable[n:] @ np.linalg.inv(stable[:n]))
    return 0.5 * (X + X.T)


def simulate_stepwise(A, B, basis, K, mu, p_rows, x0, P, divergence_norm: float = 1e12):
    """A closed-loop trace by a plain per-step loop, after the README's "Trace format".

    mu is None for the periodic policy. p_rows holds n_steps + 1 parameter
    rows. Row k records the state x(k), the input applied from k to k + 1,
    the holding error after the decision, the squared holding error the
    rule examined before it (0 at step 0, which always transmits), the
    threshold mu ||x(k)||^2 (0 when periodic), the decision, the parameters
    and V = x' P x. The event rule transmits when ||held - x||^2 >=
    mu ||x||^2, except at rest at the origin. The last row is the terminal
    state with the held input and no decision; a state whose norm exceeds
    divergence_norm, or is not finite, ends the run there. The plant matrix
    is formed afresh at every step as A + sum_i p_i E_i. Returns the
    columns by SimTrace field name and the diverged flag.
    """
    A, B, K, P = (np.asarray(v, dtype=float) for v in (A, B, K, P))
    p_rows = np.asarray(p_rows, dtype=float)
    n_steps = p_rows.shape[0] - 1
    names = ("states", "inputs", "errors", "monitored_sq", "thresholds", "triggered", "p", "V")
    columns = {name: [] for name in names}
    x = np.asarray(x0, dtype=float)
    held = u = None
    diverged = False
    for k in range(n_steps + 1):
        terminal = k == n_steps or diverged
        e_before = np.zeros_like(x) if held is None else held - x
        monitored = float(e_before @ e_before)
        x_sq = float(x @ x)
        if terminal:
            fire = False
        elif held is None or mu is None:
            fire = True
        else:
            fire = monitored >= mu * x_sq and not (monitored == 0.0 and x_sq == 0.0)
        if fire:
            held = x.copy()
            u = K @ held
        threshold = 0.0 if mu is None else mu * x_sq
        row = (x, u, held - x, monitored, threshold, fire, p_rows[k], float(x @ P @ x))
        for name, value in zip(names, row):
            columns[name].append(value)
        if terminal:
            break
        dA = np.zeros_like(A)
        for coeff, E in zip(p_rows[k], basis):
            dA += coeff * np.asarray(E, dtype=float)
        x = (A + dA) @ x + B @ u
        diverged = not (np.all(np.isfinite(x)) and np.linalg.norm(x) <= divergence_norm)
    return {name: np.array(values) for name, values in columns.items()}, diverged


def campaign_stepwise(kind: str, samples: int, seed: int, max_dim: int):
    """A random audit campaign by a plain per-sample loop.

    kind is "identity" (the window inversion identity) or "cross_term" (the
    completion-of-squares bound). Sample i draws from its own generator,
    SeedSequence(seed).spawn(samples)[i]: a dimension n in 1..max_dim,
    P = (g g' + g' g) / (2 n) + 0.1 I from a Gaussian g, epsilon =
    1 / (lambda_max(P) (1 + u)) with u uniform in [0.1, 3], and for
    "cross_term" a closed-loop matrix and a perturbation. Each sample goes
    through check_inversion_identity or check_cross_term_bound on its own;
    the worst scaled margin is tracked by a strict comparison in sample
    order, so the witness is its first sample.
    """
    from etcontrol import CheckResult, check_cross_term_bound, check_inversion_identity
    from etcontrol.verification import CHECK_TOL

    worst = 0.0 if kind == "identity" else np.inf
    witness = {}
    failures = 0
    for index, ss in enumerate(np.random.SeedSequence(seed).spawn(samples)):
        rng = np.random.default_rng(ss)
        n = int(rng.integers(1, max_dim + 1))
        g = rng.normal(size=(n, n))
        P = 0.5 * (g @ g.T + g.T @ g) / n + 0.1 * np.eye(n)
        lam_max = float(np.linalg.eigvalsh(P)[-1])
        epsilon = 1.0 / (lam_max * (1.0 + rng.uniform(0.1, 3.0)))
        if kind == "identity":
            result = check_inversion_identity(P, epsilon)
            scaled = result.margin / max(1.0, float(np.linalg.norm(P, 2)))
            worse = scaled > worst
        else:
            A_closed = rng.normal(size=(n, n)) / np.sqrt(n)
            dA = rng.uniform(0.0, 1.0) * rng.normal(size=(n, n)) / np.sqrt(n)
            result = check_cross_term_bound(P, epsilon, A_closed, dA)
            scaled = result.margin / result.witness["tolerance"] * CHECK_TOL
            worse = scaled < worst
        if worse:
            worst = scaled
            witness = {"sample": index, "dimension": n}
        failures += not result.holds
    if kind == "identity":
        name, what = "inversion_identity_campaign", "worst scaled residual"
    else:
        name, what = "cross_term_bound_campaign", "worst scaled slack eigenvalue"
    return CheckResult(
        name=name,
        holds=failures == 0,
        margin=worst,
        witness=witness,
        note=f"{samples} samples, {failures} failures; margin is the {what}",
    )


def dissipation_stepwise(trace, P, Q1, K, B, Z, sigma, model, F):
    """The dissipation audit of a trace by a plain per-step loop.

    This is the loop that check_dissipation's array pass replaces, with
    plain numpy in place of the package's validating helpers. Step k is
    skipped when the gate finds F - dA(p_k)' Z dA(p_k) not positive
    semidefinite, dA formed afresh as sum_i p_i E_i: its raw and rate
    bounds are not checked, its sandwich bound still is. Otherwise
    the raw bound, the rate bound (where the monitored error is within the
    derived threshold) and the sandwich bound are checked in that order;
    the worst slack is tracked by a strict comparison, so the witness is its
    first occurrence in (step, bound) order, and the loop stops at the first
    violating step. After the loop, the terminal row n gets the sandwich
    bound alone, never gated, with no dV in its witness. A NaN slack fails
    its step here without becoming the margin, so compare with
    check_dissipation on finite traces only.
    """
    from etcontrol import CheckResult
    from etcontrol.verification import CHECK_TOL

    P, Q1, Z, K, B = (np.asarray(v, dtype=float) for v in (P, Q1, Z, K, B))
    P, Q1, Z = (0.5 * m + 0.5 * m.T for m in (P, Q1, Z))
    sigma = float(sigma)
    error_gain = K.T @ B.T @ Z @ B @ K
    error_gain = 0.5 * error_gain + 0.5 * error_gain.T
    p_eigs = np.linalg.eigvalsh(P)
    q_min = float(np.linalg.eigvalsh(Q1)[0])
    denom = float(np.linalg.norm(error_gain, 2))
    mu_derived = sigma * q_min / denom if (q_min > 0.0 and denom > 0.0) else None

    worst = np.inf
    witness = {}
    skipped = 0
    audited = 0
    gated = np.zeros(trace.n_steps, dtype=bool)
    F = np.asarray(F, dtype=float)
    gate_tol = CHECK_TOL * max(1.0, float(np.linalg.norm(F, 2)))
    for k in range(trace.n_steps):
        dA = np.zeros_like(P)
        for coeff, E in zip(trace.p[k], model.basis):
            dA += coeff * np.asarray(E, dtype=float)
        gated[k] = np.linalg.eigvalsh(F - dA.T @ Z @ dA)[0] < -gate_tol

    for k in range(trace.n_steps):
        x = trace.states[k]
        e = trace.errors[k]
        x_sq = float(x @ x)
        dV = trace.V[k + 1] - trace.V[k]
        tol_k = CHECK_TOL * (1.0 + abs(float(trace.V[k])))

        raw_ok = rate_ok = True
        if gated[k]:
            skipped += 1
        else:
            audited += 1
            raw_slack = (-(x @ Q1 @ x) + e @ error_gain @ e) - dV
            if raw_slack < worst:
                worst = raw_slack
                witness = {"step": k, "bound": "raw", "dV": float(dV)}
            raw_ok = raw_slack >= -tol_k

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

    n = trace.n_steps
    x = trace.states[n]
    x_sq = float(x @ x)
    sandwich = min(float(trace.V[n]) - p_eigs[0] * x_sq, p_eigs[-1] * x_sq - float(trace.V[n]))
    if sandwich < worst:
        worst = sandwich
        witness = {"step": n, "bound": "sandwich"}
    counts = f"{audited} steps audited, {skipped} skipped"
    if not sandwich >= -CHECK_TOL * (1.0 + abs(float(trace.V[n]))):
        return CheckResult(
            name="dissipation",
            holds=False,
            margin=float(worst),
            witness=witness,
            note=f"violated at step {n} ({counts})",
        )
    return CheckResult(
        name="dissipation",
        holds=True,
        margin=float(worst),
        witness=witness,
        note=counts if audited else f"no eligible steps ({skipped} skipped by the uncertainty gate)",
    )



def lyapunov_vertex_margins(A, B, model, P, K, Q1, Z) -> float:
    """The smallest eigenvalue of R - M_v over the box vertices v.

    The paper's chain ends in V(x+) - V(x) <= -x'Q1 x + e'K'B'ZBK e for the
    state x, the holding error e and x+ = Acl_p x + BK e, where
    Acl_p = A + dA(p) + BK. In the stacked vector (x, e) that is R - M_p >= 0
    with M_p = [Acl_p, BK]' P [Acl_p, BK] - diag(P, 0) and
    R = diag(-Q1, K'B'ZBK). M_p is matrix-convex in p and R does not depend
    on p, so the vertices decide it over the whole box. Each vertex forms
    dA = sum_i p_i E_i afresh and its blocks by plain products; the margin
    is the smallest eigenvalue of the symmetric part of R - M_v, minimised
    over the 2^d vertices.
    """
    A, B, P, K, Q1, Z = (np.asarray(v, dtype=float) for v in (A, B, P, K, Q1, Z))
    n = len(A)
    BK = B @ K
    R = np.zeros((2 * n, 2 * n))
    R[:n, :n] = -Q1
    R[n:, n:] = K.T @ B.T @ Z @ B @ K
    worst = np.inf
    for vertex in itertools.product(*zip(model.p_lo, model.p_hi)):
        dA = np.zeros((n, n))
        for coeff, E in zip(vertex, model.basis):
            dA += coeff * np.asarray(E, dtype=float)
        N = np.hstack([A + dA + BK, BK])
        M = N.T @ P @ N
        M[:n, :n] -= P
        S = R - M
        worst = min(worst, float(np.linalg.eigvalsh(0.5 * S + 0.5 * S.T)[0]))
    return worst

def epsilon_margins(A, B, model, params, P, K, L, s):
    """The documented design margins at each 1/epsilon in the array s.

    Returns a dict from condition name to an array of margins (smallest
    slack eigenvalues, the worst box vertex for box conditions) and the
    array of mu = sigma lambda_min(Q1) / ||K' B' Z B K||. With eps = 1/s:
    the window gap (1/eps) I - P; the scaled bound F - (1/eps) dA' dA; the
    periodic decay beta^2 I + K' R1 K + L' R2 L - Ac' P (I - eps P)^-1 Ac;
    Z = (1/eps) I + P ((1/eps) I - P)^-1 P; the weighted bound F - dA' Z dA;
    and Q1 = beta^2 I + K' R1 K + L' R2 L - Ac' Z Ac, where Ac = A + B K.
    Every inverse is np.linalg.inv on the stack over s.
    """
    A, B, P, K, L = (np.asarray(v, dtype=float) for v in (A, B, P, K, L))
    s = np.asarray(s, dtype=float)
    n = A.shape[0]
    eye = np.eye(n)
    F = np.asarray(model.F, dtype=float)
    A_fb = A + B @ K
    C = params.beta**2 * eye + K.T @ params.R1 @ K + L.T @ params.R2 @ L
    gap = s[:, None, None] * eye - P
    inner = P @ np.linalg.inv(eye - P / s[:, None, None])
    Z = s[:, None, None] * eye + P @ np.linalg.inv(gap) @ P
    Q1 = C - A_fb.T @ Z @ A_fb
    scaled, weighted = [], []
    for vertex in model.vertices():
        dA = np.zeros((n, n))
        for c, E in zip(vertex, model.basis):
            dA = dA + c * np.asarray(E, dtype=float)
        scaled.append(_lambda_min(F - s[:, None, None] * (dA.T @ dA)))
        weighted.append(_lambda_min(F - dA.T @ Z @ dA))
    error_gain = K.T @ B.T @ Z @ B @ K
    margins = {
        "epsilon_window": _lambda_min(gap),
        "uncertainty_bound_scaled": np.min(scaled, axis=0),
        "periodic_decay": _lambda_min(C - A_fb.T @ inner @ A_fb),
        "error_weight_pd": _lambda_min(Z),
        "uncertainty_bound_weighted": np.min(weighted, axis=0),
        "decay_matrix_psd": _lambda_min(Q1),
    }
    return margins, params.sigma * margins["decay_matrix_psd"] / np.linalg.norm(
        error_gain, 2, axis=(1, 2)
    )


def epsilon_scan(A, B, model, params, P, K, L, points: int = 4000, decades: float = 6.0):
    """Dense geometric scan of the design margins over the design window.

    The grid is s_j = lambda_max(P) r^j for j = 1..points, with the ratio
    r chosen so the last point is 10^decades lambda_max(P): every point
    lies in the window s > lambda_max(P), and neighbours differ by the
    factor r. Returns the grid, then the margins and mu of epsilon_margins
    on it.
    """
    lam_max = float(np.linalg.eigvalsh(np.asarray(P, dtype=float))[-1])
    s = lam_max * np.logspace(decades / points, decades, points)
    return (s, *epsilon_margins(A, B, model, params, P, K, L, s))


def _lambda_min(stack):
    return np.linalg.eigvalsh(0.5 * stack + 0.5 * np.swapaxes(stack, -1, -2))[..., 0]


# ---------------------------------------------------------------------------
# Synthesis one LAPACK call at a time: the doubling loop that stacks its
# right-hand side with hstack, each window gap inverted on its own, and the
# feasibility report with one eigvalsh per condition and one svd per scale,
# each box condition forming its own vertex perturbations. The package
# stacks the report's calls; numpy runs a stack slice by slice, so both give
# the same bits.


def _finite(m, name):
    if not np.isfinite(m).all():
        raise NumericalError(f"{name} contains non-finite entries")
    return m


def _norm(m):
    """The largest singular value; 0 for a matrix that is not finite (its condition fails)."""
    if not np.isfinite(m).all():
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False).max())


def _smallest(m):
    """The smallest eigenvalue of one slack; NaN when it is not finite (kept out of LAPACK)."""
    return np.linalg.eigvalsh(m)[0] if np.isfinite(m).all() else np.nan


def _inner_gap(P, epsilon):
    """I - epsilon P; NumericalError when epsilon P overflowed."""
    gap = np.eye(len(P)) - epsilon * P
    if not np.isfinite(gap).all():
        raise NumericalError("inner window gap contains non-finite entries")
    return gap


def _guarded_inverse(m, name):
    """The inverse of one matrix behind the rcond guard of linalg.inverse."""
    s = np.linalg.svd(_finite(m, name), compute_uv=False)
    rcond = s[-1] / (s[0] if s[0] > 0.0 else np.inf)
    if rcond < RCOND_LIMIT:
        raise SingularMatrixError(f"{name} is singular to working precision (rcond {rcond:.2e})")
    return np.linalg.solve(m, np.eye(len(m)))


def window_weights_separate(P, epsilon):
    """Z and the inner window matrix P (I - epsilon P)^-1, one inverse each, Z first."""
    eye = np.eye(len(P))
    inner_gap = _inner_gap(P, epsilon)
    gap = (1.0 / epsilon) * eye - P
    Z = (1.0 / epsilon) * eye + P @ _guarded_inverse(gap, "design window gap") @ P
    return 0.5 * Z + 0.5 * Z.T, P @ _guarded_inverse(inner_gap, "inner window gap")


def window_weights_explicit(P, epsilon):
    """Z = (1/eps) I + P ((1/eps) I - P)^-1 P and P (I - eps P)^-1 by np.linalg.inv.

    No conditioning guard and no symmetric part, so it checks
    synthesis._window_weights only away from a singular gap.
    """
    eye = np.eye(len(P))
    Z = (1.0 / epsilon) * eye + P @ np.linalg.inv((1.0 / epsilon) * eye - P) @ P
    return Z, P @ np.linalg.inv(eye - epsilon * P)


def riccati_hstack(A, W, Qbar):
    """The doubling loop with np.hstack and np.max; returns (P, steps, residual, S_inv).

    Raises what synthesis._riccati raises, with the same messages.
    """
    n = A.shape[0]
    eye = np.eye(n)

    def context(step, scale):
        last = "none" if step is None else f"{step:.3e}"
        return f"last relative step {last}, largest entry of H {scale:.3e}"

    A_k, G, H = A, W, Qbar
    step, scale = None, float(np.max(np.abs(Qbar)))
    # As in synthesis._riccati: an overflowing H is the divergence signal.
    with np.errstate(over="ignore", invalid="ignore"):
        for iteration in range(1, RICCATI_MAX_ITER + 1):
            try:
                X = np.linalg.solve(eye + G @ H, np.hstack([A_k, G]))
            except np.linalg.LinAlgError:
                weight = np.linalg.eigvalsh(Qbar)
                raise RiccatiConvergenceError(
                    f"doubling step {iteration} met a singular system I + G H "
                    f"({context(step, scale)}); the effective state weight has smallest "
                    f"eigenvalue {weight[0]:.3e} and largest {weight[-1]:.3e}",
                    iterations=iteration,
                    last_step=step,
                ) from None
            X_A, X_G = X[:, :n], X[:, n:]
            H_next = H + A_k.T @ H @ X_A
            H_next = 0.5 * (H_next + H_next.T)
            G = G + A_k @ X_G @ A_k.T
            G = 0.5 * (G + G.T)
            A_k = A_k @ X_A
            scale = float(np.max(np.abs(H_next)))
            if not np.isfinite(scale):
                raise RiccatiConvergenceError(
                    f"doubling diverged at step {iteration} ({context(step, scale)}); "
                    "the pair (A, B) may not admit a stabilizing solution",
                    iterations=iteration,
                    last_step=step,
                )
            step = float(np.max(np.abs(H_next - H))) / max(1.0, scale)
            H = H_next
            if step <= RICCATI_STEP_TOL:
                break
        else:
            raise RiccatiConvergenceError(
                f"no convergence within {RICCATI_MAX_ITER} doubling steps ({context(step, scale)})",
                iterations=RICCATI_MAX_ITER,
                last_step=step,
            )
    S_inv = np.linalg.solve(eye + H @ W, H)
    residual = float(np.max(np.abs(A.T @ S_inv @ A + Qbar - H)))
    tolerance = RICCATI_RESIDUAL_TOL * max(1.0, float(np.max(np.abs(H))))
    if residual > tolerance:
        raise RiccatiConvergenceError(
            f"converged point has residual {residual:.3e} above tolerance "
            f"{tolerance:.1e} after {iteration} doubling steps ({context(step, scale)})",
            iterations=iteration,
            last_step=step,
        )
    smallest = np.linalg.eigvalsh(H)[0]
    if not smallest > DEFINITENESS_TOL * max(1.0, float(np.max(np.abs(H)))):
        raise NumericalError(
            f"Riccati solution is not positive definite (smallest eigenvalue {smallest:.3e})"
        )
    return H, iteration, residual, S_inv


def _check(condition, verdict, margin, witness, description, points, exact):
    return ConditionCheck(condition, verdict, margin, witness, description, points, exact)


def _failed(condition, description):
    return _check(condition, FAILS, None, None, description, 0, False)


def _verdict(margin, scale, band):
    if margin >= -HOLD_TOL * max(1.0, scale):
        return HOLDS
    return MARGINAL if margin >= -band else FAILS


def _matrix(condition, description, margin, scale):
    margin = float(margin)
    if not np.isfinite(margin):
        return _failed(condition, description)
    verdict = _verdict(margin, scale, MARGINAL_BAND * max(1.0, scale))
    return _check(condition, verdict, margin, None, description, 0, True)


def _box(condition, description, model, slack_of_dA, band_scale):
    vertices = model.vertices()
    slack = slack_of_dA(model.matrix_at(vertices))
    margins = np.linalg.eigvalsh(slack)[:, 0]
    margins[~np.isfinite(slack).all(axis=(1, 2))] = np.nan
    not_finite = ~np.isfinite(margins)
    if not_finite.any():
        worst, margin, verdict = int(np.argmax(not_finite)), None, FAILS
    else:
        worst = int(np.argmin(margins))
        margin = float(margins[worst])
        verdict = _verdict(margin, band_scale, MARGINAL_BAND * band_scale)
    witness = tuple(float(v) for v in vertices[worst])
    points = len(vertices)
    return _check(condition, verdict, margin, witness, description, points, margin is not None)


def _window(P, inv_eps):
    margin = _smallest(inv_eps * np.eye(len(P)) - P)
    description = "design window: (1/epsilon) I - P is positive definite"
    return _matrix("epsilon_window", description, margin, max(1.0, inv_eps))


def feasibility_report_per_condition(mode, A_fb, model, params, P, K, L, Z, Q1):
    """The checks of either pipeline's report, one LAPACK call per condition and scale.

    mode is "mismatched" or "matched"; the matched report reads neither L,
    Z nor Q1. Returns the tuple of ConditionCheck.
    """
    inv_eps = 1.0 / params.epsilon
    F = model.F
    n = len(P)
    if mode == "matched":
        slack = params.beta**2 * np.eye(n) + K.T @ params.R1 @ K
        slack = slack - (2.0 * inv_eps) * (A_fb.T @ A_fb)
        slack = 0.5 * slack + 0.5 * slack.T
        return (
            _window(P, inv_eps),
            _box(
                "uncertainty_bound_matched",
                "matched uncertainty bound: (2/epsilon) phi' B' B phi = "
                "(2/epsilon) dA' dA <= F over the box",
                model,
                lambda dA: F - (2.0 * inv_eps) * (np.swapaxes(dA, 1, 2) @ dA),
                max(1.0, _norm(F)),
            ),
            _matrix(
                "matched_decay",
                "matched decay condition on the nominal closed loop",
                _smallest(slack),
                max(1.0, _norm(A_fb) ** 2 * 2.0 * inv_eps),
            ),
        )
    F_scale = max(1.0, _norm(F))
    checks = [_window(P, inv_eps)]
    checks.append(
        _box(
            "uncertainty_bound_scaled",
            "scaled uncertainty bound: (1/epsilon) dA' dA <= F over the box",
            model,
            lambda dA: F - inv_eps * (np.swapaxes(dA, 1, 2) @ dA),
            F_scale,
        )
    )
    decay_description = "periodic transmission decay margin is nonnegative"
    try:
        inner = P @ _guarded_inverse(_inner_gap(P, params.epsilon), "inner window gap")
    except SingularMatrixError:
        description = decay_description + " (not evaluable: inner window gap is singular)"
        checks.append(_failed("periodic_decay", description))
    else:
        A_inner = A_fb.T @ inner @ A_fb
        slack = params.beta**2 * np.eye(n) + K.T @ params.R1 @ K + L.T @ params.R2 @ L - A_inner
        margin = _smallest(0.5 * slack + 0.5 * slack.T)
        checks.append(_matrix("periodic_decay", decay_description, margin, max(1.0, _norm(P))))
    z_min = _smallest(Z)
    checks.append(
        _matrix(
            "error_weight_pd", "trigger error weight is positive definite", z_min, max(1.0, inv_eps)
        )
    )
    weighted_description = "weighted uncertainty bound: dA' Z dA <= F over the box"
    if z_min >= -DEFINITENESS_TOL * max(1.0, float(np.max(np.abs(Z)))):
        checks.append(
            _box(
                "uncertainty_bound_weighted",
                weighted_description,
                model,
                lambda dA: F - np.swapaxes(dA, 1, 2) @ Z @ dA,
                F_scale,
            )
        )
    else:
        description = weighted_description + " (not certified: Z is not positive semidefinite)"
        checks.append(_failed("uncertainty_bound_weighted", description))
    checks.append(
        _matrix(
            "decay_matrix_psd",
            "guaranteed-decay matrix is positive semidefinite",
            _smallest(Q1),
            max(1.0, _norm(Q1)),
        )
    )
    return tuple(checks)
