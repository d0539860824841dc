"""Independent reference computations used to pin expected test values.

These deliberately avoid the package's own code paths. The scalar Riccati
solution comes from the quadratic formula, the matrix one from the stable
eigenvectors of the symplectic matrix, the LQR oracle from plain value
iteration on the textbook recursion, and the residual and trigger
coefficient evaluators use explicit matrix inverses instead of the
solver's factored updates, and the closed-loop trace comes from a plain
per-step loop that forms the plant matrix afresh at every step. The
epsilon scan evaluates the design conditions on a dense grid of
1/epsilon with explicit inverses, not in the eigenbasis of P. The
campaign oracle is the one exception: it is the per-sample loop that the
batched campaigns replace, so it calls the public single-instance checks.
"""

import numpy as np


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


def controllable(A, B) -> bool:
    """Kalman rank test."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n = A.shape[0]
    blocks = [B]
    for _ in range(n - 1):
        blocks.append(A @ blocks[-1])
    return np.linalg.matrix_rank(np.hstack(blocks)) == n


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
    return np.linalg.eigvalsh(0.5 * (stack + np.swapaxes(stack, -1, -2)))[..., 0]
