"""Independent reference computations used to pin expected test values.

These deliberately avoid the package's own code paths. The scalar Riccati
solution comes from the quadratic formula, the matrix one from the stable
eigenvectors of the symplectic matrix, the LQR oracle from plain value
iteration on the textbook recursion, and the residual and trigger
coefficient evaluators use explicit matrix inverses instead of the
solver's factored updates, and the closed-loop trace comes from a plain
per-step loop that forms the plant matrix afresh at every step.
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
    onto the complement of the range of B (computed here from the SVD-based
    numpy pseudo-inverse, not the package's normal-equations route).
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
