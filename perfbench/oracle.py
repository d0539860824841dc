"""The benchmark's own recomputation of the design quantities (numpy only).

These formulas restate the paper's modified Riccati design independently of
the etcontrol package, so the workload process can check the program's
outputs without importing scipy. ``inputs.py`` adds the scipy DARE oracle
on top of them when it generates instances.
"""

import numpy as np


def complement_projector(B):
    """Orthogonal projector onto the complement of the range of B."""
    return np.eye(B.shape[0]) - B @ np.linalg.pinv(B)


def input_weight(B, R1, R2, alpha):
    """W = B R1^-1 B' + alpha^2 Pi R2^-1 Pi'."""
    W = B @ np.linalg.solve(R1, B.T)
    if alpha != 0.0:
        Pi = complement_projector(B)
        W = W + alpha**2 * (Pi @ np.linalg.solve(R2, Pi.T))
    return 0.5 * (W + W.T)


def riccati_residual(inst, P):
    """Worst entry of A' (I + P W)^-1 P A + Q + F + beta^2 I - P."""
    A, B, n = inst["A"], inst["B"], inst["A"].shape[0]
    alpha = 0.0 if inst["matched"] else inst["alpha"]
    W = input_weight(B, inst["R1"], inst["R2"], alpha)
    Qbar = inst["Q"] + inst["F"] + inst["beta"] ** 2 * np.eye(n)
    X = np.linalg.solve(np.eye(n) + P @ W, P)
    return float(np.max(np.abs(A.T @ X @ A + Qbar - P)))


def gains(inst, P):
    """Feedback gain K, virtual gain L and error weight Z for a solution P."""
    A, B, n = inst["A"], inst["B"], inst["A"].shape[0]
    alpha = 0.0 if inst["matched"] else inst["alpha"]
    S_inv = np.linalg.solve(np.eye(n) + P @ input_weight(B, inst["R1"], inst["R2"], alpha), P)
    K = -np.linalg.solve(inst["R1"], B.T @ S_inv @ A)
    if alpha == 0.0:
        L = np.zeros((n, n))
    else:
        L = -alpha * np.linalg.solve(inst["R2"], complement_projector(B) @ S_inv @ A)
    gap = (1.0 / inst["epsilon"]) * np.eye(n) - P
    Z = (1.0 / inst["epsilon"]) * np.eye(n) + P @ np.linalg.inv(gap) @ P
    return K, L, 0.5 * (Z + Z.T)


def trigger_mu(inst, P):
    """The trigger coefficient mu for a solution P, or None when undefined."""
    A, B, n = inst["A"], inst["B"], inst["A"].shape[0]
    K, L, Z = gains(inst, P)
    if inst["matched"]:
        Q1 = inst["Q"] + inst["F"] + inst["beta"] ** 2 * np.eye(n)
        weight = P @ np.linalg.inv(np.eye(n) - inst["epsilon"] * P)
    else:
        A_fb = A + B @ K
        Q1 = (
            inst["beta"] ** 2 * np.eye(n)
            + K.T @ inst["R1"] @ K
            + L.T @ inst["R2"] @ L
            - A_fb.T @ Z @ A_fb
        )
        weight = Z
    q_min = float(np.linalg.eigvalsh(0.5 * (Q1 + Q1.T))[0])
    denom = float(np.linalg.norm(K.T @ B.T @ weight @ B @ K, 2))
    if q_min <= 0.0 or denom == 0.0:
        return None
    return inst["sigma"] * q_min / denom


def perturbation(basis, p):
    """dA(p) = sum_i p_i E_i."""
    out = np.zeros_like(basis[0])
    for coeff, e in zip(p, basis):
        out += coeff * e
    return out
