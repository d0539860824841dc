"""Robust state-feedback synthesis for uncertain discrete-time linear systems.

The plant is x(k+1) = (A + dA(p)) x(k) + B u(k), where the perturbation
dA(p) = sum_i p_i E_i ranges over a box of parameters p and need not lie in
the range of B (mismatched uncertainty). The design solves a modified
discrete Riccati equation whose solution P yields a stabilizing feedback
gain, a companion gain on the uncontrolled subspace, and the weighting
matrices behind a relative event-trigger threshold.

A scalar epsilon governs the design window: the trigger derivation requires
(1/epsilon) I - P to be positive definite, and the admissible parameter box
must respect two induced bounds on dA. ``synthesize`` never hides
infeasibility. It completes whenever the quantities are computable and
attaches a FeasibilityReport listing each design condition with a verdict,
a margin, and (for parameter-dependent conditions) a worst-case witness.

Inputs are validated once, at the boundary: the constructors check their
matrices and keep read-only copies, and each public function here, in the
simulation and in the audits checks its arrays against one input contract
(_conform), then calls a private kernel that trusts them; a formed product
that can overflow (a window gap, the trigger's error gain) is checked
before a kernel takes it, with NumericalError naming it (_require_finite).
synthesize and synthesize_matched run one pipeline, which chains the
kernels and computes each shared factor once; the matched mode is the
special case with no virtual channel. The two window gaps are inverted
one after the other, and the report makes one stacked eigvalsh for every
slack and one svd for every scale. numpy runs a stack slice by slice, so
each result has the bits of the call on that matrix alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import (
    NumericalError,
    RiccatiConvergenceError,
    SingularMatrixError,
    TriggerUndefinedError,
)
from .linalg import (
    DEFINITENESS_TOL,
    _symmetric_part,
    as_matrix,
    as_real,
    inverse,
    pseudo_inverse,
    require_square,
    smallest_eigenvalues,
    spectral_norm,
    symmetrize,
)

RICCATI_STEP_TOL = 1e-12  # relative to max(1, max|P|)
RICCATI_MAX_ITER = 50  # doubling steps
RICCATI_RESIDUAL_TOL = 1e-9  # relative to max(1, max|P|)

HOLD_TOL = 1e-9
MARGINAL_BAND = 1e-6
MATCHED_TOL = 1e-12

# The epsilon interval search covers s - s0 from 2^-40 to 2^40 times
# lambda_max(P), where s = 1/epsilon and s0 is the lower end of the domain.
SEARCH_OCTAVES = 40.0
KSECTION_POINTS = 65
END_RTOL = 1e-12  # interval ends, relative
MAX_TOL = 1e-10  # brackets of a maximum, in octaves

HOLDS = "holds"
MARGINAL = "marginal"
FAILS = "fails"

COND_EPS_WINDOW = "epsilon_window"
COND_UNC_SCALED = "uncertainty_bound_scaled"
COND_PERIODIC_DECAY = "periodic_decay"
COND_WEIGHT_PD = "error_weight_pd"
COND_UNC_WEIGHTED = "uncertainty_bound_weighted"
COND_DECAY_PSD = "decay_matrix_psd"
COND_UNC_MATCHED = "uncertainty_bound_matched"
COND_MATCHED_DECAY = "matched_decay"


def _read_only(m: np.ndarray) -> np.ndarray:
    """Mark an array that nothing else holds as read-only and return it."""
    m.setflags(write=False)
    return m


def _reduce_through_constructor(self):
    """pickle and copy rebuild through the constructor, so copies are validated and read-only."""
    return type(self), tuple(getattr(self, f.name) for f in fields(self))


def _require_definite(m: np.ndarray, name: str, strict: bool) -> None:
    """Raise ValueError unless the exactly symmetric matrix m is positive (semi)definite."""
    smallest, threshold = smallest_eigenvalues(m)
    if not (smallest > threshold if strict else smallest >= -threshold):
        raise ValueError(f"{name} must be positive {'definite' if strict else 'semidefinite'}")


def _require_epsilon(epsilon) -> float:
    """epsilon as a float, ValueError unless it is positive with a finite 1/epsilon."""
    epsilon = float(epsilon)
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive")
    if not math.isfinite(1.0 / epsilon):
        raise ValueError("epsilon is too small: 1/epsilon overflows")
    return epsilon


def _require_sigma(sigma) -> float:
    """sigma as a float, ValueError unless it lies strictly between 0 and 1."""
    sigma = float(sigma)
    if not 0.0 < sigma < 1.0:
        raise ValueError("sigma must lie strictly between 0 and 1")
    return sigma


# The shape of each array of a design in the state dimension n and the input
# dimension m. The symmetric ones come back exactly symmetric.
_SHAPES = {
    "A": "nn", "B": "nm", "K": "mn", "L": "nn", "A_closed": "nn",
    "P": "nn", "Z": "nn", "Q1": "nn", "F": "nn", "dA": "nn",
}
_SYMMETRIC = ("P", "Z", "Q1", "F")


def _fixed_by(arrays, dim: str) -> str:
    """The name of the first given array that has the dimension dim."""
    return next(name for name, M in arrays.items() if M is not None and dim in _SHAPES[name])


def _conform(model=None, params=None, **arrays):
    """The input contract of every public entry point.

    Coerces each named array (None passes through) and checks its shape
    against _SHAPES. n and m come from the first array that fixes them: name
    a trusted one first, with n rows when model is given. model must be for
    state dimension n; params must fit (Q and R2 n x n, R1 m x m). Returns
    the arrays in order; a misfit raises ValueError naming it and the array
    that fixed the dimension it misses.
    """
    dims, out = {}, []
    for name, M in arrays.items():
        if M is not None:
            M = symmetrize(M, name) if name in _SYMMETRIC else as_matrix(M, name)
            rows, cols = _SHAPES[name]
            expected = (dims.setdefault(rows, M.shape[0]), dims.setdefault(cols, M.shape[1]))
            if M.shape != expected:
                missed = dict.fromkeys(
                    d for d, got, want in zip(_SHAPES[name], M.shape, expected) if got != want
                )
                origins = ", ".join(f"{d} from {_fixed_by(arrays, d)}" for d in missed)
                raise ValueError(f"{name} has shape {M.shape}, expected {expected}, {origins}")
        out.append(M)
    if model is not None and model.state_dim != dims["n"]:
        raise ValueError(
            f"uncertainty model is for state dimension {model.state_dim}, "
            f"but {next(iter(arrays))} has {dims['n']} rows"
        )
    if params is not None:
        for name, d in (("Q", "n"), ("R1", "m"), ("R2", "n")):
            shape = getattr(params, name).shape
            if shape != (dims[d], dims[d]):
                raise ValueError(
                    f"{name} has shape {shape}, expected {(dims[d], dims[d])}, "
                    f"{d} from {_fixed_by(arrays, d)}"
                )
    return out


@dataclass(frozen=True)
class SynthesisParams:
    """Design weights and scalars for one synthesis run.

    Q penalizes the state, R1 the physical input, and R2 the virtual input
    acting on the uncontrolled subspace. alpha scales the virtual channel,
    beta adds a uniform robustness floor, epsilon sets the design window,
    and sigma in (0, 1) is the decay fraction retained by the trigger.
    alpha and beta must be nonnegative with a finite square, and epsilon
    positive with a finite reciprocal.
    """

    Q: np.ndarray
    R1: np.ndarray
    R2: np.ndarray
    alpha: float
    beta: float
    epsilon: float
    sigma: float
    __reduce__ = _reduce_through_constructor

    def __post_init__(self):
        for name in ("Q", "R1", "R2"):
            object.__setattr__(self, name, _read_only(symmetrize(getattr(self, name), name)))
        for name in ("alpha", "beta", "epsilon", "sigma"):
            object.__setattr__(self, name, float(getattr(self, name)))
        _require_definite(self.Q, "Q", strict=False)
        _require_definite(self.R1, "R1", strict=True)
        _require_definite(self.R2, "R2", strict=True)
        for name in ("alpha", "beta", "epsilon"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            if value < 0.0:
                raise ValueError(f"{name} must be nonnegative")
            if not math.isfinite(value * value):  # the weights take its square
                raise ValueError(f"{name} is too large: {name}^2 overflows")
        _require_epsilon(self.epsilon)
        _require_sigma(self.sigma)


@dataclass(frozen=True)
class UncertaintyModel:
    """Affine parametric uncertainty dA(p) = sum_i p_i E_i over a box.

    F is a symmetric positive semidefinite matrix bounding the uncertainty
    inside the Riccati equation; the feasibility report checks whether the
    box actually respects that bound. The box bounds must be real, and they
    and their difference p_hi - p_lo finite.
    """

    basis: tuple
    p_lo: np.ndarray
    p_hi: np.ndarray
    F: np.ndarray
    __reduce__ = _reduce_through_constructor

    def __post_init__(self):
        basis = tuple(
            _read_only(require_square(e, f"basis[{i}]").copy()) for i, e in enumerate(self.basis)
        )
        object.__setattr__(self, "basis", basis)
        lo = _read_only(np.atleast_1d(as_real(self.p_lo, "p_lo").copy()))
        hi = _read_only(np.atleast_1d(as_real(self.p_hi, "p_hi").copy()))
        object.__setattr__(self, "p_lo", lo)
        object.__setattr__(self, "p_hi", hi)
        object.__setattr__(self, "F", _read_only(symmetrize(self.F, "F")))
        if lo.ndim != 1 or hi.ndim != 1:
            raise ValueError("p_lo and p_hi must be 1-D")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("p_lo and p_hi must be finite")
        if len(basis) != lo.size or lo.size != hi.size:
            raise ValueError(
                f"dimension mismatch: {len(basis)} basis directions, "
                f"{lo.size} lower bounds, {hi.size} upper bounds"
            )
        if np.any(lo > hi):
            raise ValueError("p_lo must not exceed p_hi componentwise")
        with np.errstate(over="ignore"):
            if not np.isfinite(hi - lo).all():
                raise ValueError("the box width p_hi - p_lo must be finite")
        n = self.F.shape[0]
        for i, e in enumerate(basis):
            if e.shape != (n, n):
                raise ValueError(f"basis[{i}] has shape {e.shape}, expected {(n, n)}")
        _require_definite(self.F, "F", strict=False)

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @property
    def state_dim(self) -> int:
        return self.F.shape[0]

    def matrix_at(self, p) -> np.ndarray:
        """The perturbation dA at parameter p (no box check here).

        p is one row of shape (d,), giving an (n, n) matrix, or a stack of
        rows of shape (k, d), giving a (k, n, n) stack. The sum is taken
        elementwise in basis order, so each slice of a stack equals the
        single-row result bit for bit.
        """
        p = np.atleast_1d(as_real(p, "p"))
        d = self.dimension
        if p.ndim > 2 or p.shape[-1] != d:
            raise ValueError(f"p has shape {p.shape}, expected ({d},) or (k, {d})")
        out = np.zeros(p.shape[:-1] + (self.state_dim, self.state_dim))
        for i, e in enumerate(self.basis):
            out += p[..., i, None, None] * e
        return out

    def vertices(self) -> np.ndarray:
        """The corners of the parameter box as the rows of a (2^d, d) array.

        The last parameter varies fastest (itertools.product order); when
        d = 0 the one corner is the empty row, shape (1, 0).
        """
        return np.array(list(itertools.product(*zip(self.p_lo, self.p_hi))), dtype=float)

    @cached_property
    def vertex_stack(self) -> np.ndarray:
        """matrix_at(vertices()): the read-only (2^d, n, n) stack of dA at the box corners.

        Formed on first use and kept. The model is frozen and its arrays are
        read-only, so the stack cannot go stale; the feasibility reports, the
        epsilon interval and the dissipation gate all read this one.
        """
        return _read_only(self.matrix_at(self.vertices()))


@dataclass(frozen=True)
class ConditionCheck:
    """One design condition: a verdict plus the margin that produced it.

    margin is the smallest eigenvalue of the slack matrix (nonnegative means
    the condition holds); witness_p is the worst parameter vector for
    box conditions and None otherwise. margin is None when the condition
    could not be evaluated or certified; its verdict is then FAILS, and
    witness_p is the first vertex whose slack was not finite, if any.
    points_evaluated counts the box points whose slack was evaluated (2^d
    for box conditions, 0 for matrix conditions and for box conditions
    left unevaluated), and margin_exact says whether margin is the exact
    minimum over the box, a certificate rather than a sample.
    """

    condition: str
    verdict: str
    margin: float | None
    witness_p: tuple | None
    description: str
    points_evaluated: int
    margin_exact: bool


@dataclass(frozen=True)
class FeasibilityReport:
    checks: tuple

    @property
    def all_hold(self) -> bool:
        return all(c.verdict == HOLDS for c in self.checks)

    def failed(self):
        return [c for c in self.checks if c.verdict != HOLDS]

    def get(self, condition: str) -> ConditionCheck:
        for c in self.checks:
            if c.condition == condition:
                return c
        raise KeyError(condition)


@dataclass(frozen=True)
class SynthesisOutcome:
    """Everything produced by one synthesis run.

    P is the Riccati solution (the Lyapunov weight), K the state-feedback
    gain, L the gain on the uncontrolled subspace, Z the error weighting
    matrix of the trigger analysis, Q1 the guaranteed-decay matrix, and mu
    the relative trigger threshold coefficient. mode is "mismatched" for
    ``synthesize`` and "matched" for ``synthesize_matched``, where Q1 is the
    effective state weight Q + F + beta^2 I and L is zero.
    """

    P: np.ndarray
    K: np.ndarray
    L: np.ndarray
    Z: np.ndarray
    Q1: np.ndarray
    mu: float
    A_closed: np.ndarray
    report: FeasibilityReport
    mode: str
    iterations: int
    residual: float


def _channel_weights(B, params: SynthesisParams, alpha: float):
    """W = B R1^-1 B' + alpha^2 Pi R2^-1 Pi' and Pi = I - B B^+ (None when alpha is 0)."""
    W = B @ np.linalg.solve(params.R1, B.T)
    Pi = None
    if alpha != 0.0:
        Pi = np.eye(len(B)) - B @ pseudo_inverse(B, "B")
        W = W + alpha**2 * (Pi @ np.linalg.solve(params.R2, Pi.T))
    return _symmetric_part(W), Pi


def _require_finite(m: np.ndarray, name: str) -> np.ndarray:
    """m, a matrix formed from finite inputs; NumericalError naming it if a product overflowed."""
    if not np.isfinite(m).all():
        raise NumericalError(f"{name} contains non-finite entries")
    return m


def _effective_weight(params: SynthesisParams, F: np.ndarray) -> np.ndarray:
    """Q + F + beta^2 I, exactly symmetric; NumericalError if the sum overflows."""
    return _require_finite(params.Q + F + params.beta**2 * np.eye(len(F)), "effective state weight")


def _s_inv(P: np.ndarray, W: np.ndarray) -> np.ndarray:
    """S^-1 = (P^-1 + W)^-1, computed as (I + P W)^-1 P."""
    return np.linalg.solve(np.eye(len(P)) + P @ W, P)


def _step_context(step: float | None, scale: float) -> str:
    last = "none" if step is None else f"{step:.3e}"
    return f"last relative step {last}, largest entry of H {scale:.3e}"


def _riccati(A, W, Qbar):
    """Structure-preserving doubling for P = A' (I + P W)^-1 P A + Qbar.

    Starting from A_0 = A, G_0 = W and H_0 = Qbar = Q + F + beta^2 I, each
    step solves (I + G_k H_k) [X_A, X_G] = [A_k, G_k] once and sets
    H_{k+1} = H_k + A_k' H_k X_A, G_{k+1} = G_k + A_k X_G A_k' and
    A_{k+1} = A_k X_A. H_k is the fixed-point iterate after 2^k steps from
    P = 0, so it converges quadratically to the stabilizing solution
    (Anderson, 1978; Chu, Fan and Lin, 2005). G_k and H_k stay positive
    semidefinite, so I + G_k H_k is invertible but for round-off. The loop
    stops once a step changes H by at most RICCATI_STEP_TOL, and the
    residual must stay within RICCATI_RESIDUAL_TOL, both relative to
    max(1, max|H|); an H that overflows (no stabilizing solution) or a
    singular solve ends it with RiccatiConvergenceError; for a singular
    solve it names Qbar's extreme eigenvalues as formed in floats (Q + F
    loses Q to a huge F). Returns the solution P (exactly symmetric and
    positive definite), the doubling-step count, the residual of the
    original equation and S_inv = (I + P W)^-1 P, which the residual and
    the gains share.
    """
    n = A.shape[0]
    eye = np.eye(n)
    rhs = np.empty((n, 2 * n))
    A_k, G, H = A, W, Qbar
    step, scale = None, float(abs(Qbar).max())
    # An H that overflows is how a pair with no stabilizing solution shows,
    # so numpy need not warn of it, and H and G keep 0.5 (M + M'), which
    # tests/oracles.py::riccati_hstack shares to pin the step of divergence.
    with np.errstate(over="ignore", invalid="ignore"):
        for iteration in range(1, RICCATI_MAX_ITER + 1):
            rhs[:, :n], rhs[:, n:] = A_k, G
            try:
                X = np.linalg.solve(eye + G @ H, rhs)
            except np.linalg.LinAlgError:
                context = _step_context(step, scale)
                weight = np.linalg.eigvalsh(Qbar)
                raise RiccatiConvergenceError(
                    f"doubling step {iteration} met a singular system I + G H ({context}); "
                    f"the effective state weight has smallest eigenvalue {weight[0]:.3e} "
                    f"and largest {weight[-1]:.3e}",
                    iterations=iteration,
                    last_step=step,
                ) from None
            X_A, X_G = X[:, :n], X[:, n:]
            H_next = H + A_k.T @ H @ X_A
            H_next = 0.5 * (H_next + H_next.T)
            G = G + A_k @ X_G @ A_k.T
            G = 0.5 * (G + G.T)
            A_k = A_k @ X_A
            scale = float(abs(H_next).max())
            if not math.isfinite(scale):
                raise RiccatiConvergenceError(
                    f"doubling diverged at step {iteration} ({_step_context(step, scale)}); "
                    "the pair (A, B) may not admit a stabilizing solution",
                    iterations=iteration,
                    last_step=step,
                )
            step = float(abs(H_next - H).max()) / max(1.0, scale)
            H = H_next
            if step <= RICCATI_STEP_TOL:
                break
        else:
            raise RiccatiConvergenceError(
                f"no convergence within {RICCATI_MAX_ITER} doubling steps "
                f"({_step_context(step, scale)})",
                iterations=RICCATI_MAX_ITER,
                last_step=step,
            )
    S_inv = _s_inv(H, W)
    residual = float(abs(A.T @ S_inv @ A + Qbar - H).max())
    tolerance = RICCATI_RESIDUAL_TOL * max(1.0, scale)
    if residual > tolerance:
        raise RiccatiConvergenceError(
            f"converged point has residual {residual:.3e} above tolerance "
            f"{tolerance:.1e} after {iteration} doubling steps "
            f"({_step_context(step, scale)})",
            iterations=iteration,
            last_step=step,
        )
    smallest, threshold = smallest_eigenvalues(H)
    if not smallest > threshold:
        raise NumericalError(
            f"Riccati solution is not positive definite (smallest eigenvalue {smallest:.3e})"
        )
    return H, iteration, residual, S_inv


def solve_modified_dare(A, B, params: SynthesisParams, F) -> np.ndarray:
    """Solve the modified discrete Riccati equation for the uncertain plant.

    Finds the symmetric positive definite P with
    A' (P^-1 + W)^-1 A - P + Q + F + beta^2 I = 0, where W combines the
    physical input weighting with the virtual channel on the complement of
    the range of B, by structure-preserving doubling (quadratic convergence,
    a few dozen steps at most). Raises RiccatiConvergenceError when the
    doubling diverges, meets a singular system, does not settle within
    RICCATI_MAX_ITER steps, or lands on a point whose residual exceeds
    RICCATI_RESIDUAL_TOL relative to max(1, max|P|).
    """
    A, B, F = _conform(params=params, A=A, B=B, F=F)
    _require_definite(F, "F", strict=False)
    # An effective state weight that overflows raises NumericalError, so numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        W, _ = _channel_weights(B, params, params.alpha)
        return _riccati(A, W, _effective_weight(params, F))[0]


def feedback_gain(A, B, P, params: SynthesisParams) -> np.ndarray:
    """State-feedback gain K = -R1^-1 B' (P^-1 + W)^-1 A."""
    A, B, P = _conform(params=params, A=A, B=B, P=P)
    W, _ = _channel_weights(B, params, params.alpha)
    return _feedback_gain(A, B, _s_inv(P, W), params)


def _feedback_gain(A, B, S_inv, params):
    return -np.linalg.solve(params.R1, B.T @ S_inv @ A)


def virtual_gain(A, B, P, params: SynthesisParams) -> np.ndarray:
    """Gain of the virtual input on the uncontrolled subspace.

    L = -alpha R2^-1 Pi (P^-1 + W)^-1 A, identically zero when alpha is 0.
    """
    A, B, P = _conform(params=params, A=A, B=B, P=P)
    if params.alpha == 0.0:
        return _virtual_gain(A, None, None, params)
    W, Pi = _channel_weights(B, params, params.alpha)
    return _virtual_gain(A, Pi, _s_inv(P, W), params)


def _virtual_gain(A, Pi, S_inv, params):
    if Pi is None:
        return np.zeros((A.shape[0], A.shape[0]))
    return -params.alpha * np.linalg.solve(params.R2, Pi @ S_inv @ A)


def error_weight(P, epsilon: float) -> np.ndarray:
    """Error weighting matrix of the trigger analysis.

    Z = (1/epsilon) I + P ((1/epsilon) I - P)^-1 P. The derivation is valid
    only inside the design window where (1/epsilon) I - P is positive
    definite, and there Z is positive definite too. Z is computed whenever
    both window gaps, equal up to the factor epsilon, are invertible
    (SingularMatrixError otherwise), inside the window or not: the report
    gives the verdicts on the window (epsilon_window) and on Z.
    """
    (P,) = _conform(P=P)
    epsilon = _require_epsilon(epsilon)
    # A window gap that overflows raises NumericalError, so numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        return _window_weights(P, epsilon)[0]


def _window_weights(P, epsilon):
    """Z and the inner window matrix (P^-1 - epsilon I)^-1 = P (I - epsilon P)^-1.

    The inner gap I - epsilon P overflows where epsilon P does, and the
    design window gap (1/epsilon) I - P where a P that is not positive
    semidefinite is near the float maximum (NumericalError, inner gap
    first). The design gap is inverted first, so a singular one raises
    before a singular inner gap.
    """
    eye = np.eye(len(P))
    inner_gap = _require_finite(eye - epsilon * P, "inner window gap")
    design_gap = _require_finite((1.0 / epsilon) * eye - P, "design window gap")
    Z = (1.0 / epsilon) * eye + P @ inverse(design_gap, "design window gap") @ P
    return _symmetric_part(Z), P @ inverse(inner_gap, "inner window gap")


def decay_matrix(A, B, K, L, Z, params: SynthesisParams) -> np.ndarray:
    """Guaranteed-decay matrix of the triggered loop.

    Q1 = beta^2 I + K' R1 K + L' R2 L - (A + B K)' Z (A + B K).
    """
    A, B, K, L, Z = _conform(params=params, A=A, B=B, K=K, L=L, Z=Z)
    return _decay_matrix(A + B @ K, K, L, Z, params)


def _control_weight(K, L, params):
    """beta^2 I + K' R1 K + L' R2 L (no L term when L is None); callers symmetrize."""
    n = K.shape[1]
    weight = params.beta**2 * np.eye(n) + K.T @ params.R1 @ K
    return weight if L is None else weight + L.T @ params.R2 @ L


def _error_gain(K, B, Z):
    """K' B' Z B K, the weight of the holding error in the decrease, not symmetrized."""
    return K.T @ B.T @ Z @ B @ K


def _decay_matrix(A_fb, K, L, Z, params):
    """Q1 of the loop A_fb = A + B K; with Z the inner window matrix, the periodic slack."""
    return _symmetric_part(_control_weight(K, L, params) - A_fb.T @ Z @ A_fb)


def trigger_coefficient(K, B, Z, Q1, sigma: float) -> float:
    """Relative event-trigger threshold coefficient.

    mu = sigma * lambda_min(Q1) / ||K' B' Z B K||. Requires Q1 to be
    positive definite; a smallest eigenvalue that is not positive means the
    triggered loop has no guaranteed decay and the threshold is undefined.
    """
    sigma = _require_sigma(sigma)
    K, B, Z, Q1 = _conform(K=K, B=B, Z=Z, Q1=Q1)
    # An error gain that overflows raises NumericalError, so numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        return _trigger_coefficient(K, B, Z, np.linalg.eigvalsh(Q1)[0], sigma)


# The names of Q1 and of the error weight in TriggerUndefinedError messages.
_TRIGGER_NAMES = ("decay matrix", "error weight")
_MATCHED_TRIGGER_NAMES = ("effective state weight", "inner window weight")


def _trigger_coefficient(K, B, Z, decay_margin, sigma, report=None, names=_TRIGGER_NAMES):
    """mu = sigma * decay_margin / ||K' B' Z B K||; names are Q1's and Z's in messages.

    decay_margin is None when the report could not certify Q1 (not finite).
    An error gain that overflows raises NumericalError.
    """
    if decay_margin is None or not decay_margin > 0.0:
        shown = "not finite" if decay_margin is None else f"{decay_margin:.6g}"
        raise TriggerUndefinedError(
            f"{names[0]} is not positive definite "
            f"(smallest eigenvalue {shown}); the trigger threshold is undefined",
            report,
        )
    denom = spectral_norm(_require_finite(_error_gain(K, B, Z), "trigger error gain"))
    if denom == 0.0:
        raise TriggerUndefinedError(
            f"{names[1]} vanishes on the feedback channel; every step would transmit", report
        )
    return float(sigma * decay_margin / denom)


def _finite_slices(stack):
    """The (..., n, n) stack with every slice that is not finite zeroed, and the finite mask.

    The mask has the stack's leading shape. A slack that is not finite (a
    product overflowed) must stay out of LAPACK, which can return finite
    eigenvalues for a matrix holding NaN or fail on it, and so the whole
    stack.
    """
    finite = np.isfinite(stack).all(axis=(-2, -1))
    if not finite.all():
        stack = np.where(finite[..., None, None], stack, 0.0)
    return stack, finite


def _finite_norms(matrices) -> list:
    """Spectral norms of the matrices in one svd; a matrix that is not finite gets 0."""
    return spectral_norm(_finite_slices(np.array(matrices))[0]).tolist()


def _slack_margins(slacks):
    """Smallest eigenvalues of a (..., n, n) stack, in one eigvalsh.

    A slack that is not finite gets margin NaN (_finite_slices).
    """
    slacks, finite = _finite_slices(slacks)
    margins = np.linalg.eigvalsh(slacks)[..., 0]
    margins[~finite] = np.nan
    return margins


def _check(condition, description, margins, scale, vertices=None):
    """One design condition from the smallest eigenvalues of its slacks.

    A matrix condition passes one margin and no vertices. A box condition
    passes one margin per row of vertices: lambda_min, from _slack_margins,
    of the slack F - dA' W dA at that vertex, with W positive semidefinite
    (c I or Z). Because dA(p) is affine in p, the slack is matrix-concave
    in p, lambda_min of it is concave, and its minimum over the box lies at
    a vertex: the margin is a certificate for the whole box, not a sample
    (multi-convexity; Boyd et al., LMIs in System and Control Theory, 1994).
    The witness is the first vertex attaining the minimum. scale is at
    least 1: the condition holds when the margin is at least
    -HOLD_TOL * scale, is marginal down to -MARGINAL_BAND * scale, and
    fails below. A margin that is not finite (the slack overflowed) leaves
    the condition uncertified, failing with margin None; a box condition
    names the first such vertex as its witness. margins None means the
    condition was not evaluated: it fails with no margin, witness or points.
    """
    if margins is None:
        return ConditionCheck(condition, FAILS, None, None, description, 0, False)
    values = margins if vertices is not None else [margins]
    worst = next((i for i, m in enumerate(values) if not math.isfinite(m)), None)
    margin, verdict = None, FAILS
    if worst is None:
        worst = min(range(len(values)), key=values.__getitem__)
        margin = values[worst]
        if margin >= -HOLD_TOL * scale:
            verdict = HOLDS
        elif margin >= -MARGINAL_BAND * scale:
            verdict = MARGINAL
    return ConditionCheck(
        condition=condition,
        verdict=verdict,
        margin=margin,
        witness_p=None if vertices is None else tuple(vertices[worst]),
        description=description,
        points_evaluated=0 if vertices is None else len(vertices),
        margin_exact=margin is not None,
    )


_WINDOW_DESCRIPTION = "design window: (1/epsilon) I - P is positive definite"


def feasibility_report(
    A, B, model: UncertaintyModel, params: SynthesisParams, P, K, L, Z, Q1
) -> FeasibilityReport:
    """Evaluate every design condition for a mismatched synthesis.

    The two box conditions are certified at the 2^d vertices of the
    parameter box: their slacks F - (1/epsilon) dA' dA and F - dA' Z dA are
    matrix-concave in p, so the smallest slack eigenvalue over the box is
    attained at a vertex. margin is that eigenvalue and witness_p the vertex
    attaining it. The weighted slack is concave only when Z is positive
    semidefinite, which holds inside the design window; otherwise the
    weighted condition fails as not certified, with margin and witness None.
    When a window gap is singular the periodic decay is not evaluable and
    fails. Verdicts use a relative hold tolerance and a marginal band
    proportional to the scale of the condition. The matrices are validated
    like the inputs of ``synthesize``: a wrong shape raises ValueError
    naming the argument.
    """
    A, B, K, L, P, Z, Q1 = _conform(model, params, A=A, B=B, K=K, L=L, P=P, Z=Z, Q1=Q1)
    # A window gap that overflows raises NumericalError and a slack that
    # overflows fails its condition, so numpy need not warn of either.
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            inner = _window_weights(P, params.epsilon)[1]
        except SingularMatrixError:
            inner = None
        return _feasibility_report(A + B @ K, model, params, P, K, L, Z, Q1, inner)


def _feasibility_report(A_fb, model, params, P, K, L, Z, Q1, inner):
    """The mismatched report; inner is the inner window matrix, None if a gap is singular.

    Every slack goes into one eigvalsh call and the scales of F, P and Q1
    into one svd. A slack that overflowed leaves its condition uncertified,
    so a scale that is not finite sets no verdict (_finite_norms gives 0).
    """
    inv_eps = 1.0 / params.epsilon
    F = model.F
    matrices = [inv_eps * np.eye(len(P)) - P, Z, Q1]
    if inner is not None:
        matrices.append(_decay_matrix(A_fb, K, L, inner, params))
    vertices, dA = model.vertices().tolist(), model.vertex_stack
    v = len(vertices)
    dA_t = np.swapaxes(dA, 1, 2)
    margins = _slack_margins(
        np.concatenate([F - inv_eps * (dA_t @ dA), F - dA_t @ Z @ dA, matrices])
    )
    z_psd = margins[2 * v + 1] >= -DEFINITENESS_TOL * max(1.0, abs(Z).max())
    margins = margins.tolist()  # one conversion; _check then works on Python floats
    window_min, z_min, q1_min, *decay_min = margins[2 * v :]
    weighted_min = margins[v : 2 * v] if z_psd else None
    F_scale, P_scale, Q1_scale = (max(1.0, s) for s in _finite_norms([F, P, Q1]))
    scaled = "scaled uncertainty bound: (1/epsilon) dA' dA <= F over the box"
    decay = "periodic transmission decay margin is nonnegative"
    weighted = "weighted uncertainty bound: dA' Z dA <= F over the box"
    if inner is None:
        decay += " (not evaluable: inner window gap is singular)"
    if not z_psd:
        weighted += " (not certified: Z is not positive semidefinite)"
    window_scale = max(1.0, inv_eps)
    return FeasibilityReport(
        checks=(
            _check(COND_EPS_WINDOW, _WINDOW_DESCRIPTION, window_min, window_scale),
            _check(COND_UNC_SCALED, scaled, margins[:v], F_scale, vertices),
            _check(COND_PERIODIC_DECAY, decay, decay_min[0] if decay_min else None, P_scale),
            _check(
                COND_WEIGHT_PD, "trigger error weight is positive definite", z_min, window_scale
            ),
            _check(COND_UNC_WEIGHTED, weighted, weighted_min, F_scale, vertices),
            _check(
                COND_DECAY_PSD, "guaranteed-decay matrix is positive semidefinite", q1_min, Q1_scale
            ),
        )
    )


def synthesize(A, B, model: UncertaintyModel, params: SynthesisParams) -> SynthesisOutcome:
    """Full mismatched synthesis: Riccati solve, gains, trigger, report.

    Completes whenever every quantity is computable, even if design
    conditions fail; consult outcome.report before trusting the trigger.
    Raises TriggerUndefinedError when the decay matrix is not positive
    definite (the report's decay_matrix_psd margin is not positive; the
    error carries the report), and RiccatiConvergenceError when no solution.
    """
    return _synthesize(A, B, model, params, matched=False)


def as_matched_model(B, model: UncertaintyModel) -> UncertaintyModel:
    """Check that an uncertainty model enters through the input channel.

    Each basis direction E_i must satisfy E_i = B phi_i for some phi_i (up
    to MATCHED_TOL, relative to the magnitude of E_i), so that
    dA(p) = B phi(p). Returns the model unchanged when it is matched;
    otherwise the model is genuinely mismatched and a ValueError explains
    which direction leaks outside the range of B.
    """
    (B,) = _conform(model, B=B)
    B_pinv = pseudo_inverse(B, "B")
    for i, e in enumerate(model.basis):
        defect = float(np.max(np.abs(B @ (B_pinv @ e) - e)))
        if defect > MATCHED_TOL * max(1.0, float(np.max(np.abs(e)))):
            raise ValueError(
                f"basis[{i}] is not matched: its residual outside the range of B "
                f"has magnitude {defect:.3e}"
            )
    return model


def _matched_feasibility_report(A_fb, model, params, P, K):
    """The matched report: one eigvalsh for its slacks, one svd for the scales of F and A_fb."""
    inv_eps = 1.0 / params.epsilon
    F = model.F
    slack = _symmetric_part(_control_weight(K, None, params) - (2.0 * inv_eps) * (A_fb.T @ A_fb))
    window = inv_eps * np.eye(len(P)) - P
    vertices, dA = model.vertices().tolist(), model.vertex_stack
    margins = _slack_margins(
        np.concatenate([F - (2.0 * inv_eps) * (np.swapaxes(dA, 1, 2) @ dA), [window, slack]])
    ).tolist()
    F_norm, A_fb_norm = _finite_norms([F, A_fb])
    bound = (
        "matched uncertainty bound: (2/epsilon) phi' B' B phi = "
        "(2/epsilon) dA' dA <= F over the box"
    )
    return FeasibilityReport(
        checks=(
            _check(COND_EPS_WINDOW, _WINDOW_DESCRIPTION, margins[-2], max(1.0, inv_eps)),
            _check(COND_UNC_MATCHED, bound, margins[:-2], max(1.0, F_norm), vertices),
            _check(
                COND_MATCHED_DECAY,
                "matched decay condition on the nominal closed loop",
                margins[-1],
                max(1.0, A_fb_norm**2 * 2.0 * inv_eps),
            ),
        )
    )


def synthesize_matched(
    A, B, model: UncertaintyModel, params: SynthesisParams
) -> SynthesisOutcome:
    """Synthesis specialized to matched uncertainty dA(p) = B phi(p).

    The pipeline of ``synthesize`` with the virtual channel absent. model is
    checked with ``as_matched_model`` first, so a mismatched model raises
    ValueError. alpha is taken as zero, so the Riccati weighting reduces to
    the physical input alone and L is zero, and the trigger coefficient uses
    the effective state weight Q + F + beta^2 I (the outcome's Q1) together
    with the inner window matrix (P^-1 - epsilon I)^-1 instead of the
    mismatched pair (Q1, Z). The report certifies the matched bound
    (2/epsilon) dA' dA <= F at the vertices of the box, as in
    ``feasibility_report``. A TriggerUndefinedError carries the report as
    its report attribute.
    """
    return _synthesize(A, B, model, params, matched=True)


def _synthesize(A, B, model, params, matched):
    """The one pipeline; matched drops the virtual channel and swaps the trigger's pair."""
    A, B = _conform(model, params, A=A, B=B)
    if matched:
        as_matched_model(B, model)
    # A product that overflows raises NumericalError or fails its condition
    # of the report, so numpy need not warn of it.
    with np.errstate(over="ignore", invalid="ignore"):
        W, Pi = _channel_weights(B, params, 0.0 if matched else params.alpha)
        Q_eff = _effective_weight(params, model.F)
        P, iterations, residual, S_inv = _riccati(A, W, Q_eff)
        K = _feedback_gain(A, B, S_inv, params)
        L = _virtual_gain(A, Pi, S_inv, params)
        Z, inner = _window_weights(P, params.epsilon)
        A_fb = A + B @ K
        if matched:
            Q1, weight, names = Q_eff, inner, _MATCHED_TRIGGER_NAMES
            report = _matched_feasibility_report(A_fb, model, params, P, K)
            decay_margin = np.linalg.eigvalsh(Q1)[0]
        else:
            Q1, weight, names = _decay_matrix(A_fb, K, L, Z, params), Z, _TRIGGER_NAMES
            report = _feasibility_report(A_fb, model, params, P, K, L, Z, Q1, inner)
            decay_margin = report.get(COND_DECAY_PSD).margin
        mu = _trigger_coefficient(K, B, weight, decay_margin, params.sigma, report, names)
    return SynthesisOutcome(
        P=P,
        K=K,
        L=L,
        Z=Z,
        Q1=Q1,
        mu=mu,
        A_closed=A_fb,
        report=report,
        mode="matched" if matched else "mismatched",
        iterations=iterations,
        residual=residual,
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
