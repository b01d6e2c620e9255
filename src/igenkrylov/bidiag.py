"""Golub-Kahan-type decompositions with weighted inner products and inexact products.

One engine covers the four variants: the classic process (Q = I, R = I, exact
products), its inexact counterpart, the generalized process orthogonal in the
R^{-1} and Q inner products, and the inexact generalized process. With exact
products the projected matrix is numerically bidiagonal; with inexact products
it fills in to upper Hessenberg, and the adjoint-side coefficients fill a
triangular matrix, which is what keeps the bases orthonormal at machine
precision regardless of the error level.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import linop
from .errors import BreakdownSignal, DegenerateInputError, DimensionError, NumericalError
from .prior import weighted_norm

# Normalization coefficients below BREAKDOWN_RTOL * beta1 stop the recurrence.
BREAKDOWN_RTOL = 1e-14

# Columns a basis buffer holds before its first growth; each growth doubles it.
INITIAL_CAPACITY = 8


class _Columns:
    """Columns appended to a column-major buffer that doubles when full.

    ``view`` is the filled part. Appending writes one column in place; only a
    growth copies, so n-by-k columns cost O(n k) in total rather than per step.
    """

    def __init__(self, first):
        self._buf = np.empty((first.size, INITIAL_CAPACITY), order="F")
        self._buf[:, 0] = first
        self.count = 1

    def append(self, col):
        if self.count == self._buf.shape[1]:
            grown = np.empty((self._buf.shape[0], 2 * self.count), order="F")
            grown[:, : self.count] = self._buf
            self._buf = grown
        self._buf[:, self.count] = col
        self.count += 1

    @property
    def view(self):
        return self._buf[:, : self.count]


class BidiagState:
    """Iteration-k factorization state.

    U has k+1 columns orthonormal in the R^{-1} inner product and V has k+1
    columns orthonormal in the Q inner product (the last V column is the
    look-ahead vector for the next step; the solve basis is V[:, :k]). Z = Q V
    column by column: each column is the covariance product made when its V
    column was normalized, kept so that no later use of Q V applies Q again;
    its last column is the input of the next forward product. Under an
    identity prior Z is V and shares its buffer. U, V and Z are views of the
    filled part of their buffers; a view taken before a later step does not
    see that step's column. M is the (k+1)-by-k projected matrix, C = L^T the
    (k+1)-by-(k+1) upper triangular adjoint-side coefficient matrix. After a
    terminal breakdown M may be square (the subdiagonal entry vanished and no
    new U column exists).
    """

    def __init__(self, u1, v1, z1, c11, beta1):
        self._U = _Columns(u1)
        self._V = _Columns(v1)
        self._Z = self._V if z1 is None else _Columns(z1)  # None: Q = I
        self.M = np.zeros((1, 0))
        self.C = np.array([[c11]])
        self.beta1 = beta1
        self.terminated = False

    @property
    def U(self):
        return self._U.view

    @property
    def V(self):
        return self._V.view

    @property
    def Z(self):
        return self._Z.view

    @property
    def k(self):
        return self.M.shape[1]


def _finite(norm, what):
    """``norm`` if it is finite; an overflowed (inf) or NaN normalization raises NumericalError."""
    if not math.isfinite(norm):
        raise NumericalError(f"{what} is not finite ({norm})")
    return norm


def overflow_checked():
    """The floating-point state for computing normalizations that ``_finite`` checks.

    NumPy's overflow and invalid-value warnings are off: a norm that
    overflows is reported once, as a NumericalError. ``igenGK_init`` enters
    it itself; a loop of ``igenGK_step`` calls enters it once around the loop.
    """
    return np.errstate(over="ignore", invalid="ignore")


def _orthogonalize(vec, basis, coefficients):
    """Gram-Schmidt against ``basis``, given its inner-product coefficients.

    ``coefficients(w)`` returns the inner products of w with the basis columns
    in the basis' own inner product (U^T R^{-1} w, or Z^T w = V^T Q w).
    Classical Gram-Schmidt, two passes. Coefficients of both passes are
    accumulated so the expansion vec = basis @ coeffs + remainder stays exact,
    which keeps the factorization residuals at rounding level while the second
    pass restores orthogonality to machine precision.
    """
    coeffs = np.zeros(basis.shape[1])
    for _ in range(2):
        c = coefficients(vec)
        vec = vec - basis @ c
        coeffs += c
    return vec, coeffs


def igenGK_init(A, inexact, prior, noise, b):
    """Initial state: u1 = b / ||b||_{R^{-1}}, v1 from the iteration-1 adjoint.

    Raises DegenerateInputError when b is zero or its adjoint image vanishes,
    and NumericalError when either norm is not finite.
    """
    b = np.asarray(b, dtype=float)
    if b.shape != (A.nrows,):
        raise DimensionError("right-hand side length does not match operator rows")
    with overflow_checked():
        beta1 = _finite(weighted_norm(b, noise.apply_rinv), "beta1")
        if beta1 == 0.0:
            raise DegenerateInputError("right-hand side is zero")
        u1 = b / beta1
        vbar = linop.perturbed_apply_adjoint(A, inexact, 1, noise.apply_rinv(u1))
        qv = prior.Q.apply(vbar)
        c11 = _finite(math.sqrt(max(float(np.dot(vbar, qv)), 0.0)), "c11")
    if c11 <= BREAKDOWN_RTOL * beta1:
        # No column can be built, so there is nothing to solve: an input error.
        raise DegenerateInputError("adjoint of right-hand side is degenerate")
    z1 = None if prior.Q.is_identity else qv / c11
    return BidiagState(u1, vbar / c11, z1, c11, beta1)


def igenGK_step(state, A, inexact, prior, noise):
    """Advance the decomposition by one column pair.

    Iteration i = k+1 computes u_{i+1} from the forward product with Q v_i and
    v_{i+1} from the adjoint product at iteration i+1, each fully
    reorthogonalized in its weighted inner product. The V-side coefficients
    come from Z, so the step applies Q once, to the new v. On breakdown of the
    U-side normalization the projected matrix is committed in square, terminal
    form (its last subdiagonal vanished), so the projected problem built so far
    is still solvable; a BreakdownSignal is raised either way. A normalization
    that is not finite raises NumericalError; call the step under
    ``overflow_checked`` for that to be the only report.
    """
    if state.terminated:
        raise BreakdownSignal("state is terminal")
    i = state.k + 1
    tol = BREAKDOWN_RTOL * state.beta1

    ubar = linop.perturbed_apply(A, inexact, i, state.Z[:, -1])
    U = state.U
    u, mcol = _orthogonalize(ubar, U, lambda w: U.T @ noise.apply_rinv(w))
    norm_u = _finite(weighted_norm(u, noise.apply_rinv), "U-side normalization")
    if norm_u <= tol:
        # Terminal commit: M becomes i-by-i, relations hold with U_i exactly.
        state.M = np.column_stack([state.M, mcol])
        state.terminated = True
        raise BreakdownSignal("U-side normalization vanished")
    Mnew = np.zeros((i + 1, i))
    Mnew[:i, : i - 1] = state.M
    Mnew[:i, i - 1] = mcol
    Mnew[i, i - 1] = norm_u
    unew = u / norm_u

    vbar = linop.perturbed_apply_adjoint(A, inexact, i + 1, noise.apply_rinv(unew))
    Z = state.Z
    v, lrow = _orthogonalize(vbar, state.V, lambda w: Z.T @ w)
    qv = prior.Q.apply(v)
    norm_v = _finite(math.sqrt(max(float(np.dot(v, qv)), 0.0)), "V-side normalization")
    state._U.append(unew)
    state.M = Mnew
    if norm_v <= tol:
        state.terminated = True
        raise BreakdownSignal("V-side normalization vanished")
    Cnew = np.zeros((i + 1, i + 1))
    Cnew[:i, :i] = state.C
    Cnew[:i, i] = lrow
    Cnew[i, i] = norm_v
    state._V.append(v / norm_v)
    if state._Z is not state._V:
        state._Z.append(qv / norm_v)
    state.C = Cnew
    return state


def igenGK_run(A, inexact, prior, noise, b, steps):
    """The one decomposition loop: ``steps`` iterations, stopping gracefully on breakdown.

    Returns the state and "max_iter" or "breakdown". A step only appends to
    M and Z, so every iteration's M and Z are leading blocks of the final ones.
    """
    state = igenGK_init(A, inexact, prior, noise, b)
    reason = "max_iter"
    with overflow_checked():
        for _ in range(steps):
            try:
                igenGK_step(state, A, inexact, prior, noise)
            except BreakdownSignal:
                reason = "breakdown"
                break
    return state, reason


@dataclass
class RelationReport:
    """Relative Frobenius residuals of the factorization relations, exact operator."""

    err_adjoint: float
    err_forward: float
    err_Vorth: float
    err_Uorth: float


def relation_diagnostics(state, exact_op, prior, noise):
    """Residuals of the four factorization relations, using exact products.

    The left-hand sides are evaluated with the exact operator, so with
    inexact decompositions the residuals measure the accumulated injected
    error; with exact ones they sit at rounding level.
    """
    k = min(state.k, state.V.shape[1], state.U.shape[1] - 1)
    if k < 1:
        raise DimensionError("need at least one completed step for diagnostics")
    Uk = state.U[:, :k]
    Vk = state.V[:, :k]
    Lt = state.C[:k, :k]

    rinv_Uk = np.column_stack([noise.apply_rinv(Uk[:, j]) for j in range(k)])
    lhs_adj = np.column_stack([exact_op.apply_adjoint(rinv_Uk[:, j]) for j in range(k)])
    err_adjoint = _rel_fro(lhs_adj - Vk @ Lt, lhs_adj)

    QV = np.column_stack([prior.Q.apply(Vk[:, j]) for j in range(k)])
    lhs_fwd = np.column_stack([exact_op.apply(QV[:, j]) for j in range(k)])
    rhs_fwd = state.U[:, : state.M.shape[0]] @ state.M[:, :k]
    err_forward = _rel_fro(lhs_fwd - rhs_fwd, lhs_fwd)

    gram_v = Vk.T @ QV
    err_Vorth = np.linalg.norm(gram_v - np.eye(k)) / math.sqrt(k)
    Ukk = state.U
    rinv_U = np.column_stack([noise.apply_rinv(Ukk[:, j]) for j in range(Ukk.shape[1])])
    gram_u = Ukk.T @ rinv_U
    err_Uorth = np.linalg.norm(gram_u - np.eye(Ukk.shape[1])) / math.sqrt(Ukk.shape[1])
    return RelationReport(err_adjoint, err_forward, err_Vorth, err_Uorth)


def _rel_fro(resid, ref):
    denom = np.linalg.norm(ref)
    if denom == 0.0:
        return float(np.linalg.norm(resid))
    return float(np.linalg.norm(resid) / denom)
