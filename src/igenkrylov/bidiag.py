"""Golub-Kahan-type decompositions with weighted inner products and inexact products.

One engine covers the four variants: the classic process (Q = I, R = I, exact
products), its inexact counterpart, the generalized process orthogonal in the
R^{-1} and Q inner products, and the inexact generalized process. With exact
products the projected matrix is numerically bidiagonal; with inexact products
it fills in to upper Hessenberg, and the adjoint-side coefficients fill a
triangular matrix, which is what keeps the bases orthonormal at machine
precision regardless of the error level. Iteration k makes the adjoint product
that gives v_k, then the forward product that gives u_{k+1}, so a k-step state
holds U_{k+1}, V_k, M_k and L_k, all that the factorization relations use.
A breakdown is not an error: the step sets the state's ``terminated`` flag.
"""

import math
from typing import NamedTuple

import numpy as np

from . import linop
from .errors import InputError, NumericalError
from .prior import IdentityCovariance, weighted_norm

# A normalization at most BREAKDOWN_RTOL times its column's norm stops the recurrence.
BREAKDOWN_RTOL = 1e-14


class BidiagState:
    """Iteration-k factorization state, in buffers allocated once for the run.

    U has k+1 columns orthonormal in the R^{-1} inner product and V has k
    columns orthonormal in the Q inner product. Z = Q V column by column:
    each column is the covariance product made when its V column was
    normalized, kept so that no later use of Q V applies Q again. M is the
    (k+1)-by-k projected matrix, C = L^T the k-by-k upper triangular
    adjoint-side coefficient matrix. After a terminal U-side breakdown M is
    square and U has k columns (the subdiagonal entry vanished and no new U
    column exists).

    Every array is a buffer sized for ``capacity`` steps, and U, V, Z, M and
    C are views of its filled part, so a step writes its columns in place
    and never moves one; a view taken before a later step does not see that
    step's columns. The bases are column-major and uninitialized, so the
    columns a run never reaches take no resident memory; the small M and C
    are row-major, the layout whose BLAS calls give the projected residual
    M y its rounding. When Q is an ``IdentityCovariance``, Z is V and shares
    its buffer. ``terminated`` is set when a breakdown ends the recurrence.
    """

    def __init__(self, nrows, ncols, capacity, identity_cov, beta1):
        self._U = np.empty((nrows, capacity + 1), order="F")
        self._V = np.empty((ncols, capacity), order="F")
        self._Z = self._V if identity_cov else np.empty((ncols, capacity), order="F")
        self._M = np.zeros((capacity + 1, capacity))
        self._C = np.zeros((capacity, capacity))
        self.beta1 = beta1
        self.k = 0
        self._ucols = 1
        self.terminated = False

    capacity = property(lambda self: self._V.shape[1])
    U = property(lambda self: self._U[:, : self._ucols])
    V = property(lambda self: self._V[:, : self.k])
    Z = property(lambda self: self._Z[:, : self.k])
    M = property(lambda self: self._M[: self._ucols, : self.k])
    C = property(lambda self: self._C[: self.k, : self.k])


def _finite(norm, what):
    """``norm`` if it is finite; an overflowed (inf) or NaN normalization raises NumericalError."""
    if not math.isfinite(norm):
        raise NumericalError(f"{what} is not finite ({norm})")
    return norm


def overflow_checked():
    """The floating-point state for computing normalizations that ``_finite`` checks.

    NumPy's overflow and invalid-value warnings are off: an overflowing norm is
    reported once, as a NumericalError. ``igenGK_init`` and ``igenGK_run`` enter
    it; any other loop of ``igenGK_step`` calls enters it once around the loop.
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


def igenGK_init(A, Q, noise, b, steps):
    """Initial state of a run of ``steps`` iterations: u1 = b / ||b||_{R^{-1}}, no V column yet.

    The state's buffers are allocated once, for capacity = min(steps, m, n)
    steps: past min(m, n) every new v must vanish, so a longer run makes the
    adjoint product of one more step and stops there. Raises InputError
    when b is zero, and NumericalError when the norm of b is not finite.
    """
    b = np.asarray(b, dtype=float)
    capacity = max(min(steps, A.nrows, A.ncols), 0)
    with overflow_checked():
        beta1 = _finite(weighted_norm(b, noise.apply_rinv(b)), "beta1")
        if beta1 == 0.0:
            raise InputError("right-hand side is zero")
        identity = isinstance(Q, IdentityCovariance)
        state = BidiagState(A.nrows, A.ncols, capacity, identity, beta1)
        np.divide(b, beta1, out=state._U[:, 0])
    return state


def igenGK_step(state, A, inexact, Q, noise):
    """Advance the decomposition by one column pair.

    Iteration i = k+1 first computes v_i from the adjoint product at
    iteration i with R^{-1} u_i, then u_{i+1} from the forward product at
    iteration i with z_i = Q v_i, each fully reorthogonalized in its weighted
    inner product. The V-side coefficients come from Z, so the step applies
    Q once, to the new v. A normalization at most ``BREAKDOWN_RTOL`` times the
    norm of its column of C or M (the weighted norm of its vector before
    orthogonalization) vanishes, whatever the scale of b. A vanishing v at
    i = 1 (an exactly zero A^T R^{-1} b) raises InputError; later it ends the
    recurrence with the state of iteration k. On breakdown of the U-side
    normalization the projected matrix is committed in square, terminal form
    (its last subdiagonal vanished), so the projected problem built so far is
    still solvable. Either breakdown sets ``terminated`` and returns the
    state; stepping a terminated state returns it unchanged. A normalization
    that is not finite, or a v_i that does not vanish past the state's
    capacity (orthogonality lost), raises NumericalError; call the step under
    ``overflow_checked`` for that to be the only report.
    """
    if state.terminated:
        return state
    i = state.k + 1

    vbar = linop.perturbed_apply_adjoint(A, inexact, i, noise.apply_rinv(state.U[:, -1]))
    Z = state.Z
    v, lcol = _orthogonalize(vbar, state.V, lambda w: Z.T @ w)
    qv = Q.apply(v)
    norm_v = _finite(weighted_norm(v, qv), "V-side normalization")
    if norm_v <= BREAKDOWN_RTOL * math.hypot(norm_v, np.linalg.norm(lcol)):
        if i == 1:
            # No column can be built, so there is nothing to solve: an input error.
            raise InputError("adjoint of right-hand side is degenerate")
        state.terminated = True
        return state
    if i > state.capacity:
        raise NumericalError(
            f"v_{i} does not vanish past the {state.capacity} columns of the state: "
            "orthogonality lost"
        )
    state._C[: i - 1, i - 1] = lcol
    state._C[i - 1, i - 1] = norm_v
    np.divide(v, norm_v, out=state._V[:, i - 1])
    if state._Z is not state._V:
        np.divide(qv, norm_v, out=state._Z[:, i - 1])
    state.k = i

    ubar = linop.perturbed_apply(A, inexact, i, state._Z[:, i - 1])
    U = state.U
    u, mcol = _orthogonalize(ubar, U, lambda w: U.T @ noise.apply_rinv(w))
    norm_u = _finite(weighted_norm(u, noise.apply_rinv(u)), "U-side normalization")
    state._M[:i, i - 1] = mcol
    if norm_u <= BREAKDOWN_RTOL * math.hypot(norm_u, np.linalg.norm(mcol)):
        # Terminal commit: M stays i-by-i, relations hold with U_i exactly.
        state.terminated = True
        return state
    state._M[i, i - 1] = norm_u
    np.divide(u, norm_u, out=state._U[:, i])
    state._ucols = i + 1
    return state


def igenGK_run(A, inexact, Q, noise, b, steps):
    """The one decomposition loop: ``steps`` iterations, stopping gracefully on breakdown.

    Returns the state; its ``terminated`` says whether a breakdown ended the
    run before ``steps`` iterations. A k-step run makes k step calls, one more
    when a breakdown on the V side ends it. A step only writes new columns of
    M and Z, so every iteration's M and Z are leading blocks of the final ones.
    """
    state = igenGK_init(A, Q, noise, b, steps)
    with overflow_checked():
        while state.k < steps and not state.terminated:
            igenGK_step(state, A, inexact, Q, noise)
    return state


class RelationReport(NamedTuple):
    """Relative Frobenius residuals of the factorization relations, exact operator."""

    err_adjoint: float
    err_forward: float
    err_Vorth: float
    err_Uorth: float


def relation_diagnostics(state, exact_op, Q, noise):
    """Residuals of the four factorization relations, using exact products.

    The left-hand sides are evaluated with the exact operator, so with
    inexact decompositions the residuals measure the accumulated injected
    error; with exact ones they sit at rounding level. All k columns are
    checked, also after a U-side breakdown, where M is square.
    """
    k = state.k
    U, Vk = state.U, state.V

    rinv_U = noise.apply_rinv(U)
    lhs_adj = np.column_stack([exact_op.apply_adjoint(rinv_U[:, j]) for j in range(k)])
    err_adjoint = _rel_fro(lhs_adj - Vk @ state.C, lhs_adj)

    QV = np.column_stack([Q.apply(Vk[:, j]) for j in range(k)])
    lhs_fwd = np.column_stack([exact_op.apply(QV[:, j]) for j in range(k)])
    err_forward = _rel_fro(lhs_fwd - U @ state.M, lhs_fwd)

    gram_v = Vk.T @ QV
    err_Vorth = np.linalg.norm(gram_v - np.eye(k)) / math.sqrt(k)
    gram_u = U.T @ rinv_U
    err_Uorth = np.linalg.norm(gram_u - np.eye(U.shape[1])) / math.sqrt(U.shape[1])
    return RelationReport(err_adjoint, err_forward, err_Vorth, err_Uorth)


def _rel_fro(resid, ref):
    return float(np.linalg.norm(resid) / (np.linalg.norm(ref) or 1.0))
