"""Logistic regression, linear SVM and Platt scaling, fitted by one Newton loop."""

from __future__ import annotations

import numpy as np

from ..errors import NonConvergence


def sigmoid(z):
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[np.logical_not(pos)])
    out[np.logical_not(pos)] = ez / (1.0 + ez)
    return out


# A Newton fit has converged once the gradient norm of the mean loss is at
# most GRADIENT_TOL and the Newton step moves no parameter by more than
# STEP_TOL (relative to the largest parameter when that exceeds 1).
GRADIENT_TOL = 1e-8
STEP_TOL = 1e-6
MAX_NEWTON_STEPS = 100
_EPS = np.finfo(np.float64).eps

# L2 strength of the linear SVM's squared hinge.
SVM_L2 = 1e-4


def _backtrack(objective, loss, slope, noise):
    """Armijo backtracking along a Newton step: the first ``t`` in 1, 1/2,
    1/4, ... whose ``objective(t)[0]`` is at most ``loss + 1e-4 * t * slope
    + noise``, or ``None`` below t = 1e-10. ``slope`` < 0 is the directional
    derivative at t = 0 and ``noise`` the rounding error of the loss, so
    that near the optimum a step whose gain the loss cannot resolve is not
    refused."""
    t = 1.0
    while t >= 1e-10:
        state = objective(t)
        if state[0] <= loss + 1e-4 * t * slope + noise:
            return state
        t *= 0.5
    return None


def _fit_newton(X, terms, lam, name):
    """Damped Newton on ``mean(loss(z)) + lam/2 * |w|^2`` over ``z = X @ w
    + b``; the bias is not regularized. ``terms(z)`` returns the mean loss
    and, per row, its first and second derivatives ``g`` and ``h`` in ``z``.

    Each step solves the (d+1)-square Newton system and backtracks from the
    full step. The fit is converged when the gradient norm is at most
    ``GRADIENT_TOL`` and the Newton step at most ``STEP_TOL``: on separable
    classes without L2 the gradient vanishes while the weights grow without
    bound, so a small gradient alone does not mean an optimum. Raises
    ``NonConvergence``, naming the final gradient norm, after
    ``MAX_NEWTON_STEPS`` steps, on a Hessian that is singular to rounding
    (``lam=0`` with a constant or collinear column), when the line search
    fails and on a non-finite loss. Deterministic for a given input.
    """
    n, d = X.shape
    A = np.empty((n, d + 1))
    A[:, :d] = X
    A[:, d] = 1.0
    abs_A = np.abs(A)
    reg = np.full(d + 1, float(lam))
    reg[d] = 0.0

    def objective(theta):
        loss, g, h = terms(A @ theta)
        return loss + 0.5 * float(reg @ (theta * theta)), g, h, theta

    loss, g, h, theta = objective(np.zeros(d + 1))
    gnorm, moved = float("nan"), 0.0
    failure = f"no optimum within {MAX_NEWTON_STEPS} Newton steps"
    for _ in range(MAX_NEWTON_STEPS):
        grad = A.T @ g / n + reg * theta
        gnorm = float(np.sqrt(grad @ grad))
        if not np.isfinite(loss + gnorm):
            failure = "non-finite loss"
            break
        hess = (A.T * h) @ A / n
        hess[np.diag_indices(d + 1)] += reg
        step = _newton_step(hess, grad)
        if step is None:
            failure = "singular Hessian"
            break
        moved = float(np.max(np.abs(step)))
        if (gnorm <= GRADIENT_TOL
                and moved <= STEP_TOL * max(1.0, float(np.max(np.abs(theta))))):
            return theta[:d], float(theta[d])
        # each logit is off by up to eps * sum_j |A_ij theta_j|, and a
        # row's loss moves by at most max(1, |g|) per unit change of its
        # logit: 1 bounds the logistic slope, |g| is the squared hinge's
        noise = _EPS * float(np.mean(np.maximum(np.abs(g), 1.0)
                                     * (abs_A @ np.abs(theta))))
        state = _backtrack(lambda t: objective(theta - t * step),
                           loss, -float(grad @ step), noise)
        if state is None:
            failure = "line search failed"
            break
        loss, g, h, theta = state
    hint = ("; without l2, separable classes or a constant or collinear "
            "column leave no unique optimum" if lam == 0 else "")
    raise NonConvergence(
        f"{name} fit failed ({failure}): gradient norm {gnorm:.3g}, last "
        f"Newton step {moved:.3g}, loss {loss:.6g}{hint}")


def _logistic_terms(y):
    """``_fit_newton``'s ``terms`` of the logistic loss against ``y`` in [0, 1]."""
    def terms(z):
        p = sigmoid(z)
        return float(np.mean(np.logaddexp(0.0, z) - y * z)), p - y, p * (1.0 - p)

    return terms


def fit_logistic(X, y, lam):
    """``_fit_newton`` (IRLS, Minka 2003) on the logistic loss."""
    return _fit_newton(X, _logistic_terms(y), lam, "logistic")


def fit_squared_hinge(X, y, lam):
    """``_fit_newton`` on the squared hinge ``max(0, 1 - s*z)^2``, ``s = 2y
    - 1``, LIBLINEAR's default linear SVM loss, with the generalized
    Hessian over the rows inside the margin (Keerthi & DeCoste 2005)."""
    s = 2.0 * y - 1.0

    def terms(z):
        slack = np.maximum(1.0 - s * z, 0.0)
        return float(np.mean(slack * slack)), -2.0 * s * slack, 2.0 * (slack > 0.0)

    return _fit_newton(X, terms, lam, "linear SVM")


def _newton_step(hess, grad):
    """``hess^-1 @ grad``, or ``None`` when ``hess`` is singular to rounding.

    The test is scale free. Divide ``hess`` by ``outer(s, s)``, ``s`` the
    square roots of its diagonal; the square of each Cholesky pivot of that
    unit-diagonal matrix is the share of its column that the earlier
    columns do not explain. A pivot below 1e-6, a zero diagonal entry or a
    failed factorization means a column is a combination of others to
    about twelve digits."""
    scale = np.sqrt(np.diag(hess))
    if not scale.min() > 0.0:
        return None
    unit = hess / np.outer(scale, scale)
    try:
        pivots = np.diag(np.linalg.cholesky(unit))
    except np.linalg.LinAlgError:
        return None
    if pivots.min() < 1e-6:
        return None
    return np.linalg.solve(unit, grad / scale) / scale


def train_logistic(X, y, hp, seed):
    w, b = fit_logistic(X, y, lam=hp["l2"])
    return {"weights": w, "bias": b}


def predict_logistic(params, X):
    return sigmoid(X @ params["weights"] + params["bias"])


def _fit_platt(scores, y):
    """Platt scaling (Platt 1999), ``p = sigmoid(-(A*s + B))``: the
    unregularized logistic loss ``sum(t*z + log(1+exp(-z)))``, ``z = A*s +
    B``, of the smoothed targets ``t`` on the one column ``s``, fitted by
    ``_fit_newton`` (after Lin, Lin & Weng 2007) as ``w = -A``, ``b = -B``.
    Identical scores leave no unique optimum and raise ``NonConvergence``."""
    n_pos = float(np.sum(y == 1))
    t = np.where(y == 1, (n_pos + 1.0) / (n_pos + 2.0), 1.0 / (len(y) - n_pos + 2.0))
    w, b = _fit_newton(scores[:, None], _logistic_terms(t), 0.0, "Platt scaling")
    return -float(w[0]), -b


def train_linear_svm(X, y, hp, seed):
    w, b = fit_squared_hinge(X, y, lam=SVM_L2)
    A, B = _fit_platt(X @ w + b, y)
    return {"weights": w, "bias": b, "platt_a": A, "platt_b": B}


def predict_linear_svm(params, X):
    scores = X @ params["weights"] + params["bias"]
    return sigmoid(-(params["platt_a"] * scores + params["platt_b"]))
