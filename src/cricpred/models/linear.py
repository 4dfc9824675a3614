"""Logistic regression and linear SVM with Platt-calibrated probabilities."""

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


# A logistic fit has converged once the gradient norm of the mean loss is
# at most GRADIENT_TOL and the Newton step moves no parameter by more than
# STEP_TOL (relative to the largest parameter when that exceeds 1).
GRADIENT_TOL = 1e-8
STEP_TOL = 1e-6
MAX_NEWTON_STEPS = 100
_EPS = np.finfo(np.float64).eps


def _bce_loss(z, y):
    # mean binary cross entropy from logits: softplus(z) - y*z
    return float(np.mean(np.logaddexp(0.0, z) - y * z))


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


def fit_logistic(X, y, lam):
    """Damped Newton (IRLS) on the L2-regularized mean logistic loss.

    Minimizes ``mean(softplus(z) - y*z) + lam/2 * |w|^2`` over ``z = X @ w
    + b``; the bias is not regularized. Each step solves the (d+1)-square
    Newton system and backtracks from the full step (Minka 2003). The fit
    is converged when the gradient norm is at most ``GRADIENT_TOL`` and the
    Newton step at most ``STEP_TOL``: on separable classes without L2 the
    gradient vanishes while the weights grow without bound, so a small
    gradient alone does not mean an optimum. Raises ``NonConvergence``,
    naming the final gradient norm, after ``MAX_NEWTON_STEPS`` steps, on a
    Hessian that is singular to rounding (``lam=0`` with a constant or
    collinear column), when the line search fails and on a non-finite
    loss. Deterministic for a given input.
    """
    n, d = X.shape
    A = np.empty((n, d + 1))
    A[:, :d] = X
    A[:, d] = 1.0
    abs_A = np.abs(A)
    reg = np.full(d + 1, float(lam))
    reg[d] = 0.0

    def objective(theta):
        z = A @ theta
        return _bce_loss(z, y) + 0.5 * float(reg @ (theta * theta)), z, theta

    loss, z, theta = objective(np.zeros(d + 1))
    gnorm, moved = float("nan"), 0.0
    failure = f"no optimum within {MAX_NEWTON_STEPS} Newton steps"
    for _ in range(MAX_NEWTON_STEPS):
        p = sigmoid(z)
        grad = A.T @ (p - y) / n + reg * theta
        gnorm = float(np.sqrt(grad @ grad))
        if not np.isfinite(loss + gnorm):
            failure = "non-finite loss"
            break
        hess = (A.T * (p * (1.0 - p))) @ A / n
        hess[np.diag_indices(d + 1)] += reg
        step = _newton_step(hess, grad)
        if step is None:
            failure = "singular Hessian"
            break
        moved = float(np.max(np.abs(step)))
        if (gnorm <= GRADIENT_TOL
                and moved <= STEP_TOL * max(1.0, float(np.max(np.abs(theta))))):
            return theta[:d], float(theta[d])
        # each logit is off by up to eps * sum_j |A_ij theta_j|, and the
        # loss moves by at most that much per unit change of a logit
        noise = _EPS * float(np.mean(abs_A @ np.abs(theta)))
        state = _backtrack(lambda t: objective(theta - t * step),
                           loss, -float(grad @ step), noise)
        if state is None:
            failure = "line search failed"
            break
        loss, z, theta = state
    hint = ("; without l2, separable classes or a constant or collinear "
            "column leave no unique optimum" if lam == 0 else "")
    raise NonConvergence(
        f"logistic fit failed ({failure}): gradient norm {gnorm:.3g}, last "
        f"Newton step {moved:.3g}, loss {loss:.6g}{hint}")


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
    X = np.asarray(X, dtype=np.float64)
    return sigmoid(X @ np.asarray(params["weights"]) + params["bias"])


def _fit_platt(scores, y, max_iter=100):
    """Platt scaling: fit p = sigmoid(-(A*s + B)) by Newton's method with
    backtracking (Lin, Lin & Weng 2007).

    Uses the standard smoothed targets so the calibrator is well defined
    even on perfectly separated scores; a 1e-12 ridge on the Hessian
    diagonal keeps the 2x2 system solvable when all scores are equal. Stops
    once a Newton step moves A and B by less than 1e-12; raises
    ``NonConvergence`` when the Hessian is singular to rounding, when the
    line search fails or after ``max_iter`` steps.
    """
    n_pos = float(np.sum(y == 1))
    n_neg = float(len(y) - n_pos)
    hi = (n_pos + 1.0) / (n_pos + 2.0)
    lo = 1.0 / (n_neg + 2.0)
    t = np.where(y == 1, hi, lo)
    abs_scores = float(np.sum(np.abs(scores)))

    def objective(A, B):
        # sum(t*z + log(1+exp(-z))), the cross entropy against t
        z = A * scores + B
        return float(np.sum(t * z + np.logaddexp(0.0, -z))), z, A, B

    loss, z, A, B = objective(0.0, np.log((n_neg + 1.0) / (n_pos + 1.0)))
    for _ in range(max_iter):
        p = sigmoid(-z)
        d1 = t - p
        g_a = float(np.sum(d1 * scores))
        g_b = float(np.sum(d1))
        w = p * (1.0 - p)
        h_aa = float(np.sum(w * scores * scores)) + 1e-12
        h_ab = float(np.sum(w * scores))
        h_bb = float(np.sum(w)) + 1e-12
        det = h_aa * h_bb - h_ab * h_ab
        if not det > 0.0:
            raise NonConvergence(
                f"Platt scaling failed: singular Hessian (determinant {det:.3g}) "
                f"at gradient ({g_a:.3g}, {g_b:.3g})")
        dA = (h_bb * g_a - h_ab * g_b) / det
        dB = (h_aa * g_b - h_ab * g_a) / det
        noise = _EPS * (abs(A) * abs_scores + len(scores) * abs(B))
        state = _backtrack(lambda s: objective(A - s * dA, B - s * dB),
                           loss, -(g_a * dA + g_b * dB), noise)
        if state is None:
            raise NonConvergence(
                f"Platt scaling failed: line search failed at gradient "
                f"({g_a:.3g}, {g_b:.3g})")
        loss, z, A, B = state
        if abs(dA) < 1e-12 and abs(dB) < 1e-12:
            return A, B
    raise NonConvergence(
        f"Platt scaling did not converge in {max_iter} Newton steps: "
        f"gradient ({g_a:.3g}, {g_b:.3g}), last step ({dA:.3g}, {dB:.3g})")


def train_linear_svm(X, y, hp, seed):
    """Pegasos-style stochastic subgradient descent on the hinge loss."""
    n, d = X.shape
    lam = hp["l2"]
    epochs = hp["epochs"]
    # row views and Python-float signs: indexing an array per step costs
    # more than the step's arithmetic
    rows = list(X)
    signs = np.where(y == 1, 1.0, -1.0).tolist()
    rng = np.random.default_rng(seed)
    w = np.zeros(d)
    b = 0.0
    t = 0
    for _ in range(epochs):
        for i in rng.permutation(n).tolist():
            t += 1
            eta = 1.0 / (lam * t)
            sign, row = signs[i], rows[i]
            margin = sign * (float(row @ w) + b)
            w *= 1.0 - eta * lam
            if margin < 1.0:
                w += eta * sign * row
                b += eta * sign
    scores = X @ w + b
    A, B = _fit_platt(scores, y)
    return {"weights": w, "bias": b, "platt_a": A, "platt_b": B}


def predict_linear_svm(params, X):
    X = np.asarray(X, dtype=np.float64)
    scores = X @ np.asarray(params["weights"]) + params["bias"]
    return sigmoid(-(params["platt_a"] * scores + params["platt_b"]))
