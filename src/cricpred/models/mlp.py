"""Three-hidden-layer perceptron (10-10-10, ReLU, sigmoid output) trained
with Adam on L2-regularized binary cross entropy.

Training holds the parameters, their gradient and the Adam moments each in
one flat float64 vector; every layer's ``W`` and ``b`` are reshaped views
of it (``unflatten``), so an Adam step is a few ufunc calls on the whole
vector. A mini-batch step computes only the gradient.

Training stops early on held-out validation loss (Prechelt 1998, "Early
stopping -- but when?"). ``validation_rows`` holds out a seeded tenth of
the training rows, and Adam trains on the rest. After each epoch the mean
cross entropy of the held-out rows is computed, and the parameters with
the lowest one, the initial ones included, are kept. Training stops after
``PATIENCE`` epochs none of which lowers the loss by ``MIN_GAIN``. The
``epochs`` hyperparameter is only a cap: reaching it keeps the best
parameters and warns (``EpochCap``) with how far the rule was from
holding. A loss that is not finite raises ``NonConvergence``.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from ..errors import EpochCap, NonConvergence
from .linear import sigmoid

HIDDEN_UNITS = (10, 10, 10)
MLP_L2 = 1e-4
BATCH_SIZE = 32
ADAM_LEARNING_RATE = 0.001
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# The stopping rule: hold out VALIDATION_FRACTION of the rows, at least
# MIN_VALIDATION_ROWS (below that one row is over a tenth of the mean
# loss) and at most half; stop after PATIENCE epochs that do not lower
# the lowest validation loss by MIN_GAIN.
VALIDATION_FRACTION = 0.1
MIN_VALIDATION_ROWS = 10
MIN_GAIN = 1e-4
PATIENCE = 20


def init_params(n_inputs, seed):
    """He-scaled Gaussian weights, zero biases, from a seeded generator."""
    rng = np.random.default_rng(seed)
    sizes = [n_inputs, *HIDDEN_UNITS, 1]
    params = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        W = rng.standard_normal((fan_in, fan_out)) * np.sqrt(2.0 / fan_in)
        params.append([W, np.zeros(fan_out)])
    return params


def _forward(params, X):
    activations = [X]
    z = None
    for i, (W, b) in enumerate(params):
        z = activations[-1] @ W + b
        if i < len(params) - 1:
            activations.append(np.maximum(z, 0.0))
    return activations, z  # z is the final logit column


def _cross_entropy(logits, y):
    return float(np.mean(np.logaddexp(0.0, logits) - y * logits))


def _loss(params, logits, y, lam):
    return (_cross_entropy(logits, y)
            + 0.5 * lam * sum(float(np.sum(W * W)) for W, _ in params))


def _gradient(params, X, y, lam, grads):
    """Write the gradient of the loss at ``X``, ``y`` (a column) into
    ``grads``, arrays shaped like ``params``; return the logits."""
    activations, logits = _forward(params, X)
    delta = (sigmoid(logits) - y) / X.shape[0]
    for i in range(len(params) - 1, -1, -1):
        W, _ = params[i]
        gW, gb = grads[i]
        np.matmul(activations[i].T, delta, out=gW)
        gW += lam * W
        delta.sum(axis=0, out=gb)
        if i > 0:
            delta = (delta @ W.T) * (activations[i] > 0.0)
    return logits


def mlp_loss_and_gradient(params, X, y, lam):
    """Mean binary cross entropy plus (lam/2)*sum of squared weights.

    Biases are excluded from the penalty. Returns the loss and gradients in
    the same nested structure as ``params``. Pure function.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).reshape(-1, 1)
    grads = [[np.empty_like(W), np.empty_like(b)] for W, b in params]
    logits = _gradient(params, X, y, lam, grads)
    return _loss(params, logits, y, lam), grads


def validation_rows(n, seed):
    """A boolean mask of the rows an ``n``-row training set holds out:
    ``ceil(VALIDATION_FRACTION * n)`` of them, at least
    ``MIN_VALIDATION_ROWS`` and at most ``n // 2``, drawn from the seeded
    stream ``[seed, 2]``, apart from the mini-batch stream ``[seed, 1]``."""
    size = min(max(math.ceil(VALIDATION_FRACTION * n), MIN_VALIDATION_ROWS),
               n // 2)
    held = np.zeros(n, dtype=bool)
    held[np.random.default_rng([seed, 2]).permutation(n)[:size]] = True
    return held


def train_mlp(X, y, hp, seed):
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).reshape(-1, 1)
    held = validation_rows(X.shape[0], seed)
    X_val, y_val = X[held], y[held]
    X, y = X[~held], y[~held]

    template = init_params(X.shape[1], seed)
    theta = flatten(template)
    params = unflatten(theta, template)
    grad = np.zeros_like(theta)
    grads = unflatten(grad, template)
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    step = 0
    rng = np.random.default_rng([seed, 1])
    n = X.shape[0]
    history = [_cross_entropy(_forward(params, X_val)[1], y_val)]
    best_theta = theta.copy()
    best_loss = history[0]
    best_epoch, gain = 0, 0.0
    stale = 0

    for epoch in range(1, hp["epochs"] + 1):
        order = rng.permutation(n)
        for start in range(0, n, BATCH_SIZE):
            batch = order[start:start + BATCH_SIZE]
            _gradient(params, X[batch], y[batch], MLP_L2, grads)
            step += 1
            correction = (np.sqrt(1.0 - ADAM_BETA2 ** step)
                          / (1.0 - ADAM_BETA1 ** step))
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * grad
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * grad * grad
            theta -= (ADAM_LEARNING_RATE * correction) * m / (np.sqrt(v) + ADAM_EPS)
        loss = _cross_entropy(_forward(params, X_val)[1], y_val)
        history.append(loss)
        if not np.isfinite(loss):
            raise NonConvergence(
                f"validation loss diverged; last epochs: {history[-5:]}")
        stale = stale + 1 if loss > best_loss - MIN_GAIN else 0
        if loss < best_loss:
            best_epoch, gain, best_loss = epoch, best_loss - loss, loss
            best_theta[:] = theta
        if stale >= PATIENCE:
            break
    else:
        warnings.warn(EpochCap(
            f"mlp reached its {hp['epochs']}-epoch cap {PATIENCE - stale} "
            f"epochs short of its stopping rule: the validation loss last "
            f"fell, by {gain:.2g} to {best_loss:.4f}, at epoch {best_epoch}, "
            f"and those parameters are kept"), stacklevel=2)
    return {"layers": unflatten(best_theta, template)}


def predict_mlp(params, X):
    logits = _forward(params["layers"], X)[1]
    return sigmoid(logits).ravel()


def flatten(params):
    """Concatenate all parameter arrays into one vector, layer by layer,
    each ``W`` before its ``b``."""
    return np.concatenate([a.ravel() for pair in params for a in pair])


def unflatten(vector, template):
    """Views of ``vector`` shaped like the arrays of ``template``, in
    ``flatten``'s order: writing to one writes to ``vector``."""
    out = []
    pos = 0
    for W, b in template:
        new = []
        for a in (W, b):
            new.append(vector[pos:pos + a.size].reshape(a.shape))
            pos += a.size
        out.append(new)
    return out
