"""Desk-scale models with hand-written gradients.

Both models expose one flat float64 parameter vector, logits, and closed-form
loss_and_grad (softmax cross entropy averaged over the batch).  Both take an
optional leading client axis: w (B, d), X (B, n, F) and y (B, n) give each
client's logits, loss and gradient, each bit-identical to a call on that
client alone (the products are per-client matrix products, the reductions
run over the same axis in the same order).
The MLP's gradient keeps its (B, n, H) activations and backward signal in
one buffer, updated in place, and writes each parameter block's gradient
straight into the (B, d) result, with the float operations of the plain
expressions: fedpm trains a stack for every local step, and each more
array of that size costs it peak memory and page faults.  Every returned
array is new, so a caller may update it in place.
Gradients are deliberately manual: nothing here depends on an autodiff
framework, and the test suite checks every path against central finite
differences.  The hidden layer uses tanh so the finite-difference checks see
a smooth function everywhere.
"""

from __future__ import annotations

import numpy as np

from .streams import SampleStream


def softmax_rows(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    out = np.zeros((labels.shape[0], num_classes))
    out[np.arange(labels.shape[0]), labels.astype(np.int64)] = 1.0
    return out


def _t(a: np.ndarray) -> np.ndarray:
    """The transpose of each matrix of a stack (of one matrix: a.T)."""
    return np.swapaxes(a, -1, -2)


def _flat(a: np.ndarray) -> np.ndarray:
    """Each matrix of a stack as one row (of one matrix: a.ravel())."""
    return a.reshape(a.shape[:-2] + (-1,))


def _stack(a: np.ndarray) -> np.ndarray:
    """The matrices of a stack as a (B, r, c) view (of one matrix: B = 1)."""
    return a.reshape((-1,) + a.shape[-2:])


def _cross_entropy(logits: np.ndarray, y: np.ndarray):
    """Softmax cross entropy averaged over each batch, and its gradient with
    respect to the logits; the loss is a float, or one per client of a stack."""
    probs = softmax_rows(logits)
    targets = one_hot(y.ravel(), logits.shape[-1]).reshape(probs.shape)
    # clip only inside the log; the gradient uses the exact probs
    picked = probs[targets == 1.0].reshape(y.shape)
    loss = -np.log(np.clip(picked, 1e-12, None)).mean(axis=-1)
    return (float(loss) if loss.ndim == 0 else loss), (probs - targets) / logits.shape[-2]


class LogisticModel:
    """Multinomial logistic regression; params are [W (C x F) | b (C)] flat."""

    kind = "logistic"

    def __init__(self, num_features: int, num_classes: int):
        if num_features < 1 or num_classes < 2:
            raise ValueError(f"bad shape: {num_features} features, {num_classes} classes")
        self.num_features = num_features
        self.num_classes = num_classes

    @property
    def dim(self) -> int:
        return self.num_classes * (self.num_features + 1)

    def init_params(self, stream: SampleStream) -> np.ndarray:
        return 0.1 * stream.gaussians(self.dim)

    def _unpack(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        cut = self.num_classes * self.num_features
        weight = w[..., :cut].reshape(w.shape[:-1] + (self.num_classes, self.num_features))
        bias = w[..., None, cut:]
        return weight, bias

    def logits(self, w: np.ndarray, X: np.ndarray) -> np.ndarray:
        weight, bias = self._unpack(w)
        return X @ _t(weight) + bias

    def loss_and_grad(self, w: np.ndarray, X: np.ndarray, y: np.ndarray):
        loss, delta = _cross_entropy(self.logits(w, X), y)
        grad_w = _t(delta) @ X
        grad_b = delta.sum(axis=-2)
        return loss, np.concatenate([_flat(grad_w), grad_b], axis=-1)


class MLPModel:
    """One tanh hidden layer; params are [W1 (H x F) | b1 | W2 (C x H) | b2]."""

    kind = "mlp"

    def __init__(self, num_features: int, num_classes: int, hidden_units: int = 64):
        if hidden_units < 1:
            raise ValueError(f"hidden_units must be positive: {hidden_units}")
        self.num_features = num_features
        self.num_classes = num_classes
        self.hidden_units = hidden_units

    @property
    def dim(self) -> int:
        h, f, c = self.hidden_units, self.num_features, self.num_classes
        return h * f + h + c * h + c

    def init_params(self, stream: SampleStream) -> np.ndarray:
        h, f, c = self.hidden_units, self.num_features, self.num_classes
        w1 = stream.gaussians(h * f) / np.sqrt(f)
        b1 = np.zeros(h)
        w2 = stream.gaussians(c * h) / np.sqrt(h)
        b2 = np.zeros(c)
        return np.concatenate([w1, b1, w2.ravel(), b2])

    def _unpack(self, w: np.ndarray):
        h, f, c = self.hidden_units, self.num_features, self.num_classes
        lead = w.shape[:-1]
        i = 0
        w1 = w[..., i : i + h * f].reshape(lead + (h, f)); i += h * f
        b1 = w[..., None, i : i + h]; i += h
        w2 = w[..., i : i + c * h].reshape(lead + (c, h)); i += c * h
        b2 = w[..., None, i : i + c]
        return w1, b1, w2, b2

    def logits(self, w: np.ndarray, X: np.ndarray) -> np.ndarray:
        w1, b1, w2, b2 = self._unpack(w)
        hidden = np.tanh(X @ _t(w1) + b1)
        return hidden @ _t(w2) + b2

    def loss_and_grad(self, w: np.ndarray, X: np.ndarray, y: np.ndarray):
        w1, b1, w2, b2 = self._unpack(w)
        # one ([B,] n, H) buffer holds the activations, then 1 - hidden**2,
        # then the backward signal, each step in place with the float ops of
        # tanh(X @ w1.T + b1) and (delta @ w2) * (1 - hidden**2)
        hidden = X @ _t(w1)
        hidden += b1
        np.tanh(hidden, out=hidden)
        loss, delta = _cross_entropy(hidden @ _t(w2) + b2, y)  # delta: ([B,] n, C)
        grad = np.empty(w.shape)
        g_w1, g_b1, g_w2, g_b2 = self._unpack(grad)
        np.matmul(_t(delta), hidden, out=g_w2)  # ([B,] C, H)
        np.sum(delta, axis=-2, keepdims=True, out=g_b2)
        np.square(hidden, out=hidden)
        np.subtract(1.0, hidden, out=hidden)
        # back = (delta @ w2) * (1 - hidden**2) replaces hidden, one client's
        # product at a time, so no second ([B,] n, H) array is live
        back = hidden
        scratch = np.empty(back.shape[-2:])
        for back_b, delta_b, w2_b in zip(_stack(back), _stack(delta), _stack(w2)):
            back_b *= np.matmul(delta_b, w2_b, out=scratch)
        np.matmul(_t(back), X, out=g_w1)
        np.sum(back, axis=-2, keepdims=True, out=g_b1)
        return loss, grad


def build_model(kind: str, num_features: int, num_classes: int, hidden_units: int = 64):
    if kind == "logistic":
        return LogisticModel(num_features, num_classes)
    if kind == "mlp":
        return MLPModel(num_features, num_classes, hidden_units)
    raise ValueError(f"unknown model kind: {kind}")


def evaluate_accuracy(model, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
    return float((model.logits(w, X).argmax(axis=1) == y.astype(np.int64)).mean())
