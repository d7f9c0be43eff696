"""Desk-scale models with hand-written gradients.

Both models expose one flat float64 parameter vector, logits, and closed-form
loss_and_grad (softmax cross entropy averaged over the batch).  Both take an
optional leading client axis: w (B, d), X (B, n, F) and y (B, n) give each
client's logits, loss and gradient, each bit-identical to a call on that
client alone (the products are per-client matrix products, the reductions
run over the same axis in the same order).
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
        pre = X @ _t(w1) + b1
        hidden = np.tanh(pre)
        loss, delta = _cross_entropy(hidden @ _t(w2) + b2, y)  # delta: ([B,] n, C)
        grad_w2 = _t(delta) @ hidden            # ([B,] C, H)
        grad_b2 = delta.sum(axis=-2)
        back = (delta @ w2) * (1.0 - hidden**2)  # ([B,] n, H)
        grad_w1 = _t(back) @ X
        grad_b1 = back.sum(axis=-2)
        grad = np.concatenate(
            [_flat(grad_w1), grad_b1, _flat(grad_w2), grad_b2], axis=-1
        )
        return loss, grad


def build_model(kind: str, num_features: int, num_classes: int, hidden_units: int = 64):
    if kind == "logistic":
        return LogisticModel(num_features, num_classes)
    if kind == "mlp":
        return MLPModel(num_features, num_classes, hidden_units)
    raise ValueError(f"unknown model kind: {kind}")


def evaluate_accuracy(model, w: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
    return float((model.logits(w, X).argmax(axis=1) == y.astype(np.int64)).mean())
