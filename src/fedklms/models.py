"""Desk-scale models with hand-written gradients.

Both models expose one flat float64 parameter vector, logits, and closed-form
loss_and_grad (softmax cross entropy averaged over the batch).
Gradients are deliberately manual: nothing here depends on an autodiff
framework, and the test suite checks every path against central finite
differences.  The hidden layer uses tanh so the finite-difference checks see
a smooth function everywhere.
"""

from __future__ import annotations

import numpy as np

from .streams import SampleStream


def softmax_rows(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    out = np.zeros((labels.shape[0], num_classes))
    out[np.arange(labels.shape[0]), labels.astype(np.int64)] = 1.0
    return out


def _cross_entropy(logits: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Softmax cross entropy averaged over the batch, and its gradient with
    respect to the logits."""
    probs = softmax_rows(logits)
    targets = one_hot(y, logits.shape[1])
    # clip only inside the log; the gradient uses the exact probs
    loss = -np.log(np.clip(probs[targets == 1.0], 1e-12, None)).mean()
    return float(loss), (probs - targets) / logits.shape[0]


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
        weight = w[:cut].reshape(self.num_classes, self.num_features)
        bias = w[cut:]
        return weight, bias

    def logits(self, w: np.ndarray, X: np.ndarray) -> np.ndarray:
        weight, bias = self._unpack(w)
        return X @ weight.T + bias

    def loss_and_grad(
        self, w: np.ndarray, X: np.ndarray, y: np.ndarray
    ) -> tuple[float, np.ndarray]:
        loss, delta = _cross_entropy(self.logits(w, X), y)
        grad_w = delta.T @ X
        grad_b = delta.sum(axis=0)
        return loss, np.concatenate([grad_w.ravel(), grad_b])


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
        i = 0
        w1 = w[i : i + h * f].reshape(h, f); i += h * f
        b1 = w[i : i + h]; i += h
        w2 = w[i : i + c * h].reshape(c, h); i += c * h
        b2 = w[i : i + c]
        return w1, b1, w2, b2

    def logits(self, w: np.ndarray, X: np.ndarray) -> np.ndarray:
        w1, b1, w2, b2 = self._unpack(w)
        hidden = np.tanh(X @ w1.T + b1)
        return hidden @ w2.T + b2

    def loss_and_grad(
        self, w: np.ndarray, X: np.ndarray, y: np.ndarray
    ) -> tuple[float, np.ndarray]:
        w1, b1, w2, b2 = self._unpack(w)
        pre = X @ w1.T + b1
        hidden = np.tanh(pre)
        loss, delta = _cross_entropy(hidden @ w2.T + b2, y)  # delta: (n, C)
        grad_w2 = delta.T @ hidden              # (C, H)
        grad_b2 = delta.sum(axis=0)
        back = (delta @ w2) * (1.0 - hidden**2)  # (n, H)
        grad_w1 = back.T @ X
        grad_b1 = back.sum(axis=0)
        grad = np.concatenate(
            [grad_w1.ravel(), grad_b1, grad_w2.ravel(), grad_b2]
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
