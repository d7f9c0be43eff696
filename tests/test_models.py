"""Manual gradients against central finite differences, plus shape oracles."""

import numpy as np
import pytest

from fedklms.models import (
    LogisticModel,
    MLPModel,
    build_model,
    evaluate_accuracy,
    one_hot,
    softmax_rows,
)
from fedklms.streams import StreamKey, derive_stream


def stream(tag, value=0):
    return derive_stream(StreamKey(4242, ((tag, value),)))


def finite_difference(model, w, X, y, coords, h=1e-5):
    out = np.empty(len(coords))
    for j, i in enumerate(coords):
        wp = w.copy(); wp[i] += h
        wm = w.copy(); wm[i] -= h
        lp, _ = model.loss_and_grad(wp, X, y)
        lm, _ = model.loss_and_grad(wm, X, y)
        out[j] = (lp - lm) / (2 * h)
    return out


@pytest.mark.parametrize(
    "model",
    [LogisticModel(7, 3), MLPModel(7, 3, hidden_units=5)],
    ids=["logistic", "mlp"],
)
def test_gradients_match_finite_differences(model):
    s = stream("fd", model.dim)
    w = 0.5 * s.gaussians(model.dim) if isinstance(model, LogisticModel) else model.init_params(s)
    n = 12
    X = stream("fd-x").gaussians(n * 7).reshape(n, 7)
    y = stream("fd-y").integers(n, 3)
    _, grad = model.loss_and_grad(w, X, y)
    probe = stream("fd-probe").permutation(model.dim)[:25]
    numeric = finite_difference(model, w, X, y, probe)
    assert grad[probe] == pytest.approx(numeric, rel=1e-5, abs=1e-8)


@pytest.mark.parametrize("clients", [1, 3])
@pytest.mark.parametrize(
    "model",
    [LogisticModel(7, 3), MLPModel(7, 3, hidden_units=5)],
    ids=["logistic", "mlp"],
)
def test_stacked_calls_equal_one_call_per_client(model, clients):
    # a leading client axis gives each client exactly its own call's result
    n = 9
    w = 0.5 * stream("stack-w").gaussians(clients * model.dim).reshape(clients, model.dim)
    X = stream("stack-x").gaussians(clients * n * 7).reshape(clients, n, 7)
    y = stream("stack-y").integers(clients * n, 3).reshape(clients, n)
    loss, grad = model.loss_and_grad(w, X, y)
    logits = model.logits(w, X)
    assert loss.shape == (clients,) and grad.shape == (clients, model.dim)
    for b in range(clients):
        one_loss, one_grad = model.loss_and_grad(w[b], X[b], y[b])
        assert type(one_loss) is float and loss[b] == one_loss
        assert np.array_equal(grad[b], one_grad)
        assert np.array_equal(logits[b], model.logits(w[b], X[b]))


def test_dim_frozen():
    assert LogisticModel(20, 2).dim == 42
    assert MLPModel(4, 3, hidden_units=5).dim == 5 * 4 + 5 + 3 * 5 + 3


def test_softmax_rows_normalized():
    z = stream("sm").gaussians(30).reshape(10, 3) * 20.0
    p = softmax_rows(z)
    assert p.sum(axis=1) == pytest.approx(np.ones(10), abs=1e-12)
    assert np.all(p >= 0)


def test_one_hot():
    oh = one_hot(np.array([0, 2]), 3)
    assert np.array_equal(oh, [[1, 0, 0], [0, 0, 1]])


def test_untrained_accuracy_near_chance():
    # random 10-class labels, fresh model: top-1 should sit at chance level
    model = LogisticModel(8, 10)
    w = np.zeros(model.dim)
    X = stream("chance-x").gaussians(1000 * 8).reshape(1000, 8)
    y = stream("chance-y").integers(1000, 10)
    acc = evaluate_accuracy(model, w, X, y)
    assert 0.07 <= acc <= 0.13


def test_sgd_fits_small_problem():
    # a few hundred plain SGD steps drive the training loss near zero on a
    # separable toy, for both models
    from fedklms.data import make_separable

    ds = make_separable(60, 5, margin=1.0, stream=stream("fit-data"))
    for kind in ("logistic", "mlp"):
        model = build_model(kind, 5, 2, hidden_units=16)
        w = model.init_params(stream("fit-init", hash(kind) % 100))
        for _ in range(300):
            _, g = model.loss_and_grad(w, ds.features, ds.labels)
            w -= 0.5 * g
        assert evaluate_accuracy(model, w, ds.features, ds.labels) == 1.0


def test_build_model_rejects_unknown_kind():
    with pytest.raises(ValueError):
        build_model("transformer", 4, 2)
