"""Deterministic federated simulator.

One process plays the server and every client.  All randomness flows from the
config seed through labeled stream keys, so a rerun of the same config is
bit-identical, including the metrics files.

Per round: sample participants without replacement and train them as stacks:
participants with equal shard sizes run their local computation as one stack
(equal shards give one stack a round), each drawing its minibatches from its
own stream, so every client's result is bit-identical to training it alone.
Then turn each result into a message (codec-compressed, method-specific
baseline, or raw), pass every compressed message through the real wire format,
decode, aggregate in participant order, evaluate.  Bits are accounted per
client message and averaged into bits per parameter (payload = the
index/sign/level content; total additionally counts codec header and
block-location overhead).

Every method-specific step lives in one table, _METHODS, with one _Method
entry per method, and no other code names a method.  `none` is the qsgd
entry with the raw float32 delta as its message and no codec pair, so it
runs the same under either variant.  _client_message is the client step of
one stack, _send one client's message, native or one codec round trip
(fedklms.codec.transmit), and _aggregate the fold shared by every method;
the block partition's lifecycle, location rounds included, is the codec's
(see fedklms.codec.transmit and next_partition).

mean_kl_per_param is the mean over the round's clients of each one's own
KL per parameter (its exact mean block KL * num_blocks / d), which
fedklms.codec.transmit returns with the message.  It is neither read off the
wire, which carries only which side of the KL band each client is on, nor
recomputed; for non-codec variants it is reported as 0.0.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .codec import BlockPartition, EncodedUpdate, next_partition, transmit
from .config import ExperimentConfig
from .data import (
    Dataset,
    load_csv,
    load_idx_pair,
    make_blobs,
    make_separable,
    split_iid,
    split_skewed,
)
from .distributions import UniformSign, _check_coordinates
from .methods import (
    FLOAT32_BITS,
    FedPMState,
    bayes_agg,
    elias_gamma_bits,
    fedpm_client_train,
    fedpm_codec_pair,
    fedpm_sample_mask,
    local_iterations,
    minibatches,
    qsgd_client_distribution,
    qsgd_klms_global,
    qsgd_quantize,
    sgld_client_distributions,
    sgld_server_step,
    signsgd_client_distribution,
    signsgd_temperature,
)
from .models import build_model, evaluate_accuracy
from .streams import StreamKey, derive_stream

@dataclass
class RoundMetrics:
    round_index: int
    bpp_payload: float
    bpp_total: float
    accuracy: float
    mean_kl_per_param: float
    partition_updated: bool
    total_bits: int  # summed over the round's messages; not a CSV column
    payload_bits: int

    def csv_row(self) -> str:
        return (
            f"{self.round_index},{self.bpp_payload!r},{self.bpp_total!r},"
            f"{self.accuracy!r},{self.mean_kl_per_param!r},"
            f"{'true' if self.partition_updated else 'false'}"
        )


CSV_HEADER = "round,bpp_payload,bpp_total,accuracy,mean_kl_per_param,partition_updated"


@dataclass
class ServerState:
    """What the next round reads.  carried is the method's own server value,
    set by its _Method.initial and fold: fedpm's beta posterior, qsgd's prior
    p, None for the others."""

    round_index: int
    weights: np.ndarray  # current global parameters (fedpm: frozen weights)
    carried: object
    partition: BlockPartition | None  # None: clients ship block locations


def _load_dataset(cfg: ExperimentConfig, root: StreamKey) -> tuple[Dataset, Dataset]:
    d = cfg.dataset
    if d.kind in ("separable", "blobs"):
        # one pooled draw so train and test share the labeling concept,
        # then an i.i.d. head/tail split
        stream = derive_stream(root.child("data"))
        n = d.num_points + d.test_points
        if d.kind == "separable":
            full = make_separable(n, d.num_features, d.margin, stream)
        else:
            full = make_blobs(n, d.num_features, d.num_classes, d.spread, stream)
        train = full.subset(np.arange(d.num_points))
        test = full.subset(np.arange(d.num_points, n))
        return train, test
    if d.kind == "csv":
        return load_csv(d.train), load_csv(d.test)
    if d.kind == "idx":
        return (
            load_idx_pair(d.train_images, d.train_labels, d.train_limit),
            load_idx_pair(d.test_images, d.test_labels, d.test_limit),
        )
    raise ValueError(f"unknown dataset kind: {d.kind}")


def _local_sgd(model, w0, X, y, lr, epochs, batch_size, streams):
    """Plain minibatch SGD from w0 for a stack of clients with equal shard
    sizes (X (B, n, F), y (B, n)); returns the final weights, (B, d)."""
    w = np.tile(w0, (len(streams), 1))
    n = y.shape[1]
    batch = min(batch_size, n)
    for _ in range(local_iterations(n, epochs, batch_size)):
        _, g = model.loss_and_grad(w, *minibatches(X, y, batch, streams))
        w -= lr * g
    return w


def _stochastic_gradient(model, w, X, y, batch_size, streams):
    """N_c * mean-batch gradient, the unbiased full-sum estimate, for each
    client of a stack; (B, d)."""
    n = y.shape[1]
    batch = min(batch_size, n)
    _, g = model.loss_and_grad(np.tile(w, (len(streams), 1)),
                               *minibatches(X, y, batch, streams))
    return n * g


@dataclass
class _Message:
    vector: np.ndarray  # decoded contribution, ready to aggregate
    payload_bits: int
    total_bits: int
    update: EncodedUpdate | None = None  # the parsed codec message
    kl_nats: float = 0.0  # the client's own KL over its blocks; not sent


def _local_delta(state, model, X, y, params, streams):
    """Each client's weight change of plain local SGD from the global weights."""
    w_local = _local_sgd(model, state.weights, X, y, params.local_lr,
                         params.local_epochs, params.batch_size, streams)
    return w_local - state.weights


def _quantized(v, cfg, client_key):
    """The classic QSGD message: stochastic levels priced by Elias gamma."""
    quant, levels = qsgd_quantize(v, cfg.qsgd.levels,
                                  derive_stream(client_key.child("quant")))
    return quant, elias_gamma_bits(levels)


def _raw_delta(delta, cfg, client_key):
    """method none's message, the float32 delta itself; like every codec
    input, it is refused at its first non-finite coordinate."""
    _check_coordinates(np.isfinite(delta), "raw delta must be finite", delta)
    return delta, FLOAT32_BITS * delta.shape[0]


def _qsgd_fold(state, cfg, vectors, round_key):
    weights = state.weights + cfg.qsgd.server_lr * np.mean(vectors, axis=0)
    if not _uses_codec(cfg):
        return replace(state, weights=weights)
    # next round's prior: the frequencies of this round's decoded patterns
    prior = qsgd_klms_global([np.sign(v) for v in vectors], dim=weights.shape[0])
    return replace(state, weights=weights, carried=prior)


def _sgld_fold(state, cfg, vectors, round_key):
    weights = sgld_server_step(state.weights, vectors, cfg.sgld)
    if not _uses_codec(cfg):
        # baseline messages carry no noise, so the server injects it
        noise = derive_stream(round_key.child("servernoise")).gaussians(weights.shape[0])
        weights = weights + np.sqrt(2.0 * cfg.sgld.step_gamma) * noise
    return replace(state, weights=weights)


@dataclass(frozen=True)
class _Method:
    """How one method trains, prices its native message, pairs and folds.

    local(state, cfg, model, X, y, streams) -> one local result per client of
        a stack with equal shard sizes (X (B, n, F), y (B, n), B streams)
    baseline(local, cfg, client_key) -> (vector, bits) of the native message
    pair(local, state, cfg) -> codec (q, p); None: the method has no codec
    fold(state, cfg, vectors, round_key) -> state after the update
    to_vector(q, sample) maps a decoded sample to the aggregated vector, and
    side_bits rides next to the codec payload.
    initial(cfg, model) -> the ServerState.carried value a run starts from
    eval_weights(state, root) -> the weights each round is evaluated with
    """

    local: Callable
    baseline: Callable
    pair: Callable | None
    fold: Callable
    to_vector: Callable = lambda q, sample: sample
    side_bits: int = 0
    initial: Callable = lambda cfg, model: None
    eval_weights: Callable = lambda state, root: state.weights


# Entries reach the training, codec and aggregation functions through the
# module globals at call time, never through a stored reference, so a wrapper
# installed on the module (tracing) sees every call.
_METHODS = {
    "fedpm": _Method(
        local=lambda state, cfg, model, X, y, streams: fedpm_client_train(
            state.carried.probs, state.weights, model, X, y, cfg.fedpm, streams),
        baseline=lambda probs, cfg, client_key: (
            fedpm_sample_mask(probs, derive_stream(client_key.child("mask"))), probs.size),
        pair=lambda probs, state, cfg: fedpm_codec_pair(probs, state.carried.probs),
        fold=lambda state, cfg, vectors, round_key: replace(
            state, carried=bayes_agg(vectors, state.carried, cfg.fedpm, state.round_index)),
        # the weights stay frozen for the whole run; the mask is what trains
        initial=lambda cfg, model: FedPMState.initial(model.dim, 0.5, cfg.fedpm.prior_lambda),
        eval_weights=lambda state, root: fedpm_sample_mask(
            state.carried.probs, derive_stream(root.child("eval"))) * state.weights,
    ),
    "qsgd": _Method(
        local=lambda state, cfg, model, X, y, streams: _local_delta(
            state, model, X, y, cfg.qsgd, streams),
        baseline=_quantized,
        pair=lambda delta, state, cfg: (qsgd_client_distribution(delta), state.carried),
        fold=_qsgd_fold,
        # the pattern is sent by the codec, its scale as one float
        to_vector=lambda q, pattern: q.magnitude * pattern,
        side_bits=FLOAT32_BITS,
        initial=lambda cfg, model: qsgd_klms_global([], dim=model.dim),
    ),
    "signsgd": _Method(
        local=lambda state, cfg, model, X, y, streams: [
            signsgd_client_distribution(delta, signsgd_temperature(delta, cfg.signsgd))
            for delta in _local_delta(state, model, X, y, cfg.signsgd, streams)],
        baseline=lambda q, cfg, client_key: (
            q.sample(0, q.dim, derive_stream(client_key.child("sign")), count=1)[0], q.dim),
        pair=lambda q, state, cfg: (q, UniformSign(q.dim)),
        fold=lambda state, cfg, vectors, round_key: replace(
            state, weights=state.weights + cfg.signsgd.server_lr * np.mean(vectors, axis=0)),
    ),
    "sgld": _Method(
        local=lambda state, cfg, model, X, y, streams: _stochastic_gradient(
            model, state.weights, X, y, cfg.sgld.batch_size, streams),
        baseline=_quantized,
        pair=lambda grad, state, cfg: sgld_client_distributions(
            grad, cfg.sgld.sigma_s(cfg.clients_per_round)),
        fold=_sgld_fold,
    ),
}
# qsgd without compression: the raw float32 delta is the only message
_METHODS["none"] = replace(_METHODS["qsgd"], pair=None, baseline=_raw_delta)


def _uses_codec(cfg: ExperimentConfig) -> bool:
    """klms variants send through the codec, unless the method has no pair."""
    return cfg.variant == "klms" and _METHODS[cfg.method].pair is not None


def run_round(
    state: ServerState,
    cfg: ExperimentConfig,
    model,
    shards: list[np.ndarray],
    train: Dataset,
    test: Dataset,
    root: StreamKey,
) -> tuple[ServerState, RoundMetrics]:
    t = state.round_index
    round_key = root.child("round", t)
    order = derive_stream(round_key.child("select")).permutation(cfg.num_clients)
    participants = sorted(int(c) for c in order[: cfg.clients_per_round])

    dim = model.dim
    # participants with equal shard sizes train as one stack
    groups: dict[int, list[int]] = {}
    for c in participants:
        groups.setdefault(shards[c].size, []).append(c)
    sent = {}
    for clients in groups.values():
        sent.update(zip(clients, _client_message(state, cfg, model, train, shards,
                                                 round_key, clients)))
    messages = [sent[c] for c in participants]
    new_state = _aggregate(state, cfg, messages, round_key)

    payload = float(np.mean([m.payload_bits for m in messages]))
    total = float(np.mean([m.total_bits for m in messages]))
    coded = _uses_codec(cfg)
    mean_kl = float(np.mean([m.kl_nats / dim for m in messages])) if coded else 0.0

    eval_w = _METHODS[cfg.method].eval_weights(new_state, root)
    accuracy = evaluate_accuracy(model, eval_w, test.features, test.labels)

    metrics = RoundMetrics(
        round_index=t,
        bpp_payload=payload / dim,
        bpp_total=total / dim,
        accuracy=accuracy,
        mean_kl_per_param=mean_kl,
        partition_updated=coded and state.partition is None,
        total_bits=sum(m.total_bits for m in messages),
        payload_bits=sum(m.payload_bits for m in messages),
    )
    return replace(new_state, round_index=t + 1), metrics


def _client_message(state, cfg, model, train, shards, round_key, clients):
    """The client step of participants with equal shard sizes: stack their
    shards, train the stack, then build each one's message in the order of
    clients (see _send)."""
    method = _METHODS[cfg.method]
    rows = np.stack([shards[c] for c in clients])
    keys = [round_key.child("client", c) for c in clients]
    results = method.local(state, cfg, model, train.features[rows], train.labels[rows],
                           [derive_stream(key.child("local")) for key in keys])
    return [_send(method, local, state, cfg, key, c)
            for local, key, c in zip(results, keys, clients)]


def _send(method, local, state, cfg, client_key, c):
    """One client's native message, or its codec round trip under the round's
    partition (fedklms.codec.transmit)."""
    if not _uses_codec(cfg):
        vector, bits = method.baseline(local, cfg, client_key)
        return _Message(vector=vector, payload_bits=bits, total_bits=bits)

    q, p = method.pair(local, state, cfg)
    sample, received, cost, kl_nats = transmit(q, p, state.partition, cfg.codec, client_key,
                                               state.round_index, c)
    return _Message(
        vector=method.to_vector(q, sample),
        payload_bits=cost.payload_bits + method.side_bits,
        total_bits=cost.total_bits + method.side_bits,
        update=received,
        kl_nats=kl_nats,
    )


def _aggregate(state, cfg, messages, round_key):
    """The next round's block partition, then the fold of the decoded vectors."""
    partition = state.partition
    if _uses_codec(cfg):
        partition = next_partition(partition, [m.update for m in messages])
    folded = _METHODS[cfg.method].fold(state, cfg, [m.vector for m in messages], round_key)
    return replace(folded, partition=partition)


def init_state(cfg: ExperimentConfig, model, root: StreamKey) -> ServerState:
    return ServerState(
        round_index=0,
        weights=model.init_params(derive_stream(root.child("winit"))),
        carried=_METHODS[cfg.method].initial(cfg, model),
        partition=None,  # the first round ships locations
    )


def run_experiment(cfg: ExperimentConfig) -> tuple[list[RoundMetrics], dict]:
    root = StreamKey(cfg.seed)
    train, test = _load_dataset(cfg, root)
    num_classes = max(int(train.labels.max()), int(test.labels.max())) + 1
    model = build_model(cfg.model.kind, train.num_features, num_classes,
                        cfg.model.hidden_units)
    split_stream = derive_stream(root.child("split"))
    if cfg.split.mode == "iid":
        shards = split_iid(train, cfg.num_clients, split_stream)
    else:
        shards = split_skewed(train, cfg.num_clients,
                              cfg.split.max_classes_per_client, split_stream)
    state = init_state(cfg, model, root)
    rows: list[RoundMetrics] = []
    for _ in range(cfg.rounds):
        state, metrics = run_round(state, cfg, model, shards, train, test, root)
        rows.append(metrics)
    summary = {
        "method": cfg.method,
        "variant": cfg.variant if _METHODS[cfg.method].pair is not None else "none",
        "seed": cfg.seed,
        "rounds": cfg.rounds,
        "num_clients": cfg.num_clients,
        "clients_per_round": cfg.clients_per_round,
        "model_dim": model.dim,
        "final_accuracy": rows[-1].accuracy,
        "best_accuracy": max(r.accuracy for r in rows),
        "mean_bpp_payload": float(np.mean([r.bpp_payload for r in rows])),
        "mean_bpp_total": float(np.mean([r.bpp_total for r in rows])),
        "total_bits_sent": sum(r.total_bits for r in rows),
        "total_payload_bits_sent": sum(r.payload_bits for r in rows),
        "location_rounds": sum(1 for r in rows if r.partition_updated),
    }
    return rows, summary


def write_metrics_csv(rows: list[RoundMetrics], path: str) -> None:
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    lines = [CSV_HEADER] + [r.csv_row() for r in rows]
    out.write_text("\n".join(lines) + "\n")


def write_summary_json(summary: dict, path: str) -> None:
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
