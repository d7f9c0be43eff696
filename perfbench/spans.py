"""Span tracing installed from outside the program.

:func:`install` replaces selected functions and methods of the ``fedklms``
modules with wrappers that record one span per call: its name, its duration,
and the time its child spans cover.  Nothing under ``src/`` changes; the
wrappers sit on the attributes the program calls through, and
:func:`uninstall` puts the originals back.

Spans are aggregated as they close instead of being stored, so a traced run
of millions of calls keeps a constant footprint:

* self time per span name (duration minus the time child spans cover);
* counts recorded by per-span hooks (draws, coordinates, blocks, bytes);
* per simulator round, the self time of every span inside the round,
  attributed to the round's phase (local training, codec, aggregation,
  evaluation, or the round's own code).  Self times partition a round's
  duration, so the phases plus the round's own time add up to the round.

:func:`_targets` is the one place that names program internals.  A refactor
that renames one of them makes :func:`install` fail loudly rather than
silently drop a layer.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

# class name -> kind label used in the dist.<kind>.* metric names
DIST_KINDS = {
    "BernoulliVector": "bernoulli",
    "TernaryPattern": "ternary",
    "BinarySign": "sign",
    "UniformSign": "uniform_sign",
    "DiagonalGaussian": "gaussian",
}

# a span directly under a round starts this phase; its whole subtree belongs
# to it, except codec spans, which always count as the codec phase
_PHASE_OF_TOP = {
    "sim.client_message": "local",
    "methods.aggregate": "aggregate",
    "models.eval": "eval",
    "methods.sample_mask": "eval",  # fedpm draws the evaluation mask here
}


class _Frame:
    __slots__ = ("name", "child", "phase")

    def __init__(self, name: str, phase: str | None):
        self.name = name
        self.child = 0.0
        self.phase = phase


class Tracer:
    """Aggregates spans for one traced phase of a benchmark run."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.ess_over_k: list[float] = []
        self.round_s: list[float] = []
        self.phase_s: dict[str, float] = defaultdict(float)
        self.location_rounds: set[tuple[int, int]] = set()
        self.header_bits = 0
        self.codec_bits = 0
        self.op_index = 0  # set by the benchmark before each operation
        self.paused = False  # output checks run untraced
        self._stack: list[_Frame] = []
        self._active: dict[str, int] = defaultdict(int)
        self._round_phase: dict[str | None, float] | None = None

    def in_span(self, name: str) -> bool:
        return self._active[name] > 0

    def _phase_for(self, name: str) -> str | None:
        if self._round_phase is None:
            return None
        parent = self._stack[-1]
        if name.startswith("codec."):
            return "codec"
        if parent.name == "sim.round":
            return _PHASE_OF_TOP.get(name)
        return parent.phase

    def call(self, name, fn, hook, args, kwargs):
        if self.paused:
            return fn(*args, **kwargs)
        is_round = name == "sim.round"
        if is_round:
            self._round_phase = defaultdict(float)
        frame = _Frame(name, self._phase_for(name) if self._stack else None)
        self._stack.append(frame)
        self._active[name] += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            self._active[name] -= 1
            self._stack.pop()
            own = dur - frame.child
            self.self_s[name] += own
            if self._stack:
                self._stack[-1].child += dur
            if self._round_phase is not None:
                self._round_phase[frame.phase] += own
            if is_round:
                self.round_s.append(dur)
                for phase, seconds in self._round_phase.items():
                    self.phase_s[phase if phase else "round_self"] += seconds
                self._round_phase = None
        if hook is not None:
            hook(self, args, kwargs, result)
        return result


# --- hooks: counts taken where the work happens ------------------------------


def _draws(tracer: Tracer, uniforms: int) -> None:
    if tracer.in_span("codec.decode"):
        tracer.counts["codec.decode_uniforms"] += uniforms


def _on_uniforms(tracer, args, kwargs, result):
    n = int(np.size(result))
    tracer.counts["streams.uniforms_drawn"] += n
    _draws(tracer, n)


def _on_gaussians(tracer, args, kwargs, result):
    n = int(np.size(result))
    tracer.counts["streams.gaussians_drawn"] += n
    _draws(tracer, 2 * ((n + 1) // 2))  # the transform consumes uniform pairs


def _on_derive(tracer, args, kwargs, result):
    tracer.counts["streams.derive_calls"] += 1


def _dist_hook(metric: str):
    def hook(tracer, args, kwargs, result):
        tracer.counts[metric] += int(np.size(result))

    return hook


def _dist_mass_hook(metric: str):
    def hook(tracer, args, kwargs, result):
        lo, hi = args[1], args[2]
        tracer.counts[metric] += int(np.size(result)) * (hi - lo)

    return hook


def _encode_block_hook(fn):
    signature = inspect.signature(fn)

    def hook(tracer, args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        tracer.counts["codec.encode_blocks"] += 1
        tracer.counts["codec.encode_candidates"] += int(bound.arguments["num_samples"])

    return hook


def _on_selection_weights(tracer, args, kwargs, result):
    weights = np.asarray(result)
    tracer.ess_over_k.append(float(1.0 / np.sum(weights**2)) / weights.size)


def _encode_update_hook(fn):
    signature = inspect.signature(fn)

    def hook(tracer, args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        if bound.arguments.get("include_locations", False):
            round_index = int(bound.arguments["round_index"])
            tracer.location_rounds.add((tracer.op_index, round_index))

    return hook


def _on_bit_cost(tracer, args, kwargs, result):
    tracer.header_bits += result.header_bits
    tracer.codec_bits += result.total_bits


def _on_serialize(tracer, args, kwargs, result):
    tracer.counts["codec.wire_bytes"] += len(result)


def _on_grad(tracer, args, kwargs, result):
    tracer.counts["models.grad_calls"] += 1


def _targets():
    """(owner, attribute, span name, hook) for every wrapped callable.

    A module-level function is wrapped in every ``fedklms`` module that binds
    it, because ``from .codec import encode_update`` copies the reference.
    """
    from fedklms import codec, distributions, methods, models, sim, streams

    out = [
        (streams.SampleStream, "__init__", "streams.derive", _on_derive),
        (streams.SampleStream, "uniforms", "streams.uniforms", _on_uniforms),
        (streams.SampleStream, "next_uniform", "streams.uniforms", _on_uniforms),
        (streams.SampleStream, "gaussians", "streams.gaussians", _on_gaussians),
        (distributions, "kl_per_coordinate", "dist.kl", None),
        (codec, "encode_update", "codec.encode",
         _encode_update_hook(codec.encode_update)),
        (codec, "encode_block", "codec.encode", _encode_block_hook(codec.encode_block)),
        (codec, "selection_weights", "codec.encode", _on_selection_weights),
        (codec, "bit_cost", "codec.encode", _on_bit_cost),
        (codec, "decode_update", "codec.decode", None),
        (codec, "decode_block", "codec.decode", None),
        (codec, "split_blocks_adaptive", "codec.partition", None),
        (codec, "split_blocks_fixed", "codec.partition", None),
        (codec, "aggregate_block_locations", "codec.aggregate", None),
        (codec, "serialize_update", "codec.serialize", _on_serialize),
        (codec, "deserialize_update", "codec.deserialize", None),
        (models.LogisticModel, "loss_and_grad", "models.grad", _on_grad),
        (models.MLPModel, "loss_and_grad", "models.grad", _on_grad),
        (models, "evaluate_accuracy", "models.eval", None),
        (methods, "fedpm_client_train", "methods.client_train", None),
        (methods, "bayes_agg", "methods.aggregate", None),
        (methods, "sgld_server_step", "methods.aggregate", None),
        (methods, "fedpm_sample_mask", "methods.sample_mask", None),
        # simulator internals: the round, its client step and its aggregation
        # step define the phases, and plain SGD is the other methods' training
        (sim, "run_round", "sim.round", None),
        (sim, "_client_message", "sim.client_message", None),
        (sim, "_aggregate", "methods.aggregate", None),
        (sim, "_local_sgd", "methods.client_train", None),
        (sim, "_stochastic_gradient", "methods.client_train", None),
    ]
    for cls_name, kind in DIST_KINDS.items():
        cls = getattr(distributions, cls_name)
        out.append((cls, "sample", f"dist.{kind}.sample",
                    _dist_hook(f"dist.{kind}.sample_coords")))
        out.append((cls, "log_mass_rows", f"dist.{kind}.log_mass",
                    _dist_mass_hook(f"dist.{kind}.log_mass_coords")))
    return out


def _wrapper(tracer: Tracer, name: str, fn, hook):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        return tracer.call(name, fn, hook, args, kwargs)

    return wrapped


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every target; returns the undo list for :func:`uninstall`."""
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "fedklms" or n.startswith("fedklms."))]
    undo: list[tuple[object, str, object]] = []
    try:
        for owner, attr, name, hook in _targets():
            original = getattr(owner, attr)  # AttributeError names a renamed target
            wrapped = _wrapper(tracer, name, original, hook)
            if isinstance(owner, type):
                undo.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, key, original))
                        setattr(module, key, wrapped)
    except BaseException:
        uninstall(undo)
        raise
    return undo


def uninstall(undo: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


# --- per-layer metrics ---------------------------------------------------------

# self-time metric -> span name
_SELF_TIME = {
    "streams.derive_s": "streams.derive",
    "streams.uniforms_s": "streams.uniforms",
    "streams.gaussians_s": "streams.gaussians",
    "dist.kl_s": "dist.kl",
    "codec.encode_s": "codec.encode",
    "codec.decode_s": "codec.decode",
    "codec.partition_s": "codec.partition",
    "codec.aggregate_s": "codec.aggregate",
    "codec.serialize_s": "codec.serialize",
    "codec.deserialize_s": "codec.deserialize",
    "models.grad_s": "models.grad",
    "models.eval_s": "models.eval",
    "methods.client_train_s": "methods.client_train",
    "methods.aggregate_s": "methods.aggregate",
}
# count metric -> the span whose calls produce it
_COUNT = {
    "streams.derive_calls": "streams.derive",
    "streams.uniforms_drawn": "streams.uniforms",
    "streams.gaussians_drawn": "streams.gaussians",
    "codec.encode_blocks": "codec.encode",
    "codec.encode_candidates": "codec.encode",
    "codec.decode_uniforms": "codec.decode",
    "codec.wire_bytes": "codec.serialize",
    "models.grad_calls": "models.grad",
}
for _kind in DIST_KINDS.values():
    _SELF_TIME[f"dist.{_kind}.sample_s"] = f"dist.{_kind}.sample"
    _SELF_TIME[f"dist.{_kind}.log_mass_s"] = f"dist.{_kind}.log_mass"
    _COUNT[f"dist.{_kind}.sample_coords"] = f"dist.{_kind}.sample"
    _COUNT[f"dist.{_kind}.log_mass_coords"] = f"dist.{_kind}.log_mass"

# counts that must repeat exactly between identical cycles and identical runs
EXACT_COUNTS = (
    "streams.derive_calls", "streams.uniforms_drawn", "streams.gaussians_drawn",
    "codec.encode_candidates", "codec.decode_uniforms", "codec.wire_bytes",
    "codec.location_rounds",
)


def _quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile; a single value is its own quantile."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def cycle_counts(tracer: Tracer) -> dict[str, int]:
    """The exact counts of one traced cycle."""
    out = {name: tracer.counts.get(name, 0) for name in _COUNT}
    out["codec.location_rounds"] = len(tracer.location_rounds)
    return out


def layer_metrics(tracers: list[Tracer], overhead: float
                  ) -> tuple[dict[str, float], set[str], list[str]]:
    """Per-layer values over the traced cycles of one run.

    Times are mean seconds per cycle, counts are those of one cycle (every
    cycle must give the same counts), ratios pool all cycles.  Returns the
    values, the names of metrics whose layer the workload never entered, and
    any consistency errors.
    """
    errors: list[str] = []
    cycles = len(tracers)
    seen = set().union(*(t.self_s for t in tracers))
    values: dict[str, float] = {}
    for metric, span in _SELF_TIME.items():
        values[metric] = sum(t.self_s.get(span, 0.0) for t in tracers) / cycles
    counts = [cycle_counts(t) for t in tracers]
    for c in counts[1:]:
        if c != counts[0]:
            errors.append("counts differ between identical traced cycles")
            break
    values.update(counts[0])

    first = tracers[0]
    values["codec.header_share"] = (
        first.header_bits / first.codec_bits if first.codec_bits else 0.0)
    ess = [e for t in tracers for e in t.ess_over_k]
    values["codec.ess_over_k_p50"] = _quantile(ess, 0.5) if ess else 0.0

    rounds = [r for t in tracers for r in t.round_s]
    phase = {k: sum(t.phase_s.get(k, 0.0) for t in tracers)
             for k in ("local", "codec", "aggregate", "eval", "round_self")}
    if rounds:
        total = sum(rounds)
        if abs(sum(phase.values()) - total) > 1e-9 * max(1.0, total) * len(rounds):
            errors.append(f"phases add up to {sum(phase.values())} s, rounds to {total} s")
        values["sim.round_s.p50"] = _quantile(rounds, 0.5)
        values["sim.round_s.p90"] = _quantile(rounds, 0.9)
        values["sim.phase.codec_share"] = phase["codec"] / total
    else:
        values["sim.round_s.p50"] = values["sim.round_s.p90"] = 0.0
        values["sim.phase.codec_share"] = 0.0
    for k in ("local", "codec", "aggregate", "eval"):
        values[f"sim.phase.{k}_s"] = phase[k] / cycles
    values["sim.round_self_s"] = phase["round_self"] / cycles
    values["trace.overhead"] = overhead

    absent = {m for m, span in {**_SELF_TIME, **_COUNT}.items() if span not in seen}
    if "codec.encode" not in seen:
        absent |= {"codec.header_share", "codec.ess_over_k_p50", "codec.location_rounds"}
    if not rounds:
        absent |= {m for m in values if m.startswith("sim.")}
    return values, absent, errors
