"""The program names that the benchmark's tracer binds to.

``perfbench/spans.py`` wraps functions and methods of ``fedklms`` by name
and reads some of their parameters by name.  One small traced codec round
trip here makes renaming or deleting any of them fail this suite, not only
``python3 -m pytest perfbench``; a short traced simulator run checks that the
simulator's spans still split each round into the benchmark's phases.
"""

import sys
from pathlib import Path

import numpy as np

from fedklms import codec, distributions, streams
from fedklms.config import load_config_file, parse_experiment_config
from fedklms.sim import run_experiment

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "perfbench"))
import spans  # noqa: E402

sys.path.pop(0)


def test_traced_round_trip_with_locations():
    params = codec.CodecParams(d_kl_target=3.0, overhead_r=2.0, max_block_size=64)
    gen = streams.derive_stream(streams.StreamKey(41, (("contract", 0),)))
    q = distributions.BernoulliVector(0.45 + 0.1 * gen.uniforms(64))
    p = distributions.BernoulliVector(np.full(64, 0.5))
    key = streams.StreamKey(41, (("message", 0),))
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        partition = codec.split_blocks_fixed(64, 64)
        upd, _ = codec.encode_update(q, p, partition, params, key, round_index=3,
                                     client_id=0, include_locations=True)
        received = codec.deserialize_update(codec.serialize_update(upd, params), params)
        codec.decode_update(p, None, params, key, received)
    finally:
        spans.uninstall(undo)
    assert not hasattr(codec.encode_update, "__wrapped__")  # uninstalled
    assert tracer.counts["codec.encode_blocks"] == 1
    assert tracer.location_rounds == {(0, 3)}
    assert tracer.counts["codec.decode_uniforms"] == 64  # the indexed candidate only


def test_traced_run_covers_every_phase():
    obj = load_config_file(str(REPO / "configs" / "qsgd_separable.json"))
    obj["rounds"] = 3
    cfg = parse_experiment_config(obj)
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        rows, _ = run_experiment(cfg)
    finally:
        spans.uninstall(undo)
    assert len(tracer.round_s) == 3
    # the tracer reads each location round from encode_update's include_locations
    located = {(0, r.round_index) for r in rows if r.partition_updated}
    assert tracer.location_rounds == located
    assert len(located) == 2  # rounds 0 and 2
    values, _, errors = spans.layer_metrics([tracer], 1.0)
    assert errors == []
    for phase in ("local", "codec", "aggregate", "eval"):
        assert values[f"sim.phase.{phase}_s"] > 0, phase
