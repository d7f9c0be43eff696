"""Every config value the schema accepts is read by the run, or refused.

For seven shipped dim-42 cases (qsgd, signsgd and sgld under klms and under
variant baseline, and qsgd_separable with method none), each schema leaf that
applies is perturbed and the case run for 3 rounds: parse_experiment_config
must refuse the perturbed config, or the metrics CSV must differ from the
unperturbed run's (_variants says how each leaf is perturbed).  A leaf that
may legitimately change nothing is on the explicit list in _unread; a leaf
the run ignores is fixed in the program, by reading or refusing it, never by
adding it to that list.
"""

import json
from pathlib import Path

import pytest

from fedklms.config import ConfigError, load_config_file, parse_experiment_config
from fedklms.sim import run_experiment

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = json.loads((ROOT / "src" / "fedklms" / "config.schema.json").read_text())
EXPERIMENT = SCHEMA["$defs"]["experiment"]["properties"]
METHOD_BLOCKS = ("fedpm", "qsgd", "signsgd", "sgld")

# case -> (shipped config, top-level overrides)
CASES = {
    "qsgd_klms": ("qsgd_separable", {}),
    "qsgd_baseline": ("qsgd_separable", {"variant": "baseline"}),
    "signsgd_klms": ("signsgd_separable", {}),
    "signsgd_baseline": ("signsgd_separable", {"variant": "baseline"}),
    "sgld_klms": ("sgld_separable", {}),
    "sgld_baseline": ("sgld_separable", {"variant": "baseline"}),
    "none": ("qsgd_separable", {"method": "none"}),
}


def _leaves():
    """(dotted path, schema node) of every experiment field that holds a value."""
    for key, node in EXPERIMENT.items():
        if "properties" in node:
            for name, leaf in node["properties"].items():
                yield f"{key}.{name}", leaf
        else:
            yield key, node


def _unread(cfg) -> set[str]:
    """The leaves that the run of cfg legitimately does not read."""
    props = lambda block: {f"{block}.{name}" for name in EXPERIMENT[block]["properties"]}
    # output paths name where the metrics go; they change no metric
    unread = props("output")
    # another method's block; `none` trains and steps as qsgd does, and the
    # sgld baseline prices its gradient as a qsgd message of qsgd.levels
    own = "qsgd" if cfg.method == "none" else cfg.method
    for block in METHOD_BLOCKS:
        if block != own:
            unread |= props(block)
    if cfg.method == "sgld" and cfg.variant == "baseline":
        unread.discard("qsgd.levels")
    # the codec runs only under klms, and `none` has no codec pair, so its
    # variant changes nothing either; a baseline or `none` run of a shipped
    # klms config keeps the config's codec block, as perfbench's baselines do
    if cfg.variant == "baseline" or cfg.method == "none":
        unread |= props("codec")
    if cfg.method == "none":
        unread.add("variant")
    # fields of another dataset kind, split mode or model kind
    unread |= {"dataset.num_classes", "dataset.spread",  # blobs
               "dataset.train", "dataset.test",  # csv
               "dataset.train_images", "dataset.train_labels",  # idx
               "dataset.test_images", "dataset.test_labels",
               "dataset.train_limit", "dataset.test_limit"}
    assert cfg.dataset.kind == "separable"
    assert cfg.split.mode == "iid"
    unread.add("split.max_classes_per_client")  # skewed
    assert cfg.model.kind == "logistic"
    unread.add("model.hidden_units")  # mlp
    return unread


def _variants(path, node, cfg):
    """(shared, changed) pairs of {dotted path: value} overrides.  The leaf at
    path is read if, for some pair, the config with both overrides is refused
    or its metrics CSV differs from that of the config with shared alone."""
    block, _, name = path.rpartition(".")
    value = getattr(getattr(cfg, block) if block else cfg, name)
    if name == "batch_size":
        # the shards hold 60 points, so every size from 60 up means 60
        return [({}, {path: value // 4})]
    if path == "clients_per_round":
        return [({}, {path: value - 1})]  # one more would exceed num_clients
    if path == "codec.d_kl_target":
        # the target sets the partition, the band [target / 2, 2 * target]
        # and the session K, which caps each block's own candidate count.
        # signsgd's one block of about 0.55 nats, at r = 0.5, stays one block,
        # which no band re-cuts, under a 1.5 times larger target; half the
        # target caps its count of 8 candidates at 4
        return [({}, {path: 1.5 * value}), ({}, {path: value / 2})]
    if path == "codec.overhead_r":
        # ordered random coding keeps its pick when K grows and the winner is
        # among the first K candidates, which it was in qsgd's 3 rounds at
        # r = 3; a smaller K drops candidates that won
        return [({}, {path: 1.5 * value}), ({}, {path: value / 2})]
    if path == "signsgd.local_lr":
        # a 1.5 times larger step moves signsgd's one-block posterior too
        # little to change an ordered pick in 3 rounds; twice the step does
        return [({}, {path: 1.5 * value}), ({}, {path: 2 * value})]
    if path == "model.kind":
        # logistic does not read hidden_units; 2 keeps the mlp near dim 42
        shared = {"model.hidden_units": 2}
        return [(shared, {**shared, path: "mlp"})]
    if "enum" in node:
        return [({}, {path: next(v for v in node["enum"] if v != value)})]
    if isinstance(value, bool):
        return [({}, {path: not value})]
    if isinstance(value, int):
        return [({}, {path: value + 1})]
    return [({}, {path: 1.5 * value})]


def _with(base, overrides):
    obj = json.loads(json.dumps(base))
    for path, value in overrides.items():
        block, _, key = path.rpartition(".")
        (obj.setdefault(block, {}) if block else obj)[key] = value
    return obj


def _csv_rows(obj):
    """The metrics CSV rows of obj's run, or None if obj is refused."""
    try:
        cfg = parse_experiment_config(obj)
    except ConfigError:
        return None
    rows, _ = run_experiment(cfg)
    return [r.csv_row() for r in rows]


@pytest.mark.parametrize("case", CASES)
def test_every_accepted_leaf_is_read(case):
    name, overrides = CASES[case]
    base = load_config_file(str(ROOT / "configs" / f"{name}.json"))
    base.update(overrides, rounds=3)
    cfg = parse_experiment_config(base)
    unread = _unread(cfg)
    references = {}
    ignored = []
    for path, node in _leaves():
        if path in unread:
            continue
        variants = _variants(path, node, cfg)
        for shared, changed in variants:
            key = json.dumps(shared, sort_keys=True)
            if key not in references:
                references[key] = _csv_rows(_with(base, shared))
                assert references[key] is not None, f"{shared} is refused"
            rows = _csv_rows(_with(base, changed))
            if rows is None or rows != references[key]:
                break  # refused, or read
        else:
            ignored.append(f"{path}: {[changed for _, changed in variants]}")
    assert not ignored, f"accepted but not read under {case}: {ignored}"
