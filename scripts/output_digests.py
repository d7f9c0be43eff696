#!/usr/bin/env python3
"""Run every shipped config at full length and print what its outputs are pinned by.

Runs, as `fedklms train` would, the five shipped separable configs, the
qsgd/signsgd/sgld separable configs with `variant: baseline`, and the qsgd
config with `method: none`; then both toy configs as `fedklms toy` would.
Each line starts `<case> <metrics CSV sha256> <summary JSON sha256>`; a train
line goes on with the run's final accuracy, best accuracy, mean payload bpp
and mean total bpp to 4 decimals, then its number of location rounds, so the
four codec-versus-baseline pairs read as a bitrate/accuracy table.  The files
are written to a temporary directory that is removed afterwards.

The tier-1 suite loads this script and calls `outputs` for each case, once
per session: `tests/test_sim.py` pins the nine train digest pairs, and each
toy case must equal the committed files its config's `output` block names.
A change that moves a full-length output therefore fails tier-1.  A change
that means to move one reruns this script and copies the new train pairs
into `FULL_LENGTH_OUTPUTS`, or reruns `fedklms toy configs/<toy case>.json`
from the checkout root and commits the new `results/` files:

    python3 scripts/output_digests.py
"""

import functools
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fedklms.config import load_config_file, parse_experiment_config, parse_toy_config
from fedklms.sim import run_experiment, write_metrics_csv, write_summary_json
from fedklms.toy import run_toy, write_toy_csv

# case -> (config name, top-level overrides)
TRAIN_CASES = {
    "fedpm_separable": ("fedpm_separable", {}),
    "fedpm_separable_baseline": ("fedpm_separable_baseline", {}),
    "qsgd_separable": ("qsgd_separable", {}),
    "signsgd_separable": ("signsgd_separable", {}),
    "sgld_separable": ("sgld_separable", {}),
    "qsgd_baseline": ("qsgd_separable", {"variant": "baseline"}),
    "signsgd_baseline": ("signsgd_separable", {"variant": "baseline"}),
    "sgld_baseline": ("sgld_separable", {"variant": "baseline"}),
    "none": ("qsgd_separable", {"method": "none"}),
}
TOY_CASES = ("toy_default", "toy_heterogeneity")
# the summary fields a train line reports after its digests
SUMMARY_KEYS = ("final_accuracy", "best_accuracy", "mean_bpp_payload", "mean_bpp_total",
                "location_rounds")


@functools.cache
def outputs(case: str) -> tuple[bytes, bytes, dict]:
    """Run one case and return its metrics CSV bytes, summary JSON bytes and
    summary, as the command-line entry point writes them; each case runs once
    per process."""
    with tempfile.TemporaryDirectory() as tmp:
        csv_path, json_path = Path(tmp) / "metrics.csv", Path(tmp) / "summary.json"
        if case in TRAIN_CASES:
            name, overrides = TRAIN_CASES[case]
            obj = load_config_file(str(ROOT / "configs" / f"{name}.json"))
            obj.update(overrides)
            rows, summary = run_experiment(parse_experiment_config(obj))
            write_metrics_csv(rows, str(csv_path))
        else:
            cfg = parse_toy_config(load_config_file(str(ROOT / "configs" / f"{case}.json")))
            cells, summary = run_toy(cfg)
            write_toy_csv(cells, str(csv_path))
        write_summary_json(summary, str(json_path))
        return csv_path.read_bytes(), json_path.read_bytes(), summary


def main() -> int:
    sha = lambda data: hashlib.sha256(data).hexdigest()
    for case in (*TRAIN_CASES, *TOY_CASES):
        csv, summary_json, summary = outputs(case)
        # the rates to 4 decimals, the location round count as an integer
        stats = ([f"{summary[key]:.4f}" if isinstance(summary[key], float) else str(summary[key])
                  for key in SUMMARY_KEYS] if case in TRAIN_CASES else [])
        print(case, sha(csv), sha(summary_json), *stats, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
