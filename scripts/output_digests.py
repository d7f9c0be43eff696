#!/usr/bin/env python3
"""Run every shipped config at full length and print what its outputs are pinned by.

Runs, as `fedklms train` would, the five shipped separable configs, the
qsgd/signsgd/sgld separable configs with `variant: baseline`, and the qsgd
config with `method: none`; then both toy configs as `fedklms toy` would.
Each line starts `<case> <metrics CSV sha256> <summary JSON sha256>`; a train
line goes on with the run's final accuracy, best accuracy, mean payload bpp
and mean total bpp to 4 decimals, so the four codec-versus-baseline pairs
read as a bitrate/accuracy table.  The files are written to a temporary
directory that is removed afterwards.

A change that must not move any output runs this before and after and diffs
the two printouts:

    python3 scripts/output_digests.py > before.txt   # on the parent commit
    python3 scripts/output_digests.py > after.txt
    diff before.txt after.txt
"""

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
SUMMARY_KEYS = ("final_accuracy", "best_accuracy", "mean_bpp_payload", "mean_bpp_total")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for case, (name, overrides) in TRAIN_CASES.items():
            obj = load_config_file(str(ROOT / "configs" / f"{name}.json"))
            obj.update(overrides)
            rows, summary = run_experiment(parse_experiment_config(obj))
            write_metrics_csv(rows, str(out / f"{case}.csv"))
            write_summary_json(summary, str(out / f"{case}.json"))
            print(case, _sha256(out / f"{case}.csv"), _sha256(out / f"{case}.json"),
                  *(f"{summary[key]:.4f}" for key in SUMMARY_KEYS), flush=True)
        for case in TOY_CASES:
            cfg = parse_toy_config(load_config_file(str(ROOT / "configs" / f"{case}.json")))
            cells, summary = run_toy(cfg)
            write_toy_csv(cells, str(out / f"{case}.csv"))
            write_summary_json(summary, str(out / f"{case}.json"))
            print(case, _sha256(out / f"{case}.csv"), _sha256(out / f"{case}.json"),
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
