#!/usr/bin/env python3
"""Run the desk-scale method comparison on the synthetic separable task.

Four codec-vs-baseline pairs (FedPM masks, stochastic SignSGD, ternary
QSGD, Langevin SGLD): each of configs/{fedpm,signsgd,qsgd,sgld}_separable.json
runs once as shipped (klms) and once with variant baseline, printing a
bitrate/accuracy table and writing per-round metrics under results/.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fedklms.config import load_config_file, parse_experiment_config
from fedklms.sim import run_experiment, write_metrics_csv, write_summary_json


def main() -> int:
    out_dir = Path("results")
    print(f"{'run':26s} {'final acc':>9s} {'best acc':>8s} {'payload bpp':>11s} {'total bpp':>9s}")
    for method in ("fedpm", "signsgd", "qsgd", "sgld"):
        for variant in ("baseline", "klms"):
            obj = load_config_file(str(ROOT / "configs" / f"{method}_separable.json"))
            obj["variant"] = variant
            cfg = parse_experiment_config(obj)
            rows, summary = run_experiment(cfg)
            name = f"{method}-{variant}"
            write_metrics_csv(rows, str(out_dir / f"{name}.csv"))
            write_summary_json(summary, str(out_dir / f"{name}.summary.json"))
            print(
                f"{name:26s} {summary['final_accuracy']:9.4f} "
                f"{summary['best_accuracy']:8.4f} "
                f"{summary['mean_bpp_payload']:11.4f} "
                f"{summary['mean_bpp_total']:9.4f}"
            )
    print(f"\nper-round metrics in {out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
