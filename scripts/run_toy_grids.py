#!/usr/bin/env python3
"""Run both toy mean-estimation grids and print the gap tables.

Grid 1 (configs/toy_default.json) crosses overhead r with client count N at
zero heterogeneity; grid 2 (configs/toy_heterogeneity.json) fixes (r=6,
N=100) and sweeps the heterogeneity half-width eta.  CSVs land under results/.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fedklms.config import load_config_file, parse_toy_config
from fedklms.sim import write_summary_json
from fedklms.toy import run_toy, write_toy_csv


def main() -> int:
    out_dir = Path("results")

    cfg = parse_toy_config(load_config_file(str(ROOT / "configs" / "toy_default.json")))
    cells, summary = run_toy(cfg)
    write_toy_csv(cells, str(out_dir / "toy.csv"))
    write_summary_json(summary, str(out_dir / "toy_summary.json"))
    by = {(c.overhead_r, c.num_clients): c for c in cells}
    ns = sorted({c.num_clients for c in cells})
    print("mean |gap| (std of gap) by overhead r and client count N:")
    print("  r\\N " + "".join(f"{n:>16d}" for n in ns))
    for r in sorted({c.overhead_r for c in cells}):
        row = "".join(
            f"  {by[(r, n)].mean_abs_gap:.3f} ({by[(r, n)].std_gap:.3f})" for n in ns
        )
        print(f"  {r:3.0f} {row}")

    het = parse_toy_config(load_config_file(str(ROOT / "configs" / "toy_heterogeneity.json")))
    cells, summary = run_toy(het)
    write_toy_csv(cells, str(out_dir / "toy_heterogeneity.csv"))
    write_summary_json(summary, str(out_dir / "toy_heterogeneity_summary.json"))
    print("\nheterogeneity sweep at r=6, N=100:")
    for c in cells:
        print(f"  eta={c.eta:4.2f}  mean|gap|={c.mean_abs_gap:.4f}  mean bits={c.mean_bits:.2f}")

    print(f"\nCSVs in {out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
