#!/usr/bin/env python3
"""Record a checkout's benchmark numbers in one JSON file.

    python3 scripts/bench_record.py --out BENCH_<n>.json

Run from the root of the checkout to measure; the script may come from
another one.  It writes, and checks nothing:

* ``perfbench``: ``perfbench/run.py --workload all --seed 1 --seconds 20``,
  once with ``--trace 0`` (end-to-end metrics) and once with ``--trace 1``
  (per-layer metrics), each as its provenance line and its result line;
* ``tier1``: the wall time, exit code and summary line of the tier-1 suite;
* ``full_length``: for each case of ``scripts/output_digests.py``, the wall
  time of ``outputs(case)``, the sha256 of the metrics CSV and summary JSON
  it returns, and for a train case the accuracy and bpp it reports;
* ``machine``: what picks the float kernels, from :func:`machine`.

The runs take about five minutes on 2 vCPUs.  They go one after another,
perfbench first, so that they do not compete for the machine.
"""

import argparse
import ctypes
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from numpy._core import _multiarray_umath as umath

PERFBENCH = ["perfbench/run.py", "--workload", "all", "--seed", "1", "--seconds", "20"]
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]


def perfbench(root: Path, trace: int) -> dict:
    """One perfbench run's provenance and result lines."""
    out = subprocess.run([sys.executable, *PERFBENCH, "--trace", str(trace)], cwd=root,
                         check=True, capture_output=True, text=True).stdout.splitlines()
    return {**json.loads(out[0]), "result": json.loads(out[-1])}


def tier1(root: Path) -> dict:
    src = str(root / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": f"{src}:{path}" if path else src}
    start = time.perf_counter()
    run = subprocess.run([sys.executable, *TIER1], cwd=root, env=env,
                         capture_output=True, text=True)
    wall_s = time.perf_counter() - start
    lines = run.stdout.strip().splitlines()
    return {"wall_s": wall_s, "exit_code": run.returncode,
            "summary": lines[-1] if lines else ""}


def full_length(root: Path) -> dict:
    """Each output_digests case, timed through its memoized ``outputs``."""
    spec = importlib.util.spec_from_file_location(
        "output_digests", root / "scripts" / "output_digests.py")
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    cases = {}
    for case in (*digests.TRAIN_CASES, *digests.TOY_CASES):
        start = time.perf_counter()
        csv, summary_json, summary = digests.outputs(case)
        entry = {"wall_s": time.perf_counter() - start,
                 "csv_sha256": hashlib.sha256(csv).hexdigest(),
                 "summary_sha256": hashlib.sha256(summary_json).hexdigest()}
        if case in digests.TRAIN_CASES:
            entry.update({key: summary[key] for key in digests.SUMMARY_KEYS})
        cases[case] = entry
    return cases


def machine() -> dict:
    """numpy's version, whether this CPU runs each of numpy's dispatch
    targets, and the core OpenBLAS picked at run time (None when numpy does
    not bundle its OpenBLAS).  A float pin can fail on another machine; these
    name the kernels that computed it."""
    libs = sorted(Path(np.__file__).parent.with_name("numpy.libs")
                  .glob("libscipy_openblas64_*.so"))
    core = None
    if libs:
        corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
        corename.restype = ctypes.c_char_p
        core = corename().decode()
    return {"numpy": np.__version__,
            "cpu_dispatch": {target: umath.__cpu_features__[target]
                             for target in umath.__cpu_dispatch__},
            "openblas_core": core}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="the JSON file to write")
    args = parser.parse_args(argv)
    root = Path.cwd()
    record = {
        "perfbench": {f"trace{trace}": perfbench(root, trace) for trace in (0, 1)},
        "tier1": tier1(root),
        "full_length": full_length(root),
        "machine": machine(),
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
