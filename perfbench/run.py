"""Layered benchmark of the fedklms codec and simulator.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  With ``--trace 0`` it prints every
end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` a traced run
prints every per-layer metric.  ``--workload all`` runs each workload in turn.

Each workload runs in its own worker process (``worker.py``), so peak memory
is that workload's alone.  Set-up time is the wall time from starting a
worker to its ``ready`` line: imports, config parsing and input generation.
It is taken from the measuring worker and from extra set-up-only workers,
and the median is reported.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
are the run's provenance (one JSON line) and a table of the same metrics,
which also shows ``ops_failed_share`` and marks layers a workload does not
use as n/a.  The exit code is 0 when the benchmark ran, whether or not an
output check failed; it is 2 when it could not run at all, as in a
directory without the program.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 7  # set-up samples per run: the measuring worker and six more
DEADLINE_S = 170.0  # the whole run must end within 180 s

# One compute thread.  A second BLAS thread on a small shared machine waits
# for a core that other programs may hold, which made round times swing by
# a quarter; results do not depend on it.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# what a metric means where the workload has no simulator
CODEC_NOTES = {
    "rounds_per_s": "codec round trips per second",
    "final_accuracy": "share of decoded blocks equal to a reference regeneration",
}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _spec(root: Path) -> dict:
    path = root / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} not found; run from the root of a checkout")
    return json.loads(path.read_text())


def _git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.machine() or "unknown"


def _worker(args: list[str], deadline: float) -> tuple[float, str]:
    """Start a worker, time it to its ``ready`` line, and collect its output."""
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env={**os.environ, **WORKER_ENV})
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker {' '.join(args)} ran past the deadline") from None
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0 or first.strip() != "ready":
        raise BenchError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return setup_s, rest


def run_workload(name: str, seed: int, seconds: int, trace: int, deadline: float) -> dict:
    setups = [_worker(["setup", name, str(seed)], deadline)[0]
              for _ in range(SETUP_RUNS - 1)]
    setup_s, rest = _worker(["run", name, str(seed), str(seconds), str(trace)], deadline)
    setups.append(setup_s)
    lines = rest.strip().splitlines()
    if not lines:
        raise BenchError(f"worker for {name} printed no result")
    result = json.loads(lines[-1])
    result["setup_samples"] = setups
    if "end_to_end" in result:
        result["end_to_end"]["setup_s"] = statistics.median(setups)
    return result


def _metrics(spec: dict, result: dict, trace: int) -> tuple[dict, set[str]]:
    if trace:
        values, absent = result["layers"], set(result["not_applicable"])
        declared = spec["per_layer"]
    else:
        values, absent = result["end_to_end"], set()
        declared = spec["end_to_end"]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared}, absent


def _table(name: str, metrics: dict, absent: set[str], result: dict) -> list[str]:
    lines = [f"== {name}: {result['attempted']} operations, {result['failed']} failed, "
             f"{result['cycles']} cycles"]
    share = result["failed"] / result["attempted"]
    rows = list(metrics.items())
    if "end_to_end" in result:
        rows.append(("ops_failed_share", {"value": share, "unit": "ratio"}))
    for metric, entry in rows:
        if metric in absent:
            shown = "n/a"
        else:
            shown = f"{entry['value']:.6g} {entry['unit']}"
        codec_e2e = name == "codec_sweep" and "end_to_end" in result
        note = CODEC_NOTES.get(metric, "") if codec_e2e else ""
        lines.append(f"  {metric:32s} {shown}" + (f"  ({note})" if note else ""))
    for error in result["errors"]:
        lines.append(f"  FAILED {error}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    root = Path.cwd()
    try:
        spec = _spec(root)
        names = [w["name"] for w in spec["workloads"]]
        chosen = names if args.workload == "all" else [args.workload]
        if not set(chosen) <= set(names):
            raise BenchError(f"unknown workload {args.workload!r}; choose from {names}")
        if not (root / "src" / "fedklms" / "__init__.py").is_file():
            raise BenchError(f"no fedklms sources under {root / 'src'}")
        if not 0 <= args.seed < 2**60:
            raise BenchError(f"seed must be in [0, 2^60): {args.seed}")
        budget = DEADLINE_S * len(chosen)
        results = {}
        for name in chosen:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace,
                                         start + budget)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    why = {w["name"]: w["why"] for w in spec["workloads"]}
    first = next(iter(results.values()))
    provenance = {
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": _git_commit(root),
        "python": first["python"],
        "numpy": first["numpy"],
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "workloads": {name: {"why": why[name], "digests": r["digests"],
                             "setup_samples_s": r["setup_samples"]}
                      for name, r in results.items()},
    }
    print(json.dumps({"provenance": provenance}))
    combined: dict = {}
    for name, result in results.items():
        metrics, absent = _metrics(spec, result, args.trace)
        print("\n".join(_table(name, metrics, absent, result)))
        if len(results) == 1:
            combined = metrics
        else:
            combined.update({f"{name}/{m}": v for m, v in metrics.items()})
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
