"""Runs one benchmark workload in its own process.

    python3 perfbench/worker.py setup <workload> <seed>
    python3 perfbench/worker.py run <workload> <seed> <seconds> <trace>

Run from the root of a fedklms checkout; the program is imported from its
``src`` directory and nowhere else.  Both modes print ``ready`` as soon as the
imports, config parsing and input generation are done, which is how
``run.py`` times set-up.  ``setup`` stops there.  ``run`` then repeats whole
cycles of the workload for the time budget and prints one JSON line with the
operations' totals, their checks, and with trace on, the per-layer metrics.

With trace on, the first half of the budget runs untraced and the second
half traced.  The untraced half gives the reference hashes and throughput
that the traced half is compared with.
"""

from __future__ import annotations

import json
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path

import spans


def _import_program(root: Path) -> None:
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import fedklms

    if Path(fedklms.__file__).resolve().parent != src / "fedklms":
        raise ImportError(f"fedklms was imported from {fedklms.__file__}, not {src}")


def _run_cycle(ops, scratch: Path, tracer, reference: bool) -> list:
    from workloads import OpResult

    results = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_index = i
        try:
            out, artifacts = op.measure()
        except Exception as exc:  # a failed operation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            results.append(OpResult(op.label, errors=[f"raised {exc!r}"]))
            continue
        if tracer is not None:
            tracer.paused = True
        try:
            op.verify(out, artifacts, scratch, reference)
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            out.errors.append(f"check raised {exc!r}")
        finally:
            if tracer is not None:
                tracer.paused = False
        results.append(out)
    return results


def _run_for(ops, budget: float, scratch: Path, traced: bool, reference: bool):
    """Whole cycles until the budget is spent, at least one.  A cycle starts
    only if at least half of it is expected to fit.  With ``reference`` the
    first cycle also runs the costly reference checks."""
    cycles, tracers = [], []
    start = time.perf_counter()
    while True:
        tracer = spans.Tracer() if traced else None
        undo = spans.install(tracer) if traced else []
        try:
            cycles.append(_run_cycle(ops, scratch, tracer, reference and not cycles))
        finally:
            spans.uninstall(undo)
        if traced:
            tracers.append(tracer)
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(cycles) >= budget:
            return cycles, tracers


def _throughput(cycles, per: str) -> float:
    seconds = sum(r.seconds for c in cycles for r in c)
    return sum(getattr(r, per) for c in cycles for r in c) / seconds if seconds else 0.0


def _end_to_end(cycles, codec_workload: bool) -> dict[str, float]:
    first = cycles[0]
    coords = sum(r.coords for r in first)
    if codec_workload:
        checked = sum(r.blocks_checked for r in first)
        accuracy = sum(r.blocks_exact for r in first) / checked if checked else 0.0
    else:
        accuracy = sum(r.accuracy or 0.0 for r in first) / len(first)
    return {
        "rounds_per_s": _throughput(cycles, "rounds"),
        "coords_per_s": _throughput(cycles, "coords"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "bpp_total": sum(r.bits_total for r in first) / coords if coords else 0.0,
        "bpp_payload": sum(r.bits_payload for r in first) / coords if coords else 0.0,
        "final_accuracy": accuracy,
    }



def main(argv: list[str]) -> int:
    mode, name, seed = argv[0], argv[1], int(argv[2])
    root = Path.cwd()
    _import_program(root)
    import numpy as np

    import workloads

    ops = workloads.build(name, seed, root)
    print("ready", flush=True)
    if mode == "setup":
        return 0
    seconds, trace = float(argv[3]), argv[4] == "1"

    build_dir = root / ".bench_build"
    build_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=build_dir) as tmp:
        scratch = Path(tmp)
        budget = seconds / 2 if trace else seconds
        cycles, _ = _run_for(ops, budget, scratch, traced=False, reference=True)
        traced, tracers = ([], [])
        if trace:
            traced, tracers = _run_for(ops, budget, scratch, traced=True, reference=False)

    # every cycle, traced or not, must reproduce the first cycle's outputs
    reference = [r.digest for r in cycles[0]]
    for cycle in cycles[1:] + traced:
        for r, digest in zip(cycle, reference):
            if r.digest != digest and not r.errors:
                r.errors.append("outputs differ from the first cycle's")
    results = [r for c in cycles + traced for r in c]

    codec_workload = name == "codec_sweep"
    if codec_workload:
        # continuity: the first operation is the codec-bench input
        bench = workloads.OpResult("codec-bench checksum")
        try:
            checksum = workloads.codec_bench_checksum(seed, workloads.COORDS)
            if checksum != reference[0]:
                bench.errors.append(f"codec-bench prints {checksum}, sweep decoded "
                                    f"{reference[0]}")
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            bench.errors.append(f"raised {exc!r}")
        results.append(bench)

    layers = None
    if trace:
        per = "coords" if codec_workload else "rounds"
        untraced = _throughput(cycles, per)
        overhead = _throughput(traced, per) / untraced if untraced else 0.0
        values, absent, errors = spans.layer_metrics(tracers, overhead)
        traced[0][0].errors += errors  # a trace inconsistency fails a traced op
        layers = {"layers": values, "not_applicable": sorted(absent)}

    out = {
        "attempted": len(results),
        "failed": sum(1 for r in results if r.errors),
        "errors": [f"{r.label}: {e}" for r in results for e in r.errors][:20],
        "digests": {r.label: r.digest for r in cycles[0]},
        "cycles": len(cycles) + len(traced),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }
    if layers is None:
        out["end_to_end"] = _end_to_end(cycles, codec_workload)
    else:
        out.update(layers)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
