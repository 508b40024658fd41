"""ivastream benchmark: one workload per invocation.

    python3 perfbench/run.py --workload stream_desk --seed 1 --seconds 16 --trace 0

Run from the repository root (or any checkout of it).  The package is
imported from ``src/`` next to this directory; without it the command exits
with a non-zero code and prints no result.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it wraps the package's public functions (see tracer.py)
and reports the per-layer metrics instead.  Every run times a fixed host
probe next to its work (see host.py) and prints its median, ``host.ref_ms``,
with the BLAS build, BLAS threads, numpy version and CPU count, so a slow
host can be told apart from a regression.  Outputs (span dumps, per-run
results, pipeline temp dirs) go to ``perfbench/out/``.  The last line of
stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BLAS_THREADS = 1  # per-bin kernels are small; one thread keeps a shared host steady
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402 - after the BLAS thread pin


def host_info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": min(BLAS_THREADS, nproc),
        "numpy": np.__version__,
        "nproc": nproc,
    }


def _load_package():
    src = ROOT / "src"
    if not (src / "ivastream" / "__init__.py").is_file():
        raise SystemExit(f"error: no ivastream package under {src}")
    sys.path.insert(0, str(src))
    import ivastream

    if Path(ivastream.__file__).resolve().parent != (src / "ivastream").resolve():
        raise SystemExit(f"error: imported ivastream from {ivastream.__file__}, not {src}")
    return ivastream


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    ivastream = _load_package()
    import host
    import workloads
    from tracer import Tracer

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(ivastream)
        # probes run inside run_benchmark and mix; as spans they leave those self times
        tracer.patch(host.Meter, "sample", "host.probe")
    t0 = time.perf_counter()
    try:
        outcome = workloads.WORKLOADS[args.workload](args.seed, args.seconds, tracer)
    finally:
        run_wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    ref_ms = outcome.meter.median_ms()

    info = host_info()
    vector_ms = outcome.meter.median_ms("vector") if outcome.meter.count("vector") else None
    print(f"host: ref_ms {ref_ms:.4f} vector_ms {vector_ms} "
          + " ".join(f"{k} {v}" for k, v in info.items()))
    for name, (value, unit) in outcome.info.items():
        print(f"{args.workload} {name} = {value} {unit}")
    print(f"{args.workload} failed_frac = {outcome.failed / max(outcome.attempted, 1)} "
          f"({outcome.failed} of {outcome.attempted})")
    for problem in outcome.problems:
        print(f"{args.workload} check failed: {problem}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}"
    if tracer is None:
        wanted = spec["end_to_end"]
        values = outcome.metrics
    else:
        tracer.write(OUT / f"trace_{stem}.json")
        wanted = spec["per_layer"]
        values = tracer.summary()
        values["host.ref_ms"] = ref_ms
        values["trace.wall_s"] = run_wall
        values["trace.spans"] = len(tracer.names)
        values["trace.self_s"] = sum(tracer.self_times())
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']} {m['unit']}")

    untraced = OUT / f"result_{stem}_trace0.json"
    if tracer is not None and untraced.exists():
        # same seed, so the same work: the difference is what tracing costs
        wall = json.loads(untraced.read_text())["metrics"]["wall_s"]["value"]
        traced = outcome.metrics["wall_s"]
        print(f"{args.workload} tracing overhead: wall_s {traced - wall:+.4f} s "
              f"(traced {traced:.4f} s, untraced {wall:.4f} s)")

    complete = all(m["value"] is not None for m in metrics.values())
    result = {
        "correct": complete and not outcome.problems and outcome.failed == 0,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": metrics,
    }
    (OUT / f"result_{stem}_trace{args.trace}.json").write_text(json.dumps(result))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
