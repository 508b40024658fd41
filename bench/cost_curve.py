"""Per-frame cost of overiva and biiva against the number of microphones.

    python3 bench/cost_curve.py --parent ../parent --change . \
        [--out BENCH.json --key cost_curve]

Streams 64 seeded random spectra (I = 513 bins, N = 2 sources) through
``separate_stream`` with projection back to microphone 0, for M in 4, 9,
16 and 36: overiva, and biiva with sqrt(M) x sqrt(M) sub-filters.  Each
checkout is measured in 3 rounds, the side that goes first alternating from
round to round; a round is a fresh process that imports that checkout's
``src/`` and times 3 streams per point, each from a fresh state, with BLAS
pinned to one thread as in ``perfbench``.  Reports raw ms/frame: each
round's median over its streams, and the median of the rounds.  With
``--out`` the curve is stored in that JSON file under ``--key``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402 - after the BLAS thread pin

from record import store  # noqa: E402

CHANNELS = (4, 9, 16, 36)
N_BINS = 513
N_SOURCES = 2
# two refresh periods of overiva's tracked inverse covariance
# (separators.INVERSE_REFRESH = 32), so the refresh solves are in the average
N_FRAMES = 64
REPEATS = 3
ROUNDS = 3
SEED = 0


def spectra(m: int, stft) -> list:
    """Circular Gaussian bins with a per-frame, per-channel level, so the
    contrast weights change from frame to frame."""
    rng = np.random.default_rng(SEED)
    level = np.exp(rng.standard_normal((N_FRAMES, 1, m)))
    x = level * (rng.standard_normal((N_FRAMES, N_BINS, m))
                 + 1j * rng.standard_normal((N_FRAMES, N_BINS, m))) / np.sqrt(2.0)
    cfg = stft.StftConfig()
    return [stft.SpectralFrame(bins=x[t], index=t, config=cfg) for t in range(N_FRAMES)]


def measure(src: Path) -> dict:
    """One round on the package under ``src``: {"engine M": ms/frame}."""
    sys.path.insert(0, str(src.resolve()))
    from ivastream import separators, stft

    out = {}
    for m in CHANNELS:
        side = math.isqrt(m)
        frames = spectra(m, stft)
        configs = {
            "overiva": separators.SeparatorConfig(m, N_SOURCES, "overiva"),
            "biiva": separators.SeparatorConfig(m, N_SOURCES, "biiva", side, side),
        }
        for engine, cfg in configs.items():
            ms = []
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                separators.separate_stream(frames, cfg, reference_channel=0)
                ms.append((time.perf_counter() - t0) * 1e3 / N_FRAMES)
            out[f"{engine} {m}"] = statistics.median(ms)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--src", type=Path, help="measure one round of this src/ and print it")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--key", help="name of this measurement in --out")
    args = parser.parse_args(argv)
    if args.src is not None:
        print(json.dumps(measure(args.src)))
        return 0
    if args.parent is None or args.change is None:
        parser.error("--parent and --change are required")
    if (args.out is None) != (args.key is None):
        parser.error("--out and --key go together")

    rounds = {"parent": [], "change": []}
    for r in range(ROUNDS):
        for side in ("parent", "change") if r % 2 == 0 else ("change", "parent"):
            src = getattr(args, side) / "src"
            proc = subprocess.run([sys.executable, __file__, "--src", str(src)],
                                  capture_output=True, text=True, check=True)
            rounds[side].append(json.loads(proc.stdout.strip().splitlines()[-1]))
            print(f"round {r} {side} done", flush=True)

    block = {"n_bins": N_BINS, "n_sources": N_SOURCES, "frames": N_FRAMES,
             "repeats_per_round": REPEATS, "rounds": ROUNDS,
             "biiva_sub_filters": "sqrt(M) x sqrt(M)"}
    for side, per_round in rounds.items():
        curve = []
        for point in per_round[0]:
            engine, m = point.split()
            values = [round(rd[point], 3) for rd in per_round]
            curve.append({"engine": engine, "M": int(m), "ms_per_frame_rounds": values,
                          "ms_per_frame": round(statistics.median(values), 2)})
            print(f"{side:6s} M={m:>3s} {engine:8s} {curve[-1]['ms_per_frame']:8.2f} ms/frame "
                  f"rounds {values}", flush=True)
        block[side] = curve
    if args.out:
        block["command"] = (f"python3 bench/cost_curve.py --parent <parent checkout> "
                            f"--change <change checkout> --out {args.out.name} --key {args.key}")
        store(args.out, args.key, block)
    return 0


if __name__ == "__main__":
    sys.exit(main())
