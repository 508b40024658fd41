"""In-process, frame-interleaved A/B of two checkouts' engines.

    python3 bench/engine_ab.py --parent ../parent --change . [--seed 1] \
        [--out BENCH.json --key engine_ab]

Each checkout's ``src/ivastream`` is imported into this one process under its
own module name (``ivastream_parent``, ``ivastream_change``), with BLAS pinned
to one thread as in ``perfbench``.  Two inputs are built once, with the
change's package imported as ``ivastream`` (its config loaders find their
schemas by that name):

* ``desk``: the shipped desk scene (``configs/desk_scenario.json``) with the
  seed's speech-like talkers, ``DESK_SECONDS`` long, analysed with the
  manifest's STFT; each engine reads its config's leading microphones;
* ``m16``: ``M16_FRAMES`` frames of ``perfbench/inputs.far_field_grid``,
  the 4x4 far-field grid, with overiva and biiva widened to it as the
  ``scale_m16`` workload does (biiva 4x4, auxiva on microphones 0 and 1);
* ``curve``: the cost curve, ``CURVE_FRAMES`` frames of seeded random
  spectra (``CURVE_BINS`` bins, a per-frame, per-channel level so the
  contrast weights change) at each M in ``CURVE_CHANNELS``, streamed by
  overiva and by biiva with sqrt(M) x sqrt(M) sub-filters, N = 2, default
  forgetting.

Each side builds its configs as its own ``SeparatorConfig`` from
``configs/*.json``.  For each input, every engine of both sides streams the
same frames from a fresh state through ``process_frame`` and projection back
to microphone 0.  The two sides take turns frame by frame, and the side that
goes first alternates from frame to frame, so host drift and cache state
reach both alike; the engines take turns within each frame.  Prints, per
input and engine, each side's median ms/frame, their ratio (change /
parent), the share of frames the change ran faster, and the largest
difference between the two sides' outputs relative to the parent's largest
entry.  For the curve it also prints, per M and side, biiva's median
ms/frame over overiva's: both engines of a side ran the same frames in the
same process, interleaved, so the ratio is free of the drift between
processes.  With ``--out`` the table is stored under ``--key``.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import json
import math
import os
import statistics
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402 - after the BLAS thread pin

from record import store  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
sys.path.insert(0, str(ROOT / "perfbench"))
import inputs  # noqa: E402 - perfbench's seeded scenes, numpy only

ENGINES = ("auxiva", "overiva", "biiva")
SIDES = ("parent", "change")
DESK_SECONDS = 6.0
M16_FRAMES = 180
# two refresh periods of overiva's tracked inverse covariance
# (separators.INVERSE_REFRESH = 32), so the refresh solves are in the median
CURVE_FRAMES = 64
CURVE_BINS = 513
CURVE_CHANNELS = (4, 9, 16, 36)
CURVE_SOURCES = 2
REFERENCE_CHANNEL = 0


def load_package(src: Path, name: str):
    """Import ``src/ivastream`` as the package ``name``."""
    init = src / "ivastream" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def side_configs(pkg, m16: bool) -> dict:
    """The shipped separator configs as this side's ``SeparatorConfig``s;
    for ``m16`` widened to the 4x4 grid as the ``scale_m16`` workload does."""
    cfgs = {e: pkg.separators.SeparatorConfig(**json.loads((CONFIGS / f"{e}.json").read_text()))
            for e in ENGINES}
    if m16:
        rows, cols = inputs.GRID
        cfgs["overiva"] = dataclasses.replace(cfgs["overiva"], n_channels=rows * cols)
        cfgs["biiva"] = dataclasses.replace(cfgs["biiva"], n_channels=rows * cols,
                                            sub_len_1=rows, sub_len_2=cols)
    return cfgs


def desk_bins(seed: int) -> np.ndarray:
    """(T, I, M) STFT of the desk mixture, as ``perfbench``'s ``stream_desk``
    builds it, from the package on ``sys.path``."""
    from ivastream import cli, io, roomsim, stft

    manifest = json.loads((CONFIGS / "desk_manifest.json").read_text())
    scenario = dataclasses.replace(io.load_scenario(CONFIGS / "desk_scenario.json"), seed=seed)
    fs = scenario.room.sample_rate
    n_samples = int(round(DESK_SECONDS * fs))
    talkers = np.stack([cli.speechlike_signal((seed, k), n_samples, fs)
                        for k in range(scenario.n_sources)])
    bundle = roomsim.mix(scenario, talkers)
    stft_cfg = stft.StftConfig(sample_rate=fs, **manifest["stft"])
    frames = stft.analyze(bundle.observations, stft_cfg)
    return np.stack([f.bins for f in frames])


def curve_configs(pkg, m: int) -> dict:
    """overiva and biiva (sqrt(M) x sqrt(M)) at ``m`` channels, as this
    side's ``SeparatorConfig``s."""
    side = math.isqrt(m)
    sep = pkg.separators
    return {"overiva": sep.SeparatorConfig(m, CURVE_SOURCES, "overiva"),
            "biiva": sep.SeparatorConfig(m, CURVE_SOURCES, "biiva", side, side)}


def curve_bins(seed: int, m: int) -> np.ndarray:
    """(T, I, M) circular Gaussian bins with a per-frame, per-channel level."""
    rng = np.random.default_rng((seed, m))
    level = np.exp(rng.standard_normal((CURVE_FRAMES, 1, m)))
    shape = (CURVE_FRAMES, CURVE_BINS, m)
    return level * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def interleaved(bins: np.ndarray, packages: dict, configs: dict) -> dict:
    """Stream ``bins`` through every engine of ``configs`` on both sides,
    the sides taking turns frame by frame; returns {engine: {side: (ms per
    frame, outputs)}}."""
    engines = list(configs["parent"])
    n_frames, n_bins = bins.shape[:2]
    runs = {}
    for engine in engines:
        for side, pkg in packages.items():
            cfg = configs[side][engine]
            state = pkg.separators.init_state(cfg, n_bins)
            frames = [pkg.stft.SpectralFrame(bins=bins[t, :, : cfg.n_channels], index=t,
                                             config=pkg.stft.StftConfig())
                      for t in range(n_frames)]
            out = np.empty((n_frames, cfg.n_sources, n_bins), dtype=np.complex128)
            runs[engine, side] = (pkg.separators, state, frames, np.empty(n_frames), out)
    order = list(SIDES)
    for t in range(n_frames):
        for engine in engines:
            for side in order:
                sep, state, frames, ms, out = runs[engine, side]
                t0 = time.perf_counter()
                est = sep.process_frame(state, frames[t])
                out[t] = sep.projection_back(state, est.y, REFERENCE_CHANNEL)
                ms[t] = (time.perf_counter() - t0) * 1e3
        order.reverse()
    return {engine: {side: runs[engine, side][3:] for side in SIDES} for engine in engines}


def compare(result: dict) -> dict:
    """Per engine: each side's median ms/frame, the ratio, the change's
    share of faster frames and the largest relative output difference."""
    table = {}
    for engine, sides in result.items():
        (ms_p, y_p), (ms_c, y_c) = sides["parent"], sides["change"]
        med_p, med_c = statistics.median(ms_p), statistics.median(ms_c)
        table[engine] = {
            "parent_ms_per_frame": round(med_p, 4),
            "change_ms_per_frame": round(med_c, 4),
            "ratio": round(med_c / med_p, 4),
            "change_faster_frames": round(float(np.mean(ms_c < ms_p)), 3),
            "frames": len(ms_p),
            "max_rel_output_diff": float(np.max(np.abs(y_c - y_p)) / np.max(np.abs(y_p))),
        }
    return table


def report(scene: str, table: dict) -> dict:
    """Print one input's rows of ``compare``; returns the table."""
    for engine, row in table.items():
        print(f"{scene:5s} {engine:8s} parent {row['parent_ms_per_frame']:7.3f} ms/frame "
              f"change {row['change_ms_per_frame']:7.3f} ratio {row['ratio']:.3f} "
              f"change faster in {row['change_faster_frames']:.0%} of {row['frames']} frames; "
              f"output diff {row['max_rel_output_diff']:.3g}", flush=True)
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--key", help="name of this measurement in --out")
    args = parser.parse_args(argv)
    if (args.out is None) != (args.key is None):
        parser.error("--out and --key go together")

    sys.path.insert(0, str(args.change.resolve() / "src"))
    packages = {side: load_package(getattr(args, side).resolve() / "src", f"ivastream_{side}")
                for side in SIDES}
    scenes = {
        "desk": (desk_bins(args.seed), False),
        "m16": (inputs.far_field_grid(args.seed, M16_FRAMES).x, True),
    }
    block = {"seed": args.seed, "desk_seconds": DESK_SECONDS, "m16_frames": M16_FRAMES,
             "curve_frames": CURVE_FRAMES, "curve_bins": CURVE_BINS}
    for scene, (bins, m16) in scenes.items():
        configs = {side: side_configs(pkg, m16) for side, pkg in packages.items()}
        block[scene] = report(scene, compare(interleaved(bins, packages, configs)))
    block["curve"] = []
    for m in CURVE_CHANNELS:
        configs = {side: curve_configs(pkg, m) for side, pkg in packages.items()}
        table = report(f"M={m}", compare(interleaved(curve_bins(args.seed, m), packages, configs)))
        ratios = {side: round(table["biiva"][f"{side}_ms_per_frame"]
                              / table["overiva"][f"{side}_ms_per_frame"], 3) for side in SIDES}
        block["curve"].append({"M": m, **table, "biiva_over_overiva": ratios})
        print(f"M={m:<3d} biiva/overiva parent {ratios['parent']:.3f} "
              f"change {ratios['change']:.3f}", flush=True)
    if args.out:
        block["command"] = (f"python3 bench/engine_ab.py --parent <parent checkout> "
                            f"--change <change checkout> --seed {args.seed} "
                            f"--out {args.out.name} --key {args.key}")
        store(args.out, args.key, block)
    return 0


if __name__ == "__main__":
    sys.exit(main())
