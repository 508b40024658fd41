"""In-process, frame-interleaved A/B of two checkouts' engines: timing and
equivalence from one stream.

    python3 bench/engine_ab.py --parent ../parent --change . [--seed 1] \
        [--cpu N] [--out BENCH.json --key engine_ab]

Each checkout's ``src/ivastream`` is imported into this one process under its
own module name (``ivastream_parent``, ``ivastream_change``), with BLAS pinned
to one thread (``record``) as in ``perfbench``.  The inputs are built once,
with the change's package imported as ``ivastream`` (its config loaders find
their schemas by that name):

* ``desk``: ``record.desk_bins``, the shipped desk scene with the seed's
  speech-like talkers, 6 s (372 frames); each engine reads its config's
  leading microphones;
* ``m16``: ``M16_FRAMES`` frames of ``perfbench/inputs.far_field_grid``,
  the 4x4 far-field grid, with overiva and biiva widened to it as the
  ``scale_m16`` workload does (biiva 4x4, auxiva on microphones 0 and 1);
* ``noise``: seeded circular Gaussian spectra of the desk stream's shape,
  the shipped configs; the well-conditioned control;
* ``curve``: the cost curve, ``CURVE_FRAMES`` frames of seeded circular
  Gaussian spectra (``CURVE_BINS`` bins) at each M in ``CURVE_CHANNELS``,
  streamed by overiva and by biiva with sqrt(M) x sqrt(M) sub-filters,
  N = 2, default forgetting.

The random spectra carry a per-frame, per-channel level so the contrast
weights change.  Each side builds its configs as its own ``SeparatorConfig``
from ``configs/*.json``.  For each input, every engine of both sides streams
the same frames from a fresh state through ``process_frame``, keeping the raw
``est.y`` and its projection back to microphone 0.  The two sides take turns
frame by frame, and the side that goes first alternates from frame to frame,
so host drift and cache state reach both alike; the engines take turns
within each frame.  Two untimed passes of the parent follow, one on the input
scaled by ``1 + 2**-52`` and one with every solution scaled entrywise by
``1 +- 2**-52`` (seeded random signs): how far one rounding step at the
input, or in each solve, carries through the recursion.  The solutions
perturbed are those of ``np.linalg.solve`` and of the package's elementwise
kernels (``SOLVE_KERNELS``): ``numerics._solve_2x2`` and
``numerics.solve_loaded``.

Prints, per input and engine, each side's median ms/frame, their ratio
(change / parent) and the share of frames the change ran faster, with each
side's median process CPU ms/frame (``time.process_time``, all threads)
beside it, so a gain bought with a second core shows as one; and per
output (raw, projection back) the largest difference between the two sides,
beside the parent's differences under the two perturbations, each relative
to the parent's largest entry.  A change whose difference stays at the
references is no less accurate than the parent's own rounding.  auxiva's
and biiva's systems are solved by the elementwise kernels alone, so only
their perturbation gives those engines a reference in the solves.  For the
curve it also prints, per M and side, biiva's median ms/frame over
overiva's: both engines of a side ran the same frames in the same process,
interleaved, so the ratio is free of the drift between processes.  With
``--cpu N`` the process is pinned to CPU ``N`` (``os.sched_setaffinity``)
before anything runs, for the one-CPU figures.  With ``--out`` the table is
stored under ``--key``.
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

from record import CONFIGS, desk_bins, parse_args, store

import numpy as np  # after record's BLAS thread pin

sys.path.insert(0, str(CONFIGS.parent / "perfbench"))
import inputs  # noqa: E402 - perfbench's seeded scenes, numpy only

ENGINES = ("auxiva", "overiva", "biiva")
SIDES = ("parent", "change")
OUTPUTS = ("raw", "projection back")
M16_FRAMES = 180
# four refresh periods of overiva's tracked inverse covariance
# (separators.INVERSE_REFRESH = 32), so the refresh solves keep their share of
# the median; over 64 frames each side's biiva/overiva ratio moved by up to 6%
CURVE_FRAMES = 128
CURVE_BINS = 513
CURVE_CHANNELS = (4, 9, 16, 36)
CURVE_SOURCES = 2
REFERENCE_CHANNEL = 0
ULP = 2.0**-52
# the package's elementwise solvers, each returning the solution first
SOLVE_KERNELS = ("_solve_2x2", "solve_loaded")


def load_package(src: Path, name: str):
    """Import ``src/ivastream`` as the package ``name``, afresh: submodules
    left in ``sys.modules`` by an earlier load would not be bound to it."""
    for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
        del sys.modules[key]
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


def curve_configs(pkg, m: int) -> dict:
    """overiva and biiva (sqrt(M) x sqrt(M)) at ``m`` channels, as this
    side's ``SeparatorConfig``s."""
    side = math.isqrt(m)
    sep = pkg.separators
    return {"overiva": sep.SeparatorConfig(m, CURVE_SOURCES, "overiva"),
            "biiva": sep.SeparatorConfig(m, CURVE_SOURCES, "biiva", side, side)}


def random_bins(seed: int, shape: tuple) -> np.ndarray:
    """(T, I, M) circular Gaussian bins with a per-frame, per-channel level."""
    n_frames, _, m = shape
    rng = np.random.default_rng((seed, m))
    level = np.exp(rng.standard_normal((n_frames, 1, m)))
    return level * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def interleaved(bins: np.ndarray, packages: dict, configs: dict) -> dict:
    """Stream ``bins`` through every engine of ``configs`` on each side of
    ``packages``, the sides taking turns frame by frame; returns {engine:
    {side: (wall ms per frame, CPU ms per frame, {output: spectra})}}."""
    order = list(packages)
    engines = list(configs[order[0]])
    n_frames, n_bins = bins.shape[:2]
    runs = {}
    for engine in engines:
        for side, pkg in packages.items():
            cfg = configs[side][engine]
            state = pkg.separators.init_state(cfg, n_bins)
            frames = [pkg.stft.SpectralFrame(bins=bins[t, :, : cfg.n_channels], index=t)
                      for t in range(n_frames)]
            out = {o: np.empty((n_frames, cfg.n_sources, n_bins), dtype=np.complex128)
                   for o in OUTPUTS}
            runs[engine, side] = (pkg.separators, state, frames, np.empty(n_frames),
                                  np.empty(n_frames), out)
    for t in range(n_frames):
        for engine in engines:
            for side in order:
                sep, state, frames, ms, cpu, out = runs[engine, side]
                t0, c0 = time.perf_counter(), time.process_time()
                est = sep.process_frame(state, frames[t])
                out["projection back"][t] = sep.projection_back(state, est.y, REFERENCE_CHANNEL)
                ms[t] = (time.perf_counter() - t0) * 1e3
                cpu[t] = (time.process_time() - c0) * 1e3
                out["raw"][t] = est.y
        order.reverse()
    return {engine: {side: runs[engine, side][3:] for side in packages} for engine in engines}


def one_ulp(bins: np.ndarray, parent, configs: dict, seed: int) -> dict:
    """The parent's outputs {"input": ..., "solves": ...} with one rounding
    step at the input and in every solution of ``np.linalg.solve`` and the
    ``SOLVE_KERNELS``, untimed."""
    parent_only = ({"parent": parent}, {"parent": configs})
    signs = np.random.default_rng(seed)

    def perturbed(solve):
        def wrapped(*args):
            out = solve(*args)
            x = out[0] if isinstance(out, tuple) else out
            x = x * (1.0 + ULP * signs.choice([-1.0, 1.0], x.shape))
            return (x, *out[1:]) if isinstance(out, tuple) else x
        return wrapped

    refs = {"input": interleaved(bins * (1.0 + ULP), *parent_only)}
    solvers = [(np.linalg, "solve")] + [(parent.numerics, name) for name in SOLVE_KERNELS]
    patches = {key: perturbed(getattr(*key)) for key in solvers}
    originals = {key: getattr(*key) for key in patches}
    try:
        for (module, name), fn in patches.items():
            setattr(module, name, fn)
        refs["solves"] = interleaved(bins, *parent_only)
    finally:
        for (module, name), fn in originals.items():
            setattr(module, name, fn)
    return refs


def compare(result: dict, refs: dict) -> dict:
    """Per engine: each side's median wall and CPU ms/frame, the ratio of
    the wall medians, the change's share of faster frames, and per output
    the change's largest difference and the parent's under one ulp, relative
    to the parent's largest entry."""
    table = {}
    for engine, sides in result.items():
        (ms_p, cpu_p, y_p), (ms_c, cpu_c, y_c) = sides["parent"], sides["change"]
        med_p, med_c = statistics.median(ms_p), statistics.median(ms_c)
        row = table[engine] = {
            "parent_ms_per_frame": round(med_p, 4),
            "change_ms_per_frame": round(med_c, 4),
            "ratio": round(med_c / med_p, 4),
            "change_faster_frames": round(float(np.mean(ms_c < ms_p)), 3),
            "parent_cpu_ms_per_frame": round(statistics.median(cpu_p), 4),
            "change_cpu_ms_per_frame": round(statistics.median(cpu_c), 4),
            "frames": len(ms_p),
        }
        for o in OUTPUTS:
            ref, scale = y_p[o], np.max(np.abs(y_p[o]))
            ys = {"change": y_c[o], **{f"parent_one_ulp_{k}": r[engine]["parent"][-1][o]
                                      for k, r in refs.items()}}
            row[o] = {k: float(np.max(np.abs(y - ref)) / scale) for k, y in ys.items()}
    return table


def run_scene(scene: str, bins: np.ndarray, packages: dict, configs: dict, seed: int) -> dict:
    """A/B ``bins`` with its references; prints the rows and returns them."""
    table = compare(interleaved(bins, packages, configs),
                    one_ulp(bins, packages["parent"], configs["parent"], seed))
    for engine, row in table.items():
        diffs = "; ".join(f"{o} {row[o]['change']:.3g} (one ulp at the input "
                          f"{row[o]['parent_one_ulp_input']:.3g}, in the solves "
                          f"{row[o]['parent_one_ulp_solves']:.3g})" for o in OUTPUTS)
        print(f"{scene:5s} {engine:8s} parent {row['parent_ms_per_frame']:7.3f} ms/frame "
              f"change {row['change_ms_per_frame']:7.3f} ratio {row['ratio']:.3f} "
              f"change faster in {row['change_faster_frames']:.0%} of {row['frames']} frames; "
              f"CPU parent {row['parent_cpu_ms_per_frame']:.3f} change "
              f"{row['change_cpu_ms_per_frame']:.3f} ms/frame; "
              f"output diff {diffs}", flush=True)
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--cpu", type=int, help="pin this process to CPU N")
    args = parse_args(parser, argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    start = time.perf_counter()

    sys.path.insert(0, str(args.change.resolve() / "src"))
    packages = {side: load_package(getattr(args, side).resolve() / "src", f"ivastream_{side}")
                for side in SIDES}
    desk = desk_bins(args.seed)
    scenes = {
        "desk": (desk, False),
        "m16": (inputs.far_field_grid(args.seed, M16_FRAMES).x, True),
        "noise": (random_bins(args.seed, desk.shape), False),
    }
    block = {"seed": args.seed, "cpu": args.cpu, "desk_frames": len(desk),
             "m16_frames": M16_FRAMES, "curve_frames": CURVE_FRAMES, "curve_bins": CURVE_BINS}
    for scene, (bins, m16) in scenes.items():
        configs = {side: side_configs(pkg, m16) for side, pkg in packages.items()}
        block[scene] = run_scene(scene, bins, packages, configs, args.seed)
    block["curve"] = []
    for m in CURVE_CHANNELS:
        configs = {side: curve_configs(pkg, m) for side, pkg in packages.items()}
        bins = random_bins(args.seed, (CURVE_FRAMES, CURVE_BINS, m))
        table = run_scene(f"M={m}", bins, packages, configs, args.seed)
        ratios = {side: round(table["biiva"][f"{side}_ms_per_frame"]
                              / table["overiva"][f"{side}_ms_per_frame"], 3) for side in SIDES}
        block["curve"].append({"M": m, **table, "biiva_over_overiva": ratios})
        print(f"M={m:<3d} biiva/overiva parent {ratios['parent']:.3f} "
              f"change {ratios['change']:.3f}", flush=True)
    block["wall_s"] = round(time.perf_counter() - start, 1)
    print(f"wall time {block['wall_s']} s")
    if args.out:
        pin = "" if args.cpu is None else f"--cpu {args.cpu} "
        block["command"] = (f"python3 bench/engine_ab.py --parent <parent checkout> "
                            f"--change <change checkout> --seed {args.seed} {pin}"
                            f"--out {args.out.name} --key {args.key}")
        store(args.out, args.key, block)
    return 0


if __name__ == "__main__":
    sys.exit(main())
