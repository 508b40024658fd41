"""Repairs of the tracked inverse, failures and outputs on hard streams.

    python3 bench/hard_streams.py --src <checkout>/src [--out BENCH.json --key K]

With the ``ivastream`` package found under ``--src`` and one BLAS thread,
streams these inputs through the engines named:

* ``desk``: ``record.desk_bins(1)``, the 6 s desk stream (overiva);
* ``desk30``: the five 30 s desk streams of the shipped manifest's sweep,
  seeds 0-4 (overiva);
* ``m16``: ``perfbench``'s 4x4 far-field grid scene, seed 1, 180 frames
  (overiva widened to 16 channels);
* ``duplicated`` and ``dead_mic``: 1500 frames of 9 circular Gaussian bins
  (``default_rng(22)``, as the degenerate streams of the separator tests)
  with channel 1 a copy of channel 0, or all zero, at forgetting 0.5
  (auxiva on 2 channels, overiva 9, biiva 3x3);
* ``silence<K>_a<alpha>``: K all-zero frames and then 500 frames of the
  same Gaussian stream, K in (2100, 4000), forgetting 0.98 and 0.99 (every
  engine).

It counts the bins whose tracked inverse ``numerics.scaled_inverse``
rebuilds from inside ``separators.update_inverse`` and from inside
``separators.ip_update`` (the frame's periodic refresh is not counted), the
frame at which ``process_frame`` raises, the warnings raised, and the
sha256 of the raw outputs of every frame that streamed.  With ``--out``
the table is stored under ``--key``; two checkouts are compared by running
the script once with each.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import warnings
from pathlib import Path

from record import CONFIGS, desk_bins, parse_args, store

import numpy as np  # after record's BLAS thread pin

DESK_SEEDS = (0, 1, 2, 3, 4)
DESK_SWEEP_SECONDS = 30.0
M16_FRAMES = 180
GAUSS_FRAMES, GAUSS_BINS = 1500, 9
SIGNAL_FRAMES = 500
SILENT_FRAMES = (2100, 4000)
SILENCE_FORGETTING = (0.98, 0.99)
REPAIR_CALLERS = ("update_inverse", "ip_update")


def gaussian_bins(n_frames: int, n_channels: int) -> np.ndarray:
    """(T, 9, M) circular Gaussian bins drawn from ``default_rng(22)``."""
    rng = np.random.default_rng(22)
    shape = (n_frames, GAUSS_BINS, n_channels)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class Repairs:
    """Counts the bins ``scaled_inverse`` rebuilds, per calling update."""

    def __init__(self, separators, numerics):
        self.caller = None
        self.bins = dict.fromkeys(REPAIR_CALLERS, 0)
        scaled_inverse = numerics.scaled_inverse

        def counted(a, loading):
            if self.caller is not None:
                self.bins[self.caller] += int(np.prod(a.shape[:-2]))
            return scaled_inverse(a, loading)

        numerics.scaled_inverse = counted
        for name in REPAIR_CALLERS:
            setattr(separators, name, self.entered(name, getattr(separators, name)))

    def entered(self, name, fn):
        def wrapped(*args, **kwargs):
            self.caller = name
            try:
                return fn(*args, **kwargs)
            finally:
                self.caller = None
        return wrapped


def stream(pkg, repairs: Repairs, bins: np.ndarray, cfg) -> dict:
    """One engine over (T, I, M) ``bins``; the row of the table."""
    repairs.bins = dict.fromkeys(REPAIR_CALLERS, 0)
    digest = hashlib.sha256()
    state = pkg.separators.init_state(cfg, bins.shape[1])
    row = {"frames": len(bins), "raised_at_frame": None}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for t in range(len(bins)):
            frame = pkg.stft.SpectralFrame(bins=bins[t, :, : cfg.n_channels], index=t)
            try:
                est = pkg.separators.process_frame(state, frame)
            except (ArithmeticError, ValueError) as exc:
                row["raised_at_frame"], row["error"] = t, str(exc)
                break
            digest.update(est.y.tobytes())
    row.update({f"{name} repaired bins": repairs.bins[name] for name in REPAIR_CALLERS})
    row["warnings"] = len(caught)
    row["sha256"] = digest.hexdigest()
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, required=True, help="directory holding ivastream/")
    args = parse_args(parser, argv)

    sys.path.insert(0, str(args.src.resolve()))
    sys.path.insert(1, str(CONFIGS.parent / "perfbench"))
    import inputs  # perfbench's seeded scenes, numpy only
    import ivastream
    from ivastream import io, numerics, separators, stft

    repairs = Repairs(separators, numerics)
    shipped = io.load_separator_config(CONFIGS / "overiva.json")

    def small(engine, forgetting):
        m = {"auxiva": 2, "overiva": 9, "biiva": 9}[engine]
        subs = (3, 3) if engine == "biiva" else (None, None)
        return separators.SeparatorConfig(m, 2, engine, *subs, forgetting=forgetting)

    table = {}

    def run(name, engine, bins, cfg):
        row = stream(ivastream, repairs, bins, cfg)
        table.setdefault(name, {})[engine] = row
        print(f"{name:18s} {engine:8s} " + "; ".join(
            f"{k} {v}" for k, v in row.items() if k not in ("sha256", "error")), flush=True)

    run("desk", "overiva", desk_bins(1), shipped)
    for seed in DESK_SEEDS:
        run(f"desk30_seed{seed}", "overiva", desk_bins(seed, DESK_SWEEP_SECONDS), shipped)
    rows, cols = inputs.GRID
    m16 = separators.SeparatorConfig(rows * cols, 2, "overiva")
    run("m16", "overiva", inputs.far_field_grid(1, M16_FRAMES).x, m16)
    for engine in ("auxiva", "overiva", "biiva"):
        cfg = small(engine, 0.5)
        x = gaussian_bins(GAUSS_FRAMES, cfg.n_channels)
        x[..., 1] = x[..., 0]
        run("duplicated", engine, x, cfg)
        x = gaussian_bins(GAUSS_FRAMES, cfg.n_channels)
        x[..., 1] = 0.0
        run("dead_mic", engine, x, cfg)
        for silent in SILENT_FRAMES:
            for alpha in SILENCE_FORGETTING:
                cfg = small(engine, alpha)
                signal = gaussian_bins(SIGNAL_FRAMES, cfg.n_channels)
                x = np.concatenate([np.zeros((silent,) + signal.shape[1:]), signal])
                run(f"silence{silent}_a{alpha}", engine, x, cfg)

    if args.out:
        store(args.out, args.key, {
            "command": f"python3 bench/hard_streams.py --src <checkout>/src "
                       f"--out {args.out.name} --key {args.key}",
            "table": table})
    return 0


if __name__ == "__main__":
    sys.exit(main())
