"""Failures, repairs, filter size, conditioning and solver events on hard
streams.

    python3 bench/hard_streams.py --src <checkout>/src [--out BENCH.json --key K]

With the ``ivastream`` package found under ``--src`` and one BLAS thread,
streams these inputs through the engines named:

* ``desk``: ``record.desk_bins(1)``, the 6 s desk stream (the shipped desk
  scene, STFT 1024/256, 372 frames) that ``bench/engine_ab.py`` and
  ``perfbench``'s ``stream_desk`` run, through every engine's shipped config
  in ``configs/`` (auxiva on microphones 0 and 1);
* ``desk30``: the five 30 s desk streams of the shipped manifest's sweep,
  seeds 0-4 (overiva);
* ``desk_duplicated`` and ``desk_dead_mic``: the 30 s desk stream of seed
  1 with channel 1 a copy of channel 0, or all zero, through every
  engine's shipped config;
* ``m16``: ``perfbench``'s 4x4 far-field grid scene, seed 1, 600 frames
  (the shipped overiva config, forgetting 0.98, widened to 16 channels as
  ``perfbench``'s ``scale_m16`` and ``bench/engine_ab.py`` widen it); they
  run past the 180 frames those two stream, into the frames where
  overiva's loading gate starts to close (about frame 200);
* ``duplicated`` and ``dead_mic``: 1500 frames of 9 circular Gaussian bins
  (``default_rng(22)``, as the degenerate streams of the separator tests)
  with channel 1 a copy of channel 0, or all zero, at forgetting 0.5
  (auxiva on 2 channels, overiva 9, biiva 3x3);
* ``silence<K>_a<alpha>``: K all-zero frames and then 500 frames of the
  same Gaussian stream, K in (2100, 4000), forgetting 0.98 and 0.99 (every
  engine).

Every frame is followed by projection back to microphone 0.  Each row of
the table holds the frame at which ``process_frame`` raises, its error and
the warnings it raised, the first frame at which ``projection_back`` raises
(the stream goes on), its error and the warnings it raised, the sha256 of
the raw outputs of every frame that streamed, the bins whose tracked inverse
``numerics.scaled_inverse`` rebuilds from inside ``separators.ip_update``
(the frame's periodic refresh is not counted), the largest ``|W|`` entry
after the last frame that streamed, and, for bins 0, 1 and 2 and the
median bin over frames:

* the median and largest 2-norm condition number of each source's weighted
  covariance ``V_n`` after the frame, of every source block ``S`` the
  frame's N x N solves see (overiva, biiva), and of biiva's sub-filter
  systems ``Delta^H V Delta`` (every ``numerics.congruence``);
* the count of overiva's first-order loading gate closing (``loading * tr
  P`` above ``numerics._FIRST_ORDER_MAX``), of the solutions from ``P``
  that the IP step rejects and re-solves exactly, and of the systems the
  elementwise kernels reject: those of ``numerics._solve_2x2`` (the 2 x 2
  solves of ``solve_column`` and ``solve_general``, whole stacks only) go
  to LAPACK, those of ``numerics.solve_loaded`` (the exact IP step of
  auxiva and biiva) to the checked re-solve of ``numerics.hermitian_solve``.

The package's solvers are wrapped for the run and restored when it ends.
With ``--out`` the table is stored under ``--key``; two checkouts are
compared by running the script once with each.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import sys
import warnings
from collections import defaultdict
from pathlib import Path

from record import CONFIGS, desk_bins, parse_args, store

import numpy as np  # after record's BLAS thread pin

ENGINES = ("auxiva", "overiva", "biiva")
DESK_SEEDS = (0, 1, 2, 3, 4)
DESK_SWEEP_SECONDS = 30.0
M16_FRAMES = 600
GAUSS_FRAMES, GAUSS_BINS = 1500, 9
SIGNAL_FRAMES = 500
SILENT_FRAMES = (2100, 4000)
SILENCE_FORGETTING = (0.98, 0.99)
LOW_BINS = (0, 1, 2)


def gaussian_bins(n_frames: int, n_channels: int) -> np.ndarray:
    """(T, 9, M) circular Gaussian bins drawn from ``default_rng(22)``."""
    rng = np.random.default_rng(22)
    shape = (n_frames, GAUSS_BINS, n_channels)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class Recorder:
    """What the wrapped solvers see while one engine streams: condition
    numbers (systems x bins, per quantity), per-bin event counts and the
    bins ``ip_update`` repairs."""

    def start(self, engine: str, n_bins: int) -> None:
        self.engine, self.n_bins = engine, n_bins
        self.in_ip_update = False
        self.repaired = 0
        self.cond = defaultdict(list)
        self.events = defaultdict(lambda: np.zeros(n_bins, dtype=int))

    def conditions(self, name: str, a: np.ndarray) -> None:
        self.cond[name].append(np.linalg.cond(a).reshape(-1, self.n_bins))

    def count(self, name: str, mask: np.ndarray) -> None:
        self.events[name] += mask.reshape(-1, self.n_bins).sum(axis=0)

    def low_bins(self) -> dict:
        out = {}
        for name, per_call in self.cond.items():
            c = np.concatenate(per_call)  # (systems, bins)
            rows = {f"bin {i}": c[:, i] for i in LOW_BINS}
            rows["median bin"] = np.median(c, axis=1)
            out[f"cond {name}"] = {
                label: {"median": float(f"{np.median(v):.4g}"), "max": float(f"{np.max(v):.4g}")}
                for label, v in rows.items()}
        for name, counts in self.events.items():
            block = {f"bin {i}": int(counts[i]) for i in LOW_BINS}
            block["median bin"] = float(np.median(counts))
            block["all bins"] = int(counts.sum())
            out[name] = block
        return out


@contextlib.contextmanager
def wrapped(separators, numerics, rec: Recorder):
    """Wrap the solvers the engines call so ``rec`` sees their systems;
    the originals are put back on exit."""
    ip_update, source_block = separators.ip_update, separators._source_block
    scaled_inverse, congruence = numerics.scaled_inverse, numerics.congruence
    solve_with_inverse, solve_2x2 = numerics.solve_with_inverse, numerics._solve_2x2
    solve_loaded = numerics.solve_loaded

    def ip_update_rec(*args, **kwargs):
        rec.in_ip_update = True
        try:
            return ip_update(*args, **kwargs)
        finally:
            rec.in_ip_update = False

    def scaled_inverse_rec(a, loading):
        if rec.in_ip_update:
            rec.repaired += int(np.prod(a.shape[:-2]))
        return scaled_inverse(a, loading)

    def source_block_rec(w, n_src, loading):
        out = source_block(w, n_src, loading)
        rec.conditions("S", out[0])
        return out

    def congruence_rec(v, held, side):
        out = congruence(v, held, side)
        rec.conditions("sub-filter system", out)
        return out

    def solve_with_inverse_rec(p, a, b, loading):
        x, ax, ok = solve_with_inverse(p, a, b, loading)
        rec.count("loading gate closed",
                  loading * np.einsum("...ii->...", p).real > numerics._FIRST_ORDER_MAX)
        rec.count("solution from P rejected", ~ok)
        return x, ax, ok

    def solve_loaded_rec(a, b, loading):
        x, ax, ok = solve_loaded(a, b, loading)
        rec.count("small system sent to LAPACK", ~ok)
        return x, ax, ok

    def solve_2x2_rec(a, b, shift):
        x, ok = solve_2x2(a, b, shift)
        if ok.size % rec.n_bins == 0:  # whole stacks of bins, not a fallback subset
            rec.count("small system sent to LAPACK", ~ok)
        return x, ok

    patches = {(separators, "ip_update"): ip_update_rec,
               (separators, "_source_block"): source_block_rec,
               (numerics, "scaled_inverse"): scaled_inverse_rec,
               (numerics, "congruence"): congruence_rec,
               (numerics, "solve_with_inverse"): solve_with_inverse_rec,
               (numerics, "_solve_2x2"): solve_2x2_rec,
               (numerics, "solve_loaded"): solve_loaded_rec}
    originals = {key: getattr(*key) for key in patches}
    try:
        for (module, name), fn in patches.items():
            setattr(module, name, fn)
        yield
    finally:
        for (module, name), fn in originals.items():
            setattr(module, name, fn)


def stream(pkg, rec: Recorder, bins: np.ndarray, cfg) -> dict:
    """One engine over (T, I, M) ``bins``, each frame projected back to
    microphone 0; the row of the table."""
    rec.start(cfg.algorithm.value, bins.shape[1])
    digest = hashlib.sha256()
    state = pkg.separators.init_state(cfg, bins.shape[1])
    w_max = np.abs(state.W).max()
    row = {"frames": len(bins), "raised_at_frame": None, "projection_back raised_at_frame": None}
    back_warnings = 0
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
            # projection back reads the state only, so the stream goes on
            # if it raises; its warnings are counted apart
            with warnings.catch_warnings(record=True) as caught_back:
                warnings.simplefilter("always")
                try:
                    pkg.separators.projection_back(state, est.y, 0)
                except (ArithmeticError, ValueError) as exc:
                    if row["projection_back raised_at_frame"] is None:
                        row["projection_back raised_at_frame"] = t
                        row["projection_back error"] = str(exc)
            back_warnings += len(caught_back)
            w_max = np.abs(state.W).max()
            rec.conditions("V", state.V)
    row["ip_update repaired bins"] = rec.repaired
    row["warnings"] = len(caught)
    row["projection_back warnings"] = back_warnings
    row["max |W|"] = float(w_max)
    row["sha256"] = digest.hexdigest()
    return {**row, **rec.low_bins()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, required=True, help="directory holding ivastream/")
    args = parse_args(parser, argv)

    sys.path.insert(0, str(args.src.resolve()))
    sys.path.insert(1, str(CONFIGS.parent / "perfbench"))
    import inputs  # perfbench's seeded scenes, numpy only
    import ivastream
    from ivastream import io, numerics, separators

    def small(engine, forgetting):
        m = {"auxiva": 2, "overiva": 9, "biiva": 9}[engine]
        subs = (3, 3) if engine == "biiva" else (None, None)
        return separators.SeparatorConfig(m, 2, engine, *subs, forgetting=forgetting)

    rec, table = Recorder(), {}

    def run(name, engine, bins, cfg):
        row = stream(ivastream, rec, bins, cfg)
        table.setdefault(name, {})[engine] = row
        print(f"{name:18s} {engine:8s} " + "; ".join(
            f"{k} {v}" for k, v in row.items()
            if not (isinstance(v, dict) or k == "sha256" or k.endswith("error"))), flush=True)
        for k, v in row.items():
            if isinstance(v, dict):
                print(f"{'':27s} {k}: " + "; ".join(
                    f"{b} {c['median']:.3g} (max {c['max']:.3g})" if isinstance(c, dict)
                    else f"{b} {c:g}" for b, c in v.items()))

    with wrapped(separators, numerics, rec):
        configs = {engine: io.load_separator_config(CONFIGS / f"{engine}.json")
                   for engine in ENGINES}
        desk = desk_bins(1)
        for engine, cfg in configs.items():
            run("desk", engine, desk, cfg)
        shipped = configs["overiva"]
        for seed in DESK_SEEDS:
            run(f"desk30_seed{seed}", "overiva", desk_bins(seed, DESK_SWEEP_SECONDS), shipped)
        desk30 = desk_bins(1, DESK_SWEEP_SECONDS)
        for name, channel_1 in (("desk_duplicated", desk30[..., 0]), ("desk_dead_mic", 0.0)):
            x = desk30.copy()
            x[..., 1] = channel_1
            for engine, cfg in configs.items():
                run(name, engine, x, cfg)
        rows, cols = inputs.GRID
        m16 = dataclasses.replace(shipped, n_channels=rows * cols)
        run("m16", "overiva", inputs.far_field_grid(1, M16_FRAMES).x, m16)
        for engine in ENGINES:
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
