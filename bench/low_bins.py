"""Conditioning and loading events of the desk stream's lowest bins.

    python3 bench/low_bins.py [--seed 5] [--out BENCH.json --key low_bins]

Streams ``record.desk_bins`` at the seed, the desk stream that
``bench/engine_ab.py`` and ``perfbench``'s ``stream_desk`` run (the shipped
desk scene, 6 s, STFT 1024/256, 372 frames), through every engine's shipped
config in ``configs/`` (auxiva on microphones 0 and 1) with projection back
to microphone 0.  The package's solvers are wrapped to record, per frame
and bin:

* the 2-norm condition number of each source's weighted covariance ``V_n``
  after the frame;
* that of every source block ``S`` the frame's N x N solves see (overiva,
  biiva);
* that of biiva's sub-filter systems ``Delta^H V Delta`` (every
  ``hermitian_solve`` of biiva);
* overiva's first-order loading gate (``loading * tr P`` above
  ``numerics._FIRST_ORDER_MAX``) and the solutions from ``P`` that the IP
  step rejects and re-solves exactly;
* the systems the small-system kernel hands to LAPACK.

Prints, for bins 0, 1 and 2 and for the median bin, the median and the
largest condition number over frames, and each event's count.  With
``--out`` the table is stored under ``--key``.
"""

from __future__ import annotations

import argparse
import sys
from collections import defaultdict

from record import CONFIGS, DESK_SECONDS, desk_bins, parse_args, store

import numpy as np  # after record's BLAS thread pin

sys.path.insert(0, str(CONFIGS.parent / "src"))
from ivastream import io, numerics, separators, stft  # noqa: E402

ENGINES = ("auxiva", "overiva", "biiva")
LOW_BINS = (0, 1, 2)


class Recorder:
    """Condition numbers (frames x bins, per quantity) and per-bin event
    counts of the engine that is streaming."""

    def __init__(self, n_bins: int):
        self.n_bins = n_bins
        self.engine = ""
        self.cond = defaultdict(list)
        self.events = defaultdict(lambda: np.zeros(n_bins, dtype=int))

    def conditions(self, name: str, a: np.ndarray) -> None:
        c = np.linalg.cond(a)
        self.cond[self.engine, name].append(c.reshape(-1, self.n_bins))

    def count(self, name: str, mask: np.ndarray) -> None:
        self.events[self.engine, name] += mask.reshape(-1, self.n_bins).sum(axis=0)


def install(rec: Recorder) -> None:
    """Wrap the solvers the engines call so ``rec`` sees their systems."""
    source_block = separators._source_block
    hermitian_solve = numerics.hermitian_solve
    solve_with_inverse = numerics.solve_with_inverse
    small_solve = numerics._small_solve

    def source_block_rec(w, n_src, loading):
        out = source_block(w, n_src, loading)
        rec.conditions("S", out[0])
        return out

    def hermitian_solve_rec(a, b, loading=0.0):
        if rec.engine == "biiva":
            rec.conditions("sub-filter system", a)
        return hermitian_solve(a, b, loading)

    def solve_with_inverse_rec(p, a, b, loading):
        x, ax, ok = solve_with_inverse(p, a, b, loading)
        rec.count("loading gate closed",
                  loading * np.einsum("...ii->...", p).real > numerics._FIRST_ORDER_MAX)
        rec.count("solution from P rejected", ~ok)
        return x, ax, ok

    def small_solve_rec(a, b, shift):
        x, ok = small_solve(a, b, shift)
        if ok.size % rec.n_bins == 0:  # whole stacks of bins, not a fallback subset
            rec.count("small system sent to LAPACK", ~ok)
        return x, ok

    separators._source_block = source_block_rec
    numerics.hermitian_solve = hermitian_solve_rec
    numerics.solve_with_inverse = solve_with_inverse_rec
    numerics._small_solve = small_solve_rec


def summarize(rec: Recorder, n_frames: int) -> dict:
    out = {}
    for (engine, name), per_call in rec.cond.items():
        c = np.concatenate(per_call)  # (systems, bins)
        rows = {f"bin {i}": c[:, i] for i in LOW_BINS}
        rows["median bin"] = np.median(c, axis=1)
        out.setdefault(engine, {})[f"cond {name}"] = {
            label: {"median": float(f"{np.median(v):.4g}"), "max": float(f"{np.max(v):.4g}")}
            for label, v in rows.items()}
    for (engine, name), counts in rec.events.items():
        block = {f"bin {i}": int(counts[i]) for i in LOW_BINS}
        block["median bin"] = float(np.median(counts))
        block["all bins"] = int(counts.sum())
        out.setdefault(engine, {})[name] = block
    for engine in out:
        out[engine]["frames"] = n_frames
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=5)
    args = parse_args(parser, argv)

    desk = desk_bins(args.seed)
    n_frames, n_bins = desk.shape[:2]
    rec = Recorder(n_bins)
    install(rec)
    for engine in ENGINES:
        rec.engine = engine
        cfg = io.load_separator_config(CONFIGS / f"{engine}.json")
        state = separators.init_state(cfg, n_bins)
        for t in range(n_frames):
            est = separators.process_frame(
                state, stft.SpectralFrame(bins=desk[t, :, : cfg.n_channels], index=t))
            separators.projection_back(state, est.y, 0)
            rec.conditions("V", state.V)

    table = summarize(rec, n_frames)
    for engine, rows in table.items():
        for name, row in rows.items():
            if name == "frames":
                continue
            if name.startswith("cond"):
                text = "; ".join(f"{k} {v['median']:.3g} (max {v['max']:.3g})" for k, v in row.items())
            else:
                text = "; ".join(f"{k} {v:g}" for k, v in row.items())
            print(f"{engine:8s} {name}: {text}")
    if args.out:
        store(args.out, args.key, {
            "command": f"python3 bench/low_bins.py --seed {args.seed} --out {args.out.name} "
                       f"--key {args.key}",
            "input": f"desk scenario, seed {args.seed}, {DESK_SECONDS} s, STFT 1024/256",
            "table": table})
    return 0


if __name__ == "__main__":
    sys.exit(main())
