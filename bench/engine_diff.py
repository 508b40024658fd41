"""Largest difference between two checkouts' separated spectra.

    python3 bench/engine_diff.py --parent ../parent --change . [--seed 5] \
        [--out BENCH.json --key equivalence]

Two seeded 6 s, 9-channel inputs: the desk scenario simulated with the
change's package (the desk stream of ``bench/engine_ab.py``, through a
float32 WAV), and i.i.d. Gaussian noise.  In one fresh process per
checkout with one BLAS thread, each input's STFT (1024/256, 372 frames)
streams through every engine's shipped config in ``configs/`` (auxiva on
microphones 0 and 1), raw and with projection back to microphone 0.  Prints,
per input, engine and output, the largest absolute difference between the
two checkouts divided by the parent's largest entry, and beside it the same
measure between the parent's outputs for the input and for the input
scaled by ``1 + 2**-52``, and for the input with every ``np.linalg.solve``
result of the parent scaled entrywise by ``1 +- 2**-52`` (seeded random
signs): how far one rounding step at the input, or in each solve, carries
through the recursion.  A change to the solvers whose difference stays at
the last measure is no less accurate than the parent's own rounding.
biiva's solves at the desk are all 2 x 2 or 3 x 3 and solved elementwise,
so none of them reaches ``np.linalg.solve`` and its reference in the
parent's solves reads 0; its reference is the one ulp at the input.  With
``--out`` the table is stored under ``--key``.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from record import store

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
ENGINES = ("auxiva", "overiva", "biiva")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DURATION_S = 6.0

# run in a fresh process against one checkout's package:
# argv = seed, mixture wav, output npz, "perturb" to add the one-ulp runs
CHILD = f"""
import sys
import numpy as np
from ivastream.io import load_separator_config, read_wav
from ivastream.separators import separate_stream
from ivastream.stft import StftConfig, analyze

solve = np.linalg.solve
signs = np.random.default_rng(0)


def solve_ulp(a, b):
    x = solve(a, b)
    return x * (1.0 + 2.0**-52 * signs.choice([-1.0, 1.0], x.shape))


desk = read_wav(sys.argv[2]).samples
noise = np.random.default_rng(int(sys.argv[1])).standard_normal(desk.shape)
runs = [(1.0, solve, "")]
if sys.argv[4:] == ["perturb"]:
    runs += [(1.0 + 2.0**-52, solve, " ulp"), (1.0, solve_ulp, " solve ulp")]
out = {{}}
for source, x in (("desk", desk), ("noise", noise)):
    for scale, solver, tag in runs:
        np.linalg.solve = solver
        for name in {ENGINES!r}:
            cfg = load_separator_config({str(CONFIGS)!r} + f"/{{name}}.json")
            frames = analyze(scale * x[: cfg.n_channels], StftConfig(fft_size=1024, hop=256))
            out[f"{{source}} {{name}} raw{{tag}}"] = separate_stream(frames, cfg)
            out[f"{{source}} {{name}} projection back{{tag}}"] = separate_stream(
                frames, cfg, reference_channel=0)
np.savez(sys.argv[3], **out)
"""


def run(src: Path, args: list[str], cwd: Path) -> None:
    env = {**os.environ, "PYTHONPATH": str(src.resolve())}
    env.update({var: "1" for var in THREAD_VARS})
    env.pop("IVASTREAM_OUTPUT_ROOT", None)
    subprocess.run([sys.executable, *args], cwd=cwd, env=env, check=True,
                   stdout=subprocess.DEVNULL)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--key", help="name of this table in --out")
    args = parser.parse_args(argv)
    if (args.out is None) != (args.key is None):
        parser.error("--out and --key go together")

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        run(args.change / "src", ["-m", "ivastream.cli", "simulate",
                                  str(CONFIGS / "desk_scenario.json"), "--out", "sim",
                                  "--duration", str(DURATION_S), "--seed", str(args.seed)], work)
        spectra = {}
        for side in ("parent", "change"):
            checkout = getattr(args, side)
            run(checkout / "src", ["-c", CHILD, str(args.seed), "sim/observations.wav",
                                    f"{side}.npz"] + (["perturb"] if side == "parent" else []),
                work)
            with np.load(work / f"{side}.npz") as doc:
                spectra[side] = {k: doc[k] for k in doc.files}

    parent, change = spectra["parent"], spectra["change"]
    table = {}
    for name in change:
        ref = parent[name]
        scale = np.max(np.abs(ref))
        diff = np.max(np.abs(change[name] - ref)) / scale
        ulp = np.max(np.abs(parent[name + " ulp"] - ref)) / scale
        solve_ulp = np.max(np.abs(parent[name + " solve ulp"] - ref)) / scale
        table[name] = {"change": float(diff), "parent_one_ulp_input": float(ulp),
                       "parent_one_ulp_solves": float(solve_ulp)}
        print(f"{name}: {diff:.3g} of the parent's largest entry; one ulp at the "
              f"parent's input: {ulp:.3g}, in the parent's solves: {solve_ulp:.3g} "
              f"({ref.shape[0]} frames)")
    if args.out:
        command = (f"python3 bench/engine_diff.py --parent <parent checkout> "
                   f"--change <change checkout> --seed {args.seed} "
                   f"--out {args.out.name} --key {args.key}")
        store(args.out, args.key, {"command": command, "relative_max_diff": table})
    return 0


if __name__ == "__main__":
    sys.exit(main())
