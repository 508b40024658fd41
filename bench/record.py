"""Shared by the bench scripts: BLAS pinned to one thread (importing this
module sets the pin, so a script imports it before numpy loads BLAS), the
seeded desk stream, the ``--out``/``--key`` pair, the child-process CLI
runner, the host a measurement ran on, and a JSON results file that
collects one block per measurement under its own key."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402 - after the BLAS thread pin

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
DESK_SECONDS = 6.0


def desk_bins(seed: int, seconds: float | None = None) -> np.ndarray:
    """(T, I, M) STFT of the desk mixture, as ``perfbench``'s ``stream_desk``
    builds it: the shipped desk scene (``configs/desk_scenario.json``) at
    ``seed``, synthesized as the CLI does, ``seconds`` long (``DESK_SECONDS``
    by default), analysed with the desk manifest's STFT, by the
    ``ivastream`` package on ``sys.path``."""
    from ivastream import cli, io, stft

    manifest = json.loads((CONFIGS / "desk_manifest.json").read_text())
    scenario = dataclasses.replace(io.load_scenario(CONFIGS / "desk_scenario.json"), seed=seed)
    bundle = cli._synthesize_mixture(scenario, DESK_SECONDS if seconds is None else seconds)
    fs = bundle.sample_rate
    frames = stft.analyze(bundle.observations, stft.StftConfig(sample_rate=fs, **manifest["stft"]))
    return np.stack([f.bins for f in frames])


def parse_args(parser: argparse.ArgumentParser, argv=None) -> argparse.Namespace:
    """Add the ``--out``/``--key`` pair to ``parser`` and parse ``argv``."""
    parser.add_argument("--out", type=Path, help="JSON results file")
    parser.add_argument("--key", help="name of this measurement in --out")
    args = parser.parse_args(argv)
    if (args.out is None) != (args.key is None):
        parser.error("--out and --key go together")
    return args


def run_cli(src: Path, args: list[str], cwd: Path) -> None:
    """Run ``python -m ivastream.cli *args`` in a child process from ``cwd``
    with the package in ``src``, one BLAS thread (the pin above) and no
    ``IVASTREAM_OUTPUT_ROOT``, so relative ``--out`` paths land in ``cwd``."""
    env = {**os.environ, "PYTHONPATH": str(src.resolve())}
    env.pop("IVASTREAM_OUTPUT_ROOT", None)
    subprocess.run([sys.executable, "-m", "ivastream.cli", *args], cwd=cwd, env=env,
                   check=True, stdout=subprocess.DEVNULL)


def host() -> dict:
    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        names = [line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                 if line.startswith("model name")]
        cpu = names[0] if names else cpu
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "cpus": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}, 1 thread",
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def store(path: Path, key: str, block: dict) -> None:
    """Write ``block`` as ``path[key]``, keeping the file's other keys."""
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc[key] = {**block, "host": host()}
    path.write_text(json.dumps(doc, indent=1) + "\n")
