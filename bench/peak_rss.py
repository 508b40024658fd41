"""Peak memory of one CLI run, in a fresh child process.

    python3 bench/peak_rss.py --src <checkout>/src [--manifest configs/desk_manifest.json] \
        [--seed 0] [--seconds 30] [--command benchmark|simulate] [--out BENCH.json --key K]

In a temporary directory, with one BLAS thread, the ``ivastream`` package
found under ``--src`` runs once in a child process:

``benchmark``
    ``ivastream benchmark`` on the manifest cut to the one seed and
    ``--seconds`` of audio (every engine of the manifest runs);
``simulate``
    ``ivastream simulate`` on the manifest's scenario with that seed and
    duration, the synthesis (``roomsim.mix``) alone.

Prints the child's peak resident set size, ``resource.getrusage
(RUSAGE_CHILDREN).ru_maxrss``, in MB; with ``--out`` the figure is stored
under ``--key``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import tempfile
from pathlib import Path

from record import CONFIGS, parse_args, run_cli, store


def cli_args(manifest: Path, seed: int, seconds: float, command: str, work: Path) -> list[str]:
    """Write the cut manifest into ``work`` and return the CLI arguments."""
    doc = json.loads(manifest.read_text())
    base = manifest.resolve().parent
    scenario = str(base / doc["scenario"])
    if command == "simulate":
        return ["simulate", scenario, "--out", "sim", "--duration", str(seconds),
                "--seed", str(seed)]
    doc["scenario"] = scenario
    doc["separators"] = {k: str(base / v) for k, v in doc["separators"].items()}
    doc.update(seeds=[seed], duration_seconds=seconds)
    (work / "manifest.json").write_text(json.dumps(doc, indent=2))
    return ["benchmark", "manifest.json", "--out", "bench"]


def peak_rss_mb(src: Path, args: list[str], work: Path) -> float:
    """Run ``python -m ivastream.cli *args`` from ``work`` with the package
    in ``src``; the peak RSS of that child in MB (Linux reports KiB)."""
    run_cli(src, args, work)
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, required=True, help="directory holding ivastream/")
    parser.add_argument("--manifest", type=Path, default=CONFIGS / "desk_manifest.json")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--command", choices=("benchmark", "simulate"), default="benchmark")
    args = parse_args(parser, argv)
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        run = cli_args(args.manifest, args.seed, args.seconds, args.command, work)
        peak = peak_rss_mb(args.src, run, work)
    print(f"peak RSS {peak:.1f} MB: ivastream {' '.join(run)}")
    if args.out:
        command = (f"python3 bench/peak_rss.py --src <checkout>/src --manifest "
                   f"{args.manifest.name} --seed {args.seed} --seconds {args.seconds:g} "
                   f"--command {args.command} --out {args.out.name} --key {args.key}")
        store(args.out, args.key, {"command": command, "peak_rss_mb": round(peak, 1)})
    return 0


if __name__ == "__main__":
    sys.exit(main())
