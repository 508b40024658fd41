"""sha256 of every scientific output of one short run of each CLI command.

    python3 bench/cli_hashes.py --src <checkout>/src [--out BENCH.json --key hashes_K]

In a temporary directory, with one BLAS thread, the ``ivastream`` package
found under ``--src`` runs ``rir`` and ``simulate`` (4 s, seed 7) on the
desk scenario, ``separate`` with overiva and biiva, ``evaluate`` on each
estimate (``--filter-length 64``) and ``benchmark`` on the desk manifest
cut to seed 3, 4 s and ``filter_length`` 64.  The inputs are this
repository's ``configs/``, so two checkouts hashed with it ran on the same
files.  Prints ``sha256 path`` for every output except the timing files,
whose wall times differ from run to run; with ``--out`` the table is stored
under ``--key``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

from record import CONFIGS, parse_args, run_cli, store

ENGINES = ("overiva", "biiva")


def commands() -> list[list[str]]:
    """CLI argument lists, run in order from the work directory."""
    scenario = str(CONFIGS / "desk_scenario.json")
    cmds = [["rir", scenario, "--out", "rir"],
            ["simulate", scenario, "--out", "sim", "--duration", "4", "--seed", "7"]]
    for name in ENGINES:
        cmds.append(["separate", "sim/observations.wav", str(CONFIGS / f"{name}.json"),
                     "--out", f"sep_{name}", "--timing-log", f"sep_{name}/timing.csv"])
        cmds.append(["evaluate", f"sep_{name}/estimates.wav", "sim/reference_images.wav",
                     "--mixture", "sim/observations.wav", "--out", f"eval_{name}",
                     "--filter-length", "64"])
    cmds.append(["benchmark", "manifest.json", "--out", "bench"])
    return cmds


def write_manifest(path: Path) -> None:
    doc = json.loads((CONFIGS / "desk_manifest.json").read_text())
    doc["scenario"] = str(CONFIGS / doc["scenario"])
    doc["separators"] = {k: str(CONFIGS / v) for k, v in doc["separators"].items()}
    doc.update(seeds=[3], duration_seconds=4.0)
    doc["evaluation"]["filter_length"] = 64
    path.write_text(json.dumps(doc, indent=2))


def run(src: Path) -> dict[str, str]:
    """Run every command against the package in ``src``; {path: sha256}."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        write_manifest(work / "manifest.json")
        for args in commands():
            run_cli(src, args, work)
        return {
            str(p.relative_to(work)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(work.rglob("*"))
            if p.is_file() and p.name != "manifest.json" and not p.name.startswith("timing")
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, required=True, help="directory holding ivastream/")
    args = parse_args(parser, argv)
    hashes = run(args.src)
    for path, digest in hashes.items():
        print(f"{digest} {path}")
    if args.out:
        command = (f"python3 bench/cli_hashes.py --src <checkout>/src "
                   f"--out {args.out.name} --key {args.key}")
        store(args.out, args.key, {"command": command,
                                   "runs": [" ".join(c) for c in commands()],
                                   "sha256": hashes})
    return 0


if __name__ == "__main__":
    sys.exit(main())
