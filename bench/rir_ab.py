"""In-process A/B of two checkouts' room synthesis: ms per RIR and byte
equality at several reverberation times.

    python3 bench/rir_ab.py --parent ../parent --change . [--t60 0.15,0.3,0.5] \
        [--out BENCH.json --key rir_ab]

Each checkout's ``src/ivastream`` is imported into this one process under its
own module name (``engine_ab.load_package``), with BLAS pinned to one thread
(``record``).  For each T60, each side builds ``Room.from_t60`` on the
dimensions of the shipped desk scene (``configs/desk_scenario.json``); the two
rooms' reflections must be equal bit for bit.  Each side then synthesizes the
RIR from every emitter of the desk scene (its sources and its placed noises)
to each microphone in ``MICS``; the two sides take turns RIR by RIR, the side
that goes first alternating, and every pair of RIRs is compared byte for
byte.  Prints, per T60, the image order, each side's median ms per RIR, their
ratio (change / parent) and how many RIRs the change synthesized faster, the
same for ``Room.from_t60``, and the largest energy of a difference between
two RIRs (the shorter zero-padded) relative to the parent's RIR, in dB
(``None`` in the table, ``-inf`` printed, when every pair is identical), so a
deliberate change to the RIRs is sized by the same run; with ``--out`` the
table is stored under ``--key``.  Exits 1 if any reflection or RIR differs.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

from engine_ab import SIDES, load_package
from record import CONFIGS, parse_args, store

import numpy as np  # after record's BLAS thread pin

MICS = (0, 4, 8)  # a corner, the centre and the opposite corner of the 3x3 desk grid
FROM_T60_ROUNDS = 5


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def summary(times: dict) -> dict:
    med = {side: statistics.median(times[side]) * 1e3 for side in SIDES}
    wins = sum(c < p for p, c in zip(times["parent"], times["change"]))
    return {"parent_ms": round(med["parent"], 3), "change_ms": round(med["change"], 3),
            "ratio": round(med["change"] / med["parent"], 3),
            "change_faster": f"{wins}/{len(times['parent'])}"}


def difference_db(parent: np.ndarray, change: np.ndarray) -> float:
    """Energy of ``change - parent``, the shorter zero-padded, relative to
    ``parent``'s, in dB; ``-inf`` when they are equal."""
    n = max(len(parent), len(change))
    diff = np.pad(change, (0, n - len(change))) - np.pad(parent, (0, n - len(parent)))
    energy = float(diff @ diff)
    return 10.0 * np.log10(energy / float(parent @ parent)) if energy else -np.inf


def run_t60(t60: float, packages: dict, scene) -> dict:
    """One T60: ``Room.from_t60`` and the RIRs, both sides interleaved."""
    dims = scene.room.dimensions
    rooms, setup = {}, {side: [] for side in SIDES}
    for k in range(FROM_T60_ROUNDS):
        for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
            rooms[side], dt = timed(packages[side].roomsim.Room.from_t60, dims, t60)
            setup[side].append(dt)
    same_room = rooms["parent"].reflection == rooms["change"].reflection and (
        rooms["parent"].max_image_order == rooms["change"].max_image_order)
    emitters = np.vstack([scene.source_positions, scene.noise_positions])
    mics = scene.array.positions[list(MICS)]
    times, identical, worst_db, k = {side: [] for side in SIDES}, True, -np.inf, 0
    for src in emitters:
        for mic in mics:
            h = {}
            for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
                h[side], dt = timed(packages[side].roomsim.image_source_rir, rooms[side], src, mic)
                times[side].append(dt)
            identical &= h["parent"].tobytes() == h["change"].tobytes()
            worst_db = max(worst_db, difference_db(h["parent"], h["change"]))
            k += 1
    return {"t60": t60, "image_order": rooms["change"].max_image_order,
            "reflection_identical": same_room, "rirs_identical": identical,
            "max_difference_db": None if worst_db == -np.inf else round(worst_db, 2),
            "rir": summary(times), "from_t60": summary(setup)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--t60", default="0.15,0.3,0.5", help="comma-separated seconds")
    args = parse_args(parser, argv)

    sys.path.insert(0, str(args.change.resolve() / "src"))
    packages = {side: load_package(getattr(args, side).resolve() / "src", f"ivastream_{side}")
                for side in SIDES}
    scene = packages["change"].io.load_scenario(CONFIGS / "desk_scenario.json")
    rows = []
    for t60 in (float(v) for v in args.t60.split(",")):
        row = run_t60(t60, packages, scene)
        rows.append(row)
        rir, setup, diff = row["rir"], row["from_t60"], row["max_difference_db"]
        print(f"T60 {t60:g} s order {row['image_order']}: RIR {rir['parent_ms']:.1f} -> "
              f"{rir['change_ms']:.1f} ms ({rir['ratio']:.3f}, faster {rir['change_faster']}), "
              f"from_t60 {setup['parent_ms']:.2f} -> {setup['change_ms']:.2f} ms, "
              f"identical: reflection {row['reflection_identical']} RIRs {row['rirs_identical']} "
              f"(largest difference {'-inf' if diff is None else diff} dB)", flush=True)
    if args.out:
        command = (f"python3 bench/rir_ab.py --parent <parent checkout> --change <change checkout> "
                   f"--t60 {args.t60} --out {args.out.name} --key {args.key}")
        store(args.out, args.key, {"command": command, "mics": list(MICS), "rows": rows})
    return 0 if all(r["reflection_identical"] and r["rirs_identical"] for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
