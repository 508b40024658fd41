"""Alternating parent/change runs of the perfbench benchmark.

    python3 bench/pairs.py --parent ../parent --change . --workload stream_desk \
        --seeds 941-950 [--trace 1] [--out BENCH.json --key pairs_stream_desk]

Each seed is one pair: ``perfbench/run.py`` runs once in each checkout with
the same arguments and the ``run_seconds`` of BENCHMARK.json, the side that
goes first alternating from pair to pair.  Prints, per metric, each side's
median and quartiles, the median ratio (change / parent) and how many pairs
the change won (lower is better for every metric the benchmark reports;
ties count for neither side).  The info lines ``perfbench/run.py`` prints,
each engine's 99th-percentile frame time (``<engine>.frame_ms_p99``), the
unscaled times (``setup_raw_s``, ``wall_raw_s``, ``<engine>.rtf_raw``) and
the median of the host probe the scaled times are divided by
(``host.probe_ms``), are reported beside them as each side's median and
quartiles only: they are no verdict metrics of the benchmark, but a probe
that reads differently on the two sides shows there, and the raw times
then tell whether a scaled gain is the code's.  With ``--out`` the runs and
the summary are stored in that JSON file under ``--key``.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

from record import parse_args, store

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
INFO = re.compile(r"^\S+ (\w+\.frame_ms_p99|[\w.]+_raw(?:_s)?) = (\S+) \w+$")
PROBE = re.compile(r"^host: ref_ms (\S+) ")


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One benchmark run; returns {metric: value} from its JSON result line
    and {info name: value} from its info lines and its host probe line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{checkout} seed {seed}: run reported incorrect output")
    values = {k: m["value"] for k, m in result["metrics"].items()}
    values["failed_frac"] = result["failed"] / result["attempted"]
    info = {m[1]: float(m[2]) for m in map(INFO.match, lines) if m}
    info.update({"host.probe_ms": float(m[1]) for m in map(PROBE.match, lines) if m})
    return values, info


def quartiles(xs: list[float]) -> list[float]:
    """[q1, median, q3] (inclusive method: quartiles of the sample itself)."""
    if len(xs) == 1:
        return [xs[0]] * 3
    return statistics.quantiles(xs, n=4, method="inclusive")


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["parent"]:
        parent = [r["parent"][name] for r in runs]
        change = [r["change"][name] for r in runs]
        if any(v is None for v in parent + change):
            continue
        pq, cq = quartiles(parent), quartiles(change)
        out[name] = {
            "parent_q1_median_q3": pq,
            "change_q1_median_q3": cq,
            "median_ratio": cq[1] / pq[1] if pq[1] else None,
            "parent_iqr": pq[2] - pq[0],
            "change_wins": sum(c < p for p, c in zip(parent, change)),
            "parent_wins": sum(p < c for p, c in zip(parent, change)),
            "pairs": len(runs),
        }
    return out


def summarize_info(runs: list[dict]) -> dict:
    """Each side's [q1, median, q3] of every info value, no verdict."""
    names = runs[0]["info"]["parent"]
    return {name: {side: quartiles([r["info"][side][name] for r in runs])
                   for side in ("parent", "change")} for name in names}


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 941-950 or 3,7")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parse_args(parser, argv)
    seconds = json.loads(BENCHMARK.read_text())["run_seconds"]

    runs = []
    for k, seed in enumerate(parse_seeds(args.seeds)):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0], "info": {}}
        for side in order:
            checkout = args.parent if side == "parent" else args.change
            pair[side], pair["info"][side] = run_once(checkout, args.workload, seed, seconds,
                                                      args.trace)
        runs.append(pair)
        print(f"seed {seed}: " + " ".join(
            f"{name} {pair['parent'][name]:.4g}->{pair['change'][name]:.4g}"
            for name in pair["parent"] if name.endswith(("rtf", "_s")) and pair["parent"][name] is not None
        ), flush=True)

    summary = summarize(runs)
    for name, s in summary.items():
        pq, cq = s["parent_q1_median_q3"], s["change_q1_median_q3"]
        ratio = "n/a" if s["median_ratio"] is None else f"{s['median_ratio']:.3f}"
        print(f"{args.workload} {name}: parent {pq[1]:.4g} [{pq[0]:.4g}, {pq[2]:.4g}] "
              f"change {cq[1]:.4g} [{cq[0]:.4g}, {cq[2]:.4g}] ratio {ratio} "
              f"change wins {s['change_wins']}/{s['pairs']}")
    info = summarize_info(runs)
    for name, sides in info.items():
        pq, cq = sides["parent"], sides["change"]
        print(f"{args.workload} {name} (info): parent {pq[1]:.4g} [{pq[0]:.4g}, {pq[2]:.4g}] "
              f"change {cq[1]:.4g} [{cq[0]:.4g}, {cq[2]:.4g}] ratio {cq[1] / pq[1]:.3f}")
    if args.out:
        command = (f"python3 bench/pairs.py --parent <parent checkout> --change <change checkout> "
                   f"--workload {args.workload} --seeds {args.seeds} --trace {args.trace} "
                   f"--out {args.out.name} --key {args.key}")
        store(args.out, args.key, {"command": command, "run_seconds": seconds,
                                   "summary": summary, "info": info, "runs": runs})
    return 0


if __name__ == "__main__":
    sys.exit(main())
