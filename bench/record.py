"""Shared by the bench scripts: the host a measurement ran on, and a JSON
results file that collects one block per measurement under its own key."""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path

import numpy as np


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
