"""Host-speed probes, and times reported at a reference host speed.

On a shared host the same work takes up to twice as long from one minute to
the next: the neighbours' load changes, not the program.  Every run
therefore times fixed probes right next to the work it measures, and a
measured time ``t`` is reported as ``t * REF_MS[kind] / probe_ms``, with
``probe_ms`` the mean of the probes taken over the same stretch: the time
the work would take on a host whose probe runs in ``REF_MS[kind]``.

Two kinds of work slow down differently, so there are two probes:

``solve``
    a batched 513 x (9x9) complex solve, like the per-frame kernels; taken
    after every frame (round) and around every set-up.  Its median is the
    run's ``host.ref_ms``.
``vector``
    a windowed-sinc scatter over 81k taps, like the image-source RIR
    synthesis; taken after every RIR.

The probes are benchmark code, so a change to ivastream moves the work but
not the probes.  The raw times are printed next to the scaled ones.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time

import numpy as np

# probe times of the reference host (2-core x86, OpenBLAS), milliseconds
REF_MS = {"solve": 1.4, "vector": 4.0}

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((513, 9, 9)) + 1j * _rng.standard_normal((513, 9, 9)) + 3.0 * np.eye(9)
_B = _rng.standard_normal((513, 9, 1)) + 0j
_DELAYS = _rng.uniform(0.0, 10000.0, 1000)  # fractional delays in samples
_TAPS = np.arange(81)


def _solve() -> None:
    np.linalg.solve(_A, _B)


def _vector() -> None:
    taps = np.floor(_DELAYS)[:, None] + _TAPS
    t = taps - _DELAYS[:, None]
    vals = np.sinc(t) * (0.5 + 0.5 * np.cos(np.pi * t / 40.5))
    np.bincount(taps.ravel().astype(np.int64), weights=vals.ravel(), minlength=10100)


_PROBES = {"solve": _solve, "vector": _vector}


class Meter:
    """Probe samples of one run.

    ``samples[kind]`` holds the timed probe durations; ``spent`` the wall
    time all probing took (a warm-up call plus the timed call each time),
    which is subtracted from any measured interval the probes ran inside.
    """

    def __init__(self):
        self.samples: dict[str, list[float]] = {kind: [] for kind in _PROBES}
        self.spent: list[float] = []

    def sample(self, kind: str = "solve") -> None:
        probe = _PROBES[kind]
        t0 = time.perf_counter()
        probe()  # warm-up: the timed call does not pay for the program's cache use
        t1 = time.perf_counter()
        probe()
        t2 = time.perf_counter()
        self.samples[kind].append(t2 - t1)
        self.spent.append(t2 - t0)

    def count(self, kind: str = "solve") -> int:
        return len(self.samples[kind])

    def scale(self, kind: str = "solve", start: int = 0, stop: int | None = None) -> float:
        """Factor taking times measured while samples ``start:stop`` of
        ``kind`` were taken to the reference host speed."""
        return REF_MS[kind] * 1e-3 / statistics.fmean(self.samples[kind][start:stop])

    def spent_since(self, start: int) -> float:
        """Wall time of all probing since ``len(spent)`` was ``start``."""
        return sum(self.spent[start:])

    def median_ms(self, kind: str = "solve") -> float:
        return statistics.median(self.samples[kind]) * 1e3

    @contextlib.contextmanager
    def after_calls(self, module, name: str, kind: str):
        """Take a ``kind`` sample after every call of ``module.name`` while active."""
        original = getattr(module, name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            try:
                return original(*args, **kwargs)
            finally:
                self.sample(kind)

        setattr(module, name, wrapper)
        try:
            yield
        finally:
            setattr(module, name, original)
