"""Span tracer that times calls into ivastream's public functions from outside.

The tracer replaces module attributes with timing wrappers, so the package
itself is not edited.  A function is wrapped under every name it is bound
to in the package: ``cli`` imports ``process_frame``, ``analyze``,
``decompose`` and others by value, and patching only the defining module
would miss those calls.

Spans are kept in memory as (name, engine, start, end, parent, group) and
written out once, when the benchmark ends.  ``group`` is the id of the frame
or run that caused the span; ``engine`` is the algorithm whose state the
nearest enclosing ``process_frame`` / ``projection_back`` call received, or
``""`` outside any engine.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from pathlib import Path

# (module, function) pairs whose calls become spans
TRACED = (
    ("numerics", "solve_column"),
    ("numerics", "hermitian_solve"),
    ("numerics", "solve_general"),
    ("numerics", "congruence"),
    ("numerics", "lift_left"),
    ("numerics", "lift_right"),
    ("separators", "process_frame"),
    ("separators", "projection_back"),
    ("separators", "contrast_weight"),
    ("separators", "ip_update"),
    ("separators", "oc_update"),
    ("stft", "analyze"),
    ("stft", "synthesize"),
    ("roomsim", "image_source_rir"),
    ("roomsim", "mix"),
    ("metrics", "decompose"),
    ("metrics", "convergence_curve"),
    ("io", "write_wav"),
    ("cli", "pair_sources"),
    ("cli", "run_benchmark"),
)
MODULES = ("numerics", "separators", "stft", "roomsim", "metrics", "io", "cli")
# calls whose first argument is a SeparatorState: they set the engine prefix
_ENGINE_SPANS = {"separators.process_frame", "separators.projection_back"}


class Tracer:
    """Collects spans from wrapped package functions; not thread-safe."""

    def __init__(self):
        self.names: list[str] = []
        self.engines: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.groups: list[str] = []
        self.errors: Counter = Counter()
        self.group = ""
        self._stack: list[list] = []  # [span index, engine, child raised]
        self._patched: list[tuple] = []

    def _wrap(self, span_name: str, module: str, fn):
        tracer = self
        sets_engine = span_name in _ENGINE_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if sets_engine:
                engine = args[0].config.algorithm.value
            else:
                engine = stack[-1][1] if stack else ""
            idx = len(tracer.names)
            tracer.names.append(span_name)
            tracer.engines.append(engine)
            tracer.parents.append(stack[-1][0] if stack else -1)
            tracer.groups.append(tracer.group)
            tracer.ends.append(0.0)
            entry = [idx, engine, False]
            stack.append(entry)
            tracer.starts.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                # count an error once, in the innermost traced function it left
                if not entry[2]:
                    tracer.errors[module] += 1
                if len(stack) > 1:
                    stack[-2][2] = True
                raise
            finally:
                tracer.ends[idx] = time.perf_counter()
                stack.pop()

        return wrapper

    def install(self, package) -> None:
        """Wrap every TRACED function under every name the package binds it to."""
        mods = [m for name, m in sys.modules.items() if name.split(".")[0] == package.__name__]
        for module, func in TRACED:
            original = getattr(getattr(package, module), func)
            wrapper = self._wrap(f"{module}.{func}", module, original)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def patch(self, owner, attr: str, span_name: str) -> None:
        """Trace one more callable, e.g. benchmark code that runs inside a
        traced call and must not count as that call's self time."""
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self._wrap(span_name, span_name.split(".")[0], original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def patched_names(self) -> set[str]:
        """``module.attr`` of every binding replaced by a wrapper."""
        return {f"{mod.__name__.split('.')[-1]}.{attr}" for mod, attr, _ in self._patched}

    def self_times(self) -> list[float]:
        """Per-span duration minus the time its direct children cover."""
        out = [e - s for s, e in zip(self.starts, self.ends)]
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= self.ends[idx] - self.starts[idx]
        return out

    def summary(self) -> Counter:
        """Per-layer metrics ``[<engine>.]<module>.<function>.{calls,self_s}``
        of every function called, and ``<module>.errors`` of every module;
        absent keys read as 0."""
        out: Counter = Counter()
        for name, engine, st in zip(self.names, self.engines, self.self_times()):
            key = f"{engine}.{name}" if engine else name
            out[f"{key}.calls"] += 1
            out[f"{key}.self_s"] += st
        for module in MODULES:
            out[f"{module}.errors"] = self.errors[module]
        return out

    def write(self, path: Path) -> None:
        """Write all spans as one JSON document of parallel columns."""
        doc = {
            "name": self.names,
            "engine": self.engines,
            "start": self.starts,
            "end": self.ends,
            "parent": self.parents,
            "group": self.groups,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))
