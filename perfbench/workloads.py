"""The three benchmark workloads.

Each workload builds its inputs from the seed (timed as ``setup_s``), runs a
fixed amount of work whose size follows from ``seconds``, checks the outputs
and returns the end-to-end metrics every workload reports:

``setup_s``
    set-up time before the timed work (median of the repetitions)
``wall_s``
    the timed work: summed frame times of all engines for a stream
    workload, one ``cli.run_benchmark`` call for ``pipeline_desk``
``<engine>.rtf``
    summed ``process_frame`` + ``projection_back`` wall time over the audio
    duration

All three are reported at the reference host speed (see host.py): frame
times and short set-ups are scaled by the ``solve`` probe, stretches that
RIR synthesis dominates (the desk set-up, the rest of the ``run_benchmark``
call) by the ``vector`` probe.  The raw times are printed as ``setup_raw_s``,
``wall_raw_s`` and ``<engine>.rtf_raw``.

``<engine>.dsir_db``, the SIR improvement over the final quarter, is
computed outside the timed region, checked to be finite and printed.  It is
not a bounded metric: the streams a run can afford stop before the
overdetermined engines converge, so its value sits near 0 dB with either sign.

Frames are fed in a closed loop: one caller sends the next frame when the
previous call returns.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import json
import math
import statistics
import tempfile
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, field, replace
from itertools import permutations
from pathlib import Path

import numpy as np

from ivastream import cli, io, roomsim, separators, stft
from ivastream.metrics import EvalConfig

import inputs
from host import REF_MS, Meter

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
WORK_DIR = ROOT / "perfbench" / "out"
ENGINES = ("auxiva", "overiva", "biiva")
OC_RESIDUAL_MAX = 1e-6  # ||[J,-I] C W_s^H|| / (||C|| ||W_s||) after a frame


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: dict = field(default_factory=dict)  # end-to-end, name -> value
    info: dict = field(default_factory=dict)  # printed only, name -> (value, unit)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)  # failed checks and errors
    meter: Meter = field(default_factory=Meter)


def _set_group(tracer, group: str) -> None:
    if tracer is not None:
        tracer.group = group


def _setup(outcome, build, repeats: int, kind: str = "solve", hooks=()):
    """Run ``build()`` ``repeats`` times, each between two ``kind`` probe
    samples; record the median set-up time and return the last result.

    ``hooks`` are (module, name) pairs whose calls take a sample too; the
    time those samples take is not counted as set-up.
    """
    meter = outcome.meter
    raw, scaled = [], []
    for _ in range(repeats):
        first = meter.count(kind)
        meter.sample(kind)
        inside = len(meter.spent)
        with contextlib.ExitStack() as stack:
            for module, name in hooks:
                stack.enter_context(meter.after_calls(module, name, kind))
            t0 = time.perf_counter()
            result = build()
            elapsed = time.perf_counter() - t0 - meter.spent_since(inside)
        meter.sample(kind)
        raw.append(elapsed)
        scaled.append(elapsed * meter.scale(kind, first))
    outcome.metrics["setup_s"] = statistics.median(scaled)
    outcome.info["setup_raw_s"] = (statistics.median(raw), "s")
    return result


def _streams(runs, reference_channel, tracer, outcome, on_frame=None):
    """Closed-loop feed of every engine; returns {engine: (frame times, spectra)}.

    ``runs`` maps engine -> (state, frames).  The engines take turns frame by
    frame and a probe sample follows every round, so sample ``j`` of the
    stream belongs to frame ``j`` of each engine.  A frame that raises ends
    that engine's stream: it and every later frame count as failed, and the
    other engines go on.  ``on_frame(engine, j, state, y, y_scaled)`` runs
    after each frame, outside the timed region.
    """
    times = {e: np.empty(len(frames)) for e, (_, frames) in runs.items()}
    spectra = {
        e: np.empty((len(frames), st.config.n_sources, st.n_bins), dtype=np.complex128)
        for e, (st, frames) in runs.items()
    }
    done = {e: len(frames) for e, (_, frames) in runs.items()}
    outcome.attempted += sum(done.values())
    for j in range(max(done.values(), default=0)):
        for engine, (state, frames) in runs.items():
            if j >= done[engine]:
                continue
            _set_group(tracer, f"{engine}/{j}")
            t0 = time.perf_counter()
            try:
                est = separators.process_frame(state, frames[j])
                y = separators.projection_back(state, est.y, reference_channel)
            except Exception:  # noqa: BLE001 - count the failure, keep benchmarking
                outcome.failed += len(frames) - j
                outcome.problems.append(f"{engine} frame {j}: {traceback.format_exc(limit=3)}")
                done[engine] = j
                continue
            times[engine][j] = time.perf_counter() - t0
            spectra[engine][j] = y
            if on_frame is not None:
                on_frame(engine, j, state, est.y, y)
        _set_group(tracer, "")
        outcome.meter.sample()
    return {e: (times[e][: done[e]], spectra[e][: done[e]]) for e in runs}


def _stream_timing(outcome, streamed, first_sample: int, audio_s: float) -> None:
    """Record rtf per engine and wall_s from the frame times of _streams,
    each scaled by the probe samples of the rounds it ran in."""
    wall_raw = wall = 0.0
    for engine, (times, _) in streamed.items():
        total = float(times.sum())
        scale = 1.0
        if len(times):
            scale = outcome.meter.scale("solve", first_sample, first_sample + len(times))
        _record_rtf(outcome, engine, total, scale, audio_s)
        wall_raw += total
        wall += total * scale
        if len(times):
            ms = times * 1e3
            outcome.info[f"{engine}.frame_ms_p50"] = (float(np.percentile(ms, 50)), "ms")
            outcome.info[f"{engine}.frame_ms_p99"] = (float(np.percentile(ms, 99)), "ms")
            outcome.info[f"{engine}.frames"] = (len(times), "count")
            outcome.info[f"{engine}.frames_beyond_p99"] = (len(times) // 100, "count")
    _record_wall(outcome, wall_raw, wall)


def _record_rtf(outcome, engine, seconds: float, scale: float, audio_s: float) -> None:
    outcome.metrics[f"{engine}.rtf"] = seconds * scale / audio_s
    outcome.info[f"{engine}.rtf_raw"] = (seconds / audio_s, "ratio")


def _record_wall(outcome, raw: float, scaled: float) -> None:
    outcome.metrics["wall_s"] = scaled
    outcome.info["wall_raw_s"] = (raw, "s")


def _check_finite(outcome, engine, spectra) -> None:
    if not np.all(np.isfinite(spectra)):
        outcome.problems.append(f"{engine}: non-finite output spectra")


def _record_dsir(outcome, engine, dsir: float) -> None:
    outcome.info[f"{engine}.dsir_db"] = (dsir, "dB")
    if not math.isfinite(dsir):
        outcome.problems.append(f"{engine}: non-finite SIR improvement")


# ---------------------------------------------------------------------------
# stream_desk


def stream_desk_duration(seconds: float) -> float:
    """Audio seconds streamed per engine: about ``seconds`` of frame time
    for all three engines together, and at least one evaluation segment."""
    return max(2.0, round(0.375 * seconds, 1))


def stream_desk(seed: int, seconds: float, tracer=None, scenario_path: Path = None) -> Outcome:
    """The shipped desk mixture, streamed through auxiva, overiva and biiva."""
    outcome = Outcome()
    scenario_path = scenario_path or CONFIGS / "desk_scenario.json"
    manifest = json.loads((CONFIGS / "desk_manifest.json").read_text())
    eval_cfg = EvalConfig(**manifest["evaluation"])
    duration = stream_desk_duration(seconds)

    def build():
        scenario = replace(io.load_scenario(scenario_path), seed=seed)
        fs = scenario.room.sample_rate
        n_samples = int(round(duration * fs))
        talkers = np.stack(
            [cli.speechlike_signal((seed, k), n_samples, fs) for k in range(scenario.n_sources)]
        )
        bundle = roomsim.mix(scenario, talkers)
        stft_cfg = stft.StftConfig(sample_rate=fs, **manifest["stft"])
        runs = {}
        for engine in ENGINES:
            cfg = io.load_separator_config(CONFIGS / f"{engine}.json")
            frames = stft.analyze(bundle.observations[: cfg.n_channels], stft_cfg)
            runs[engine] = (separators.init_state(cfg, stft_cfg.n_bins), frames)
        return bundle, stft_cfg, runs

    # one set-up only: its RIRs take most of a run; probes follow every RIR
    bundle, stft_cfg, runs = _setup(outcome, build, 1, kind="vector",
                                    hooks=[(roomsim, "image_source_rir")])
    fs, n_samples = bundle.sample_rate, bundle.observations.shape[1]

    first = outcome.meter.count()
    streamed = _streams(runs, eval_cfg.reference_channel, tracer, outcome)
    _stream_timing(outcome, streamed, first, n_samples / fs)

    references = bundle.source_images[:, eval_cfg.reference_channel, :]
    mixture = bundle.observations[eval_cfg.reference_channel]
    for engine, (_, out) in streamed.items():
        _check_finite(outcome, engine, out)
        if out.shape[0] < len(runs[engine][1]):
            continue
        frames = [stft.SpectralFrame(bins=s.T, index=j, config=stft_cfg) for j, s in enumerate(out)]
        estimates = stft.synthesize(frames, stft_cfg, n_samples)
        idx = cli.pair_sources(estimates, references, eval_cfg, fs)
        report = cli.convergence_curve(estimates[idx], references, mixture, eval_cfg, fs)
        _record_dsir(outcome, engine, float(np.mean(report.converged_sir_improvement_db)))
    return outcome


# ---------------------------------------------------------------------------
# scale_m16


def scale_m16_frames(seconds: float) -> int:
    """Frames per engine: about ``seconds`` of frame time for all three
    engines at M = 16, and at least 8 so the final quarter is non-empty."""
    return max(8, int(round(11.25 * seconds)))


def _m16_configs() -> dict:
    """Shipped separator configs; the overdetermined ones widened to the
    4x4 grid, auxiva reading the two leading microphones as in the CLI."""
    m = inputs.GRID[0] * inputs.GRID[1]
    cfgs = {e: io.load_separator_config(CONFIGS / f"{e}.json") for e in ENGINES}
    cfgs["overiva"] = replace(cfgs["overiva"], n_channels=m)
    cfgs["biiva"] = replace(cfgs["biiva"], n_channels=m, sub_len_1=inputs.GRID[0],
                            sub_len_2=inputs.GRID[1])
    return cfgs


class _SirTally:
    """STFT-domain SIR of the projection-back outputs over the final quarter.

    Output ``k``'s image of source ``n`` in bin ``i`` is
    ``scale[k, i] * (W_s[i] a_n[i])_k * s_n[i]``, with the per-bin
    projection-back scale read off the engine's own outputs.  Ratios are
    taken per bin and averaged in dB, against the same ratio of the mixture
    at microphone 0.
    """

    def __init__(self, scene, n_channels, n_frames):
        self.a = scene.steering[:, :n_channels, :]  # (I, M, N)
        self.s2 = np.abs(scene.sources) ** 2  # (N, T, I)
        self.first = n_frames - max(1, n_frames // 4)
        n_src = self.a.shape[-1]
        self.energy = np.zeros((n_src, n_src, self.a.shape[0]))  # (out, src, I)

    def __call__(self, j, state, y, y_scaled):
        if j < self.first:
            return
        n_src = self.a.shape[-1]
        gain = np.einsum("ikm,imn->kni", state.W[:, :n_src, :], self.a)  # (out, src, I)
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(y != 0, y_scaled / y, 0.0)  # (out, I)
        self.energy += np.abs(scale[:, None, :] * gain) ** 2 * self.s2[None, :, j, :]

    def improvement_db(self) -> float:
        n_src = self.energy.shape[0]
        s_in = self.s2[:, self.first :, :].sum(axis=1)  # (N, I)
        best = -np.inf
        for perm in permutations(range(n_src)):
            total = 0.0
            for n, k in enumerate(perm):
                tgt = self.energy[k, n]
                out = 10 * np.log10(tgt / (self.energy[k].sum(axis=0) - tgt))
                base = 10 * np.log10(s_in[n] / (s_in.sum(axis=0) - s_in[n]))
                total += float(np.mean(out - base))
            best = max(best, total / n_src)
        return best


def _oc_residual(state) -> float:
    n_src = state.config.n_sources
    w_s = state.W[:, :n_src, :]
    cw = state.C @ np.conj(np.swapaxes(w_s, -1, -2))
    resid = state.W[:, n_src:, :] @ cw  # rows [J, -I]
    num = np.linalg.norm(resid, axis=(-2, -1))
    den = np.linalg.norm(state.C, axis=(-2, -1)) * np.linalg.norm(w_s, axis=(-2, -1))
    return float((num / den).max())


def scale_m16(seed: int, seconds: float, tracer=None, setups: int = 7) -> Outcome:
    """Far-field 4x4 grid (M = 16) generated in the STFT domain: overiva and
    biiva (4x4 sub-filters) on all 16 microphones, auxiva on the two leading
    ones as the engine whose cost does not depend on M."""
    outcome = Outcome()
    n_frames = scale_m16_frames(seconds)
    stft_cfg = stft.StftConfig()

    def build():
        scene = inputs.far_field_grid(seed, n_frames, stft_cfg.fft_size, stft_cfg.hop,
                                      stft_cfg.sample_rate)
        runs = {}
        for engine, cfg in _m16_configs().items():
            x = np.ascontiguousarray(scene.x[:, :, : cfg.n_channels])
            frames = [stft.SpectralFrame(bins=x[t], index=t, config=stft_cfg)
                      for t in range(n_frames)]
            runs[engine] = (separators.init_state(cfg, stft_cfg.n_bins), frames)
        return scene, runs

    scene, runs = _setup(outcome, build, setups)

    tallies = {e: _SirTally(scene, st.config.n_channels, n_frames) for e, (st, _) in runs.items()}
    first = outcome.meter.count()
    streamed = _streams(runs, 0, tracer, outcome,
                        on_frame=lambda engine, *args: tallies[engine](*args))
    audio_s = ((n_frames - 1) * stft_cfg.hop + stft_cfg.fft_size) / stft_cfg.sample_rate
    _stream_timing(outcome, streamed, first, audio_s)
    for engine, (_, out) in streamed.items():
        state = runs[engine][0]
        _check_finite(outcome, engine, out)
        if out.shape[0] < n_frames:
            continue
        _record_dsir(outcome, engine, tallies[engine].improvement_db())
        if state.config.n_channels > state.config.n_sources:
            resid = _oc_residual(state)
            outcome.info[f"{engine}.oc_residual"] = (resid, "ratio")
            if not resid <= OC_RESIDUAL_MAX:
                outcome.problems.append(f"{engine}: orthogonal-constraint residual {resid:.3g}")
    return outcome


# ---------------------------------------------------------------------------
# pipeline_desk

PIPELINE_DURATION_S = 2.0  # one evaluation segment; two seeds' RIRs dominate anyway


class _FrameClock:
    """Times the per-frame calls ``run_benchmark`` makes, by engine, and
    takes a probe sample after every frame."""

    def __init__(self, meter: Meter):
        self.meter = meter
        self.seconds: Counter = Counter()
        self.probes: defaultdict = defaultdict(list)

    def _wrap(self, fn, ends_frame: bool):
        @functools.wraps(fn)
        def wrapper(state, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(state, *args, **kwargs)
            finally:
                engine = state.config.algorithm.value
                self.seconds[engine] += time.perf_counter() - t0
                if ends_frame:
                    self.meter.sample()
                    self.probes[engine].append(self.meter.samples["solve"][-1])

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        originals = cli.process_frame, cli.projection_back
        cli.process_frame = self._wrap(originals[0], ends_frame=False)
        cli.projection_back = self._wrap(originals[1], ends_frame=True)
        try:
            yield
        finally:
            cli.process_frame, cli.projection_back = originals


def pipeline_desk(seed: int, seconds: float, tracer=None, scenario_path: Path = None,
                  setups: int = 25) -> Outcome:
    """One ``cli.run_benchmark`` call on a derived desk manifest: two seeds,
    three engines, output to a temporary directory.

    ``solve`` samples follow every frame and scale the frame times;
    ``vector`` samples follow every RIR and scale the rest of the call,
    which RIR synthesis dominates.  ``wall_s`` is the sum of both parts.
    Probing time is taken out of all times."""
    outcome = Outcome()
    meter = outcome.meter
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        tmp = Path(tmp)

        def build():
            # derive the manifest and load every config it names, as the CLI will
            manifest = inputs.derived_manifest(CONFIGS, tmp, seed, PIPELINE_DURATION_S, scenario_path)
            doc = json.loads(manifest.read_text())
            io.load_scenario(doc["scenario"])
            for path in doc["separators"].values():
                io.load_separator_config(path)
            return manifest, doc

        manifest, doc = _setup(outcome, build, setups)
        out_dir = tmp / "bench"
        outcome.attempted = len(doc["seeds"]) * len(doc["separators"])

        clock = _FrameClock(meter)
        first = meter.count("vector")
        meter.sample("vector")
        inside = len(meter.spent)
        _set_group(tracer, "run")
        with clock.installed(), meter.after_calls(roomsim, "image_source_rir", "vector"):
            t0 = time.perf_counter()
            try:
                rc = cli.run_benchmark(manifest, out_override=out_dir)
            except Exception:  # noqa: BLE001 - count the failure, report it
                rc = None
                outcome.problems.append(f"run_benchmark: {traceback.format_exc(limit=3)}")
            wall = time.perf_counter() - t0 - meter.spent_since(inside)
        _set_group(tracer, "")
        meter.sample("vector")

        if rc is None:
            outcome.failed = outcome.attempted
        elif (out_dir / "failures.csv").exists():
            with open(out_dir / "failures.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            outcome.failed = len(rows)
            outcome.problems.extend(f"{r['algorithm']} seed {r['seed']}: {r['error']}" for r in rows)
        if rc not in (0, None):
            outcome.problems.append(f"run_benchmark returned {rc}")

        audio_s = len(doc["seeds"]) * PIPELINE_DURATION_S
        frames_raw = sum(clock.seconds.values())
        frames_scaled = 0.0
        for engine in ENGINES:
            if clock.probes[engine]:
                scale = REF_MS["solve"] * 1e-3 / statistics.fmean(clock.probes[engine])
                frames_scaled += clock.seconds[engine] * scale
            dsirs = []
            for s in doc["seeds"]:
                meta = out_dir / f"{engine}_seed{s}" / "meta.json"
                if meta.exists():
                    dsirs.append(np.mean(json.loads(meta.read_text())["converged_sir_improvement_db"]))
            if len(dsirs) < len(doc["seeds"]) or not clock.probes[engine]:
                outcome.metrics[f"{engine}.rtf"] = None
                continue
            _record_rtf(outcome, engine, clock.seconds[engine], scale, audio_s)
            _record_dsir(outcome, engine, float(np.mean(dsirs)))
        rest = (wall - frames_raw) * meter.scale("vector", first)
        _record_wall(outcome, wall, rest + frames_scaled)
    return outcome


WORKLOADS = {
    "stream_desk": stream_desk,
    "scale_m16": scale_m16,
    "pipeline_desk": pipeline_desk,
}
