"""Experiment harness: RIR rendering, mixture synthesis, online separation,
evaluation, and algorithm x seed benchmark sweeps.

Every command is deterministic given its inputs and seeds; wall-clock
numbers go to separate timing files so the scientific outputs stay
byte-reproducible.  Setting the environment variable IVASTREAM_OUTPUT_ROOT
re-roots all relative output paths, the timing log included (useful for
CI scratch space).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import roomsim
from .io import (
    AudioBuffer,
    ConfigError,
    load_manifest,
    load_scenario,
    load_separator_config,
    read_wav,
    write_wav,
)
from .metrics import (CSV_SENTINEL_DB, EvalConfig, convergence_curve, decompose,
                      segment_samples, sir_sdr)
from .separators import init_state, process_frame, projection_back
from .stft import SpectralFrame, StftConfig, analyze, synthesize

OUTPUT_ROOT_ENV = "IVASTREAM_OUTPUT_ROOT"

SUMMARY_COLUMNS = (
    "algorithm",
    "segment_index",
    "t_start_s",
    "sir_improvement_mean_db",
    "sir_improvement_std_db",
    "sdr_improvement_mean_db",
    "sdr_improvement_std_db",
    "n_runs",
)

TIMING_COLUMNS = ("algorithm", "seed", "n_frames", "wall_s", "frames_per_s", "real_time_factor")


def _out_dir(path_like) -> Path:
    """Resolve an output directory, honoring the output-root env var for
    relative paths, and create it."""
    p = Path(path_like)
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if root and not p.is_absolute():
        p = Path(root) / p
    p.mkdir(parents=True, exist_ok=True)
    return p


def speechlike_signal(seed, n_samples: int, sample_rate: int):
    """Pink noise under a slowly varying random envelope, unit variance.

    A stand-in for speech with similar coarse spectro-temporal texture:
    1/f spectrum plus syllable-rate (4 Hz) amplitude modulation.  ``seed``
    may be any value ``numpy.random.default_rng`` accepts, including tuples.
    """
    rng = np.random.default_rng(seed)
    x = roomsim.pink_noise(rng, n_samples)
    n_knots = max(int(round(n_samples / sample_rate * 4.0)) + 1, 2)
    knots = rng.standard_normal(n_knots) ** 2 + 0.05
    env = np.interp(
        np.linspace(0.0, n_knots - 1.0, n_samples), np.arange(n_knots), knots
    )
    x = x * env
    return x / np.std(x)


# ---------------------------------------------------------------------------
# rir


def run_rir(scenario_path, out) -> int:
    scenario = load_scenario(scenario_path)
    out = _out_dir(out)
    fs = scenario.room.sample_rate
    src_rirs, noise_rirs = roomsim.scenario_rirs(scenario)
    for n in range(src_rirs.shape[0]):
        write_wav(AudioBuffer(src_rirs[n], fs), out / f"rir_source_{n}.wav")
    for k in range(noise_rirs.shape[0]):
        write_wav(AudioBuffer(noise_rirs[k], fs), out / f"rir_noise_{k}.wav")
    print(
        f"wrote {src_rirs.shape[0]} source and {noise_rirs.shape[0]} noise RIR files "
        f"({src_rirs.shape[1]} channels, {src_rirs.shape[2]} taps) to {out}"
    )
    return 0


# ---------------------------------------------------------------------------
# simulate


def _measured_baselines(bundle) -> dict:
    """Energy ratios actually present at the reference microphone."""
    images = bundle.source_images
    e = np.sum(images[:, 0, :] ** 2, axis=1)
    isir = float(10.0 * np.log10(e[0] / e[1:].sum())) if e.shape[0] > 1 else None
    e_noise = float(np.sum(bundle.noise_observation[0] ** 2))
    isnr = (
        float(10.0 * np.log10(np.sum(images[:, 0, :].sum(axis=0) ** 2) / e_noise))
        if e_noise > 0
        else None
    )
    return {
        "isir_db_measured": isir,
        "isir_defined": isir is not None,
        "isnr_db_measured": isnr,
        "isnr_defined": isnr is not None,
    }


def _check_seconds(value: float, name: str) -> float:
    """``value`` if it is a finite, positive number of seconds; otherwise a
    usage error naming the option or field ``name``."""
    if not (np.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value}")
    return value


def _synthesize_mixture(scenario, duration: float, source_paths=None, rirs=None):
    fs = scenario.room.sample_rate
    if source_paths:
        if len(source_paths) != scenario.n_sources:
            raise ValueError(
                f"scenario has {scenario.n_sources} sources, got {len(source_paths)} WAVs"
            )
        bufs = [read_wav(p) for p in source_paths]
        for p, b in zip(source_paths, bufs):
            if b.n_channels != 1:
                raise ValueError(f"{p}: {b.n_channels} channels, a source WAV must be mono")
            if b.sample_rate != fs:
                raise ValueError(
                    f"{p}: sample rate {b.sample_rate} != scenario rate {fs}"
                )
        n = min(b.n_samples for b in bufs)
        sources = np.stack([b.samples[0, :n] for b in bufs])
    else:
        n = int(round(duration * fs))
        sources = np.stack(
            [
                speechlike_signal((scenario.seed, k), n, fs)
                for k in range(scenario.n_sources)
            ]
        )
    return roomsim.mix(scenario, sources, rirs)


def run_simulate(scenario_path, out, duration: float, seed=None, source_paths=None) -> int:
    _check_seconds(duration, "--duration")
    scenario = load_scenario(scenario_path)
    if seed is not None:
        scenario = replace(scenario, seed=int(seed))
    bundle = _synthesize_mixture(scenario, duration, source_paths)
    out = _out_dir(out)
    fs = bundle.sample_rate
    write_wav(AudioBuffer(bundle.observations, fs), out / "observations.wav")
    write_wav(AudioBuffer(bundle.source_images[:, 0], fs), out / "reference_images.wav")
    write_wav(AudioBuffer(bundle.noise_observation, fs), out / "noise.wav")
    meta = {"sample_rate": fs, "seed": scenario.seed, **bundle.gains}
    meta.update(_measured_baselines(bundle))
    _write_json(out / "gains.json", meta)
    print(f"wrote mixture ({bundle.observations.shape[0]} channels, "
          f"{bundle.observations.shape[1] / fs:.1f} s) to {out}")
    return 0


# ---------------------------------------------------------------------------
# separate


def separate_stream(frames, config, reference_channel=None):
    """Run a fresh separator state over a frame sequence, strictly online.

    Returns the separated spectra as an (n_frames, N, I) array, scaled by
    projection back to ``reference_channel`` frame by frame when it is
    given, and each frame's wall time in ``process_frame`` and
    ``projection_back``.  This is the package's one loop over those calls;
    it reaches them through this module's names, which ``perfbench``'s
    pipeline frame clock wraps.
    """
    if not frames:
        raise ValueError("no frames to separate")
    state = init_state(config, frames[0].bins.shape[0])
    spectra = np.empty((len(frames), config.n_sources, state.n_bins), dtype=np.complex128)
    frame_seconds = np.empty(len(frames))
    for j, frame in enumerate(frames):
        t0 = time.perf_counter()
        y = process_frame(state, frame).y
        if reference_channel is not None:
            y = projection_back(state, y, reference_channel)
        frame_seconds[j] = time.perf_counter() - t0
        spectra[j] = y
    return spectra, frame_seconds


def _separate_signal(samples, config, stft_cfg, reference_channel):
    """Online separation of a (channels, samples) signal: analyze,
    :func:`separate_stream`, synthesize.  Returns the (sources, samples)
    estimates and each frame's wall time."""
    spectra, frame_seconds = separate_stream(analyze(samples, stft_cfg), config, reference_channel)
    frames = [SpectralFrame(bins=s.T, index=j, config=stft_cfg) for j, s in enumerate(spectra)]
    return synthesize(frames, stft_cfg, samples.shape[1]), frame_seconds


def run_separate(
    mixture_path,
    config_path,
    out,
    fft_size: int = 1024,
    hop: int = 256,
    reference_channel: int = 0,
    timing_log=None,
    overrides: dict | None = None,
) -> int:
    buf = read_wav(mixture_path)
    config = load_separator_config(config_path, overrides)
    if buf.n_channels != config.n_channels:
        raise ValueError(
            f"mixture has {buf.n_channels} channels, config expects {config.n_channels}"
        )
    stft_cfg = StftConfig(fft_size=fft_size, hop=hop, sample_rate=buf.sample_rate)
    estimates, frame_times = _separate_signal(buf.samples, config, stft_cfg, reference_channel)

    out = _out_dir(out)
    write_wav(AudioBuffer(estimates, buf.sample_rate), out / "estimates.wav")
    if timing_log is not None:
        log = Path(timing_log)
        _write_csv(
            _out_dir(log.parent) / log.name,
            ["frame_index", "seconds"],
            [[j, f"{dt:.9f}"] for j, dt in enumerate(frame_times)],
        )
    wall = sum(frame_times)
    audio_s = buf.n_samples / buf.sample_rate
    rtf = wall / audio_s
    print(
        f"separated {len(frame_times)} frames in {wall:.2f} s "
        f"({len(frame_times) / max(wall, 1e-12):.0f} frames/s, real-time factor {rtf:.3f})"
    )
    return 0


# ---------------------------------------------------------------------------
# evaluate


def _finite_cost(sir: np.ndarray) -> np.ndarray:
    cost = np.where(np.isnan(sir), -CSV_SENTINEL_DB, sir)
    return np.clip(cost, -CSV_SENTINEL_DB, CSV_SENTINEL_DB)


def pair_sources(estimates, references, eval_cfg: EvalConfig, sample_rate: int):
    """Match estimate rows to reference rows by final-segment SIR.

    The last segment is scored because online separators are still near
    pass-through at stream onset, where every output resembles the mixture
    and the assignment degenerates to a coin flip.  ``estimates`` are
    (..., n_sources, T), one estimate set per leading index, all split
    against a target's references in one call.

    Returns an index array ``idx`` of shape (..., n_sources) such that
    ``estimates[..., idx[j], :]`` is the estimate assigned to reference
    ``j`` (assignment maximizes the set's total SIR).
    """
    est = np.atleast_2d(estimates)
    refs = np.atleast_2d(references)
    if est.shape[-2:] != refs.shape:
        raise ValueError(f"estimates {est.shape} and references {refs.shape} differ")
    seg = min(segment_samples(eval_cfg, sample_rate), est.shape[-1])
    n = refs.shape[0]
    sir = np.empty(est.shape[:-1] + (n,))
    for j in range(n):
        sir[..., j] = sir_sdr(
            decompose(est[..., -seg:], refs[:, -seg:], eval_cfg.filter_length, j)
        )[0]
    idx = np.empty(sir.shape[:-1], dtype=int)
    for k in np.ndindex(sir.shape[:-2]):
        rows, cols = linear_sum_assignment(-_finite_cost(sir[k]))
        idx[k][cols] = rows
    return idx


def run_evaluate(
    estimates_path,
    references_path,
    mixture_path,
    out,
    eval_cfg: EvalConfig,
) -> int:
    est_buf = read_wav(estimates_path)
    ref_buf = read_wav(references_path)
    mix_buf = read_wav(mixture_path)
    rates = {est_buf.sample_rate, ref_buf.sample_rate, mix_buf.sample_rate}
    if len(rates) != 1:
        raise ValueError(f"sample rates differ across inputs: {sorted(rates)}")
    fs = est_buf.sample_rate
    n = min(est_buf.n_samples, ref_buf.n_samples, mix_buf.n_samples)
    est = est_buf.samples[:, :n]
    refs = ref_buf.samples[:, :n]
    if eval_cfg.reference_channel >= mix_buf.n_channels:
        raise ValueError(
            f"reference channel {eval_cfg.reference_channel} out of range for a "
            f"{mix_buf.n_channels}-channel mixture"
        )
    mix = mix_buf.samples[eval_cfg.reference_channel, :n]

    idx = pair_sources(est, refs, eval_cfg, fs)
    report = convergence_curve(est[idx], refs, mix, eval_cfg, fs)
    out = _out_dir(out)
    report.to_csv(out / "report.csv")
    conv = ", ".join(
        f"source {j}: SIR {report.converged_sir_db[j]:+.2f} dB "
        f"(improvement {report.converged_sir_improvement_db[j]:+.2f} dB)"
        for j in range(report.n_sources)
    )
    print(f"evaluated {report.n_segments} segments; converged {conv}")
    return 0


# ---------------------------------------------------------------------------
# benchmark


def run_benchmark(manifest_path, out_override=None) -> int:
    manifest = load_manifest(manifest_path)
    scenario0 = load_scenario(manifest["scenario"])
    sep_cfgs = {
        name: load_separator_config(p) for name, p in manifest["separators"].items()
    }
    fs = scenario0.room.sample_rate
    eval_cfg = EvalConfig(**manifest.get("evaluation", {}))
    stft_cfg = StftConfig(sample_rate=fs, **manifest.get("stft", {}))
    duration = _check_seconds(float(manifest.get("duration_seconds", 30.0)), "duration_seconds")
    for name, cfg in sep_cfgs.items():
        if cfg.n_channels > scenario0.array.n_channels:
            raise ConfigError(
                f"separator {name!r} wants {cfg.n_channels} channels; "
                f"scenario provides {scenario0.array.n_channels}"
            )
        if eval_cfg.reference_channel >= cfg.n_channels:
            raise ConfigError(
                f"reference channel {eval_cfg.reference_channel} out of range for "
                f"separator {name!r} with {cfg.n_channels} channels"
            )

    out_root = _out_dir(out_override if out_override is not None else manifest["output_dir"])
    reports: dict[str, list] = {name: [] for name in sep_cfgs}
    timing_rows = []
    failures = []

    # a seed changes the signals, not the geometry: one set of RIRs serves all
    rirs = roomsim.scenario_rirs(scenario0)
    for seed in manifest["seeds"]:
        scenario = replace(scenario0, seed=int(seed))
        bundle = _synthesize_mixture(scenario, duration, rirs=rirs)
        mixture_ref = bundle.observations[eval_cfg.reference_channel]
        references = bundle.source_images[:, eval_cfg.reference_channel, :]
        errors, separated = {}, {}
        for name, cfg in sep_cfgs.items():
            _out_dir(out_root / f"{name}_seed{seed}")
            try:
                # configs with fewer channels read the leading microphones
                obs = bundle.observations[: cfg.n_channels]
                estimates, frame_times = _separate_signal(
                    obs, cfg, stft_cfg, eval_cfg.reference_channel
                )
                if estimates.shape != references.shape:
                    raise ValueError(
                        f"estimates {estimates.shape} and references {references.shape} differ"
                    )
                separated[name] = estimates, frame_times
            except Exception as exc:  # noqa: BLE001 - record, keep sweeping
                errors[name] = str(exc)

        # every engine is scored in one stacked pass, one split per (segment, target)
        if separated:
            try:
                stacked = np.stack([estimates for estimates, _ in separated.values()])
                idx = pair_sources(stacked, references, eval_cfg, fs)
                aligned = np.take_along_axis(stacked, idx[..., None], axis=1)
                report = convergence_curve(aligned, references, mixture_ref, eval_cfg, fs)
            except Exception as exc:  # noqa: BLE001 - the error fails every scored engine
                errors.update(dict.fromkeys(separated, str(exc)))
                separated = {}

        for k, (name, (estimates, frame_times)) in enumerate(separated.items()):
            run, run_dir = report[k], out_root / f"{name}_seed{seed}"
            try:
                run.to_csv(run_dir / "report.csv")
                write_wav(AudioBuffer(aligned[k], fs), run_dir / "estimates.wav")
                meta = {
                    "algorithm": name,
                    "seed": int(seed),
                    "pairing": idx[k].tolist(),
                    "converged_sir_improvement_db": run.converged_sir_improvement_db.tolist(),
                    "converged_sdr_improvement_db": run.converged_sdr_improvement_db.tolist(),
                    **bundle.gains,
                    **_measured_baselines(bundle),
                }
                _write_json(run_dir / "meta.json", meta)
                wall, n_frames = sum(frame_times), len(frame_times)
                timing_rows.append([name, int(seed), n_frames, wall, n_frames / max(wall, 1e-12),
                                    wall / (estimates.shape[1] / fs)])
                reports[name].append(run)
            except Exception as exc:  # noqa: BLE001 - record, keep sweeping
                errors[name] = str(exc)
        failures += [[name, int(seed), errors[name]] for name in sep_cfgs if name in errors]

    _write_summary(out_root / "summary.csv", reports)
    _write_csv(out_root / "timing.csv", TIMING_COLUMNS, timing_rows)
    if failures:
        _write_csv(out_root / "failures.csv", ["algorithm", "seed", "error"], failures)

    _print_summary_table(reports, failures)
    return 1 if failures else 0


def _write_summary(path, reports) -> None:
    """Across seeds and sources: mean +- std improvement per segment."""
    rows = []
    for name, runs in reports.items():
        if not runs:
            continue
        dsir = np.stack([r.sir_improvement_db for r in runs])  # (runs, S, N)
        dsdr = np.stack([r.sdr_improvement_db for r in runs])
        t_start = runs[0].t_start_s
        for s in range(dsir.shape[1]):
            rows.append(
                [
                    name,
                    s,
                    f"{t_start[s]:.6f}",
                    f"{dsir[:, s, :].mean():.6f}",
                    f"{dsir[:, s, :].std():.6f}",
                    f"{dsdr[:, s, :].mean():.6f}",
                    f"{dsdr[:, s, :].std():.6f}",
                    len(runs),
                ]
            )
    _write_csv(path, SUMMARY_COLUMNS, rows)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _print_summary_table(reports, failures) -> None:
    """Print the mean converged (SIR, SDR) improvement per algorithm,
    across seeds and sources."""
    print(f"{'algorithm':<12} {'runs':>4} {'dSIR (dB)':>10} {'dSDR (dB)':>10}")
    for name, runs in reports.items():
        if runs:
            dsir = np.mean([r.converged_sir_improvement_db for r in runs])
            dsdr = np.mean([r.converged_sdr_improvement_db for r in runs])
            print(f"{name:<12} {len(runs):>4} {dsir:>10.2f} {dsdr:>10.2f}")
    if failures:
        print(f"{len(failures)} run(s) failed; see failures.csv")


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ivastream",
        description="Streaming source-separation experiments: simulate, separate, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rir", help="render room impulse responses to WAV")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("simulate", help="synthesize a calibrated mixture")
    p.add_argument("scenario")
    p.add_argument("--out", required=True)
    p.add_argument("--duration", type=float, default=30.0, help="seconds of audio")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.add_argument(
        "--source-wav",
        action="append",
        default=None,
        help="per-source WAV (repeat; default: synthetic speech-like signals)",
    )

    p = sub.add_parser("separate", help="run an online separator over a mixture WAV")
    p.add_argument("mixture")
    p.add_argument("config", help="separator JSON config")
    p.add_argument("--out", required=True)
    p.add_argument("--fft-size", type=int, default=1024)
    p.add_argument("--hop", type=int, default=256)
    p.add_argument("--reference-channel", type=int, default=0)
    p.add_argument("--timing-log", default=None, help="per-frame wall-time CSV")
    p.add_argument("--forgetting", type=float, default=None)
    p.add_argument("--loading", type=float, default=None)

    p = sub.add_parser("evaluate", help="segment-wise SIR/SDR against references")
    p.add_argument("estimates", help="multichannel WAV of separated sources")
    p.add_argument("references", help="multichannel WAV of reference images")
    p.add_argument("--mixture", required=True, help="unprocessed mixture WAV")
    p.add_argument("--out", required=True)
    p.add_argument("--segment-seconds", type=float, default=2.0)
    p.add_argument("--filter-length", type=int, default=512)
    p.add_argument("--reference-channel", type=int, default=0)

    p = sub.add_parser("benchmark", help="run an algorithm x seed sweep")
    p.add_argument("manifest", help="run manifest JSON")
    p.add_argument("--out", default=None, help="override the manifest output_dir")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "rir":
            return run_rir(args.scenario, args.out)
        if args.command == "simulate":
            return run_simulate(
                args.scenario, args.out, args.duration, args.seed, args.source_wav
            )
        if args.command == "separate":
            overrides = {"forgetting": args.forgetting, "loading": args.loading}
            return run_separate(
                args.mixture,
                args.config,
                args.out,
                fft_size=args.fft_size,
                hop=args.hop,
                reference_channel=args.reference_channel,
                timing_log=args.timing_log,
                overrides=overrides,
            )
        if args.command == "evaluate":
            cfg = EvalConfig(
                segment_seconds=args.segment_seconds,
                filter_length=args.filter_length,
                reference_channel=args.reference_channel,
            )
            return run_evaluate(
                args.estimates, args.references, args.mixture, args.out, cfg
            )
        if args.command == "benchmark":
            return run_benchmark(args.manifest, args.out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
