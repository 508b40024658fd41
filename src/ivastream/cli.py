"""Experiment harness: RIR rendering, mixture synthesis, online separation,
evaluation, and algorithm x seed benchmark sweeps.

Every command is deterministic given its inputs and seeds; wall-clock
numbers go to separate timing files so the scientific outputs stay
byte-reproducible.  Setting the environment variable IVASTREAM_OUTPUT_ROOT
re-roots all relative output directories (useful for CI scratch space).
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
from .metrics import CSV_SENTINEL_DB, EvalConfig, convergence_curve, decompose, sir_sdr
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


def _synthesize_mixture(scenario, duration: float, source_paths=None):
    fs = scenario.room.sample_rate
    if source_paths:
        if len(source_paths) != scenario.n_sources:
            raise ValueError(
                f"scenario has {scenario.n_sources} sources, got {len(source_paths)} WAVs"
            )
        bufs = [read_wav(p) for p in source_paths]
        for p, b in zip(source_paths, bufs):
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
    return roomsim.mix(scenario, sources)


def run_simulate(scenario_path, out, duration: float, seed=None, source_paths=None) -> int:
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
    with open(out / "gains.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote mixture ({bundle.observations.shape[0]} channels, "
          f"{bundle.observations.shape[1] / fs:.1f} s) to {out}")
    return 0


# ---------------------------------------------------------------------------
# separate


def _separate_frames(frames, config, reference_channel):
    """Frame-by-frame online separation with per-frame wall times."""
    state = init_state(config, frames[0].bins.shape[0])
    spectra = np.empty(
        (len(frames), config.n_sources, state.n_bins), dtype=np.complex128
    )
    frame_times = np.empty(len(frames))
    for j, frame in enumerate(frames):
        t0 = time.perf_counter()
        est = process_frame(state, frame)
        spectra[j] = projection_back(state, est.y, reference_channel)
        frame_times[j] = time.perf_counter() - t0
    return spectra, frame_times


def _spectra_to_signal(spectra, stft_cfg, n_samples):
    frames = [
        SpectralFrame(bins=spectra[j].T, index=j, config=stft_cfg)
        for j in range(spectra.shape[0])
    ]
    return synthesize(frames, stft_cfg, n_samples)


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
    frames = analyze(buf.samples, stft_cfg)
    spectra, frame_times = _separate_frames(frames, config, reference_channel)
    estimates = _spectra_to_signal(spectra, stft_cfg, buf.n_samples)

    out = _out_dir(out)
    write_wav(AudioBuffer(estimates, buf.sample_rate), out / "estimates.wav")
    if timing_log is not None:
        with open(timing_log, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["frame_index", "seconds"])
            for j, dt in enumerate(frame_times):
                writer.writerow([j, f"{dt:.9f}"])
    wall = float(frame_times.sum())
    audio_s = buf.n_samples / buf.sample_rate
    rtf = wall / audio_s
    print(
        f"separated {len(frames)} frames in {wall:.2f} s "
        f"({len(frames) / max(wall, 1e-12):.0f} frames/s, real-time factor {rtf:.3f})"
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
    and the assignment degenerates to a coin flip.

    Returns an index array ``idx`` such that ``estimates[idx[j]]`` is the
    estimate assigned to reference ``j`` (assignment maximizes total SIR).
    """
    est = np.atleast_2d(estimates)
    refs = np.atleast_2d(references)
    if est.shape[0] != refs.shape[0]:
        raise ValueError(
            f"{est.shape[0]} estimates cannot be paired with {refs.shape[0]} references"
        )
    seg = int(round(eval_cfg.segment_seconds * sample_rate))
    seg = min(seg, est.shape[1])
    n = refs.shape[0]
    sir = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            sir[i, j] = sir_sdr(
                decompose(est[i, -seg:], refs[:, -seg:], eval_cfg.filter_length, j)
            )[0]
    rows, cols = linear_sum_assignment(-_finite_cost(sir))
    idx = np.empty(n, dtype=int)
    idx[cols] = rows
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
    duration = float(manifest.get("duration_seconds", 30.0))
    for name, cfg in sep_cfgs.items():
        if cfg.n_channels > scenario0.array.n_channels:
            raise ConfigError(
                f"separator {name!r} wants {cfg.n_channels} channels; "
                f"scenario provides {scenario0.array.n_channels}"
            )

    out_root = _out_dir(out_override if out_override is not None else manifest["output_dir"])
    reports: dict[str, list] = {name: [] for name in sep_cfgs}
    timing_rows = []
    failures = []

    for seed in manifest["seeds"]:
        scenario = replace(scenario0, seed=int(seed))
        bundle = _synthesize_mixture(scenario, duration)
        mixture_ref = bundle.observations[eval_cfg.reference_channel]
        references = bundle.source_images[:, eval_cfg.reference_channel, :]
        for name, cfg in sep_cfgs.items():
            run_dir = _out_dir(out_root / f"{name}_seed{seed}")
            try:
                # configs with fewer channels read the leading microphones
                obs = bundle.observations[: cfg.n_channels]
                frames = analyze(obs, stft_cfg)
                spectra, frame_times = _separate_frames(
                    frames, cfg, eval_cfg.reference_channel
                )
                estimates = _spectra_to_signal(spectra, stft_cfg, obs.shape[1])
                idx = pair_sources(estimates, references, eval_cfg, fs)
                report = convergence_curve(
                    estimates[idx], references, mixture_ref, eval_cfg, fs
                )
                report.to_csv(run_dir / "report.csv")
                write_wav(AudioBuffer(estimates[idx], fs), run_dir / "estimates.wav")
                meta = {
                    "algorithm": name,
                    "seed": int(seed),
                    "pairing": idx.tolist(),
                    "converged_sir_improvement_db": report.converged_sir_improvement_db.tolist(),
                    "converged_sdr_improvement_db": report.converged_sdr_improvement_db.tolist(),
                    **bundle.gains,
                    **_measured_baselines(bundle),
                }
                with open(run_dir / "meta.json", "w") as fh:
                    json.dump(meta, fh, indent=2, sort_keys=True)
                    fh.write("\n")
                wall = float(frame_times.sum())
                timing_rows.append(
                    {
                        "algorithm": name,
                        "seed": int(seed),
                        "n_frames": len(frames),
                        "wall_s": wall,
                        "frames_per_s": len(frames) / max(wall, 1e-12),
                        "real_time_factor": wall / (obs.shape[1] / fs),
                    }
                )
                reports[name].append(report)
            except Exception as exc:  # noqa: BLE001 - record, keep sweeping
                failures.append({"algorithm": name, "seed": int(seed), "error": str(exc)})

    _write_summary(out_root / "summary.csv", reports)
    _write_timing(out_root / "timing.csv", timing_rows)
    if failures:
        with open(out_root / "failures.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=["algorithm", "seed", "error"])
            writer.writeheader()
            writer.writerows(failures)

    _print_summary_table(reports, failures)
    return 1 if failures else 0


def _write_summary(path, reports) -> None:
    """Across seeds and sources: mean +- std improvement per segment."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_COLUMNS)
        for name, runs in reports.items():
            if not runs:
                continue
            dsir = np.stack([r.sir_improvement_db for r in runs])  # (runs, S, N)
            dsdr = np.stack([r.sdr_improvement_db for r in runs])
            t_start = runs[0].t_start_s
            for s in range(dsir.shape[1]):
                writer.writerow(
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


def _write_timing(path, rows) -> None:
    fields = [
        "algorithm",
        "seed",
        "n_frames",
        "wall_s",
        "frames_per_s",
        "real_time_factor",
    ]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


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
    p.add_argument("--algorithm", default=None)
    p.add_argument("--forgetting", type=float, default=None)
    p.add_argument("--inner-iters", type=int, default=None)
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
            overrides = {
                "algorithm": args.algorithm,
                "forgetting": args.forgetting,
                "inner_iters": args.inner_iters,
                "loading": args.loading,
            }
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
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
