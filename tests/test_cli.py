"""End-to-end tests of the command-line harness on miniature scenes."""

import csv
import json

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from ivastream import cli, metrics, roomsim
from ivastream.cli import main
from ivastream.io import AudioBuffer, read_wav, write_wav
from ivastream.separators import SeparatorConfig
from ivastream.stft import SpectralFrame


def _write_json(path, doc):
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


def _mini_scenario(tmp_path, **overrides):
    doc = {
        "room": {
            "dimensions": [4.0, 3.0, 2.5],
            "reflection": 0.3,
            "sample_rate": 16000,
            "max_image_order": 1,
        },
        "array": {"positions": [[1.5, 1.2, 1.0], [1.56, 1.2, 1.0]]},
        "sources": [[2.8, 2.0, 1.2], [1.0, 2.4, 1.4]],
        "noise": {"positions": [[3.2, 0.8, 1.8]]},
        "isir_db": 0.0,
        "isnr_db": 20.0,
        "seed": 3,
    }
    doc.update(overrides)
    return _write_json(tmp_path / "scenario.json", doc)


def _auxiva_config(tmp_path, **overrides):
    doc = {"algorithm": "auxiva", "n_channels": 2, "n_sources": 2}
    doc.update(overrides)
    return _write_json(tmp_path / "auxiva.json", doc)


class TestRir:
    def test_writes_one_wav_per_source_and_noise(self, tmp_path):
        scn = _mini_scenario(tmp_path)
        out = tmp_path / "rirs"
        assert main(["rir", scn, "--out", str(out)]) == 0
        for name in ["rir_source_0.wav", "rir_source_1.wav", "rir_noise_0.wav"]:
            buf = read_wav(out / name)
            assert buf.n_channels == 2
            assert buf.n_samples > 0

    def test_output_root_env_reroots_relative_paths(self, tmp_path, monkeypatch):
        scn = _mini_scenario(tmp_path)
        monkeypatch.setenv("IVASTREAM_OUTPUT_ROOT", str(tmp_path / "scratch"))
        assert main(["rir", scn, "--out", "rirs"]) == 0
        assert (tmp_path / "scratch" / "rirs" / "rir_source_0.wav").exists()


class TestSimulate:
    def test_outputs_and_calibration(self, tmp_path):
        scn = _mini_scenario(tmp_path)
        out = tmp_path / "sim"
        assert main(["simulate", scn, "--out", str(out), "--duration", "1.0"]) == 0
        obs = read_wav(out / "observations.wav")
        refs = read_wav(out / "reference_images.wav")
        assert obs.n_channels == 2
        assert refs.n_channels == 2
        assert obs.n_samples == 16000
        meta = json.loads((out / "gains.json").read_text())
        assert meta["isir_defined"] and meta["isnr_defined"]
        assert meta["isir_db_measured"] == pytest.approx(0.0, abs=1e-6)
        assert meta["isnr_db_measured"] == pytest.approx(20.0, abs=1e-6)

    def test_rerun_is_byte_identical(self, tmp_path):
        scn = _mini_scenario(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        main(["simulate", scn, "--out", str(a), "--duration", "1.0"])
        main(["simulate", scn, "--out", str(b), "--duration", "1.0"])
        for name in ["observations.wav", "reference_images.wav", "noise.wav", "gains.json"]:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_single_source_leaves_isir_undefined(self, tmp_path):
        scn = _mini_scenario(tmp_path, sources=[[2.8, 2.0, 1.2]])
        out = tmp_path / "sim1"
        assert main(["simulate", scn, "--out", str(out), "--duration", "0.5"]) == 0
        meta = json.loads((out / "gains.json").read_text())
        assert meta["isir_defined"] is False
        assert meta["isir_db_measured"] is None

    def test_seed_flag_changes_output(self, tmp_path):
        scn = _mini_scenario(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        main(["simulate", scn, "--out", str(a), "--duration", "0.5"])
        main(["simulate", scn, "--out", str(b), "--duration", "0.5", "--seed", "99"])
        assert (a / "observations.wav").read_bytes() != (b / "observations.wav").read_bytes()

    def _source_wavs(self, tmp_path, lengths, rates):
        rng = np.random.default_rng(5)
        paths = []
        for k, (n, fs) in enumerate(zip(lengths, rates)):
            path = tmp_path / f"talker{k}.wav"
            write_wav(AudioBuffer(0.1 * rng.standard_normal(n), fs), path)
            paths += ["--source-wav", str(path)]
        return paths

    def test_source_wavs_truncate_to_the_shortest(self, tmp_path):
        scn = _mini_scenario(tmp_path)
        wavs = self._source_wavs(tmp_path, [16000, 12000], [16000, 16000])
        out = tmp_path / "sim"
        assert main(["simulate", scn, "--out", str(out), *wavs]) == 0
        assert read_wav(out / "observations.wav").n_samples == 12000
        assert read_wav(out / "reference_images.wav").n_samples == 12000

    def test_source_wav_count_must_match_the_scenario(self, tmp_path, capsys):
        scn = _mini_scenario(tmp_path)
        wavs = self._source_wavs(tmp_path, [16000], [16000])
        assert main(["simulate", scn, "--out", str(tmp_path / "sim"), *wavs]) == 2
        assert "scenario has 2 sources, got 1 WAVs" in capsys.readouterr().err

    def test_source_wav_rate_must_match_the_scenario(self, tmp_path, capsys):
        scn = _mini_scenario(tmp_path)
        wavs = self._source_wavs(tmp_path, [16000, 16000], [16000, 8000])
        assert main(["simulate", scn, "--out", str(tmp_path / "sim"), *wavs]) == 2
        assert "sample rate 8000 != scenario rate 16000" in capsys.readouterr().err

    def test_source_wav_must_be_mono(self, tmp_path, capsys):
        scn = _mini_scenario(tmp_path)
        wavs = self._source_wavs(tmp_path, [16000, 16000], [16000, 16000])
        stereo = tmp_path / "talker1.wav"
        write_wav(AudioBuffer(0.1 * np.ones((2, 16000)), 16000), stereo)
        out = tmp_path / "sim"
        assert main(["simulate", scn, "--out", str(out), *wavs]) == 2
        assert f"{stereo}: 2 channels, a source WAV must be mono" in capsys.readouterr().err
        assert not out.exists()

    def test_duration_under_two_samples_is_a_usage_error(self, tmp_path, capsys):
        scn = _mini_scenario(tmp_path)
        out = tmp_path / "sim"
        assert main(["simulate", scn, "--out", str(out), "--duration", "0.0000625"]) == 2
        assert "at least 2 samples, got 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["inf", "nan", "-1"])
    def test_duration_not_finite_and_positive_is_a_usage_error(self, tmp_path, capsys, value):
        scn = _mini_scenario(tmp_path)
        out = tmp_path / "sim"
        assert main(["simulate", scn, "--out", str(out), "--duration", value]) == 2
        err = capsys.readouterr().err
        assert f"--duration must be finite and positive, got {float(value)}" in err
        assert not out.exists()


@pytest.mark.parametrize("command", ["separate", "evaluate"])
def test_missing_input_wav_is_a_usage_error(tmp_path, capsys, command):
    missing = str(tmp_path / "nope.wav")
    inputs = {
        "separate": [missing, _auxiva_config(tmp_path)],
        "evaluate": [missing, missing, "--mixture", missing],
    }[command]
    assert main([command, *inputs, "--out", str(tmp_path / "o")]) == 2
    assert "nope.wav" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "separate", "evaluate"])
def test_non_finite_input_sample_is_a_usage_error(tmp_path, mixture_dir, capsys, command):
    # the command fails on reading the file, naming it, before any
    # arithmetic sees the sample
    samples = read_wav(mixture_dir / "observations.wav").samples.copy()
    samples[0, 4000] = {"simulate": np.nan, "separate": np.inf, "evaluate": np.nan}[command]
    bad, talker = tmp_path / "bad.wav", tmp_path / "talker.wav"
    write_wav(AudioBuffer(samples[:1] if command == "simulate" else samples, 16000), bad)
    write_wav(AudioBuffer(samples[1], 16000), talker)
    inputs = {
        "simulate": [_mini_scenario(tmp_path), "--source-wav", str(talker), "--source-wav", str(bad)],
        "separate": [str(bad), _auxiva_config(tmp_path)],
        "evaluate": [str(bad), str(mixture_dir / "reference_images.wav"),
                     "--mixture", str(mixture_dir / "observations.wav")],
    }[command]
    out = tmp_path / "o"
    assert main([command, *inputs, "--out", str(out)]) == 2
    assert f"error: {bad}: non-finite sample at channel 0, sample 4000" in capsys.readouterr().err
    assert not out.exists()


def test_separate_stream_calls_the_engine_through_cli_names(monkeypatch):
    """``cli.separate_stream`` calls ``process_frame`` and
    ``projection_back`` once each per frame, through the names ``cli``
    binds.  ``perfbench``'s ``pipeline_desk`` frame clock times
    ``run_benchmark``'s frames by wrapping exactly these two bindings, so
    the streaming loop lives in ``cli`` and not in ``separators``."""
    calls = []
    for name in ("process_frame", "projection_back"):
        def counted(*args, _name=name, _fn=getattr(cli, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    rng = np.random.default_rng(8)
    bins = rng.standard_normal((6, 5, 2)) + 1j * rng.standard_normal((6, 5, 2))
    frames = [SpectralFrame(bins=b, index=t) for t, b in enumerate(bins)]
    spectra, seconds = cli.separate_stream(frames, SeparatorConfig(2, 2, "auxiva"), 0)
    assert calls == ["process_frame", "projection_back"] * 6
    assert spectra.shape == (6, 2, 5)
    assert seconds.shape == (6,)
    assert np.all(np.isfinite(seconds)) and np.all(seconds >= 0.0)


@pytest.mark.parametrize("command", ["rir", "simulate", "benchmark"])
def test_unplaceable_noise_count_is_a_config_error(tmp_path, capsys, command):
    # 19 noises cannot sit 20 degrees apart around the room centre
    manifest = _mini_manifest(tmp_path)
    room = {"dimensions": [7.0, 8.0, 3.5], "reflection": 0.3, "sample_rate": 16000}
    scn = _mini_scenario(tmp_path, room=room, noise={"count": 19, "seed": 1000})
    out = ["--out", str(tmp_path / "o")]
    inputs = {"rir": [scn, *out], "simulate": [scn, *out], "benchmark": [manifest]}[command]
    assert main([command, *inputs]) == 2
    assert capsys.readouterr().err.startswith(f"error: {scn}: noise: could not place 19")
    assert not (tmp_path / "o").exists()


@pytest.fixture()
def mixture_dir(tmp_path):
    scn = _mini_scenario(tmp_path)
    out = tmp_path / "sim"
    main(["simulate", scn, "--out", str(out), "--duration", "1.5"])
    return out


class TestSeparate:
    def test_channel_mismatch_is_a_usage_error(self, tmp_path, mixture_dir, capsys):
        cfg = _write_json(
            tmp_path / "three.json",
            {"algorithm": "overiva", "n_channels": 3, "n_sources": 2},
        )
        code = main(
            ["separate", str(mixture_dir / "observations.wav"), cfg, "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "channels" in capsys.readouterr().err

    def test_timing_log_has_one_row_per_frame(self, tmp_path, mixture_dir):
        cfg = _auxiva_config(tmp_path)
        log = tmp_path / "timing.csv"
        main(
            [
                "separate",
                str(mixture_dir / "observations.wav"),
                cfg,
                "--out",
                str(tmp_path / "sep"),
                "--timing-log",
                str(log),
            ]
        )
        with open(log) as fh:
            rows = list(csv.DictReader(fh))
        n_frames = (16000 + 8000 - 1024) // 256 + 1
        assert len(rows) == n_frames
        assert all(float(r["seconds"]) >= 0.0 for r in rows)

    def test_timing_log_follows_output_root(self, tmp_path, mixture_dir, monkeypatch):
        # relative output paths, the timing log included, land under the root
        cfg = _auxiva_config(tmp_path)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("IVASTREAM_OUTPUT_ROOT", str(tmp_path / "root"))
        code = main(
            [
                "separate",
                str(mixture_dir / "observations.wav"),
                cfg,
                "--out",
                "out/sep",
                "--timing-log",
                "out/logs/frames.csv",
            ]
        )
        assert code == 0
        assert (tmp_path / "root" / "out" / "sep" / "estimates.wav").exists()
        assert (tmp_path / "root" / "out" / "logs" / "frames.csv").exists()
        assert not (tmp_path / "out").exists()

    def test_invalid_override_is_rejected(self, tmp_path, mixture_dir, capsys):
        cfg = _auxiva_config(tmp_path)
        # a non-finite loading passes the schema's minimum; the stream would
        # then die at frame 0 in the solves
        for flag, value in (("forgetting", "1.5"), ("loading", "nan"), ("loading", "inf")):
            code = main(
                [
                    "separate",
                    str(mixture_dir / "observations.wav"),
                    cfg,
                    "--out",
                    str(tmp_path / "sep"),
                    f"--{flag}",
                    value,
                ]
            )
            assert code == 2
            assert flag in capsys.readouterr().err


class TestEvaluate:
    def test_pairing_recovers_channel_swap(self, tmp_path, mixture_dir):
        refs = mixture_dir / "reference_images.wav"
        swapped = read_wav(refs)
        write_wav(
            AudioBuffer(swapped.samples[::-1], swapped.sample_rate),
            tmp_path / "swapped.wav",
        )
        args_tail = [
            "--mixture",
            str(mixture_dir / "observations.wav"),
            "--segment-seconds",
            "0.5",
            "--filter-length",
            "128",
        ]
        a, b = tmp_path / "ea", tmp_path / "eb"
        assert main(["evaluate", str(refs), str(refs), "--out", str(a), *args_tail]) == 0
        assert (
            main(["evaluate", str(tmp_path / "swapped.wav"), str(refs), "--out", str(b), *args_tail])
            == 0
        )
        assert (a / "report.csv").read_bytes() == (b / "report.csv").read_bytes()
        # a reference evaluated against itself scores near-perfect SIR
        with open(a / "report.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert all(float(r["sir_db"]) > 100.0 for r in rows)

    def test_out_of_range_reference_channel_is_a_usage_error(self, tmp_path, mixture_dir, capsys):
        refs = str(mixture_dir / "reference_images.wav")
        code = main(
            [
                "evaluate",
                refs,
                refs,
                "--mixture",
                str(mixture_dir / "observations.wav"),
                "--out",
                str(tmp_path / "e"),
                "--reference-channel",
                "2",
            ]
        )
        assert code == 2
        assert "reference channel 2" in capsys.readouterr().err

    def test_segment_under_one_sample_is_a_usage_error(self, tmp_path, mixture_dir, capsys):
        refs = str(mixture_dir / "reference_images.wav")
        mixture = str(mixture_dir / "observations.wav")
        args = ["--mixture", mixture, "--out", str(tmp_path / "e"), "--segment-seconds", "0.00001"]
        assert main(["evaluate", refs, refs, *args]) == 2
        assert "segment of 1e-05 s is under one sample" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_segment_is_a_usage_error(self, tmp_path, mixture_dir, capsys, value):
        refs = str(mixture_dir / "reference_images.wav")
        mixture = str(mixture_dir / "observations.wav")
        args = ["--mixture", mixture, "--out", str(tmp_path / "e"), "--segment-seconds", value]
        assert main(["evaluate", refs, refs, *args]) == 2
        assert f"segment_seconds must be finite and positive, got {value}" in capsys.readouterr().err

    # 3 whole segments, and 3.5 segments, where the pairing window is no segment
    @pytest.mark.parametrize("n_samples", [3000, 3500])
    def test_stacked_pairing_matches_per_set_calls(self, monkeypatch, n_samples):
        rng = np.random.default_rng(41)
        refs = rng.standard_normal((2, n_samples))
        mix = refs.sum(axis=0)
        swapped = np.stack([refs[1] + 0.2 * mix, refs[0] + 0.3 * mix])
        sets = np.stack([swapped, swapped[::-1], mix + 0.1 * rng.standard_normal((2, n_samples))])
        cfg = metrics.EvalConfig(segment_seconds=1.0, filter_length=16)
        alone = [cli.pair_sources(est, refs, cfg, 1000) for est in sets]
        assert_array_equal(alone[0], [1, 0])
        assert_array_equal(alone[1], [0, 1])
        factors = []
        cho_factor = metrics.cho_factor
        monkeypatch.setattr(metrics, "cho_factor", lambda *a: factors.append(a) or cho_factor(*a))
        stacked = cli.pair_sources(sets, refs, cfg, 1000)
        assert_array_equal(stacked, alone)
        assert len(factors) == 2  # one per target, whatever the number of sets
        assert_array_equal(cli.pair_sources(sets[None], refs, cfg, 1000), [alone])

    def test_pairing_rejects_a_segment_under_one_sample(self, mixture_dir):
        refs = read_wav(mixture_dir / "reference_images.wav")
        cfg = metrics.EvalConfig(segment_seconds=0.00001, filter_length=8)
        with pytest.raises(ValueError, match="under one sample"):
            cli.pair_sources(refs.samples, refs.samples, cfg, refs.sample_rate)

    def test_pairing_rejects_estimates_of_another_length(self):
        # the last segment of a shorter estimate would be scored against
        # another stretch of the references
        refs = np.random.default_rng(43).standard_normal((2, 8000))
        cfg = metrics.EvalConfig(segment_seconds=1.0, filter_length=16)
        with pytest.raises(ValueError, match=r"estimates \(2, 3000\) and references \(2, 8000\)"):
            cli.pair_sources(refs[:, 5000:], refs, cfg, 1000)


def _mini_manifest(tmp_path, **overrides):
    scn = _mini_scenario(tmp_path)
    cfg = _auxiva_config(tmp_path)
    doc = {
        "scenario": "scenario.json",
        "separators": {"auxiva": "auxiva.json"},
        "seeds": [0, 1],
        "output_dir": str(tmp_path / "bench"),
        "duration_seconds": 1.5,
        "evaluation": {"segment_seconds": 0.5, "filter_length": 128, "reference_channel": 0},
        "stft": {"fft_size": 512, "hop": 128},
    }
    doc.update(overrides)
    assert scn and cfg
    return _write_json(tmp_path / "manifest.json", doc)


class TestBenchmark:
    def test_mini_sweep_outputs(self, tmp_path, monkeypatch):
        calls = []
        rir = roomsim.image_source_rir
        monkeypatch.setattr(
            roomsim, "image_source_rir", lambda *args: calls.append(args) or rir(*args)
        )
        splits = []
        decompose = metrics.decompose
        for module in (cli, metrics):
            monkeypatch.setattr(
                module, "decompose", lambda *args: splits.append(args) or decompose(*args)
            )
        manifest = _mini_manifest(tmp_path)
        assert main(["benchmark", manifest]) == 0
        # one RIR per (emitter, mic) for the manifest: 3 emitters x 2 mics,
        # not once more for every seed
        assert len(calls) == 3 * 2
        # one decomposition per target: the pairing stacks both estimates,
        # and each of the 3 segments stacks the estimate with the mixture
        assert len(splits) == 2 * (2 + 2 * 3)
        root = tmp_path / "bench"
        for seed in [0, 1]:
            d = root / f"auxiva_seed{seed}"
            assert (d / "report.csv").exists()
            assert (d / "meta.json").exists()
            assert read_wav(d / "estimates.wav").n_channels == 2
        with open(root / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["algorithm"] for r in rows} == {"auxiva"}
        assert all(r["n_runs"] == "2" for r in rows)
        with open(root / "timing.csv") as fh:
            trows = list(csv.DictReader(fh))
        assert len(trows) == 2
        assert all(float(r["real_time_factor"]) > 0 for r in trows)

    def test_one_factorization_per_seed_segment_and_target(self, tmp_path, monkeypatch):
        factors, splits = [], []
        cho_factor, decompose = metrics.cho_factor, metrics.decompose
        monkeypatch.setattr(metrics, "cho_factor", lambda *a: factors.append(a) or cho_factor(*a))
        for module in (cli, metrics):
            monkeypatch.setattr(
                module, "decompose", lambda *args: splits.append(args) or decompose(*args)
            )
        separators = {"auxiva": "auxiva.json", "auxiva_again": "auxiva.json"}
        assert main(["benchmark", _mini_manifest(tmp_path, separators=separators)]) == 0
        # per seed, both engines stacked: one split per target for the pairing
        # and one per (segment, target) for the curves, each its own factorization
        assert len(splits) == len(factors) == 2 * (2 + 3 * 2)
        for seed in (0, 1):  # the same engine twice, scored in one stack, scores the same
            first, again = (tmp_path / "bench" / f"{name}_seed{seed}" / "report.csv"
                            for name in separators)
            assert again.read_bytes() == first.read_bytes()

    def test_engine_of_another_shape_fails_alone(self, tmp_path):
        _write_json(tmp_path / "one.json", {"algorithm": "overiva", "n_channels": 2,
                                            "n_sources": 1})
        separators = {"one": "one.json", "auxiva": "auxiva.json"}
        manifest = _mini_manifest(tmp_path, separators=separators)
        assert main(["benchmark", manifest]) == 1
        root = tmp_path / "bench"
        with open(root / "failures.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["algorithm"], r["seed"]) for r in rows] == [("one", "0"), ("one", "1")]
        assert all(r["error"] == "estimates (1, 24000) and references (2, 24000) differ"
                   for r in rows)
        assert not (root / "one_seed0" / "report.csv").exists()
        with open(root / "summary.csv") as fh:
            assert {(r["algorithm"], r["n_runs"]) for r in csv.DictReader(fh)} == {("auxiva", "2")}

    def test_summary_is_deterministic_across_reruns(self, tmp_path):
        manifest = _mini_manifest(tmp_path)
        main(["benchmark", manifest, "--out", str(tmp_path / "r1")])
        main(["benchmark", manifest, "--out", str(tmp_path / "r2")])
        assert (tmp_path / "r1" / "summary.csv").read_bytes() == (
            tmp_path / "r2" / "summary.csv"
        ).read_bytes()

    def test_per_run_failures_are_recorded(self, tmp_path):
        # 0.02 s of audio is shorter than one 512-sample frame: every run
        # fails, gets recorded, and the sweep exits nonzero
        manifest = _mini_manifest(tmp_path, duration_seconds=0.02)
        assert main(["benchmark", manifest]) == 1
        root = tmp_path / "bench"
        with open(root / "failures.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert all("shorter than one frame" in r["error"] for r in rows)
        assert (root / "summary.csv").read_text().strip() == ",".join(
            [
                "algorithm",
                "segment_index",
                "t_start_s",
                "sir_improvement_mean_db",
                "sir_improvement_std_db",
                "sdr_improvement_mean_db",
                "sdr_improvement_std_db",
                "n_runs",
            ]
        )

    def test_scoring_error_fails_every_engine_of_the_seed(self, tmp_path, monkeypatch):
        # one stacked curve per seed: the second is seed 1's, for both engines
        curves = []
        curve = cli.convergence_curve

        def fail_the_second(*args):
            curves.append(args)
            if len(curves) == 2:
                raise ValueError("scoring failed")
            return curve(*args)

        monkeypatch.setattr(cli, "convergence_curve", fail_the_second)
        separators = {"auxiva": "auxiva.json", "auxiva_again": "auxiva.json"}
        assert main(["benchmark", _mini_manifest(tmp_path, separators=separators)]) == 1
        with open(tmp_path / "bench" / "failures.csv") as fh:
            rows = [(r["algorithm"], r["seed"], r["error"]) for r in csv.DictReader(fh)]
        assert rows == [(name, "1", "scoring failed") for name in separators]
        for name in separators:
            assert (tmp_path / "bench" / f"{name}_seed0" / "report.csv").exists()
            assert not (tmp_path / "bench" / f"{name}_seed1" / "report.csv").exists()

    def test_infinite_manifest_segment_is_a_usage_error(self, tmp_path, capsys):
        # JSON Infinity passes the schema's exclusiveMinimum
        evaluation = {"segment_seconds": float("inf"), "filter_length": 128}
        assert main(["benchmark", _mini_manifest(tmp_path, evaluation=evaluation)]) == 2
        assert "segment_seconds must be finite and positive, got inf" in capsys.readouterr().err
        assert not (tmp_path / "bench").exists()

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_manifest_duration_is_a_usage_error(
        self, tmp_path, capsys, monkeypatch, value
    ):
        # JSON Infinity and NaN pass the schema's exclusiveMinimum
        monkeypatch.setattr(roomsim, "image_source_rir", lambda *args: pytest.fail("RIR built"))
        assert main(["benchmark", _mini_manifest(tmp_path, duration_seconds=value)]) == 2
        assert f"duration_seconds must be finite and positive, got {value}" in capsys.readouterr().err
        assert not (tmp_path / "bench").exists()

    def test_missing_referenced_file_is_a_config_error(self, tmp_path, capsys):
        manifest = _mini_manifest(tmp_path, separators={"auxiva": "nope.json"})
        assert main(["benchmark", manifest]) == 2
        assert "do not exist" in capsys.readouterr().err

    def test_out_of_range_reference_channel_is_a_config_error(self, tmp_path, capsys):
        evaluation = {"segment_seconds": 0.5, "filter_length": 128, "reference_channel": 2}
        manifest = _mini_manifest(tmp_path, evaluation=evaluation)
        assert main(["benchmark", manifest]) == 2
        assert "reference channel 2" in capsys.readouterr().err
        assert not (tmp_path / "bench").exists()

    @pytest.mark.parametrize(
        "overrides, where",
        [
            ({"evaluation": {"bogus": 1}}, "$.evaluation"),
            ({"evaluation": {"segment_seconds": "2"}}, "$.evaluation.segment_seconds"),
            ({"duration_second": 30.0}, "duration_second"),
            ({"stft": {"fft_size": 512, "hop": 128, "window": "hann"}}, "$.stft"),
            # JSON Schema's own "integer" admits 128.0, which the STFT cannot use
            ({"stft": {"fft_size": 512, "hop": 128.0}}, "$.stft.hop: 128.0 is not of type"),
        ],
    )
    def test_manifest_schema_violation_is_a_config_error(
        self, tmp_path, capsys, overrides, where
    ):
        manifest = _mini_manifest(tmp_path, **overrides)
        assert main(["benchmark", manifest]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {manifest}: ")
        assert where in err
        assert not (tmp_path / "bench").exists()
