"""End-to-end tests of the command-line harness on miniature scenes."""

import csv
import json

import numpy as np
import pytest

from ivastream.cli import main
from ivastream.io import read_wav


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

    def test_inner_iters_zero_is_passthrough(self, tmp_path, mixture_dir):
        # with filter updates disabled the demixing stays identity; after
        # projection back onto microphone 0, source 0 is the first input
        # channel and source 1 contributes nothing there
        cfg = _auxiva_config(tmp_path)
        out = tmp_path / "sep"
        code = main(
            [
                "separate",
                str(mixture_dir / "observations.wav"),
                cfg,
                "--out",
                str(out),
                "--inner-iters",
                "0",
            ]
        )
        assert code == 0
        est = read_wav(out / "estimates.wav").samples
        obs = read_wav(mixture_dir / "observations.wav").samples
        interior = slice(1024, obs.shape[1] - 1024)
        np.testing.assert_allclose(est[0, interior], obs[0, interior], atol=1e-6)
        np.testing.assert_allclose(est[1, interior], 0.0, atol=1e-6)

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

    def test_invalid_override_is_rejected(self, tmp_path, mixture_dir, capsys):
        cfg = _auxiva_config(tmp_path)
        code = main(
            [
                "separate",
                str(mixture_dir / "observations.wav"),
                cfg,
                "--out",
                str(tmp_path / "sep"),
                "--forgetting",
                "1.5",
            ]
        )
        assert code == 2
        assert "forgetting" in capsys.readouterr().err


class TestEvaluate:
    def test_pairing_recovers_channel_swap(self, tmp_path, mixture_dir):
        refs = mixture_dir / "reference_images.wav"
        swapped = read_wav(refs)
        from ivastream.io import AudioBuffer, write_wav

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
    def test_mini_sweep_outputs(self, tmp_path):
        manifest = _mini_manifest(tmp_path)
        assert main(["benchmark", manifest]) == 0
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

    def test_missing_referenced_file_is_a_config_error(self, tmp_path, capsys):
        manifest = _mini_manifest(tmp_path, separators={"auxiva": "nope.json"})
        assert main(["benchmark", manifest]) == 2
        assert "do not exist" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, where",
        [
            ({"evaluation": {"bogus": 1}}, "$.evaluation"),
            ({"evaluation": {"segment_seconds": "2"}}, "$.evaluation.segment_seconds"),
            ({"duration_second": 30.0}, "duration_second"),
            ({"stft": {"fft_size": 512, "hop": 128, "window": "hann"}}, "$.stft"),
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
