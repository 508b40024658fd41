"""I/O tests: WAV normalization and round trips, and schema-validated
scenario, separator and manifest loading."""

import json
import re
import wave
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.io import wavfile

from ivastream.io import (
    AudioBuffer,
    ConfigError,
    CorruptWavFile,
    UnsupportedWavFormat,
    load_manifest,
    load_scenario,
    load_separator_config,
    read_wav,
    write_wav,
)


# ---------------------------------------------------------------------------
# audio buffers and WAV files


def test_buffer_promotes_mono_and_validates():
    buf = AudioBuffer(np.zeros(100), 16000)
    assert buf.samples.shape == (1, 100)
    assert buf.n_channels == 1 and buf.n_samples == 100
    assert buf.duration == 100 / 16000
    with pytest.raises(ValueError, match="sample_rate"):
        AudioBuffer(np.zeros(10), 0)


def test_float32_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    original = rng.standard_normal((3, 500)).astype(np.float32).astype(np.float64)
    path = tmp_path / "f32.wav"
    write_wav(AudioBuffer(original, 16000), path)
    back = read_wav(path)
    assert back.sample_rate == 16000
    assert back.samples.shape == (3, 500)
    assert_array_equal(back.samples, original)


def test_mono_round_trip_keeps_shape(tmp_path):
    x = np.linspace(-0.5, 0.5, 64)[None, :]
    path = tmp_path / "mono.wav"
    write_wav(AudioBuffer(x, 8000), path)
    back = read_wav(path)
    assert back.samples.shape == (1, 64)
    assert_allclose(back.samples, x, atol=1e-7)


def test_pcm16_full_scale_normalization(tmp_path):
    path = tmp_path / "fs.wav"
    wavfile.write(path, 16000, np.array([32767, -32768, 0, 16384], dtype=np.int16))
    buf = read_wav(path)
    assert_array_equal(buf.samples[0], [32767 / 32768, -1.0, 0.0, 0.5])


def test_pcm16_zeros_round_trip(tmp_path):
    path = tmp_path / "zeros.wav"
    wavfile.write(path, 16000, np.zeros(32, dtype=np.int16))
    assert_array_equal(read_wav(path).samples, np.zeros((1, 32)))


def test_pcm24_reads_left_justified(tmp_path):
    path = tmp_path / "p24.wav"
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(3)
        w.setframerate(16000)
        vals = [0x400000, -0x400000, 0x7FFFFF]
        w.writeframes(b"".join(int(v).to_bytes(3, "little", signed=True) for v in vals))
    buf = read_wav(path)
    assert_array_equal(buf.samples[0], [0.5, -0.5, 0x7FFFFF * 256 / 2.0**31])


def test_unsupported_codec_and_corrupt_file(tmp_path):
    upath = tmp_path / "u8.wav"
    wavfile.write(upath, 8000, np.zeros(16, dtype=np.uint8))
    with pytest.raises(UnsupportedWavFormat, match="uint8"):
        read_wav(upath)
    cpath = tmp_path / "bad.wav"
    cpath.write_bytes(b"definitely not RIFF data")
    with pytest.raises(CorruptWavFile):
        read_wav(cpath)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_float_sample_is_a_corrupt_file(tmp_path, value):
    x = np.zeros((3, 40))
    x[2, 17] = x[1, 30] = value
    path = tmp_path / "bad.wav"
    write_wav(AudioBuffer(x, 16000), path)
    with pytest.raises(CorruptWavFile, match=rf"bad\.wav: non-finite sample at channel 2, sample 17$"):
        read_wav(path)


# ---------------------------------------------------------------------------
# scenario loading


def _write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def _scene_doc(**overrides):
    doc = {
        "room": {"dimensions": [6.0, 5.0, 3.0], "reflection": 0.5},
        "array": {"positions": [[2.0, 2.0, 1.2], [2.1, 2.0, 1.2]]},
        "sources": [[1.0, 3.5, 1.4], [4.5, 1.0, 1.6]],
    }
    doc.update(overrides)
    return doc


def test_minimal_scenario_fills_defaults(tmp_path):
    path = _write_json(tmp_path, "scene.json", _scene_doc())
    scen = load_scenario(path)
    assert scen.isir_db == 0.0
    assert scen.isnr_db == 20.0
    assert scen.white_exponent == -0.75
    assert scen.seed == 0
    assert scen.noise_positions.shape == (0, 3)
    assert scen.room.sample_rate == 16000
    assert scen.array.n_channels == 2


def test_scenario_grid_array_and_t60_room(tmp_path):
    doc = _scene_doc(
        room={"dimensions": [7.0, 8.0, 3.5], "t60": 0.15},
        array={"rows": 3, "cols": 3, "spacing": 0.06, "center_xy": [3.5, 4.0], "z": 3.0},
        sources=[[2.0, 2.0, 1.5], [5.0, 6.0, 1.5]],
        isnr_db=None,
    )
    scen = load_scenario(_write_json(tmp_path, "scene.json", doc))
    assert scen.array.n_channels == 9
    assert scen.isnr_db is None
    assert 0.0 < scen.room.reflection[0] < 1.0
    assert scen.room.max_image_order is not None


def test_scenario_places_noise_by_count(tmp_path):
    doc = _scene_doc(
        room={"dimensions": [7.0, 8.0, 3.5], "reflection": 0.6},
        array={"positions": [[3.5, 4.0, 1.2]]},
        sources=[[2.0, 2.0, 1.5]],
        noise={"count": 3, "seed": 5},
    )
    scen = load_scenario(_write_json(tmp_path, "scene.json", doc))
    assert scen.noise_positions.shape == (3, 3)
    # placement obeys the wall margin
    assert np.all(scen.noise_positions >= 0.5)


def test_scenario_schema_violation_reports_json_path(tmp_path):
    doc = _scene_doc()
    doc["room"]["reflection"] = 1.5
    path = _write_json(tmp_path, "scene.json", doc)
    with pytest.raises(ConfigError, match=r"\$\.room\.reflection"):
        load_scenario(path)
    doc2 = _scene_doc()
    del doc2["sources"]
    with pytest.raises(ConfigError, match="sources"):
        load_scenario(_write_json(tmp_path, "scene2.json", doc2))


def test_scenario_domain_violation_is_wrapped(tmp_path):
    doc = _scene_doc(sources=[[99.0, 1.0, 1.0]])
    with pytest.raises(ConfigError, match="outside the room"):
        load_scenario(_write_json(tmp_path, "scene.json", doc))


_ROOM = {"dimensions": [6.0, 5.0, 3.0]}


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"room": {"dimensions": [6.0, float("nan"), 3.0], "reflection": 0.5}}, "dimensions"),
        ({"room": {"dimensions": [6.0, float("inf"), 3.0], "reflection": 0.5}}, "dimensions"),
        ({"room": {**_ROOM, "reflection": float("nan")}}, "reflection"),
        ({"room": {**_ROOM, "t60": float("nan")}}, "T60"),
        ({"room": {**_ROOM, "t60": float("inf")}}, "T60"),
        ({"isir_db": float("nan")}, "isir_db"),
        ({"isnr_db": float("nan")}, "isnr_db"),
        ({"white_exponent": float("-inf")}, "white_exponent"),
    ],
    ids=["nan-dimension", "inf-dimension", "nan-reflection", "nan-t60", "inf-t60",
         "nan-isir", "nan-isnr", "inf-white-exponent"],
)
def test_scenario_rejects_json_nan_and_infinity(tmp_path, overrides, field):
    # JSON NaN and Infinity pass the schema's number bounds
    path = _write_json(tmp_path, "scene.json", _scene_doc(**overrides))
    assert "NaN" in path.read_text() or "Infinity" in path.read_text()
    with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}: .*{field}"):
        load_scenario(path)


def test_scenario_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_scenario(path)


# ---------------------------------------------------------------------------
# separator config loading


def test_separator_defaults_per_algorithm(tmp_path):
    cases = [
        ({"n_channels": 4, "n_sources": 2}, "overiva", 0.99),
        ({"algorithm": "auxiva", "n_channels": 2, "n_sources": 2}, "auxiva", 0.96),
        (
            {
                "algorithm": "biiva",
                "n_channels": 9,
                "n_sources": 2,
                "sub_len_1": 3,
                "sub_len_2": 3,
            },
            "biiva",
            0.98,
        ),
    ]
    for doc, algo, alpha in cases:
        cfg = load_separator_config(_write_json(tmp_path, f"{algo}.json", doc))
        assert cfg.algorithm == algo
        assert cfg.forgetting == alpha


def test_separator_explicit_forgetting_wins(tmp_path):
    doc = {"n_channels": 4, "n_sources": 2, "forgetting": 0.9}
    cfg = load_separator_config(_write_json(tmp_path, "cfg.json", doc))
    assert cfg.forgetting == 0.9


def test_separator_biiva_product_constraint_is_a_load_error(tmp_path):
    doc = {
        "algorithm": "biiva",
        "n_channels": 9,
        "n_sources": 2,
        "sub_len_1": 3,
        "sub_len_2": 4,
    }
    with pytest.raises(ConfigError, match="sub_len_1 \\* sub_len_2"):
        load_separator_config(_write_json(tmp_path, "bad.json", doc))


@pytest.mark.parametrize("algo, m", [("overiva", 9), ("auxiva", 2)])
def test_separator_sub_filter_lengths_only_for_biiva(tmp_path, algo, m):
    doc = {"algorithm": algo, "n_channels": m, "n_sources": 2, "sub_len_1": 3, "sub_len_2": 5}
    with pytest.raises(ConfigError, match="for biiva only"):
        load_separator_config(_write_json(tmp_path, "bad.json", doc))


def test_separator_algorithm_override_keeps_sub_filter_lengths(tmp_path):
    # a biiva file cannot be run as overiva by overriding its algorithm alone
    doc = {"algorithm": "biiva", "n_channels": 9, "n_sources": 2, "sub_len_1": 3, "sub_len_2": 3}
    path = _write_json(tmp_path, "biiva.json", doc)
    with pytest.raises(ConfigError, match="for biiva only"):
        load_separator_config(path, {"algorithm": "overiva"})


def test_separator_schema_rejects_unknown_keys_and_bad_enum(tmp_path):
    with pytest.raises(ConfigError, match="unexpected"):
        load_separator_config(
            _write_json(tmp_path, "a.json", {"n_channels": 4, "n_sources": 2, "beta": 1})
        )
    with pytest.raises(ConfigError, match="algorithm"):
        load_separator_config(
            _write_json(
                tmp_path, "b.json", {"algorithm": "ica", "n_channels": 4, "n_sources": 2}
            )
        )


def test_separator_schema_rejects_integral_float(tmp_path):
    # JSON Schema's own "integer" admits 2.0, which init_state cannot use
    doc = {"algorithm": "auxiva", "n_channels": 2.0, "n_sources": 2}
    with pytest.raises(ConfigError, match=r"\$\.n_channels: 2\.0 is not of type 'integer'"):
        load_separator_config(_write_json(tmp_path, "a.json", doc))


# ---------------------------------------------------------------------------
# benchmark manifest loading


def test_manifest_paths_resolve_against_its_directory(tmp_path):
    configs = Path(__file__).resolve().parent.parent / "configs"
    shipped = load_manifest(configs / "desk_manifest.json")
    assert shipped["scenario"] == configs / "desk_scenario.json"
    assert shipped["separators"]["biiva"] == configs / "biiva.json"
    # absolute paths, as in a manifest written elsewhere, pass through unchanged
    doc = json.loads((configs / "desk_manifest.json").read_text())
    doc["scenario"] = str(configs / "desk_scenario.json")
    doc["separators"] = {"overiva": str(configs / "overiva.json")}
    moved = load_manifest(_write_json(tmp_path, "manifest.json", doc))
    assert moved["scenario"] == configs / "desk_scenario.json"
    assert moved["separators"] == {"overiva": configs / "overiva.json"}


def test_manifest_schema_rejects_unknown_keys_and_bad_types(tmp_path):
    base = {"scenario": "s.json", "separators": {"a": "a.json"}, "seeds": [0], "output_dir": "o"}
    cases = [
        ({"duration_second": 30.0}, r"\$: .*'duration_second' was unexpected"),
        ({"evaluation": {"bogus": 1}}, r"\$\.evaluation: .*'bogus' was unexpected"),
        ({"evaluation": {"segment_seconds": "2"}}, r"\$\.evaluation\.segment_seconds"),
        ({"stft": {"window": "hann"}}, r"\$\.stft: .*'window' was unexpected"),
        ({"seeds": []}, r"\$\.seeds"),
        # a repeated seed would run twice into one directory and count twice
        ({"seeds": [3, 3]}, r"\$\.seeds: .*non-unique"),
    ]
    for extra, match in cases:
        path = _write_json(tmp_path, "manifest.json", {**base, **extra})
        with pytest.raises(ConfigError, match=match):
            load_manifest(path)
