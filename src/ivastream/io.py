"""Multichannel WAV and JSON configuration I/O.

Audio travels as float64 in [-1, 1].  PCM16, PCM24 and float32 files are
read, integer PCM normalized by the full-scale convention (int16 / 32768,
24-bit left-justified int32 / 2^31); a float sample that is NaN or infinite
makes the file corrupt.  Every write is float32, which reads back
losslessly.  Scenario and separator files are JSON documents validated
against schemas shipped with the package, as are benchmark manifests;
violations are reported with their JSON path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
from scipy.io import wavfile

from .roomsim import ArrayGeometry, Room, Scenario, place_noise_sources
from .separators import SeparatorConfig


class UnsupportedWavFormat(ValueError):
    """WAV codec outside PCM16 / PCM24 / IEEE float32."""


class CorruptWavFile(ValueError):
    """File that cannot be parsed as RIFF/WAV."""


class ConfigError(ValueError):
    """JSON configuration rejected, with JSON-path context."""


_PCM16_SCALE = 32768.0
_PCM32_SCALE = float(2**31)  # 24-bit samples arrive left-justified in int32


@dataclass
class AudioBuffer:
    """Multichannel audio: ``samples`` is (n_channels, n_samples) float64."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.atleast_2d(np.asarray(self.samples, dtype=float))
        if samples.ndim != 2:
            raise ValueError("samples must be a 1-D or (channels, samples) array")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        self.samples = samples

    @property
    def n_channels(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]

    @property
    def duration(self) -> float:
        return self.samples.shape[1] / float(self.sample_rate)


def read_wav(path) -> AudioBuffer:
    try:
        rate, data = wavfile.read(path)
    except ValueError as exc:
        raise CorruptWavFile(f"{path}: {exc}") from exc
    if data.dtype == np.int16:
        samples = data / _PCM16_SCALE
    elif data.dtype == np.int32:
        samples = data / _PCM32_SCALE
    elif data.dtype == np.float32:
        bad = np.argwhere(~np.isfinite(data.reshape(len(data), -1)))
        if bad.size:
            sample, channel = bad[0]
            raise CorruptWavFile(f"{path}: non-finite sample at channel {channel}, sample {sample}")
        samples = data.astype(np.float64)
    else:
        raise UnsupportedWavFormat(f"{path}: unsupported sample format {data.dtype}")
    if samples.ndim == 1:
        samples = samples[None, :]
    else:
        samples = samples.T
    return AudioBuffer(np.ascontiguousarray(samples), int(rate))


def write_wav(buffer: AudioBuffer, path) -> None:
    """Write a buffer as float32, which the reader round-trips losslessly."""
    x = buffer.samples.T  # (n_samples, n_channels)
    if x.shape[1] == 1:
        x = x[:, 0]
    data = np.ascontiguousarray(x.astype(np.float32))
    try:
        wavfile.write(path, buffer.sample_rate, data)
    except OSError as exc:
        raise CorruptWavFile(f"{path}: {exc}") from exc


# JSON Schema counts 2.0 as an integer; the configs feed sizes and counts to
# code that needs a Python int, so "integer" means int here (bool excluded)
_Validator = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda _, x: isinstance(x, int) and not isinstance(x, bool)
    ),
)


def _validate(doc, schema_name: str, context: str) -> None:
    schema = json.loads(
        resources.files("ivastream.schemas").joinpath(schema_name).read_text()
    )
    validator = _Validator(schema)
    errors = sorted(validator.iter_errors(doc), key=lambda e: e.json_path)
    if errors:
        err = errors[0]
        raise ConfigError(f"{context}: {err.json_path}: {err.message}")


def _load_validated(path, schema_name: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    _validate(doc, schema_name, str(path))
    return doc


def load_scenario(path) -> Scenario:
    """Build a fully validated Scenario from a JSON scene file.

    The room takes either a target reverberation time (``t60``) or explicit
    wall reflections; the array is either a planar grid or explicit
    positions; point noises are either placed by seed under the placement
    constraints or given explicitly.
    """
    doc = _load_validated(path, "scenario.schema.json")
    r = doc["room"]
    sample_rate = int(r.get("sample_rate", 16000))
    try:
        if "t60" in r:
            room = Room.from_t60(r["dimensions"], r["t60"], sample_rate)
            if "max_image_order" in r:
                room = Room(room.dimensions, room.reflection, sample_rate, r["max_image_order"])
        else:
            room = Room(r["dimensions"], r["reflection"], sample_rate, r.get("max_image_order"))
    except ValueError as exc:  # JSON NaN and Infinity pass the schema's bounds
        raise ConfigError(f"{path}: {exc}") from exc

    a = doc["array"]
    if "positions" in a:
        array = ArrayGeometry(np.asarray(a["positions"], dtype=float))
    else:
        array = ArrayGeometry.grid(
            a["rows"], a["cols"], a["spacing"], tuple(a["center_xy"]), a["z"]
        )

    noise = doc.get("noise")
    if noise is None:
        noise_positions = np.zeros((0, 3))
    elif "positions" in noise:
        noise_positions = np.asarray(noise["positions"], dtype=float).reshape(-1, 3)
    else:
        try:
            noise_positions = place_noise_sources(room, noise["count"], noise.get("seed", 0))
        except RuntimeError as exc:  # the placement constraints admit no such set
            raise ConfigError(f"{path}: noise: {exc}") from exc

    try:
        return Scenario(
            room=room,
            array=array,
            source_positions=np.asarray(doc["sources"], dtype=float),
            noise_positions=noise_positions,
            isir_db=float(doc.get("isir_db", 0.0)),
            isnr_db=None if doc.get("isnr_db", 20.0) is None else float(doc.get("isnr_db", 20.0)),
            white_exponent=float(doc.get("white_exponent", -0.75)),
            seed=int(doc.get("seed", 0)),
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def load_separator_config(path, overrides: dict | None = None) -> SeparatorConfig:
    """Build a validated SeparatorConfig; domain constraints (channel
    bounds, the biiva factor product) are reported as load errors.

    ``overrides`` merges extra key/value pairs over the file contents (the
    CLI's precedence: flags beat the file, the file beats defaults); the
    merged document is re-validated.
    """
    doc = _load_validated(path, "separator.schema.json")
    if overrides:
        doc = {**doc, **{k: v for k, v in overrides.items() if v is not None}}
        _validate(doc, "separator.schema.json", f"{path} (with overrides)")
    try:
        return SeparatorConfig(**doc)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def load_manifest(path) -> dict:
    """Load a validated benchmark manifest.

    The scenario and separator paths are resolved against the manifest's
    directory and must exist; ``evaluation`` and ``stft`` hold keyword
    arguments for ``EvalConfig`` and ``StftConfig``.
    """
    doc = _load_validated(path, "manifest.schema.json")
    base = Path(path).parent
    doc["scenario"] = base / doc["scenario"]
    doc["separators"] = {k: base / v for k, v in doc["separators"].items()}
    missing = [
        str(p) for p in [doc["scenario"], *doc["separators"].values()] if not p.exists()
    ]
    if missing:
        raise ConfigError(f"{path}: referenced files do not exist: {', '.join(missing)}")
    return doc
