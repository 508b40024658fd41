"""Streaming frequency-domain blind source separation toolkit.

Online AuxIVA, online OverIVA and bilinear (Kronecker-factored) OverIVA,
plus an image-source room simulator, SIR/SDR evaluation and a CLI harness
for reproducible experiments.
"""

from .numerics import SingularMatrixError
from .stft import SpectralFrame, StftConfig, analyze, synthesize
from .separators import (
    Algorithm,
    SeparatorConfig,
    SeparatorState,
    SourceEstimate,
    init_state,
    process_frame,
    projection_back,
)
from .roomsim import (
    ArrayGeometry,
    MixtureBundle,
    Room,
    Scenario,
    image_source_rir,
    measure_t60,
    mix,
    t60_to_reflection,
)
from .metrics import Decomposition, EvalConfig, EvalReport, convergence_curve, decompose, sir_sdr
from .io import (
    AudioBuffer,
    ConfigError,
    CorruptWavFile,
    UnsupportedWavFormat,
    load_scenario,
    load_separator_config,
    read_wav,
    write_wav,
)

__version__ = "0.1.0"

__all__ = [
    "Algorithm",
    "ArrayGeometry",
    "AudioBuffer",
    "ConfigError",
    "CorruptWavFile",
    "Decomposition",
    "EvalConfig",
    "EvalReport",
    "MixtureBundle",
    "Room",
    "Scenario",
    "SeparatorConfig",
    "SeparatorState",
    "SingularMatrixError",
    "SourceEstimate",
    "SpectralFrame",
    "StftConfig",
    "UnsupportedWavFormat",
    "analyze",
    "convergence_curve",
    "decompose",
    "image_source_rir",
    "init_state",
    "load_scenario",
    "load_separator_config",
    "measure_t60",
    "mix",
    "process_frame",
    "projection_back",
    "read_wav",
    "sir_sdr",
    "synthesize",
    "t60_to_reflection",
    "write_wav",
]
