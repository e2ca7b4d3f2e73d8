"""avq360: audio-visual quality assessment for 360-degree UGC video.

Subpackages cover media ingestion (manifest), subjective-score
processing (subjective), SI/TI content statistics (siti), ERP latitude
geometry (erp), the audio DSP front-end (audiofe), a minimal neural core
with analytic gradients (nn), the quality model and training loop
(model), the evaluation metric suite (metrics), head-movement analysis
(hm), and synthetic fixtures (synthetic).
"""

__version__ = "0.1.0"

from .errors import Avq360Error, DataError, NumericError, ValidationError
from .manifest import (
    AudioClip,
    FrameSequence,
    RatingRecord,
    SequenceManifestEntry,
    downmix_mono,
    load_manifest,
    load_wav,
    load_wav_mono,
    load_y4m,
)
from .metrics import MetricReport, evaluate_predictions
from .model import AVQAModel, ModelConfig, preprocess_sequence, train_model
from .subjective import MOSRecord, compute_mos, exclude_ssq, screen_subjects

__all__ = [
    "Avq360Error",
    "ValidationError",
    "DataError",
    "NumericError",
    "SequenceManifestEntry",
    "FrameSequence",
    "AudioClip",
    "RatingRecord",
    "load_manifest",
    "load_y4m",
    "load_wav",
    "load_wav_mono",
    "downmix_mono",
    "MOSRecord",
    "exclude_ssq",
    "screen_subjects",
    "compute_mos",
    "AVQAModel",
    "ModelConfig",
    "preprocess_sequence",
    "train_model",
    "MetricReport",
    "evaluate_predictions",
    "__version__",
]
