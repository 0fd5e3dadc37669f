"""Decoder-only transformer for natural language inference, applied to
bidirectional conflict detection between contract norms.

Everything is built on numpy: a small reverse-mode autodiff tape, the
transformer classifier, Adam with warmup and decay, SNLI-format ingestion,
and a conflict report pipeline, plus a command line front end.
"""

from .base import (
    CheckpointError,
    CheckpointVersionError,
    ConfigError,
    ContractError,
    IngestError,
    NorminferError,
    NotFittedError,
    NumericError,
    ShapeError,
    split_seed,
)
from .conflicts import (
    ConflictReport,
    analyze_conflicts,
    format_report,
    report_to_csv,
    write_report_csv,
    write_report_text,
)
from .estimator import NliClassifier, PairEncoder
from .model import (
    ModelConfig,
    ModelParameters,
    count_parameters,
    forward_batch,
    make_batch,
)
from .persistence import (
    Checkpoint,
    RunConfig,
    load_checkpoint,
    load_config,
    save_checkpoint,
    save_config,
    serialize_config,
)
from .tensor import GradTape, Tensor, parameter
from .text import (
    CLASSES,
    CONFLICT_TYPES,
    ConflictRecord,
    EncodedPair,
    NliExample,
    Vocabulary,
    build_vocab,
    bundled_conflicts_path,
    encode_pair,
    load_norm_conflicts,
    load_snli,
    tokenize,
)
from .training import (
    AdamOptimizer,
    TrainConfig,
    TrainLog,
    Trainer,
    TrainResult,
    lr_at,
    nll_loss,
)

__version__ = "0.1.0"

__all__ = [
    "AdamOptimizer",
    "CLASSES",
    "CONFLICT_TYPES",
    "Checkpoint",
    "CheckpointError",
    "CheckpointVersionError",
    "ConfigError",
    "ConflictRecord",
    "ConflictReport",
    "ContractError",
    "EncodedPair",
    "GradTape",
    "IngestError",
    "ModelConfig",
    "ModelParameters",
    "NliClassifier",
    "NliExample",
    "NorminferError",
    "NotFittedError",
    "NumericError",
    "PairEncoder",
    "RunConfig",
    "ShapeError",
    "Tensor",
    "TrainConfig",
    "TrainLog",
    "TrainResult",
    "Trainer",
    "Vocabulary",
    "analyze_conflicts",
    "build_vocab",
    "bundled_conflicts_path",
    "count_parameters",
    "encode_pair",
    "forward_batch",
    "format_report",
    "load_checkpoint",
    "load_config",
    "load_norm_conflicts",
    "load_snli",
    "lr_at",
    "make_batch",
    "nll_loss",
    "parameter",
    "report_to_csv",
    "save_checkpoint",
    "save_config",
    "serialize_config",
    "split_seed",
    "tokenize",
    "write_report_csv",
    "write_report_text",
    "__version__",
]
