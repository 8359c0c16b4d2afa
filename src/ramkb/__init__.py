"""Role-aware multilinear embedding models for n-ary relational KBs."""

from .errors import ConfigError, DataError, DimensionError, NumericError, ParseError
from .engine import score
from .kb import Fact, KnowledgeBase, Vocabulary, build_kb, subset_by_arity
from .model import ModelConfig, ModelParams
from .training import TrainConfig, train

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DataError",
    "DimensionError",
    "NumericError",
    "ParseError",
    "Fact",
    "KnowledgeBase",
    "Vocabulary",
    "build_kb",
    "subset_by_arity",
    "ModelConfig",
    "ModelParams",
    "score",
    "TrainConfig",
    "train",
    "__version__",
]
