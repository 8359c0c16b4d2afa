"""Role-aware multilinear embedding models for n-ary relational KBs.

Importing the package before numpy sets ``OPENBLAS_NUM_THREADS=1`` when
neither it nor ``OMP_NUM_THREADS`` is set, so BLAS runs one thread and
:mod:`ramkb.pool` splits training and ranking over every CPU the process
may use. That is faster than BLAS's own threads, and its bits do not depend
on the CPU count. The setting must precede numpy's first import, which
``ramkb`` itself makes; a value the user set wins.
"""

import os
import sys

if "numpy" not in sys.modules and not (
    os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .errors import ConfigError, DataError, DimensionError, NumericError, ParseError
from .engine import score
from .kb import Facts, KnowledgeBase, RawSplit, Vocabulary, build_kb, subset_by_arity
from .model import ModelConfig, ModelParams
from .training import TrainConfig, train

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DataError",
    "DimensionError",
    "NumericError",
    "ParseError",
    "Facts",
    "KnowledgeBase",
    "RawSplit",
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
