"""The benchmark's workloads: which planted dataset, and what a round runs.

Every workload uses latent mode with d=25, m=2, K=10, batch 64, dropout 0.2
and the package's default ``threads``; BLAS is pinned to one thread.

A round trains a fresh model for `epochs` epochs and then ranks the test
split, with the trained parameters or, when `rank_planted` is set, with the
planted ones, `eval_passes` times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from planted import DatasetSpec

# ~3k entities: the n_entities-wide candidate matmuls dominate full negatives
SMALL = DatasetSpec("planted3k", n_entities=3000, n_relations=60,
                    n_train=10000, n_valid=500, n_test=8000)
# ~20k entities in the vocabulary, so 50 sampled negatives touch a minority
# of entity rows per batch (with 3k nearly every row would be touched)
LARGE = DatasetSpec("planted20k", n_entities=30000, n_relations=120,
                    n_train=12000, n_valid=1000, n_test=12000)

LEARNING_RATE = 0.01
BATCH_SIZE = 64
DROPOUT = 0.2


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: DatasetSpec
    negatives: Union[str, int]
    epochs: int
    rank_planted: bool
    eval_passes: int  # identical ranking passes per round, for enough ranking samples
    mrr_floor: float  # gate on the ranked split's filtered MRR: about half the lowest seen


WORKLOADS = {
    w.name: w
    for w in (
        # wide candidate matmuls and a dense entity-table Adam update; the
        # trained model's MRR is the quality floor
        Workload("planted-full", SMALL, "full", epochs=2,
                 rank_planted=False, eval_passes=6, mrr_floor=0.02),
        # gathered candidates: corruption loop, np.add.at scatter, per-relation
        # backward and row-sparse Adam; three epochs, because the trained MRR
        # still swings by a quarter between seeds after two
        Workload("planted-sampled", LARGE, 50, epochs=3,
                 rank_planted=False, eval_passes=2, mrr_floor=0.0035),
        # filtered ranking with the planted parameters; the one training
        # epoch only gives this workload its training metrics
        Workload("eval-filtered", LARGE, 50, epochs=1,
                 rank_planted=True, eval_passes=1, mrr_floor=0.016),
    )
}
