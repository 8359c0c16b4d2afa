"""Filtered link-prediction ranking: MRR and Hit@k with per-arity breakdown.

Each arity group's (B, a, n_entities) full-table scores are ranked in one array
pass (:func:`rank_from_scores`).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .engine import forward_group, split_groups
from .errors import DataError
from .kb import Fact, KnowledgeBase
from .model import ModelParams

HIT_LEVELS = (1, 3, 10)
EVAL_BATCH = 256  # facts scored per batch; each arity group's scores span the whole table


@dataclass
class ArityStats:
    mrr: float
    hits: dict[int, float]
    n_queries: int


@dataclass
class EvalReport:
    mrr: float
    hits: dict[int, float]
    per_arity: dict[int, ArityStats]
    n_queries: int
    seconds: float

    def to_dict(self) -> dict:
        return {
            "mrr": self.mrr,
            "hits": {str(k): v for k, v in self.hits.items()},
            "n_queries": self.n_queries,
            "seconds": self.seconds,
            "per_arity": {
                str(a): {
                    "mrr": s.mrr,
                    "hits": {str(k): v for k, v in s.hits.items()},
                    "n_queries": s.n_queries,
                }
                for a, s in sorted(self.per_arity.items())
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def per_arity_csv(self) -> str:
        lines = ["arity,n_queries,mrr," + ",".join(f"hit{k}" for k in HIT_LEVELS)]
        for arity, stats in sorted(self.per_arity.items()):
            hits = ",".join(repr(stats.hits[k]) for k in HIT_LEVELS)
            lines.append(f"{arity},{stats.n_queries},{stats.mrr!r},{hits}")
        return "\n".join(lines) + "\n"

    def table(self) -> str:
        header = f"{'':8}{'MRR':>8} " + " ".join(f"{'Hit@' + str(k):>8}" for k in HIT_LEVELS)
        overall = f"{'all':8}{self.mrr:8.4f} " + " ".join(
            f"{self.hits[k]:8.4f}" for k in HIT_LEVELS
        )
        rows = [header, overall]
        for arity, stats in sorted(self.per_arity.items()):
            rows.append(
                f"{f'arity {arity}':8}{stats.mrr:8.4f} "
                + " ".join(f"{stats.hits[k]:8.4f}" for k in HIT_LEVELS)
                + f"  ({stats.n_queries} queries)"
            )
        return "\n".join(rows)


def rank_from_scores(kb: KnowledgeBase, facts: list[Fact], scores: np.ndarray) -> np.ndarray:
    """Optimistic filtered ranks (B, a) of facts of one arity.

    `scores` (B, a, n_entities) are the facts' full-table scores. A rank is 1
    plus the number of entities scoring strictly above the true one, less the
    known-true entities filtered out of that query that do.
    """
    ents = np.array([fact.entities for fact in facts], dtype=np.intp)
    true = np.take_along_axis(scores, ents[:, :, None], axis=2)  # (B, a, 1)
    above = np.count_nonzero(scores > true, axis=2).reshape(-1)
    query, entity = kb.filtered_candidates(facts)
    known_above = scores.reshape(above.size, -1)[query, entity] > true.reshape(-1)[query]
    above -= np.bincount(query[known_above], minlength=above.size)
    return 1 + above.reshape(ents.shape)


def report_from_ranks(
    arity_ranks: Iterable[tuple[int, int]], seconds: float = 0.0
) -> EvalReport:
    """Aggregate (arity, rank) query results into a report."""
    per_arity_ranks: dict[int, list[int]] = {}
    for arity, r in arity_ranks:
        per_arity_ranks.setdefault(arity, []).append(r)
    all_ranks = np.array([r for ranks in per_arity_ranks.values() for r in ranks])
    if all_ranks.size == 0:
        raise DataError("no queries to aggregate")

    def stats(ranks: np.ndarray) -> tuple[float, dict[int, float]]:
        mrr = float((1.0 / ranks).mean())
        hits = {k: float((ranks <= k).mean()) for k in HIT_LEVELS}
        return mrr, hits

    mrr, hits = stats(all_ranks)
    per_arity = {}
    for arity, ranks in sorted(per_arity_ranks.items()):
        arr = np.array(ranks)
        a_mrr, a_hits = stats(arr)
        per_arity[arity] = ArityStats(a_mrr, a_hits, int(arr.size))
    return EvalReport(mrr, hits, per_arity, int(all_ranks.size), seconds)


def evaluate(params: ModelParams, kb: KnowledgeBase, split: str = "test") -> EvalReport:
    """Filtered MRR / Hit@k over every position of every fact in a split."""
    facts = kb.split(split)
    if not facts:
        raise DataError(f"split {split!r} is empty")
    start = time.perf_counter()
    ranks: list[tuple[int, int]] = []
    for lo in range(0, len(facts), EVAL_BATCH):
        batch = facts[lo : lo + EVAL_BATCH]
        for spec in split_groups(params, batch):
            group = [batch[i] for i in spec.fact_index]
            group_ranks = rank_from_scores(kb, group, forward_group(params, spec).scores)
            ranks.extend((spec.arity, r) for r in group_ranks.ravel().tolist())
    return report_from_ranks(ranks, seconds=time.perf_counter() - start)
