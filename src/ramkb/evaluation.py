"""Filtered link-prediction ranking: MRR and Hit@k with per-arity breakdown.

Each arity group is ranked in one pass (:func:`rank_from_scores`). Its
contraction kernels are multiplied with the whole entity table in float32,
a screen that decides every entity whose float32 score lies outside a
proven error band around the true score. Only the entities inside the band,
and the filtered known-true entities that fall there, are scored again in
float64. So the ranks are those of float64 scores, ties included, while the
table-wide product runs at float32 speed and memory. The bound and its
derivation are in :func:`rank_from_scores`'s docstring; training, gradcheck
and the oracles score in float64 only.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .engine import forward_group, split_groups
from .errors import DataError, NumericError
from .kb import Fact, KnowledgeBase
from .model import ModelParams

HIT_LEVELS = (1, 3, 10)
EVAL_BATCH = 256  # facts scored per batch; each arity group's scores span the whole table
F32_UNIT = 2.0**-24  # unit roundoff of float32
F32_TINY = 2.0**-126  # smallest normal float32: bounds one underflow's absolute error
F32_LIMIT = float(np.finfo(np.float32).max) / 2  # below this a float32 dot cannot overflow


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


class EntityTable(NamedTuple):
    """The entity table as the ranking reads it, built once per :func:`evaluate` call."""

    rows: np.ndarray  # (n_entities, m*d) float64 blocks
    rows32: np.ndarray  # the same rows in float32, for the screen
    col_max: np.ndarray  # (m*d,) largest |rows| per column, the error bound's scale


def entity_table(params: ModelParams) -> EntityTable:
    """The params' entity table for ranking; NumericError if any entry is not finite."""
    ent = params.data[("ent",)]
    rows = ent.reshape(ent.shape[0], -1)
    col_max = np.abs(rows).max(axis=0)
    if not np.isfinite(col_max).all():
        bad = int(np.flatnonzero(~np.isfinite(rows).all(axis=1))[0])
        raise NumericError(
            f"entity {params.vocab.entities[bad]!r} has non-finite parameters; "
            f"its block is {ent[bad].tolist()}"
        )
    return EntityTable(rows, rows.astype(np.float32), col_max)


def _row_dots(kernels: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """float64 scores ``kernels[i] . rows[i]`` (broadcast on the leading axis).

    Each score is one pairwise sum over its own contiguous row of products,
    so a (kernel, entity) pair gets the same bits whichever batch it is in.
    """
    return (kernels * rows).sum(axis=-1)


def _round_out(x: np.ndarray, up: bool) -> np.ndarray:
    """`x` rounded to float32 away from the band's centre: up, or else down."""
    y = x.astype(np.float32)
    inward = y < x if up else y > x
    return np.where(inward, np.nextafter(y, np.float32(np.inf if up else -np.inf)), y)


def rank_from_scores(
    kb: KnowledgeBase, facts: list[Fact], kernels: np.ndarray, table: EntityTable
) -> np.ndarray:
    """Optimistic filtered ranks (B, a) of facts of one arity, exactly as float64 gives them.

    `kernels` (B*a, m*d) are the facts' contraction kernels (row ``i * a + p``
    is slot p of ``facts[i]``), so a query's score of entity e is
    ``kernels[q] . table.rows[e]``. A rank is 1 plus the number of entities
    scoring strictly above the true one, less the known-true entities
    filtered out of that query that do, where every score that decides a
    comparison is the float64 one (:func:`_row_dots`).

    The whole table is scored once in float32 and that screen decides every
    entity far from the true score t: above if its float32 score is above
    ``t + tol``, not above if below ``t - tol``. Only the band between is
    scored again in float64. ``tol`` bounds the float32 error. The inputs
    are rounded to float32 (two relative errors) and a K = m*d term dot
    product is summed in float32 in any order (Higham 2002, section 3.1), so
    with u = 2**-24, gamma_n = n*u / (1 - n*u) and g = kernels[q]:

        |s32_e - g . e| <= gamma_{K+2} * sum_k |g_k| |e_k| + abs_err
                        <= gamma_{K+2} * (|g| @ col_max)   + abs_err.

    ``abs_err = 4 * 2**-126 * (|g|_1 + |col_max|_1 + K)`` covers underflow:
    each conversion, product and sum loses at most 2**-126 absolutely, even
    where hardware flushes subnormals to zero. The tolerance uses
    gamma_{K+3}: the extra u * (|g| @ col_max) covers the float64 side,
    whose score error, t's error and the roundings of ``t +- tol`` and of
    ``|g| @ col_max`` are all below K * 2**-52 relative to that same scale.
    ``t +- tol`` is then rounded outward to float32. A row that could
    overflow float32 (``|g| @ col_max`` or an input at or above half the
    float32 maximum) gets an infinite ``tol``: its hi and lo are not finite
    float32s, and it is decided wholly in float64. So the screen never
    changes a comparison, and ties rank as they do in float64.

    Two counts per row find the rows to rescore: ``s32 > hi`` and
    ``s32 >= lo``. The true entity is always in its own band, so a band
    count of 1 needs no float64 work.
    """
    n_rows, width = kernels.shape
    ents = np.array([fact.entities for fact in facts], dtype=np.intp)
    arity = ents.shape[1]
    true = _row_dots(kernels, table.rows[ents.reshape(-1)])
    if not np.isfinite(true).all():
        q = int(np.flatnonzero(~np.isfinite(true))[0])
        fact = facts[q // arity]
        raise NumericError(
            f"non-finite score {true[q]} at slot {q % arity} of fact "
            f"{kb.vocab.relations[fact.relation][0]}"
            f"({', '.join(kb.vocab.entities[e] for e in fact.entities)})"
        )

    abs_k = np.abs(kernels)
    scale = abs_k @ table.col_max
    terms = width + 3
    gamma = terms * F32_UNIT / (1.0 - terms * F32_UNIT)
    tol = gamma * scale + 4.0 * F32_TINY * (abs_k.sum(axis=1) + table.col_max.sum() + width)
    # the largest magnitude a row's float32 product meets: from F32_LIMIT
    # up it could overflow, so the row is left to float64
    reach = np.maximum(np.maximum(scale, abs_k.max(axis=1)), table.col_max.max())
    tol[reach >= F32_LIMIT] = np.inf
    hi = _round_out(true + tol, up=True)
    lo = _round_out(true - tol, up=False)
    screened = np.isfinite(hi) & np.isfinite(lo)

    with np.errstate(over="ignore", invalid="ignore"):  # only in rows left to float64
        scores = kernels.astype(np.float32) @ table.rows32.T  # (B*a, n_entities)
    above = np.zeros(n_rows, dtype=np.intp)
    for q in range(n_rows):
        if screened[q]:
            row = scores[q]
            # per-row counts: count_nonzero(axis=) over the block is ~2x slower
            above[q] = np.count_nonzero(row > hi[q])
            if np.count_nonzero(row >= lo[q]) - above[q] <= 1:
                continue
            band = np.flatnonzero((row >= lo[q]) & (row <= hi[q]))
            above[q] += np.count_nonzero(_row_dots(kernels[q], table.rows[band]) > true[q])
        else:
            above[q] = np.count_nonzero(_row_dots(kernels[q], table.rows) > true[q])

    query, entity = kb.filtered_candidates(facts)
    known = scores[query, entity]
    known_above = known > hi[query]
    # in the band, or in a row decided in float64: there hi and lo are
    # infinite and a float32 score may be NaN, which `known < lo` leaves in
    recheck = ~known_above & ~(known < lo[query])
    q_re = query[recheck]
    known_above[recheck] = _row_dots(kernels[q_re], table.rows[entity[recheck]]) > true[q_re]
    above -= np.bincount(query[known_above], minlength=n_rows)
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
    """Filtered MRR / Hit@k over every position of every fact in a split.

    Raises NumericError if an entity's parameters or a query's true score
    are not finite: no rank is meaningful then.
    """
    facts = kb.split(split)
    if not facts:
        raise DataError(f"split {split!r} is empty")
    start = time.perf_counter()
    table = entity_table(params)
    ranks: list[tuple[int, int]] = []
    for lo in range(0, len(facts), EVAL_BATCH):
        batch = facts[lo : lo + EVAL_BATCH]
        for spec in split_groups(params, batch):
            group = [batch[i] for i in spec.fact_index]
            kernels = forward_group(params, spec).gather.reshape(spec.ents.size, -1)
            group_ranks = rank_from_scores(kb, group, kernels, table)
            ranks.extend((spec.arity, r) for r in group_ranks.ravel().tolist())
    return report_from_ranks(ranks, seconds=time.perf_counter() - start)
