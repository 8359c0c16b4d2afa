"""Filtered link-prediction ranking: MRR and Hit@k with per-arity breakdown.

Each batch of EVAL_BATCH facts is ranked in one call
(:func:`rank_from_scores`), all arities together: the contraction kernels
of every (fact, slot) query are stacked and the entity table is walked
once, in blocks of at most SCORE_BLOCK_CELLS float32 scores. That screen
decides every entity whose float32 score lies outside a proven error band
around the true score, and is counted per block with no loop over queries.
Only the entities inside the band, and the filtered known-true entities,
are scored again in float64. So the ranks are those of float64 scores,
ties included, while the table-wide product runs at float32 speed and no
(queries, n_entities) score matrix is held. The bound and its derivation
are in :func:`rank_from_scores`'s docstring; training, gradcheck and the
oracles score in float64 only.

The walk is split by entity range over the package's thread pool
(:mod:`ramkb.pool`), one run of whole blocks per CPU the process may use,
when BLAS runs one thread and the table spans two blocks or more; otherwise
it runs on the calling thread. Either way the ranks are the same, bit for
bit, whatever the CPU count: the counts are integers and the parts walk the
serial walk's blocks.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from . import pool
from .engine import forward_group, split_groups
from .errors import DataError, NumericError
from .kb import Fact, KnowledgeBase
from .model import ModelParams

HIT_LEVELS = (1, 3, 10)
EVAL_BATCH = 512  # facts ranked per rank_from_scores call, all arities together
# float32 (entity, query) scores per block of the table walk: 2 MB. Each
# part of the walk holds one block plus two (COUNT_CHUNK, n_queries) bool
# compares, so the walk holds at most pool.WORKERS times that, all allocated
# on the calling thread: buffers made on pool threads raised peak RSS
SCORE_BLOCK_CELLS = 2**19
COUNT_CHUNK = 255  # entities per uint8 count: the most a uint8 holds
ROWS_PER_REDUCE = 32  # table rows per inner loop of entity_table's column extremes
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
    col_max = _column_abs_max(rows)
    if not np.isfinite(col_max).all():
        bad = int(np.flatnonzero(~np.isfinite(rows).all(axis=1))[0])
        raise NumericError(
            f"entity {params.vocab.entities[bad]!r} has non-finite parameters; "
            f"its block is {ent[bad].tolist()}"
        )
    return EntityTable(rows, rows.astype(np.float32), col_max)


def _column_abs_max(rows: np.ndarray) -> np.ndarray:
    """``np.abs(rows).max(axis=0)``, bit for bit, without a table-sized temporary.

    A column's largest magnitude is that of its maximum or of its minimum.
    Both are reduced over ROWS_PER_REDUCE rows side by side, so numpy's
    inner loops run over that many rows' columns, not over one row's.
    """
    n_rows, width = rows.shape
    whole = n_rows - n_rows % ROWS_PER_REDUCE
    wide = rows[:whole].reshape(-1, ROWS_PER_REDUCE * width)
    top = wide.max(axis=0, initial=-np.inf).reshape(-1, width).max(axis=0)
    bottom = wide.min(axis=0, initial=np.inf).reshape(-1, width).min(axis=0)
    if whole < n_rows:
        top = np.maximum(top, rows[whole:].max(axis=0))
        bottom = np.minimum(bottom, rows[whole:].min(axis=0))
    return np.maximum(np.abs(top), np.abs(bottom))


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


def _screen(
    table: EntityTable, kernels32: np.ndarray, hi: np.ndarray, lo: np.ndarray,
    own: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Walk the table in blocks of SCORE_BLOCK_CELLS float32 scores.

    Returns each query's count of entities whose float32 score is above its
    `hi`, and the (query, entity) pairs inside its band ``[lo, hi]`` other
    than the query's own entity `own`, in entity order.

    The blocks are dealt out in at most pool.WORKERS parts, runs of whole
    blocks, and the calling thread walks the first part while the pool walks
    the others. Every part walks the blocks and chunks the serial walk
    would, so its pairs are the serial walk's over its range, and the parts'
    pairs joined in order are the serial ones.
    """
    n_entities = table.rows32.shape[0]
    n_rows = kernels32.shape[0]
    block = min(n_entities, max(1, SCORE_BLOCK_CELLS // n_rows))
    n_blocks = -(-n_entities // block)
    n_parts = min(pool.WORKERS, n_blocks)
    cuts = [min(n_entities, n_blocks * i // n_parts * block) for i in range(n_parts + 1)]
    # every buffer of the walk is made here, on the calling thread, and each
    # part's apart, so none outgrows the serial walk's (glibc's mmap
    # threshold rises to the largest block freed). One (block, n_rows)
    # buffer per part: a fresh product per block would briefly hold two
    # blocks, the previous one until the new one is assigned
    above = np.zeros((n_parts, n_rows), dtype=np.intp)
    buffers = [
        (np.empty((block, n_rows), dtype=np.float32),
         np.empty((COUNT_CHUNK, n_rows), dtype=bool),
         np.empty((COUNT_CHUNK, n_rows), dtype=bool),
         np.empty((2, n_rows), dtype=np.uint8))
        for _ in range(n_parts)
    ]

    def walk(part: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
        band_q, band_e = [], []
        product, over_buf, reach_buf, (n_over, n_band) = buffers[part]
        # numpy's error state is per thread: rows left to float64 overflow here
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(cuts[part], cuts[part + 1], block):
                rows32 = table.rows32[start : start + block]
                scores = np.matmul(rows32, kernels32.T, out=product[: len(rows32)])
                for offset in range(0, len(scores), COUNT_CHUNK):
                    chunk = scores[offset : offset + COUNT_CHUNK]
                    first = start + offset  # the chunk's first entity
                    over = np.greater(chunk, hi, out=over_buf[: len(chunk)])
                    reach = np.greater_equal(chunk, lo, out=reach_buf[: len(chunk)])
                    over.view(np.uint8).sum(axis=0, dtype=np.uint8, out=n_over)
                    above[part] += n_over
                    reach.view(np.uint8).sum(axis=0, dtype=np.uint8, out=n_band)
                    n_band -= n_over
                    # the own entity is in its row's band: look only at rows with more
                    mine = (own >= first) & (own < first + len(chunk))
                    rows = np.flatnonzero(n_band > mine)
                    if rows.size:
                        ent, col = np.nonzero(reach[:, rows] & ~over[:, rows])
                        query, ent = rows[col], ent + first
                        keep = ent != own[query]
                        band_q.append(query[keep])
                        band_e.append(ent[keep])
        return band_q, band_e

    found = pool.in_parts(walk, n_parts)
    empty = [np.zeros(0, dtype=np.intp)]
    band_q = np.concatenate([q for part_q, _ in found for q in part_q] or empty)
    band_e = np.concatenate([e for _, part_e in found for e in part_e] or empty)
    return above.sum(axis=0), band_q, band_e


def rank_from_scores(
    kb: KnowledgeBase, facts: list[Fact], kernels: np.ndarray, table: EntityTable
) -> np.ndarray:
    """Optimistic filtered ranks (n_queries,) of facts of any arities, as float64 gives them.

    Fact i's queries are rows ``start_i + p`` of `kernels` (n_queries, m*d),
    one per slot p, where ``start_i`` sums the arities of the facts before
    it; so a query's score of entity e is ``kernels[q] . table.rows[e]``. A
    rank is 1 plus the number of entities scoring strictly above the true
    one, less the known-true entities filtered out of that query that do,
    where every score that decides a comparison is the float64 one
    (:func:`_row_dots`).

    The table is walked once in blocks of at most SCORE_BLOCK_CELLS float32
    scores, and that screen decides every entity far from the true score t:
    above if its float32 score is above ``t + tol``, not above if below
    ``t - tol``. The entities inside the band between, and every filtered
    entity, are scored again in float64. ``tol`` bounds the float32 error.
    The inputs are rounded to float32 (two relative errors) and a K = m*d
    term dot product is summed in float32 in any order (Higham 2002,
    section 3.1), so with u = 2**-24, gamma_n = n*u / (1 - n*u) and
    g = kernels[q]:

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
    float32 maximum) gets an infinite ``tol``: it is left out of the screen
    and decided wholly in float64. So the screen never changes a
    comparison, and ties rank as they do in float64.

    Each block's ``s32 > hi`` and ``s32 >= lo`` are counted per query in
    uint8 sums over at most COUNT_CHUNK entities. The true entity is always
    in its own band, so only a query whose band count in a chunk exceeds
    that is searched for band members.

    When BLAS runs one thread and the table spans two blocks or more, the
    walk is split into one run of whole blocks per CPU the process may use
    (:func:`_screen`), walked at once on a thread pool. The walk then holds
    one block and two (COUNT_CHUNK, n_queries) bool buffers per part. The
    ranks do not depend on the CPU count: the counts are exact integer
    sums, and the band pairs come out in the serial walk's order.
    """
    arity = np.array([fact.arity for fact in facts], dtype=np.intp)
    starts = np.cumsum(arity) - arity
    ents = np.array([e for fact in facts for e in fact.entities], dtype=np.intp)
    true = _row_dots(kernels, table.rows[ents])
    if not np.isfinite(true).all():
        q = int(np.flatnonzero(~np.isfinite(true))[0])
        i = int(np.searchsorted(starts, q, side="right")) - 1
        fact = facts[i]
        raise NumericError(
            f"non-finite score {true[q]} at slot {q - starts[i]} of fact "
            f"{kb.vocab.relations[fact.relation][0]}"
            f"({', '.join(kb.vocab.entities[e] for e in fact.entities)})"
        )

    width = kernels.shape[1]
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
    unscreened = np.flatnonzero(~(np.isfinite(hi) & np.isfinite(lo)))
    hi[unscreened] = lo[unscreened] = np.nan  # any comparison with NaN is false: they count nothing

    with np.errstate(over="ignore", invalid="ignore"):  # only in rows left to float64
        above, band_q, band_e = _screen(table, kernels.astype(np.float32), hi, lo, ents)
    for q in unscreened:
        above[q] = np.count_nonzero(_row_dots(kernels[q], table.rows) > true[q])
    band_above = _row_dots(kernels[band_q], table.rows[band_e]) > true[band_q]
    above += np.bincount(band_q[band_above], minlength=above.size)

    query, entity = kb.filtered_candidates(facts)
    known_above = _row_dots(kernels[query], table.rows[entity]) > true[query]
    above -= np.bincount(query[known_above], minlength=above.size)
    return 1 + above


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
        specs = split_groups(params, batch)
        kernels = np.concatenate(
            [forward_group(params, spec).gather.reshape(spec.ents.size, -1) for spec in specs]
        )
        ordered = [batch[i] for spec in specs for i in spec.fact_index]
        arity = np.repeat([spec.arity for spec in specs], [spec.ents.size for spec in specs])
        ranks.extend(zip(arity.tolist(), rank_from_scores(kb, ordered, kernels, table).tolist()))
    return report_from_ranks(ranks, seconds=time.perf_counter() - start)
