"""Filtered link-prediction ranking: MRR and Hit@k with per-arity breakdown.

A query is one slot of one fact. Among its candidates, every entity but
the known-true ones filtered out (Bordes et al., NIPS 2013), let A score
strictly above the true entity and E other entities score exactly as it
does. The query counts its reciprocal rank and Hit@k as expected under a
uniformly random tie-break (Sun et al., ACL 2020; Berrendorf et al., 2020):

    RR = (H(A+E+1) - H(A)) / (E+1),    Hit@k = min(1, max(0, (k-A) / (E+1))),

where H is the harmonic number; with no tie they are ``1 / (A+1)`` and
``A < k``. So a model that scores every entity alike ranks no better than
chance, rather than first. :class:`EvalReport` counts the ties.

Each batch of EVAL_BATCH facts is ranked in one call
(:func:`rank_from_scores`), all arities together. The batch, a slice of
the split's ``kb.Facts`` arrays, is read once into its arity groups
(``kb.split_groups``), and a query is one (fact,
slot) row of them: the contraction kernels of every query are stacked in
the groups' row order, group by group in ascending arity, fact by fact,
slot by slot, and the own entities, the non-candidates and the ranks
follow that order. A query's non-candidates, its own entity and the
known-true ones, are decided once, by ``KnowledgeBase.filtered_candidates``,
and masked out of the walk: no candidate is counted that must later be
subtracted. The entity table is walked once, in blocks of at most
SCORE_BLOCK_CELLS float32 scores. That screen decides every candidate
whose float32 score lies outside a proven error band around the true
score, and is counted per block with no loop over queries. The walk
scores the candidates inside the band again in float64, chunk by chunk,
where it meets them; a row that could overflow float32 has an infinite
band, so all its candidates are scored so. Every candidate is thus
decided in one place, A and E are those of float64 scores, the
table-wide product runs at float32 speed, and no (queries, n_entities)
score matrix is held. The bound and its derivation are in
:func:`rank_from_scores`'s docstring; training, gradcheck and the oracles
score in float64 only. :func:`report_from_ranks` then aggregates the
split's (arity, rank, ties) arrays in numpy.

The walk is split by entity range over the package's thread pool
(:mod:`ramkb.pool`), one run of whole blocks per CPU the process may use,
when BLAS runs one thread and the table spans two blocks or more; otherwise
it runs on the calling thread. Either way the ranks are the same, bit for
bit, whatever the CPU count: the counts are integers and the parts walk the
serial walk's blocks and chunks, each rescoring its own band.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import pool
from .engine import forward_group
from .errors import DataError, NumericError
from .kb import GroupSpec, KnowledgeBase, split_groups
from .model import ModelParams

HIT_LEVELS = (1, 3, 10)
EVAL_BATCH = 512  # facts ranked per rank_from_scores call, all arities together
# float32 (entity, query) scores per block of the table walk: 2 MB. Each
# part of the walk holds one block, two (COUNT_CHUNK, n_queries) bool
# compares and one rescoring buffer (BAND_SLICE), so the walk holds at most
# pool.WORKERS times that, all allocated on the calling thread: buffers made
# on pool threads raised peak RSS
SCORE_BLOCK_CELLS = 2**19
COUNT_CHUNK = 255  # entities per uint8 count: the most a uint8 holds
# (query, entity) pairs per float64 rescoring product: a chunk's band is
# rescored BAND_SLICE // COUNT_CHUNK queries at a time into one (32, 255,
# m*d) buffer per part, so a collapsed table, all band, stays in bounded
# memory; a fresh product per slice faulted its pages in anew (1.4M minor
# faults ranking an all-zero 3k-entity table)
BAND_SLICE = 2**13
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
    ties: int  # candidates that score exactly a true score, summed over queries
    seconds: float

    def to_dict(self) -> dict:
        return {
            "mrr": self.mrr,
            "hits": {str(k): v for k, v in self.hits.items()},
            "n_queries": self.n_queries,
            "ties": self.ties,
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
        rows.append(f"{'ties':8}{self.ties:8d}")
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


def _row_dots(kernels: np.ndarray, rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """float64 scores ``kernels[i] . rows[i]`` (broadcast on the leading axes).

    Each score is one pairwise sum over its own contiguous row of products,
    held in `out` if given (C-contiguous, of the broadcast shape), so a
    (kernel, entity) pair gets the same bits whichever batch it is in.
    """
    return np.multiply(kernels, rows, out=out).sum(axis=-1)


def _round_out(x: np.ndarray, up: bool) -> np.ndarray:
    """`x` rounded to float32 away from the band's centre: up, or else down."""
    y = x.astype(np.float32)
    inward = y < x if up else y > x
    return np.where(inward, np.nextafter(y, np.float32(np.inf if up else -np.inf)), y)


def _screen(
    table: EntityTable, kernels: np.ndarray, true: np.ndarray, hi: np.ndarray, lo: np.ndarray,
    query: np.ndarray, entity: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Each query's count of candidates above its true score, and of ties.

    The table is walked in blocks of SCORE_BLOCK_CELLS float32 scores.
    (`query`, `entity`) are the non-candidate pairs, in entity order
    (:meth:`KnowledgeBase.filtered_candidates`). Each block's pairs are
    found with one ``searchsorted`` and their float32 scores set to NaN
    before the compares: a comparison with NaN is false, so a non-candidate
    counts neither above its query's `hi` nor in its band ``[lo, hi]``.
    A blind row, one whose band is infinite (``hi = +inf``, ``lo = -inf``),
    has its float32 product zeroed first, as it may hold NaN or inf: all its
    candidates, and none of its non-candidates, then fall in its band.

    Per COUNT_CHUNK chunk of entities, a candidate above `hi` counts as
    above. The queries whose band holds a candidate in the chunk are taken
    BAND_SLICE // COUNT_CHUNK at a time, and each scores in float64
    (:func:`_row_dots`) every entity of the chunk that lies in some of
    their bands; among its own band candidates those above `true` count as
    above, those equal to it as ties. No band pair outlives its chunk.

    The blocks are dealt out in at most pool.WORKERS parts, runs of whole
    blocks, which the pool walks (:func:`pool.in_parts`); the calling thread
    walks each part no pool thread has started. Every part walks the blocks
    and chunks the serial walk would and its counts are integers, so their
    sums are the serial walk's.
    """
    n_entities = table.rows32.shape[0]
    n_rows = kernels.shape[0]
    with np.errstate(over="ignore"):  # a blind row's kernel may exceed float32
        kernels32 = kernels.astype(np.float32)
    blind = np.flatnonzero(hi == np.inf)
    per_slice = BAND_SLICE // COUNT_CHUNK
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
    ties = np.zeros((n_parts, n_rows), dtype=np.intp)
    buffers = [
        (np.empty((block, n_rows), dtype=np.float32),
         np.empty((COUNT_CHUNK, n_rows), dtype=bool),
         np.empty((COUNT_CHUNK, n_rows), dtype=bool),
         np.empty((2, n_rows), dtype=np.uint8),
         np.empty(per_slice * COUNT_CHUNK * kernels.shape[1]))
        for _ in range(n_parts)
    ]

    def walk(part: int) -> None:
        product, over_buf, reach_buf, (n_over, n_band), products = buffers[part]
        # numpy's error state is per thread: blind rows overflow here
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(cuts[part], cuts[part + 1], block):
                rows32 = table.rows32[start : start + block]
                scores = np.matmul(rows32, kernels32.T, out=product[: len(rows32)])
                if blind.size:  # zeroed before the non-candidates' NaNs are written
                    scores[:, blind] = 0.0
                pairs = slice(*np.searchsorted(entity, [start, start + len(rows32)]))
                scores[entity[pairs] - start, query[pairs]] = np.nan
                for offset in range(0, len(scores), COUNT_CHUNK):
                    chunk = scores[offset : offset + COUNT_CHUNK]
                    over = np.greater(chunk, hi, out=over_buf[: len(chunk)])
                    reach = np.greater_equal(chunk, lo, out=reach_buf[: len(chunk)])
                    over.view(np.uint8).sum(axis=0, dtype=np.uint8, out=n_over)
                    above[part] += n_over
                    reach.view(np.uint8).sum(axis=0, dtype=np.uint8, out=n_band)
                    n_band -= n_over
                    rows = np.flatnonzero(n_band)
                    for first in range(0, rows.size, per_slice):
                        q = rows[first : first + per_slice]
                        band = reach[:, q] ^ over[:, q]  # hi >= lo: over lies within reach
                        met = np.flatnonzero(band.any(axis=1))  # entities in some band
                        entities = table.rows[start + offset + met]
                        out = products[: q.size * entities.size].reshape(q.size, *entities.shape)
                        exact = _row_dots(kernels[q][:, None, :], entities, out=out).T
                        band = band[met]
                        above[part, q] += (band & (exact > true[q])).sum(axis=0)
                        ties[part, q] += (band & (exact == true[q])).sum(axis=0)

    pool.in_parts(walk, n_parts)
    return above.sum(axis=0), ties.sum(axis=0)


def rank_from_scores(
    kb: KnowledgeBase, groups: list[GroupSpec], kernels: np.ndarray, table: EntityTable,
) -> tuple[np.ndarray, np.ndarray]:
    """Filtered ranks and tie counts (n_queries,) of arity groups' queries, as float64 gives them.

    A query is one (fact, slot) row of `groups` (:func:`split_groups`), in
    their stacked row order: group by group, fact by fact, slot by slot.
    Row q of `kernels` (n_queries, m*d) is query q's kernel, and its own
    entity is the one its fact holds at its slot. So a query's score of
    entity e is ``kernels[q] . table.rows[e]``, and its true score is that
    of its own entity. Its candidates are every entity but its
    non-candidates, its own entity and the known-true ones
    (:meth:`KnowledgeBase.filtered_candidates`), which are taken out before
    anything is counted: nothing is subtracted afterwards. Returns the
    optimistic ranks, 1 plus the number of candidates scoring strictly
    above the true score, and the ties, the number of candidates scoring
    exactly the true score; every score that decides a comparison is the
    float64 one (:func:`_row_dots`). `groups` also give the fact named when
    a true score is not finite.

    The table is walked once in blocks of at most SCORE_BLOCK_CELLS float32
    scores, each block's non-candidates masked (:func:`_screen`), and that
    screen decides every candidate far from the true score t: above if its
    float32 score is above ``t + tol``, not above if below ``t - tol``. The
    candidates inside the band between are scored again in float64 within
    the walk. ``tol`` bounds the float32 error.
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
    float32 maximum) gets an infinite ``tol``: a blind row, whose every
    candidate lies in its band. So the screen never changes a comparison. A
    candidate that ties t in float64 lies inside the band, so the float64
    rescoring counts ``== t`` beside ``> t``.

    Each chunk's ``s32 > hi`` and ``s32 >= lo`` are counted per query in
    uint8 sums over at most COUNT_CHUNK entities, so only a query with a
    band candidate in a chunk is rescored there. The rescoring's float64
    products span BAND_SLICE scores' worth of (query, entity) pairs, so the
    walk's memory stays bounded even when every score ties, and no array is
    built per non-candidate pair beyond the index pairs themselves.

    When BLAS runs one thread and the table spans two blocks or more, the
    walk is split into one run of whole blocks per CPU the process may use
    (:func:`_screen`), walked at once on a thread pool, each part rescoring
    its own band. The walk then holds one block, two (COUNT_CHUNK,
    n_queries) bool buffers and one rescoring buffer per part. The ranks do
    not depend on the CPU count: the counts are exact integer sums.
    """
    own = np.concatenate([spec.ents.reshape(-1) for spec in groups])
    true = _row_dots(kernels, table.rows[own])
    if not np.isfinite(true).all():
        q = int(np.flatnonzero(~np.isfinite(true))[0])
        spec = next(spec for spec in groups if q < spec.rows.stop)
        i, slot = divmod(q - spec.rows.start, spec.arity)
        raise NumericError(
            f"non-finite score {true[q]} at slot {slot} of fact "
            f"{kb.vocab.fact_name(spec.rels[i], spec.ents[i])}"
        )

    width = kernels.shape[1]
    abs_k = np.abs(kernels)
    scale = abs_k @ table.col_max
    terms = width + 3
    gamma = terms * F32_UNIT / (1.0 - terms * F32_UNIT)
    tol = gamma * scale + 4.0 * F32_TINY * (abs_k.sum(axis=1) + table.col_max.sum() + width)
    # the largest magnitude a row's float32 product meets: from F32_LIMIT
    # up it could overflow, so the row is blind
    reach = np.maximum(np.maximum(scale, abs_k.max(axis=1)), table.col_max.max())
    tol[reach >= F32_LIMIT] = np.inf
    hi = _round_out(true + tol, up=True)
    lo = _round_out(true - tol, up=False)
    blind = ~(np.isfinite(hi) & np.isfinite(lo))
    hi[blind], lo[blind] = np.inf, -np.inf

    query, entity = kb.filtered_candidates(groups)
    above, ties = _screen(table, kernels, true, hi, lo, query, entity)
    return 1 + above, ties


def report_from_ranks(
    arity: np.ndarray, ranks: np.ndarray, ties: np.ndarray, seconds: float = 0.0
) -> EvalReport:
    """Aggregate per-query arities, optimistic ranks (1 + A) and ties (E) into a report.

    A query's reciprocal rank and Hit@k are their expectations under a
    uniformly random tie-break (module docstring); with no tie they are
    ``1.0 / rank`` and ``rank <= k`` exactly. The overall means sum the
    arities in the order they are first met, each arity's queries in their
    given order, so a report equals that of the same ranks aggregated
    arity by arity.
    """
    if ranks.size == 0:
        raise DataError("no queries to aggregate")
    # one row per measure: the reciprocal rank, then Hit@k for each k
    values = np.empty((1 + len(HIT_LEVELS), ranks.size))
    np.divide(1.0, ranks, out=values[0])
    for q in np.flatnonzero(ties):
        values[0, q] = (1.0 / np.arange(ranks[q], ranks[q] + ties[q] + 1)).mean()
    for row, k in enumerate(HIT_LEVELS, start=1):
        np.clip((k + 1 - ranks) / (ties + 1), 0.0, 1.0, out=values[row])

    def stats(select: np.ndarray) -> tuple[float, dict[int, float]]:
        # a C-contiguous take: each row is summed pairwise in `select` order,
        # as its own 1-d array would be (values[:, select] is not contiguous)
        mrr, *hits = np.take(values, select, axis=1).mean(axis=1).tolist()
        return mrr, dict(zip(HIT_LEVELS, hits))

    arities, first, group = np.unique(arity, return_index=True, return_inverse=True)
    mrr, hits = stats(np.argsort(first[group], kind="stable"))
    per_arity = {}
    for i, a in enumerate(arities.tolist()):
        select = np.flatnonzero(group == i)
        a_mrr, a_hits = stats(select)
        per_arity[a] = ArityStats(a_mrr, a_hits, int(select.size))
    return EvalReport(mrr, hits, per_arity, int(ranks.size), int(ties.sum()), seconds)


def evaluate(params: ModelParams, kb: KnowledgeBase, split: str = "test") -> EvalReport:
    """Filtered MRR / Hit@k over every position of every fact in a split.

    Each batch's queries are the (fact, slot) rows of its arity groups, in
    their stacked row order: their kernels, own entities, non-candidates
    and arities all come from the groups.

    Raises NumericError if an entity's parameters or a query's true score
    are not finite: no rank is meaningful then.
    """
    facts = kb.split(split)
    if not facts:
        raise DataError(f"split {split!r} is empty")
    start = time.perf_counter()
    table = entity_table(params)
    arity, ranks, ties = [], [], []
    for lo in range(0, len(facts), EVAL_BATCH):
        groups = split_groups(params.vocab, facts[lo : lo + EVAL_BATCH])
        kernels = np.concatenate(
            [forward_group(params, spec).gather.reshape(spec.ents.size, -1) for spec in groups]
        )
        batch_ranks, batch_ties = rank_from_scores(kb, groups, kernels, table)
        arity.append(np.repeat([spec.arity for spec in groups], [spec.ents.size for spec in groups]))
        ranks.append(batch_ranks)
        ties.append(batch_ties)
    return report_from_ranks(
        np.concatenate(arity), np.concatenate(ranks), np.concatenate(ties),
        seconds=time.perf_counter() - start,
    )
