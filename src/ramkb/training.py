"""Negative corruption, batch loss/gradients, Adam, and the training loop."""

from __future__ import annotations

import logging
import time
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import engine, pool
from .engine import (
    GradientBuffer,
    GroupKernels,
    GroupSpec,
    SampledCandidates,
    TableCandidates,
    backward_group,
    forward_group,
    group_losses,
    split_groups,
)
from .errors import ConfigError, NumericError
from .kb import Fact, KnowledgeBase
from .mathcore import make_rng
from .model import ModelConfig, ModelParams

log = logging.getLogger("ramkb.training")

_STREAM_SHUFFLE = 1
_STREAM_BATCH = 2

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# rows per lazy Adam block, the fastest of 64 to 2048 in a measurement: at
# m*d = 50 a block's gathered moments and temporaries (~200 kB each) stay in
# a 2 MB L2 cache
ADAM_BLOCK_ROWS = 512
# candidate scores (sum of B * a * C over a batch's arity groups) from which
# the groups are scored and pulled back on the thread pool. Full negatives
# over a few thousand entities are far above it; sampled batches (C = 51 at
# 64 facts: ~10k) stay below, where pooling them gained nothing
POOL_MIN_CELLS = 2**16


@dataclass
class TrainConfig:
    """Hyperparameters of one training run.

    `negatives` is either "full" (every other entity is a candidate) or an
    integer count of sampled corruptions per position.
    """

    batch_size: int = 64
    learning_rate: float = 0.003
    decay_rate: float = 0.995
    dropout: float = 0.2
    max_epochs: int = 200
    patience: int = 10
    eval_every: int = 5
    negatives: str | int = "full"
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("batch_size", "max_epochs", "patience", "eval_every"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if not 0 < self.learning_rate < float("inf"):
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not 0 < self.decay_rate <= 1:
            raise ConfigError("decay_rate must be in (0, 1]")
        if not 0 <= self.dropout < 1:
            raise ConfigError("dropout must be in [0, 1)")
        if isinstance(self.negatives, str):
            if self.negatives != "full":
                raise ConfigError(
                    f"negatives must be 'full' or an integer, got {self.negatives!r}"
                )
        elif self.negatives < 1:
            raise ConfigError("sampled negatives count must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")

    def to_dict(self) -> dict:
        return asdict(self)


def corrupt(
    true_ents: np.ndarray, n_entities: int, negatives: int, rng: np.random.Generator
) -> np.ndarray:
    """Sampled corruption candidates (..., n) for every slot of `true_ents`.

    Each slot gets a uniformly random set of n = min(negatives, n_entities - 1)
    distinct entities other than its true one, in ascending order. Candidates
    that happen to form true facts are not removed: the loss trains against
    all corruptions. Full negatives never come here; the engine scores them
    against the whole entity table.
    """
    others = n_entities - 1
    n = min(int(negatives), others)
    # draw with replacement and redraw repeats, which leaves every set equally
    # likely; past half the population the repeats would take ever more
    # rounds, so draw the set left out instead
    k = min(n, others - n)
    draw = np.sort(rng.integers(others, size=(true_ents.size, k)), axis=1)
    repeat = draw[:, 1:] == draw[:, :-1]
    while repeat.any():
        draw[:, 1:][repeat] = rng.integers(others, size=int(repeat.sum()))
        draw.sort(axis=1)
        repeat = draw[:, 1:] == draw[:, :-1]
    if k < n:
        kept = np.ones((true_ents.size, others), dtype=bool)
        np.put_along_axis(kept, draw, False, axis=1)
        draw = np.nonzero(kept)[1].reshape(-1, n)
    draw += draw >= true_ents.reshape(-1, 1)
    return draw.reshape(true_ents.shape + (n,))


def _group_candidates(
    params: ModelParams,
    spec: GroupSpec,
    negatives: str | int,
    rng: Optional[np.random.Generator],
) -> TableCandidates | SampledCandidates:
    """The group's candidate scorer: the whole entity table for full negatives,
    else sampled ids (B, a, 1 + n_neg) with column 0 the true entity, drawn
    at once from `rng`."""
    if negatives == "full":
        return TableCandidates(params, spec.ents)
    neg = corrupt(spec.ents, params.vocab.n_entities, negatives, rng)
    return SampledCandidates(params, np.concatenate([spec.ents[:, :, None], neg], axis=2))


def _group_masks(
    spec: GroupSpec,
    params: ModelParams,
    dropout: float,
    rng: Optional[np.random.Generator],
) -> Optional[np.ndarray]:
    """Inverted-dropout factors (B, T, a, d) for the pattern-weighted entity vectors.

    Entries are zeroed independently with probability `dropout`, drawn at
    once from `rng`, and the survivors are scaled by 1/(1-dropout), so the
    masked score is an unbiased estimate of the plain one. None when there is
    nothing to drop; evaluation never uses this.
    """
    if dropout == 0:
        return None
    cfg = params.cfg
    b, a = spec.ents.shape
    n_terms = a * cfg.role_multiplicity * cfg.patterns_per_role
    keep = rng.random((b, n_terms, a, cfg.embed_dim)) >= dropout
    return keep / (1.0 - dropout)


def _draw_and_forward(
    params: ModelParams,
    spec: GroupSpec,
    negatives: str | int,
    dropout: float,
    fact_rngs: Optional[list[np.random.Generator]],
) -> tuple[GroupKernels, TableCandidates | SampledCandidates]:
    """One arity group's kernels and candidate scorer.

    Candidates, then dropout masks, are drawn from the generator that
    `fact_rngs` holds for the group's first fact.
    """
    if fact_rngs is None and (negatives != "full" or dropout > 0):
        raise ConfigError("sampled negatives and dropout need one generator per fact")
    rng = None if fact_rngs is None else fact_rngs[spec.fact_index[0]]
    cand = _group_candidates(params, spec, negatives, rng)
    mask = _group_masks(spec, params, dropout, rng)
    return forward_group(params, spec, mask), cand


def _pull_group(
    kern: GroupKernels,
    cand: TableCandidates | SampledCandidates,
    scale: float,
    buf,
    losses_of,
    backward,
) -> np.ndarray:
    """Score one group, add its gradient, times `scale`, to `buf`; return its per-fact losses.

    `buf` is a GradientBuffer or a _GroupRecord. `losses_of` and `backward`
    are :func:`group_losses` and :func:`backward_group`, passed in so that
    the calling thread can use this module's names and a pool thread the
    engine's: a tracer that wraps this module's names then records spans on
    the calling thread only.
    """
    losses, grad = losses_of(cand.scores(kern.gather), cand.true_cols)
    grad *= scale
    backward(kern, cand.pullback(kern.gather, grad, buf), buf)
    return losses


class _GroupRecord:
    """The add, add_rows and add_all_rows calls a group makes on a gradient
    buffer, kept in order so that :meth:`replay` makes them on one later."""

    def __init__(self) -> None:
        self.calls: list[tuple[str, tuple]] = []

    def add(self, key, value) -> None:
        self.calls.append(("add", (key, value)))

    def add_rows(self, key, rows, values) -> None:
        self.calls.append(("add_rows", (key, rows, values)))

    def add_all_rows(self, key, values) -> None:
        self.calls.append(("add_all_rows", (key, values)))

    def replay(self, buf: GradientBuffer) -> None:
        for name, args in self.calls:
            getattr(buf, name)(*args)


def _candidate_cells(params: ModelParams, specs: list[GroupSpec], negatives: str | int) -> int:
    """Candidate scores of a batch: the sum of B * a * C over its groups."""
    n_entities = params.vocab.n_entities
    n_cand = n_entities if negatives == "full" else 1 + min(int(negatives), n_entities - 1)
    return sum(spec.ents.size for spec in specs) * n_cand


def _pooled_groups(
    params: ModelParams,
    specs: list[GroupSpec],
    negatives: str | int,
    dropout: float,
    fact_rngs: Optional[list[np.random.Generator]],
    scale: float,
    buf: GradientBuffer,
) -> list[np.ndarray]:
    """:func:`_pull_group` of every group, spread over the thread pool; the
    groups' per-fact losses in ascending arity order.

    The calling thread draws and forwards every group in ascending arity
    order and hands each to the pool as soon as it is forwarded. Then it
    pulls back itself, from the last group down, every group that no pool
    thread has started. Each group writes to a _GroupRecord of its own, and
    the records are replayed into `buf` in ascending arity order, so `buf`
    receives the serial loop's calls with the same values.
    """
    executor, jobs, futures = pool.executor(), [], []
    for spec in specs:
        kern, cand = _draw_and_forward(params, spec, negatives, dropout, fact_rngs)
        jobs.append((kern, cand, scale, _GroupRecord()))
        futures.append(executor.submit(_pull_group, *jobs[-1],
                                       engine.group_losses, engine.backward_group))
    losses: list[Optional[np.ndarray]] = [None] * len(jobs)
    for i in reversed(range(len(jobs))):
        if futures[i].cancel():
            losses[i] = _pull_group(*jobs[i], group_losses, backward_group)
    for i, (future, job) in enumerate(zip(futures, jobs)):
        if losses[i] is None:
            losses[i] = future.result()
        job[-1].replay(buf)
    return losses


def batch_loss(
    params: ModelParams,
    facts: list[Fact],
    negatives: str | int = "full",
    dropout: float = 0.0,
    fact_rngs: Optional[list[np.random.Generator]] = None,
) -> float:
    """Mean per-fact loss of a batch: what :func:`batch_backward` differentiates.

    Identically keyed generators give both the same candidates and masks.
    """
    total = 0.0
    for spec in split_groups(params, facts):
        kern, cand = _draw_and_forward(params, spec, negatives, dropout, fact_rngs)
        losses, _ = group_losses(cand.scores(kern.gather), cand.true_cols)
        total += float(losses.sum())
    return total / len(facts)


def batch_backward(
    params: ModelParams,
    facts: list[Fact],
    negatives: str | int = "full",
    dropout: float = 0.0,
    fact_rngs: Optional[list[np.random.Generator]] = None,
) -> tuple[float, GradientBuffer]:
    """Mean batch loss and its exact gradient for every learnable slot.

    A batch of at least POOL_MIN_CELLS candidate scores is spread over the
    thread pool (:func:`_pooled_groups`) when the pool has two workers or
    more; the loss and gradient are the same, bit for bit.
    """
    if not facts:
        raise ConfigError("empty batch")
    scale = 1.0 / len(facts)
    buf = GradientBuffer(params)
    specs = split_groups(params, facts)
    if pool.WORKERS > 1 and _candidate_cells(params, specs, negatives) >= POOL_MIN_CELLS:
        group_loss = _pooled_groups(params, specs, negatives, dropout, fact_rngs, scale, buf)
    else:
        # one group at a time: each group's arrays are freed before the next is scored
        group_loss = (
            _pull_group(*_draw_and_forward(params, spec, negatives, dropout, fact_rngs), scale, buf,
                        group_losses, backward_group)
            for spec in specs
        )
    total = 0.0
    for losses in group_loss:
        total += float(losses.sum())

    loss = total * scale
    if not np.isfinite(loss):
        raise NumericError(
            f"non-finite loss {loss} on batch of {len(facts)} facts; "
            f"first fact {facts[0]}; {_blame_slots(params)}"
        )
    return loss, buf


def _blame_slots(params: ModelParams) -> str:
    """Parameter norms of the slots holding a non-finite entry, or, when every
    entry is finite and so the loss overflowed, of the largest slot."""
    norms = {key: float(np.linalg.norm(value)) for key, value in params.data.items()}
    broken = {key: n for key, n in norms.items() if not np.isfinite(params.data[key]).all()}
    if broken:
        return f"parameter norms of the slots with non-finite entries {broken}"
    top = max(norms, key=norms.get)
    return f"every parameter is finite; largest of the parameter norms {top}: {norms[top]}"


class AdamState:
    """Per-slot first/second moments with per-slot (or per-row) step counts."""

    def __init__(self) -> None:
        self.m1: dict = {}
        self.m2: dict = {}
        self.steps: dict = {}

    def _ensure(self, key, template: np.ndarray, row_sparse: bool) -> None:
        if key not in self.m1:
            self.m1[key] = np.zeros_like(template)
            self.m2[key] = np.zeros_like(template)
            self.steps[key] = (
                np.zeros(template.shape[0], dtype=np.int64) if row_sparse else 0
            )


def _check_gradients(params: ModelParams, summed: list) -> None:
    """Raise NumericError on the first slot of `summed` (:meth:`GradientBuffer.summed`'s
    triples) whose gradient holds a non-finite entry, naming the slot and, for
    the entity table, the first entity with a non-finite row."""
    for key, rows, grad in summed:
        if np.isfinite(grad).all():
            continue
        where = ""
        if key == ("ent",):
            bad = int(np.flatnonzero(~np.isfinite(grad.reshape(len(grad), -1)).all(axis=1))[0])
            entity = bad if rows is None else int(rows[bad])
            where = f" at entity {params.vocab.entities[entity]!r} (row {entity})"
        raise NumericError(f"non-finite gradient in slot {key}{where}; no parameter was updated")


def optimizer_step(
    params: ModelParams, buf: GradientBuffer, state: AdamState, lr: float
) -> None:
    """Sparse Adam update over the slots the buffer's gradient touches.

    Every slot's summed gradient is checked first: if any entry is not
    finite, NumericError is raised before any parameter or Adam state
    changes.

    Row-sparse slots follow lazy Adam: only the touched rows advance their
    moments and their own step counts. The buffer sums their gradient into a
    compact block of those rows (:meth:`GradientBuffer.summed`), which is
    read in place, ADAM_BLOCK_ROWS rows at a time, so that each block's
    moments and temporaries stay in cache. The per-row bias corrections are
    computed once per slot. When the touched rows form one contiguous run,
    as every entity row does under full negatives, each block updates the
    moments and parameters through slice views; other rows are gathered
    into copies and written back. Every product and quotient keeps the
    operand order of the textbook form, so the update is bitwise
    deterministic and the same on either path.

    A run of two blocks or more is dealt out over the thread pool, one run
    of whole blocks per part (:func:`pool.in_parts`). Every element steps
    on its own, so the split changes no bit.
    """
    summed = list(buf.summed())
    _check_gradients(params, summed)
    for key, rows, grad in summed:
        target = params.data[key]
        state._ensure(key, target, rows is not None)
        m1, m2 = state.m1[key], state.m2[key]
        if rows is None:
            state.steps[key] += 1
            t = state.steps[key]
            m1 *= ADAM_BETA1
            m1 += (1 - ADAM_BETA1) * grad
            m2 *= ADAM_BETA2
            m2 += (1 - ADAM_BETA2) * grad * grad
            bc1 = 1 - ADAM_BETA1 ** t
            bc2 = 1 - ADAM_BETA2 ** t
            target -= lr * (m1 / bc1) / (np.sqrt(m2 / bc2) + ADAM_EPS)
            continue
        # rows ascend, so they are one run exactly when they span rows.size rows
        run = rows.size > 0 and rows[-1] - rows[0] + 1 == rows.size
        first = int(rows[0]) if run else 0
        touched = slice(first, first + rows.size) if run else rows
        state.steps[key][touched] += 1
        t = state.steps[key][touched].reshape(rows.shape + (1,) * (target.ndim - 1))
        bc1 = 1 - ADAM_BETA1 ** t
        bc2 = 1 - ADAM_BETA2 ** t
        n_blocks = -(-rows.size // ADAM_BLOCK_ROWS)
        # a run's blocks are dealt out in parts, runs of whole blocks; every
        # part's two temporaries, reused by each of its blocks, are made here
        n_parts = min(pool.WORKERS, n_blocks) if run else 1
        cuts = [n_blocks * i // n_parts * ADAM_BLOCK_ROWS for i in range(n_parts + 1)]
        works = [np.empty((2, min(rows.size, ADAM_BLOCK_ROWS)) + grad.shape[1:])
                 for _ in range(n_parts)]

        def step(part: int) -> None:
            for lo in range(cuts[part], cuts[part + 1], ADAM_BLOCK_ROWS):
                block = slice(lo, lo + ADAM_BLOCK_ROWS)
                g = grad[block]
                tmp, den = works[part][:, : len(g)]
                # a slice gives views into the state, row indices give copies
                r = slice(first + lo, first + lo + len(g)) if run else rows[block]
                mu, nu = m1[r], m2[r]
                mu *= ADAM_BETA1
                nu *= ADAM_BETA2
                np.multiply(1 - ADAM_BETA2, g, out=tmp)
                tmp *= g
                nu += tmp
                np.multiply(g, 1 - ADAM_BETA1, out=tmp)
                mu += tmp
                if not run:
                    # write the copies back; the step may then overwrite them
                    m1[r], m2[r] = mu, nu
                    tmp, den = mu, nu
                np.divide(mu, bc1[block], out=tmp)
                tmp *= lr
                np.divide(nu, bc2[block], out=den)
                np.sqrt(den, out=den)
                den += ADAM_EPS
                tmp /= den
                # on a slice, numpy skips the write-back of the updated view
                target[r] -= tmp

        pool.in_parts(step, n_parts)


@dataclass
class TraceRow:
    epoch: int
    seconds: float
    train_loss: float
    valid_mrr: Optional[float]


@dataclass
class TrainResult:
    params: ModelParams
    trace: list[TraceRow]
    best_valid_mrr: Optional[float]


def train(kb: KnowledgeBase, model_cfg: ModelConfig, train_cfg: TrainConfig) -> TrainResult:
    """Mini-batch training with per-epoch decay and early stopping.

    Facts are reshuffled every epoch; every `eval_every` epochs the filtered
    MRR on the validation split is measured, the best-scoring parameters are
    kept, and training stops after `patience` evaluations without
    improvement. The returned trace has one row per epoch, and each epoch
    logs one INFO line on the ``ramkb.training`` logger.

    The same data, configs and seed give bitwise-identical parameters,
    losses and validation MRRs on the same numpy and BLAS build with the
    same BLAS thread count: initialization, shuffles, corruptions and
    dropout masks all draw from generators keyed by the seed (`make_rng`).
    Each batch has one generator, keyed by (seed, epoch, batch index); its
    arity groups draw from it in ascending arity order, each group drawing
    its candidates before its dropout masks. The bits do not depend on the
    CPU count or the thread pool (:func:`batch_backward`,
    :func:`optimizer_step`), but they do depend on the BLAS thread count,
    which orders the sums of a product.
    """
    from .evaluation import evaluate  # local import to avoid a cycle

    if not kb.train:
        raise ConfigError("cannot train on an empty training split")
    params = ModelParams.init(model_cfg, kb.vocab, seed=train_cfg.seed)
    state = AdamState()
    lr = train_cfg.learning_rate

    best_params = params
    best_mrr: Optional[float] = None
    evals_since_best = 0
    trace: list[TraceRow] = []
    start = time.perf_counter()
    facts = list(kb.train)

    for epoch in range(train_cfg.max_epochs):
        order = make_rng(train_cfg.seed, _STREAM_SHUFFLE, epoch).permutation(len(facts))
        epoch_loss = 0.0
        for n_batch, lo in enumerate(range(0, len(order), train_cfg.batch_size)):
            batch = [facts[i] for i in order[lo : lo + train_cfg.batch_size]]
            rngs = [make_rng(train_cfg.seed, _STREAM_BATCH, epoch, n_batch)] * len(batch)
            loss, buf = batch_backward(
                params, batch, train_cfg.negatives, train_cfg.dropout, fact_rngs=rngs
            )
            optimizer_step(params, buf, state, lr)
            epoch_loss += loss * len(batch)
        epoch_loss /= len(facts)
        lr *= train_cfg.decay_rate

        valid_mrr: Optional[float] = None
        if kb.valid and (epoch + 1) % train_cfg.eval_every == 0:
            report = evaluate(params, kb, split="valid")
            valid_mrr = report.mrr
            if best_mrr is None or valid_mrr > best_mrr:
                best_mrr = valid_mrr
                best_params = params.copy()
                evals_since_best = 0
            else:
                evals_since_best += 1
        trace.append(
            TraceRow(epoch + 1, time.perf_counter() - start, epoch_loss, valid_mrr)
        )
        log.info(
            "epoch %d: loss %.6f%s",
            epoch + 1,
            epoch_loss,
            f", valid MRR {valid_mrr:.4f}" if valid_mrr is not None else "",
        )
        if valid_mrr is not None and evals_since_best >= train_cfg.patience:
            log.info("early stop at epoch %d (best valid MRR %.4f)", epoch + 1, best_mrr)
            break

    return TrainResult(best_params, trace, best_mrr)


def write_trace_csv(trace: list[TraceRow], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,seconds,train_loss,valid_mrr\n")
        for row in trace:
            mrr = "" if row.valid_mrr is None else repr(row.valid_mrr)
            fh.write(f"{row.epoch},{row.seconds:.3f},{row.train_loss!r},{mrr}\n")
