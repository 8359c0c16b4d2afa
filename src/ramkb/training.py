"""Negative corruption, batch loss/gradients, Adam, and the training loop."""

from __future__ import annotations

import logging
import time
from dataclasses import asdict, dataclass
from functools import partial
from typing import Callable, Iterator, Optional

import numpy as np

from . import engine, evaluation, pool
from .engine import (
    GradientBuffer,
    GroupKernels,
    SampledCandidates,
    TableCandidates,
    backward_group,
    forward_group,
    group_losses,
)
from .errors import ConfigError, NumericError
from .kb import Facts, GroupSpec, KnowledgeBase, split_groups
from .mathcore import make_rng
from .model import ModelConfig, ModelParams, require_counts

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
# stacked (fact, slot) kernel rows per candidate job. A batch's rows are cut
# at fixed multiples of it, so every job runs the same numpy calls at any CPU
# count. Of 16, 32, 64 and 200, a planted3k full-negative batch took 6.08,
# 5.55, 5.58 and 6.76 ms on a 2-vCPU VM (medians of 5 runs)
CHUNK_ROWS = 32


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
    eval_every: int = 1
    negatives: str | int = "full"
    seed: int = 0

    def __post_init__(self) -> None:
        require_counts(self, ("batch_size", "max_epochs", "patience", "eval_every"))
        require_counts(self, ("seed",), least=0)
        if not 0 < self.learning_rate < float("inf"):
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not 0 < self.decay_rate <= 1:
            raise ConfigError("decay_rate must be in (0, 1]")
        if not 0 <= self.dropout < 1:
            raise ConfigError("dropout must be in [0, 1)")
        if not isinstance(self.negatives, str):
            require_counts(self, ("negatives",))
        elif self.negatives != "full":
            raise ConfigError(f"negatives must be 'full' or an integer, got {self.negatives!r}")

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
) -> np.ndarray:
    """The group's candidates per (fact, slot): for full negatives the whole
    entity table, given as the true entities (B, a), their own columns; else
    sampled ids (B, a, 1 + n_neg) with column 0 the true entity, drawn at
    once from `rng`."""
    if negatives == "full":
        return spec.ents
    neg = corrupt(spec.ents, params.vocab.n_entities, negatives, rng)
    return np.concatenate([spec.ents[:, :, None], neg], axis=2)


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


class _CandidatePass:
    """A batch's candidates, scored in one pass over its stacked kernel rows.

    The arity groups' (fact, slot) kernel rows, and their candidates, stack
    in the groups' row order (:func:`split_groups`: group by group in
    ascending arity, fact by fact, slot by slot; each group's ``rows``), and
    the rows are cut into jobs of CHUNK_ROWS rows each (:meth:`chunk`). A
    job scores its rows and takes their losses; for a `backward` pass, it
    also takes their score gradient, scaled by 1 / len(facts) within
    :func:`group_losses`, and pulls it back to their kernels. A job writes
    only its own rows of the pass's arrays and calls only the engine's
    names, so it may run on any thread. An empty batch, and a sampled or
    dropout batch without `fact_rngs`, raise ConfigError.
    """

    def __init__(self, params: ModelParams, facts: Facts, negatives: str | int,
                 dropout: float, fact_rngs: Optional[list[np.random.Generator]],
                 backward: bool = False) -> None:
        if not facts:
            raise ConfigError("empty batch")
        if fact_rngs is None and (negatives != "full" or dropout > 0):
            raise ConfigError("sampled negatives and dropout need one generator per fact")
        self.params, self.negatives = params, negatives
        self.dropout, self.fact_rngs = dropout, fact_rngs
        self.backward = backward
        self.scale = 1.0 / len(facts)
        self.full = negatives == "full"
        self.groups = split_groups(params.vocab, facts)
        self.n_rows = self.groups[-1].rows.stop
        self.block = params.data[("ent",)].shape[1:]  # (m, d)
        self.kernels = np.empty((self.n_rows,) + self.block)
        self.losses = np.empty(self.n_rows)
        if backward:
            self.pseudo = np.empty_like(self.kernels)  # dL/d kernels
        self.forwarded: list[GroupKernels] = []  # kept when there is a gradient to pull back

    def jobs(self) -> Iterator[tuple[Callable[[], None], Callable[[], None]]]:
        """Draw and forward each group on the calling thread, in ascending
        arity order, and make each chunk's job, a :func:`pool.spread` pair,
        as soon as the groups its rows come from are forwarded. A group
        draws its candidates, then its dropout masks, from the generator
        that `fact_rngs` holds for its first fact."""
        made = 0
        for spec in self.groups:
            rows = spec.rows
            rng = None if self.fact_rngs is None else self.fact_rngs[spec.fact_index[0]]
            cands = _group_candidates(self.params, spec, self.negatives, rng)
            kern = forward_group(self.params, spec,
                                 _group_masks(spec, self.params, self.dropout, rng))
            self.kernels[rows] = kern.gather.reshape((-1,) + self.block)
            if rows.start == 0:
                # the first group gives the candidate count, and so the shapes
                # of the stacked candidates and of the entity gradient's parts:
                # each row's score gradient under full negatives, else each
                # sampled candidate's row gradient
                self.cands = np.empty((self.n_rows,) + cands.shape[2:], dtype=np.intp)
                if self.backward:
                    width = ((self.params.vocab.n_entities,) if self.full
                             else self.cands.shape[1:] + self.block)
                    self.grads = np.empty((self.n_rows,) + width)
            self.cands[rows] = cands.reshape(self.cands[rows].shape)
            if self.backward:
                self.forwarded.append(kern)
            while made < rows.stop and min(made + CHUNK_ROWS, self.n_rows) <= rows.stop:
                chunk = slice(made, min(made + CHUNK_ROWS, self.n_rows))
                yield (partial(self.chunk, chunk, engine.group_losses),
                       partial(self.chunk, chunk, group_losses))
                made = chunk.stop

    def chunk(self, rows: slice, losses_of: Callable) -> None:
        """Score the kernel rows `rows`, as :meth:`jobs` cuts them, with
        `losses_of` (:func:`group_losses`)."""
        scorer = TableCandidates if self.full else SampledCandidates
        cand = scorer(self.params, self.cands[rows])
        kernels = self.kernels[rows]
        if self.full and self.backward:
            scores = cand.scores(kernels, out=self.grads[rows])
        else:
            scores = cand.scores(kernels)
        self.losses[rows], g = losses_of(scores, cand.true_cols, self.scale)
        if not self.backward:
            return
        self.pseudo[rows] = cand.pullback(g)
        if not self.full:
            cand.row_grads(kernels, g, out=self.grads[rows])

    def run(self) -> float:
        """Score every chunk over the pool, and return the batch's summed
        loss, added up per group in ascending arity order."""
        for _ in pool.spread(self.jobs()):
            pass
        total = 0.0
        for spec in self.groups:
            total += float(self.losses[spec.rows].reshape(-1, spec.arity).sum(axis=1).sum())
        return total

    def pull_back(self, buf: GradientBuffer) -> None:
        """Add the batch's gradient to `buf`, pulling each group back on the
        calling thread in ascending arity order.

        Sampled candidates' rows go in group by group, each group's before
        its :func:`backward_group` rows. Under full negatives the entity
        table's gradient is one product over every row, run on the pool
        (:func:`pool.beside`) while the groups are pulled back; the buffer
        then takes it as the entity slot's gradient and adds the groups'
        rows into it (:meth:`GradientBuffer.add_all_rows`).
        """
        def pull_groups() -> None:
            for kern in self.forwarded:
                rows = kern.spec.rows
                if not self.full:
                    buf.add_rows(("ent",), self.cands[rows].reshape(-1),
                                 self.grads[rows].reshape((-1,) + self.block))
                backward_group(kern, self.pseudo[rows].reshape(kern.gather.shape), buf)

        if not self.full:
            pull_groups()
            return
        table = TableCandidates(self.params, self.cands)
        job = partial(table.table_grad, self.kernels, self.grads)
        buf.add_all_rows(("ent",), pool.beside((job, job), pull_groups))


def batch_loss(
    params: ModelParams,
    facts: Facts,
    negatives: str | int = "full",
    dropout: float = 0.0,
    fact_rngs: Optional[list[np.random.Generator]] = None,
) -> float:
    """Mean per-fact loss of a batch: what :func:`batch_backward` differentiates.

    Identically keyed generators give both the same candidates and masks,
    and both score them in the same candidate pass.
    """
    return _CandidatePass(params, facts, negatives, dropout, fact_rngs).run() / len(facts)


def batch_backward(
    params: ModelParams,
    facts: Facts,
    negatives: str | int = "full",
    dropout: float = 0.0,
    fact_rngs: Optional[list[np.random.Generator]] = None,
) -> tuple[float, GradientBuffer]:
    """Mean batch loss and its exact gradient for every learnable slot.

    The calling thread draws and forwards the arity groups in ascending
    arity order, and stacks their (fact, slot) kernel rows. The candidates
    of every CHUNK_ROWS rows are scored as one :func:`pool.spread` job,
    handed to the pool as soon as those rows are in: on the thread pool, or,
    when the pool has one worker, on the calling thread as soon as it is
    made. The calling thread then pulls each group back in ascending arity
    order (:meth:`_CandidatePass.pull_back`). The rows are cut at fixed
    multiples of CHUNK_ROWS, so every job runs the same numpy calls on any
    CPU count, and the loss and gradient are the same, bit for bit; the
    chunk size, not the CPU count, fixes the bits.
    """
    scored = _CandidatePass(params, facts, negatives, dropout, fact_rngs, backward=True)
    loss = scored.run() * scored.scale
    if not np.isfinite(loss):
        first = params.vocab.fact_name(facts.rels[0], facts.ents[: facts.arity[0]])
        raise NumericError(
            f"non-finite loss {loss} on batch of {len(facts)} facts; first fact "
            f"{first}; {_blame_slots(params)}"
        )
    buf = GradientBuffer(params)
    scored.pull_back(buf)
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
    moments and parameters through slice views; other rows, as sampled
    negatives touch them, are gathered into copies and written back. Every
    product and quotient keeps the operand order of the textbook form, so
    the update is bitwise deterministic and the same on either path.

    Touched rows of two blocks or more, a run or scattered, are dealt out
    over the thread pool, one run of whole blocks per part
    (:func:`pool.in_parts`). The rows ascend, so each part gathers, steps
    and writes back rows of its own, and every element steps on its own:
    the split changes no bit. Dense slots step on the calling thread.
    """
    summed = list(buf.summed())
    _check_gradients(params, summed)
    for key, rows, grad in summed:
        target = params.data[key]
        if key not in state.m1:
            state.m1[key], state.m2[key] = np.zeros_like(target), np.zeros_like(target)
            state.steps[key] = 0 if rows is None else np.zeros(len(target), dtype=np.int64)
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
        # the blocks are dealt out in parts, runs of whole blocks; every
        # part's two temporaries, reused by each of its blocks, are made here
        n_parts = min(pool.WORKERS, max(n_blocks, 1))
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

    Facts are reshuffled every epoch, and each batch is gathered from the
    training split's arrays by index (``kb.train[order[lo:hi]]``), with no
    object made per fact. Every `eval_every` epochs (by default
    every epoch) the filtered MRR on the validation split, if there is one,
    is measured and the best-scoring parameters are kept; training stops
    after `patience` validations without improvement. The returned trace has
    one row per epoch, and each epoch logs one INFO line on the
    ``ramkb.training`` logger.

    The same data, configs and seed give bitwise-identical parameters,
    losses and validation MRRs on the same numpy and BLAS build with the
    same BLAS thread count: initialization, shuffles, corruptions and
    dropout masks all draw from generators keyed by the seed (`make_rng`).
    Each batch has one generator, keyed by (seed, epoch, batch index); its
    arity groups draw from it in ascending arity order, each group drawing
    its candidates before its dropout masks. The bits do not depend on the
    CPU count or the thread pool (:func:`batch_backward`,
    :func:`optimizer_step`), but they do depend on the BLAS thread count,
    which orders the sums of a product, and on CHUNK_ROWS, which cuts each
    batch's candidate products. Under full negatives a batch's entity
    gradient is one product over all its stacked rows; sampled candidates'
    rows are added group by group (:meth:`_CandidatePass.pull_back`). The
    score gradient takes the batch's 1/B inside the softmax normalization
    (:func:`group_losses`), so checkpoints of versions that scaled it in a
    second pass differ from today's in the last bits, for full and sampled
    negatives alike.
    """
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

    for epoch in range(train_cfg.max_epochs):
        order = make_rng(train_cfg.seed, _STREAM_SHUFFLE, epoch).permutation(len(kb.train))
        epoch_loss = 0.0
        for n_batch, lo in enumerate(range(0, len(order), train_cfg.batch_size)):
            batch = kb.train[order[lo : lo + train_cfg.batch_size]]
            rngs = [make_rng(train_cfg.seed, _STREAM_BATCH, epoch, n_batch)] * len(batch)
            loss, buf = batch_backward(
                params, batch, train_cfg.negatives, train_cfg.dropout, fact_rngs=rngs
            )
            optimizer_step(params, buf, state, lr)
            epoch_loss += loss * len(batch)
        epoch_loss /= len(kb.train)
        lr *= train_cfg.decay_rate

        valid_mrr: Optional[float] = None
        if kb.valid and (epoch + 1) % train_cfg.eval_every == 0:
            report = evaluation.evaluate(params, kb, split="valid")
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
