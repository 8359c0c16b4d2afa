"""Negative corruption, batch loss/gradients, Adam, and the training loop."""

from __future__ import annotations

import logging
import time
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .engine import (
    GradientBuffer,
    GroupForward,
    GroupSpec,
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
_STREAM_FACT = 2

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


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
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be > 0")
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
    true: int,
    n_entities: int,
    negatives: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sampled corruption candidates for one slot, excluding its true entity.

    Draws the requested number of distinct entities uniformly (clipped to
    n_entities - 1). Candidates that happen to form true facts are not
    removed: the loss trains against all corruptions. Full negatives never
    come here; the engine scores them against the whole entity table.
    """
    n = min(int(negatives), n_entities - 1)
    draw = rng.choice(n_entities - 1, size=n, replace=False).astype(np.intp)
    draw[draw >= true] += 1
    return draw


def _group_candidates(
    spec: GroupSpec,
    n_entities: int,
    negatives: str | int,
    fact_rngs: Optional[list[np.random.Generator]],
) -> Optional[np.ndarray]:
    """Candidate id array (B, a, 1 + n_neg) with column 0 the true entity."""
    if negatives == "full":
        return None
    n = min(int(negatives), n_entities - 1)
    b, a = spec.ents.shape
    cand = np.empty((b, a, n + 1), dtype=np.intp)
    cand[:, :, 0] = spec.ents
    for row, fact_idx in enumerate(spec.fact_index):
        rng = fact_rngs[fact_idx]
        for pos in range(a):
            cand[row, pos, 1:] = corrupt(spec.ents[row, pos], n_entities, negatives, rng)
    return cand


def _group_masks(
    spec: GroupSpec,
    params: ModelParams,
    dropout: float,
    fact_rngs: Optional[list[np.random.Generator]],
) -> Optional[np.ndarray]:
    """Inverted-dropout factors (B, T, a, d) for the pattern-weighted entity vectors.

    Entries are zeroed independently with probability `dropout`, each fact
    drawing from its own generator, and the survivors are scaled by
    1/(1-dropout), so the masked score is an unbiased estimate of the plain
    one. None when there is nothing to drop; evaluation never applies this.
    """
    if dropout == 0:
        return None
    cfg = params.cfg
    b, a = spec.ents.shape
    n_terms = a * cfg.role_multiplicity * cfg.patterns_per_role
    masks = np.empty((b, n_terms, a, cfg.embed_dim))
    for row, fact_idx in enumerate(spec.fact_index):
        keep = fact_rngs[fact_idx].random((n_terms, a, cfg.embed_dim)) >= dropout
        masks[row] = keep.astype(np.float64) / (1.0 - dropout)
    return masks


def _score_group(
    params: ModelParams,
    spec: GroupSpec,
    negatives: str | int,
    dropout: float,
    fact_rngs: Optional[list[np.random.Generator]],
) -> tuple[GroupForward, np.ndarray, np.ndarray]:
    """One arity group's forward arrays, per-fact losses and score gradient.

    Candidates and dropout masks come from `fact_rngs`, one generator per fact.
    """
    if fact_rngs is None and (negatives != "full" or dropout > 0):
        raise ConfigError("sampled negatives and dropout need one generator per fact")
    cand = _group_candidates(spec, params.vocab.n_entities, negatives, fact_rngs)
    mask = _group_masks(spec, params, dropout, fact_rngs)
    fwd = forward_group(params, spec, cand, mask)
    return (fwd, *group_losses(fwd.scores, fwd.true_cols))


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
        losses = _score_group(params, spec, negatives, dropout, fact_rngs)[1]
        total += float(losses.sum())
    return total / len(facts)


def batch_backward(
    params: ModelParams,
    facts: list[Fact],
    negatives: str | int = "full",
    dropout: float = 0.0,
    fact_rngs: Optional[list[np.random.Generator]] = None,
) -> tuple[float, GradientBuffer]:
    """Mean batch loss and its exact gradient for every learnable slot."""
    if not facts:
        raise ConfigError("empty batch")
    scale = 1.0 / len(facts)
    buf = GradientBuffer(params)
    total = 0.0
    for spec in split_groups(params, facts):
        fwd, losses, grad = _score_group(params, spec, negatives, dropout, fact_rngs)
        total += float(losses.sum())
        grad *= scale
        backward_group(params, fwd, grad, buf)
        del fwd, grad  # free this group's arrays before the next group is scored

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


def optimizer_step(
    params: ModelParams, buf: GradientBuffer, state: AdamState, lr: float
) -> None:
    """Sparse Adam update over the slots touched by the buffer.

    Row-sparse slots follow lazy Adam: only the touched rows advance their
    moments and their own step counts. Those rows' gradient and moments are
    gathered once; the gathered copies are updated in place, the moments
    written back, and the copies then become the bias-corrected step. Every
    product and quotient keeps the operand order of the textbook form, so
    the update is bitwise deterministic.
    """
    for key, grad in buf.grads.items():
        target = params.data[key]
        row_sparse = key in buf.touched
        state._ensure(key, target, row_sparse)
        m1, m2 = state.m1[key], state.m2[key]
        if row_sparse:
            rows = np.flatnonzero(buf.touched[key])
            if rows.size == 0:
                continue
            state.steps[key][rows] += 1
            t = state.steps[key][rows]
            # fancy indexing copies, so the in-place updates below never
            # reach the state before the write-back
            g, mu, nu = grad[rows], m1[rows], m2[rows]
            mu *= ADAM_BETA1
            nu *= ADAM_BETA2
            sq = (1 - ADAM_BETA2) * g
            sq *= g
            nu += sq
            g *= 1 - ADAM_BETA1
            mu += g
            m1[rows] = mu
            m2[rows] = nu
            extra = (1,) * (target.ndim - 1)
            mu /= (1 - ADAM_BETA1 ** t).reshape(t.shape + extra)
            mu *= lr
            nu /= (1 - ADAM_BETA2 ** t).reshape(t.shape + extra)
            np.sqrt(nu, out=nu)
            nu += ADAM_EPS
            mu /= nu
            target[rows] -= mu
        else:
            state.steps[key] += 1
            t = state.steps[key]
            m1 *= ADAM_BETA1
            m1 += (1 - ADAM_BETA1) * grad
            m2 *= ADAM_BETA2
            m2 += (1 - ADAM_BETA2) * grad * grad
            bc1 = 1 - ADAM_BETA1 ** t
            bc2 = 1 - ADAM_BETA2 ** t
            target -= lr * (m1 / bc1) / (np.sqrt(m2 / bc2) + ADAM_EPS)


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
    losses and validation MRRs: initialization, shuffles, corruptions and
    dropout masks all draw from generators keyed by the seed (`make_rng`).
    """
    from .evaluation import evaluate  # local import to avoid a cycle

    if not kb.train:
        raise ConfigError("cannot train on an empty training split")
    params = ModelParams.init(model_cfg, kb.vocab, seed=train_cfg.seed)
    state = AdamState()
    lr = train_cfg.learning_rate
    needs_rng = train_cfg.dropout > 0 or train_cfg.negatives != "full"

    best_params = params
    best_mrr: Optional[float] = None
    evals_since_best = 0
    trace: list[TraceRow] = []
    start = time.perf_counter()
    facts = list(kb.train)

    for epoch in range(train_cfg.max_epochs):
        order = make_rng(train_cfg.seed, _STREAM_SHUFFLE, epoch).permutation(len(facts))
        epoch_loss = 0.0
        for lo in range(0, len(order), train_cfg.batch_size):
            idx = order[lo : lo + train_cfg.batch_size]
            batch = [facts[i] for i in idx]
            rngs = None
            if needs_rng:
                rngs = [
                    make_rng(train_cfg.seed, _STREAM_FACT, epoch, int(i)) for i in idx
                ]
            loss, buf = batch_backward(
                params,
                batch,
                negatives=train_cfg.negatives,
                dropout=train_cfg.dropout,
                fact_rngs=rngs,
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
