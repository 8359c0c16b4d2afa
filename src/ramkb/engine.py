"""The one scorer: vectorized forward pass and manual reverse-mode gradients.

Facts are processed in groups of equal arity. Within a group every score is
a sum of multilinear terms; the factor list of a term is the role embedding
followed by one pattern-weighted entity vector per position. Prefix/suffix
products over that factor list give every leave-one-out product without
dividing (dropout can zero entries); a fact's own score is the candidate
score of its true entity, so the full product is never formed. Where the
role embeddings and pattern matrices come from, and where their gradients
go, is the business of the mode object (``model.mode_of``); this module
never looks at the mode. A group asks for the terms of all its relations in
one ``relation_terms`` call and hands their gradients back in one call to
the mode's ``backward``, stacked on a leading relation axis.

Candidate scoring replaces one position: the product of all other factors is
contracted once against the entity table (or a gathered candidate table).
:func:`group_losses` gives the candidate cross-entropy and its score gradient.

The backward pass pulls a given score gradient back through the arrays that
:func:`forward_group` kept. Everything shared across a position's candidates
sees one pseudo-score whose replaced entity block is the gradient-weighted
sum of candidate blocks; the pseudo-blocks are pulled back through the
contraction kernel, then one reverse sweep over each of the prefix and suffix
recurrences gives every factor's gradient at one product per position.

:func:`score` reads one fact's score off a one-fact group, so training,
evaluation and the theoretical checks all run :func:`forward_group`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionError
from .kb import Fact
from .model import ModelParams, RelationTerms, SlotKey, mode_of, relation_terms


def _scatter_rows(out: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """``out[rows[i]] += values[i]`` for every i, repeated rows included.

    `out` is C-contiguous. The scatter runs on flat 1-D indices, numpy's fast
    ``add.at`` path; each element still receives its contributions one at a
    time in the order of `rows`, so the sums are those of the row-wise form
    bit for bit.
    """
    width = out[0].size
    flat = (rows[:, None] * width + np.arange(width)).reshape(-1)
    np.add.at(out.reshape(-1), flat, values.reshape(-1))


class GradientBuffer:
    """Sparse per-slot gradient accumulator for one mini-batch.

    Row-sparse slots (entity table, explicit role tables) store a dense
    gradient array plus a mask of touched rows so the optimizer can update
    only those rows. Contributions to a row sum element by element in the
    order of the calls, and of the rows within a call, so a batch's gradient
    is bitwise deterministic.
    """

    def __init__(self, params: ModelParams) -> None:
        self._shapes = {key: params.data[key].shape for key in params.data}
        self.grads: dict[SlotKey, np.ndarray] = {}
        self.touched: dict[SlotKey, np.ndarray] = {}

    def _ensure(self, key: SlotKey) -> np.ndarray:
        if key not in self.grads:
            self.grads[key] = np.zeros(self._shapes[key])
            if key[0] in ModelParams.ROW_SPARSE:
                self.touched[key] = np.zeros(self._shapes[key][0], dtype=bool)
        return self.grads[key]

    def add(self, key: SlotKey, value: np.ndarray) -> None:
        self._ensure(key)
        self.grads[key] += value

    def add_rows(self, key: SlotKey, rows: np.ndarray, values: np.ndarray) -> None:
        _scatter_rows(self._ensure(key), rows, values)
        self.touched[key][rows] = True

    def add_all_rows(self, key: SlotKey, values: np.ndarray) -> None:
        buf = self._ensure(key)
        buf += values
        self.touched[key][:] = True


@dataclass
class GroupSpec:
    """Facts of one arity stacked into index arrays."""

    arity: int
    rels: np.ndarray  # (B,)
    ents: np.ndarray  # (B, a)
    fact_index: np.ndarray  # positions in the original batch list


def split_groups(params: ModelParams, facts: list[Fact]) -> list[GroupSpec]:
    vocab = params.vocab
    by_arity: dict[int, list[int]] = {}
    for i, fact in enumerate(facts):
        if fact.arity != vocab.arity(fact.relation):
            raise DimensionError(
                f"fact arity {fact.arity} != relation arity {vocab.arity(fact.relation)}"
            )
        by_arity.setdefault(fact.arity, []).append(i)
    groups = []
    for arity in sorted(by_arity):
        idx = by_arity[arity]
        groups.append(
            GroupSpec(
                arity,
                rels=np.array([facts[i].relation for i in idx], dtype=np.intp),
                ents=np.array([facts[i].entities for i in idx], dtype=np.intp),
                fact_index=np.array(idx, dtype=np.intp),
            )
        )
    return groups


@dataclass
class GroupForward:
    """Everything the backward pass needs about one scored group."""

    spec: GroupSpec
    uniq_rels: np.ndarray
    rel_inverse: np.ndarray
    terms: RelationTerms  # stacked over uniq_rels
    pf: np.ndarray  # (B, T, a, m) pattern matrices per term
    wf: np.ndarray  # (B, T) term weights
    ent_blocks: np.ndarray  # (B, a, m, d)
    masks: Optional[np.ndarray]  # (B, T, a, d) inverted-dropout factors
    factors: np.ndarray  # (B, T, a+1, d) role embedding, then one factor per position
    prefix: np.ndarray  # (B, T, a+1, d) prefix[q]: product of factors[:q]
    suffix: np.ndarray  # (B, T, a, d) suffix[pos]: product of factors[pos+2:]
    loo: np.ndarray  # (B, T, a, d) masked leave-one-out products per position
    gather: np.ndarray  # (B, a, m, d) contraction kernel per position
    candidates: Optional[np.ndarray]  # (B, a, C) entity ids, col 0 = true
    cand_blocks: Optional[np.ndarray]  # (B, a, C, m, d)
    scores: np.ndarray  # (B, a, C) or (B, a, n_entities)
    true_cols: np.ndarray  # (B, a) column of the true entity in `scores`


def forward_group(
    params: ModelParams,
    spec: GroupSpec,
    candidates: Optional[np.ndarray] = None,
    masks: Optional[np.ndarray] = None,
) -> GroupForward:
    a = spec.arity
    b = len(spec.rels)
    ent_table = params.data[("ent",)]
    n_e, m, d = ent_table.shape

    uniq, inverse = np.unique(spec.rels, return_inverse=True)
    terms = relation_terms(params, uniq)
    uf, pf, wf = (x[inverse] for x in terms.flat())  # (B, T, d), (B, T, a, m), (B, T)
    n_terms = uf.shape[1]

    ent_blocks = ent_table[spec.ents]  # (B, a, m, d)
    weighted = np.einsum("btlm,blmd->btld", pf, ent_blocks, optimize=True)
    if masks is not None:
        weighted = weighted * masks

    factors = np.empty((b, n_terms, a + 1, d))
    factors[:, :, 0, :] = uf
    factors[:, :, 1:, :] = weighted

    # only the partial products that a leave-one-out product or the backward
    # sweep reads: never the full product, nor a suffix that covers position 0
    prefix = np.empty((b, n_terms, a + 1, d))
    suffix = np.empty((b, n_terms, a, d))
    prefix[:, :, 0, :] = 1.0
    suffix[:, :, a - 1, :] = 1.0
    for q in range(a):
        prefix[:, :, q + 1, :] = prefix[:, :, q, :] * factors[:, :, q, :]
    for pos in range(a - 2, -1, -1):
        suffix[:, :, pos, :] = factors[:, :, pos + 2, :] * suffix[:, :, pos + 1, :]

    # leave-one-out products around each position, with the candidate-side
    # dropout factor folded in so substituted entities see the same mask
    loo = prefix[:, :, 1:, :] * suffix
    if masks is not None:
        loo = loo * masks
    gather = np.einsum("btlm,btld->blmd", pf, wf[:, :, None, None] * loo, optimize=True)

    if candidates is None:
        flat_gather = gather.reshape(b * a, m * d)
        scores = (flat_gather @ ent_table.reshape(n_e, m * d).T).reshape(b, a, n_e)
        cand_blocks = None
        true_cols = spec.ents
    else:
        cand_blocks = ent_table[candidates]  # (B, a, C, m, d)
        scores = np.einsum("blcmd,blmd->blc", cand_blocks, gather, optimize=True)
        true_cols = np.zeros((b, a), dtype=np.intp)

    return GroupForward(
        spec=spec,
        uniq_rels=uniq,
        rel_inverse=inverse,
        terms=terms,
        pf=pf,
        wf=wf,
        ent_blocks=ent_blocks,
        masks=masks,
        factors=factors,
        prefix=prefix,
        suffix=suffix,
        loo=loo,
        gather=gather,
        candidates=candidates,
        cand_blocks=cand_blocks,
        scores=scores,
        true_cols=true_cols,
    )


def group_losses(scores: np.ndarray, true_cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-fact candidate cross-entropy and its gradient with respect to `scores`.

    `scores` is (B, a, C) and `true_cols` (B, a) the true entity's column. The
    (B,) losses sum over positions; the (B, a, C) gradient is softmax(scores)
    minus the true one-hot, from the same max, exp and sum.
    """
    top = scores.max(axis=-1, keepdims=True)
    probs = scores - top
    np.exp(probs, out=probs)
    total = probs.sum(axis=-1, keepdims=True)
    at_true = (*np.indices(true_cols.shape, sparse=True), true_cols)
    losses = (top[..., 0] + np.log(total[..., 0]) - scores[at_true]).sum(axis=1)
    probs /= total
    # each (fact, position) pair appears once, so a plain indexed subtract
    probs[at_true] -= 1.0
    return losses, probs


def backward_group(
    params: ModelParams, fwd: GroupForward, g: np.ndarray, buf: GradientBuffer
) -> None:
    """Accumulate into `buf` the pullback of `g`, a gradient shaped like `fwd.scores`."""
    cfg = params.cfg
    spec = fwd.spec
    a = spec.arity
    b, n_terms, _, d = fwd.factors.shape
    ent_table = params.data[("ent",)]
    n_e, m, _ = ent_table.shape

    # candidate-side entity gradients and gradient-weighted pseudo blocks
    if fwd.candidates is None:
        g_flat = g.reshape(b * a, n_e)
        gather_flat = fwd.gather.reshape(b * a, m * d)
        buf.add_all_rows(("ent",), (g_flat.T @ gather_flat).reshape(n_e, m, d))
        pseudo = (g_flat @ ent_table.reshape(n_e, m * d)).reshape(b, a, m, d)
    else:
        contrib = g[:, :, :, None, None] * fwd.gather[:, :, None, :, :]
        buf.add_rows(("ent",), fwd.candidates.reshape(-1),
                     contrib.reshape(-1, m, d))
        pseudo = np.einsum("blc,blcmd->blmd", g, fwd.cand_blocks, optimize=True)

    # pull `pseudo` back through gather = sum_t pf * (w * loo)
    w_col = fwd.wf[:, :, None, None]
    pseudo_v = np.einsum("btlm,blmd->btld", fwd.pf, pseudo, optimize=True)
    grad_w = (pseudo_v * fwd.loo).sum(axis=(2, 3))
    grad_p = np.einsum("blmd,btld->btlm", pseudo, w_col * fwd.loo, optimize=True)
    grad_loo = w_col * pseudo_v  # with respect to the products before masking
    if fwd.masks is not None:
        grad_loo = grad_loo * fwd.masks

    # loo[pos] = prefix[pos+1] * suffix[pos]: one reverse sweep per recurrence
    factors, prefix, suffix = fwd.factors, fwd.prefix, fwd.suffix
    grad_factors = np.zeros_like(factors)
    carry = np.zeros((b, n_terms, d))
    for q in range(a - 1, -1, -1):  # prefix[q+1] = prefix[q] * factors[q]
        carry = carry + grad_loo[:, :, q] * suffix[:, :, q]
        grad_factors[:, :, q] += carry * prefix[:, :, q]
        carry = carry * factors[:, :, q]
    carry = np.zeros((b, n_terms, d))
    for pos in range(a - 1):  # suffix[pos] = factors[pos+2] * suffix[pos+1]
        carry = carry + grad_loo[:, :, pos] * prefix[:, :, pos + 1]
        grad_factors[:, :, pos + 2] += carry * suffix[:, :, pos + 1]
        carry = carry * factors[:, :, pos + 2]

    grad_u = grad_factors[:, :, 0]
    grad_weighted = grad_factors[:, :, 1:]
    if fwd.masks is not None:
        grad_weighted = grad_weighted * fwd.masks
    grad_p += np.einsum("blmd,btld->btlm", fwd.ent_blocks, grad_weighted, optimize=True)
    grad_e = np.einsum("btlm,btld->blmd", fwd.pf, grad_weighted, optimize=True)
    buf.add_rows(("ent",), spec.ents.reshape(-1), grad_e.reshape(-1, m, d))

    # fold term-major gradients back to (arity, role_multiplicity, patterns) axes
    mg, npm = cfg.role_multiplicity, cfg.patterns_per_role
    grad_u = grad_u.reshape(b, a, mg, npm, d).sum(axis=3)
    grad_p = grad_p.reshape(b, a, mg, npm, a, m)
    grad_w = grad_w.reshape(b, a, mg, npm)

    n_rel = len(fwd.uniq_rels)
    gu_rel = np.zeros((n_rel,) + grad_u.shape[1:])
    gp_rel = np.zeros((n_rel,) + grad_p.shape[1:])
    gw_rel = np.zeros((n_rel,) + grad_w.shape[1:])
    _scatter_rows(gu_rel, fwd.rel_inverse, grad_u)
    _scatter_rows(gp_rel, fwd.rel_inverse, grad_p)
    _scatter_rows(gw_rel, fwd.rel_inverse, grad_w)

    mode_of(cfg).backward(params, fwd.uniq_rels, fwd.terms, gu_rel, gp_rel, gw_rel, buf)


def score(params: ModelParams, fact: Fact) -> float:
    """Plausibility score of one fact under the current parameters.

    Scores a one-fact group whose only candidate at each position is the true
    entity, so no entity-table-wide product is formed; every position then
    scores the fact itself, and the first is returned.
    """
    spec = split_groups(params, [fact])[0]
    return float(forward_group(params, spec, candidates=spec.ents[:, :, None]).scores[0, 0, 0])
