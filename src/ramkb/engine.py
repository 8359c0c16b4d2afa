"""The one scorer: vectorized forward pass and manual reverse-mode gradients.

Facts are processed in the groups of equal arity that ``kb.split_groups``
reads off a fact list. Within a group every score is a sum of multilinear
terms, each the role embedding times one pattern-weighted entity vector per
position. Prefix products that start at
the role embedding, times suffix products, give every leave-one-out product
without dividing (dropout can zero entries); a fact's own score is the
candidate score of its true entity, so the full product is never formed.
Where the role embeddings and pattern matrices come from, and where their
gradients go, is the business of ``model.relation_terms``; this module never
looks at the mode. A group asks for the terms of its facts' relations in one
``relation_terms`` call, one row per fact, reads them in the term-major
layout of ``RelationTerms.flat`` and hands their gradients, in that layout,
to the terms' ``pullback``.

The score is multilinear, so entity e scores ``<gather[p], e>`` at position
p, whatever the fact's arity. :func:`forward_group` builds those contraction
kernels, and a candidate scorer owns scoring and its pullback over kernel
rows of any arity, (..., m, d): :class:`TableCandidates` over the whole
entity table, :class:`SampledCandidates` over per-row entity ids. So
training stacks a batch's kernel rows, every arity group's, in the groups'
stacked row order (group by group, fact by fact, slot by slot; each
group's ``rows``), and scores them in fixed chunks of rows (``training``).
Ranking stacks them in the same order and reads the kernels alone.
:func:`group_losses` gives each kernel row's candidate cross-entropy and its
score gradient, already scaled by the batch's 1/B, which it computes in the
(n, C) score array of the rows itself.

A scorer's ``pullback`` returns the kernels' gradient, one
gradient-weighted sum of candidate blocks per kernel row. The entity
table's gradient is the table scorer's ``table_grad``, one product over
every row of a batch, or the sampled scorer's ``row_grads``, one row per
candidate. :func:`backward_group` pulls the kernels' gradient back through
the arrays :func:`forward_group` kept; one reverse sweep over each of the
prefix and suffix recurrences gives every factor's gradient at one product
per position.

Every contraction is a batched ``matmul`` over (fact, position) pairs, laid
out as numpy lowers the equivalent ``einsum``, so results match it bit for
bit. A :class:`GradientBuffer` keeps row-written gradients as the parts
passed to it and sums them into a block of the touched rows only when the
optimizer reads them; a sampled batch never allocates the entity table. A
full-negative batch's table product, passed after the rows, becomes the
entity slot's array itself (:meth:`GradientBuffer.add_all_rows`), so no
batch allocates a table of its own either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .kb import Facts, GroupSpec, split_groups
from .mathcore import scatter_rows
from .model import ModelParams, RelationTerms, SlotKey, relation_terms


# The contractions as batched matmuls over (fact, position) pairs. Each is
# laid out as numpy 2.x lowers the same ``einsum(..., optimize=True)``
# (``bmm_einsum``): the einsum's second operand on the left, the same
# transposed and fused copies, the same output view. The products therefore
# sum in the einsum's order, bit for bit, without re-planning the path on
# every call. The layout also decides how BLAS sums, so the operand order
# must not be "simplified" to the natural one.


def _weigh(pf: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """``einsum('btlm,blmd->btld', pf, blocks)``: one (d, m) @ (m, T) product
    per (fact, position), returned as a (B, T, a, d) view."""
    b, t, a, m = pf.shape
    d = blocks.shape[3]
    lhs = blocks.transpose(0, 1, 3, 2).reshape(b * a, d, m)
    rhs = pf.transpose(0, 2, 3, 1).reshape(b * a, m, t)
    return (lhs @ rhs).reshape(b, a, d, t).transpose(0, 3, 1, 2)


def _fold_terms(pf: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``einsum('btlm,btld->blmd', pf, x)``: one (d, T) @ (T, m) product per
    (fact, position), returned as a (B, a, m, d) view."""
    b, t, a, m = pf.shape
    d = x.shape[3]
    lhs = x.transpose(0, 2, 3, 1).reshape(b * a, d, t)
    rhs = pf.transpose(0, 2, 1, 3).reshape(b * a, t, m)
    return (lhs @ rhs).reshape(b, a, d, m).transpose(0, 1, 3, 2)


def _pattern_grad(blocks: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``einsum('blmd,btld->btlm', blocks, x)``: one (T, d) @ (d, m) product
    per (fact, position), returned as a (B, T, a, m) view."""
    b, a, m, d = blocks.shape
    t = x.shape[1]
    lhs = x.transpose(0, 2, 1, 3).reshape(b * a, t, d)
    rhs = blocks.transpose(0, 1, 3, 2).reshape(b * a, d, m)
    return (lhs @ rhs).reshape(b, a, t, m).transpose(0, 2, 1, 3)


class GradientBuffer:
    """Per-slot gradient accumulator for one mini-batch.

    Slots written by :meth:`add` are dense. Slots written by rows are
    row-sparse: ``touched[key]`` masks the rows written, and the buffer keeps
    each :meth:`add_rows` call's rows and values as they were passed, so a
    batch that writes a few thousand rows of a large table never allocates
    the table. :meth:`summed` adds them up, in call order, into a compact
    block of the touched rows. A row slot takes its writes in the order
    training makes them: row parts, then at most one full-table array
    (:meth:`add_all_rows`, every row, as with full negatives), which becomes
    the slot's gradient with the parts added into it as one block. Each
    element sums its parts in the order of the calls, and of the rows within
    a call, then adds the full-table array; float addition commutes, so a
    batch's gradient is bitwise deterministic.
    """

    def __init__(self, params: ModelParams) -> None:
        self._shapes = {key: params.data[key].shape for key in params.data}
        # a dense slot's array, a row slot's (rows, values) parts, or the
        # full-table array that ended them; one dict, so slots keep the order
        # of their first write
        self._slots: dict[SlotKey, np.ndarray | list[tuple[np.ndarray, np.ndarray]]] = {}
        self.touched: dict[SlotKey, np.ndarray] = {}

    def add(self, key: SlotKey, value: np.ndarray) -> None:
        """``grad += value`` over a dense slot."""
        if key not in self._slots:
            self._slots[key] = np.zeros(self._shapes[key])
        self._slots[key] += value

    def add_rows(self, key: SlotKey, rows: np.ndarray, values: np.ndarray) -> None:
        """``grad[rows[i]] += values[i]``. Until the slot is summed the
        buffer keeps `rows` and `values` themselves, not copies."""
        self._slots.setdefault(key, []).append((rows, values))
        if key not in self.touched:
            self.touched[key] = np.zeros(self._shapes[key][0], dtype=bool)
        self.touched[key][rows] = True

    def add_all_rows(self, key: SlotKey, values: np.ndarray) -> None:
        """``grad += values`` over every row, once, after the slot's row
        parts. The buffer takes `values`, of the slot's full shape, as the
        slot's gradient array and writes into it: the caller must not use
        it again. The parts are summed into a block of their rows and added
        into ``values[rows]``."""
        parts = self._slots.get(key, [])
        if parts:
            rows, block = self._block(key, parts)
            values[rows] += block
        self._slots[key] = values
        self.touched[key] = np.ones(self._shapes[key][0], dtype=bool)

    def _block(self, key: SlotKey, parts: list[tuple[np.ndarray, np.ndarray]]
               ) -> tuple[np.ndarray, np.ndarray]:
        """The touched rows of a row slot, ascending, and its `parts` summed
        in call order into a compact block of those rows."""
        rows = np.flatnonzero(self.touched[key])
        index = np.empty(len(self.touched[key]), dtype=np.intp)  # table row -> block row
        index[rows] = np.arange(rows.size)
        block = np.zeros(rows.shape + self._shapes[key][1:])
        for part_rows, values in parts:
            scatter_rows(block, index[part_rows], values)
        return rows, block

    def summed(self) -> Iterator[tuple[SlotKey, Optional[np.ndarray], np.ndarray]]:
        """Each written slot's summed gradient, in the order of first writes.

        A dense slot gives ``(key, None, grad)``. A row-sparse slot gives
        ``(key, rows, grad)``: `rows` its touched rows in ascending order and
        ``grad[i]`` the gradient of row ``rows[i]``.
        """
        for key, slot in self._slots.items():
            if key not in self.touched:
                yield key, None, slot
                continue
            if isinstance(slot, list):
                yield (key, *self._block(key, slot))
            else:
                yield key, np.flatnonzero(self.touched[key]), slot

    def dense(self) -> dict[SlotKey, np.ndarray]:
        """:meth:`summed` as full-shape arrays, untouched rows zero."""
        out = {}
        for key, rows, grad in self.summed():
            if rows is None:
                out[key] = grad
            else:
                out[key] = np.zeros(self._shapes[key])
                out[key][rows] = grad
        return out


@dataclass
class GroupKernels:
    """One group's contraction kernels and what the backward pass needs of them."""

    spec: GroupSpec
    terms: RelationTerms  # one row per fact
    pf: np.ndarray  # (B, T, a, m) pattern matrices per term
    wf: np.ndarray  # (B, T) term weights
    ent_blocks: np.ndarray  # (B, a, m, d)
    masks: Optional[np.ndarray]  # (B, T, a, d) inverted-dropout factors
    weighted: np.ndarray  # (B, T, a, d) masked pattern-weighted entity vectors
    prefix: np.ndarray  # (B, T, a, d) prefix[pos]: role embedding times weighted[:pos]
    suffix: np.ndarray  # (B, T, a, d) suffix[pos]: product of weighted[pos+1:]
    loo: np.ndarray  # (B, T, a, d) masked leave-one-out products per position
    gather: np.ndarray  # (B, a, m, d) contraction kernel per position


def forward_group(
    params: ModelParams, spec: GroupSpec, masks: Optional[np.ndarray] = None
) -> GroupKernels:
    a = spec.arity
    terms = relation_terms(params, spec.rels)
    uf, pf, wf = terms.flat()  # (B, T, d), (B, T, a, m), (B, T)
    n_terms = uf.shape[1]

    ent_blocks = params.data[("ent",)][spec.ents]  # (B, a, m, d)
    b, _, _, d = ent_blocks.shape
    weighted = _weigh(pf, ent_blocks)
    if masks is not None:
        weighted = weighted * masks

    # only the partial products that a leave-one-out product or the backward
    # sweep reads: never the full product, nor a suffix that covers position 0
    prefix = np.empty((b, n_terms, a, d))
    suffix = np.empty((b, n_terms, a, d))
    prefix[:, :, 0, :] = uf
    suffix[:, :, a - 1, :] = 1.0
    for pos in range(a - 1):
        prefix[:, :, pos + 1, :] = prefix[:, :, pos, :] * weighted[:, :, pos, :]
    for pos in range(a - 2, -1, -1):
        suffix[:, :, pos, :] = weighted[:, :, pos + 1, :] * suffix[:, :, pos + 1, :]

    # leave-one-out products around each position, with the candidate-side
    # dropout factor folded in so substituted entities see the same mask
    loo = prefix * suffix
    if masks is not None:
        loo = loo * masks
    gather = _fold_terms(pf, wf[:, :, None, None] * loo)

    return GroupKernels(spec, terms, pf, wf, ent_blocks, masks,
                        weighted, prefix, suffix, loo, gather)


class TableCandidates:
    """Every entity is a candidate of every kernel row (full negatives,
    exhaustive checks); the true entities `true_ents` are their own columns.

    A kernel row is one (fact, position) contraction kernel, (m, d); kernels
    come as an array (..., m, d) of them, with `true_ents` shaped (...).
    """

    def __init__(self, params: ModelParams, true_ents: np.ndarray) -> None:
        ent_table = params.data[("ent",)]
        self.shape = ent_table.shape
        self.rows = ent_table.reshape(len(ent_table), -1)  # (n_entities, m*d)
        self.true_cols = true_ents

    def scores(self, kernels: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Scores (..., n_entities), one product with the table; `out`, if
        given, is a C-contiguous (n, n_entities) array for them."""
        flat = kernels.reshape(-1, self.rows.shape[1])
        return np.matmul(flat, self.rows.T, out=out).reshape(kernels.shape[:-2] + (-1,))

    def pullback(self, g: np.ndarray) -> np.ndarray:
        """dL/d`kernels` (..., m, d) of the score gradient `g` (..., n_entities)."""
        return (g.reshape(-1, len(self.rows)) @ self.rows).reshape(g.shape[:-1] + self.shape[1:])

    def table_grad(self, kernels: np.ndarray, g: np.ndarray) -> np.ndarray:
        """dL/d(entity table) (n_entities, m, d) of the score gradient `g`
        (n, n_entities) of the kernel rows `kernels` (n, m, d): one product."""
        return (g.T @ kernels.reshape(len(kernels), -1)).reshape(self.shape)


class SampledCandidates:
    """Each kernel row scores its own entity ids (..., C), column 0 the true
    one. :meth:`scores` gathers the candidate blocks, transposed to the
    (n, m*d, C) operand of its matmul and of :meth:`pullback`'s."""

    def __init__(self, params: ModelParams, ids: np.ndarray) -> None:
        ent_table = params.data[("ent",)]
        self.rows = ent_table.reshape(len(ent_table), -1)
        self.block = ent_table.shape[1:]
        self.ids = ids
        self.true_cols = np.zeros(ids.shape[:-1], dtype=np.intp)

    def scores(self, kernels: np.ndarray) -> np.ndarray:
        c = self.ids.shape[-1]
        blocks = self.rows[self.ids.reshape(-1, c)]  # (n, C, m*d)
        self.blocks_t = blocks.transpose(0, 2, 1)
        flat = kernels.reshape(len(blocks), 1, -1)
        return (flat @ self.blocks_t).reshape(self.ids.shape)

    def pullback(self, g: np.ndarray) -> np.ndarray:
        """dL/d`kernels` (..., m, d) of the score gradient `g` (..., C)."""
        grad = self.blocks_t @ g.reshape(len(self.blocks_t), -1, 1)
        return grad.reshape(g.shape[:-1] + self.block)

    def row_grads(self, kernels: np.ndarray, g: np.ndarray,
                  out: Optional[np.ndarray] = None) -> np.ndarray:
        """dL/d(entity row) (..., C, m, d) of each candidate, given the score
        gradient `g` (..., C); candidate j of a kernel row is entity ``ids[..., j]``."""
        return np.multiply(g[..., None, None], kernels[..., None, :, :], out=out)


def group_losses(scores: np.ndarray, true_cols: np.ndarray,
                 scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-row candidate cross-entropy and its gradient with respect to `scores`.

    `scores` is a C-contiguous (n, C) array, the candidate scores of n kernel
    rows, and `true_cols` (n,) each row's true column. The (n,) losses are one
    per row; the (n, C) gradient is `scale` times softmax(scores) minus the
    true one-hot, from the same max, exp and sum. The gradient is computed in
    place: `scores` is overwritten and returned as the gradient, so scores and
    gradient share one array. `scale` (a batch's 1/B) is folded into the
    normalization, ``exp * (scale / sum)``, so the array is swept once; the
    gradient is within 2 ulp of ``scale * (softmax - onehot)`` (of `scale`
    at the true column), and the losses do not depend on `scale`.
    """
    top = scores.max(axis=1, keepdims=True)
    at_true = (np.arange(len(scores)), true_cols)
    true_scores = scores[at_true]  # a copy, read before the array is overwritten
    scores -= top
    np.exp(scores, out=scores)
    total = scores.sum(axis=1, keepdims=True)
    losses = top[:, 0] + np.log(total[:, 0]) - true_scores
    np.divide(scale, total, out=total)
    scores *= total
    # each row appears once, so a plain indexed subtract
    scores[at_true] -= scale
    return losses, scores


def backward_group(kern: GroupKernels, pseudo: np.ndarray, buf: GradientBuffer) -> None:
    """Accumulate into `buf` the pullback of `pseudo`, a gradient shaped like `kern.gather`."""
    spec = kern.spec
    a = spec.arity
    b, n_terms, _, d = kern.weighted.shape
    m = kern.pf.shape[3]

    # pull `pseudo` back through gather = sum_t pf * (w * loo)
    w_col = kern.wf[:, :, None, None]
    pseudo_v = _weigh(kern.pf, pseudo)
    grad_w = (pseudo_v * kern.loo).sum(axis=(2, 3))
    grad_p = _pattern_grad(pseudo, w_col * kern.loo)
    grad_loo = w_col * pseudo_v  # with respect to the products before masking
    if kern.masks is not None:
        grad_loo = grad_loo * kern.masks

    # loo[pos] = prefix[pos] * suffix[pos]: one reverse sweep per recurrence
    weighted, prefix, suffix = kern.weighted, kern.prefix, kern.suffix
    # C order: a matmul operand's layout decides how BLAS sums it
    grad_weighted = np.zeros(weighted.shape)
    carry = np.zeros((b, n_terms, d))
    for pos in range(a - 1, 0, -1):  # prefix[pos] = prefix[pos-1] * weighted[pos-1]
        carry = carry + grad_loo[:, :, pos] * suffix[:, :, pos]
        grad_weighted[:, :, pos - 1] += carry * prefix[:, :, pos - 1]
        carry = carry * weighted[:, :, pos - 1]
    grad_u = carry + grad_loo[:, :, 0] * suffix[:, :, 0]  # prefix[0] is the role embedding
    carry = np.zeros((b, n_terms, d))
    for pos in range(a - 1):  # suffix[pos] = weighted[pos+1] * suffix[pos+1]
        carry = carry + grad_loo[:, :, pos] * prefix[:, :, pos]
        grad_weighted[:, :, pos + 1] += carry * suffix[:, :, pos + 1]
        carry = carry * weighted[:, :, pos + 1]

    if kern.masks is not None:
        grad_weighted = grad_weighted * kern.masks
    grad_p += _pattern_grad(kern.ent_blocks, grad_weighted)
    grad_e = _fold_terms(kern.pf, grad_weighted)
    buf.add_rows(("ent",), spec.ents.reshape(-1), grad_e.reshape(-1, m, d))

    kern.terms.pullback(grad_u, grad_p, grad_w, buf)


def score(params: ModelParams, relation: int, entities) -> float:
    """Plausibility score of one fact, `relation` over the ordered entity ids
    `entities`, under the current parameters.

    The fact is a one-row :class:`~ramkb.kb.Facts`, scored as a one-fact
    group whose only candidate at each position is the true entity, so no
    entity-table-wide product is formed; every position then scores the fact
    itself, and the first is returned. An arity that is not the relation's
    raises DimensionError.
    """
    facts = Facts([relation], [len(entities)], entities)
    spec = split_groups(params.vocab, facts)[0]
    own = SampledCandidates(params, spec.ents[:, :, None])
    return float(own.scores(forward_group(params, spec).gather)[0, 0, 0])
