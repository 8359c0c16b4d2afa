"""Model configuration, parameters, and the role modes.

A fact is scored as a sum of multilinear terms. Each term couples one role
embedding with the pattern-weighted embedding blocks of every entity in the
fact. For every mode, ``engine.forward_group`` builds each position's
contraction kernel from these terms, and a candidate scorer of ``engine``
turns the kernels into scores. The modes differ only in where role
embeddings and pattern matrices come from, and each mode is one object below
with ``init`` (create its parameter slots) and ``terms``. ``terms`` derives
the role embeddings, pattern matrices and term weights of distinct relations
of one arity at once, stacked on a leading relation axis, and returns with
them their backward: a closure over the softmax outputs it made that pulls
per-relation gradients back onto the mode's slots, one contraction per
parameter family. Slots stay per relation, so only reading and writing them
loops over relations. :func:`relation_terms` is the one way in: it takes the
relation id of every fact of a group, gives the mode each relation once, and
returns one row per fact with a pullback that sums each relation's rows
before the mode's backward sees them. :func:`mode_of` picks the object for a
config:

* ``latent``   - role embeddings are convex combinations of shared basis
  vectors, pattern matrices are convex combinations of the (jointly
  softmaxed) shared basis matrices; both mixtures use the same softmaxed
  weight vector per (relation, role).
* ``extended`` - several role embeddings per role and several pattern
  matrices per role embedding, combined with learnable per-term weights.
* ``explicit`` - every globally named role owns a free embedding vector and
  a raw pattern matrix that is softmax-normalized at use time.
* ``preset:<Kind>`` - pattern matrices and term signs are the constants
  that reproduce the bilinear model ``<Kind>`` (DistMult / SimplE / ComplEx
  / QuatE, e.g. ``mode = "preset:QuatE"``); role embeddings are free vectors.

Every mode trains. The expressiveness construction of ``expressive`` is a
latent-mode model whose slot values it writes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError
from .kb import Vocabulary
from .mathcore import make_rng, scatter_rows, softmax_last_axis, softmax_vjp
from .presets import PRESET_DIMS, PRESET_KINDS, preset_patterns

MODES = ("latent", "explicit", "extended", *(f"preset:{k}" for k in PRESET_KINDS))

INIT_STD = 0.1
_STREAM_INIT = 0


@dataclass
class ModelConfig:
    """Dimensions and variant flags of the scoring model."""

    embed_dim: int = 25
    multiplicity: int = 2
    latent_size: int = 10
    mode: str = "latent"
    role_multiplicity: int = 1
    patterns_per_role: int = 1

    def __post_init__(self) -> None:
        require_counts(self, ("embed_dim", "multiplicity", "latent_size", "role_multiplicity",
                              "patterns_per_role"))
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.mode.startswith("preset:"):
            dims = PRESET_DIMS[self.mode.removeprefix("preset:")]
            self.multiplicity, self.role_multiplicity, self.patterns_per_role = dims
        elif self.mode != "extended" and (
            self.role_multiplicity != 1 or self.patterns_per_role != 1
        ):
            raise ConfigError(
                "role_multiplicity/patterns_per_role require extended or preset mode"
            )

    def to_dict(self) -> dict:
        return asdict(self)


def require_counts(cfg, names, least: int = 1) -> None:
    """Raise ConfigError unless each field `names` of `cfg` is a Python int of
    at least `least`. A bool, a float or a numpy integer is refused, not
    converted, so every count a config holds writes to a checkpoint's JSON."""
    for name in names:
        value = getattr(cfg, name)
        if type(value) is not int or value < least:
            raise ConfigError(f"{name} must be an integer of at least {least}, got {value!r}")


SlotKey = tuple


class ModelParams:
    """All model arrays, stored per parameter slot, over one vocabulary.

    The params own `vocab`: it alone fixes the slot layout (the entity count,
    every relation's arity and the explicit roles), and it is written with
    the arrays into a checkpoint. A Vocabulary has no method that changes
    it, so the layout stays the one the slots were made for; copies share
    the vocabulary.

    Only the mode objects' ``init`` lay out slots. Code that sets chosen
    values, as ``expressive.construct`` does, overwrites the arrays that
    :meth:`init` made.

    Slot keys:

    * ``("ent",)``            entity blocks, shape (n_entities, m, d)
    * ``("basis_u",)``        latent basis vectors, (K, d)
    * ``("basis_p", a)``      raw latent basis matrices per arity, (K, a, m)
    * ``("alpha", r)``        role mixing weights, (a_r, mg, K)
    * ``("beta", r)``         pattern mixing weights, (a_r, mg, npm, K)
    * ``("omega", r)``        per-term weights, (a_r, mg, npm)
    * ``("role_vec",)``       explicit role embeddings, (n_roles, d)
    * ``("role_pat", a)``     explicit raw pattern matrices, (n_roles, a, m)
    * ``("preset_u", r)``     free role embeddings in preset mode, (2, mg, d)

    ``("ent",)``, ``("role_vec",)`` and ``("role_pat", a)`` are row-sparse:
    their gradients are written by rows (the entity table's by the engine,
    the role tables' by the explicit mode), and the optimizer updates only
    the rows a batch touched.
    """

    def __init__(self, cfg: ModelConfig, vocab: Vocabulary) -> None:
        self.cfg = cfg
        self.vocab = vocab
        self.data: dict[SlotKey, np.ndarray] = {}

    @classmethod
    def init(cls, cfg: ModelConfig, vocab: Vocabulary, seed: int = 0) -> "ModelParams":
        """Fresh parameters: Gaussian(0, 0.1) blocks, zero mixing weights.

        Zero mixing weights start every role at the uniform mixture over the
        basis, so no basis vector is preferred before training.
        """
        params = cls(cfg, vocab)
        rng = make_rng(seed, _STREAM_INIT)

        def make(*shape, fill=None):
            return rng.normal(0.0, INIT_STD, size=shape) if fill is None else np.full(shape, fill)

        params._create_slots(make)
        return params

    def _create_slots(self, make) -> None:
        """Every slot, each from ``make(*shape)`` (Gaussian entries) or, for a
        slot that starts at a constant, ``make(*shape, fill=value)``."""
        cfg = self.cfg
        self.data[("ent",)] = make(self.vocab.n_entities, cfg.multiplicity, cfg.embed_dim)
        mode_of(cfg).init(self, make)

    def slot_shapes(self) -> dict[SlotKey, tuple]:
        """Shape of every slot that this config and vocabulary call for, in
        `slots()` order. Nothing is allocated, so a vocabulary whose slots
        would not fit in memory, or not in a numpy array, gives its shapes too."""
        shell = ModelParams(self.cfg, self.vocab)
        shell._create_slots(lambda *shape, fill=None: shape)
        return {key: shell.data[key] for key in shell.slots()}

    @property
    def arities(self) -> tuple[int, ...]:
        """The distinct relation arities, ascending."""
        return self.vocab.arities

    def slots(self) -> list[SlotKey]:
        """Keys of every slot, in a stable order."""
        return sorted(self.data.keys(), key=repr)

    def copy(self) -> "ModelParams":
        dup = ModelParams(self.cfg, self.vocab)
        dup.data = {k: v.copy() for k, v in self.data.items()}
        return dup


@dataclass
class RelationTerms:
    """The terms of every fact of one arity group, as :func:`relation_terms` gives them.

    Every array has one row per fact: `role_emb` is (B, a, mg, d), `patterns`
    is (B, a, mg, npm, a, m) and `weights` is (B, a, mg, npm).
    ``pullback(gu, gp, gw, buf)`` adds to the gradient buffer `buf` the
    slots' gradient, given the gradients of the three :meth:`flat` views.
    """

    role_emb: np.ndarray
    patterns: np.ndarray
    weights: np.ndarray
    pullback: Callable[[np.ndarray, np.ndarray, np.ndarray, object], None]

    def flat(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Term-major views: (B, T, d), (B, T, a, m), (B, T) with T = a * mg * npm."""
        r, a, mg, npm = self.weights.shape
        d = self.role_emb.shape[-1]
        m = self.patterns.shape[-1]
        u = np.broadcast_to(self.role_emb[:, :, :, None, :], (r, a, mg, npm, d))
        return (
            u.reshape(r, -1, d),
            self.patterns.reshape(r, -1, a, m),
            self.weights.reshape(r, -1),
        )


def normalized_basis(params: ModelParams, arity: int) -> np.ndarray:
    """Jointly softmaxed basis matrices for one arity, shape (K, arity, m)."""
    raw = params.data.get(("basis_p", arity))
    if raw is None:
        raise ConfigError(f"no basis matrices registered for arity {arity}")
    return softmax_last_axis(raw.reshape(raw.shape[0], -1)).reshape(raw.shape)


def _stacked(params: ModelParams, family: str, rels) -> np.ndarray:
    """The per-relation slots `(family, rel)` of `rels`, stacked on axis 0."""
    return np.stack([params.data[(family, int(rel))] for rel in rels])


# Every mode's `terms` receives distinct relation ids `rels` of one arity and
# returns their role embeddings (R, a, mg, d), pattern matrices
# (R, a, mg, npm, a, m) and term weights (R, a, mg, npm), stacked on a leading
# relation axis, and a `backward(gu, gp, gw, buf)` that pulls gradients of
# that shape back onto the mode's slots, one contraction per parameter family.


class _Latent:
    """Shared latent basis; `extended` adds beta pattern mixtures and omega."""

    def __init__(self, extended: bool) -> None:
        self.extended = extended

    def init(self, params: ModelParams, make) -> None:
        cfg = params.cfg
        k, mg, npm = cfg.latent_size, cfg.role_multiplicity, cfg.patterns_per_role
        params.data[("basis_u",)] = make(k, cfg.embed_dim)
        for a in params.arities:
            params.data[("basis_p", a)] = make(k, a, cfg.multiplicity)
        for rel, (_, a) in enumerate(params.vocab.relations):
            params.data[("alpha", rel)] = make(a, mg, k, fill=0.0)
            if self.extended:
                params.data[("beta", rel)] = make(a, mg, npm, k, fill=0.0)
                params.data[("omega", rel)] = make(a, mg, npm, fill=1.0)

    def terms(self, params: ModelParams, rels):
        q = normalized_basis(params, params.vocab.arity(int(rels[0])))  # (K, a, m)
        k = q.shape[0]
        q_flat = q.reshape(k, -1)
        basis_u = params.data[("basis_u",)]
        mix_a = softmax_last_axis(_stacked(params, "alpha", rels))  # (R, a, mg, K)
        mix_b = softmax_last_axis(_stacked(params, "beta", rels)) if self.extended else None
        mix_p = mix_a[:, :, :, None] if mix_b is None else mix_b  # (R, a, mg, npm, K)
        patterns = (mix_p @ q_flat).reshape(mix_p.shape[:-1] + q.shape[1:])

        def backward(gu, gp, gw, buf) -> None:
            a, d = gu.shape[1], gu.shape[-1]
            gp = gp.reshape(mix_p.shape[:-1] + (-1,))  # (R, a, mg, npm, a * m)
            buf.add(("basis_u",), mix_a.reshape(-1, k).T @ gu.reshape(-1, d))
            grad_q = mix_p.reshape(-1, k).T @ gp.reshape(-1, q_flat.shape[1])
            buf.add(("basis_p", a), softmax_vjp(q_flat, grad_q).reshape(q.shape))
            grad_mix_a = gu @ basis_u.T
            grad_mix_p = gp @ q_flat.T
            if self.extended:
                grad_beta = softmax_vjp(mix_b, grad_mix_p)
            else:
                grad_mix_a += grad_mix_p[:, :, :, 0]
            grad_alpha = softmax_vjp(mix_a, grad_mix_a)
            for r, rel in enumerate(rels):
                rel = int(rel)
                buf.add(("alpha", rel), grad_alpha[r])
                if self.extended:
                    buf.add(("beta", rel), grad_beta[r])
                    buf.add(("omega", rel), gw[r])

        weights = _stacked(params, "omega", rels) if self.extended else np.ones(mix_p.shape[:-1])
        return mix_a @ basis_u, patterns, weights, backward


class _Explicit:
    """Globally named roles, each with a free vector and a raw pattern matrix."""

    def init(self, params: ModelParams, make) -> None:
        vocab = params.vocab
        if vocab.n_roles == 0:
            raise ConfigError("explicit mode needs a role-annotated dataset")
        params.data[("role_vec",)] = make(vocab.n_roles, params.cfg.embed_dim)
        for a in params.arities:
            params.data[("role_pat", a)] = make(vocab.n_roles, a, params.cfg.multiplicity)
        for rel in range(vocab.n_relations):
            if rel not in vocab.rel_roles:
                raise ConfigError(f"relation {vocab.relations[rel][0]!r} lacks role annotations")

    def terms(self, params: ModelParams, rels):
        # init (and so every loaded checkpoint) checks that all relations have roles
        roles = np.array([params.vocab.rel_roles[int(rel)] for rel in rels], dtype=np.intp)
        n_rel, a = roles.shape
        role_emb = params.data[("role_vec",)][roles][:, :, None, :]  # (R, a, 1, d)
        raw_pat = params.data[("role_pat", a)][roles]  # (R, a, a, m)
        patterns = softmax_last_axis(raw_pat.reshape(n_rel, a, -1)).reshape(raw_pat.shape)

        def backward(gu, gp, gw, buf) -> None:
            m = gp.shape[-1]
            raw = softmax_vjp(patterns.reshape(n_rel * a, -1),
                              gp[:, :, 0, 0].reshape(n_rel * a, -1))
            buf.add_rows(("role_vec",), roles.reshape(-1), gu[:, :, 0].reshape(n_rel * a, -1))
            buf.add_rows(("role_pat", a), roles.reshape(-1), raw.reshape(n_rel * a, a, m))

        return role_emb, patterns[:, :, None, None], np.ones((n_rel, a, 1, 1)), backward


class _Preset:
    """Free role vectors with one bilinear model's frozen patterns and signs."""

    def __init__(self, kind: str) -> None:
        self.patterns, self.signs = preset_patterns(kind)
        self.patterns.flags.writeable = False
        self.signs.flags.writeable = False

    def init(self, params: ModelParams, make) -> None:
        if any(a != 2 for a in params.arities):
            raise ConfigError("preset modes support binary relations only")
        for rel in range(params.vocab.n_relations):
            params.data[("preset_u", rel)] = make(
                2, params.cfg.role_multiplicity, params.cfg.embed_dim
            )

    def terms(self, params: ModelParams, rels):
        n_rel = len(rels)

        def backward(gu, gp, gw, buf) -> None:
            for r, rel in enumerate(rels):
                buf.add(("preset_u", int(rel)), gu[r])

        return (
            _stacked(params, "preset_u", rels),
            np.broadcast_to(self.patterns, (n_rel,) + self.patterns.shape),
            np.broadcast_to(self.signs, (n_rel,) + self.signs.shape),
            backward,
        )


_MODE_OBJECTS = {
    "latent": _Latent(extended=False),
    "extended": _Latent(extended=True),
    "explicit": _Explicit(),
    **{f"preset:{kind}": _Preset(kind) for kind in PRESET_KINDS},
}


def mode_of(cfg: ModelConfig):
    """The object holding `cfg`'s mode: its init and terms."""
    return _MODE_OBJECTS[cfg.mode]


def relation_terms(params: ModelParams, rels) -> RelationTerms:
    """The terms of the relation ids `rels` of one arity, one row per id.

    Ids may repeat, as in the relation ids of a group's facts; each distinct
    relation's terms are derived once. The returned ``pullback`` undoes
    :meth:`RelationTerms.flat`, sums each relation's rows in the order of
    `rels` and hands those sums to the mode.
    """
    uniq, inverse = np.unique(rels, return_inverse=True)
    role_emb, patterns, weights, backward = mode_of(params.cfg).terms(params, uniq)

    def pullback(gu, gp, gw, buf) -> None:
        n_rel, a, mg, npm = weights.shape
        b = len(inverse)
        folded = (
            gu.reshape(b, a, mg, npm, -1).sum(axis=3),
            gp.reshape(b, a, mg, npm, a, -1),
            gw.reshape(b, a, mg, npm),
        )
        sums = [np.zeros((n_rel,) + g.shape[1:]) for g in folded]
        for out, g in zip(sums, folded):
            scatter_rows(out, inverse, g)
        backward(*sums, buf)

    return RelationTerms(role_emb[inverse], patterns[inverse], weights[inverse], pullback)
