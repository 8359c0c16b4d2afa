"""Model configuration, parameters, and the role modes.

A fact is scored as a sum of multilinear terms. Each term couples one role
embedding with the pattern-weighted embedding blocks of every entity in the
fact; ``engine.forward_group`` evaluates that score for every mode. The modes
differ only in where role embeddings and pattern matrices come from, and each
mode is one object below with ``init`` (create its parameter slots),
``terms`` (derive the role embeddings, pattern matrices and term weights of
all the relations of one arity group at once, stacked on a leading relation
axis) and ``backward`` (pull the group's stacked per-relation gradients back
onto its slots, one contraction per parameter family). Slots stay per
relation, so only reading and writing them loops over relations.
:func:`mode_of` picks the object for a config:

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
* ``raw``      - role embeddings and pattern matrices are stored in the
  ``("raw_u", r)`` / ``("raw_p", r)`` slots and used verbatim without any
  normalization; set by the expressiveness construction, never trained.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError
from .kb import Vocabulary
from .mathcore import make_rng, softmax_last_axis, softmax_vjp
from .presets import PRESET_DIMS, PRESET_KINDS, preset_patterns

MODES = ("latent", "explicit", "extended", "raw", *(f"preset:{k}" for k in PRESET_KINDS))

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
        if min(self.embed_dim, self.multiplicity, self.latent_size) < 1:
            raise ConfigError("embed_dim, multiplicity and latent_size must be >= 1")
        if min(self.role_multiplicity, self.patterns_per_role) < 1:
            raise ConfigError("role_multiplicity and patterns_per_role must be >= 1")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        return cls(**{k: data[k] for k in cls.__dataclass_fields__ if k in data})


SlotKey = tuple


class ModelParams:
    """All model arrays, stored per parameter slot, over one vocabulary.

    The params own `vocab`: it alone fixes the slot layout (the entity count,
    every relation's arity and the explicit roles), and it is written with
    the arrays into a checkpoint. A Vocabulary must not change once params
    are built on it; copies share it.

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
    * ``("raw_u", r)``        verbatim raw-mode role embeddings, (a_r, d)
    * ``("raw_p", r)``        verbatim raw-mode pattern matrices, (a_r, a_r, m)

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
        params._create_slots(lambda *shape: rng.normal(0.0, INIT_STD, size=shape))
        return params

    def _create_slots(self, gauss) -> None:
        cfg = self.cfg
        self.data[("ent",)] = gauss(self.vocab.n_entities, cfg.multiplicity, cfg.embed_dim)
        mode_of(cfg).init(self, gauss)

    def slot_shapes(self) -> dict[SlotKey, tuple]:
        """Shape of every slot that this config and vocabulary call for, in `slots()` order."""
        shell = ModelParams(self.cfg, self.vocab)
        shell._create_slots(lambda *shape: np.broadcast_to(0.0, shape))
        return {key: shell.data[key].shape for key in shell.slots()}

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
    """Derived quantities of one arity group's relations, consumed by the scorer.

    Every array has a leading relation axis R: `role_emb` is (R, a, mg, d),
    `patterns` is (R, a, mg, npm, a, m) and `weights` is (R, a, mg, npm). The
    softmax outputs that produced them are kept for the backward pass.
    """

    role_emb: np.ndarray
    patterns: np.ndarray
    weights: np.ndarray
    mix_alpha: Optional[np.ndarray] = None  # softmax(alpha): (R, a, mg, K)
    mix_beta: Optional[np.ndarray] = None  # softmax(beta): (R, a, mg, npm, K)
    norm_basis: Optional[np.ndarray] = None  # softmaxed basis matrices: (K, a, m)
    role_ids: Optional[np.ndarray] = None  # explicit mode: (R, a)

    def flat(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Term-major views: (R, T, d), (R, T, a, m), (R, T) with T = a * mg * npm."""
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


# Every mode's `terms` receives the relations of one arity group (`rels`);
# its `backward` receives those relations, their `terms`, and the group's
# gradients stacked per relation: role embeddings `gu` (R, a, mg, d),
# pattern matrices `gp` (R, a, mg, npm, a, m) and term weights
# `gw` (R, a, mg, npm).


class _Latent:
    """Shared latent basis; `extended` adds beta pattern mixtures and omega."""

    def __init__(self, extended: bool) -> None:
        self.extended = extended

    def init(self, params: ModelParams, gauss) -> None:
        cfg = params.cfg
        k, mg, npm = cfg.latent_size, cfg.role_multiplicity, cfg.patterns_per_role
        params.data[("basis_u",)] = gauss(k, cfg.embed_dim)
        for a in params.arities:
            params.data[("basis_p", a)] = gauss(k, a, cfg.multiplicity)
        for rel, (_, a) in enumerate(params.vocab.relations):
            params.data[("alpha", rel)] = np.zeros((a, mg, k))
            if self.extended:
                params.data[("beta", rel)] = np.zeros((a, mg, npm, k))
                params.data[("omega", rel)] = np.ones((a, mg, npm))

    def terms(self, params: ModelParams, rels) -> RelationTerms:
        q = normalized_basis(params, params.vocab.arity(int(rels[0])))  # (K, a, m)
        k = q.shape[0]
        mix_a = softmax_last_axis(_stacked(params, "alpha", rels))  # (R, a, mg, K)
        mix_b = softmax_last_axis(_stacked(params, "beta", rels)) if self.extended else None
        mix_p = mix_a[:, :, :, None] if mix_b is None else mix_b  # (R, a, mg, npm, K)
        patterns = (mix_p @ q.reshape(k, -1)).reshape(mix_p.shape[:-1] + q.shape[1:])
        return RelationTerms(
            mix_a @ params.data[("basis_u",)],
            patterns,
            _stacked(params, "omega", rels) if self.extended else np.ones(mix_p.shape[:-1]),
            mix_alpha=mix_a,
            mix_beta=mix_b,
            norm_basis=q,
        )

    def backward(self, params, rels, terms, gu, gp, gw, buf) -> None:
        a, d = gu.shape[1], gu.shape[-1]
        q = terms.norm_basis
        k = q.shape[0]
        q_flat = q.reshape(k, -1)
        mix_a = terms.mix_alpha
        mix_p = mix_a[:, :, :, None] if terms.mix_beta is None else terms.mix_beta
        gp = gp.reshape(mix_p.shape[:-1] + (-1,))  # (R, a, mg, npm, a * m)
        buf.add(("basis_u",), mix_a.reshape(-1, k).T @ gu.reshape(-1, d))
        grad_q = mix_p.reshape(-1, k).T @ gp.reshape(-1, q_flat.shape[1])
        buf.add(("basis_p", a), softmax_vjp(q_flat, grad_q).reshape(q.shape))
        grad_mix_a = gu @ params.data[("basis_u",)].T
        grad_mix_p = gp @ q_flat.T
        if self.extended:
            grad_beta = softmax_vjp(terms.mix_beta, grad_mix_p)
        else:
            grad_mix_a += grad_mix_p[:, :, :, 0]
        grad_alpha = softmax_vjp(mix_a, grad_mix_a)
        for r, rel in enumerate(rels):
            rel = int(rel)
            buf.add(("alpha", rel), grad_alpha[r])
            if self.extended:
                buf.add(("beta", rel), grad_beta[r])
                buf.add(("omega", rel), gw[r])


class _Explicit:
    """Globally named roles, each with a free vector and a raw pattern matrix."""

    def init(self, params: ModelParams, gauss) -> None:
        vocab = params.vocab
        if vocab.n_roles == 0:
            raise ConfigError("explicit mode needs a role-annotated dataset")
        params.data[("role_vec",)] = gauss(vocab.n_roles, params.cfg.embed_dim)
        for a in params.arities:
            params.data[("role_pat", a)] = gauss(vocab.n_roles, a, params.cfg.multiplicity)
        for rel in range(vocab.n_relations):
            if rel not in vocab.rel_roles:
                raise ConfigError(f"relation {vocab.relations[rel][0]!r} lacks role annotations")

    def terms(self, params: ModelParams, rels) -> RelationTerms:
        # init (and so every loaded checkpoint) checks that all relations have roles
        roles = np.array([params.vocab.rel_roles[int(rel)] for rel in rels], dtype=np.intp)
        n_rel, a = roles.shape
        role_emb = params.data[("role_vec",)][roles][:, :, None, :]  # (R, a, 1, d)
        raw_pat = params.data[("role_pat", a)][roles]  # (R, a, a, m)
        patterns = softmax_last_axis(raw_pat.reshape(n_rel, a, -1)).reshape(raw_pat.shape)
        return RelationTerms(
            role_emb, patterns[:, :, None, None], np.ones((n_rel, a, 1, 1)), role_ids=roles
        )

    def backward(self, params, rels, terms, gu, gp, gw, buf) -> None:
        n_rel, a, m = gp.shape[0], gp.shape[1], gp.shape[-1]
        roles = terms.role_ids.reshape(-1)
        raw = softmax_vjp(terms.patterns[:, :, 0, 0].reshape(n_rel * a, -1),
                          gp[:, :, 0, 0].reshape(n_rel * a, -1))
        buf.add_rows(("role_vec",), roles, gu[:, :, 0].reshape(n_rel * a, -1))
        buf.add_rows(("role_pat", a), roles, raw.reshape(n_rel * a, a, m))


class _Preset:
    """Free role vectors with one bilinear model's frozen patterns and signs."""

    def __init__(self, kind: str) -> None:
        self.patterns, self.signs = preset_patterns(kind)
        self.patterns.flags.writeable = False
        self.signs.flags.writeable = False

    def init(self, params: ModelParams, gauss) -> None:
        if any(a != 2 for a in params.arities):
            raise ConfigError("preset modes support binary relations only")
        for rel in range(params.vocab.n_relations):
            params.data[("preset_u", rel)] = gauss(
                2, params.cfg.role_multiplicity, params.cfg.embed_dim
            )

    def terms(self, params: ModelParams, rels) -> RelationTerms:
        n_rel = len(rels)
        return RelationTerms(
            _stacked(params, "preset_u", rels),
            np.broadcast_to(self.patterns, (n_rel,) + self.patterns.shape),
            np.broadcast_to(self.signs, (n_rel,) + self.signs.shape),
        )

    def backward(self, params, rels, terms, gu, gp, gw, buf) -> None:
        for r, rel in enumerate(rels):
            buf.add(("preset_u", int(rel)), gu[r])


class _Raw:
    """Verbatim role vectors and pattern matrices from the construction."""

    def init(self, params: ModelParams, gauss) -> None:
        # the construction sets these values; init only fixes the slots' shapes
        cfg = params.cfg
        for rel, (_, a) in enumerate(params.vocab.relations):
            params.data[("raw_u", rel)] = gauss(a, cfg.embed_dim)
            params.data[("raw_p", rel)] = gauss(a, a, cfg.multiplicity)

    def terms(self, params: ModelParams, rels) -> RelationTerms:
        raw_u = _stacked(params, "raw_u", rels)  # (R, a, d)
        return RelationTerms(
            raw_u[:, :, None, :],
            _stacked(params, "raw_p", rels)[:, :, None, None],
            np.ones(raw_u.shape[:2] + (1, 1)),
        )

    def backward(self, params, rels, terms, gu, gp, gw, buf) -> None:
        raise ConfigError("raw mode is a fixed construction and cannot be trained")


_MODE_OBJECTS = {
    "latent": _Latent(extended=False),
    "extended": _Latent(extended=True),
    "explicit": _Explicit(),
    "raw": _Raw(),
    **{f"preset:{kind}": _Preset(kind) for kind in PRESET_KINDS},
}


def mode_of(cfg: ModelConfig):
    """The object holding `cfg`'s mode: its init, terms and backward."""
    return _MODE_OBJECTS[cfg.mode]


def relation_terms(params: ModelParams, rels) -> RelationTerms:
    """Stacked role embeddings, pattern matrices and term weights of `rels`.

    `rels` are relation ids of one arity; every returned array has a leading
    axis over them.
    """
    return mode_of(params.cfg).terms(params, rels)
