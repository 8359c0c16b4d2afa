"""Model configuration, parameters, and the role modes.

A fact is scored as a sum of multilinear terms. Each term couples one role
embedding with the pattern-weighted embedding blocks of every entity in the
fact; ``engine.forward_group`` evaluates that score for every mode. The modes
differ only in where role embeddings and pattern matrices come from, and each
mode is one object below with ``init`` (create its parameter slots),
``terms`` (derive one relation's role embeddings, pattern matrices and term
weights) and ``backward`` (pull the group's stacked per-relation gradients
back onto its slots). :func:`mode_of` picks the object for a config:

* ``latent``   - role embeddings are convex combinations of shared basis
  vectors, pattern matrices are convex combinations of the (jointly
  softmaxed) shared basis matrices; both mixtures use the same softmaxed
  weight vector per (relation, role).
* ``extended`` - several role embeddings per role and several pattern
  matrices per role embedding, combined with learnable per-term weights.
* ``explicit`` - every globally named role owns a free embedding vector and
  a raw pattern matrix that is softmax-normalized at use time.
* ``preset``   - pattern matrices and term signs are the constants of
  ``cfg.preset`` that reproduce DistMult / SimplE / ComplEx / QuatE; role
  embeddings are free vectors.
* ``raw``      - role embeddings and pattern matrices are stored in the
  ``("raw_u", r)`` / ``("raw_p", r)`` slots and used verbatim without any
  normalization; only built by the expressiveness construction, never
  trained.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, DimensionError
from .kb import Vocabulary
from .mathcore import make_rng, softmax_last_axis, softmax_vjp
from .presets import PRESET_DIMS, PRESET_KINDS, preset_patterns

MODES = ("latent", "explicit", "preset", "extended", "raw")

INIT_STD = 0.1
_STREAM_INIT = 0


@dataclass
class ModelConfig:
    """Dimensions and variant flags of the scoring model."""

    embed_dim: int = 25
    multiplicity: int = 2
    latent_size: int = 10
    mode: str = "latent"
    preset: Optional[str] = None
    role_multiplicity: int = 1
    patterns_per_role: int = 1

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.mode == "preset":
            if self.preset not in PRESET_KINDS:
                raise ConfigError(
                    f"preset mode needs preset in {PRESET_KINDS}, got {self.preset!r}"
                )
            m, mg, npm = PRESET_DIMS[self.preset]
            self.multiplicity = m
            self.role_multiplicity = mg
            self.patterns_per_role = npm
        elif self.preset is not None:
            raise ConfigError("preset kind given but mode is not 'preset'")
        if self.mode != "extended" and self.mode != "preset":
            if self.role_multiplicity != 1 or self.patterns_per_role != 1:
                raise ConfigError(
                    "role_multiplicity/patterns_per_role require extended or preset mode"
                )
        if min(self.embed_dim, self.multiplicity, self.latent_size) < 1:
            raise ConfigError("embed_dim, multiplicity and latent_size must be >= 1")
        if min(self.role_multiplicity, self.patterns_per_role) < 1:
            raise ConfigError("role_multiplicity and patterns_per_role must be >= 1")

    @classmethod
    def parse_mode(cls, text: str) -> tuple[str, Optional[str]]:
        """Split a mode string like ``preset:QuatE`` into (mode, preset)."""
        if text.startswith("preset:"):
            return "preset", text.split(":", 1)[1]
        if text == "preset":
            raise ConfigError("preset mode needs a kind, e.g. preset:DistMult")
        return text, None

    def mode_string(self) -> str:
        return f"preset:{self.preset}" if self.mode == "preset" else self.mode

    def to_dict(self) -> dict:
        return {
            "embed_dim": self.embed_dim,
            "multiplicity": self.multiplicity,
            "latent_size": self.latent_size,
            "mode": self.mode,
            "preset": self.preset,
            "role_multiplicity": self.role_multiplicity,
            "patterns_per_role": self.patterns_per_role,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        return cls(**{k: data[k] for k in cls.__dataclass_fields__ if k in data})


SlotKey = tuple


class ModelParams:
    """All model arrays, stored per parameter slot.

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
    the optimizer updates only rows touched by a batch.
    """

    ROW_SPARSE = ("ent", "role_vec", "role_pat")

    def __init__(
        self,
        cfg: ModelConfig,
        n_entities: int,
        rel_arity: list[int],
        rel_roles: Optional[dict[int, tuple[int, ...]]] = None,
        n_roles: int = 0,
    ) -> None:
        self.cfg = cfg
        self.n_entities = n_entities
        self.rel_arity = list(rel_arity)
        self.arities = tuple(sorted(set(rel_arity)))
        self.rel_roles = dict(rel_roles or {})
        self.n_roles = n_roles
        self.data: dict[SlotKey, np.ndarray] = {}

    @classmethod
    def init(cls, cfg: ModelConfig, vocab: Vocabulary, seed: int = 0) -> "ModelParams":
        """Fresh parameters: Gaussian(0, 0.1) blocks, zero mixing weights.

        Zero mixing weights start every role at the uniform mixture over the
        basis, so no basis vector is preferred before training.
        """
        params = cls(
            cfg,
            vocab.n_entities,
            [a for _, a in vocab.relations],
            rel_roles=dict(vocab.rel_roles),
            n_roles=vocab.n_roles,
        )
        rng = make_rng(seed, _STREAM_INIT)

        def gauss(*shape):
            return rng.normal(0.0, INIT_STD, size=shape)

        params.data[("ent",)] = gauss(vocab.n_entities, cfg.multiplicity, cfg.embed_dim)
        mode_of(cfg).init(params, gauss)
        return params

    @property
    def n_relations(self) -> int:
        return len(self.rel_arity)

    def slots(self) -> list[SlotKey]:
        """Keys of every slot, in a stable order."""
        return sorted(self.data.keys(), key=repr)

    def get(self, key: SlotKey) -> np.ndarray:
        return self.data[key]

    def copy(self) -> "ModelParams":
        dup = ModelParams(
            self.cfg, self.n_entities, self.rel_arity, self.rel_roles, self.n_roles
        )
        dup.data = {k: v.copy() for k, v in self.data.items()}
        return dup

    def arity_of(self, rel: int) -> int:
        return self.rel_arity[rel]


@dataclass
class RelationTerms:
    """Derived per-relation quantities consumed by the scorer.

    `role_emb` is (a, mg, d), `patterns` is (a, mg, npm, a, m) and `weights`
    is (a, mg, npm). The softmax outputs that produced them are kept for the
    backward pass.
    """

    role_emb: np.ndarray
    patterns: np.ndarray
    weights: np.ndarray
    mix_alpha: Optional[np.ndarray] = None  # softmax(alpha): (a, mg, K)
    mix_beta: Optional[np.ndarray] = None  # softmax(beta): (a, mg, npm, K)
    norm_basis: Optional[np.ndarray] = None  # softmaxed basis matrices: (K, a, m)
    role_ids: Optional[tuple[int, ...]] = None  # explicit mode

    @property
    def n_terms(self) -> int:
        a, mg, npm = self.weights.shape
        return a * mg * npm

    def flat(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Term-major views: (T, d), (T, a, m), (T,) with T = a * mg * npm."""
        a, mg, npm = self.weights.shape
        d = self.role_emb.shape[-1]
        m = self.patterns.shape[-1]
        u = np.broadcast_to(self.role_emb[:, :, None, :], (a, mg, npm, d))
        return (
            u.reshape(-1, d),
            self.patterns.reshape(-1, a, m),
            self.weights.reshape(-1),
        )


def normalized_basis(params: ModelParams, arity: int) -> np.ndarray:
    """Jointly softmaxed basis matrices for one arity, shape (K, arity, m)."""
    raw = params.data.get(("basis_p", arity))
    if raw is None:
        raise ConfigError(f"no basis matrices registered for arity {arity}")
    return softmax_last_axis(raw.reshape(raw.shape[0], -1)).reshape(raw.shape)


# Every mode's `backward` receives, for one arity group, the relations it
# holds (`rels`), their `terms`, and the group's gradients stacked per
# relation: role embeddings `gu` (R, a, mg, d), pattern matrices
# `gp` (R, a, mg, npm, a, m) and term weights `gw` (R, a, mg, npm).


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
        for rel, a in enumerate(params.rel_arity):
            params.data[("alpha", rel)] = np.zeros((a, mg, k))
            if self.extended:
                params.data[("beta", rel)] = np.zeros((a, mg, npm, k))
                params.data[("omega", rel)] = np.ones((a, mg, npm))

    def terms(self, params: ModelParams, rel: int, basis_cache) -> RelationTerms:
        a = params.arity_of(rel)
        if basis_cache is not None and a in basis_cache:
            q = basis_cache[a]
        else:
            q = normalized_basis(params, a)
            if basis_cache is not None:
                basis_cache[a] = q
        mix_a = softmax_last_axis(params.data[("alpha", rel)])  # (a, mg, K)
        role_emb = np.einsum("ijk,kd->ijd", mix_a, params.data[("basis_u",)])
        if not self.extended:
            patterns = np.einsum("ijk,kxm->ijxm", mix_a, q)[:, :, None, :, :]
            return RelationTerms(
                role_emb,
                patterns,
                np.ones(patterns.shape[:3]),
                mix_alpha=mix_a,
                norm_basis=q,
            )
        mix_b = softmax_last_axis(params.data[("beta", rel)])  # (a, mg, npm, K)
        patterns = np.einsum("ijlk,kxm->ijlxm", mix_b, q)
        return RelationTerms(
            role_emb,
            patterns,
            params.data[("omega", rel)],
            mix_alpha=mix_a,
            mix_beta=mix_b,
            norm_basis=q,
        )

    def backward(self, params, rels, terms, gu, gp, gw, buf) -> None:
        a = gu.shape[1]
        basis_u = params.data[("basis_u",)]
        grad_norm_basis = np.zeros_like(terms[0].norm_basis)
        for r, rel in enumerate(rels):
            rel = int(rel)
            t = terms[r]
            buf.add(("basis_u",), np.einsum("ijk,ijd->kd", t.mix_alpha, gu[r],
                                            optimize=True))
            grad_mix_a = np.einsum("kd,ijd->ijk", basis_u, gu[r], optimize=True)
            if not self.extended:
                gp_r = gp[r][:, :, 0]  # (a, mg, a, m)
                grad_norm_basis += np.einsum("ijk,ijxm->kxm", t.mix_alpha, gp_r,
                                             optimize=True)
                grad_mix_a += np.einsum("kxm,ijxm->ijk", t.norm_basis, gp_r,
                                        optimize=True)
            else:
                grad_norm_basis += np.einsum("ijlk,ijlxm->kxm", t.mix_beta, gp[r],
                                             optimize=True)
                grad_mix_b = np.einsum("kxm,ijlxm->ijlk", t.norm_basis, gp[r],
                                       optimize=True)
                buf.add(("beta", rel), softmax_vjp(t.mix_beta, grad_mix_b))
                buf.add(("omega", rel), gw[r])
            buf.add(("alpha", rel), softmax_vjp(t.mix_alpha, grad_mix_a))
        k = grad_norm_basis.shape[0]
        norm = terms[0].norm_basis.reshape(k, -1)
        raw = softmax_vjp(norm, grad_norm_basis.reshape(k, -1))
        buf.add(("basis_p", a), raw.reshape(grad_norm_basis.shape))


class _Explicit:
    """Globally named roles, each with a free vector and a raw pattern matrix."""

    def init(self, params: ModelParams, gauss) -> None:
        if params.n_roles == 0:
            raise ConfigError("explicit mode needs a role-annotated dataset")
        params.data[("role_vec",)] = gauss(params.n_roles, params.cfg.embed_dim)
        for a in params.arities:
            params.data[("role_pat", a)] = gauss(params.n_roles, a, params.cfg.multiplicity)
        for rel in range(params.n_relations):
            if rel not in params.rel_roles:
                raise ConfigError(f"relation {rel} lacks role annotations")

    def terms(self, params: ModelParams, rel: int, basis_cache) -> RelationTerms:
        a = params.arity_of(rel)
        roles = params.rel_roles.get(rel)
        if roles is None:
            raise ConfigError(f"relation {rel} has no role annotations")
        role_emb = params.data[("role_vec",)][list(roles)][:, None, :]
        raw_pat = params.data[("role_pat", a)][list(roles)]  # (a, a, m)
        patterns = softmax_last_axis(raw_pat.reshape(a, -1)).reshape(raw_pat.shape)
        return RelationTerms(
            role_emb, patterns[:, None, None], np.ones((a, 1, 1)), role_ids=roles
        )

    def backward(self, params, rels, terms, gu, gp, gw, buf) -> None:
        n_rel, a, m = gp.shape[0], gp.shape[1], gp.shape[-1]
        roles = np.array([t.role_ids for t in terms], dtype=np.intp).reshape(-1)
        patterns = np.stack([t.patterns[:, 0, 0] for t in terms])  # (R, a, a, m)
        raw = softmax_vjp(patterns.reshape(n_rel * a, -1),
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
        if any(a != 2 for a in params.rel_arity):
            raise ConfigError("preset modes support binary relations only")
        for rel in range(params.n_relations):
            params.data[("preset_u", rel)] = gauss(
                2, params.cfg.role_multiplicity, params.cfg.embed_dim
            )

    def terms(self, params: ModelParams, rel: int, basis_cache) -> RelationTerms:
        return RelationTerms(params.data[("preset_u", rel)], self.patterns, self.signs)

    def backward(self, params, rels, terms, gu, gp, gw, buf) -> None:
        for r, rel in enumerate(rels):
            buf.add(("preset_u", int(rel)), gu[r])


class _Raw:
    """Verbatim role vectors and pattern matrices from the construction."""

    def init(self, params: ModelParams, gauss) -> None:
        raise ConfigError("raw-mode parameters are constructed, not initialized")

    def terms(self, params: ModelParams, rel: int, basis_cache) -> RelationTerms:
        a = params.arity_of(rel)
        return RelationTerms(
            params.data[("raw_u", rel)][:, None, :],
            params.data[("raw_p", rel)][:, None, None, :, :],
            np.ones((a, 1, 1)),
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
    return _MODE_OBJECTS[cfg.mode_string()]


def relation_terms(
    params: ModelParams,
    rel: int,
    basis_cache: Optional[dict[int, np.ndarray]] = None,
) -> RelationTerms:
    """Role embeddings, pattern matrices and term weights for one relation."""
    return mode_of(params.cfg).terms(params, rel, basis_cache)


def role_embedding(params: ModelParams, rel: int, position: int) -> np.ndarray:
    """Embedding of one role slot; convex basis mixture in latent mode."""
    terms = relation_terms(params, rel)
    if not 0 <= position < params.arity_of(rel):
        raise DimensionError(
            f"position {position} out of range for arity {params.arity_of(rel)}"
        )
    emb = terms.role_emb[position]
    return emb[0] if emb.shape[0] == 1 else emb


def pattern_matrix(params: ModelParams, rel: int, position: int) -> np.ndarray:
    """Pattern matrix of one role slot, shape (arity, multiplicity)."""
    terms = relation_terms(params, rel)
    if not 0 <= position < params.arity_of(rel):
        raise DimensionError(
            f"position {position} out of range for arity {params.arity_of(rel)}"
        )
    pat = terms.patterns[position]
    if pat.shape[0] == 1 and pat.shape[1] == 1:
        return pat[0, 0]
    return pat
