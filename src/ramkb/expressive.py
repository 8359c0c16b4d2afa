"""Constructive exact separation of a ground truth by the paper's latent model.

For any finite set of true facts, :func:`construct` writes latent-mode
parameters under which every true fact scores exactly its arity and every
other tuple exactly zero. It takes ``ModelParams.init`` with d the number of
facts, K the number of relations and m the largest arity plus one, and
overwrites the slots' values. With w the power of two at or above the arity
a of relation r:

* row r of ``basis_u`` is the indicator of r's facts, and ``("alpha", r)``
  has logit 0 at index r and -1000 elsewhere, so every role of r is row r;
* row r of ``("basis_p", a)`` has logit 0 on the diagonal (j, j) and on
  w - a entries of the last column, -1000 elsewhere: 1/w each once softmaxed;
* the block of entity e holds w at (i, j) iff e fills position i of fact j.
  Its last row is zero, so the pattern mass put there scores nothing.

The exactness is a float64 fact: exp(-1000) underflows to exactly 0.0, so
every softmax output, product and partial sum is a small multiple of a power
of two. A mass of 1/a would not do, as the engine sums a position's a
pattern weights before it multiplies: 6 * (1/6 + ... + 1/6), six terms, is
5.999999999999999. In exact arithmetic, these same parameters score a false
tuple within e^-1000 of 0.

The ground truth is a vocabulary and its distinct true facts, as
``build_kb`` indexes a split; ``ram express`` reads it from one split file
in either dataset format.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import TableCandidates, forward_group
from .errors import ConfigError
from .kb import Facts, GroupSpec, Vocabulary, split_groups
from .model import ModelConfig, ModelParams

ENUMERATION_CAP = 1_000_000
# entity columns scored per forward_group call in verify_separation
SEPARATION_CHUNK = 256


def enumeration_size(vocab: Vocabulary) -> int:
    """The number of entity tuples over every relation of `vocab`; a
    ConfigError past ENUMERATION_CAP, raised before anything is allocated."""
    total = sum(vocab.n_entities ** arity for _, arity in vocab.relations)
    if total > ENUMERATION_CAP:
        raise ConfigError(
            f"{total} candidate tuples exceed the enumeration cap "
            f"{ENUMERATION_CAP}; use a smaller ground truth"
        )
    return total


def construct(vocab: Vocabulary, facts: Facts) -> ModelParams:
    """Latent-mode parameters that exactly separate the distinct true facts."""
    enumeration_size(vocab)
    n_facts, sink = len(facts), vocab.max_arity
    cfg = ModelConfig(embed_dim=n_facts, multiplicity=sink + 1,
                      latent_size=vocab.n_relations, mode="latent")
    params = ModelParams.init(cfg, vocab)
    width = np.array([1 << (arity - 1).bit_length() for _, arity in vocab.relations])
    ent = params.data[("ent",)]
    ent[...] = 0.0
    fact = np.repeat(np.arange(n_facts), facts.arity)  # the fact of each entity slot
    slot = np.arange(facts.ents.size) - facts.offsets[fact]
    ent[facts.ents, slot, fact] = width[facts.rels[fact]]
    params.data[("basis_u",)][...] = np.arange(vocab.n_relations)[:, None] == facts.rels
    logits = np.where(np.eye(vocab.n_relations, dtype=bool), 0.0, -1000.0)  # row r: index r
    for rel, (_, arity) in enumerate(vocab.relations):
        params.data[("alpha", rel)][...] = logits[rel]  # (arity, 1, K)
        pattern = params.data[("basis_p", arity)][rel]  # (arity, m)
        pattern[...] = -1000.0
        pattern[np.arange(arity), np.arange(arity)] = 0.0
        pattern[np.arange(width[rel] - arity), sink] = 0.0
    return params


def distinct_facts(vocab: Vocabulary, facts: Facts) -> Facts:
    """The distinct facts of a non-empty `facts`, each where it first appears."""
    firsts = [spec.fact_index[np.unique(np.column_stack([spec.rels, spec.ents]), axis=0,
                                        return_index=True)[1]]
              for spec in split_groups(vocab, facts)]
    return facts[np.sort(np.concatenate(firsts))]


@dataclass
class SeparationReport:
    passed: bool
    min_true_score: float
    max_false_score: float
    n_true: int
    n_enumerated: int


def _places(n_entities: int, size: int) -> np.ndarray:
    """The place values of a `size`-digit base-`n_entities` code, most
    significant first. Every code of a relation stays below its tuple count,
    at most ENUMERATION_CAP, so it is exact in int64."""
    return n_entities ** np.arange(size - 1, -1, -1)


def _relation_scores(params: ModelParams, rel: int) -> np.ndarray:
    """Scores of every entity tuple of one relation, (n_entities ** arity,):
    a tuple's score at its base-n_entities code, first entity most significant.

    Each group row fixes the first arity-1 entities, a head code's digits;
    the full-table scores of its last position give n_entities consecutive
    codes at once.
    """
    n_entities, arity = params.vocab.n_entities, params.vocab.arity(rel)
    n_heads, places = n_entities ** (arity - 1), _places(n_entities, arity - 1)
    out = np.empty((n_heads, n_entities))
    for lo in range(0, n_heads, SEPARATION_CHUNK):
        heads = np.arange(lo, min(lo + SEPARATION_CHUNK, n_heads))
        ents = np.zeros((len(heads), arity), dtype=np.intp)
        ents[:, :-1] = heads[:, None] // places % n_entities
        spec = GroupSpec(arity, np.full(len(heads), rel, dtype=np.intp), ents,
                         np.arange(len(heads), dtype=np.intp), slice(0, ents.size))
        scores = TableCandidates(params, ents).scores(forward_group(params, spec).gather)
        out[lo : lo + len(heads)] = scores[:, arity - 1, :]
    return out.reshape(-1)


def verify_separation(params: ModelParams, facts: Facts) -> SeparationReport:
    """Exhaustively check that true facts score positive and others zero,
    over every entity tuple of every relation of ``params.vocab``.

    Passes iff the smallest true-fact score is positive and the largest
    score over all non-true tuples is exactly zero.
    """
    total = enumeration_size(params.vocab)
    n_entities = params.vocab.n_entities
    true_scores, false_scores = [], []
    for rel, (_, arity) in enumerate(params.vocab.relations):
        scores = _relation_scores(params, rel)
        codes = facts[facts.rels == rel].ents.reshape(-1, arity) @ _places(n_entities, arity)
        is_true = np.zeros(scores.size, dtype=bool)
        is_true[codes] = True
        true_scores.append(scores[is_true])
        false_scores.append(scores[~is_true])
    true_all, false_all = np.concatenate(true_scores), np.concatenate(false_scores)
    min_true = float(true_all.min())
    max_false = float(false_all.max()) if false_all.size else 0.0
    passed = min_true > 0 and max_false == 0.0
    return SeparationReport(passed, min_true, max_false, len(facts), total)
