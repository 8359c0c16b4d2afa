"""Constructive exact separation of a ground truth by a raw-mode model.

Given any finite set of true facts, parameters of a raw-mode model (no
softmax normalization anywhere) can be written down so that every true fact
scores exactly its arity and every other tuple scores exactly zero:

* embedding dimensionality and latent size equal the number of facts;
* the block of entity e has a 1 at (row i, column j) iff e fills role
  position i of the j-th fact;
* every pattern matrix is the arity-sized identity padded with zeros, so row
  i of the matrix selects row i of an entity block;
* the role vector of relation r has a 1 in column j iff fact j uses r.

Each multilinear term then counts the facts matching the query exactly, and
all arithmetic stays on small integers represented exactly in floats.

The ground truth is a vocabulary and its distinct true facts, as
``build_kb`` indexes a split; ``ram express`` reads it from one split file
in either dataset format.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import TableCandidates, forward_group
from .errors import ConfigError
from .kb import Fact, Facts, GroupSpec, Vocabulary, as_facts, split_groups
from .model import ModelConfig, ModelParams

ENUMERATION_CAP = 1_000_000
# entity columns scored per forward_group call in verify_separation
SEPARATION_CHUNK = 256


def construct(vocab: Vocabulary, facts: Facts | list[Fact]) -> ModelParams:
    """Raw-mode parameters that exactly separate the distinct true facts."""
    facts = as_facts(facts)
    n_facts, max_arity = len(facts), vocab.max_arity
    cfg = ModelConfig(embed_dim=n_facts, multiplicity=max_arity, latent_size=n_facts, mode="raw")
    params = ModelParams(cfg, vocab)
    ent = np.zeros((vocab.n_entities, max_arity, n_facts))
    fact = np.repeat(np.arange(n_facts), facts.arity)  # the fact of each entity slot
    ent[facts.ents, np.arange(facts.ents.size) - facts.offsets[fact], fact] = 1.0
    params.data[("ent",)] = ent
    for rel, (_, arity) in enumerate(vocab.relations):
        u = np.zeros((arity, n_facts))
        u[:, facts.rels == rel] = 1.0
        params.data[("raw_u", rel)] = u
        pattern = np.zeros((arity, arity, max_arity))
        pattern[:, np.arange(arity), np.arange(arity)] = 1.0
        params.data[("raw_p", rel)] = pattern
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


def _relation_scores(params: ModelParams, rel: int) -> np.ndarray:
    """Scores of every entity tuple of one relation, shape (n_entities,) * arity.

    Each group row fixes the first arity-1 entities; the full-table scores of
    its last position give a whole column of tuples at once.
    """
    n_entities, arity = params.vocab.n_entities, params.vocab.arity(rel)
    heads = np.indices((n_entities,) * (arity - 1)).reshape(arity - 1, -1).T
    out = np.empty((len(heads), n_entities))
    for lo in range(0, len(heads), SEPARATION_CHUNK):
        chunk = heads[lo : lo + SEPARATION_CHUNK]
        ents = np.zeros((len(chunk), arity), dtype=np.intp)
        ents[:, :-1] = chunk
        spec = GroupSpec(arity, np.full(len(chunk), rel, dtype=np.intp), ents,
                         np.arange(len(chunk), dtype=np.intp), slice(0, ents.size))
        scores = TableCandidates(params, ents).scores(forward_group(params, spec).gather)
        out[lo : lo + len(chunk)] = scores[:, arity - 1, :]
    return out.reshape((n_entities,) * arity)


def verify_separation(params: ModelParams, facts: Facts | list[Fact]) -> SeparationReport:
    """Exhaustively check that true facts score positive and others zero,
    over every entity tuple of every relation of ``params.vocab``.

    Passes iff the smallest true-fact score is positive and the largest
    score over all non-true tuples is exactly zero.
    """
    n_entities = params.vocab.n_entities
    total = sum(n_entities ** arity for _, arity in params.vocab.relations)
    if total > ENUMERATION_CAP:
        raise ConfigError(
            f"{total} candidate tuples exceed the enumeration cap "
            f"{ENUMERATION_CAP}; use a smaller ground truth"
        )
    facts = as_facts(facts)
    true_scores, false_scores = [], []
    for rel, (_, arity) in enumerate(params.vocab.relations):
        scores = _relation_scores(params, rel)
        is_true = np.zeros(scores.shape, dtype=bool)
        is_true[tuple(facts[facts.rels == rel].ents.reshape(-1, arity).T)] = True
        true_scores.append(scores[is_true])
        false_scores.append(scores[~is_true])
    true_all, false_all = np.concatenate(true_scores), np.concatenate(false_scores)
    min_true = float(true_all.min())
    max_false = float(false_all.max()) if false_all.size else 0.0
    passed = min_true > 0 and max_false == 0.0
    return SeparationReport(passed, min_true, max_false, len(facts), total)
