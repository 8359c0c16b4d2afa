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
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .engine import GroupSpec, TableCandidates, forward_group
from .errors import ConfigError, DataError
from .kb import Fact, Vocabulary, _is_names
from .model import ModelConfig, ModelParams

ENUMERATION_CAP = 1_000_000
# entity columns scored per forward_group call in verify_separation
SEPARATION_CHUNK = 256


@dataclass(frozen=True)
class GroundTruth:
    """The complete set of true facts over a small vocabulary."""

    facts: tuple[Fact, ...]
    vocab: Vocabulary

    def __post_init__(self) -> None:
        if len(self.facts) < 1:
            raise DataError("ground truth needs at least one fact")
        if len(set(self.facts)) != len(self.facts):
            raise DataError("ground truth contains duplicate facts")
        for fact in self.facts:
            if fact.arity != self.vocab.arity(fact.relation):
                raise DataError("fact arity does not match its relation")


def ground_truth_from_json(text: str) -> GroundTruth:
    """Load a ground truth from a JSON document.

    Expected shape: {"facts": [{"relation": str, "entities": [str, ...]},
    ...], "entities": [str, ...]?} where the optional entity list adds
    vocabulary entries beyond those appearing in facts. A document of any
    other shape, or with a name that is not a string, raises DataError.
    """
    try:
        data = json.loads(text)
        raw_facts = data.get("facts")
        if not raw_facts:
            raise DataError("ground truth JSON needs a non-empty 'facts' list")
        names = data.get("entities", [])
        if not _is_names(names):
            raise DataError("ground truth 'entities' must be a list of strings")
        vocab = Vocabulary()
        for name in names:
            vocab.add_entity(name)
        facts = []
        for obj in raw_facts:
            relation, entities = obj["relation"], obj["entities"]
            if not (isinstance(relation, str) and _is_names(entities)):
                raise DataError(
                    "a fact's 'relation' must be a string and its 'entities' a list of strings"
                )
            if len(entities) < 2:
                raise DataError("facts need >= 2 entities")
            rel = vocab.add_relation(relation, len(entities))
            facts.append(Fact(rel, tuple(vocab.add_entity(e) for e in entities)))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed ground truth JSON ({exc!r})") from None
    return GroundTruth(tuple(facts), vocab)


def construct(gt: GroundTruth) -> ModelParams:
    """Raw-mode parameters that exactly separate the ground truth."""
    n_facts = len(gt.facts)
    max_arity = gt.vocab.max_arity
    cfg = ModelConfig(
        embed_dim=n_facts,
        multiplicity=max_arity,
        latent_size=n_facts,
        mode="raw",
    )
    params = ModelParams(cfg, gt.vocab)
    ent = np.zeros((gt.vocab.n_entities, max_arity, n_facts))
    for j, fact in enumerate(gt.facts):
        for i, entity in enumerate(fact.entities):
            ent[entity, i, j] = 1.0
    params.data[("ent",)] = ent

    rel_columns: dict[int, list[int]] = {}
    for j, fact in enumerate(gt.facts):
        rel_columns.setdefault(fact.relation, []).append(j)
    for rel, (_, arity) in enumerate(gt.vocab.relations):
        u = np.zeros((arity, n_facts))
        for j in rel_columns.get(rel, []):
            u[:, j] = 1.0
        params.data[("raw_u", rel)] = u
        pattern = np.zeros((arity, arity, max_arity))
        for i in range(arity):
            pattern[i, np.arange(arity), np.arange(arity)] = 1.0
        params.data[("raw_p", rel)] = pattern
    return params


@dataclass
class SeparationReport:
    passed: bool
    min_true_score: float
    max_false_score: float
    n_true: int
    n_enumerated: int

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "min_true_score": self.min_true_score,
            "max_false_score": self.max_false_score,
            "n_true": self.n_true,
            "n_enumerated": self.n_enumerated,
        }


def _relation_scores(params: ModelParams, rel: int, arity: int, n_entities: int) -> np.ndarray:
    """Scores of every entity tuple of one relation, shape (n_entities,) * arity.

    Each group row fixes the first arity-1 entities; the full-table scores of
    its last position give a whole column of tuples at once.
    """
    heads = np.indices((n_entities,) * (arity - 1)).reshape(arity - 1, -1).T
    out = np.empty((len(heads), n_entities))
    for lo in range(0, len(heads), SEPARATION_CHUNK):
        chunk = heads[lo : lo + SEPARATION_CHUNK]
        ents = np.zeros((len(chunk), arity), dtype=np.intp)
        ents[:, :-1] = chunk
        spec = GroupSpec(arity, np.full(len(chunk), rel, dtype=np.intp), ents,
                         np.arange(len(chunk), dtype=np.intp))
        scores = TableCandidates(params, ents).scores(forward_group(params, spec).gather)
        out[lo : lo + len(chunk)] = scores[:, arity - 1, :]
    return out.reshape((n_entities,) * arity)


def verify_separation(gt: GroundTruth, params: ModelParams) -> SeparationReport:
    """Exhaustively check that true facts score positive and others zero.

    Passes iff the smallest true-fact score is positive and the largest
    score over all non-true tuples is exactly zero.
    """
    n_entities = gt.vocab.n_entities
    total = sum(n_entities ** arity for _, arity in gt.vocab.relations)
    if total > ENUMERATION_CAP:
        raise ConfigError(
            f"{total} candidate tuples exceed the enumeration cap "
            f"{ENUMERATION_CAP}; use a smaller ground truth"
        )
    true_scores = []
    false_scores = []
    for rel, (_, arity) in enumerate(gt.vocab.relations):
        scores = _relation_scores(params, rel, arity, n_entities)
        is_true = np.zeros(scores.shape, dtype=bool)
        for fact in gt.facts:
            if fact.relation == rel:
                is_true[fact.entities] = True
        true_scores.append(scores[is_true])
        false_scores.append(scores[~is_true])
    true_all = np.concatenate(true_scores)
    false_all = np.concatenate(false_scores)
    min_true = float(true_all.min())
    max_false = float(false_all.max()) if false_all.size else 0.0
    passed = min_true > 0 and max_false == 0.0
    return SeparationReport(passed, min_true, max_false, len(gt.facts), total)
