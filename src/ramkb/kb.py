"""Datasets of n-ary relational facts.

A dataset comes in one of two distribution formats: tabular lines
(``relation entity...``) and role-annotated JSON lines (``{role: entity}``).
This module parses both, builds dense vocabularies over the union of
splits, and writes a split back in whichever of the two formats holds it,
so a written subset reads back as the same facts.

It also owns the known-true index of filtered ranking (Bordes et al., NIPS
2013): for every (relation, position, other entities) key met in any split,
the entities known true at that slot. :class:`KnowledgeBase` builds it once,
as sorted int64 arrays, in a few whole-array passes with no per-slot Python,
and :meth:`KnowledgeBase.filtered_candidates` looks a batch of facts up in
it with one ``searchsorted`` per key column.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable

import numpy as np

from .errors import ConfigError, DataError, ParseError
from .mathcore import make_rng

log = logging.getLogger("ramkb.kb")

# (relation name, entity names, role names or None)
RawFact = tuple[str, tuple[str, ...], tuple[str, ...] | None]


@dataclass(frozen=True)
class Fact:
    """One n-ary fact: a relation plus its ordered entity slots.

    The role each slot plays belongs to the relation, in
    ``Vocabulary.rel_roles``.
    """

    relation: int
    entities: tuple[int, ...]

    @property
    def arity(self) -> int:
        return len(self.entities)


class Vocabulary:
    """Dense entity/relation/role index maps.

    Relations are keyed by (name, arity): the same surface name used at two
    arities is two independent relations, because pattern parameters are
    arity-shaped and cannot be shared.
    """

    def __init__(self) -> None:
        self.entities: list[str] = []
        self.entity_index: dict[str, int] = {}
        self.relations: list[tuple[str, int]] = []
        self.relation_index: dict[tuple[str, int], int] = {}
        self.roles: list[str] = []
        self.role_index: dict[str, int] = {}
        # per-relation tuple of global role ids (role-annotated data only)
        self.rel_roles: dict[int, tuple[int, ...]] = {}

    def add_entity(self, name: str) -> int:
        idx = self.entity_index.get(name)
        if idx is None:
            idx = len(self.entities)
            self.entities.append(name)
            self.entity_index[name] = idx
        return idx

    def add_relation(self, name: str, arity: int) -> int:
        key = (name, arity)
        idx = self.relation_index.get(key)
        if idx is None:
            idx = len(self.relations)
            self.relations.append(key)
            self.relation_index[key] = idx
        return idx

    def add_role(self, name: str) -> int:
        idx = self.role_index.get(name)
        if idx is None:
            idx = len(self.roles)
            self.roles.append(name)
            self.role_index[name] = idx
        return idx

    @property
    def n_entities(self) -> int:
        return len(self.entities)

    @property
    def n_relations(self) -> int:
        return len(self.relations)

    @property
    def n_roles(self) -> int:
        return len(self.roles)

    def arity(self, relation: int) -> int:
        return self.relations[relation][1]

    @property
    def max_arity(self) -> int:
        if not self.relations:
            return 0
        return max(a for _, a in self.relations)

    @property
    def arities(self) -> tuple[int, ...]:
        return tuple(sorted({a for _, a in self.relations}))

    def to_dict(self) -> dict:
        out: dict = {
            "entities": self.entities,
            "relations": [[n, a] for n, a in self.relations],
        }
        if self.roles:
            out["roles"] = self.roles
            out["rel_roles"] = {str(r): list(g) for r, g in self.rel_roles.items()}
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Vocabulary":
        """Inverse of :meth:`to_dict`.

        An entity, relation or role name that is not a string, or an arity or
        role id that is not an int (a bool, a float, a string), raises
        TypeError rather than being coerced.
        """
        if not (_is_names(data["entities"]) and _is_names(data.get("roles", []))):
            raise TypeError("entity and role names must be lists of strings")
        vocab = cls()
        for name in data["entities"]:
            vocab.add_entity(name)
        for name, arity in data["relations"]:
            if not isinstance(name, str):
                raise TypeError(f"relation name {name!r} is not a string")
            vocab.add_relation(name, _json_int(arity, "arity"))
        for name in data.get("roles", []):
            vocab.add_role(name)
        for rel, group in data.get("rel_roles", {}).items():
            vocab.rel_roles[int(rel)] = tuple(_json_int(g, "role id") for g in group)
        return vocab


def _json_int(value, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{what} {value!r} is not an int")
    return value


def parse_tabular(lines: Iterable[str]) -> list[RawFact]:
    """Parse whitespace/tab separated lines: relation name then >= 2 entities."""
    facts: list[RawFact] = []
    for line_no, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) < 3:
            raise ParseError(
                line_no, f"expected relation plus >= 2 entities, got {len(tokens)} token(s)"
            )
        facts.append((tokens[0], tuple(tokens[1:]), None))
    return facts


def parse_role_json(lines: Iterable[str]) -> list[RawFact]:
    """Parse JSON-lines facts mapping role names to entity names.

    Role keys are sorted lexicographically so role order is deterministic per
    relation; the relation name is the sorted role names joined with "|".
    Facts with a multi-valued role or a non-string value are dropped with a
    logged warning since the model scores fixed-length role-entity tuples.
    A fact with fewer than two roles raises ParseError.
    """
    facts: list[RawFact] = []
    dropped = 0
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(line_no, f"invalid JSON: {exc.msg}") from exc
        if not isinstance(obj, dict):
            raise ParseError(line_no, "expected a JSON object per line")
        if any(not isinstance(v, str) for v in obj.values()):
            dropped += 1
            log.warning("line %d: dropped fact with multi-valued or literal role", line_no)
            continue
        if len(obj) < 2:
            raise ParseError(line_no, f"expected >= 2 roles, got {len(obj)}")
        roles = tuple(sorted(obj.keys()))
        entities = tuple(obj[r] for r in roles)
        facts.append(("|".join(roles), entities, roles))
    if dropped:
        log.warning("dropped %d fact(s) with multi-valued or literal roles", dropped)
    return facts


def _is_names(value) -> bool:
    return isinstance(value, list) and all(isinstance(name, str) for name in value)


# Key codes are int64; every code is below n_ids * (n_entities + 1).
CODE_LIMIT = 2**63


class KnowledgeBase:
    """A dataset plus its known-true index for filtered ranking.

    The index lists, for every key (relation, position, the other entities
    in order) met in any split, the distinct entities known true at that
    slot. ``__init__`` builds it as sorted int64 arrays:

    - every (fact, position) of every split is one key row
      ``[relation * A + position, other entities...]``, where A is the
      vocabulary's largest arity and a fact of lower arity pads its other
      entities with ``n_entities``;
    - the rows are encoded into dense ids one column at a time: column j's
      code is ``id * (n_entities + 1) + entity``, where ``id`` numbers the
      distinct prefixes of columns before j, and ``np.unique`` turns the
      codes into the next ids. ``_levels[j]`` keeps column j's sorted
      distinct codes, so a lookup is one ``searchsorted`` per column;
    - a CSR table maps each key id to its distinct true entities in
      increasing order: ``_true[_offsets[k]:_offsets[k + 1]]``.

    The codes are exact int64 while the number of distinct ids at every
    column times ``n_entities + 1`` stays below 2**63 (``CODE_LIMIT``); a KB
    past that raises DataError. Instances are immutable after construction
    and safe to share across parallel readers. A shallow copy with a
    replaced split shares the index, so it still filters by the whole KB it
    was copied from.
    """

    def __init__(
        self,
        vocab: Vocabulary,
        train: list[Fact],
        valid: list[Fact],
        test: list[Fact],
    ) -> None:
        self.vocab = vocab
        self.train = train
        self.valid = valid
        self.test = test
        self._width = vocab.max_arity
        self._base = vocab.n_entities + 1
        columns, own = _key_columns(list(self.all_facts()), self._width, vocab.n_entities)
        self._levels: list[np.ndarray] = []
        # column 0 follows the one empty prefix, so its codes are its values
        ids, n_ids = np.zeros(own.size, dtype=np.int64), 1
        for column in columns:
            levels, ids = np.unique(
                _encode(ids, n_ids, column, self._base), return_inverse=True
            )
            self._levels.append(levels)
            n_ids = levels.size
        pairs = np.unique(_encode(ids, n_ids, own, self._base))
        self._true = (pairs % self._base).astype(np.intp)
        self._offsets = np.searchsorted(pairs // self._base, np.arange(n_ids + 1))

    def all_facts(self) -> Iterable[Fact]:
        yield from self.train
        yield from self.valid
        yield from self.test

    def split(self, name: str) -> list[Fact]:
        try:
            return {"train": self.train, "valid": self.valid, "test": self.test}[name]
        except KeyError:
            raise DataError(f"unknown split {name!r}") from None

    def filtered_candidates(self, facts: list[Fact]) -> tuple[np.ndarray, np.ndarray]:
        """Entities filtered out of the ranking queries of facts of any arities.

        Fact i's queries are numbered ``start_i + p``, one per slot p, where
        ``start_i`` sums the arities of the facts before it. Returns flat
        (query, entity) index arrays of every entity known true at a query's
        slot (in any split) other than the queried fact's own entity there;
        every other entity is a ranking candidate. Pairs come grouped by
        query, entities increasing within a query.
        """
        if not self._true.size:
            return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
        columns, own = _key_columns(facts, self._width, self._base - 1)
        ids = np.zeros(own.size, dtype=np.int64)
        found = np.ones(own.size, dtype=bool)
        for levels, column in zip(self._levels, columns):
            code = ids * self._base + column
            ids = np.minimum(np.searchsorted(levels, code), levels.size - 1)
            found &= levels[ids] == code
        lo = self._offsets[ids]
        count = np.where(found, self._offsets[ids + 1] - lo, 0)
        query = np.repeat(np.arange(own.size), count)
        # the pairs of query q read _true[lo[q] : lo[q] + count[q]]
        start = np.cumsum(count) - count
        entity = self._true[np.arange(query.size) + np.repeat(lo - start, count)]
        keep = entity != own[query]
        return query[keep], entity[keep]

    def stats(self) -> dict:
        arity_hist: dict[int, int] = {}
        for fact in self.train:
            arity_hist[fact.arity] = arity_hist.get(fact.arity, 0) + 1
        train_entities = {e for f in self.train for e in f.entities}
        train_relations = {f.relation for f in self.train}
        return {
            "n_entities": self.vocab.n_entities,
            "n_relations": self.vocab.n_relations,
            "max_arity": self.vocab.max_arity,
            "arities": list(self.vocab.arities),
            "n_train": len(self.train),
            "n_valid": len(self.valid),
            "n_test": len(self.test),
            "train_arity_histogram": {str(a): c for a, c in sorted(arity_hist.items())},
            "entities_outside_train": self.vocab.n_entities - len(train_entities),
            "relations_outside_train": self.vocab.n_relations - len(train_relations),
        }


def _key_columns(
    facts: list[Fact], width: int, pad: int
) -> tuple[list[np.ndarray], np.ndarray]:
    """The key columns and own entity of every (fact, position) of facts.

    Rows are in query order, fact i's slot p at row ``start_i + p``, and
    ``own`` holds the entity at each slot. Column 0 is ``relation * width +
    position``; column j >= 1 is the slot's j-th other entity, or `pad` past
    the fact's arity.
    """
    n = len(facts)
    arity = np.fromiter((len(f.entities) for f in facts), dtype=np.int64, count=n)
    relation = np.fromiter((f.relation for f in facts), dtype=np.int64, count=n)
    own = np.fromiter(
        chain.from_iterable(f.entities for f in facts), dtype=np.int64, count=int(arity.sum())
    )
    fact = np.repeat(np.arange(n), arity)
    position = np.arange(own.size) - np.repeat(np.cumsum(arity) - arity, arity)
    padded = np.full((n, width), pad, dtype=np.int64)
    padded[np.arange(width) < arity[:, None]] = own
    # the j-th other entity of slot p sits at column j, or j + 1 from p on
    others = [padded[fact, j + (position <= j)] for j in range(width - 1)]
    return [relation[fact] * width + position, *others], own


def _encode(ids: np.ndarray, n_ids: int, column: np.ndarray, base: int) -> np.ndarray:
    """``ids * base + column``, distinct per (id, column value) pair.

    Raises DataError when ``n_ids * base`` reaches ``CODE_LIMIT``, past
    which int64 codes could wrap.
    """
    if n_ids * base >= CODE_LIMIT:
        raise DataError(
            f"known-true index: {n_ids} distinct key prefixes times {base} "
            f"entity codes reaches 2**63; the KB is too large to index"
        )
    return ids * base + column


def build_kb(
    train: list[RawFact],
    valid: list[RawFact] | None = None,
    test: list[RawFact] | None = None,
) -> KnowledgeBase:
    """Index raw facts into a KnowledgeBase.

    Vocabularies are built over the union of all splits so evaluation never
    meets an out-of-vocabulary entity; names appearing only in valid/test
    still get indices (reported by :meth:`KnowledgeBase.stats`). Each call
    builds its own :class:`Vocabulary`, so two KBs are comparable by index
    only when they share one, as in ``KnowledgeBase(other.vocab, ...)``.
    """
    valid = valid or []
    test = test or []
    if not train:
        raise DataError("empty training split")
    vocab = Vocabulary()
    splits: list[list[Fact]] = []
    for raw_split in (train, valid, test):
        facts: list[Fact] = []
        for name, entities, roles in raw_split:
            arity = len(entities)
            if arity < 2:
                raise DataError(f"relation {name!r}: facts need >= 2 entities")
            rel = vocab.add_relation(name, arity)
            ent_ids = tuple(vocab.add_entity(e) for e in entities)
            if roles is not None:
                role_ids = tuple(vocab.add_role(r) for r in roles)
                seen = vocab.rel_roles.setdefault(rel, role_ids)
                if seen != role_ids:
                    raise DataError(
                        f"relation {name!r} used with inconsistent role lists"
                    )
            facts.append(Fact(rel, ent_ids))
        splits.append(facts)
    kb = KnowledgeBase(vocab, *splits)
    if log.isEnabledFor(logging.INFO):
        log.info("loaded KB: %s", kb.stats())
    return kb


def subset_by_arity(
    kb: KnowledgeBase,
    keep: Callable[[int], bool] = lambda arity: True,
    binary_keep_ratio: float = 1.0,
    seed: int = 0,
) -> KnowledgeBase:
    """Keep the facts of every split whose arity passes `keep`, and downsample
    binary training facts.

    The predicate applies to all three splits, so the subset's relations are
    those of the kept arities. Among binary training facts passing it, a
    uniformly random fraction `binary_keep_ratio` is kept (exact count,
    rounded), chosen deterministically from `seed`; valid and test keep all
    of theirs. The known-true index is rebuilt over the kept facts. A ratio
    outside [0, 1] (or NaN) raises ConfigError; an empty training split
    raises DataError.
    """
    if not 0.0 <= binary_keep_ratio <= 1.0:
        raise ConfigError(f"binary_keep_ratio must be in [0, 1], got {binary_keep_ratio}")
    kept = [i for i, f in enumerate(kb.train) if keep(f.arity)]
    binary = [i for i in kept if kb.train[i].arity == 2]
    n_keep = int(round(binary_keep_ratio * len(binary)))
    selected = {i for i in kept if kb.train[i].arity != 2}
    if n_keep < len(binary):
        rng = make_rng(seed)
        chosen = rng.choice(len(binary), size=n_keep, replace=False)
        selected.update(binary[i] for i in chosen)
    else:
        selected.update(binary)
    new_train = [kb.train[i] for i in sorted(selected)]
    if not new_train:
        raise DataError("empty training split after arity/ratio subsetting")
    valid, test = ([f for f in facts if keep(f.arity)] for facts in (kb.valid, kb.test))
    return KnowledgeBase(kb.vocab, new_train, valid, test)


def export_split(kb: KnowledgeBase, split: str) -> tuple[str, list[str]]:
    """Render a split in a distribution format, returning (suffix, lines).

    When every fact's relation has roles the lines are role-annotated JSON
    (suffix ".jsonl"), otherwise tab-separated ``relation entity...`` lines
    (suffix ".txt"); an empty split takes the format of the training split.
    Parsing the lines by their suffix and indexing them with :func:`build_kb`
    gives back the split of a KB loaded from those formats: the same facts in
    the same order, relation names and roles included.
    """
    vocab = kb.vocab
    facts = kb.split(split)
    if all(f.relation in vocab.rel_roles for f in facts or kb.train):
        return ".jsonl", [
            json.dumps(
                {vocab.roles[r]: vocab.entities[e]
                 for r, e in zip(vocab.rel_roles[f.relation], f.entities)},
                ensure_ascii=False,
            )
            for f in facts
        ]
    return ".txt", [
        "\t".join([vocab.relations[f.relation][0], *(vocab.entities[e] for e in f.entities)])
        for f in facts
    ]
