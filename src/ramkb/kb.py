"""Datasets of n-ary relational facts.

A dataset comes in one of two distribution formats: tabular lines
(``relation entity...``) and role-annotated JSON lines (``{role: entity}``).
This module parses both, builds dense vocabularies over the union of
splits, and writes a split back in whichever of the two formats holds it,
so a written subset reads back as the same facts.

A split is held as a :class:`Facts`: int arrays of relations and arities,
and every fact's entities in one flat array with offsets, 24 bytes per
fact plus 8 per entity slot and no Python object per fact. :func:`build_kb`
fills them in whole-list passes, and training batches, ranking batches and
subsets are gathered from them by index. :class:`Fact` is the element
that an integer index and iteration give. A plain list of Fact is accepted
wherever facts are passed in, and :func:`as_facts` decodes it into arrays
once.

:func:`split_groups` turns a fact sequence into one :class:`GroupSpec` per
arity, in ascending arity, each holding its facts in sequence order. It
also fixes the one row order that training, ranking and the known-true
index share. A (fact, slot) pair is one row, and the rows stack group by
group, fact by fact, slot by slot.

This module also owns the known-true index of filtered ranking (Bordes et
al., NIPS 2013): for every (relation, position, other entities) key met in
any split, the entities known true at that slot. :class:`KnowledgeBase`
builds it once, as sorted int64 arrays, in a few whole-array passes with no
per-slot Python. :meth:`KnowledgeBase.filtered_candidates` looks the rows
of a batch's arity groups up in it with one ``searchsorted`` per level of
packed key columns, and is the one place that decides which entities a
query does not rank against: its own and the known-true ones.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from itertools import chain, repeat
from operator import is_not, itemgetter
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import ConfigError, DataError, DimensionError, ParseError
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


class Facts:
    """An immutable sequence of facts held as int arrays, with no object per fact.

    ``rels`` and ``arity`` hold one entry per fact. ``ents`` holds the
    facts' entities one fact after another, fact i's at
    ``ents[offsets[i]:offsets[i + 1]]``; ``offsets`` has one entry more
    than there are facts. All four are read-only intp arrays, so a split
    costs 24 bytes per fact plus 8 per entity slot.

    An integer index and iteration give :class:`Fact` objects. A slice, an
    integer or boolean index array, and ``+`` with another Facts give a new
    Facts, gathered in whole-array passes. Two Facts are equal when their
    arrays are.
    """

    __slots__ = ("rels", "arity", "ents", "offsets")

    def __init__(self, rels, arity, ents) -> None:
        offsets = np.zeros(len(arity) + 1, dtype=np.intp)
        np.cumsum(arity, out=offsets[1:])
        if len(rels) != len(arity) or offsets[-1] != len(ents):
            raise ValueError(f"{len(rels)} relations, {len(arity)} arities and "
                             f"{len(ents)} entities do not make one fact list")
        for name, value in zip(self.__slots__, (rels, arity, ents, offsets)):
            value = np.asarray(value, dtype=np.intp).view()  # the caller's array stays writeable
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value) -> None:
        raise AttributeError(f"Facts is immutable; cannot set {name!r}")

    def __len__(self) -> int:
        return len(self.rels)

    def __getitem__(self, key):
        if isinstance(key, slice):
            lo, hi, step = key.indices(len(self))
            if step != 1:
                return self[np.arange(lo, hi, step)]
            hi = max(lo, hi)
            return Facts(self.rels[lo:hi], self.arity[lo:hi],
                         self.ents[self.offsets[lo] : self.offsets[hi]])
        if isinstance(key, (int, np.integer)):
            i = range(len(self))[key]
            return Fact(int(self.rels[i]),
                        tuple(self.ents[self.offsets[i] : self.offsets[i + 1]].tolist()))
        index = np.asarray(key)
        if index.dtype == bool:
            index = np.flatnonzero(index)
        arity = self.arity[index]
        ends = np.cumsum(arity)
        # entity j of the gathered list sits `starts - new starts` further on
        shift = np.repeat(self.offsets[:-1][index] - (ends - arity), arity)
        return Facts(self.rels[index], arity, self.ents[np.arange(shift.size) + shift])

    def __iter__(self) -> Iterator[Fact]:
        ents, bounds = self.ents.tolist(), self.offsets.tolist()
        for rel, lo, hi in zip(self.rels.tolist(), bounds, bounds[1:]):
            yield Fact(rel, tuple(ents[lo:hi]))

    def __add__(self, other):
        if not isinstance(other, Facts):
            return NotImplemented
        return Facts(*(np.concatenate([getattr(self, name), getattr(other, name)])
                       for name in ("rels", "arity", "ents")))

    def __eq__(self, other):
        if not isinstance(other, Facts):
            return NotImplemented
        return all(np.array_equal(getattr(self, name), getattr(other, name))
                   for name in ("rels", "arity", "ents"))

    __hash__ = None

    def __repr__(self) -> str:
        return f"Facts({len(self)} facts over relations {np.unique(self.rels).tolist()})"


def as_facts(facts: Facts | list[Fact]) -> Facts:
    """`facts` as a :class:`Facts`: itself, or a list of Fact decoded into arrays.

    This is the one place a list of Fact objects is read fact by fact.
    """
    if isinstance(facts, Facts):
        return facts
    n = len(facts)
    arity = np.fromiter((len(f.entities) for f in facts), dtype=np.intp, count=n)
    return Facts(np.fromiter((f.relation for f in facts), dtype=np.intp, count=n), arity,
                 np.fromiter(chain.from_iterable(f.entities for f in facts), dtype=np.intp,
                             count=int(arity.sum())))


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

        An entity, relation or role name that is not a string, an arity or
        role id that is not an int (a bool, a float, a string), or a
        `rel_roles` that is not an object raises TypeError rather than being
        coerced.
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
        rel_roles = data.get("rel_roles", {})
        if not isinstance(rel_roles, dict):
            raise TypeError(f"rel_roles {rel_roles!r} is not an object")
        for rel, group in rel_roles.items():
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


@dataclass
class GroupSpec:
    """The facts of one arity of a fact list, stacked into index arrays."""

    arity: int
    rels: np.ndarray  # (B,)
    ents: np.ndarray  # (B, a)
    fact_index: np.ndarray  # positions in the fact list
    rows: slice  # the group's (fact, slot) rows in the list's stacked row order


def split_groups(vocab: Vocabulary, facts: Facts | list[Fact]) -> list[GroupSpec]:
    """The arity groups of `facts`, in ascending arity, each with its facts
    in list order.

    The groups are gathered from the arrays of a :class:`Facts`; a list of
    Fact is decoded into one first (:func:`as_facts`). This fixes the
    stacked row order: group by group, fact by fact, slot by slot, so slot
    p of a group's i-th fact is row ``rows.start + i * arity + p``. Raises
    DimensionError at the first fact whose arity is not its relation's in
    `vocab`.
    """
    facts = as_facts(facts)
    rels, arity = facts.rels, facts.arity
    want = np.array([a for _, a in vocab.relations], dtype=np.intp)[rels]
    bad = np.flatnonzero(arity != want)
    if bad.size:
        raise DimensionError(f"fact arity {arity[bad[0]]} != relation arity {want[bad[0]]}")
    starts = facts.offsets[:-1]
    groups, row = [], 0
    for a in np.unique(arity).tolist():
        index = np.flatnonzero(arity == a)
        rows = slice(row, row + index.size * a)
        groups.append(GroupSpec(a, rels[index], facts.ents[starts[index, None] + np.arange(a)],
                                index, rows))
        row = rows.stop
    return groups


# Key codes are int64; every code of a level is below its distinct prefixes
# times the product of its column widths, which stays below this.
CODE_LIMIT = 2**63


class KnowledgeBase:
    """A dataset plus its known-true index for filtered ranking.

    ``train``, ``valid`` and ``test`` are each held as a :class:`Facts`; a
    list of Fact passed in is decoded into one (:func:`as_facts`).

    The index lists, for every key (relation, position, the other entities
    in order) met in any split, the distinct entities known true at that
    slot. ``__init__`` builds it as sorted int64 arrays:

    - every (fact, position) of every split is one key row
      ``[relation * A + position, other entities...]``, in the stacked row
      order of the splits' arity groups (:func:`split_groups`), where A is the
      vocabulary's largest arity and a fact of lower arity pads its other
      entities with ``n_entities``. Column 0 is ``n_relations * A`` wide and
      every other column ``n_entities + 1``;
    - the rows are encoded into dense ids one level at a time. A level packs
      consecutive columns into one code, ``id`` first and then each column
      as ``code * width + value``, where ``id`` numbers the distinct
      prefixes of the columns before the level. It takes columns for as long
      as that number times the product of their widths stays below
      ``CODE_LIMIT`` (2**63), so every code is exact in int64, and
      ``np.unique`` turns its codes into the next level's ids. ``_levels``
      keeps each level's end column and sorted distinct codes, so a lookup
      is one ``searchsorted`` per level. On the benchmark's planted KBs
      (3k and 30k entities, arities up to 6) the six columns pack into two
      levels;
    - a CSR table maps each key id to its distinct true entities in
      increasing order: ``_true[_offsets[k]:_offsets[k + 1]]``.

    A KB with a column that does not fit a level on its own, or whose key
    ids times ``n_entities + 1`` reach 2**63, raises DataError. Instances
    are immutable after construction and safe to share across parallel
    readers. A shallow copy with a replaced split shares the index, so it
    still filters by the whole KB it was copied from.
    """

    def __init__(
        self,
        vocab: Vocabulary,
        train: Facts | list[Fact],
        valid: Facts | list[Fact],
        test: Facts | list[Fact],
    ) -> None:
        self.vocab = vocab
        self.train = as_facts(train)
        self.valid = as_facts(valid)
        self.test = as_facts(test)
        self._width = vocab.max_arity
        self._base = vocab.n_entities + 1
        self._widths = [vocab.n_relations * self._width] + [self._base] * (self._width - 1)
        groups = split_groups(vocab, self.train + self.valid + self.test)
        columns, own = _key_columns(groups, self._width, vocab.n_entities)
        self._levels: list[tuple[int, np.ndarray]] = []
        # the first level follows the one empty prefix
        ids, n_ids, first = np.zeros(own.size, dtype=np.int64), 1, 0
        while first < len(columns):
            end = _level_end(n_ids, self._widths, first)
            codes, ids = np.unique(
                _pack(ids, columns[first:end], self._widths[first:end]), return_inverse=True
            )
            self._levels.append((end, codes))
            n_ids, first = codes.size, end
        # sorted, adjacent repeats dropped: np.unique's hash path is slower
        pairs = np.sort(_encode(ids, n_ids, own, self._base))
        pairs = pairs[np.diff(pairs, prepend=-1) != 0]
        self._true = (pairs % self._base).astype(np.intp)
        self._offsets = np.searchsorted(pairs // self._base, np.arange(n_ids + 1))

    def split(self, name: str) -> Facts:
        try:
            return {"train": self.train, "valid": self.valid, "test": self.test}[name]
        except KeyError:
            raise DataError(f"unknown split {name!r}") from None

    def filtered_candidates(self, groups: list[GroupSpec]) -> tuple[np.ndarray, np.ndarray]:
        """Every non-candidate of the ranking queries of a fact list's arity groups.

        A query is one (fact, slot) row of `groups` (:func:`split_groups`),
        numbered in their stacked row order: group by group, fact by fact,
        slot by slot. Returns flat (query, entity) index arrays of each
        query's own entity, the one its fact holds at its slot, and of every
        entity known true at that slot in any split, each pair once. Every
        other entity is a ranking candidate. Pairs come in entity order, and
        by query within an entity: the order in which the ranking walks the
        entity table.
        """
        columns, own = _key_columns(groups, self._width, self._base - 1)
        query, entity = np.arange(own.size), own
        if self._true.size:
            ids, first = np.zeros(own.size, dtype=np.int64), 0
            found = np.ones(own.size, dtype=bool)
            for end, codes in self._levels:
                code = _pack(ids, columns[first:end], self._widths[first:end])
                ids = np.minimum(np.searchsorted(codes, code), codes.size - 1)
                found &= codes[ids] == code
                first = end
            lo = self._offsets[ids]
            count = np.where(found, self._offsets[ids + 1] - lo, 0)
            # the known-true entities of query q are _true[lo[q] : lo[q] + count[q]]
            start = np.cumsum(count) - count
            known = self._true[np.arange(count.sum()) + np.repeat(lo - start, count)]
            query = np.concatenate([query, np.repeat(query, count)])
            entity = np.concatenate([entity, known])
        # one sort orders the pairs; a pair met twice, an own entity that is
        # also known true, is kept once
        code = np.sort(entity * own.size + query)
        entity, query = np.divmod(code[np.diff(code, prepend=-1) != 0], own.size)
        return query, entity

    def stats(self) -> dict:
        arities, counts = np.unique(self.train.arity, return_counts=True)
        return {
            "n_entities": self.vocab.n_entities,
            "n_relations": self.vocab.n_relations,
            "max_arity": self.vocab.max_arity,
            "arities": list(self.vocab.arities),
            "n_train": len(self.train),
            "n_valid": len(self.valid),
            "n_test": len(self.test),
            "train_arity_histogram": dict(zip(map(str, arities.tolist()), counts.tolist())),
            "entities_outside_train": self.vocab.n_entities - np.unique(self.train.ents).size,
            "relations_outside_train": self.vocab.n_relations - np.unique(self.train.rels).size,
        }


def _key_columns(
    groups: list[GroupSpec], width: int, pad: int
) -> tuple[np.ndarray, np.ndarray]:
    """The key columns (width, n_rows) and own entities (n_rows,) of the
    groups' (fact, slot) rows, in their stacked row order.

    Column 0 is ``relation * width + position``; column j >= 1 is the slot's
    j-th other entity, or `pad` past the fact's arity.
    """
    n_rows = sum(spec.ents.size for spec in groups)
    columns = np.full((width, n_rows), pad, dtype=np.int64)
    own = np.empty(n_rows, dtype=np.int64)
    for spec in groups:
        b, a = spec.ents.shape
        block = columns[:, spec.rows].reshape(width, b, a)  # a view: rows is a slice
        block[0] = spec.rels[:, None] * width + np.arange(a)
        # the j-th other entity of slot p sits at column j, or j + 1 from p on
        for j in range(a - 1):
            block[j + 1] = spec.ents[:, j + (np.arange(a) <= j)]
        own[spec.rows] = spec.ents.reshape(-1)
    return columns, own


def _level_end(n_ids: int, widths: list[int], first: int) -> int:
    """One past the last column of the level that starts at column `first`,
    after `n_ids` distinct prefixes: it takes columns while `n_ids` times
    the product of their `widths` stays below CODE_LIMIT.

    Raises DataError when column `first` alone reaches CODE_LIMIT.
    """
    end, span = first, n_ids
    while end < len(widths) and span * widths[end] < CODE_LIMIT:
        span *= widths[end]
        end += 1
    if end == first:
        raise DataError(
            f"known-true index: {n_ids} distinct key prefixes times {widths[first]} "
            f"codes of column {first} reaches 2**63; the KB is too large to index"
        )
    return end


def _pack(ids: np.ndarray, columns: list[np.ndarray], widths: list[int]) -> np.ndarray:
    """One code per row: `ids`, then each column as ``code * width + value``."""
    code = ids
    for column, width in zip(columns, widths):
        code = code * width + column
    return code


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
    """Index raw facts into a KnowledgeBase whose splits are :class:`Facts`.

    Vocabularies are built over the union of all splits so evaluation never
    meets an out-of-vocabulary entity; names appearing only in valid/test
    still get indices (reported by :meth:`KnowledgeBase.stats`). Entities,
    relations and roles are numbered in order of first appearance, split by
    split, fact by fact. Each call builds its own :class:`Vocabulary`, so
    two KBs are comparable by index only when they share one, as in
    ``KnowledgeBase(other.vocab, ...)``.

    The splits are indexed together in whole-list passes, with no object
    made per fact. A fact with fewer than two entities, or a role-annotated
    fact whose roles differ from the first ones its relation was given,
    raises DataError; when several facts are bad, the first in split order
    is named.
    """
    valid = valid or []
    test = test or []
    if not train:
        raise DataError("empty training split")
    raw = [*train, *valid, *test]
    names = list(map(itemgetter(0), raw))
    entities = list(map(itemgetter(1), raw))
    arity = np.fromiter(map(len, entities), dtype=np.intp, count=len(raw))
    vocab = Vocabulary()
    # a relation is a (name, arity) pair, numbered through int codes: no tuple per fact
    distinct_names, _, name_ids = _number(names)
    width = int(arity.max()) + 1
    codes, _, rels = _number((name_ids * width + arity).tolist())
    vocab.relations = [(distinct_names[code // width], code % width) for code in codes]
    vocab.relation_index = dict(zip(vocab.relations, range(len(vocab.relations))))
    vocab.entities, vocab.entity_index, ents = _number(list(chain.from_iterable(entities)))

    # (first bad fact, message) of each check; the first in split order is raised
    errors = [(int(i), "{!r}: facts need >= 2 entities") for i in np.flatnonzero(arity < 2)[:1]]
    annotated = np.flatnonzero(np.fromiter(map(is_not, map(itemgetter(2), raw),
                                               repeat(None)), dtype=bool, count=len(raw)))
    if annotated.size:
        role_lists = [raw[i][2] for i in annotated.tolist()]
        vocab.roles, vocab.role_index, _ = _number(list(chain.from_iterable(role_lists)))
        # every distinct role list gets an id; a relation keeps the id of its first
        _, _, lists = _number(role_lists)
        with_roles = rels[annotated]
        _, first = np.unique(with_roles, return_index=True)
        first.sort()  # each annotated relation's first annotated fact, in split order
        first_list = np.empty(vocab.n_relations, dtype=np.intp)
        first_list[with_roles[first]] = lists[first]
        clash = np.flatnonzero(lists != first_list[with_roles])[:1]
        errors += [(int(annotated[i]), "{!r} used with inconsistent role lists") for i in clash]
        for i in first.tolist():
            vocab.rel_roles[int(with_roles[i])] = tuple(map(vocab.role_index.__getitem__,
                                                            role_lists[i]))
    if errors:
        i, message = min(errors)
        raise DataError("relation " + message.format(names[i]))

    facts = Facts(rels, arity, ents)
    lo, hi = len(train), len(train) + len(valid)
    kb = KnowledgeBase(vocab, facts[:lo], facts[lo:hi], facts[hi:])
    if log.isEnabledFor(logging.INFO):
        log.info("loaded KB: %s", kb.stats())
    return kb


def _number(items: list) -> tuple[list, dict, np.ndarray]:
    """The distinct `items` in order of first appearance, their ids (item ->
    position in that order), and every item's id."""
    distinct = list(dict.fromkeys(items))
    index = dict(zip(distinct, range(len(distinct))))
    return distinct, index, np.fromiter(map(index.__getitem__, items), dtype=np.intp,
                                     count=len(items))


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

    def kept(facts: Facts) -> np.ndarray:
        arities = [a for a in np.unique(facts.arity).tolist() if keep(a)]
        return np.isin(facts.arity, arities)

    selected = kept(kb.train)
    binary = np.flatnonzero(selected & (kb.train.arity == 2))
    n_keep = int(round(binary_keep_ratio * binary.size))
    if n_keep < binary.size:
        selected[binary] = False
        selected[binary[make_rng(seed).choice(binary.size, size=n_keep, replace=False)]] = True
    new_train = kb.train[selected]
    if not new_train:
        raise DataError("empty training split after arity/ratio subsetting")
    valid, test = (facts[kept(facts)] for facts in (kb.valid, kb.test))
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
    rels = facts.rels.tolist()
    bounds = facts.offsets.tolist()
    names = list(map(vocab.entities.__getitem__, facts.ents.tolist()))
    spans = [names[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    if all(r in vocab.rel_roles for r in np.unique((facts if facts else kb.train).rels).tolist()):
        return ".jsonl", [
            json.dumps({vocab.roles[g]: e for g, e in zip(vocab.rel_roles[r], ents)},
                       ensure_ascii=False)
            for r, ents in zip(rels, spans)
        ]
    return ".txt", ["\t".join([vocab.relations[r][0], *ents]) for r, ents in zip(rels, spans)]
