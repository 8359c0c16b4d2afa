r"""Datasets of n-ary relational facts.

A dataset comes in one of two distribution formats: tabular lines
(``relation entity...``) and role-annotated JSON lines (``{role: entity}``).
A line ends where an editor ends it: at ``\n``, ``\r\n`` or ``\r``
(:func:`split_lines`). Every other separator, U+2028 and form feed among
them, is part of its line, whitespace between tabular tokens and raw text
inside a JSON string. This module parses both formats, builds dense
vocabularies over the union of splits, and writes a split back in whichever
of the two formats holds it, so a written subset reads back as the same
facts. A :class:`Vocabulary` is made in one call from its name lists, and its
constructor is the one place that checks it; nothing changes it afterwards.

A split goes from its file to :class:`Facts` in columns, with no Python
object per fact on the way. A parser returns one :class:`RawSplit`: the
facts' relation names, an int array of arities, every fact's entity names
in one flat list, and each fact's role names. :func:`build_kb` numbers the
names of all splits in whole-list passes and returns each split as a
:class:`Facts`: int arrays of relations and arities, and every fact's
entities in one flat array with offsets, 24 bytes per fact plus 8 per
entity slot. A fact is one row of those arrays, a relation plus its ordered
entities. Training batches, ranking batches and subsets are gathered from
them by index.

:func:`split_groups` turns a Facts into one :class:`GroupSpec` per
arity, in ascending arity, each holding its facts in sequence order. It
also fixes the one row order that training, ranking and the known-true
index share. A (fact, slot) pair is one row, and the rows stack group by
group, fact by fact, slot by slot.

This module also owns the known-true index of filtered ranking (Bordes et
al., NIPS 2013): for every (relation, position, other entities) key met in
any split, the entities known true at that slot. :class:`KnowledgeBase`
builds it once, one index per arity with no pad column, in a few
whole-array passes with no per-slot Python; at a few thousand entities most
arities' key rows take one sort. :meth:`KnowledgeBase.filtered_candidates`
looks the rows of a batch's arity groups up in it with ``searchsorted``,
and is the one place that decides which entities a query does not rank
against: its own and the known-true ones.
"""

from __future__ import annotations

import json
import logging
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, count, repeat
from operator import is_not
from typing import Callable, Iterable

import numpy as np

from .errors import ConfigError, DataError, DimensionError, ParseError
from .mathcore import make_rng

log = logging.getLogger("ramkb.kb")

class Facts:
    """An immutable list of facts held as int arrays, with no object per fact.

    ``rels`` and ``arity`` hold one entry per fact. ``ents`` holds the
    facts' entities one fact after another, fact i's at
    ``ents[offsets[i]:offsets[i + 1]]``; ``offsets`` has one entry more
    than there are facts. All four are read-only intp arrays, so a split
    costs 24 bytes per fact plus 8 per entity slot.

    A slice, an integer or boolean index array, and ``+`` with another
    Facts give a new Facts, gathered in whole-array passes. A single
    integer index raises TypeError, and so does iteration: a fact is read
    from the arrays. Two Facts are equal when their arrays are.
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
            raise TypeError(f"Facts takes a slice or an index array, not the integer {key!r}; "
                            "fact i is rels[i] and ents[offsets[i]:offsets[i + 1]]")
        index = np.asarray(key)
        if index.dtype == bool:
            index = np.flatnonzero(index)
        arity = self.arity[index]
        ends = np.cumsum(arity)
        # entity j of the gathered list sits `starts - new starts` further on
        shift = np.repeat(self.offsets[:-1][index] - (ends - arity), arity)
        return Facts(self.rels[index], arity, self.ents[np.arange(shift.size) + shift])

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


class RawSplit:
    """One split as a parser reads it, in columns, before any name is numbered.

    ``names`` holds each fact's relation name and ``arity`` (an intp array)
    its number of entities. ``entities`` holds the facts' entity names one
    fact after another, and ``roles`` each fact's role names in entity
    order, or None for a fact without them; left out, no fact has roles.
    :func:`build_kb` takes these columns as they are. An index array gives a
    new RawSplit of the facts it selects, in its order.
    """

    __slots__ = ("names", "arity", "entities", "roles")

    def __init__(self, names, arity, entities, roles=None) -> None:
        self.names: list[str] = list(names)
        self.arity = np.asarray(arity, dtype=np.intp)
        self.entities: list[str] = list(entities)
        self.roles: list[tuple[str, ...] | None] = (
            [None] * len(self.names) if roles is None else list(roles))
        if not (len(self.names) == self.arity.size == len(self.roles)
                and self.arity.sum() == len(self.entities)):
            raise ValueError(f"{len(self.names)} names, {self.arity.size} arities, "
                             f"{len(self.roles)} role lists and {len(self.entities)} "
                             "entities do not make one split")

    def __len__(self) -> int:
        return len(self.names)

    def __getitem__(self, key) -> "RawSplit":
        # a Facts of positions gathers the selected facts' and slots' positions
        picked = Facts(np.arange(len(self)), self.arity, np.arange(len(self.entities)))[key]
        index = picked.rels.tolist()
        return RawSplit(map(self.names.__getitem__, index), picked.arity,
                        map(self.entities.__getitem__, picked.ents.tolist()),
                        map(self.roles.__getitem__, index))


class Vocabulary:
    """Dense entity/relation/role index maps, made whole from their name lists.

    Relations are keyed by (name, arity): the same surface name used at two
    arities is two independent relations, because pattern parameters are
    arity-shaped and cannot be shared. A name's id is its position in its
    list, and ``entity_index``, ``relation_index`` and ``role_index`` map it
    back. ``rel_roles`` (role-annotated data only) maps a relation id to a
    role id per position.

    The constructor is the one check: a name listed twice, an arity below 2,
    or a ``rel_roles`` entry that is not one id in ``[0, n_roles)`` per
    position of a relation it holds raises ValueError. No method changes a
    vocabulary once it is made.
    """

    def __init__(self, entities=(), relations=(), roles=(), rel_roles=None) -> None:
        self.entities: list[str] = list(entities)
        self.relations: list[tuple[str, int]] = [(name, arity) for name, arity in relations]
        self.roles: list[str] = list(roles)
        self.entity_index = _index("entity", self.entities)
        self.relation_index = _index("relation", self.relations)
        self.role_index = _index("role", self.roles)
        low = [key for key in self.relations if key[1] < 2]
        if low:
            raise ValueError(f"relation {low[0]!r} has arity below 2")
        self.rel_roles: dict[int, tuple[int, ...]] = {}
        for rel, group in (rel_roles or {}).items():
            group = tuple(group)
            if not (0 <= rel < self.n_relations and len(group) == self.arity(rel)
                    and all(0 <= g < self.n_roles for g in group)):
                raise ValueError(f"rel_roles entry {rel}: {list(group)} needs a relation of the "
                                 f"vocabulary and one role id in [0, {self.n_roles}) per position")
            self.rel_roles[rel] = group

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
        return max((a for _, a in self.relations), default=0)

    @property
    def arities(self) -> tuple[int, ...]:
        return tuple(sorted({a for _, a in self.relations}))

    def fact_name(self, relation: int, entities) -> str:
        """A fact by its names, as ``relation(entity, ...)``."""
        return f"{self.relations[relation][0]}({', '.join(self.entities[e] for e in entities)})"

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
        coerced. The constructor then checks the vocabulary itself.
        """
        if not (_is_names(data["entities"]) and _is_names(data.get("roles", []))):
            raise TypeError("entity and role names must be lists of strings")
        for name, arity in data["relations"]:
            if not isinstance(name, str):
                raise TypeError(f"relation name {name!r} is not a string")
            _json_int(arity, "arity")
        rel_roles = data.get("rel_roles", {})
        if not isinstance(rel_roles, dict):
            raise TypeError(f"rel_roles {rel_roles!r} is not an object")
        return cls(data["entities"], data["relations"], data.get("roles", []),
                   {int(rel): [_json_int(g, "role id") for g in group]
                    for rel, group in rel_roles.items()})


def _json_int(value, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{what} {value!r} is not an int")
    return value


def _index(kind: str, names: list) -> dict:
    """Each of `names` mapped to its position; a name listed twice raises ValueError."""
    index = dict(zip(names, range(len(names))))
    if len(index) < len(names):
        # a repeated name maps to its last position, so its first one is the first mismatch
        repeated = next(name for i, name in enumerate(names) if index[name] != i)
        raise ValueError(f"{kind} {repeated!r} is listed twice")
    return index


def split_lines(text: str) -> list[str]:
    r"""The lines of `text`, ended where text-mode ``open()`` ends them: at
    ``\n``, ``\r\n`` or ``\r``. The other characters that Python also
    counts as line boundaries (U+2028, U+2029, U+0085, ``\x0b``, ``\x0c``,
    ``\x1c``-``\x1e``) stay inside their line. A line break at the end
    ends the last line; it does not start an empty one."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def parse_tabular(lines: Iterable[str]) -> RawSplit:
    """Parse tabular lines into one :class:`RawSplit`: on each, a relation
    name and then at least two entity names, separated by runs of whitespace
    (``str.split``). A blank line holds no fact; a line of one or two tokens
    raises ParseError at its line number.

    Each line is split once, and the columns are taken from those token
    lists in whole-list passes, with no other object made per line.
    """
    lines = list(lines)
    counts = np.empty(len(lines), dtype=np.intp)
    names, entities = [], []
    # 500 lines at a time: their token lists are freed before the cyclic GC
    # gets to walk them (by default it runs once 700 new containers live)
    for lo in range(0, len(lines), 500):
        tokens = list(map(str.split, lines[lo : lo + 500]))
        counts[lo : lo + len(tokens)] = np.fromiter(map(len, tokens), dtype=np.intp,
                                                    count=len(tokens))
        # a blank line has no token; every other line's list gives up its
        # first token, the relation name, and keeps the entities
        names += map(list.pop, filter(None, tokens), repeat(0))
        entities += chain.from_iterable(tokens)
    bad = np.flatnonzero((counts > 0) & (counts < 3))[:1]
    if bad.size:
        raise ParseError(int(bad[0]) + 1, "expected relation plus >= 2 entities, "
                         f"got {counts[bad[0]]} token(s)")
    return RawSplit(names, counts[counts > 0] - 1, entities)


def parse_role_json(lines: Iterable[str]) -> RawSplit:
    """Parse JSON-lines facts mapping role names to entity names into one
    :class:`RawSplit`.

    Role keys are sorted lexicographically so role order is deterministic per
    relation; the relation name is the sorted role names joined with "|".
    Facts with a multi-valued role or a non-string value are dropped with a
    logged warning since the model scores fixed-length role-entity tuples.
    A fact with fewer than two roles raises ParseError.
    """
    names, arity, entities, roles = [], [], [], []
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
        fact_roles = tuple(sorted(obj))
        names.append("|".join(fact_roles))
        arity.append(len(fact_roles))
        entities.extend(map(obj.__getitem__, fact_roles))
        roles.append(fact_roles)
    if dropped:
        log.warning("dropped %d fact(s) with multi-valued or literal roles", dropped)
    return RawSplit(names, arity, entities, roles)


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


def split_groups(vocab: Vocabulary, facts: Facts) -> list[GroupSpec]:
    """The arity groups of `facts`, in ascending arity, each with its facts
    in list order, gathered from the arrays in whole-array passes.

    This fixes the stacked row order: group by group, fact by fact, slot by
    slot, so slot p of a group's i-th fact is row ``rows.start + i * arity +
    p``. Raises DimensionError at the first fact whose arity is not its
    relation's in `vocab`.
    """
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

    ``train``, ``valid`` and ``test`` are each a :class:`Facts`, held as
    passed in.

    The index lists, for every key (relation, position, the other entities
    in order) met in any split, the distinct entities known true at that
    slot. ``__init__`` builds it as sorted int64 arrays, one per arity that
    some split holds:

    - every (fact, position) of an arity-a fact is one key row of a + 1
      columns (:func:`_key_columns`), with no pad column: ``rank * a +
      position``, ``rank`` being the relation's among the arity-a
      relations, then the a - 1 other entities, then the slot's own entity;
    - the rows are encoded one level at a time. A level packs consecutive
      columns into one code, ``id`` first and then each column as
      ``code * width + value``, where ``id`` numbers the distinct prefixes
      of the columns before the level. It takes columns for as long as that
      number times the product of their widths stays below ``CODE_LIMIT``
      (2**63), so every code is exact in int64, and ``np.unique`` turns
      its codes into the next level's ids;
    - the last level ends with the own entity, so its sorted distinct codes
      are the (key, true entity) table: the true entities of last prefix
      ``k`` are its codes in ``[k * n_entities, (k + 1) * n_entities)``.
      ``_levels[a]`` keeps each level's end column and codes, the table
      last, so a lookup is one ``searchsorted`` per level and two on the
      table. At the benchmark's 3k entities arities 2–5 take one level, a
      single sort, and arity 6 two; at 23k, arities 2–3 one and 4–6 two.

    A KB with a column that does not fit a level on its own raises
    DataError. Instances are immutable after construction and safe to share
    across parallel readers. A shallow copy with a replaced split shares
    the index, so it still filters by the whole KB it was copied from.
    """

    def __init__(self, vocab: Vocabulary, train: Facts, valid: Facts, test: Facts) -> None:
        self.vocab = vocab
        self.train, self.valid, self.test = train, valid, test
        arity_of = np.array([a for _, a in vocab.relations], dtype=np.intp)
        self._rank = np.zeros(vocab.n_relations, dtype=np.intp)
        self._widths: dict[int, list[int]] = {}
        for a in vocab.arities:
            of_arity = np.flatnonzero(arity_of == a)
            self._rank[of_arity] = np.arange(of_arity.size)
            self._widths[a] = [of_arity.size * a] + [vocab.n_entities] * a
        self._levels: dict[int, list[tuple[int, np.ndarray]]] = {}
        for spec in split_groups(vocab, self.train + self.valid + self.test):
            columns, widths, levels = _key_columns(spec, self._rank), self._widths[spec.arity], []
            # the first level follows the one empty prefix
            ids, n_ids, first = np.zeros(spec.ents.size, dtype=np.int64), 1, 0
            while first < len(widths):
                end = _level_end(n_ids, widths, first)
                codes = _pack(ids, columns[first:end], widths[first:end])
                if end < len(widths):
                    codes, ids = np.unique(codes, return_inverse=True)
                else:
                    # sorted, adjacent repeats dropped: np.unique's hash path is slower
                    codes = np.sort(codes)
                    codes = codes[np.diff(codes, prepend=-1) != 0]
                levels.append((end, codes))
                n_ids, first = codes.size, end
            self._levels[spec.arity] = levels

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
        n_rows, n_entities = sum(spec.ents.size for spec in groups), self.vocab.n_entities
        own = np.empty(n_rows, dtype=np.intp)
        query, entity = [np.arange(n_rows)], [own]
        for spec in groups:
            own[spec.rows] = spec.ents.reshape(-1)
            if spec.arity not in self._levels:
                continue  # no split holds a fact of this arity
            columns, widths = _key_columns(spec, self._rank), self._widths[spec.arity]
            *levels, (_, table) = self._levels[spec.arity]
            ids, first = np.zeros(spec.ents.size, dtype=np.int64), 0
            found = np.ones(spec.ents.size, dtype=bool)
            for end, codes in levels:
                code = _pack(ids, columns[first:end], widths[first:end])
                ids = np.minimum(np.searchsorted(codes, code), codes.size - 1)
                found &= codes[ids] == code
                first = end
            # the key's true entities are the table's codes from `low` on, below `low + n_entities`
            low = _pack(ids, columns[first:-1], widths[first:-1]) * n_entities
            lo = np.searchsorted(table, low)
            count = np.where(found, np.searchsorted(table, low + n_entities) - lo, 0)
            # the known-true codes of row q are table[lo[q] : lo[q] + count[q]]
            start = np.cumsum(count) - count
            known = table[np.arange(count.sum()) + np.repeat(lo - start, count)]
            query.append(np.repeat(np.arange(spec.rows.start, spec.rows.stop), count))
            entity.append(known % n_entities)
        # one sort orders the pairs; a pair met twice, an own entity that is
        # also known true, is kept once
        code = np.sort(np.concatenate(entity) * n_rows + np.concatenate(query))
        entity, query = np.divmod(code[np.diff(code, prepend=-1) != 0], n_rows)
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


def _key_columns(spec: GroupSpec, rank: np.ndarray) -> np.ndarray:
    """The key columns (a + 1, n_rows) of an arity group's (fact, slot)
    rows, in their stacked row order.

    Column 0 is ``rank[relation] * a + position``; column j from 1 to a - 1
    is the slot's j-th other entity, and column a its own entity.
    """
    b, a = spec.ents.shape
    columns = np.empty((a + 1, b, a), dtype=np.int64)
    columns[0] = rank[spec.rels][:, None] * a + np.arange(a)
    # the j-th other entity of slot p sits at column j, or j + 1 from p on
    for j in range(a - 1):
        columns[j + 1] = spec.ents[:, j + (np.arange(a) <= j)]
    columns[a] = spec.ents
    return columns.reshape(a + 1, b * a)


def _level_end(n_ids: int, widths: list[int], first: int) -> int:
    """One past the last column of the level that starts at column `first`
    of an arity's key columns (:func:`_key_columns`), after `n_ids` distinct
    prefixes: it takes columns while `n_ids` times the product of their
    `widths` stays below CODE_LIMIT.

    Raises DataError naming the arity and the column's role when column
    `first` alone reaches CODE_LIMIT.
    """
    end, span = first, n_ids
    while end < len(widths) and span * widths[end] < CODE_LIMIT:
        span *= widths[end]
        end += 1
    if end == first:
        arity = len(widths) - 1
        role = ("the relation-position column" if first == 0 else
                "the slot's own entity" if first == arity else f"other entity {first}")
        raise DataError(
            f"known-true index of arity {arity}: {n_ids} distinct key prefixes times "
            f"{widths[first]} codes of {role} reaches 2**63; the KB is too large to index"
        )
    return end


def _pack(ids: np.ndarray, columns: list[np.ndarray], widths: list[int]) -> np.ndarray:
    """One code per row: `ids`, then each column as ``code * width + value``."""
    code = ids
    for column, width in zip(columns, widths):
        code = code * width + column
    return code


def build_kb(
    train: RawSplit,
    valid: RawSplit | None = None,
    test: RawSplit | None = None,
) -> KnowledgeBase:
    """Index parsed splits into a KnowledgeBase whose splits are :class:`Facts`.

    Vocabularies are built over the union of all splits so evaluation never
    meets an out-of-vocabulary entity; names appearing only in valid/test
    still get indices (reported by :meth:`KnowledgeBase.stats`). Entities,
    relations and roles are numbered in order of first appearance, split by
    split, fact by fact. Each call builds its own :class:`Vocabulary`, so
    two KBs are comparable by index only when they share one, as in
    ``KnowledgeBase(other.vocab, ...)``.

    The columns of the :class:`RawSplit` splits are numbered together in
    whole-list passes, with no object made per fact. A fact with fewer than
    two entities, or a role-annotated fact whose roles differ from the first
    ones its relation was given, raises DataError; when several facts are
    bad, the first in split order is named.
    """
    if not train:
        raise DataError("empty training split")
    splits = [train, *(split or RawSplit([], [], []) for split in (valid, test))]
    names = list(chain.from_iterable(split.names for split in splits))
    arity = np.concatenate([split.arity for split in splits])
    entities = list(chain.from_iterable(split.entities for split in splits))
    fact_roles = list(chain.from_iterable(split.roles for split in splits))
    # a relation is a (name, arity) pair, numbered through int codes: no tuple per fact
    distinct_names, name_ids = _number(names)
    width = int(arity.max()) + 1
    codes, rels = _number((name_ids * width + arity).tolist())

    # (first bad fact, message) of each check; the first in split order is raised
    errors = [(int(i), "{!r}: facts need >= 2 entities") for i in np.flatnonzero(arity < 2)[:1]]
    roles, rel_roles = [], {}
    if fact_roles.count(None) < len(fact_roles):  # one C pass; tabular splits have none
        annotated = np.flatnonzero(np.fromiter(map(is_not, fact_roles, repeat(None)),
                                               dtype=bool, count=len(fact_roles)))
        role_lists = list(map(fact_roles.__getitem__, annotated.tolist()))
        # every distinct role list gets an id; a relation keeps the id of its first
        distinct_lists, lists = _number(role_lists)
        roles = list(dict.fromkeys(chain.from_iterable(distinct_lists)))
        with_roles = rels[annotated]
        _, first = np.unique(with_roles, return_index=True)
        first.sort()  # each annotated relation's first annotated fact, in split order
        first_list = np.empty(len(codes), dtype=np.intp)
        first_list[with_roles[first]] = lists[first]
        clash = np.flatnonzero(lists != first_list[with_roles])[:1]
        errors += [(int(annotated[i]), "{!r} used with inconsistent role lists") for i in clash]
        # a linear search per position: a relation's roles are few, and so
        # are the role names
        rel_roles = {int(with_roles[i]): tuple(map(roles.index, role_lists[i]))
                     for i in first.tolist()}
    if errors:
        i, message = min(errors)
        raise DataError("relation " + message.format(names[i]))

    distinct_entities, ents = _number(entities)
    vocab = Vocabulary(distinct_entities,
                       [(distinct_names[code // width], code % width) for code in codes],
                       roles, rel_roles)
    facts = Facts(rels, arity, ents)
    lo, hi = len(train), len(train) + len(splits[1])
    kb = KnowledgeBase(vocab, facts[:lo], facts[lo:hi], facts[hi:])
    if log.isEnabledFor(logging.INFO):
        log.info("loaded KB: %s", kb.stats())
    return kb


def _number(items: list) -> tuple[list, np.ndarray]:
    """The distinct `items` in order of first appearance, and every item's id:
    its position in that order."""
    # one pass: an item met for the first time takes the next id
    index = defaultdict(count().__next__)
    ids = np.fromiter(map(index.__getitem__, items), dtype=np.intp, count=len(items))
    return list(index), ids


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
