import copy
import json
import logging

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import brute_force_candidates, loop_build_kb, loop_parse_tabular, loop_split_groups
from ramkb import kb as kb_module
from ramkb.errors import DataError, DimensionError, ParseError
from ramkb.kb import (
    CODE_LIMIT,
    KnowledgeBase,
    RawSplit,
    Vocabulary,
    _level_end,
    _pack,
    build_kb,
    export_split,
    parse_role_json,
    parse_tabular,
    split_groups,
    split_lines,
    subset_by_arity,
)

from conftest import (
    fact_pairs,
    facts_of,
    make_vocab,
    random_facts,
    random_kb,
    raw_facts,
    raw_split,
)


def test_parse_tabular_tabs_and_spaces():
    split = parse_tabular(["r1\ta\tb\tc", "r1 a b"])
    assert raw_facts(split) == [("r1", ("a", "b", "c"), None), ("r1", ("a", "b"), None)]
    assert split.arity.dtype == np.intp


def test_parse_tabular_too_few_tokens():
    with pytest.raises(ParseError) as err:
        parse_tabular(["r1"])
    assert err.value.line_no == 1
    with pytest.raises(ParseError) as err:
        parse_tabular(["r1 a b", "", "r2 x"])
    assert err.value.line_no == 3


def test_split_lines_ends_a_line_where_text_mode_open_does():
    text = "a\r\nb\rc\u2028d\u2029e\x85f\x0bg\x0ch\x1ci\x1dj\x1ek\n\nl\n"
    assert split_lines(text) == ["a", "b", "c\u2028d\u2029e\x85f\x0bg\x0ch\x1ci\x1dj\x1ek", "", "l"]
    assert split_lines("") == [] and split_lines("\n") == [""] and split_lines("a") == ["a"]


@pytest.mark.parametrize("text, want", [
    ("r a\u2028b c\n", [("r", ("a", "b", "c"), None)]),
    ("r a b\x0cr c d\n", [("r", ("a", "b", "r", "c", "d"), None)]),
], ids=["line-separator", "form-feed"])
def test_a_separator_inside_a_tabular_line_is_whitespace(text, want):
    assert raw_facts(parse_tabular(split_lines(text))) == want


LINE_ENDS = ["\n", "\r\n", "\r"]
SPACES = [" ", "  ", "\t", " \t ", "\u2028", "\u3000"]


@st.composite
def tabular_texts(draw):
    """Tabular text with blank lines, runs of spaces and tabs, CRLF and CR
    line ends, U+2028 and U+3000 inside a line, and lines of one or two tokens."""
    text = []
    for _ in range(draw(st.integers(0, 8))):
        n_tokens = draw(st.integers(0, 5) if draw(st.integers(0, 9)) else st.integers(1, 2))
        tokens = draw(st.lists(st.sampled_from(["r", "s", "a", "b", "c", "é"]),
                               min_size=n_tokens, max_size=n_tokens))
        line = draw(st.sampled_from(["", *SPACES]))
        for token in tokens:
            line += token + draw(st.sampled_from(SPACES))
        text.append(line + draw(st.sampled_from(LINE_ENDS)))
    return "".join(text) + draw(st.sampled_from(["", "r a b", "r"]))


@settings(max_examples=200, deadline=None)
@given(text=tabular_texts())
@example(text="r a b\r\n\r\nr c\rr d e\n")
def test_parse_tabular_matches_the_per_line_loop(text):
    """The whole-list parse reads the facts, or raises the ParseError, that
    the per-line loop does."""
    try:
        want = loop_parse_tabular(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            parse_tabular(split_lines(text))
        assert (got.value.line_no, str(got.value)) == (exc.line_no, str(exc))
        return
    split = parse_tabular(split_lines(text))
    assert split.names == [name for name, _, _ in want]
    assert split.arity.tolist() == [len(ents) for _, ents, _ in want]
    assert split.entities == [e for _, ents, _ in want for e in ents]
    assert raw_facts(split) == want


def test_raw_split_refuses_columns_that_make_no_split_and_gathers_by_index():
    with pytest.raises(ValueError, match="do not make one split"):
        RawSplit(["r", "s"], [2, 3], ["a", "b", "c", "d"])
    with pytest.raises(ValueError, match="do not make one split"):
        RawSplit(["r"], [2], ["a", "b"], [("x", "y"), None])
    split = raw_split([("r", ("a", "b"), None), ("s", ("c", "d", "e"), ("x", "y", "z")),
                       ("r", ("f", "g"), None)])
    assert raw_facts(split[np.array([2, 1])]) == [("r", ("f", "g"), None),
                                                  ("s", ("c", "d", "e"), ("x", "y", "z"))]
    assert raw_facts(split[np.array([False, True, False])]) == raw_facts(split)[1:2]


def test_parse_role_json_sorted_keys():
    line = json.dumps(
        {"Actor": "Schwarzenegger", "Character": "T-800", "Movie": "Terminator 2"}
    )
    facts = raw_facts(parse_role_json([line]))
    assert facts == [
        (
            "Actor|Character|Movie",
            ("Schwarzenegger", "T-800", "Terminator 2"),
            ("Actor", "Character", "Movie"),
        )
    ]


def test_parse_role_json_drops_multivalued(caplog):
    lines = ['{"P1": "x", "P2": ["y", "z"], "P3": "w"}', '{"P1": "x", "P2": "y"}']
    with caplog.at_level(logging.WARNING, logger="ramkb.kb"):
        facts = raw_facts(parse_role_json(lines))
    assert len(facts) == 1
    assert facts[0][0] == "P1|P2"
    assert any("dropped" in rec.message for rec in caplog.records)


def test_parse_role_json_drops_literals(caplog):
    with caplog.at_level(logging.WARNING, logger="ramkb.kb"):
        facts = raw_facts(parse_role_json(['{"P1": "x", "P2": 1979}']))
    assert facts == []


def test_parse_role_json_empty_object_errors():
    with pytest.raises(ParseError):
        parse_role_json(["{}"])


def test_parse_role_json_malformed_line_number():
    with pytest.raises(ParseError) as err:
        parse_role_json(['{"A": "x", "B": "y"}', "{oops"])
    assert err.value.line_no == 2


def test_build_kb_same_name_two_arities_is_two_relations():
    kb = build_kb(parse_tabular(["r a b", "r a b c"]))
    assert kb.vocab.n_relations == 2
    assert kb.vocab.relations == [("r", 2), ("r", 3)]
    assert kb.vocab.max_arity == 3


def test_vocabulary_derives_its_index_maps_from_its_lists():
    vocab = Vocabulary(["a", "b"], [("r", 2), ("r", 3)], ["x", "y", "z"], {1: [2, 0, 1]})
    assert vocab.entity_index == {"a": 0, "b": 1}
    assert vocab.relation_index == {("r", 2): 0, ("r", 3): 1}
    assert vocab.role_index == {"x": 0, "y": 1, "z": 2}
    assert vocab.rel_roles == {1: (2, 0, 1)}
    header = json.loads(json.dumps(vocab.to_dict()))
    assert Vocabulary.from_dict(header).to_dict() == vocab.to_dict()
    empty = Vocabulary()
    assert (empty.n_entities, empty.n_relations, empty.n_roles, empty.rel_roles) == (0, 0, 0, {})


@pytest.mark.parametrize("kwargs, message", [
    ({"entities": ["a", "b", "a"]}, "entity 'a' is listed twice"),
    ({"relations": [("r", 2), ("s", 2), ("r", 2)]}, r"relation \('r', 2\) is listed twice"),
    ({"roles": ["x", "y", "y"]}, "role 'y' is listed twice"),
    ({"relations": [("r", 2), ("s", 1)]}, r"relation \('s', 1\) has arity below 2"),
    ({"relations": [("r", 2)], "roles": ["x"], "rel_roles": {0: [0]}}, r"entry 0: \[0\] needs"),
    ({"relations": [("r", 2)], "roles": ["x"], "rel_roles": {0: [0, 1]}}, r"in \[0, 1\)"),
    ({"relations": [("r", 2)], "roles": ["x"], "rel_roles": {0: [0, -1]}}, r"in \[0, 1\)"),
    ({"relations": [("r", 2)], "roles": ["x"], "rel_roles": {1: [0, 0]}}, "entry 1: .* a relation"),
], ids=["entity", "relation", "role", "arity-1", "roles-too-short", "role-id-past-end",
        "role-id-negative", "relation-not-held"])
def test_vocabulary_refuses_a_repeated_name_a_low_arity_and_bad_rel_roles(kwargs, message):
    with pytest.raises(ValueError, match=message):
        Vocabulary(**kwargs)


def test_build_kb_vocab_spans_all_splits():
    kb = build_kb(
        parse_tabular(["r a b"]),
        valid=parse_tabular(["r a c"]),
        test=parse_tabular(["s2 d e f"]),
    )
    assert kb.vocab.n_entities == 6
    assert kb.stats()["entities_outside_train"] == 4
    assert kb.stats()["relations_outside_train"] == 1


ENTITY_NAMES = [f"e{i}" for i in range(8)]
ROLE_NAMES = [f"g{i}" for i in range(7)]


def relation_roles(name, arity):
    """The one role list of relation (name, arity); relations share role names."""
    return tuple(ROLE_NAMES[(ord(name) + i) % len(ROLE_NAMES)] for i in range(arity))


@st.composite
def raw_fact(draw, name=None, arity=None):
    """A raw fact over a few shared entity names, with or without its relation's roles."""
    name = draw(st.sampled_from("rs")) if name is None else name
    arity = draw(st.integers(2, 6)) if arity is None else arity
    entities = tuple(draw(st.lists(st.sampled_from(ENTITY_NAMES), min_size=arity,
                                   max_size=arity)))
    return name, entities, relation_roles(name, arity) if draw(st.booleans()) else None


@st.composite
def raw_splits(draw):
    """Train, valid and test raw facts of arities 2 to 6, plain and role-annotated,
    with relation name "t" used at two arities."""
    facts = draw(st.lists(raw_fact(), max_size=30))
    for arity in draw(st.lists(st.integers(2, 6), min_size=2, max_size=2, unique=True)):
        facts.insert(draw(st.integers(0, len(facts))), draw(raw_fact("t", arity)))
    return cut_splits(draw, facts)


def cut_splits(draw, facts):
    """`facts` cut into train (at least one fact), valid and test."""
    lo = draw(st.integers(1, len(facts)))
    hi = draw(st.integers(lo, len(facts)))
    return facts[:lo], facts[lo:hi], facts[hi:]


@st.composite
def bad_raw_splits(draw):
    """Raw splits with relations given two role lists, facts of fewer than two
    entities, or both, at drawn places in split order."""
    facts = [f for split in draw(raw_splits()) for f in split]
    clashes = draw(st.lists(st.sampled_from("vw"), max_size=2, unique=True))
    for name in clashes:
        roles = relation_roles(name, 3)
        first, clash = sorted(draw(st.lists(st.integers(0, len(facts)), min_size=2, max_size=2)))
        facts.insert(clash, (name, ("e0", "e1", "e2"), roles[1:] + roles[:1]))
        facts.insert(first, (name, ("e2", "e1", "e0"), roles))
    for name in draw(st.lists(st.sampled_from("ux"), min_size=0 if clashes else 1, max_size=2,
                              unique=True)):
        entities = tuple(draw(st.lists(st.sampled_from(ENTITY_NAMES), max_size=1)))
        facts.insert(draw(st.integers(0, len(facts))), (name, entities, None))
    return cut_splits(draw, facts)


@settings(max_examples=80, deadline=None)
@given(splits=raw_splits())
# a relation met plain before another's first roles takes its own roles after them
@example(splits=([("r", ("e0", "e1"), None), ("t", ("e1", "e0"), relation_roles("t", 2)),
                  ("r", ("e1", "e2"), relation_roles("r", 2))],
                 [("t", ("e2", "e1", "e0"), None)], []))
def test_build_kb_matches_the_per_fact_loop(splits):
    """The whole-list build numbers names and stores facts as the per-fact loop does."""
    vocab, facts = loop_build_kb(*splits)
    kb = build_kb(*map(raw_split, splits))
    assert kb.vocab.to_dict() == vocab.to_dict()
    assert list(kb.vocab.rel_roles.items()) == list(vocab.rel_roles.items())
    for name in ("entity_index", "relation_index", "role_index"):
        assert getattr(kb.vocab, name) == getattr(vocab, name)
    assert [fact_pairs(kb.split(split)) for split in SPLITS] == facts


@settings(max_examples=80, deadline=None)
@given(splits=bad_raw_splits())
def test_build_kb_names_the_first_bad_fact_as_the_loop_does(splits):
    with pytest.raises(DataError) as want:
        loop_build_kb(*splits)
    with pytest.raises(DataError) as got:
        build_kb(*map(raw_split, splits))
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("roles_first", [True, False], ids=["roles-first", "short-first"])
def test_build_kb_raises_at_the_first_bad_fact_in_split_order(roles_first):
    """A relation given two role lists and a fact of one entity: the one met
    first in split order is named, whichever split holds it."""
    good = ("v", ("a", "b"), ("x", "y"))
    clash = ("v", ("b", "a"), ("y", "x"))
    short = ("u", ("a",), None)
    train = [good, clash] if roles_first else [good]
    test = [short] if roles_first else [short, clash]
    with pytest.raises(DataError) as err:
        build_kb(raw_split(train), raw_split([("w", ("a", "b"), None)]), raw_split(test))
    want = ("relation 'v' used with inconsistent role lists" if roles_first
            else "relation 'u': facts need >= 2 entities")
    assert str(err.value) == want


def non_candidates(kb, groups):
    """``filtered_candidates`` of arity groups, checked to list each pair
    once, in entity order and by query within an entity."""
    query, entity = kb.filtered_candidates(groups)
    assert query.dtype == entity.dtype == np.intp
    order = np.lexsort((query, entity))
    assert order.tolist() == list(range(query.size))
    assert not ((np.diff(query) == 0) & (np.diff(entity) == 0)).any()
    return query, entity


def candidates(kb, facts):
    """``filtered_candidates`` of the facts' arity groups."""
    return non_candidates(kb, split_groups(kb.vocab, facts))


def brute_force_mask(kb, fact, position):
    """The brute-force candidate mask of a slot of a (relation, entities)
    pair, its own entity taken out."""
    mask = brute_force_candidates(kb, *fact, position)
    mask[fact[1][position]] = False
    return mask


def slot_mask(kb, facts, index, position):
    """Candidate mask of slot `position` of ``facts[index]``, read off the
    (query, entity) pairs that ``filtered_candidates`` filters out of the
    facts' arity groups."""
    groups = split_groups(kb.vocab, facts)
    query, entity = non_candidates(kb, groups)
    (spec,) = [spec for spec in groups if index in spec.fact_index]
    # queries number the groups' rows: group by group, fact by fact, slot by slot
    row = spec.rows.start + spec.fact_index.tolist().index(index) * spec.arity + position
    mask = np.ones(kb.vocab.n_entities, dtype=bool)
    mask[entity[query == row]] = False
    return mask


def known_true(kb, fact, position):
    """Every entity known true at a slot of `fact`, a (relation, entities)
    pair. A query filters all of them and its own entity, so two probes with
    different own entities at the slot (0 and 1) both filter the whole set
    and nothing else."""
    relation, entities = fact
    known = None
    for probe in (0, 1):
        probed = entities[:position] + (probe,) + entities[position + 1 :]
        mask = slot_mask(kb, facts_of([(relation, probed)]), 0, position)
        filtered = {int(e) for e in np.flatnonzero(~mask)}
        known = filtered if known is None else known & filtered
    return known


def assert_groups_match_loop(vocab, pairs):
    """split_groups of (relation, entities) pairs gives the per-fact loop's
    groups, or raises its error."""
    try:
        want = loop_split_groups(vocab, pairs)
    except DimensionError as loop_error:
        with pytest.raises(DimensionError) as error:
            split_groups(vocab, facts_of(pairs))
        assert str(error.value) == str(loop_error)
        return
    got = split_groups(vocab, facts_of(pairs))
    assert [(spec.arity, spec.rows) for spec in got] == [(g[0], g[4]) for g in want]
    for spec, (_, rels, ents, fact_index, _) in zip(got, want):
        for array, oracle in ((spec.rels, rels), (spec.ents, ents), (spec.fact_index, fact_index)):
            assert array.dtype == oracle.dtype and array.shape == oracle.shape
            np.testing.assert_array_equal(array, oracle)


@settings(max_examples=60, deadline=None)
@given(
    arities=st.lists(st.integers(2, 6), min_size=1, max_size=6),
    n_facts=st.integers(0, 40),
    seed=st.integers(0, 10_000),
    wrong=st.one_of(st.none(), st.tuples(st.integers(0, 39), st.sampled_from([-1, 1]))),
)
def test_split_groups_matches_the_per_fact_loop(arities, n_facts, seed, wrong):
    """Random mixed-arity fact lists; with `wrong`, one fact (if the list
    reaches it) gets one entity fewer or more than its relation's arity."""
    vocab = make_vocab(7, tuple(arities))
    pairs = fact_pairs(random_facts(vocab, n_facts, seed=seed))
    if wrong is not None and wrong[0] < n_facts:
        i, change = wrong
        relation, entities = pairs[i]
        pairs[i] = (relation, entities[:-1] if change < 0 else entities + (0,))
    assert_groups_match_loop(vocab, pairs)


def test_split_groups_of_no_fact_one_fact_and_a_wrong_arity():
    vocab = make_vocab(4, (3, 2))
    assert split_groups(vocab, facts_of([])) == []
    assert_groups_match_loop(vocab, [])
    (spec,) = split_groups(vocab, facts_of([(0, (3, 1, 3))]))
    assert spec.rows == slice(0, 3) and spec.ents.tolist() == [[3, 1, 3]]
    assert_groups_match_loop(vocab, [(0, (3, 1, 3))])
    # the first fact of a wrong arity is named, after a right one
    pairs = [(1, (0, 1)), (0, (0, 1)), (1, (0, 1, 2))]
    with pytest.raises(DimensionError, match=r"^fact arity 2 != relation arity 3$"):
        split_groups(vocab, facts_of(pairs))
    assert_groups_match_loop(vocab, pairs)


def test_build_kb_computes_stats_only_for_an_info_log(monkeypatch, caplog):
    calls = []
    stats = KnowledgeBase.stats
    monkeypatch.setattr(KnowledgeBase, "stats", lambda kb: calls.append(1) or stats(kb))
    with caplog.at_level(logging.WARNING, logger="ramkb.kb"):
        build_kb(parse_tabular(["r a b"]))
    assert calls == []
    with caplog.at_level(logging.INFO, logger="ramkb.kb"):
        build_kb(parse_tabular(["r a b"]))
    assert calls == [1]
    assert any(rec.message.startswith("loaded KB: ") for rec in caplog.records)


def test_truth_index_complete_for_every_split_and_position():
    kb = random_kb(8, (2, 3, 4), n_train=15, n_valid=5, n_test=5, seed=11)
    for fact in fact_pairs(kb.train + kb.valid + kb.test):
        for pos in range(len(fact[1])):
            assert fact[1][pos] in known_true(kb, fact, pos)


def test_truth_index_single_fact_both_positions():
    kb = build_kb(parse_tabular(["r a b"]))
    (fact,) = fact_pairs(kb.train)
    assert known_true(kb, fact, 0) == {fact[1][0]}
    assert known_true(kb, fact, 1) == {fact[1][1]}


def test_filtered_candidates_excludes_other_true_entities():
    kb = build_kb(parse_tabular(["r a b", "r c b"]))
    a, b, c = (kb.vocab.entity_index[x] for x in "abc")
    mask = slot_mask(kb, kb.train, 0, 0)
    assert not mask[a] and not mask[c]  # its own entity, and the other true one
    assert mask.sum() == kb.vocab.n_entities - 2


def test_filtered_candidates_single_fact_everything_allowed():
    kb = build_kb(parse_tabular(["r a b", "s c d"]))
    mask = slot_mask(kb, kb.train, 0, 1)
    assert np.flatnonzero(~mask).tolist() == [kb.vocab.entity_index["b"]]  # its own entity only


def assert_facts_match_brute_force(kb, facts):
    for i, fact in enumerate(fact_pairs(facts)):
        for pos in range(len(fact[1])):
            np.testing.assert_array_equal(
                slot_mask(kb, facts, i, pos),
                brute_force_mask(kb, fact, pos),
            )


def assert_masks_match_brute_force(kb):
    """Per arity group, and on the train split's mixed-arity list as it is."""
    groups = [kb.train[kb.train.arity == arity] for arity in kb.vocab.arities]
    for facts in groups + [kb.train]:
        assert_facts_match_brute_force(kb, facts)


def test_filtered_candidates_matches_brute_force_on_random_kb():
    kb = random_kb(9, (2, 3), n_train=20, seed=5)
    assert set(kb.train.arity.tolist()) == {2, 3}  # the mixed list has both
    assert_masks_match_brute_force(kb)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n_facts=st.integers(1, 50),
    n_entities=st.integers(2, 12),
)
def test_filtered_candidates_exhaustive_small_kbs(seed, n_facts, n_entities):
    kb = random_kb(n_entities, (2, 3), n_train=n_facts, seed=seed)
    assert_masks_match_brute_force(kb)


def test_filtered_candidates_facts_not_in_kb_match_brute_force():
    kb = random_kb(6, (2, 3), n_train=25, n_valid=5, n_test=5, seed=13)
    probes = random_facts(kb.vocab, 60, seed=77)
    stored = set(fact_pairs(kb.train + kb.valid + kb.test))
    assert any(p not in stored for p in fact_pairs(probes))
    assert_facts_match_brute_force(kb, probes)


def test_filtered_candidates_lists_a_fact_repeated_across_splits_once():
    kb = build_kb(
        parse_tabular(["r a b", "r a b"]),
        valid=parse_tabular(["r a b"]),
        test=parse_tabular(["r a b", "r c b"]),
    )
    a, c = kb.vocab.entity_index["a"], kb.vocab.entity_index["c"]
    assert a < c
    # slot 0's own entity once, though the index holds it three times
    for i in range(len(kb.test)):
        query, entity = candidates(kb, kb.test[i : i + 1])
        assert entity[query == 0].tolist() == [a, c]


def test_filtered_candidates_arities_two_to_six_in_one_call():
    rng = np.random.default_rng(17)
    names = {2: "r", 3: "r", 4: "s", 5: "t", 6: "u"}  # "r" at two arities
    lines = [
        f"{names[arity]} " + " ".join(f"e{e}" for e in rng.integers(0, 4, arity))
        for arity in rng.integers(2, 7, 120)
    ]
    kb = build_kb(parse_tabular(lines[:80]), test=parse_tabular(lines[80:]))
    assert kb.vocab.arities == (2, 3, 4, 5, 6)
    assert ("r", 2) in kb.vocab.relations and ("r", 3) in kb.vocab.relations
    mixed = kb.test + random_facts(kb.vocab, 30, seed=3)
    assert set(mixed.arity.tolist()) == {2, 3, 4, 5, 6}
    assert mixed.arity.tolist() != sorted(mixed.arity.tolist())
    assert_facts_match_brute_force(kb, mixed)
    # one call over every group: its queries numbered in the stacked row
    # order, its pairs in entity order and by query within an entity
    groups = split_groups(kb.vocab, mixed)
    want = sorted(
        (e, row)
        for row, (i, p) in enumerate(
            (i, p) for spec in groups for i in spec.fact_index.tolist() for p in range(spec.arity)
        )
        for e in np.flatnonzero(~brute_force_mask(kb, fact_pairs(mixed)[i], p)).tolist()
    )
    query, entity = kb.filtered_candidates(groups)
    assert len(want) > mixed.ents.size  # more than the own entities
    assert list(zip(entity.tolist(), query.tolist())) == want


def test_filtered_candidates_empty_fact_list():
    kb = random_kb(5, (2, 3), n_train=10, seed=1)
    query, entity = kb.filtered_candidates(split_groups(kb.vocab, facts_of([])))
    assert query.shape == entity.shape == (0,)
    assert query.dtype == entity.dtype == np.intp


@pytest.mark.parametrize("test_facts", [[(0, (0, 1))], []], ids=["empty-train", "no-facts"])
def test_filtered_candidates_kb_with_empty_splits(test_facts):
    empty = facts_of([])
    kb = KnowledgeBase(make_vocab(3, (2,)), empty, empty, facts_of(test_facts))
    probes = facts_of([(0, (0, 1)), (0, (2, 1)), (0, (0, 2))])
    assert_facts_match_brute_force(kb, probes)
    _, entity = candidates(kb, probes)
    if not test_facts:  # a KB with no facts filters the own entities only
        assert entity.tolist() == sorted(probes.ents.tolist())


def test_filtered_candidates_largest_entity_id():
    vocab = make_vocab(7, (2, 3))
    top = vocab.n_entities - 1
    facts = facts_of([(0, (top, top)), (0, (2, top)), (1, (top, 0, top)), (1, (top, 1, top))])
    probes = facts_of([(0, (1, top)), (1, (top, top, top))])
    kb = KnowledgeBase(vocab, facts, facts_of([]), facts_of([]))
    _, entity = candidates(kb, probes)
    assert top in entity.tolist()
    assert_facts_match_brute_force(kb, facts + probes)


def test_filtered_candidates_shallow_copy_filters_by_whole_kb():
    """A copy with a replaced test split, as a benchmark's ranking chunk is,
    keeps filtering by every split of the KB it was copied from."""
    kb = random_kb(5, (2, 3), n_train=20, n_valid=5, n_test=30, seed=4)
    chunk = copy.copy(kb)
    chunk.test = kb.test[:3]
    for facts in (chunk.test, kb.test):
        groups = split_groups(kb.vocab, facts)
        for got, want in zip(chunk.filtered_candidates(groups), kb.filtered_candidates(groups)):
            np.testing.assert_array_equal(got, want)
    assert_facts_match_brute_force(kb, kb.test)


def test_encode_rejects_codes_past_int64():
    """Synthetic sizes: the level rule reads only the prefix count and the
    widths. A binary key row's last column, 2, is the slot's own entity, so
    these are the bounds of the last level, the (key, true entity) table."""
    base = 2**31 + 1  # 2**31 + 1 entities
    widths = [2, base, base]
    assert _level_end((CODE_LIMIT - 1) // base, widths, 2) == 3
    with pytest.raises(DataError, match="^known-true index of arity 2: .* own entity reaches 2\\*\\*63"):
        _level_end(CODE_LIMIT // base + 1, widths, 2)
    with pytest.raises(DataError):
        _level_end(2, [2, 1, CODE_LIMIT // 2], 2)
    # the largest code allowed is exact in int64
    base = 2**62 - 1
    assert _level_end(2, [2, base, base], 2) == 3
    top = _pack(np.array([1]), [np.array([base - 1])], [base])
    assert int(top[0]) == 2 * base - 1


@pytest.mark.parametrize(
    "first, role",
    [(0, "the relation-position column"), (1, "other entity 1"), (2, "other entity 2"),
     (3, "the slot's own entity")],
)
def test_a_column_too_wide_for_a_level_is_named_by_arity_and_role(first, role):
    widths = [3, 5, 7, 11]  # a ternary key row
    widths[first] = CODE_LIMIT
    with pytest.raises(DataError) as error:
        _level_end(1, widths, first)
    assert str(error.value) == (
        f"known-true index of arity 3: 1 distinct key prefixes times {CODE_LIMIT} codes of "
        f"{role} reaches 2**63; the KB is too large to index"
    )


class Huge(Vocabulary):
    """A vocabulary of 2**61 (synthetic) entities."""

    @property
    def n_entities(self):
        return 2**61


def level_ends(kb):
    """Each indexed arity's level ends: the key columns each level ends before."""
    return {arity: [end for end, _ in levels] for arity, levels in kb._levels.items()}


def test_kb_past_the_code_bound_raises_data_error():
    """One binary fact's two keys stay below the bound and two facts' four
    keys reach it."""
    vocab = Huge(relations=[("r", 2)])
    empty = facts_of([])
    kb = KnowledgeBase(vocab, facts_of([(0, (0, 1))]), empty, empty)
    assert level_ends(kb) == {2: [2, 3]}
    with pytest.raises(DataError, match="arity 2: 4 distinct key prefixes .* own entity .* too large"):
        KnowledgeBase(vocab, facts_of([(0, (0, 1)), (0, (2, 3))]), empty, empty)


def test_kb_with_a_column_past_the_code_bound_raises_data_error():
    """A ternary relation's columns 0 and 1 pack into one level: 3 * 2**61
    codes. Column 2 fits after one fact's 3 prefixes, but not after two
    facts' 6, so it cannot be encoded even in a level of its own."""
    vocab = Huge(relations=[("r", 3)])
    empty = facts_of([])
    kb = KnowledgeBase(vocab, facts_of([(0, (0, 1, 2))]), empty, empty)
    assert level_ends(kb) == {3: [2, 3, 4]}
    with pytest.raises(DataError, match="arity 3: 6 distinct key prefixes .* other entity 2 .* too large"):
        KnowledgeBase(vocab, facts_of([(0, (0, 1, 2)), (0, (3, 4, 5))]), empty, empty)


@pytest.mark.parametrize(
    "arities, limit, ends",
    [
        # column 0 is a relation * a positions wide, the others 9: arity 2's
        # 2 * 9 * 9 codes fit one level; arities 3 and 4 pack columns 0 to 2
        # (3 * 9 * 9 and 4 * 9 * 9 codes), then take one column a level
        ((2, 3, 4), 2000, {2: [3], 3: [3, 4], 4: [3, 4, 5]}),
        # column 0 is 20 relations * a positions wide and packs with one
        # entity column; every level after takes one column
        ((2, 3, 4) * 20, 2400, {2: [2, 3], 3: [2, 3, 4], 4: [2, 3, 4, 5]}),
    ],
    ids=["packed", "one-column-levels"],
)
def test_filtered_candidates_on_packed_levels_match_brute_force(arities, limit, ends, monkeypatch):
    """A smaller code bound, so 9 entities' keys need several levels."""
    monkeypatch.setattr(kb_module, "CODE_LIMIT", limit)
    kb = random_kb(9, arities, n_train=40, n_valid=5, n_test=5, seed=19)
    assert level_ends(kb) == ends
    assert_masks_match_brute_force(kb)
    probes = random_facts(kb.vocab, 40, seed=78)
    assert any(p not in set(fact_pairs(kb.train + kb.valid + kb.test)) for p in fact_pairs(probes))
    assert_facts_match_brute_force(kb, kb.train + kb.valid + kb.test + probes)
    monkeypatch.setattr(kb_module, "CODE_LIMIT", 100)  # a bound some column cannot fit
    with pytest.raises(DataError, match="too large"):
        random_kb(9, arities, n_train=40, n_valid=5, n_test=5, seed=19)


class Wide(Vocabulary):
    n_entities = 2**20  # synthetic, as Huge's


def test_filtered_candidates_on_one_two_and_three_levels_match_brute_force():
    """At 2**20 entities and the default bound, a binary key row fits one
    level, an arity-5 row packs into two and an arity-6 row into three.
    Facts hold entities 0, 1 and the largest id, and each has a twin that
    differs in at most one slot, so keys share true entities."""
    vocab = Wide(relations=[("r", 2), ("s", 5), ("t", 6)])
    rng = np.random.default_rng(23)
    values = [0, 1, vocab.n_entities - 1]
    pairs = []
    for rel, arity in enumerate((2, 5, 6)):
        for _ in range(8):
            ents = rng.choice(values, arity)
            twin = ents.copy()
            twin[rng.integers(arity)] = rng.choice(values)
            pairs += [(rel, tuple(ents.tolist())), (rel, tuple(twin.tolist()))]
    facts = facts_of(pairs)
    kb = KnowledgeBase(vocab, facts[:36], facts_of([]), facts[36:])
    assert level_ends(kb) == {2: [3], 5: [4, 6], 6: [4, 6, 7]}
    probes = facts_of([(rel, tuple(rng.choice(values, arity).tolist()))
                       for rel, arity in enumerate((2, 5, 6)) for _ in range(4)])
    assert any(p not in set(pairs) for p in fact_pairs(probes))
    _, entity = candidates(kb, facts)
    assert entity.size > facts.ents.size  # known-true entities besides the own ones
    assert_facts_match_brute_force(kb, facts + probes)


def test_filtered_candidates_of_an_arity_no_split_holds():
    """A subset keeps the vocabulary's ternary relation but none of its
    facts: there is no ternary index, and a ternary probe filters its own
    entity only, in a call beside binary queries that filter more."""
    kb = random_kb(5, (2, 3), n_train=30, n_valid=5, n_test=5, seed=6)
    sub = subset_by_arity(kb, keep=lambda a: a == 2)
    assert sub.vocab.arities == (2, 3) and set(level_ends(sub)) == {2}
    ternary = kb.train[kb.train.arity == 3]
    mixed = sub.train + ternary
    query, entity = candidates(sub, mixed)
    rows = split_groups(sub.vocab, mixed)[1].rows
    mine = (query >= rows.start) & (query < rows.stop)
    assert sorted(zip(query[mine].tolist(), entity[mine].tolist())) == list(
        zip(range(rows.start, rows.stop), ternary.ents.tolist()))
    assert np.count_nonzero(~mine) > rows.start  # the binary queries filter known-true entities
    assert_facts_match_brute_force(sub, mixed)


SPLITS = ("train", "valid", "test")
PARSERS = {".txt": parse_tabular, ".jsonl": parse_role_json}


def tabular_kb():
    rng = np.random.default_rng(3)
    lines = {
        split: [
            f"r{arity} " + " ".join(f"e{e}" for e in rng.integers(0, 7, arity))
            for arity in rng.integers(2, 5, n_facts)
        ]
        for split, n_facts in zip(SPLITS, (12, 4, 4))
    }
    return build_kb(*(parse_tabular(lines[split]) for split in SPLITS))


def role_kb():
    train = [
        {"Actor": "Arnold Schwarzenegger", "Character": "T-800", "Movie": "Terminator 2"},
        {"Director": "James Cameron", "Movie": "Terminator 2"},
        {"Actor": "Linda Hamilton", "Character": "Sarah Connor", "Movie": "Terminator 2"},
        {"Director": "Luc Besson", "Movie": "Léon"},
    ]
    test = [{"Actor": "Jean Reno", "Character": "Léon", "Movie": "Léon"}]
    return build_kb(
        parse_role_json(json.dumps(fact) for fact in train),
        test=parse_role_json(json.dumps(fact) for fact in test),
    )


def named(kb):
    """A KB's splits, relations and per-relation roles, all by name."""
    v = kb.vocab
    facts = {
        split: [(v.relations[rel], [v.entities[e] for e in ents])
                for rel, ents in fact_pairs(kb.split(split))]
        for split in SPLITS
    }
    roles = {v.relations[r]: [v.roles[g] for g in group] for r, group in v.rel_roles.items()}
    return facts, v.relations, roles


@pytest.mark.parametrize("make_kb,suffix", [(tabular_kb, ".txt"), (role_kb, ".jsonl")],
                         ids=["tabular", "role-annotated"])
def test_export_split_round_trips(make_kb, suffix):
    """Each split, an empty one included, reads back as the same facts in the same order."""
    kb = make_kb()
    exported = [export_split(kb, split) for split in SPLITS]
    assert [s for s, _ in exported] == [suffix] * 3
    rebuilt = build_kb(*(PARSERS[s](lines) for s, lines in exported))
    assert bool(kb.vocab.rel_roles) == (suffix == ".jsonl")
    assert named(rebuilt) == named(kb)


def test_subset_identity_keeps_training_split():
    kb = random_kb(6, (2, 3), n_train=20, seed=7)
    sub = subset_by_arity(kb, binary_keep_ratio=1.0, seed=1)
    assert sub.train == kb.train


def test_subset_empty_result_errors():
    kb = random_kb(6, (2,), n_train=10, seed=7)
    with pytest.raises(DataError):
        subset_by_arity(kb, keep=lambda a: a == 2, binary_keep_ratio=0.0, seed=1)


def test_subset_exact_binary_count():
    kb = random_kb(30, (2,), n_train=100, seed=9)
    sub = subset_by_arity(kb, binary_keep_ratio=0.5, seed=4)
    assert np.count_nonzero(sub.train.arity == 2) == 50


def test_subset_deterministic_under_seed():
    kb = random_kb(10, (2, 3), n_train=40, seed=2)
    first = subset_by_arity(kb, binary_keep_ratio=0.4, seed=8)
    second = subset_by_arity(kb, binary_keep_ratio=0.4, seed=8)
    assert first.train == second.train
    third = subset_by_arity(kb, binary_keep_ratio=0.4, seed=9)
    assert len(third.train) == len(first.train)


def test_subset_filters_every_split_and_rebuilds_truth():
    kb = build_kb(
        parse_tabular(["r a b", "r a c", "s a b d"]),
        valid=parse_tabular(["r a d", "s a c d"]),
        test=parse_tabular(["s b c d", "r c d"]),
    )
    ternary = subset_by_arity(kb, keep=lambda a: a == 3, seed=0)
    assert ternary.train == kb.train[2:]
    assert ternary.valid == kb.valid[1:] and ternary.test == kb.test[:1]
    # the ratio thins binary training facts only: valid and test keep theirs
    sub = subset_by_arity(kb, binary_keep_ratio=0.0, seed=0)
    assert sub.train == kb.train[2:]
    assert sub.valid == kb.valid and sub.test == kb.test
    for fact in fact_pairs(sub.train + sub.valid + sub.test):
        for pos in range(len(fact[1])):
            assert fact[1][pos] in known_true(sub, fact, pos)
    # dropped binary train facts no longer pollute the rebuilt index: the
    # valid fact (r, a, d) now only competes with itself at the tail slot
    valid_fact = fact_pairs(sub.valid)[0]
    d = kb.vocab.entity_index["d"]
    assert known_true(sub, valid_fact, 1) == {d}


def test_fb_auto_style_statistics_shape():
    kb = random_kb(20, (2, 4, 5), n_train=50, seed=21)
    stats = kb.stats()
    assert stats["arities"] == [2, 4, 5]
    assert stats["n_train"] == 50
