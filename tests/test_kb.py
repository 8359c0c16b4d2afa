import json
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_candidates
from ramkb.errors import DataError, ParseError
from ramkb.kb import (
    Fact,
    build_kb,
    export_split,
    parse_normalized,
    parse_role_json,
    parse_tabular,
    subset_by_arity,
)

from conftest import random_kb


def test_parse_tabular_tabs_and_spaces():
    facts = parse_tabular(["r1\ta\tb\tc", "r1 a b"])
    assert facts[0] == ("r1", ("a", "b", "c"), None)
    assert facts[1] == ("r1", ("a", "b"), None)


def test_parse_tabular_too_few_tokens():
    with pytest.raises(ParseError) as err:
        parse_tabular(["r1"])
    assert err.value.line_no == 1
    with pytest.raises(ParseError) as err:
        parse_tabular(["r1 a b", "", "r2 x"])
    assert err.value.line_no == 3


def test_parse_role_json_sorted_keys():
    line = json.dumps(
        {"Actor": "Schwarzenegger", "Character": "T-800", "Movie": "Terminator 2"}
    )
    facts = parse_role_json([line])
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
        facts = parse_role_json(lines)
    assert len(facts) == 1
    assert facts[0][0] == "P1|P2"
    assert any("dropped" in rec.message for rec in caplog.records)


def test_parse_role_json_drops_literals(caplog):
    with caplog.at_level(logging.WARNING, logger="ramkb.kb"):
        facts = parse_role_json(['{"P1": "x", "P2": 1979}'])
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


def test_build_kb_vocab_spans_all_splits():
    kb = build_kb(
        parse_tabular(["r a b"]),
        valid=parse_tabular(["r a c"]),
        test=parse_tabular(["s2 d e f"]),
    )
    assert kb.vocab.n_entities == 6
    assert kb.stats()["entities_outside_train"] == 4
    assert kb.stats()["relations_outside_train"] == 1


def test_truth_index_complete_for_every_split_and_position():
    kb = random_kb(8, (2, 3, 4), n_train=15, n_valid=5, n_test=5, seed=11)
    for fact in kb.all_facts():
        for pos in range(fact.arity):
            assert fact.entities[pos] in kb.true_entities_at(fact, pos)


def test_truth_index_single_fact_both_positions():
    kb = build_kb(parse_tabular(["r a b"]))
    fact = kb.train[0]
    assert kb.true_entities_at(fact, 0) == {fact.entities[0]}
    assert kb.true_entities_at(fact, 1) == {fact.entities[1]}


def slot_mask(kb, facts, index, position):
    """Candidate mask of slot `position` of ``facts[index]``, read off the
    (query, entity) pairs that ``filtered_candidates(facts)`` filters out."""
    query, entity = kb.filtered_candidates(facts)
    mask = np.ones(kb.vocab.n_entities, dtype=bool)
    mask[entity[query == index * facts[index].arity + position]] = False
    return mask


def test_filtered_candidates_excludes_other_true_entities():
    kb = build_kb(parse_tabular(["r a b", "r c b"]))
    a, b, c = (kb.vocab.entity_index[x] for x in "abc")
    mask = slot_mask(kb, kb.train, 0, 0)
    assert mask[a] and not mask[c]
    assert mask.sum() == kb.vocab.n_entities - 1


def test_filtered_candidates_single_fact_everything_allowed():
    kb = build_kb(parse_tabular(["r a b", "s c d"]))
    mask = slot_mask(kb, kb.train, 0, 1)
    assert mask.all()


def assert_masks_match_brute_force(kb):
    for arity in kb.vocab.arities:
        facts = [f for f in kb.train if f.arity == arity]
        for i, fact in enumerate(facts):
            for pos in range(arity):
                np.testing.assert_array_equal(
                    slot_mask(kb, facts, i, pos),
                    brute_force_candidates(kb, fact, pos),
                )


def test_filtered_candidates_matches_brute_force_on_random_kb():
    kb = random_kb(9, (2, 3), n_train=20, seed=5)
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


def _multiset(kb, split):
    return sorted(
        (kb.vocab.relations[f.relation], tuple(kb.vocab.entities[e] for e in f.entities))
        for f in kb.split(split)
    )


def test_normalized_export_round_trips():
    kb = random_kb(7, (2, 3, 4), n_train=12, n_valid=4, n_test=4, seed=3)
    rebuilt = build_kb(
        parse_normalized(export_split(kb, "train")),
        parse_normalized(export_split(kb, "valid")),
        parse_normalized(export_split(kb, "test")),
    )
    for split in ("train", "valid", "test"):
        assert _multiset(kb, split) == _multiset(rebuilt, split)


def test_normalized_export_shape():
    kb = build_kb(parse_role_json(['{"A": "x", "B": "y"}']))
    line = json.loads(next(iter(export_split(kb, "train"))))
    assert line == {
        "relation": "A|B",
        "arity": 2,
        "entities": ["x", "y"],
        "roles": ["A", "B"],
    }


def test_parse_normalized_rejects_values_of_the_wrong_type():
    lines = [
        '{"relation": "r", "entities": "ab"}',
        '{"relation": "r", "entities": [1, 2]}',
        '{"relation": ["r"], "entities": ["a", "b"]}',
        '{"relation": "r", "entities": ["a", "b"], "roles": "AB"}',
    ]
    for line in lines:
        with pytest.raises(ParseError) as err:
            parse_normalized([line])
        assert err.value.line_no == 1, line
    null_roles = '{"relation": "r", "entities": ["a", "b"], "roles": null}'
    assert parse_normalized([null_roles]) == [("r", ("a", "b"), None)]


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
    assert sum(1 for f in sub.train if f.arity == 2) == 50


def test_subset_deterministic_under_seed():
    kb = random_kb(10, (2, 3), n_train=40, seed=2)
    first = subset_by_arity(kb, binary_keep_ratio=0.4, seed=8)
    second = subset_by_arity(kb, binary_keep_ratio=0.4, seed=8)
    assert first.train == second.train
    third = subset_by_arity(kb, binary_keep_ratio=0.4, seed=9)
    assert len(third.train) == len(first.train)


def test_subset_leaves_valid_test_untouched_and_rebuilds_truth():
    kb = build_kb(
        parse_tabular(["r a b", "r a c", "s a b d"]),
        valid=parse_tabular(["r a d"]),
        test=parse_tabular(["s b c d"]),
    )
    sub = subset_by_arity(kb, keep=lambda a: a == 3, seed=0)
    assert sub.valid == kb.valid and sub.test == kb.test
    assert all(f.arity == 3 for f in sub.train)
    for fact in sub.all_facts():
        for pos in range(fact.arity):
            assert fact.entities[pos] in sub.true_entities_at(fact, pos)
    # dropped binary train facts no longer pollute the rebuilt index: the
    # valid fact (r, a, d) now only competes with itself at the tail slot
    valid_fact = sub.valid[0]
    d = kb.vocab.entity_index["d"]
    assert sub.true_entities_at(valid_fact, 1) == {d}


def test_fb_auto_style_statistics_shape():
    kb = random_kb(20, (2, 4, 5), n_train=50, seed=21)
    stats = kb.stats()
    assert stats["arities"] == [2, 4, 5]
    assert stats["n_train"] == 50
