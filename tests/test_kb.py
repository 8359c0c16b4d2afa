import copy
import json
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_candidates
from ramkb.errors import DataError, ParseError
from ramkb.kb import (
    CODE_LIMIT,
    Fact,
    KnowledgeBase,
    Vocabulary,
    _encode,
    build_kb,
    export_split,
    parse_role_json,
    parse_tabular,
    subset_by_arity,
)

from conftest import make_vocab, random_facts, random_kb


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


def slot_mask(kb, facts, index, position):
    """Candidate mask of slot `position` of ``facts[index]``, read off the
    (query, entity) pairs that ``filtered_candidates(facts)`` filters out."""
    query, entity = kb.filtered_candidates(facts)
    start = sum(fact.arity for fact in facts[:index])  # queries number slots in fact order
    mask = np.ones(kb.vocab.n_entities, dtype=bool)
    mask[entity[query == start + position]] = False
    return mask


def known_true(kb, fact, position):
    """Every entity known true at a slot of `fact`. A query filters all of
    them but its own entity, so two probes with different own entities at
    the slot (0 and 1) filter the whole set between them."""
    known = set()
    for probe in (0, 1):
        entities = fact.entities[:position] + (probe,) + fact.entities[position + 1 :]
        mask = slot_mask(kb, [Fact(fact.relation, entities)], 0, position)
        known |= {int(e) for e in np.flatnonzero(~mask)}
    return known


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
    for fact in kb.all_facts():
        for pos in range(fact.arity):
            assert fact.entities[pos] in known_true(kb, fact, pos)


def test_truth_index_single_fact_both_positions():
    kb = build_kb(parse_tabular(["r a b"]))
    fact = kb.train[0]
    assert known_true(kb, fact, 0) == {fact.entities[0]}
    assert known_true(kb, fact, 1) == {fact.entities[1]}


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


def assert_facts_match_brute_force(kb, facts):
    for i, fact in enumerate(facts):
        for pos in range(fact.arity):
            np.testing.assert_array_equal(
                slot_mask(kb, facts, i, pos),
                brute_force_candidates(kb, fact, pos),
            )


def assert_masks_match_brute_force(kb):
    """Per arity group, and on the train split's mixed-arity list as it is."""
    groups = [[f for f in kb.train if f.arity == arity] for arity in kb.vocab.arities]
    for facts in groups + [kb.train]:
        assert_facts_match_brute_force(kb, facts)


def test_filtered_candidates_matches_brute_force_on_random_kb():
    kb = random_kb(9, (2, 3), n_train=20, seed=5)
    assert {f.arity for f in kb.train} == {2, 3}  # the mixed list has both
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
    stored = set(kb.all_facts())
    assert any(p not in stored for p in probes)
    assert_facts_match_brute_force(kb, probes)


def test_filtered_candidates_lists_a_fact_repeated_across_splits_once():
    kb = build_kb(
        parse_tabular(["r a b", "r a b"]),
        valid=parse_tabular(["r a b"]),
        test=parse_tabular(["r a b", "r c b"]),
    )
    a, c = kb.vocab.entity_index["a"], kb.vocab.entity_index["c"]
    query, entity = kb.filtered_candidates([kb.test[1]])
    assert list(zip(query.tolist(), entity.tolist())) == [(0, a)]
    query, entity = kb.filtered_candidates([kb.test[0]])
    assert list(zip(query.tolist(), entity.tolist())) == [(0, c)]


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
    assert {f.arity for f in mixed} == {2, 3, 4, 5, 6}
    assert_facts_match_brute_force(kb, mixed)


def test_filtered_candidates_empty_fact_list():
    kb = random_kb(5, (2, 3), n_train=10, seed=1)
    query, entity = kb.filtered_candidates([])
    assert query.shape == entity.shape == (0,)
    assert query.dtype == entity.dtype == np.intp


@pytest.mark.parametrize("test_facts", [[Fact(0, (0, 1))], []], ids=["empty-train", "no-facts"])
def test_filtered_candidates_kb_with_empty_splits(test_facts):
    kb = KnowledgeBase(make_vocab(3, (2,)), [], [], test_facts)
    probes = [Fact(0, (0, 1)), Fact(0, (2, 1)), Fact(0, (0, 2))]
    assert_facts_match_brute_force(kb, probes)
    query, entity = kb.filtered_candidates(probes)
    assert query.dtype == entity.dtype == np.intp


def test_filtered_candidates_largest_entity_id():
    vocab = make_vocab(7, (2, 3))
    top = vocab.n_entities - 1
    facts = [Fact(0, (top, top)), Fact(0, (2, top)), Fact(1, (top, 0, top)),
             Fact(1, (top, 1, top))]
    probes = [Fact(0, (1, top)), Fact(1, (top, top, top))]
    kb = KnowledgeBase(vocab, facts, [], [])
    _, entity = kb.filtered_candidates(probes)
    assert top in entity.tolist()
    assert_facts_match_brute_force(kb, facts + probes)


def test_filtered_candidates_shallow_copy_filters_by_whole_kb():
    """A copy with a replaced test split, as a benchmark's ranking chunk is,
    keeps filtering by every split of the KB it was copied from."""
    kb = random_kb(5, (2, 3), n_train=20, n_valid=5, n_test=30, seed=4)
    chunk = copy.copy(kb)
    chunk.test = kb.test[:3]
    for facts in (chunk.test, kb.test):
        for got, want in zip(chunk.filtered_candidates(facts), kb.filtered_candidates(facts)):
            np.testing.assert_array_equal(got, want)
    assert_facts_match_brute_force(kb, kb.test)


def test_encode_rejects_codes_past_int64():
    """Synthetic sizes: the check reads only the id count and the base."""
    none = np.zeros(0, dtype=np.int64)
    base = 2**31 + 1  # n_entities + 1 for 2**31 entities
    assert _encode(none, (CODE_LIMIT - 1) // base, none, base).size == 0
    with pytest.raises(DataError, match="2\\*\\*63"):
        _encode(none, CODE_LIMIT // base + 1, none, base)
    with pytest.raises(DataError):
        _encode(none, 2, none, CODE_LIMIT // 2)
    # the largest code allowed is exact in int64
    base = 2**62 - 1
    top = _encode(np.array([1]), 2, np.array([base - 1]), base)
    assert int(top[0]) == 2 * base - 1


def test_kb_past_the_code_bound_raises_data_error():
    """Over 2**61 (synthetic) entities, one binary fact's two keys stay
    below the bound and two facts' four keys reach it."""

    class Huge(Vocabulary):
        @property
        def n_entities(self):
            return 2**61

    vocab = Huge()
    vocab.add_relation("r", 2)
    KnowledgeBase(vocab, [Fact(0, (0, 1))], [], [])
    with pytest.raises(DataError, match="too large"):
        KnowledgeBase(vocab, [Fact(0, (0, 1)), Fact(0, (2, 3))], [], [])


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
        split: [(v.relations[f.relation], [v.entities[e] for e in f.entities])
                for f in kb.split(split)]
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
    assert sum(1 for f in sub.train if f.arity == 2) == 50


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
    for fact in sub.all_facts():
        for pos in range(fact.arity):
            assert fact.entities[pos] in known_true(sub, fact, pos)
    # dropped binary train facts no longer pollute the rebuilt index: the
    # valid fact (r, a, d) now only competes with itself at the tail slot
    valid_fact = sub.valid[0]
    d = kb.vocab.entity_index["d"]
    assert known_true(sub, valid_fact, 1) == {d}


def test_fb_auto_style_statistics_shape():
    kb = random_kb(20, (2, 4, 5), n_train=50, seed=21)
    stats = kb.stats()
    assert stats["arities"] == [2, 4, 5]
    assert stats["n_train"] == 50
