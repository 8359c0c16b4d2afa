import numpy as np
import pytest

from oracles import brute_force_candidates, sort_rank
from ramkb.engine import forward_group, split_groups
from ramkb.errors import DataError
from ramkb.evaluation import EvalReport, evaluate, rank_from_scores, report_from_ranks
from ramkb.kb import Fact, KnowledgeBase, build_kb, parse_tabular
from ramkb.model import ModelConfig, ModelParams

from conftest import make_vocab, random_kb
from test_model import randomized_params


def group_scores_and_ranks(params, kb, facts):
    """Full-table scores (B, a, n_entities) and filtered ranks (B, a) of facts of one
    arity, from one `forward_group` and one `rank_from_scores` call as in `evaluate`."""
    (spec,) = split_groups(params, facts)
    scores = forward_group(params, spec).scores
    return scores, rank_from_scores(kb, facts, scores)


def test_rank_one_for_unique_maximum():
    kb = random_kb(6, (2,), n_train=4, seed=1)
    cfg = ModelConfig(embed_dim=3, multiplicity=2, latent_size=2)
    params = randomized_params(cfg, kb.vocab, seed=2)
    # The true entity fills only the queried slot, so scaling its block scales
    # the true score and leaves every other candidate's score unchanged.
    fact = next(f for f in kb.train if f.entities[0] not in f.entities[1:])
    true_e = fact.entities[0]
    scores = group_scores_and_ranks(params, kb, [fact])[0][0, 0]
    true_score = scores[true_e]
    assert true_score != 0.0
    others = np.delete(scores, true_e)
    factor = np.sign(true_score) * (2.0 * np.abs(others).max() / abs(true_score) + 1.0)
    params.data[("ent",)][true_e] *= factor  # dominate every candidate
    scores, ranks = group_scores_and_ranks(params, kb, [fact])
    np.testing.assert_allclose(np.delete(scores[0, 0], true_e), others)
    assert ranks[0, 0] == 1


def test_all_ties_rank_one():
    kb = random_kb(6, (2,), n_train=4, seed=3)
    cfg = ModelConfig(embed_dim=3, multiplicity=2, latent_size=2)
    params = ModelParams.init(cfg, kb.vocab, seed=4)
    params.data[("ent",)][:] = params.data[("ent",)][0]
    fact = kb.train[0]
    assert group_scores_and_ranks(params, kb, [fact])[1][0, 1] == 1


def test_rank_matches_sort_oracle_on_toy_kb():
    kb = random_kb(10, (2, 3), n_train=18, n_test=6, seed=5)
    cfg = ModelConfig(embed_dim=4, multiplicity=2, latent_size=3)
    params = randomized_params(cfg, kb.vocab, seed=6)
    for arity in (2, 3):
        group = [fact for fact in kb.test if fact.arity == arity]
        scores, ranks = group_scores_and_ranks(params, kb, group)
        for row, fact in enumerate(group):
            for pos in range(fact.arity):
                mask = brute_force_candidates(kb, fact, pos)
                expected = sort_rank(list(scores[row, pos]), mask, fact.entities[pos])
                assert ranks[row, pos] == expected


def test_report_hand_case():
    report = report_from_ranks([(2, 1), (2, 4)])
    assert report.mrr == pytest.approx((1 + 0.25) / 2)
    assert report.hits[1] == pytest.approx(0.5)
    assert report.hits[3] == pytest.approx(0.5)
    assert report.hits[10] == pytest.approx(1.0)
    assert report.n_queries == 2


def test_all_rank_one_gives_perfect_report():
    report = report_from_ranks([(2, 1), (3, 1), (3, 1)])
    assert report.mrr == 1.0
    assert all(v == 1.0 for v in report.hits.values())


def test_evaluate_counts_all_positions_per_arity():
    kb = random_kb(8, (2, 4), n_train=10, n_test=6, seed=7)
    cfg = ModelConfig(embed_dim=3, multiplicity=2, latent_size=2)
    params = randomized_params(cfg, kb.vocab, seed=8)
    report = evaluate(params, kb, split="test")
    assert report.n_queries == sum(f.arity for f in kb.test)
    assert sum(s.n_queries for s in report.per_arity.values()) == report.n_queries
    for arity, stats in report.per_arity.items():
        assert stats.n_queries == sum(f.arity for f in kb.test if f.arity == arity)


def oracle_ranks(params, kb):
    """Per-query (arity, rank) by sorting each filtered candidate list, plus
    how many filtered-out entities outscore a true one and how many
    candidates tie with it."""
    ranks, filtered_above, ties = [], 0, 0
    for fact in kb.test:
        all_scores = forward_group(params, split_groups(params, [fact])[0]).scores[0]
        for pos in range(fact.arity):
            scores = all_scores[pos]
            mask = brute_force_candidates(kb, fact, pos)
            true_score = scores[fact.entities[pos]]
            filtered_above += int((scores[~mask] > true_score).sum())
            ties += int((scores[mask] == true_score).sum()) - 1
            ranks.append((fact.arity, sort_rank(list(scores), mask, fact.entities[pos])))
    return ranks, filtered_above, ties


def test_evaluate_matches_per_query_rank():
    cfg = ModelConfig(embed_dim=3, multiplicity=2, latent_size=2)
    sparse = random_kb(9, (2, 3), n_train=12, n_test=5, seed=9)
    # 6 entities and 60 facts: most slots hold known-true entities to filter
    dense = random_kb(6, (2, 3), n_train=40, n_test=20, seed=17)
    tied = randomized_params(cfg, dense.vocab, seed=18)
    tied.data[("ent",)][1] = tied.data[("ent",)][0]  # exact ties where either is scored
    cases = {
        "sparse": (sparse, randomized_params(cfg, sparse.vocab, seed=10)),
        "dense": (dense, randomized_params(cfg, dense.vocab, seed=18)),
        "dense-ties": (dense, tied),
    }
    for name, (kb, params) in cases.items():
        ranks, filtered_above, ties = oracle_ranks(params, kb)
        if name != "sparse":
            assert filtered_above > 0, name  # the filter changes some ranks
        if name == "dense-ties":
            assert ties > 0
        report = evaluate(params, kb, split="test")
        expected = report_from_ranks(ranks)
        assert report.mrr == pytest.approx(expected.mrr, abs=1e-12), name
        assert report.hits == expected.hits, name


def test_evaluate_deterministic():
    kb = random_kb(9, (2, 3), n_train=12, n_test=8, seed=11)
    cfg = ModelConfig(embed_dim=3, multiplicity=2, latent_size=2)
    params = randomized_params(cfg, kb.vocab, seed=12)
    a = evaluate(params, kb, split="test")
    b = evaluate(params, kb, split="test")
    assert a.mrr == b.mrr
    assert a.hits == b.hits


def test_hits_monotone_in_k():
    kb = random_kb(12, (2, 3), n_train=20, n_test=10, seed=13)
    cfg = ModelConfig(embed_dim=3, multiplicity=2, latent_size=2)
    params = randomized_params(cfg, kb.vocab, seed=14)
    report = evaluate(params, kb, split="test")
    assert report.hits[1] <= report.hits[3] <= report.hits[10]
    assert 0.0 <= report.mrr <= 1.0


def test_filter_monotonicity_removing_fact_cannot_improve_rank():
    base_lines = ["r a b", "r c b", "r d b"]
    kb_full = build_kb(parse_tabular(base_lines), test=parse_tabular(["r a b"]))
    # the same KB without "r d b", indexed by the same vocabulary
    kb_small = KnowledgeBase(kb_full.vocab, kb_full.train[:2], [], kb_full.test)
    assert kb_full.vocab.entities == kb_small.vocab.entities
    cfg = ModelConfig(embed_dim=3, multiplicity=2, latent_size=2)
    params = randomized_params(cfg, kb_full.vocab, seed=15)
    fact = kb_full.test[0]
    # Make d outscore a at position 0: d's block is a multiple of a's, with
    # the sign of a's score and a magnitude above 1.
    a, d = (kb_full.vocab.entity_index[name] for name in ("a", "d"))
    a_score = group_scores_and_ranks(params, kb_full, [fact])[0][0, 0, a]
    assert a_score != 0.0
    ent = params.data[("ent",)]
    ent[d] = 2.0 * np.sign(a_score) * ent[a]
    small = group_scores_and_ranks(params, kb_small, [fact])[1][0]
    full = group_scores_and_ranks(params, kb_full, [fact])[1][0]
    for pos in range(fact.arity):
        assert small[pos] >= full[pos]
    # position 0 is the slot where removing "r d b" un-filters d
    assert small[0] > full[0]


def test_empty_split_rejected():
    kb = random_kb(5, (2,), n_train=3, seed=16)
    cfg = ModelConfig(embed_dim=2, multiplicity=1, latent_size=1)
    params = ModelParams.init(cfg, kb.vocab, seed=0)
    with pytest.raises(DataError):
        evaluate(params, kb, split="test")


def test_report_serialization_shapes():
    report = report_from_ranks([(2, 1), (2, 4), (3, 2)], seconds=1.5)
    data = report.to_dict()
    assert set(data) == {"mrr", "hits", "n_queries", "seconds", "per_arity"}
    csv_text = report.per_arity_csv()
    lines = csv_text.strip().splitlines()
    assert lines[0] == "arity,n_queries,mrr,hit1,hit3,hit10"
    assert len(lines) == 3
    assert report.table().count("arity") == 2
