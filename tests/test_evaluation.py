import math
import multiprocessing
import os
import tracemalloc

import numpy as np
import pytest

from oracles import brute_force_candidates, list_report, sort_rank, sort_ties
from ramkb import evaluation, pool
from ramkb.engine import forward_group
from ramkb.errors import DataError, NumericError
from ramkb.evaluation import (
    EvalReport,
    entity_table,
    evaluate,
    rank_from_scores,
    report_from_ranks,
)
from ramkb.kb import KnowledgeBase, build_kb, parse_tabular, split_groups
from ramkb.mathcore import make_rng
from ramkb.model import ModelConfig, ModelParams

from conftest import fact_pairs, facts_of, make_vocab, random_kb, table_scores
from test_model import randomized_params


def query_slots(groups, facts):
    """The ((relation, entities), slot) pair of every query of the facts'
    arity groups, in their stacked row order: group by group, fact by fact,
    slot by slot."""
    pairs = fact_pairs(facts)
    return [(pairs[i], p) for spec in groups for i in spec.fact_index for p in range(spec.arity)]


def query_kernels(params, groups, facts):
    """Every query's kernel (n_queries, m*d), in the groups' stacked row
    order; each fact's come from its own `forward_group` call, as in the
    oracle."""
    return np.concatenate([
        forward_group(params, one).gather.reshape(one.arity, -1)
        for spec in groups for i in spec.fact_index
        for one in split_groups(params.vocab, facts[i : i + 1])
    ])


def batch_ranks(params, kb, facts):
    """Filtered ranks and tie counts of facts of any arities, one per query
    in their arity groups' stacked row order, from one `rank_from_scores`
    call."""
    groups = split_groups(params.vocab, facts)
    return rank_from_scores(kb, groups, query_kernels(params, groups, facts),
                            entity_table(params))


def group_scores_and_ranks(params, kb, facts):
    """Float64 full-table scores (B, a, n_entities) and filtered ranks (B, a)
    of facts of one arity."""
    (spec,) = split_groups(params.vocab, facts)
    ranks = batch_ranks(params, kb, facts)[0]
    return table_scores(params, spec), ranks.reshape(spec.ents.shape)


def report_of(queries):
    """report_from_ranks of (arity, rank, ties) triples."""
    arity, ranks, ties = (np.array(column, dtype=np.intp) for column in zip(*queries))
    return report_from_ranks(arity, ranks, ties)


def test_rank_one_for_unique_maximum():
    kb = random_kb(6, (2,), n_train=4, seed=1)
    cfg = ModelConfig(embed_dim=3, multiplicity=2, latent_size=2)
    params = randomized_params(cfg, kb.vocab, seed=2)
    # The true entity fills only the queried slot, so scaling its block scales
    # the true score and leaves every other candidate's score unchanged.
    i = next(i for i, (_, ents) in enumerate(fact_pairs(kb.train)) if ents[0] not in ents[1:])
    fact = kb.train[i : i + 1]
    true_e = fact.ents[0]
    scores = group_scores_and_ranks(params, kb, fact)[0][0, 0]
    true_score = scores[true_e]
    assert true_score != 0.0
    others = np.delete(scores, true_e)
    factor = np.sign(true_score) * (2.0 * np.abs(others).max() / abs(true_score) + 1.0)
    params.data[("ent",)][true_e] *= factor  # dominate every candidate
    scores, ranks = group_scores_and_ranks(params, kb, fact)
    np.testing.assert_allclose(np.delete(scores[0, 0], true_e), others)
    assert ranks[0, 0] == 1


@pytest.mark.parametrize("fill", ["zero", "one", "first-row"])
def test_all_equal_entity_table_ranks_as_chance(fill):
    """Every entity scores alike, so each query's N' candidates all tie: its
    expected reciprocal rank is H(N') / N' (~0.003 at 3000), not 1."""
    kb = random_kb(3000, (2, 3), n_train=400, n_test=12, seed=3)
    # the first test facts' slot 0 also holds entities 1 to 3 in training facts
    known = facts_of((rel, (e,) + ents[1:]) for rel, ents in fact_pairs(kb.test[:3])
                     for e in (1, 2, 3))
    kb = KnowledgeBase(kb.vocab, kb.train + known, facts_of([]), kb.test)
    cfg = ModelConfig(embed_dim=3, multiplicity=2, latent_size=2)
    params = ModelParams.init(cfg, kb.vocab, seed=4)
    ent = params.data[("ent",)]
    ent[:] = {"zero": 0.0, "one": 1.0, "first-row": ent[0].copy()}[fill]
    n_candidates = [int(brute_force_candidates(kb, *fact, pos).sum())
                    for fact, pos in query_slots(split_groups(kb.vocab, kb.test), kb.test)]
    assert min(n_candidates) < 3000  # the filter removes some candidates
    ranks, ties = batch_ranks(params, kb, kb.test)
    assert ranks.tolist() == [1] * len(n_candidates)
    assert ties.tolist() == [n - 1 for n in n_candidates]
    report = evaluate(params, kb, split="test")
    harmonic = [math.fsum(1.0 / i for i in range(1, n + 1)) for n in n_candidates]
    want = sum(h / n for h, n in zip(harmonic, n_candidates)) / len(n_candidates)
    assert report.mrr == pytest.approx(want, rel=1e-12) and report.mrr < 0.003
    assert report.hits[10] == pytest.approx(sum(10 / n for n in n_candidates) / len(n_candidates))
    assert report.ties == sum(n_candidates) - len(n_candidates)


@pytest.fixture(scope="module")
def full_batch_case():
    """A full EVAL_BATCH of mixed-arity test facts on 300 entities, their
    kernels' params (m*d = 16) and each query's filtered candidate count."""
    kb = random_kb(300, (2, 3), n_train=100, n_test=evaluation.EVAL_BATCH, seed=3)
    cfg = ModelConfig(embed_dim=8, multiplicity=2, latent_size=2)
    params = ModelParams.init(cfg, kb.vocab, seed=4)
    n_candidates = [int(brute_force_candidates(kb, *fact, pos).sum())
                    for fact, pos in query_slots(split_groups(kb.vocab, kb.test), kb.test)]
    return kb, params, n_candidates


# tracemalloc peak of ranking the collapsed full batch; a walk that kept every
# tied pair held ~160 MB of (pairs, m*d) float64 temporaries
COLLAPSED_PEAK_BYTES = 8 * 2**20


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("fill", ["zero", "one", "first-row"])
def test_collapsed_table_ranks_a_full_batch_as_in_float64_in_bounded_memory(
        full_batch_case, fill, workers, monkeypatch):
    """Every query's band holds the whole table: every candidate is scored
    again in float64 within the walk, and all of them tie."""
    kb, params, n_candidates = full_batch_case
    params = params.copy()
    ent = params.data[("ent",)]
    ent[:] = {"zero": 0.0, "one": 1.0, "first-row": ent[0].copy()}[fill]
    groups = split_groups(kb.vocab, kb.test)
    kernels, table = query_kernels(params, groups, kb.test), entity_table(params)
    # blocks of 130 entities: the walk has three, so two workers share it
    monkeypatch.setattr(evaluation, "SCORE_BLOCK_CELLS", 130 * len(kernels))
    monkeypatch.setattr(pool, "WORKERS", workers)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ranks, ties = rank_from_scores(kb, groups, kernels, table)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert ranks.tolist() == [1] * len(n_candidates)
    assert ties.tolist() == [n - 1 for n in n_candidates]
    assert peak < COLLAPSED_PEAK_BYTES, peak


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_entities_sharing_one_row_rank_as_in_float64(workers, monkeypatch):
    """Entities 0 and 200-299 share one row, so a query on any of them has
    about a hundred exact ties, most in the block of 130-259, one in the
    first block: each chunk's band holds dozens of candidates, all rescored
    in float64 in the walk, on whichever thread walks that part."""
    kb = random_kb(300, (2, 3), n_train=60, n_test=40, seed=5)
    params = randomized_params(ModelConfig(embed_dim=3, multiplicity=2, latent_size=2),
                               kb.vocab, seed=6)
    ent = params.data[("ent",)]
    ent[200:] = ent[0]
    n_queries = kb.test.ents.size
    monkeypatch.setattr(evaluation, "SCORE_BLOCK_CELLS", 130 * n_queries)
    monkeypatch.setattr(pool, "WORKERS", workers)
    own = np.concatenate([spec.ents.reshape(-1) for spec in split_groups(kb.vocab, kb.test)])
    _, n_ties = assert_ranks_match_oracle(params, kb)
    assert ((own == 0) | (own >= 200)).any() and n_ties >= 100


# tracemalloc peak of evaluating the hub KB below; a pass that rescored every
# known-true pair in float64 held ~545 MB of (pairs, m*d) temporaries
HUB_PEAK_BYTES = 100 * 2**20


def test_hub_slot_ranks_as_in_float64_in_bounded_memory():
    """n people share one gender slot, gender(?, male), and so do 512 test
    facts: each test query at that slot has ~900 known-true entities to
    filter out, 460k non-candidate pairs in one batch."""
    n = 400
    train = [f"gender p{i} male" for i in range(n)] + [f"knows p{i} p{i + 1}" for i in range(n)]
    test = [f"gender q{j} male" for j in range(evaluation.EVAL_BATCH)]
    kb = build_kb(parse_tabular(train), test=parse_tabular(test))
    cfg = ModelConfig(embed_dim=25, multiplicity=2, latent_size=4)
    params = randomized_params(cfg, kb.vocab, seed=8)
    (spec,) = split_groups(kb.vocab, kb.test)
    query, _ = kb.filtered_candidates([spec])
    assert np.bincount(query)[0] == n + len(test)  # the hub slot's known-true entities
    assert_ranks_match_oracle(params, kb)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        evaluate(params, kb, split="test")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < HUB_PEAK_BYTES, peak


def test_rank_matches_sort_oracle_on_toy_kb():
    kb = random_kb(10, (2, 3), n_train=18, n_test=6, seed=5)
    cfg = ModelConfig(embed_dim=4, multiplicity=2, latent_size=3)
    params = randomized_params(cfg, kb.vocab, seed=6)
    for arity in (2, 3):
        group = kb.test[kb.test.arity == arity]
        scores, ranks = group_scores_and_ranks(params, kb, group)
        for row, fact in enumerate(fact_pairs(group)):
            for pos in range(arity):
                mask = brute_force_candidates(kb, *fact, pos)
                expected = sort_rank(list(scores[row, pos]), mask, fact[1][pos])
                assert ranks[row, pos] == expected


def test_report_hand_case():
    report = report_of([(2, 1, 0), (2, 4, 0)])
    assert report.mrr == pytest.approx((1 + 0.25) / 2)
    assert report.hits[1] == pytest.approx(0.5)
    assert report.hits[3] == pytest.approx(0.5)
    assert report.hits[10] == pytest.approx(1.0)
    assert report.n_queries == 2
    assert report.ties == 0


def test_report_hand_case_with_ties():
    """Rank 1 tied with one other: places 1 and 2. Rank 3 tied with two
    others: places 3, 4 and 5. Rank 9 tied with three: places 9 to 12."""
    report = report_of([(2, 1, 1), (3, 3, 2), (3, 9, 3)])
    rr = [(1 + 1 / 2) / 2, (1 / 3 + 1 / 4 + 1 / 5) / 3, (1 / 9 + 1 / 10 + 1 / 11 + 1 / 12) / 4]
    assert report.mrr == pytest.approx(sum(rr) / 3, rel=1e-15)
    assert report.hits == {1: pytest.approx(0.5 / 3), 3: pytest.approx((1 + 1 / 3) / 3),
                           10: pytest.approx((1 + 1 + 2 / 4) / 3)}
    assert report.per_arity[3].mrr == pytest.approx((rr[1] + rr[2]) / 2, rel=1e-15)
    assert report.per_arity[3].hits[10] == pytest.approx((1 + 2 / 4) / 2)
    assert report.ties == 6


def test_all_rank_one_gives_perfect_report():
    report = report_of([(2, 1, 0), (3, 1, 0), (3, 1, 0)])
    assert report.mrr == 1.0
    assert all(v == 1.0 for v in report.hits.values())


def assert_report_is(report, want):
    mrr, hits, per_arity, ties = want
    assert (repr(report.mrr), repr(report.hits), report.ties) == (repr(mrr), repr(hits), ties)
    got = {a: (s.mrr, s.hits, s.n_queries) for a, s in report.per_arity.items()}
    assert repr(got) == repr(per_arity)
    assert report.n_queries == sum(n for _, _, n in per_arity.values())


def test_array_report_equals_the_list_report_bit_for_bit():
    """Random interleaved arities and tie-free ranks from 1 to 10**6:
    repr-equal, every mean summed in the list report's order. Some of the
    runs sum to other bits in query order or in sorted arity order, so the
    check tells those orders apart."""
    other_orders = set()
    for seed in range(8):
        rng = make_rng(40, seed)
        n = int(rng.integers(1000, 4000))
        arity = rng.choice([2, 3, 4, 5, 6], size=n, p=[0.4, 0.3, 0.15, 0.1, 0.05])
        ranks = (10.0 ** rng.uniform(0, 6, size=n)).astype(np.intp)
        queries = list(zip(arity.tolist(), ranks.tolist(), [0] * n))
        want = list_report(queries)
        assert_report_is(report_of(queries), want)
        for name, order in (("query", slice(None)), ("sorted", np.argsort(arity, kind="stable"))):
            if repr(float((1.0 / ranks[order]).mean())) != repr(want[0]):
                other_orders.add(name)
    assert other_orders == {"query", "sorted"}


def test_array_report_with_ties_equals_the_list_report():
    rng = make_rng(41, 1)
    n = 500
    queries = list(zip(rng.choice([2, 3, 4], size=n).tolist(), rng.integers(1, 40, n).tolist(),
                       (rng.integers(0, 30, n) * (rng.random(n) < 0.3)).tolist()))
    report = report_of(queries)
    mrr, hits, per_arity, ties = list_report(queries)
    assert report.mrr == pytest.approx(mrr, rel=1e-13) and report.ties == ties > 0
    assert report.hits == pytest.approx(hits, rel=1e-13)
    for arity, (a_mrr, a_hits, n_queries) in per_arity.items():
        stats = report.per_arity[arity]
        assert stats.n_queries == n_queries
        assert stats.mrr == pytest.approx(a_mrr, rel=1e-13)
        assert stats.hits == pytest.approx(a_hits, rel=1e-13)


def test_evaluate_counts_all_positions_per_arity():
    kb = random_kb(8, (2, 4), n_train=10, n_test=6, seed=7)
    cfg = ModelConfig(embed_dim=3, multiplicity=2, latent_size=2)
    params = randomized_params(cfg, kb.vocab, seed=8)
    report = evaluate(params, kb, split="test")
    pairs = fact_pairs(kb.test)
    assert report.n_queries == sum(len(ents) for _, ents in pairs)
    assert sum(s.n_queries for s in report.per_arity.values()) == report.n_queries
    for arity, stats in report.per_arity.items():
        assert stats.n_queries == sum(arity for _, ents in pairs if len(ents) == arity)


def oracle_ranks(params, kb):
    """(arity, rank, ties) of every test query in the stacked row order of
    the test split's arity groups, from sorting each filtered candidate list
    of float64 full-table scores, plus how many filtered-out entities
    outscore a true one."""
    queries, filtered_above = [], 0
    for fact, pos in query_slots(split_groups(kb.vocab, kb.test), kb.test):
        all_scores = table_scores(params, split_groups(params.vocab, facts_of([fact]))[0])[0, pos]
        scores = list(all_scores)
        mask = brute_force_candidates(kb, *fact, pos)
        true_e = fact[1][pos]
        filtered_above += int((all_scores[~mask] > scores[true_e]).sum())
        queries.append((len(fact[1]), sort_rank(scores, mask, true_e),
                        sort_ties(scores, mask, true_e)))
    return queries, filtered_above


def assert_ranks_match_oracle(params, kb):
    """Every test query's rank and tie count, from one `rank_from_scores`
    call over the test split's mixed-arity groups, equal the
    float64 sort oracle's, and `evaluate`'s report equals the list report
    of the oracle's; returns the oracle's filter and total tie counts."""
    queries, filtered_above = oracle_ranks(params, kb)
    ranks, ties = batch_ranks(params, kb, kb.test)
    assert list(zip(ranks.tolist(), ties.tolist())) == [(r, t) for _, r, t in queries]
    report = evaluate(params, kb, split="test")
    mrr, hits, _, n_ties = list_report(queries)
    assert report.mrr == pytest.approx(mrr, abs=1e-12)
    # tie-free hits are counts over n, exact in any order; tied ones are fractions
    assert report.hits == (hits if n_ties == 0 else pytest.approx(hits, abs=1e-12))
    assert report.ties == n_ties
    return filtered_above, n_ties


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
        filtered_above, ties = assert_ranks_match_oracle(params, kb)
        if name != "sparse":
            assert filtered_above > 0, name  # the filter changes some ranks
        if name == "dense-ties":
            assert ties > 0


def _coordinate_scoring(g, x0, target):
    """A value x near x0 whose float64 product g * x is exactly `target`."""
    for direction in (np.inf, -np.inf):
        x = x0
        for _ in range(64):
            x = np.nextafter(x, direction)
            if g * x == target:
                return x
    raise AssertionError(f"no x near {x0!r} gives {g!r} * x == {target!r}")


def near_tie_case(filter_neighbours):
    """A KB and params where the first test query's candidates sit around its
    true score t: 1 float64 ulp above and below, within one float32 ulp
    (2**-30 and 2**-40 relative) on either side, and one exact tie.

    Every entity block is zero but for coordinate (0, 0), so each score is
    the one float64 product g * x of the kernel's and the entity's value
    there, rounded once under any summation order. With
    `filter_neighbours`, every second neighbour is also a known-true entity
    of that query, so filtered entities fall inside the float32 band.
    """
    kb = random_kb(16, (2, 3), n_train=12, n_test=6, seed=21)
    cfg = ModelConfig(embed_dim=3, multiplicity=2, latent_size=2)
    params = randomized_params(cfg, kb.vocab, seed=22)
    ent = params.data[("ent",)]
    values = make_rng(23, 1).normal(0.0, 1.0, len(ent))
    ent[:] = 0.0
    ent[:, 0, 0] = values
    relation, entities = next(f for f in fact_pairs(kb.test) if len(set(f[1])) == len(f[1]))
    fact = facts_of([(relation, entities)])
    true_e = entities[0]
    (spec,) = split_groups(params.vocab, fact)
    g = forward_group(params, spec).gather[0, 0, 0, 0]
    # the query's kernel does not read the queried entity. With a mantissa
    # near 2, one ulp of x moves g * x by less than one ulp of the product
    # (unless g's mantissa is below 1.0005), so stepping x ulp by ulp
    # reaches each product value
    x0 = ent[true_e, 0, 0] = 1.999
    t = g * x0
    neighbours = [
        _coordinate_scoring(g, x0, np.nextafter(t, np.inf)),
        _coordinate_scoring(g, x0, np.nextafter(t, -np.inf)),
        x0 * (1 + 2.0**-30), x0 * (1 - 2.0**-30),
        x0 * (1 + 2.0**-40), x0 * (1 - 2.0**-40),
        x0,
    ]
    free = [e for e in range(len(ent)) if e not in entities]
    extra = []
    for i, (e, x) in enumerate(zip(free, neighbours)):
        ent[e, 0, 0] = x
        if filter_neighbours and i % 2 == 0:
            extra.append((relation, (e,) + entities[1:]))
    scores = group_scores_and_ranks(params, kb, fact)[0][0, 0]
    assert sorted(scores[free[:2]].tolist()) == [
        np.nextafter(t, -np.inf), np.nextafter(t, np.inf)]
    assert scores[true_e] == t and scores[free[len(neighbours) - 1]] == t
    return KnowledgeBase(kb.vocab, kb.train + facts_of(extra), kb.valid, kb.test), params


@pytest.mark.parametrize("filter_neighbours", [False, True], ids=["open", "filtered"])
def test_candidates_inside_float32_error_band_rank_as_in_float64(filter_neighbours):
    """The test split mixes arities, so with `filter_neighbours` the filtered
    band members sit in a mixed-arity batch."""
    kb, params = near_tie_case(filter_neighbours)
    assert set(kb.test.arity.tolist()) == {2, 3}
    filtered_above, ties = assert_ranks_match_oracle(params, kb)
    assert ties > 0
    if filter_neighbours:
        assert filtered_above > 0


@pytest.mark.parametrize("filter_neighbours", [False, True], ids=["open", "filtered"])
def test_band_members_split_across_one_entity_blocks(filter_neighbours, monkeypatch):
    monkeypatch.setattr(evaluation, "SCORE_BLOCK_CELLS", 1)
    test_candidates_inside_float32_error_band_rank_as_in_float64(filter_neighbours)


@pytest.mark.parametrize("scale", [1e15, 1e-30], ids=["1e15", "1e-30"])
def test_scaled_entity_table_ranks_as_in_float64(scale):
    """Scores past the float32 range and scores that underflow it."""
    cfg = ModelConfig(embed_dim=3, multiplicity=2, latent_size=2)
    dense = random_kb(6, (2, 3), n_train=40, n_test=20, seed=17)
    cases = [(dense, randomized_params(cfg, dense.vocab, seed=18)),
             near_tie_case(filter_neighbours=True)]
    f32 = np.finfo(np.float32)
    for kb, params in cases:
        params.data[("ent",)] *= scale
        assert_ranks_match_oracle(params, kb)
        ternary = kb.test[kb.test.arity == 3][:1]
        scores = np.abs(group_scores_and_ranks(params, kb, ternary)[0])
        if scale > 1:
            assert scores.max() > f32.max  # such rows are decided in float64
        else:
            assert 0.0 < scores[scores > 0].min() and scores.max() < f32.smallest_subnormal


def test_hand_built_kernels_rank_as_in_float64():
    """Accumulated float32 rounding, rows past the float32 range, and
    filtered entities inside the band, on kernels and blocks set by hand,
    in one call over a ternary and a binary fact.

    The binary fact's slot 0 kernel is all ones: e2's six terms sum to
    1 + 35 * 2**-27 in float64, above e0's true 1 + 32 * 2**-27, but each
    float32 partial sum of 1 and 7 * 2**-27 rounds back to 1, several
    float32 ulps below the true score. Its slot 1 kernel holds 1e39, which
    float32 cannot hold: its scores there are NaN (inf * 0) or inf, and
    filtered e5 must still count. The binary fact comes second in the
    split but its group comes first, so its queries are rows 0 and 1.
    """
    kb = build_kb(parse_tabular(["r e6 e1", "r e0 e5", "q e2 e3", "q e4 e4", "t e5 e0 e1"]),
                  test=parse_tabular(["t e3 e0 e1", "r e0 e1"]))
    cfg = ModelConfig(embed_dim=3, multiplicity=2, latent_size=1)
    params = ModelParams.init(cfg, kb.vocab)
    rows = params.data[("ent",)].reshape(kb.vocab.n_entities, -1)
    small = 7 * 2.0**-27
    blocks = {
        "e0": [1 + 32 * 2.0**-27, 0, 0, 0, 0, 0],
        "e1": [0, 0.5, 0, 0, 0, 0],
        "e2": [1] + [small] * 5,
        "e3": [0, 0.75, 0, 0, 0, 0],
        "e4": [0, 0.25, 0, 0, 0, 0],
        "e5": [0, 0.9, 0, 0, 0, 0],
        "e6": [1 + 48 * 2.0**-27, 0, 0, 0, 0, 0],
    }
    for name, block in blocks.items():
        rows[kb.vocab.entity_index[name]] = block
    kernels = np.array([[1.0] * 6, [1e39, 1, 0, 0, 0, 0], [1e39, 0.5, 0, 0, 0, 0],
                        [1.0] * 6, [0, 1, 0, 0, 0, 0]])
    groups = split_groups(kb.vocab, kb.test)
    got = rank_from_scores(kb, groups, kernels, entity_table(params))
    scores = kernels @ rows.T
    slots = query_slots(groups, kb.test)
    masks = [brute_force_candidates(kb, *fact, pos) for fact, pos in slots]
    want = [sort_rank(list(scores[q]), masks[q], fact[1][pos])
            for q, (fact, pos) in enumerate(slots)]
    assert slots[0] == (fact_pairs(kb.test)[1], 0)
    assert want[:2] == [2, 5]  # e2 above e0; e0, e2, e3, e6 above e1, with e5 filtered
    assert got[0].tolist() == want
    assert got[1].tolist() == [sort_ties(list(scores[q]), masks[q], fact[1][pos])
                               for q, (fact, pos) in enumerate(slots)]


def test_more_than_a_uint8_of_entities_above_in_one_block():
    """600 entities in one block, all but the last two scoring above the true
    one, the last: the walk's first two count chunks are all above it."""
    true_e, other = 599, 598
    fact = facts_of([(0, (true_e, other))])
    kb = KnowledgeBase(make_vocab(600, (2,)), fact, facts_of([]), fact)
    cfg = ModelConfig(embed_dim=3, multiplicity=2, latent_size=2)
    params = randomized_params(cfg, kb.vocab, seed=25)
    ent = params.data[("ent",)]
    ent[:] = 0.0
    ent[:, 0, 0] = 1.0 + np.arange(len(ent))
    (spec,) = split_groups(params.vocab, fact)
    g = forward_group(params, spec).gather[0, 0, 0, 0]  # slot 0's kernel does not read true_e
    assert g != 0.0
    ent[:, 0, 0] *= np.sign(g)
    ent[other, 0, 0] = 1.0 + np.arange(len(ent))[other]  # keeps slot 0's kernel as it was
    ent[true_e, 0, 0] = 0.5 * np.sign(g)
    assert forward_group(params, spec).gather[0, 0, 0, 0] == g
    assert_ranks_match_oracle(params, kb)
    assert batch_ranks(params, kb, fact)[0][0] >= 599


@pytest.mark.parametrize("cells", [2**20, 64, 1])
@pytest.mark.parametrize("n_entities", [1, 255, 256, 511])
def test_table_sizes_around_count_chunks_rank_as_in_float64(n_entities, cells, monkeypatch):
    monkeypatch.setattr(evaluation, "SCORE_BLOCK_CELLS", cells)
    kb = random_kb(n_entities, (2, 3), n_train=30, n_test=6, seed=n_entities)
    cfg = ModelConfig(embed_dim=3, multiplicity=2, latent_size=2)
    assert_ranks_match_oracle(randomized_params(cfg, kb.vocab, seed=26), kb)


def pooled_walk_case():
    """Four mixed-arity test facts over 100 entities, their kernels, and the
    SCORE_BLOCK_CELLS that makes the walk 15 blocks of 7 entities, the last 2.

    Split in 2 parts the walk is cut at entity 49, in 3 at 35 and 70, and
    the facts' own entities sit on both sides of those cuts. The binary
    facts' group comes first, so the queries are rows 0-1 and 2-3 (facts 0
    and 3), then 4-6 and 7-9 (facts 1 and 2). Entities 10 and 90 copy true
    entity 49's block, so they tie its queries exactly in float64 and fall
    in its float32 band, in different parts: training facts make both known
    true at query 0, and at query 8 both are ties. One kernel entry is
    F32_LIMIT, so that row (query 7, own entity 69) is left to float64,
    where entities 20 and 80, copies of 69, tie it; entity 95's matching
    entry is 4, so the row's float32 product overflows in the walk's last
    part, on a pool thread.
    """
    vocab = make_vocab(100, (2, 3))
    test = facts_of([(0, (49, 48)), (1, (35, 34, 70)), (1, (69, 49, 3)), (0, (97, 0))])
    train = facts_of([(0, (10, 48)), (0, (90, 48)), (1, (5, 34, 70))])
    kb = KnowledgeBase(vocab, train, facts_of([]), test)
    cfg = ModelConfig(embed_dim=3, multiplicity=2, latent_size=2)
    params = randomized_params(cfg, vocab, seed=27)
    ent = params.data[("ent",)]
    ent[[10, 90]] = ent[49]
    ent[[20, 80]] = ent[69]
    ent[95, 0, 0] = 4.0
    kernels = query_kernels(params, split_groups(vocab, test), test)
    kernels[7, 0] = evaluation.F32_LIMIT  # fact 2's slot 0: decided wholly in float64
    return kb, params, kernels, 7 * len(kernels)


def test_ranks_and_band_pairs_do_not_depend_on_the_worker_count(monkeypatch):
    kb, params, kernels, cells = pooled_walk_case()
    monkeypatch.setattr(evaluation, "SCORE_BLOCK_CELLS", cells)
    rows = params.data[("ent",)].reshape(100, -1)
    scores = (kernels[:, None, :] * rows[None]).sum(axis=-1)  # float64 (query, entity)
    groups = split_groups(kb.vocab, kb.test)
    slots = query_slots(groups, kb.test)
    masks = [brute_force_candidates(kb, *fact, pos) for fact, pos in slots]
    want = [(sort_rank(list(scores[q]), masks[q], fact[1][pos]),
             sort_ties(list(scores[q]), masks[q], fact[1][pos]))
            for q, (fact, pos) in enumerate(slots)]
    assert [ties for _, ties in want] == [0] * 7 + [2, 2] + [0]
    screen, executor = evaluation._screen, pool.executor
    walks, pools, masked, bands = [], [], [], []

    def recording(table, kernels, true, hi, lo, query, entity):
        found = screen(table, kernels, true, hi, lo, query, entity)
        walks.append([a.copy() for a in found])
        masked.append(set(zip(query.tolist(), entity.tolist())))
        bands.append((hi.copy(), lo.copy()))
        return found

    monkeypatch.setattr(evaluation, "_screen", recording)
    monkeypatch.setattr(pool, "executor", lambda: pools.append(1) or executor())
    ranks = {}
    for workers in (1, 2, 3, 4, 50):  # 50: more workers than the walk has blocks
        monkeypatch.setattr(pool, "WORKERS", workers)
        got = rank_from_scores(kb, groups, kernels, entity_table(params))
        ranks[workers] = list(zip(*(column.tolist() for column in got)))
        assert len(pools) == (workers > 1)  # the pool walks some parts
        pools.clear()
    hi, lo = bands[0]
    # row 7 is blind: its band is infinite, and the walk counts it in float64
    assert np.isinf(hi).tolist() == np.isinf(lo).tolist() == [q == 7 for q in range(10)]
    assert hi[7] == np.inf and lo[7] == -np.inf and want[7][0] > 1
    # the walk masks every non-candidate: the own entities and query 0's
    # known-true copies of its true entity are counted nowhere
    non_candidates = {(q, e) for q, mask in enumerate(masks) for e in np.flatnonzero(~mask)}
    non_candidates |= {(q, fact[1][pos]) for q, (fact, pos) in enumerate(slots)}
    assert {(0, 49), (0, 10), (0, 90)} <= non_candidates
    assert all(pairs == non_candidates for pairs in masked)
    above, ties = walks[0]
    assert ties[0] == 0 and ties[8] == 2  # (8, 10) and (8, 90) tie exactly
    for workers, walk in zip(ranks, walks):
        assert ranks[workers] == want, workers
        for got, serial in zip(walk, walks[0]):
            assert got.dtype == serial.dtype and got.tolist() == serial.tolist(), workers
    assert (1 + above).tolist() == [rank for rank, _ in want]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_blind_row_counts_no_known_true_tie(workers, monkeypatch):
    """A blind row, whose kernel holds 1e39, past the float32 range, where
    entities in every part of the walk copy its true entity's block: those
    known true at its slot tie it exactly in float64 but are not
    candidates, the others count as ties. Where an entity's float32 score
    is NaN (inf * 0) the walk zeroes the row's product before it masks the
    non-candidates, so that entity still counts, above, and the known-true
    ones do not."""
    vocab = make_vocab(100, (2,))
    test = facts_of([(0, (50, 7))])
    known, tied, overflow = [10, 45, 90], [20, 60, 95], [30, 75]
    kb = KnowledgeBase(vocab, facts_of((0, (e, 7)) for e in known), facts_of([]), test)
    params = randomized_params(ModelConfig(embed_dim=3, multiplicity=2, latent_size=2),
                               vocab, seed=33)
    ent = params.data[("ent",)]
    ent[50, 0, 0] = -1.0  # a true score near -1e39
    ent[known + tied] = ent[50]
    ent[overflow, 0, 0] = 0.0
    groups = split_groups(vocab, test)
    kernels = query_kernels(params, groups, test)
    kernels[0, 0] = 1e39
    rows = ent.reshape(100, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(rows[overflow].astype(np.float32) @ kernels[0].astype(np.float32)).all()
    scores = (kernels[:, None, :] * rows[None]).sum(axis=-1)
    masks = [brute_force_candidates(kb, *fact, pos) for fact, pos in query_slots(groups, test)]
    want = [(sort_rank(list(scores[q]), masks[q], fact[1][pos]),
             sort_ties(list(scores[q]), masks[q], fact[1][pos]))
            for q, (fact, pos) in enumerate(query_slots(groups, test))]
    assert want[0][1] == len(tied) and want[0][0] > len(overflow)
    assert not masks[0][known].any() and (scores[0, known] == scores[0, 50]).all()
    # blocks of 7 entities: every part of the walk holds a known-true tie
    monkeypatch.setattr(evaluation, "SCORE_BLOCK_CELLS", 7 * len(kernels))
    monkeypatch.setattr(pool, "WORKERS", workers)
    executor, pools = pool.executor, []
    monkeypatch.setattr(pool, "executor", lambda: pools.append(1) or executor())
    got = rank_from_scores(kb, groups, kernels, entity_table(params))
    assert list(zip(*(column.tolist() for column in got))) == want
    assert len(pools) == (workers > 1)  # the pool walks some parts


@pytest.mark.parametrize("workers", [2, 3])
def test_evaluate_on_a_pooled_walk_ranks_as_in_float64(workers, monkeypatch):
    kb = random_kb(40, (2, 3, 4), n_train=60, n_test=12, seed=28)
    assert set(kb.test.arity.tolist()) == {2, 3, 4}
    cfg = ModelConfig(embed_dim=3, multiplicity=2, latent_size=2)
    params = randomized_params(cfg, kb.vocab, seed=29)
    monkeypatch.setattr(evaluation, "SCORE_BLOCK_CELLS", 64)  # a walk of many small blocks
    serial = evaluate(params, kb, split="test").to_dict()
    monkeypatch.setattr(pool, "WORKERS", workers)
    executor, pools = pool.executor, []
    monkeypatch.setattr(pool, "executor", lambda: pools.append(1) or executor())
    assert_ranks_match_oracle(params, kb)
    pooled = evaluate(params, kb, split="test").to_dict()
    assert pools  # the pool walked some parts
    assert {**pooled, "seconds": 0} == {**serial, "seconds": 0}


def _ranks_in_child(send, params, kb):
    send.send((evaluate(params, kb, split="test").mrr, batch_ranks(params, kb, kb.test)[0].tolist()))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
@pytest.mark.filterwarnings("ignore:.*fork:DeprecationWarning")  # the pool's threads at fork
def test_evaluate_in_a_forked_child_ranks_on_a_pool_of_its_own(monkeypatch):
    """The child inherits the parent's pool object but none of its threads:
    a task handed to that pool would never run."""
    kb = random_kb(40, (2, 3), n_train=30, n_test=8, seed=30)
    cfg = ModelConfig(embed_dim=3, multiplicity=2, latent_size=2)
    params = randomized_params(cfg, kb.vocab, seed=31)
    monkeypatch.setattr(evaluation, "SCORE_BLOCK_CELLS", 64)
    monkeypatch.setattr(pool, "WORKERS", 2)
    want = (evaluate(params, kb, split="test").mrr, batch_ranks(params, kb, kb.test)[0].tolist())
    assert pool._pool is not None
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_ranks_in_child, args=(send, params, kb))
    child.start()
    try:
        assert receive.poll(60), "the forked child's evaluate did not return"
        assert receive.recv() == want
        child.join(60)
        assert child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()
            child.join()


def test_entity_table_equals_abs_max_and_float32_copy():
    """Bit for bit, over tables with and without a partial reduce chunk and
    with signed zeros, including a column of mixed-sign zeros."""
    rng = make_rng(32, 1)
    for n_entities in (1, 31, 32, 33, 100):
        vocab = make_vocab(n_entities, (2,))
        params = ModelParams.init(ModelConfig(embed_dim=3, multiplicity=2, latent_size=1), vocab)
        ent = params.data[("ent",)]
        ent[:] = rng.normal(0.0, 10.0, ent.shape)
        ent[:, 1, 1] = np.where(np.arange(n_entities) % 2, 0.0, -0.0)
        ent[:, 0, 2] = -0.0
        ent[-1, 1, 0] = -evaluation.F32_LIMIT
        rows = ent.reshape(n_entities, -1)
        table = entity_table(params)
        assert np.shares_memory(table.rows, ent) and table.rows.tobytes() == rows.tobytes()
        for got, want in ((table.rows32, rows.astype(np.float32)),
                          (table.col_max, np.abs(rows).max(axis=0))):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_non_finite_entity_table_is_numeric_error():
    kb = random_kb(9, (2, 3), n_train=12, n_test=5, seed=9)
    cfg = ModelConfig(embed_dim=3, multiplicity=2, latent_size=2)
    params = randomized_params(cfg, kb.vocab, seed=10)
    params.data[("ent",)][:] = np.nan
    with pytest.raises(NumericError, match="entity 'e0'"):
        evaluate(params, kb, split="test")
    params = randomized_params(cfg, kb.vocab, seed=10)
    params.data[("ent",)][4, 1, 2] = np.nan
    with pytest.raises(NumericError, match="entity 'e4'"):
        evaluate(params, kb, split="test")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_true_score_is_numeric_error():
    kb = random_kb(9, (2, 3), n_train=12, n_test=5, seed=9)
    cfg = ModelConfig(embed_dim=3, multiplicity=2, latent_size=2)
    params = randomized_params(cfg, kb.vocab, seed=10)
    params.data[("basis_u",)][0, 1] = np.inf
    with pytest.raises(NumericError, match=r"non-finite score") as exc:
        evaluate(params, kb, split="test")
    named = {
        f"{kb.vocab.relations[rel][0]}({', '.join(kb.vocab.entities[e] for e in ents)})"
        for rel, ents in fact_pairs(kb.test)
    }
    assert str(exc.value).split(" of fact ")[1] in named


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_true_score_names_its_fact_in_a_mixed_batch():
    """Only ternary relation r2's scores are non-finite, and facts of r0
    (binary) and r1 (ternary) come before its first fact: the error names
    that fact, whether `evaluate` ranks it or one `rank_from_scores` call
    over the split's groups does."""
    kb = random_kb(9, (2, 3, 3), n_train=12, n_test=8, seed=0)
    cfg = ModelConfig(embed_dim=3, multiplicity=2, latent_size=2)
    params = randomized_params(cfg, kb.vocab, seed=10)
    params.data[("alpha", kb.vocab.relation_index[("r2", 3)])][:] = np.inf
    rels = [kb.vocab.relations[rel][0] for rel in kb.test.rels]
    first = rels.index("r2")
    assert {"r0", "r1"} <= set(rels[:first])
    _, entities = fact_pairs(kb.test)[first]
    name = f"r2({', '.join(kb.vocab.entities[e] for e in entities)})"
    for rank in (lambda: evaluate(params, kb, split="test"),
                 lambda: batch_ranks(params, kb, kb.test)):
        with pytest.raises(NumericError, match=r"non-finite score") as exc:
            rank()
        assert str(exc.value).endswith(f"at slot 0 of fact {name}")


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
    kb_small = KnowledgeBase(kb_full.vocab, kb_full.train[:2], facts_of([]), kb_full.test)
    assert kb_full.vocab.entities == kb_small.vocab.entities
    cfg = ModelConfig(embed_dim=3, multiplicity=2, latent_size=2)
    params = randomized_params(cfg, kb_full.vocab, seed=15)
    fact = kb_full.test[:1]
    # Make d outscore a at position 0: d's block is a multiple of a's, with
    # the sign of a's score and a magnitude above 1.
    a, d = (kb_full.vocab.entity_index[name] for name in ("a", "d"))
    a_score = group_scores_and_ranks(params, kb_full, fact)[0][0, 0, a]
    assert a_score != 0.0
    ent = params.data[("ent",)]
    ent[d] = 2.0 * np.sign(a_score) * ent[a]
    small = group_scores_and_ranks(params, kb_small, fact)[1][0]
    full = group_scores_and_ranks(params, kb_full, fact)[1][0]
    for pos in range(fact.arity[0]):
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
    report = report_from_ranks(np.array([2, 2, 3]), np.array([1, 4, 2]), np.array([0, 2, 0]),
                               seconds=1.5)
    data = report.to_dict()
    assert set(data) == {"mrr", "hits", "n_queries", "ties", "seconds", "per_arity"}
    assert data["ties"] == 2
    csv_text = report.per_arity_csv()
    lines = csv_text.strip().splitlines()
    assert lines[0] == "arity,n_queries,mrr,hit1,hit3,hit10"
    assert len(lines) == 3
    assert report.table().count("arity") == 2
