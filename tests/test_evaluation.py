import multiprocessing
import os

import numpy as np
import pytest

from oracles import brute_force_candidates, sort_rank
from ramkb import evaluation, pool
from ramkb.engine import forward_group, split_groups
from ramkb.errors import DataError, NumericError
from ramkb.evaluation import (
    EvalReport,
    entity_table,
    evaluate,
    rank_from_scores,
    report_from_ranks,
)
from ramkb.kb import Fact, KnowledgeBase, build_kb, parse_tabular
from ramkb.mathcore import make_rng
from ramkb.model import ModelConfig, ModelParams

from conftest import make_vocab, random_kb, table_scores
from test_model import randomized_params


def batch_ranks(params, kb, facts):
    """Filtered ranks of facts of any arities, one per slot in fact order, from
    one `rank_from_scores` call; each fact's kernels come from its own
    `forward_group` call, as in the oracle."""
    kernels = np.concatenate([
        forward_group(params, spec).gather.reshape(fact.arity, -1)
        for fact in facts for spec in split_groups(params, [fact])
    ])
    return rank_from_scores(kb, facts, kernels, entity_table(params))


def group_scores_and_ranks(params, kb, facts):
    """Float64 full-table scores (B, a, n_entities) and filtered ranks (B, a)
    of facts of one arity."""
    (spec,) = split_groups(params, facts)
    return table_scores(params, spec), batch_ranks(params, kb, facts).reshape(spec.ents.shape)


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
    """Per-fact lists of ranks from sorting each filtered candidate list of
    float64 full-table scores, plus how many filtered-out entities outscore
    a true one and how many candidates tie with it."""
    ranks, filtered_above, ties = [], 0, 0
    for fact in kb.test:
        all_scores = table_scores(params, split_groups(params, [fact])[0])[0]
        fact_ranks = []
        for pos in range(fact.arity):
            scores = all_scores[pos]
            mask = brute_force_candidates(kb, fact, pos)
            true_score = scores[fact.entities[pos]]
            filtered_above += int((scores[~mask] > true_score).sum())
            ties += int((scores[mask] == true_score).sum()) - 1
            fact_ranks.append(sort_rank(list(scores), mask, fact.entities[pos]))
        ranks.append(fact_ranks)
    return ranks, filtered_above, ties


def assert_ranks_match_oracle(params, kb):
    """Every test query's rank, from one `rank_from_scores` call over the test
    split's mixed arities in split order and from `evaluate`, equals the
    float64 sort oracle's; returns the oracle's filter and tie counts."""
    expected, filtered_above, ties = oracle_ranks(params, kb)
    got = batch_ranks(params, kb, kb.test)
    assert got.tolist() == [r for ranks in expected for r in ranks]
    report = evaluate(params, kb, split="test")
    want = report_from_ranks(
        (fact.arity, r) for fact, ranks in zip(kb.test, expected) for r in ranks
    )
    assert report.mrr == pytest.approx(want.mrr, abs=1e-12)
    assert report.hits == want.hits
    return filtered_above, ties


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
    fact = next(f for f in kb.test if len(set(f.entities)) == f.arity)
    true_e = fact.entities[0]
    (spec,) = split_groups(params, [fact])
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
    free = [e for e in range(len(ent)) if e not in fact.entities]
    extra = []
    for i, (e, x) in enumerate(zip(free, neighbours)):
        ent[e, 0, 0] = x
        if filter_neighbours and i % 2 == 0:
            extra.append(Fact(fact.relation, (e,) + fact.entities[1:]))
    scores = group_scores_and_ranks(params, kb, [fact])[0][0, 0]
    assert sorted(scores[free[:2]].tolist()) == [
        np.nextafter(t, -np.inf), np.nextafter(t, np.inf)]
    assert scores[true_e] == t and scores[free[len(neighbours) - 1]] == t
    return KnowledgeBase(kb.vocab, kb.train + extra, kb.valid, kb.test), params


@pytest.mark.parametrize("filter_neighbours", [False, True], ids=["open", "filtered"])
def test_candidates_inside_float32_error_band_rank_as_in_float64(filter_neighbours):
    """The test split mixes arities, so with `filter_neighbours` the filtered
    band members sit in a mixed-arity batch."""
    kb, params = near_tie_case(filter_neighbours)
    assert {fact.arity for fact in kb.test} == {2, 3}
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
        (ternary,) = [f for f in kb.test if f.arity == 3][:1]
        scores = np.abs(group_scores_and_ranks(params, kb, [ternary])[0])
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
    filtered e5 must still count. The ternary fact's rows come first, so
    the binary fact's queries are rows 3 and 4.
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
    kernels = np.array([[1e39, 0.5, 0, 0, 0, 0], [1.0] * 6, [0, 1, 0, 0, 0, 0],
                        [1.0] * 6, [1e39, 1, 0, 0, 0, 0]])
    got = rank_from_scores(kb, kb.test, kernels, entity_table(params))
    scores = kernels @ rows.T
    want = [sort_rank(list(scores[q]), brute_force_candidates(kb, fact, pos), fact.entities[pos])
            for q, (fact, pos) in enumerate((f, p) for f in kb.test for p in range(f.arity))]
    assert want[3:] == [2, 5]  # e2 above e0; e0, e2, e3, e6 above e1, with e5 filtered
    assert got.tolist() == want


def test_more_than_a_uint8_of_entities_above_in_one_block():
    """600 entities in one block, all but the last two scoring above the true
    one, the last: the walk's first two count chunks are all above it."""
    true_e, other = 599, 598
    fact = Fact(0, (true_e, other))
    kb = KnowledgeBase(make_vocab(600, (2,)), [fact], [], [fact])
    cfg = ModelConfig(embed_dim=3, multiplicity=2, latent_size=2)
    params = randomized_params(cfg, kb.vocab, seed=25)
    ent = params.data[("ent",)]
    ent[:] = 0.0
    ent[:, 0, 0] = 1.0 + np.arange(len(ent))
    (spec,) = split_groups(params, [fact])
    g = forward_group(params, spec).gather[0, 0, 0, 0]  # slot 0's kernel does not read true_e
    assert g != 0.0
    ent[:, 0, 0] *= np.sign(g)
    ent[other, 0, 0] = 1.0 + np.arange(len(ent))[other]  # keeps slot 0's kernel as it was
    ent[true_e, 0, 0] = 0.5 * np.sign(g)
    assert forward_group(params, spec).gather[0, 0, 0, 0] == g
    assert_ranks_match_oracle(params, kb)
    assert batch_ranks(params, kb, [fact])[0] >= 599


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
    the facts' own entities sit on both sides of those cuts. Entities 10 and
    90 copy true entity 49's block, so they tie its queries exactly in
    float64 and fall in its float32 band; training facts make both known
    true at query 0, in different parts. One kernel entry is F32_LIMIT, so
    that row is left to float64; entity 95's matching entry is 4, so the
    row's float32 product overflows in the walk's last part, on a pool thread.
    """
    vocab = make_vocab(100, (2, 3))
    test = [Fact(0, (49, 48)), Fact(1, (35, 34, 70)), Fact(1, (69, 49, 3)), Fact(0, (97, 0))]
    train = [Fact(0, (10, 48)), Fact(0, (90, 48)), Fact(1, (5, 34, 70))]
    kb = KnowledgeBase(vocab, train, [], test)
    cfg = ModelConfig(embed_dim=3, multiplicity=2, latent_size=2)
    params = randomized_params(cfg, vocab, seed=27)
    ent = params.data[("ent",)]
    ent[[10, 90]] = ent[49]
    ent[95, 0, 0] = 4.0
    kernels = np.concatenate([
        forward_group(params, spec).gather.reshape(fact.arity, -1)
        for fact in test for spec in split_groups(params, [fact])
    ])
    kernels[5, 0] = evaluation.F32_LIMIT  # fact 2's slot 0: decided wholly in float64
    return kb, params, kernels, 7 * len(kernels)


def test_ranks_and_band_pairs_do_not_depend_on_the_worker_count(monkeypatch):
    kb, params, kernels, cells = pooled_walk_case()
    monkeypatch.setattr(evaluation, "SCORE_BLOCK_CELLS", cells)
    rows = params.data[("ent",)].reshape(100, -1)
    scores = (kernels[:, None, :] * rows[None]).sum(axis=-1)  # float64 (query, entity)
    want = [sort_rank(list(scores[q]), brute_force_candidates(kb, fact, pos), fact.entities[pos])
            for q, (fact, pos) in enumerate((f, p) for f in kb.test for p in range(f.arity))]
    screen, executor = evaluation._screen, pool.executor
    walks, pools = [], []

    def recording(*args):
        found = screen(*args)
        walks.append([a.copy() for a in found])  # the caller adds to `above` in place
        return found

    monkeypatch.setattr(evaluation, "_screen", recording)
    monkeypatch.setattr(pool, "executor", lambda: pools.append(1) or executor())
    ranks = {}
    for workers in (1, 2, 3, 4, 50):  # 50: more workers than the walk has blocks
        monkeypatch.setattr(pool, "WORKERS", workers)
        ranks[workers] = rank_from_scores(kb, kb.test, kernels, entity_table(params))
        assert len(pools) == (workers > 1)  # the pool walks some parts
        pools.clear()
    assert ranks[1].tolist() == want
    above, band_q, band_e = walks[0]
    assert above[5] == 0 and 5 not in band_q and want[5] > 1  # row 5 is not screened
    assert {(0, 10), (0, 90)} <= set(zip(band_q.tolist(), band_e.tolist()))  # the exact ties
    for workers, walk in zip(ranks, walks):
        assert ranks[workers].tolist() == want, workers
        for got, serial in zip(walk, walks[0]):
            assert got.dtype == serial.dtype and got.tolist() == serial.tolist(), workers


@pytest.mark.parametrize("workers", [2, 3])
def test_evaluate_on_a_pooled_walk_ranks_as_in_float64(workers, monkeypatch):
    kb = random_kb(40, (2, 3, 4), n_train=60, n_test=12, seed=28)
    assert {fact.arity for fact in kb.test} == {2, 3, 4}
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
    send.send((evaluate(params, kb, split="test").mrr, batch_ranks(params, kb, kb.test).tolist()))


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
    want = (evaluate(params, kb, split="test").mrr, batch_ranks(params, kb, kb.test).tolist())
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
        f"{kb.vocab.relations[f.relation][0]}({', '.join(kb.vocab.entities[e] for e in f.entities)})"
        for f in kb.test
    }
    assert str(exc.value).split(" of fact ")[1] in named


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_true_score_names_its_fact_in_a_mixed_batch():
    """Only ternary relation r2's scores are non-finite, and facts of r0
    (binary) and r1 (ternary) come before its first fact: the error names
    that fact, whether the rows are in `evaluate`'s group order or in split
    order."""
    kb = random_kb(9, (2, 3, 3), n_train=12, n_test=8, seed=0)
    cfg = ModelConfig(embed_dim=3, multiplicity=2, latent_size=2)
    params = randomized_params(cfg, kb.vocab, seed=10)
    params.data[("alpha", kb.vocab.relation_index[("r2", 3)])][:] = np.inf
    rels = [kb.vocab.relations[f.relation][0] for f in kb.test]
    first = rels.index("r2")
    assert {"r0", "r1"} <= set(rels[:first])
    fact = kb.test[first]
    name = f"r2({', '.join(kb.vocab.entities[e] for e in fact.entities)})"
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
