import time

import numpy as np
import pytest

from oracles import (
    naive_explicit_score,
    naive_extended_score,
    naive_latent_score,
    naive_softmax_matrix,
)
from ramkb.engine import GradientBuffer, score
from ramkb.errors import ConfigError, DimensionError
from ramkb.kb import split_groups
from ramkb.mathcore import make_rng
from ramkb.model import ModelConfig, ModelParams, relation_terms

from conftest import fact_pairs, facts_of, make_vocab, own_scores, random_facts, table_scores


def randomized_params(cfg, vocab, seed=0, mixing_scale=0.7):
    params = ModelParams.init(cfg, vocab, seed=seed)
    rng = make_rng(seed, 55)
    for key in params.slots():
        if key[0] in ("alpha", "beta"):
            params.data[key] = rng.normal(0, mixing_scale, params.data[key].shape)
        if key[0] == "omega":
            params.data[key] = rng.normal(1.0, 0.4, params.data[key].shape)
    return params


class TestModelConfig:
    def test_preset_forces_dimensions(self):
        cfg = ModelConfig(mode="preset:QuatE")
        assert (cfg.multiplicity, cfg.role_multiplicity, cfg.patterns_per_role) == (4, 2, 4)
        cfg = ModelConfig(mode="preset:ComplEx")
        assert (cfg.multiplicity, cfg.role_multiplicity, cfg.patterns_per_role) == (2, 1, 2)
        assert ModelConfig(**cfg.to_dict()) == cfg

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(mode="bogus")
        with pytest.raises(ConfigError):
            ModelConfig(mode="preset:Foo")
        with pytest.raises(ConfigError):
            ModelConfig(mode="preset")
        with pytest.raises(ConfigError):
            ModelConfig(embed_dim=0)
        with pytest.raises(ConfigError):
            ModelConfig(mode="latent", role_multiplicity=2)


class TestRoleEmbedding:
    """Role embeddings as `relation_terms` gives them: `role_emb[0, position, 0]`."""

    def test_uniform_simplex(self):
        vocab = make_vocab(3, (2,))
        cfg = ModelConfig(embed_dim=2, multiplicity=1, latent_size=2)
        params = ModelParams.init(cfg, vocab, seed=0)
        params.data[("basis_u",)] = np.array([[1.0, 0.0], [0.0, 1.0]])
        params.data[("alpha", 0)][:] = 0.0
        np.testing.assert_allclose(relation_terms(params, [0]).role_emb[0, 0, 0], [0.5, 0.5])

    def test_saturated_softmax_picks_one_basis(self):
        vocab = make_vocab(3, (2,))
        cfg = ModelConfig(embed_dim=2, multiplicity=1, latent_size=2)
        params = ModelParams.init(cfg, vocab, seed=0)
        params.data[("basis_u",)] = np.array([[1.0, 0.0], [0.0, 1.0]])
        params.data[("alpha", 0)][0, 0] = [40.0, -40.0]
        np.testing.assert_allclose(
            relation_terms(params, [0]).role_emb[0, 0, 0], [1.0, 0.0], atol=1e-12
        )

    def test_matches_naive_loop(self):
        from oracles import naive_role_embedding

        vocab = make_vocab(3, (3,))
        cfg = ModelConfig(embed_dim=4, multiplicity=2, latent_size=3)
        params = randomized_params(cfg, vocab, seed=2)
        role_emb = relation_terms(params, [0]).role_emb[0]
        for pos in range(3):
            expected = naive_role_embedding(
                params.data[("alpha", 0)][pos, 0],
                [list(b) for b in params.data[("basis_u",)]],
            )
            np.testing.assert_allclose(role_emb[pos, 0], expected, atol=1e-12)

    def test_convex_hull_membership(self):
        vocab = make_vocab(3, (2,))
        cfg = ModelConfig(embed_dim=3, multiplicity=1, latent_size=4)
        params = randomized_params(cfg, vocab, seed=3)
        emb = relation_terms(params, [0]).role_emb[0, 1, 0]
        basis = params.data[("basis_u",)]
        coeffs, *_ = np.linalg.lstsq(
            np.vstack([basis.T, np.ones(4)]), np.append(emb, 1.0), rcond=None
        )
        assert np.all(coeffs > -1e-9)


class TestPatternMatrix:
    """Pattern matrices as `relation_terms` gives them: `patterns[0, position, 0, 0]`."""

    def test_single_basis_is_normalized_basis(self):
        vocab = make_vocab(3, (2,))
        cfg = ModelConfig(embed_dim=2, multiplicity=2, latent_size=1)
        params = randomized_params(cfg, vocab, seed=4)
        expected = naive_softmax_matrix(params.data[("basis_p", 2)][0].tolist())
        np.testing.assert_allclose(
            relation_terms(params, [0]).patterns[0, 0, 0, 0], expected, atol=1e-15
        )

    def test_zero_bases_give_uniform_entries(self):
        vocab = make_vocab(3, (2,))
        cfg = ModelConfig(embed_dim=2, multiplicity=2, latent_size=3)
        params = ModelParams.init(cfg, vocab, seed=0)
        params.data[("basis_p", 2)][:] = 0.0
        np.testing.assert_allclose(
            relation_terms(params, [0]).patterns[0, 1, 0, 0], np.full((2, 2), 0.25)
        )

    def test_matches_naive_loop(self):
        from oracles import naive_pattern_matrix

        vocab = make_vocab(3, (3,))
        cfg = ModelConfig(embed_dim=2, multiplicity=2, latent_size=2)
        params = randomized_params(cfg, vocab, seed=5)
        patterns = relation_terms(params, [0]).patterns[0]
        for pos in range(3):
            expected = naive_pattern_matrix(
                params.data[("alpha", 0)][pos, 0],
                [[list(r) for r in b] for b in params.data[("basis_p", 3)]],
            )
            np.testing.assert_allclose(patterns[pos, 0, 0], expected, atol=1e-12)

    def test_entries_positive_and_sum_to_one(self):
        vocab = make_vocab(4, (2, 4))
        cfg = ModelConfig(embed_dim=3, multiplicity=2, latent_size=5)
        params = randomized_params(cfg, vocab, seed=6)
        for rel in range(2):
            patterns = relation_terms(params, [rel]).patterns[0]
            for pos in range(vocab.arity(rel)):
                pat = patterns[pos, 0, 0]
                assert np.all(pat > 0)
                assert pat.sum() == pytest.approx(1.0, abs=1e-12)

    def test_missing_arity_is_config_error(self):
        vocab = make_vocab(3, (2,))
        cfg = ModelConfig(embed_dim=2, multiplicity=2, latent_size=2)
        params = ModelParams.init(cfg, vocab, seed=0)
        del params.data[("basis_p", 2)]
        with pytest.raises(ConfigError):
            relation_terms(params, [0])


def test_mixing_weight_shift_invariance():
    vocab = make_vocab(4, (3,))
    cfg = ModelConfig(embed_dim=3, multiplicity=2, latent_size=4)
    params = randomized_params(cfg, vocab, seed=7)
    before = relation_terms(params, [0])
    params.data[("alpha", 0)] += 3.7
    after = relation_terms(params, [0])
    np.testing.assert_allclose(after.role_emb[0, 1], before.role_emb[0, 1], atol=1e-12)
    np.testing.assert_allclose(after.patterns[0, 1], before.patterns[0, 1], atol=1e-12)


class TestRelationTermsContract:
    """`relation_terms` gives one row per id, repeats allowed, and its pullback
    sums each relation's rows before the mode pulls them back."""

    MODES = [
        ("latent", {}),
        ("extended", {"role_multiplicity": 2, "patterns_per_role": 2}),
        ("explicit", {}),
        ("preset:ComplEx", {}),
    ]
    IDS = np.array([1, 0, 1, 1])

    @staticmethod
    def _params(mode, extra):
        cfg = ModelConfig(embed_dim=3, multiplicity=2, latent_size=3, mode=mode, **extra)
        arities = (2, 2) if mode.startswith("preset:") else (3, 3)
        vocab = make_vocab(5, arities, explicit_roles=mode == "explicit")
        return randomized_params(cfg, vocab, seed=31)

    @pytest.mark.parametrize("mode,extra", MODES)
    def test_each_row_is_its_relations_terms(self, mode, extra):
        params = self._params(mode, extra)
        terms = relation_terms(params, self.IDS)
        for row, rel in enumerate(self.IDS):
            one = relation_terms(params, [rel])
            for name in ("role_emb", "patterns", "weights"):
                np.testing.assert_array_equal(getattr(terms, name)[row], getattr(one, name)[0])

    @pytest.mark.parametrize("mode,extra", MODES)
    def test_pullback_of_repeated_ids_sums_their_rows(self, mode, extra):
        params = self._params(mode, extra)
        terms = relation_terms(params, self.IDS)
        rng = make_rng(32)
        grads = [rng.normal(size=x.shape) for x in terms.flat()]
        repeated = GradientBuffer(params)
        terms.pullback(*grads, repeated)
        summed = [np.stack([g[self.IDS == rel].sum(axis=0) for rel in (0, 1)]) for g in grads]
        distinct = GradientBuffer(params)
        relation_terms(params, [0, 1]).pullback(*summed, distinct)
        got, want = repeated.dense(), distinct.dense()
        assert got.keys() == want.keys() and want
        for key in want:
            np.testing.assert_allclose(got[key], want[key], rtol=0, atol=1e-12, err_msg=key)


class TestScore:
    def test_zero_entities_score_zero(self):
        vocab = make_vocab(4, (3,))
        cfg = ModelConfig(embed_dim=3, multiplicity=2, latent_size=2)
        params = randomized_params(cfg, vocab, seed=8)
        params.data[("ent",)][:] = 0.0
        assert score(params, 0, (0, 1, 2)) == 0.0

    def test_distmult_hand_case(self):
        vocab = make_vocab(2, (2,))
        cfg = ModelConfig(embed_dim=2, mode="preset:DistMult")
        params = ModelParams.init(cfg, vocab, seed=0)
        params.data[("preset_u", 0)][:] = np.array([[[1.0, 1.0]], [[1.0, 1.0]]])
        params.data[("ent",)][0] = np.array([[2.0, 0.0], [0.0, 3.0]])
        params.data[("ent",)][1] = np.array([[1.0, 1.0], [1.0, 2.0]])
        assert score(params, 0, (0, 1)) == pytest.approx(2.0, abs=1e-12)

    def test_latent_matches_naive_triple_loop(self):
        vocab = make_vocab(5, (3,))
        cfg = ModelConfig(embed_dim=4, multiplicity=2, latent_size=3)
        params = randomized_params(cfg, vocab, seed=9)
        for fact in fact_pairs(random_facts(vocab, 6, seed=10)):
            assert score(params, *fact) == pytest.approx(
                naive_latent_score(params, *fact), rel=1e-12, abs=1e-12
            )

    def test_extended_matches_naive(self):
        vocab = make_vocab(5, (2, 3))
        cfg = ModelConfig(
            embed_dim=3,
            multiplicity=2,
            latent_size=2,
            mode="extended",
            role_multiplicity=2,
            patterns_per_role=3,
        )
        params = randomized_params(cfg, vocab, seed=11)
        for fact in fact_pairs(random_facts(vocab, 6, seed=12)):
            assert score(params, *fact) == pytest.approx(
                naive_extended_score(params, *fact), rel=1e-12, abs=1e-12
            )

    def test_explicit_matches_naive(self):
        vocab = make_vocab(5, (2, 3), explicit_roles=True)
        cfg = ModelConfig(embed_dim=3, multiplicity=2, latent_size=2, mode="explicit")
        params = randomized_params(cfg, vocab, seed=13)
        for fact in fact_pairs(random_facts(vocab, 6, seed=14)):
            assert score(params, *fact) == pytest.approx(
                naive_explicit_score(params, *fact), rel=1e-12, abs=1e-12
            )

    def test_linear_in_single_occurrence_entity_block(self):
        vocab = make_vocab(5, (3,))
        cfg = ModelConfig(embed_dim=3, multiplicity=2, latent_size=2)
        params = randomized_params(cfg, vocab, seed=15)
        base = score(params, 0, (0, 1, 2))
        params.data[("ent",)][1] *= 2.0
        assert score(params, 0, (0, 1, 2)) == pytest.approx(2.0 * base, rel=1e-10)

    def test_arity_mismatch_rejected(self):
        vocab = make_vocab(4, (3,))
        params = ModelParams.init(ModelConfig(embed_dim=2), vocab, seed=0)
        with pytest.raises(DimensionError):
            score(params, 0, (0, 1))


class TestScoreBatchPosition:
    """One position's full-table scores: a row of the table scorer's scores."""

    @pytest.mark.parametrize(
        "mode,kwargs",
        [
            ("latent", {}),
            ("extended", {"role_multiplicity": 2, "patterns_per_role": 2}),
            ("explicit", {}),
        ],
    )
    def test_matches_per_entity_scores(self, mode, kwargs):
        vocab = make_vocab(6, (2, 3), explicit_roles=(mode == "explicit"))
        cfg = ModelConfig(
            embed_dim=3, multiplicity=2, latent_size=2, mode=mode, **kwargs
        )
        params = randomized_params(cfg, vocab, seed=16)
        facts = random_facts(vocab, 4, seed=17)
        for spec in split_groups(params.vocab, facts):
            scores = table_scores(params, spec)
            for row, fact_idx in enumerate(spec.fact_index):
                relation, fact_entities = fact_pairs(facts)[fact_idx]
                for pos in range(len(fact_entities)):
                    got = scores[row, pos]
                    for e in range(vocab.n_entities):
                        entities = list(fact_entities)
                        entities[pos] = e
                        expected = score(params, relation, entities)
                        assert got[e] == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_true_entity_entry_equals_plain_score(self):
        vocab = make_vocab(6, (4,))
        cfg = ModelConfig(embed_dim=5, multiplicity=2, latent_size=3)
        params = randomized_params(cfg, vocab, seed=18)
        entities = (1, 3, 3, 5)
        scores = table_scores(params, split_groups(params.vocab, facts_of([(0, entities)]))[0])[0]
        for pos in range(4):
            got = scores[pos]
            assert got[entities[pos]] == pytest.approx(
                score(params, 0, entities), rel=1e-12, abs=1e-12
            )

    def test_identical_embeddings_give_constant_vector(self):
        vocab = make_vocab(5, (2,))
        cfg = ModelConfig(embed_dim=3, multiplicity=2, latent_size=2)
        params = randomized_params(cfg, vocab, seed=19)
        params.data[("ent",)][:] = params.data[("ent",)][0]
        spec = split_groups(params.vocab, facts_of([(0, (0, 1))]))[0]
        got = table_scores(params, spec)[0, 1]
        np.testing.assert_allclose(got, got[0], atol=1e-12)


def test_batched_phi_matches_per_fact_score(toy_kb):
    from ramkb.expressive import construct

    cfg = ModelConfig(embed_dim=4, multiplicity=2, latent_size=3)
    cases = [(ModelParams.init(cfg, toy_kb.vocab, seed=20), toy_kb.train)]
    # groups that stack several relations, each with its own mixing weights
    arities = (2, 2, 3, 3, 3)
    for mode in ("latent", "extended", "explicit", "preset:ComplEx"):
        extra = {"role_multiplicity": 2, "patterns_per_role": 2} if mode == "extended" else {}
        cfg = ModelConfig(embed_dim=4, multiplicity=2, latent_size=3, mode=mode, **extra)
        vocab = make_vocab(8, (2, 2, 2) if mode.startswith("preset:") else arities,
                           explicit_roles=mode == "explicit")
        cases.append((randomized_params(cfg, vocab, seed=21), random_facts(vocab, 30, seed=22)))
    vocab = make_vocab(8, arities)
    facts = random_facts(vocab, 12, seed=23)
    cases.append((construct(vocab, facts), facts))

    for params, facts in cases[1:]:
        specs = split_groups(params.vocab, facts)
        assert max(len(np.unique(spec.rels)) for spec in specs) > 1, params.cfg.mode
    for params, facts in cases:
        for spec in split_groups(params.vocab, facts):
            # a fact's score is the candidate score of its own entity
            phi = own_scores(params, spec)[:, 0, 0]
            for row, fact_idx in enumerate(spec.fact_index):
                fact = fact_pairs(facts)[fact_idx]
                assert phi[row] == pytest.approx(score(params, *fact), abs=1e-15)


def test_scoring_time_roughly_linear_in_embedding_dim():
    # coarse guard at unit-test scale; the acceptance suite pins the ratio.
    # The two sizes are timed in turn within each round, and each one's
    # fastest round is kept, so a burst of load on the machine slows both
    # sizes alike or is dropped, rather than inflating one side of the ratio.
    def setup(d):
        vocab = make_vocab(256, (3,))
        params = ModelParams.init(
            ModelConfig(embed_dim=d, multiplicity=2, latent_size=8), vocab, seed=0
        )
        facts = random_facts(vocab, 128, seed=d)
        specs = split_groups(params.vocab, facts)
        for spec in specs:
            table_scores(params, spec)
        return params, specs

    runs = {d: setup(d) for d in (64, 256)}
    fastest = dict.fromkeys(runs, float("inf"))
    for _ in range(9):
        for d, (params, specs) in runs.items():
            t0 = time.perf_counter()
            for spec in specs:
                table_scores(params, spec)
            fastest[d] = min(fastest[d], time.perf_counter() - t0)
    ratio = fastest[256] / fastest[64]  # both sizes score the same 128 facts
    assert ratio < 16.0
