import copy
import functools
import logging
import math
import re
import time
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import (
    TextbookAdam,
    copy_cross_entropy,
    naive_fact_loss,
    naive_latent_score,
    rowwise_scatter,
)
from ramkb import evaluation, training
from ramkb.engine import (
    GradientBuffer,
    SampledCandidates,
    TableCandidates,
    _fold_terms,
    _pattern_grad,
    _weigh,
    forward_group,
    group_losses,
    score,
)
from ramkb.errors import ConfigError, NumericError
from ramkb.evaluation import evaluate
from ramkb.gradcheck import _random_trial, check_batch, run_gradcheck
from ramkb.kb import KnowledgeBase, Vocabulary, build_kb, parse_tabular, split_groups
from ramkb.mathcore import make_rng, scatter_rows
from ramkb.model import ModelConfig, ModelParams
from ramkb.training import (
    ADAM_BLOCK_ROWS,
    AdamState,
    TrainConfig,
    _group_masks,
    batch_backward,
    batch_loss,
    corrupt,
    optimizer_step,
    train,
)

from conftest import fact_pairs, facts_of, make_vocab, own_scores, random_facts, random_kb
from test_model import randomized_params


def assert_same_bits(got, want):
    """`got` and `want` hold the same float64 bits: signed zeros and NaN payloads too."""
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def spread_values(rng, shape):
    """Values from 1e-8 to 1e8 in size, so any change of summation order shows."""
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)


class TestTrainConfig:
    def test_defaults_valid(self):
        cfg = TrainConfig()
        assert cfg.negatives == "full"

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)
        with pytest.raises(ConfigError):
            TrainConfig(decay_rate=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(dropout=1.0)
        with pytest.raises(ConfigError):
            TrainConfig(negatives="some")
        for value in (0.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="learning_rate"):
                TrainConfig(learning_rate=value)
        for name in ("max_epochs", "patience", "eval_every"):
            for value in (0, -1, -3):
                with pytest.raises(ConfigError, match=name):
                    TrainConfig(**{name: value})

    @pytest.mark.parametrize("make, name, value", [
        (TrainConfig, "negatives", 2.5),
        (TrainConfig, "negatives", True),
        (TrainConfig, "batch_size", 64.0),
        (TrainConfig, "seed", False),
        (ModelConfig, "embed_dim", 2.5),
        (ModelConfig, "latent_size", True),
        (ModelConfig, "multiplicity", 2.0),
        (functools.partial(ModelConfig, mode="preset:QuatE"), "multiplicity", 4.0),
        (TrainConfig, "batch_size", np.int64(64)),
        (ModelConfig, "embed_dim", np.int64(3)),
    ], ids=["negatives-float", "negatives-bool", "batch-size-float", "seed-bool",
            "embed-dim-float", "latent-size-bool", "multiplicity-float",
            "preset-multiplicity-float", "batch-size-numpy-int", "embed-dim-numpy-int"])
    def test_an_integer_field_refuses_a_bool_or_a_float(self, make, name, value):
        """Neither is truncated into a count: negatives=2.5 would train with 2, True with 1.
        A numpy integer is refused too, since a checkpoint header cannot write it as JSON."""
        message = f"{name} must be an integer of at least ., got {re.escape(repr(value))}"
        with pytest.raises(ConfigError, match=message):
            make(**{name: value})
        assert getattr(make(**{name: 4}), name) == 4


class TestCorrupt:
    """The group-wide sampler: one (B, a, n) draw of distinct non-true entities per slot."""

    # 3 of 11 other entities draws them with repeats redrawn; 8 of 11 draws
    # the 3 it leaves out
    FEW_AND_MOST = (3, 8)

    def test_sampled_deterministic_and_distinct(self):
        true = make_rng(8).integers(0, 12, (20, 3))
        for negatives in self.FEW_AND_MOST:
            a = corrupt(true, 12, negatives, make_rng(9))
            b = corrupt(true, 12, negatives, make_rng(9))
            np.testing.assert_array_equal(a, b)
            assert a.shape == (20, 3, negatives)
            for slot, cands in zip(true.reshape(-1), a.reshape(-1, negatives)):
                assert len(set(cands)) == negatives and slot not in cands
                assert 0 <= cands.min() and cands.max() < 12

    def test_sampled_clips_to_population(self):
        true = np.array([[0, 3], [4, 4]])
        for negatives in (4, 10):
            out = corrupt(true, n_entities=5, negatives=negatives, rng=make_rng(1))
            assert out.shape == (2, 2, 4)
            for slot, cands in zip(true.reshape(-1), out.reshape(-1, 4)):
                assert sorted(cands) == [e for e in range(5) if e != slot]

    @pytest.mark.parametrize("negatives", FEW_AND_MOST)
    def test_every_other_entity_is_drawn_at_a_uniform_rate(self, negatives):
        n_e, per_true = 12, 500
        true = np.arange(n_e * per_true).reshape(-1, 3) % n_e
        cands = corrupt(true, n_e, negatives, make_rng(10))
        counts = np.zeros((n_e, n_e))
        np.add.at(counts, (np.repeat(true.reshape(-1), negatives), cands.reshape(-1)), 1)
        assert not counts.diagonal().any()
        # a slot's n of the M = n_e - 1 others are drawn without replacement,
        # so each true entity's M counts, scaled by (M - 1) / M, give a
        # chi-square statistic with M - 1 degrees of freedom
        m = n_e - 1
        p = negatives / m
        off = ~np.eye(n_e, dtype=bool)
        stat = ((counts[off] - per_true * p) ** 2).sum() / (per_true * p * (1 - p)) * (m - 1) / m
        dof = n_e * (m - 1)
        # the 0.999 quantile of chi-square(dof), Wilson-Hilferty approximation
        bound = dof * (1 - 2 / (9 * dof) + 3.09 * math.sqrt(2 / (9 * dof))) ** 3
        assert stat < bound

    @pytest.mark.parametrize("negatives", [1000, 2000])
    def test_near_population_draws_are_fast(self, negatives):
        # 1000 of 2000 others is the most the redraw path takes; 2000 of 2000
        # would redraw repeats for ever without drawing the set left out
        true = make_rng(11).integers(0, 2001, (64, 3))
        start = time.perf_counter()
        out = corrupt(true, 2001, negatives, make_rng(12))
        assert time.perf_counter() - start < 1.0
        assert out.shape == (64, 3, negatives)
        assert (np.diff(out, axis=2) > 0).all() and not (out == true[:, :, None]).any()


class TestLoss:
    def test_uniform_scores_give_log_candidates(self):
        kb = random_kb(7, (2,), n_train=3, seed=1)
        params = ModelParams.init(ModelConfig(embed_dim=3, multiplicity=2), kb.vocab, 0)
        params.data[("ent",)][:] = params.data[("ent",)][0]
        fact = kb.train[:1]
        expected = fact.arity[0] * math.log(kb.vocab.n_entities)
        assert batch_loss(params, fact) == pytest.approx(expected, rel=1e-9)

    def test_dominant_true_score_drives_loss_to_zero(self):
        loss = group_losses(np.array([[1000.0, 0.0, -5.0]]), np.array([0]), 1.0)[0][0]
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_matches_naive_composition(self):
        vocab = make_vocab(5, (2, 3))
        cfg = ModelConfig(embed_dim=3, multiplicity=2, latent_size=2)
        params = randomized_params(cfg, vocab, seed=2)
        for fact in fact_pairs(random_facts(vocab, 4, seed=3)):
            expected = naive_fact_loss(naive_latent_score, params, *fact, vocab.n_entities)
            assert batch_loss(params, facts_of([fact])) == pytest.approx(expected, rel=1e-9)

    def test_shift_invariance_of_position_loss(self):
        rng = make_rng(4)
        scores = rng.normal(size=12)
        true_cols = np.array([3])
        # group_losses overwrites its scores, so each call gets its own copy
        base = group_losses(scores[None].copy(), true_cols, 1.0)[0][0]
        shifted = group_losses(scores[None] + 123.456, true_cols, 1.0)[0][0]
        assert shifted == pytest.approx(base, abs=1e-9)

    def test_gradient_is_computed_in_the_score_array(self):
        scores = make_rng(5).normal(size=(12, 9))
        _, grad = group_losses(scores, np.zeros(12, dtype=np.intp), 1.0)
        assert np.shares_memory(grad, scores) and grad.shape == scores.shape

    @staticmethod
    def _spread_scores(spread):
        # 15 kernel rows of 40 candidates. Spread values span 16 decades, so
        # at spread 1 most rows are one-hot; at 1e-6 the softmax spreads over
        # many columns
        rng = np.random.default_rng(6)
        return spread_values(rng, (15, 40)) * spread, rng.integers(0, 40, 15)

    @pytest.mark.parametrize("spread", [1.0, 1e-6])
    def test_in_place_equals_copy_based_reference_bit_for_bit(self, spread):
        scores, true_cols = self._spread_scores(spread)
        n, c = scores.shape
        for scale in (1.0, 1 / 64, 1 / 3):
            # the oracle takes (B, a, C): each row is a one-position fact
            want_losses, want_grad = copy_cross_entropy(
                scores.reshape(n, 1, c), true_cols.reshape(n, 1), scale)
            want_grad = want_grad.reshape(n, c)
            losses, grad = group_losses(scores.copy(), true_cols, scale)
            for got, want in ((losses, want_losses), (grad, want_grad)):
                np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
            assert np.isfinite(want_losses).all() and np.abs(want_grad).max() > 0.01 * scale

    @pytest.mark.parametrize("scale", [1 / 64, 1 / 3, 1e-3])
    @pytest.mark.parametrize("spread", [1.0, 1e-6])
    def test_scale_leaves_losses_bit_equal_and_scales_the_gradient(self, spread, scale):
        """The losses are those of scale 1, bit for bit. The gradient is
        within 2 ulp of ``scale * (softmax - onehot)``, the ulp of `scale`
        at the true column, whose subtraction may cancel."""
        scores, true_cols = self._spread_scores(spread)
        plain, _ = group_losses(scores.copy(), true_cols, 1.0)
        losses, grad = group_losses(scores.copy(), true_cols, scale)
        np.testing.assert_array_equal(losses.view(np.uint64), plain.view(np.uint64))
        exps = np.exp(scores - scores.max(axis=-1, keepdims=True))
        onehot = np.zeros(scores.shape, dtype=bool)
        np.put_along_axis(onehot, true_cols[:, None], True, axis=1)
        want = scale * (exps / exps.sum(axis=-1, keepdims=True) - onehot)
        ulp = np.spacing(np.where(onehot, scale, np.abs(want)))
        assert (np.abs(grad - want) <= 2 * ulp).all()
        if spread < 1:  # a spread softmax: the two differ in the last bits
            assert (grad != want).any()

    def test_sampled_equals_full_when_clipped_to_whole_vocab(self):
        kb = random_kb(3, (2,), n_train=4, seed=5)
        cfg = ModelConfig(embed_dim=3, multiplicity=2, latent_size=2)
        params = randomized_params(cfg, kb.vocab, seed=6)
        rngs = [make_rng(0, 2, 0, i) for i in range(len(kb.train))]
        full = batch_loss(params, kb.train, negatives="full")
        sampled = batch_loss(params, kb.train, negatives=5, fact_rngs=rngs)
        assert sampled == pytest.approx(full, abs=1e-12)

    def test_batch_loss_is_the_loss_batch_backward_returns(self):
        kb = random_kb(9, (2, 3), n_train=6, seed=24)
        cfg = ModelConfig(embed_dim=3, multiplicity=2, latent_size=2)
        params = randomized_params(cfg, kb.vocab, seed=25)

        def rngs():
            return [make_rng(26, i) for i in range(len(kb.train))]

        loss, _ = batch_backward(params, kb.train, negatives=3, dropout=0.3, fact_rngs=rngs())
        again = batch_loss(params, kb.train, negatives=3, dropout=0.3, fact_rngs=rngs())
        assert again == pytest.approx(loss, rel=1e-12)

    @pytest.mark.parametrize("negatives,dropout", [(3, 0.0), ("full", 0.2)])
    def test_sampled_or_dropout_batch_without_generators_forwards_no_group(
            self, monkeypatch, negatives, dropout):
        kb = random_kb(9, (2, 3), n_train=6, seed=24)
        cfg = ModelConfig(embed_dim=3, multiplicity=2, latent_size=2)
        params = randomized_params(cfg, kb.vocab, seed=25)
        forwarded = []
        monkeypatch.setattr(training, "forward_group", lambda *args: forwarded.append(args))
        for run in (batch_loss, batch_backward):
            with pytest.raises(ConfigError, match="one generator per fact"):
                run(params, kb.train, negatives=negatives, dropout=dropout, fact_rngs=None)
        assert not forwarded

    def test_groups_draw_only_from_their_first_facts_generator(self):
        kb = random_kb(9, (2, 3, 4), n_train=12, seed=28)
        cfg = ModelConfig(embed_dim=3, multiplicity=2, latent_size=2)
        params = randomized_params(cfg, kb.vocab, seed=29)
        firsts = {int(spec.fact_index[0]) for spec in split_groups(params.vocab, kb.train)}
        assert len(firsts) == 3

        def rngs(other_key):
            return [make_rng(26, i) if i in firsts else make_rng(other_key, i)
                    for i in range(len(kb.train))]

        runs = [batch_backward(params, kb.train, 3, 0.3, rngs(key)) for key in (26, 27)]
        assert runs[0][0] == runs[1][0]
        for key, grad in runs[0][1].dense().items():
            np.testing.assert_array_equal(grad, runs[1][1].dense()[key])
        assert batch_loss(params, kb.train, 3, 0.3, rngs(26)) == batch_loss(
            params, kb.train, 3, 0.3, rngs(27))

    def test_one_shared_generator_gives_batch_backward_its_loss(self):
        # train passes one generator for every fact of a batch
        kb = random_kb(9, (2, 3, 4), n_train=12, seed=30)
        cfg = ModelConfig(embed_dim=3, multiplicity=2, latent_size=2)
        params = randomized_params(cfg, kb.vocab, seed=31)
        shared = [make_rng(32)] * len(kb.train)
        loss, _ = batch_backward(params, kb.train, 3, 0.3, shared)
        again = batch_loss(params, kb.train, 3, 0.3, [make_rng(32)] * len(kb.train))
        assert again == pytest.approx(loss, rel=1e-12)

    @pytest.mark.parametrize("negatives,dropout", [("full", 0.3), (2, 0.0)])
    def test_randomness_without_generators_is_rejected(self, negatives, dropout):
        kb = random_kb(6, (2,), n_train=3, seed=27)
        params = ModelParams.init(ModelConfig(embed_dim=2), kb.vocab, 0)
        for loss_fn in (batch_loss, batch_backward):
            with pytest.raises(ConfigError):
                loss_fn(params, kb.train, negatives=negatives, dropout=dropout)

    def test_batch_loss_of_an_empty_batch_is_rejected(self):
        params = ModelParams.init(ModelConfig(embed_dim=2), make_vocab(3, (2,)), 0)
        with pytest.raises(ConfigError, match="empty batch"):
            batch_loss(params, [])

    def test_batch_backward_of_an_empty_batch_is_rejected(self):
        params = ModelParams.init(ModelConfig(embed_dim=2), make_vocab(3, (2,)), 0)
        with pytest.raises(ConfigError, match="empty batch"):
            batch_backward(params, facts_of([]))


class TestBackward:
    def test_single_candidate_means_zero_gradients(self):
        vocab = Vocabulary(["only"], [("r", 2)])
        cfg = ModelConfig(embed_dim=3, multiplicity=2, latent_size=2)
        params = ModelParams.init(cfg, vocab, seed=0)
        loss, buf = batch_backward(params, facts_of([(0, (0, 0))]))
        assert loss == pytest.approx(0.0, abs=1e-12)
        largest = max(float(np.abs(g).max()) for g in buf.dense().values())
        assert largest == pytest.approx(0.0, abs=1e-15)

    def test_finite_differences_on_toy_model(self):
        # fixed toy shape: d=4, m=2, K=3, one ternary relation
        vocab = make_vocab(6, (3,))
        cfg = ModelConfig(embed_dim=4, multiplicity=2, latent_size=3)
        params = randomized_params(cfg, vocab, seed=7)
        facts = random_facts(vocab, 3, seed=8)
        keys = [(8, i) for i in range(len(facts))]
        errors = check_batch(params, facts, "full", 0.0, keys)
        assert max(errors.values()) <= 1e-4

    @pytest.mark.parametrize("mode", ["latent", "extended", "explicit"])
    @pytest.mark.parametrize("arities", [(5,), (6,), (2, 5, 6)])
    @pytest.mark.parametrize("negatives,dropout", [("full", 0.0), (3, 0.3)])
    def test_finite_differences_at_high_arity(self, mode, arities, negatives, dropout):
        # the reverse sweep loops over the arity; the random gradcheck trials
        # stop at arity 4, the planted benchmark data reach 6. Entity blocks
        # and role vectors are scaled to unit size: at the 0.1 init scale a
        # product of seven factors sits below the comparison floor
        extra = {}
        if mode == "extended":
            extra = {"role_multiplicity": 2, "patterns_per_role": 2}
        cfg = ModelConfig(embed_dim=3, multiplicity=2, latent_size=2, mode=mode, **extra)
        vocab = make_vocab(7, arities, explicit_roles=mode == "explicit")
        params = randomized_params(cfg, vocab, seed=21)
        params.data[("ent",)] *= 10.0
        params.data[("role_vec",) if mode == "explicit" else ("basis_u",)] *= 10.0
        facts = random_facts(vocab, 4, seed=22)
        keys = [(23, i) for i in range(len(facts))]
        errors = check_batch(params, facts, negatives, dropout, keys)
        assert max(errors.values()) <= 1e-4

    def test_gradcheck_across_modes(self):
        report = run_gradcheck(trials=8, seed=1)
        assert report.passed, report.family_errors

    def test_default_gradcheck_trials_cover_every_mode_under_dropout(self):
        modes, with_dropout = set(), set()
        for trial in range(20):  # `ram gradcheck`'s default trial count
            params, _, _, dropout, _ = _random_trial(0, trial)
            modes.add(params.cfg.mode)
            if dropout > 0:
                with_dropout.add(params.cfg.mode)
        assert with_dropout == modes

    def test_independent_finite_difference_via_naive_loss(self):
        # fully test-side check: naive loss + manual central differences on
        # a handful of coordinates of every family
        vocab = make_vocab(4, (2,))
        cfg = ModelConfig(embed_dim=2, multiplicity=2, latent_size=2)
        params = randomized_params(cfg, vocab, seed=9)
        pairs = [(0, (0, 1)), (0, (2, 3))]

        def loss_fn():
            return sum(
                naive_fact_loss(naive_latent_score, params, *f, 4) for f in pairs
            ) / len(pairs)

        grads = batch_backward(params, facts_of(pairs))[1].dense()
        h = 1e-5
        rng = make_rng(10)
        for key in params.slots():
            array = params.data[key]
            flat = array.reshape(-1)
            for _ in range(min(4, flat.size)):
                i = int(rng.integers(flat.size))
                orig = flat[i]
                flat[i] = orig + h
                up = loss_fn()
                flat[i] = orig - h
                down = loss_fn()
                flat[i] = orig
                numeric = (up - down) / (2 * h)
                analytic = grads[key].reshape(-1)[i]
                assert analytic == pytest.approx(numeric, rel=1e-4, abs=1e-7)

    def test_preset_buffer_has_no_pattern_slots(self):
        vocab = make_vocab(4, (2,))
        cfg = ModelConfig(embed_dim=3, mode="preset:SimplE")
        params = ModelParams.init(cfg, vocab, seed=0)
        _, buf = batch_backward(params, facts_of([(0, (0, 1))]))
        families = {key[0] for key in buf.dense()}
        assert families == {"ent", "preset_u"}

    def _abort_message(self, plant):
        """The abort of a batch on planted entity values; it names the batch's first fact."""
        kb = random_kb(4, (2,), n_train=2, seed=13)
        cfg = ModelConfig(embed_dim=2, multiplicity=1, latent_size=1)
        params = ModelParams.init(cfg, kb.vocab, seed=0)
        plant(params.data[("ent",)])
        with pytest.raises(NumericError) as err:
            batch_backward(params, kb.train)
        message = str(err.value)
        relation, entities = fact_pairs(kb.train)[0]
        names = ", ".join(kb.vocab.entities[e] for e in entities)
        assert f"first fact {kb.vocab.relations[relation][0]}({names});" in message
        return params, message

    def test_non_finite_loss_aborts_with_diagnostics(self):
        def plant(ent):
            ent[0, 0, 0] = np.nan

        _, message = self._abort_message(plant)
        assert "parameter norms" in message

    def test_non_finite_abort_names_only_the_broken_slot(self):
        def plant(ent):
            ent[1, 0, 1] = np.nan

        params, message = self._abort_message(plant)
        assert "('ent',): nan" in message
        assert not any(repr(key) in message for key in params.data if key != ("ent",))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_abort_names_the_largest_slot(self):
        def plant(ent):
            ent *= 1e200

        params, message = self._abort_message(plant)
        assert all(np.isfinite(value).all() for value in params.data.values())
        assert "every parameter is finite; largest of the parameter norms ('ent',)" in message


class TestCandidateScorers:
    @pytest.mark.parametrize("mode", ["latent", "explicit", "preset:ComplEx"])
    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    def test_sampled_scorer_over_the_whole_table_matches_table_scorer(self, mode, dropout):
        # every entity as the candidates of every (fact, position), in table
        # order: the sampled scorer then computes what the table scorer does
        cfg = ModelConfig(embed_dim=4, multiplicity=2, latent_size=3, mode=mode)
        arities = (2, 2) if mode.startswith("preset:") else (2, 3)
        vocab = make_vocab(7, arities, explicit_roles=mode == "explicit")
        params = randomized_params(cfg, vocab, seed=24)
        facts = random_facts(vocab, 6, seed=25)
        rngs = [make_rng(26, i) for i in range(len(facts))]
        n_e = vocab.n_entities
        for spec in split_groups(params.vocab, facts):
            masks = _group_masks(spec, params, dropout, rngs[spec.fact_index[0]])
            kern = forward_group(params, spec, masks)
            every = np.tile(np.arange(n_e), spec.ents.shape + (1,))
            table, sampled = TableCandidates(params, spec.ents), SampledCandidates(params, every)
            np.testing.assert_allclose(sampled.scores(kern.gather), table.scores(kern.gather),
                                       rtol=1e-12, atol=1e-15)
            g = make_rng(27, spec.arity).normal(size=spec.ents.shape + (n_e,))
            np.testing.assert_allclose(sampled.pullback(g), table.pullback(g),
                                       rtol=1e-12, atol=1e-15)
            # every candidate's row gradient, scattered, is the one table product
            bufs = GradientBuffer(params), GradientBuffer(params)
            bufs[0].add_rows(("ent",), every.reshape(-1),
                             sampled.row_grads(kern.gather, g).reshape((-1,) + table.shape[1:]))
            kernels = kern.gather.reshape((-1,) + table.shape[1:])
            bufs[1].add_all_rows(("ent",), table.table_grad(kernels, g.reshape(len(kernels), -1)))
            np.testing.assert_allclose(bufs[0].dense()[("ent",)], bufs[1].dense()[("ent",)],
                                       rtol=1e-12, atol=1e-15)
            np.testing.assert_array_equal(bufs[0].touched[("ent",)], bufs[1].touched[("ent",)])


class TestContractions:
    """The engine's batched-matmul contractions against ``np.einsum``."""

    # (B, T, m, d, C); the second row makes every size-1 axis that can be one
    SIZES = [(3, 5, 2, 4, 6), (1, 1, 1, 3, 1)]

    @pytest.mark.parametrize("arity", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("b,t,m,d,c", SIZES)
    def test_matmuls_equal_einsum(self, arity, b, t, m, d, c):
        # positive values: no cancellation, so the relative tolerance holds
        rng = np.random.default_rng(arity)
        pf = rng.uniform(0.5, 1.5, (b, t, arity, m))
        blocks = rng.uniform(0.5, 1.5, (b, arity, m, d))
        x = rng.uniform(0.5, 1.5, (b, t, arity, d))
        close = functools.partial(np.testing.assert_allclose, rtol=1e-12)
        close(_weigh(pf, blocks), np.einsum("btlm,blmd->btld", pf, blocks))
        close(_fold_terms(pf, x), np.einsum("btlm,btld->blmd", pf, x))
        close(_pattern_grad(blocks, x), np.einsum("blmd,btld->btlm", blocks, x))

        params = ModelParams.init(ModelConfig(embed_dim=d, multiplicity=m, latent_size=1),
                                  make_vocab(9, (arity,)))
        table = params.data[("ent",)] = rng.uniform(0.5, 1.5, params.data[("ent",)].shape)
        ids = rng.integers(0, 9, (b, arity, c))
        g = rng.uniform(0.5, 1.5, (b, arity, c))
        sampled = SampledCandidates(params, ids)
        close(sampled.scores(blocks), np.einsum("blcmd,blmd->blc", table[ids], blocks))
        close(sampled.pullback(g), np.einsum("blc,blcmd->blmd", g, table[ids]))
        close(sampled.row_grads(blocks, g), np.einsum("blc,blmd->blcmd", g, blocks))

    @pytest.mark.parametrize("mode", ["latent", "extended", "explicit"])
    def test_training_and_ranking_call_no_einsum(self, mode, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.einsum called")

        kb = random_kb(20, (2, 3, 6), n_train=9, n_test=4, seed=30,
                       explicit_roles=mode == "explicit")
        extra = {"role_multiplicity": 2, "patterns_per_role": 2} if mode == "extended" else {}
        cfg = ModelConfig(embed_dim=3, multiplicity=2, latent_size=2, mode=mode, **extra)
        params = randomized_params(cfg, kb.vocab, seed=31)
        monkeypatch.setattr(np, "einsum", refuse)
        for negatives in ("full", 4):
            rngs = [make_rng(32, i) for i in range(len(kb.train))]
            _, buf = batch_backward(params, kb.train, negatives, dropout=0.2, fact_rngs=rngs)
            optimizer_step(params, buf, AdamState(), lr=0.01)
        assert evaluate(params, kb, split="test").n_queries > 0


class TestDropout:
    def _group(self, n_copies=1, seed=14):
        vocab = make_vocab(5, (3,))
        cfg = ModelConfig(embed_dim=4, multiplicity=2, latent_size=2)
        params = randomized_params(cfg, vocab, seed=seed)
        return params, split_groups(params.vocab, facts_of([(0, (0, 1, 2))] * n_copies))[0]

    def test_zero_probability_is_identity(self):
        params, spec = self._group()
        masks = _group_masks(spec, params, 0.0, make_rng(1))
        assert masks is None
        assert own_scores(params, spec, masks)[0, 0, 0] == own_scores(params, spec)[0, 0, 0]

    def test_fixed_seed_masks_deterministic_and_scaled(self):
        params, spec = self._group()
        a = _group_masks(spec, params, 0.5, make_rng(2))
        b = _group_masks(spec, params, 0.5, make_rng(2))
        np.testing.assert_array_equal(a, b)
        assert set(np.unique(a)) <= {0.0, 2.0}

    def test_masked_score_unbiased_monte_carlo(self):
        # one group of 10,000 copies of the fact, each row its own mask draw
        n_draws = 10_000
        params, spec = self._group(n_copies=n_draws, seed=15)
        base = score(params, 0, (0, 1, 2))
        masks = _group_masks(spec, params, 0.3, make_rng(3))
        draws = own_scores(params, spec, masks)[:, 0, 0]
        stderr = draws.std(ddof=1) / math.sqrt(len(draws))
        assert abs(draws.mean() - base) <= 3 * stderr


class TestOptimizer:
    def _tiny(self):
        vocab = make_vocab(3, (2,))
        cfg = ModelConfig(embed_dim=2, multiplicity=1, latent_size=1)
        return ModelParams.init(cfg, vocab, seed=0)

    def test_zero_gradient_keeps_parameters(self):
        params = self._tiny()
        before = {k: v.copy() for k, v in params.data.items()}
        buf = GradientBuffer(params)
        buf.add(("basis_u",), np.zeros_like(params.data[("basis_u",)]))
        optimizer_step(params, buf, AdamState(), lr=0.1)
        for key, value in before.items():
            np.testing.assert_array_equal(params.data[key], value)

    def test_matches_scalar_adam_recursion(self):
        params = self._tiny()
        params.data[("basis_u",)] = np.array([[1.0, 1.0]])
        state = AdamState()
        grad = 0.3
        lr = 0.01
        # independent scalar recursion
        theta, m, v = 1.0, 0.0, 0.0
        for t in range(1, 8):
            m = 0.9 * m + 0.1 * grad
            v = 0.999 * v + 0.001 * grad * grad
            theta -= lr * (m / (1 - 0.9**t)) / (math.sqrt(v / (1 - 0.999**t)) + 1e-8)
            buf = GradientBuffer(params)
            buf.add(("basis_u",), np.full((1, 2), grad))
            optimizer_step(params, buf, state, lr)
            assert params.data[("basis_u",)][0, 0] == pytest.approx(theta, rel=1e-12)

    def test_row_sparse_rows_follow_same_recursion(self):
        params = self._tiny()
        params.data[("ent",)][:] = 1.0
        state = AdamState()
        grad = -0.7
        lr = 0.05
        theta, m, v = 1.0, 0.0, 0.0
        for t in range(1, 6):
            m = 0.9 * m + 0.1 * grad
            v = 0.999 * v + 0.001 * grad * grad
            theta -= lr * (m / (1 - 0.9**t)) / (math.sqrt(v / (1 - 0.999**t)) + 1e-8)
            buf = GradientBuffer(params)
            g = np.zeros_like(params.data[("ent",)])
            g[1] = grad
            buf.add_rows(("ent",), np.array([1]), g[1][None])
            optimizer_step(params, buf, state, lr)
            assert params.data[("ent",)][1, 0, 0] == pytest.approx(theta, rel=1e-12)
        # untouched rows never moved
        np.testing.assert_array_equal(params.data[("ent",)][0], np.ones((1, 2)))

    @pytest.mark.parametrize("shape", [(7, 5), (4, 2, 3, 2), (5, 1), (6, 2, 3)])
    def test_row_scatter_sums_like_rowwise_add_at(self, shape):
        """Even widths scatter as complex pairs, odd ones (5 and 1) as floats;
        both sum each element in the order of `rows`, as the row-wise form does."""
        rng = np.random.default_rng(3)
        rows = rng.integers(0, 3, 60)  # every row repeats many times; the rest stay zero
        values = spread_values(rng, (60,) + shape[1:])
        got, want = np.zeros(shape), np.zeros(shape)
        scatter_rows(got, rows, values)
        rowwise_scatter(want, rows, values)
        assert_same_bits(got, want)

    @pytest.mark.parametrize("width", [6, 5])
    def test_row_scatter_keeps_signed_zeros_infinities_and_nans(self, width):
        """-0.0 + -0.0 stays -0.0, inf + -inf is NaN and a NaN keeps its bits,
        on the pair path and on the float one."""
        rng = np.random.default_rng(5)
        rows = rng.integers(0, 8, 24)  # three parts per row, on average
        specials = np.array([-0.0, -0.0, -0.0, 0.0, np.inf, -np.inf, np.nan, 1.5])
        values = rng.choice(specials, (24, width))
        got, want = np.full((8, width), -0.0), np.full((8, width), -0.0)
        with np.errstate(invalid="ignore"):  # inf + -inf warns on either path
            scatter_rows(got, rows, values)
            rowwise_scatter(want, rows, values)
        assert_same_bits(got, want)
        zero = got == 0
        assert np.signbit(got[zero]).any() and not np.signbit(got[zero]).all()
        assert np.isnan(got).any() and np.isinf(got).any()

    @pytest.mark.parametrize("m,d", [(2, 3), (3, 3)], ids=["pairs", "odd width"])
    def test_row_scatter_of_a_folded_gradient_into_a_block_slice(self, m, d):
        """Values as backward_group passes the entity gradient, a transposed
        view, scattered into a slice of a block's rows: the rows outside the
        slice stay as they were."""
        rng = np.random.default_rng(6)
        values = spread_values(rng, (4, 3, d, m)).transpose(0, 1, 3, 2).reshape(-1, m, d)
        assert not values.flags.c_contiguous
        rows = rng.integers(0, 4, len(values))
        block = spread_values(rng, (9, m, d))
        want = block.copy()
        scatter_rows(block[3:7], rows, values)
        rowwise_scatter(want[3:7], rows, values)
        assert_same_bits(block, want)

    def test_buffer_rows_sum_like_rowwise_add_at_across_calls(self):
        """The writes in training's order: row parts, then one full-table array."""
        params = self._tiny()
        key = ("ent",)
        shape = params.data[key].shape
        rng = np.random.default_rng(4)
        # two parts on rows 0 and 2 only, each row many times, then every row at once
        calls = [rng.choice([0, 2], 30), rng.choice([0, 2], 30), None]
        buf, want = GradientBuffer(params), np.zeros(shape)
        for i, rows in enumerate(calls):
            if rows is None:  # every row, as full negatives write the entity table
                values = spread_values(rng, shape)
                # the buffer then writes into `values`: the parts summed as
                # one block, (p1 + p2) + values
                want += values
                buf.add_all_rows(key, values)
            else:
                values = spread_values(rng, rows.shape + shape[1:])
                buf.add_rows(key, rows, values)
                rowwise_scatter(want, rows, values)
            ((got_key, got_rows, got),) = buf.summed()
            want_rows = [0, 2] if rows is not None else [0, 1, 2]  # compact block, then the table
            assert got_key == key
            np.testing.assert_array_equal(got_rows, want_rows)
            np.testing.assert_array_equal(got, want[want_rows])
            np.testing.assert_array_equal(buf.touched[key], np.isin(range(3), want_rows))
            np.testing.assert_array_equal(buf.dense()[key], want)
        assert got is values  # the full-table array passed is the slot's gradient

    @pytest.mark.parametrize("mode", ["latent", "explicit"])
    @pytest.mark.parametrize("n_entities,n_sampled", [(40, 2), (2 * ADAM_BLOCK_ROWS + 300, 600)])
    def test_steps_match_textbook_lazy_adam_bit_for_bit(self, mode, n_entities, n_sampled):
        """Sampled batches touch some entity rows, full ones every row. On the
        larger table the touched rows span three Adam blocks, the last partial."""
        steps = self._train_beside_textbook(mode, n_entities, n_sampled, full_steps=(2, 5))
        assert len(np.unique(steps)) > 1

    @pytest.mark.parametrize("mode", ["latent", "explicit"])
    def test_full_batches_match_textbook_lazy_adam_bit_for_bit(self, mode):
        """Full batches only: every entity row is one run over three Adam
        blocks, and every row steps alike."""
        steps = self._train_beside_textbook(mode, 2 * ADAM_BLOCK_ROWS + 300, None, range(6))
        assert (steps == 6).all()

    def _train_beside_textbook(self, mode, n_entities, n_sampled, full_steps):
        """Six 3-fact batches, full negatives at `full_steps`, else `n_sampled`
        sampled ones; after each step the parameters and Adam state equal the
        textbook's. Returns the entity rows' step counts."""
        kb = random_kb(n_entities, (2, 3), n_train=18, seed=21, explicit_roles=mode == "explicit")
        cfg = ModelConfig(embed_dim=3, multiplicity=2, latent_size=2, mode=mode)
        params = randomized_params(cfg, kb.vocab, seed=22)
        oracle_data = {k: v.copy() for k, v in params.data.items()}
        state, oracle = AdamState(), TextbookAdam()
        lr = 0.05
        for step in range(6):
            batch = kb.train[3 * step : 3 * step + 3]
            negatives = "full" if step in full_steps else n_sampled
            rngs = [make_rng(0, 2, step, i) for i in range(len(batch))]
            _, buf = batch_backward(params, batch, negatives=negatives, fact_rngs=rngs)
            n_touched = int(buf.touched[("ent",)].sum())
            if negatives == "full":
                assert n_touched == n_entities
            else:
                assert 0 < n_touched < n_entities
                assert n_entities < 100 or n_touched > 2 * ADAM_BLOCK_ROWS
            self._step_both(params, buf, state, oracle_data, oracle, lr)
        return state.steps[("ent",)]

    @staticmethod
    def _step_both(params, buf, state, oracle_data, oracle, lr):
        """One optimizer_step and one textbook step; both must agree bit for bit."""
        grads = buf.dense()
        touched = {k: v.copy() for k, v in buf.touched.items()}
        optimizer_step(params, buf, state, lr)
        oracle.step(oracle_data, grads, touched, lr)
        for key in params.data:
            np.testing.assert_array_equal(params.data[key], oracle_data[key])
        for key in oracle.m1:
            np.testing.assert_array_equal(state.m1[key], oracle.m1[key])
            np.testing.assert_array_equal(state.m2[key], oracle.m2[key])
            np.testing.assert_array_equal(state.steps[key], oracle.steps[key])

    def test_runs_of_rows_past_row_zero_match_textbook_lazy_adam_bit_for_bit(self):
        """Touched rows that form one run, not starting at row 0, step through
        slices of the state; scattered rows, between them, through copies."""
        n = 3 * ADAM_BLOCK_ROWS + 40
        vocab = make_vocab(n, (2,))
        params = randomized_params(ModelConfig(embed_dim=3, multiplicity=1), vocab, seed=7)
        oracle_data = {k: v.copy() for k, v in params.data.items()}
        state, oracle = AdamState(), TextbookAdam()
        rng = np.random.default_rng(8)
        shape = params.data[("ent",)].shape[1:]
        schedule = [
            np.arange(5, 5 + 2 * ADAM_BLOCK_ROWS + 100),  # three blocks, the last partial
            np.unique(rng.integers(0, n, 700)),
            np.arange(ADAM_BLOCK_ROWS + 3, n),  # up to the last row
            np.arange(17, 18),  # a single row
            np.arange(5, 5 + 2 * ADAM_BLOCK_ROWS + 100),
        ]
        for rows in schedule:
            buf = GradientBuffer(params)
            buf.add_rows(("ent",), rows, spread_values(rng, rows.shape + shape) * 1e-4)
            self._step_both(params, buf, state, oracle_data, oracle, lr=0.05)

    @pytest.mark.parametrize("bad_key,match", [
        (("ent",), r"slot \('ent',\) at entity 'e2' \(row 2\)"),
        (("basis_u",), r"slot \('basis_u',\)"),
    ], ids=["entity", "dense"])
    def test_non_finite_gradient_aborts_before_any_update(self, bad_key, match):
        vocab = make_vocab(5, (2,))
        params = randomized_params(ModelConfig(embed_dim=3, multiplicity=1), vocab, seed=9)
        state = AdamState()
        shape = params.data[("ent",)].shape[1:]
        buf = GradientBuffer(params)
        buf.add(("basis_u",), np.ones_like(params.data[("basis_u",)]))
        buf.add_rows(("ent",), np.array([1, 3]), np.ones((2,) + shape))
        optimizer_step(params, buf, state, lr=0.1)  # so the Adam state is not empty
        before = copy.deepcopy((params.data, state.m1, state.m2, state.steps))

        # basis_u is written first: in the entity case a finite slot that
        # comes before the bad one must not change either
        buf = GradientBuffer(params)
        buf.add(("basis_u",), np.ones_like(params.data[("basis_u",)]))
        rows = np.array([0, 2, 3])
        values = np.ones((3,) + shape)
        if bad_key == ("ent",):
            values[1] = np.inf  # the whole row of entity 2
        else:
            nan = np.zeros_like(params.data[("basis_u",)])
            nan[0, -1] = np.nan
            buf.add(("basis_u",), nan)
        buf.add_rows(("ent",), rows, values)
        with pytest.raises(NumericError, match=match):
            optimizer_step(params, buf, state, lr=0.1)
        after = (params.data, state.m1, state.m2, state.steps)
        for want, got in zip(before, after):
            assert want.keys() == got.keys()
            for key in want:
                np.testing.assert_array_equal(got[key], want[key])

    def test_only_touched_slots_change(self):
        kb = random_kb(10, (2,), n_train=2, seed=16)
        cfg = ModelConfig(embed_dim=3, multiplicity=2, latent_size=2)
        params = randomized_params(cfg, kb.vocab, seed=17)
        before = {k: v.copy() for k, v in params.data.items()}
        rngs = [make_rng(0, 2, 0, i) for i in range(2)]
        _, buf = batch_backward(params, kb.train, negatives=2, fact_rngs=rngs)
        optimizer_step(params, buf, AdamState(), lr=0.1)
        touched_entities = set(np.flatnonzero(buf.touched[("ent",)]))
        for e in range(kb.vocab.n_entities):
            changed = not np.array_equal(params.data[("ent",)][e], before[("ent",)][e])
            assert changed == (e in touched_entities)


class TestTrainLoop:
    def test_overfits_five_fact_toy(self, toy_kb):
        mcfg = ModelConfig(embed_dim=16, multiplicity=2, latent_size=4)
        tcfg = TrainConfig(
            batch_size=8, learning_rate=0.05, decay_rate=1.0, dropout=0.0,
            max_epochs=200, eval_every=1000, negatives="full", seed=3,
        )
        result = train(toy_kb, mcfg, tcfg)
        first = result.trace[0].train_loss
        last = result.trace[-1].train_loss
        assert last <= 0.1 * first

    def test_patience_with_frozen_parameters_stops_after_two_evals(self):
        kb = random_kb(6, (2,), n_train=6, n_valid=3, seed=18)
        mcfg = ModelConfig(embed_dim=3, multiplicity=2, latent_size=2)
        tcfg = TrainConfig(
            batch_size=4, learning_rate=1e-300, decay_rate=1.0, dropout=0.0,
            max_epochs=50, eval_every=1, patience=1, seed=1,
        )
        result = train(kb, mcfg, tcfg)
        assert len(result.trace) == 2

    def test_identical_seeds_identical_traces(self):
        kb = random_kb(8, (2, 3), n_train=12, n_valid=4, seed=19)
        mcfg = ModelConfig(embed_dim=4, multiplicity=2, latent_size=3)
        tcfg = TrainConfig(
            batch_size=4, learning_rate=0.01, dropout=0.2, max_epochs=6,
            eval_every=2, negatives=4, seed=7,
        )
        first = train(kb, mcfg, tcfg)
        second = train(kb, mcfg, tcfg)
        assert [r.train_loss for r in first.trace] == [r.train_loss for r in second.trace]
        assert [r.valid_mrr for r in first.trace] == [r.valid_mrr for r in second.trace]
        assert first.params.slots() == second.params.slots()
        for key in first.params.slots():
            assert np.array_equal(first.params.data[key], second.params.data[key]), key

    def test_best_params_correspond_to_best_valid_mrr(self):
        kb = random_kb(8, (2,), n_train=15, n_valid=5, seed=20)
        mcfg = ModelConfig(embed_dim=4, multiplicity=2, latent_size=2)
        tcfg = TrainConfig(
            batch_size=8, learning_rate=0.05, max_epochs=10, eval_every=2,
            dropout=0.0, seed=2,
        )
        result = train(kb, mcfg, tcfg)
        report = evaluate(result.params, kb, split="valid")
        assert report.mrr == pytest.approx(result.best_valid_mrr, abs=1e-12)

    def test_default_config_validates_every_epoch_and_keeps_the_best(self, monkeypatch):
        """Valid MRR 0.1, then 0.3, then 0.2 for ever: the defaults validate
        after every epoch, stop `patience` epochs after the best one, and
        return its parameters."""
        kb = random_kb(8, (2, 3), n_train=12, n_valid=4, seed=30)
        mcfg = ModelConfig(embed_dim=3, multiplicity=2, latent_size=2)
        snapshots, mrrs = [], iter([0.1, 0.3])

        def evaluate(params, kb, split):
            snapshots.append(params.copy())
            return SimpleNamespace(mrr=next(mrrs, 0.2))

        monkeypatch.setattr(evaluation, "evaluate", evaluate)
        result = train(kb, mcfg, TrainConfig(batch_size=4, seed=5))
        patience = TrainConfig().patience
        assert [row.valid_mrr for row in result.trace] == [0.1, 0.3] + [0.2] * patience
        assert len(snapshots) == 2 + patience
        assert result.best_valid_mrr == 0.3
        assert result.params.slots() == snapshots[1].slots()
        for key in result.params.slots():
            assert_same_bits(result.params.data[key], snapshots[1].data[key])
        assert not np.array_equal(result.params.data[("ent",)], snapshots[-1].data[("ent",)])

    def test_logs_one_info_line_per_epoch(self, caplog):
        kb = random_kb(8, (2, 3), n_train=12, n_valid=4, seed=21)
        mcfg = ModelConfig(embed_dim=3, multiplicity=2, latent_size=2)
        tcfg = TrainConfig(batch_size=4, max_epochs=3, eval_every=2, seed=4)
        caplog.set_level(logging.INFO, logger="ramkb.training")
        result = train(kb, mcfg, tcfg)
        lines = [(r.levelno, r.getMessage()) for r in caplog.records if r.name == "ramkb.training"]
        rows = result.trace
        assert lines == [
            (logging.INFO, f"epoch 1: loss {rows[0].train_loss:.6f}"),
            (logging.INFO, f"epoch 2: loss {rows[1].train_loss:.6f}, "
                           f"valid MRR {rows[1].valid_mrr:.4f}"),
            (logging.INFO, f"epoch 3: loss {rows[2].train_loss:.6f}"),
        ]

    def test_empty_training_split_rejected(self):
        vocab = make_vocab(3, (2,))
        empty = facts_of([])
        kb = KnowledgeBase(vocab, empty, empty, facts_of([(0, (0, 1))]))
        with pytest.raises(ConfigError):
            train(kb, ModelConfig(embed_dim=2), TrainConfig())
