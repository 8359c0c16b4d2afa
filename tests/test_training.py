import logging
import math

import numpy as np
import pytest

from oracles import TextbookAdam, naive_fact_loss, naive_latent_score, rowwise_scatter
from ramkb.engine import (
    GradientBuffer,
    _scatter_rows,
    forward_group,
    group_losses,
    score,
    split_groups,
)
from ramkb.errors import ConfigError, NumericError
from ramkb.gradcheck import _random_trial, check_batch, run_gradcheck
from ramkb.kb import Fact, KnowledgeBase, Vocabulary, build_kb, parse_tabular
from ramkb.mathcore import make_rng
from ramkb.model import ModelConfig, ModelParams
from ramkb.training import (
    AdamState,
    TrainConfig,
    _group_masks,
    batch_backward,
    batch_loss,
    corrupt,
    optimizer_step,
    train,
)

from conftest import make_vocab, random_facts, random_kb
from test_model import randomized_params


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
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=0.0)
        for name in ("max_epochs", "patience", "eval_every"):
            for value in (0, -1, -3):
                with pytest.raises(ConfigError, match=name):
                    TrainConfig(**{name: value})


class TestCorrupt:
    def test_sampled_deterministic_and_distinct(self):
        fact = Fact(0, (1, 2))
        rng1 = make_rng(9)
        rng2 = make_rng(9)
        a = corrupt(fact.entities[0], 50, negatives=2, rng=rng1)
        b = corrupt(fact.entities[0], 50, negatives=2, rng=rng2)
        np.testing.assert_array_equal(a, b)
        assert len(set(a)) == 2 and 1 not in a

    def test_sampled_clips_to_population(self):
        fact = Fact(0, (0, 3))
        out = corrupt(fact.entities[1], n_entities=5, negatives=10, rng=make_rng(1))
        assert sorted(out) == [0, 1, 2, 4]


class TestLoss:
    def test_uniform_scores_give_log_candidates(self):
        kb = random_kb(7, (2,), n_train=3, seed=1)
        params = ModelParams.init(ModelConfig(embed_dim=3, multiplicity=2), kb.vocab, 0)
        params.data[("ent",)][:] = params.data[("ent",)][0]
        fact = kb.train[0]
        expected = fact.arity * math.log(kb.vocab.n_entities)
        assert batch_loss(params, [fact]) == pytest.approx(expected, rel=1e-9)

    def test_dominant_true_score_drives_loss_to_zero(self):
        loss = group_losses(np.array([[[1000.0, 0.0, -5.0]]]), np.array([[0]]))[0][0]
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_matches_naive_composition(self):
        vocab = make_vocab(5, (2, 3))
        cfg = ModelConfig(embed_dim=3, multiplicity=2, latent_size=2)
        params = randomized_params(cfg, vocab, seed=2)
        for fact in random_facts(vocab, 4, seed=3):
            expected = naive_fact_loss(
                lambda p, f: naive_latent_score(p, f), params, fact, vocab.n_entities
            )
            assert batch_loss(params, [fact]) == pytest.approx(expected, rel=1e-9)

    def test_shift_invariance_of_position_loss(self):
        rng = make_rng(4)
        scores = rng.normal(size=12)
        true_cols = np.array([[3]])
        base = group_losses(scores[None, None], true_cols)[0][0]
        shifted = group_losses(scores[None, None] + 123.456, true_cols)[0][0]
        assert shifted == pytest.approx(base, abs=1e-9)

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

    @pytest.mark.parametrize("negatives,dropout", [("full", 0.3), (2, 0.0)])
    def test_randomness_without_generators_is_rejected(self, negatives, dropout):
        kb = random_kb(6, (2,), n_train=3, seed=27)
        params = ModelParams.init(ModelConfig(embed_dim=2), kb.vocab, 0)
        for loss_fn in (batch_loss, batch_backward):
            with pytest.raises(ConfigError):
                loss_fn(params, kb.train, negatives=negatives, dropout=dropout)


class TestBackward:
    def test_single_candidate_means_zero_gradients(self):
        vocab = Vocabulary()
        vocab.add_entity("only")
        vocab.add_relation("r", 2)
        cfg = ModelConfig(embed_dim=3, multiplicity=2, latent_size=2)
        params = ModelParams.init(cfg, vocab, seed=0)
        loss, buf = batch_backward(params, [Fact(0, (0, 0))])
        assert loss == pytest.approx(0.0, abs=1e-12)
        largest = max(float(np.abs(g).max()) for g in buf.grads.values())
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
        facts = [Fact(0, (0, 1)), Fact(0, (2, 3))]

        def loss_fn():
            return sum(
                naive_fact_loss(
                    lambda p, f: naive_latent_score(p, f), params, f, 4
                )
                for f in facts
            ) / len(facts)

        _, buf = batch_backward(params, facts)
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
                analytic = buf.grads[key].reshape(-1)[i]
                assert analytic == pytest.approx(numeric, rel=1e-4, abs=1e-7)

    def test_preset_buffer_has_no_pattern_slots(self):
        vocab = make_vocab(4, (2,))
        cfg = ModelConfig(embed_dim=3, mode="preset:SimplE")
        params = ModelParams.init(cfg, vocab, seed=0)
        _, buf = batch_backward(params, [Fact(0, (0, 1))])
        families = {key[0] for key in buf.grads}
        assert families == {"ent", "preset_u"}

    def test_raw_mode_not_trainable(self):
        from ramkb.expressive import GroundTruth, construct

        vocab = make_vocab(3, (2,))
        gt = GroundTruth((Fact(0, (0, 1)),), vocab)
        params = construct(gt)
        with pytest.raises(ConfigError):
            batch_backward(params, [Fact(0, (0, 1))])

    def _abort_message(self, plant):
        kb = random_kb(4, (2,), n_train=2, seed=13)
        cfg = ModelConfig(embed_dim=2, multiplicity=1, latent_size=1)
        params = ModelParams.init(cfg, kb.vocab, seed=0)
        plant(params.data[("ent",)])
        with pytest.raises(NumericError) as err:
            batch_backward(params, kb.train)
        return params, str(err.value)

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


class TestDropout:
    def _group(self, n_copies=1, seed=14):
        vocab = make_vocab(5, (3,))
        cfg = ModelConfig(embed_dim=4, multiplicity=2, latent_size=2)
        params = randomized_params(cfg, vocab, seed=seed)
        return params, split_groups(params, [Fact(0, (0, 1, 2))] * n_copies)[0]

    def test_zero_probability_is_identity(self):
        params, spec = self._group()
        masks = _group_masks(spec, params, 0.0, [make_rng(1)])
        assert masks is None
        own = spec.ents[:, :, None]
        assert (forward_group(params, spec, own, masks).scores[0, 0, 0]
                == forward_group(params, spec, own).scores[0, 0, 0])

    def test_fixed_seed_masks_deterministic_and_scaled(self):
        params, spec = self._group()
        a = _group_masks(spec, params, 0.5, [make_rng(2)])
        b = _group_masks(spec, params, 0.5, [make_rng(2)])
        np.testing.assert_array_equal(a, b)
        assert set(np.unique(a)) <= {0.0, 2.0}

    def test_masked_score_unbiased_monte_carlo(self):
        # one group of 10,000 copies of the fact, each row its own mask draw
        n_draws = 10_000
        params, spec = self._group(n_copies=n_draws, seed=15)
        base = score(params, Fact(0, (0, 1, 2)))
        masks = _group_masks(spec, params, 0.3, [make_rng(3)] * n_draws)
        draws = forward_group(params, spec, spec.ents[:, :, None], masks).scores[:, 0, 0]
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

    @staticmethod
    def _spread_values(rng, shape):
        """Values from 1e-8 to 1e8 in size, so any change of summation order shows."""
        return rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)

    @pytest.mark.parametrize("shape", [(7, 5), (4, 2, 3, 2)])
    def test_row_scatter_sums_like_rowwise_add_at(self, shape):
        rng = np.random.default_rng(3)
        rows = rng.integers(0, 3, 60)  # every row repeats many times; the rest stay zero
        values = self._spread_values(rng, (60,) + shape[1:])
        got, want = np.zeros(shape), np.zeros(shape)
        _scatter_rows(got, rows, values)
        rowwise_scatter(want, rows, values)
        np.testing.assert_array_equal(got, want)

    def test_buffer_rows_sum_like_rowwise_add_at_across_calls(self):
        params = self._tiny()
        key = ("ent",)
        shape = params.data[key].shape
        rng = np.random.default_rng(4)
        first_rows, second_rows = np.array([2, 0, 2, 2]), np.array([0, 2, 1, 0, 0])
        first = self._spread_values(rng, (4,) + shape[1:])
        dense = self._spread_values(rng, shape)
        second = self._spread_values(rng, (5,) + shape[1:])
        buf, want = GradientBuffer(params), np.zeros(shape)
        buf.add_rows(key, first_rows, first)
        rowwise_scatter(want, first_rows, first)
        np.testing.assert_array_equal(buf.touched[key], [True, False, True])
        buf.add_all_rows(key, dense)
        want += dense
        buf.add_rows(key, second_rows, second)
        rowwise_scatter(want, second_rows, second)
        np.testing.assert_array_equal(buf.grads[key], want)
        assert buf.touched[key].all()

    @pytest.mark.parametrize("mode", ["latent", "explicit"])
    def test_steps_match_textbook_lazy_adam_bit_for_bit(self, mode):
        """Sampled batches touch some entity rows, full ones every row."""
        kb = random_kb(40, (2, 3), n_train=18, seed=21, explicit_roles=mode == "explicit")
        cfg = ModelConfig(embed_dim=3, multiplicity=2, latent_size=2, mode=mode)
        params = randomized_params(cfg, kb.vocab, seed=22)
        oracle_data = {k: v.copy() for k, v in params.data.items()}
        state, oracle = AdamState(), TextbookAdam()
        lr = 0.05
        for step in range(6):
            batch = kb.train[3 * step : 3 * step + 3]
            negatives = "full" if step in (2, 5) else 2
            rngs = [make_rng(0, 2, step, i) for i in range(len(batch))]
            _, buf = batch_backward(params, batch, negatives=negatives, fact_rngs=rngs)
            n_touched = int(buf.touched[("ent",)].sum())
            assert (n_touched == 40) if negatives == "full" else (0 < n_touched < 40)
            grads = {k: v.copy() for k, v in buf.grads.items()}
            touched = {k: v.copy() for k, v in buf.touched.items()}
            optimizer_step(params, buf, state, lr)
            oracle.step(oracle_data, grads, touched, lr)
            for key in params.data:
                np.testing.assert_array_equal(params.data[key], oracle_data[key])
            for key in oracle.m1:
                np.testing.assert_array_equal(state.m1[key], oracle.m1[key])
                np.testing.assert_array_equal(state.m2[key], oracle.m2[key])
                np.testing.assert_array_equal(state.steps[key], oracle.steps[key])
        assert len(np.unique(state.steps[("ent",)])) > 1

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
        from ramkb.evaluation import evaluate

        kb = random_kb(8, (2,), n_train=15, n_valid=5, seed=20)
        mcfg = ModelConfig(embed_dim=4, multiplicity=2, latent_size=2)
        tcfg = TrainConfig(
            batch_size=8, learning_rate=0.05, max_epochs=10, eval_every=2,
            dropout=0.0, seed=2,
        )
        result = train(kb, mcfg, tcfg)
        report = evaluate(result.params, kb, split="valid")
        assert report.mrr == pytest.approx(result.best_valid_mrr, abs=1e-12)

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
        kb = KnowledgeBase(vocab, [], [], [Fact(0, (0, 1))])
        with pytest.raises(ConfigError):
            train(kb, ModelConfig(embed_dim=2), TrainConfig())
