import numpy as np
import pytest

from ramkb.engine import score
from ramkb.errors import ConfigError
from ramkb.kb import Vocabulary
from ramkb.mathcore import make_rng
from ramkb.model import ModelConfig, ModelParams
from ramkb.presets import (
    PRESET_KINDS,
    hamilton_product,
    preset_patterns,
    reference_score,
)

HALF = 0.5


def pair_vocab():
    return Vocabulary(["h", "t"], [("r", 2)])


def random_preset_params(kind, d, rng):
    cfg = ModelConfig(embed_dim=d, mode=f"preset:{kind}")
    params = ModelParams.init(cfg, pair_vocab(), seed=0)
    params.data[("ent",)] = rng.normal(0, 1, params.data[("ent",)].shape)
    params.data[("preset_u", 0)] = rng.normal(0, 1, params.data[("preset_u", 0)].shape)
    return params


def test_distmult_pattern_constants():
    patterns, signs = preset_patterns("DistMult")
    np.testing.assert_array_equal(patterns[0, 0, 0], [[HALF, 0], [HALF, 0]])
    np.testing.assert_array_equal(patterns[1, 0, 0], [[0, HALF], [0, HALF]])
    assert np.all(signs == 1)


def test_simple_pattern_constants():
    patterns, signs = preset_patterns("SimplE")
    np.testing.assert_array_equal(patterns[0, 0, 0], [[HALF, 0], [0, HALF]])
    np.testing.assert_array_equal(patterns[1, 0, 0], [[0, HALF], [HALF, 0]])
    assert np.all(signs == 1)


def test_complex_pattern_constants_and_signs():
    patterns, signs = preset_patterns("ComplEx")
    np.testing.assert_array_equal(patterns[0, 0, 0], [[HALF, 0], [HALF, 0]])
    np.testing.assert_array_equal(patterns[0, 0, 1], [[0, HALF], [0, HALF]])
    np.testing.assert_array_equal(patterns[1, 0, 0], [[HALF, 0], [0, HALF]])
    np.testing.assert_array_equal(patterns[1, 0, 1], [[0, HALF], [HALF, 0]])
    assert list(signs.reshape(-1)) == [1, 1, 1, -1]


def test_quate_first_role_pattern_constants():
    patterns, signs = preset_patterns("QuatE")

    def pick(head_comp, tail_comp):
        mat = np.zeros((2, 4))
        mat[0, head_comp] = HALF
        mat[1, tail_comp] = HALF
        return mat

    for k, (hc, tc) in enumerate([(0, 0), (1, 1), (2, 2), (3, 3)]):
        np.testing.assert_array_equal(patterns[0, 0, k], pick(hc, tc))
    for k, (hc, tc) in enumerate([(0, 1), (1, 0), (2, 3), (3, 2)]):
        np.testing.assert_array_equal(patterns[0, 1, k], pick(hc, tc))
    assert list(signs[0, 0]) == [1, 1, 1, 1]
    assert list(signs[0, 1]) == [1, -1, 1, -1]
    assert list(signs[1, 0]) == [1, -1, -1, 1]
    assert list(signs[1, 1]) == [1, 1, -1, -1]


def test_every_pattern_matrix_sums_to_one():
    for kind in PRESET_KINDS:
        patterns, _ = preset_patterns(kind)
        sums = patterns.sum(axis=(-1, -2))
        np.testing.assert_allclose(sums, 1.0)


def test_preset_rejects_non_binary():
    vocab = Vocabulary(["a", "b", "c"], [("r", 3)])
    with pytest.raises(ConfigError):
        ModelParams.init(ModelConfig(mode="preset:QuatE"), vocab, seed=0)


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError):
        preset_patterns("TransE")
    with pytest.raises(ConfigError):
        reference_score("TransE", np.zeros((2, 1, 1)), np.zeros((2, 1)), np.zeros((2, 1)))


def test_reference_distmult_unit_case():
    role_vecs = np.ones((2, 1, 1))
    head = np.ones((2, 1))
    tail = np.ones((2, 1))
    # concatenated vectors are all ones of length 2, so the quarter-scaled
    # triple product is 2/4
    assert reference_score("DistMult", role_vecs, head, tail) == pytest.approx(0.5)
    one = np.ones((2, 1, 1))
    one[1, 0, 0] = 0.0
    head = np.array([[1.0], [0.0]])
    assert reference_score("DistMult", one, head, head) == pytest.approx(0.25)


def test_reference_complex_real_inputs_reduce_to_distmult_form():
    rng = make_rng(31)
    d = 5
    r = rng.normal(size=d)
    h = rng.normal(size=d)
    t = rng.normal(size=d)
    role_vecs = np.stack([r[None, :], np.zeros((1, d))])
    head = np.stack([h, np.zeros(d)])
    tail = np.stack([t, np.zeros(d)])
    got = reference_score("ComplEx", role_vecs, head, tail)
    assert got == pytest.approx(0.25 * float(np.sum(r * h * t)), rel=1e-12)


def test_reference_quate_identity_rotation():
    rng = make_rng(32)
    d = 4
    head = rng.normal(size=(4, d))
    tail = rng.normal(size=(4, d))
    role_vecs = np.zeros((2, 2, d))
    role_vecs[0, 0] = 1.0  # unit quaternion (1, 0, 0, 0) per coordinate
    got = reference_score("QuatE", role_vecs, head, tail)
    assert got == pytest.approx(0.25 * float(np.sum(head * tail)), rel=1e-12)


def test_hamilton_product_identities():
    rng = make_rng(33)
    q = rng.normal(size=(4, 3))
    identity = np.zeros((4, 3))
    identity[0] = 1.0
    np.testing.assert_allclose(hamilton_product(identity, q), q, atol=1e-15)
    np.testing.assert_allclose(hamilton_product(q, identity), q, atol=1e-15)
    # i * j = k per coordinate
    i = np.zeros((4, 1)); i[1] = 1.0
    j = np.zeros((4, 1)); j[2] = 1.0
    k = np.zeros((4, 1)); k[3] = 1.0
    np.testing.assert_allclose(hamilton_product(i, j), k, atol=1e-15)
    np.testing.assert_allclose(hamilton_product(j, i), -k, atol=1e-15)


@pytest.mark.parametrize("kind", PRESET_KINDS)
def test_preset_score_equals_reference_on_random_draws(kind):
    rng = make_rng(34)
    worst = 0.0
    for trial in range(200):
        params = random_preset_params(kind, d=6, rng=rng)
        got = score(params, 0, (0, 1))
        ent = params.data[("ent",)]
        want = reference_score(kind, params.data[("preset_u", 0)], ent[0], ent[1])
        worst = max(worst, abs(got - want) / max(abs(want), 1e-300))
    assert worst <= 1e-9
