"""Finite-difference validation of the analytic gradients.

Central differences with a fixed step are compared against the gradient of
``training.batch_backward``, coordinate by coordinate, over randomly
generated toy models covering every trainable mode. The differences only
call ``training.batch_loss``, which shares the forward step but not the
backward pass; each call rebuilds the generators from the same keys, so
every evaluation draws the same candidates and dropout masks (each arity
group from the generator of its first fact).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .kb import Facts, Vocabulary
from .mathcore import make_rng
from .model import ModelConfig, ModelParams
from .training import batch_backward, batch_loss

DEFAULT_STEP = 1e-5
DEFAULT_TOL = 1e-4
# coordinates where both gradients are below this are compared on this scale
REL_FLOOR = 1e-4


@dataclass
class GradcheckReport:
    family_errors: dict[str, float]  # max relative error per family over every trial
    tol: float

    @property
    def max_error(self) -> float:
        return max(self.family_errors.values(), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_error <= self.tol


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), REL_FLOOR)
    return float((np.abs(analytic - numeric) / denom).max())


def check_batch(
    params: ModelParams,
    facts: Facts,
    negatives: str | int,
    dropout: float,
    rng_keys: list[tuple[int, ...]],
) -> dict[str, float]:
    """Max relative error per parameter family; `rng_keys` has one key tuple per
    fact, and each arity group draws from its first fact's generator."""

    def fact_rngs() -> list[np.random.Generator]:
        return [make_rng(*key) for key in rng_keys]

    # the summed gradient optimizer_step reads, as full-shape arrays
    grads = batch_backward(params, facts, negatives, dropout, fact_rngs())[1].dense()
    errors: dict[str, float] = {}
    for key in params.slots():
        array = params.data[key]
        analytic = grads.get(key)
        if analytic is None:
            analytic = np.zeros_like(array)
        numeric = np.zeros_like(array)
        flat = array.reshape(-1)
        numeric_flat = numeric.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + DEFAULT_STEP
            up = batch_loss(params, facts, negatives, dropout, fact_rngs())
            flat[i] = original - DEFAULT_STEP
            down = batch_loss(params, facts, negatives, dropout, fact_rngs())
            flat[i] = original
            numeric_flat[i] = (up - down) / (2 * DEFAULT_STEP)
        family = key[0]
        err = relative_error(analytic, numeric)
        errors[family] = max(errors.get(family, 0.0), err)
    return errors


def _random_trial(
    seed: int, trial: int
) -> tuple[ModelParams, Facts, str | int, float, list[tuple[int, ...]]]:
    rng = make_rng(seed, 7, trial)
    modes = ["latent", "latent", "extended", "explicit",
             "preset:DistMult", "preset:SimplE", "preset:ComplEx", "preset:QuatE"]
    mode = modes[trial % len(modes)]
    d = int(rng.integers(2, 6))
    m = int(rng.integers(1, 4))
    k = int(rng.integers(1, 5))
    if mode == "extended":
        cfg = ModelConfig(
            embed_dim=d, multiplicity=m, latent_size=k, mode=mode,
            role_multiplicity=int(rng.integers(1, 3)),
            patterns_per_role=int(rng.integers(1, 3)),
        )
    else:
        cfg = ModelConfig(embed_dim=d, multiplicity=m, latent_size=k, mode=mode)

    n_entities = int(rng.integers(4, 8))
    arity_pool = [2] if mode.startswith("preset:") else [2, 3, 4]
    relations, role_names = [], []
    for r in range(int(rng.integers(1, 4))):
        arity = int(rng.choice(arity_pool))
        relations.append((f"r{r}", arity))
        if mode == "explicit":
            role_names.append([f"g{int(g)}" for g in rng.choice(8, size=arity, replace=False)])
    # roles are numbered in order of first use
    roles = list(dict.fromkeys(chain.from_iterable(role_names)))
    rel_roles = {rel: tuple(map(roles.index, names)) for rel, names in enumerate(role_names)}
    vocab = Vocabulary([f"e{e}" for e in range(n_entities)], relations, roles, rel_roles)
    rels, ents = [], []
    for _ in range(int(rng.integers(3, 7))):
        rels.append(int(rng.integers(0, vocab.n_relations)))
        ents.append(rng.integers(0, n_entities, size=vocab.arity(rels[-1])))
    facts = Facts(rels, [len(e) for e in ents], np.concatenate(ents))

    params = ModelParams.init(cfg, vocab, seed=seed + trial)
    # random mixing weights exercise both softmax pullbacks away from uniform
    for key in params.slots():
        if key[0] in ("alpha", "beta"):
            params.data[key] = rng.normal(0.0, 0.5, size=params.data[key].shape)
        if key[0] == "omega":
            params.data[key] = rng.normal(1.0, 0.3, size=params.data[key].shape)

    sampled = trial % 3 == 1
    negatives = int(rng.integers(1, n_entities)) if sampled else "full"
    # every second pass through the mode list runs under dropout, so each
    # mode gets dropout trials among the first 2 * len(modes)
    dropout = 0.3 if trial // len(modes) % 2 == 1 else 0.0
    rng_keys = [(seed, 8, trial, i) for i in range(len(facts))]
    return params, facts, negatives, dropout, rng_keys


def run_gradcheck(trials: int = 20, seed: int = 0, tol: float = DEFAULT_TOL) -> GradcheckReport:
    """Compare analytic and numeric gradients over random toy models."""
    merged: dict[str, float] = {}
    for trial in range(trials):
        for family, err in check_batch(*_random_trial(seed, trial)).items():
            merged[family] = max(merged.get(family, 0.0), err)
    return GradcheckReport(merged, tol)
