"""Seeded n-ary facts sampled from a planted latent-mode role-aware model.

Pure numpy, independent of ``ramkb``: the generator has its own scorer, so
the benchmark can check the package's ranking against an implementation it
does not share code with.

The planted model is the paper's latent mode with d=25, m=2, K=10 and one
role embedding per position. Every (relation, position) puts most of its
mixing weight on one of the K latent roles, and the latent roles are drawn
per relation from one shared pool, so the same latent role serves positions
of many relations (the role-sharing map is written to ``meta.json``).

Facts are drawn by two Gibbs sweeps. A tuple starts from a Zipf-plus-uniform
entity prior; each sweep resamples every position from
prior x exp(beta_a * score), by importance resampling over a pool of prior
draws per fact. ``beta_a`` is set per arity from the spread of planted
scores, so every arity is about equally sharp. The planted model, the priors
and the betas come from a fixed seed; the workload seed draws the facts and
the train/valid/test split.

Layout of a generated directory::

    train.txt valid.txt test.txt   tabular: relation then entities, tab separated
    planted/ent.npy                (n_entities, m, d) entity blocks
    planted/basis_u.npy            (K, d) latent role vectors
    planted/basis_p_<a>.npy        (K, a, m) raw basis matrices (jointly softmaxed)
    planted/alpha.npy              (n_relations, max_arity, K) raw mixing logits
    planted/rel_arity.npy          (n_relations,)
    meta.json                      spec, seed, betas, arity histograms, role map

Entity ``i`` is named ``e<i>`` and relation ``r`` is named ``r<r>``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

GENERATOR_VERSION = 1

# binary-majority arity profile over 2..6, a scaled-down JF17K/WikiPeople shape
ARITY_MIX = ((2, 0.55), (3, 0.25), (4, 0.12), (5, 0.05), (6, 0.03))

ZIPF_EXPONENT = 0.8  # entity and relation popularity
UNIFORM_SHARE = 0.5  # of the entity prior, so the long tail is in the vocabulary
ROLE_PEAK = 5.0  # mixing logit of each position's planted latent role
SHARPNESS = 6.0  # beta_a times the std of planted scores
SWEEPS = 2
# The planted model and the popularity priors are part of the workload's
# definition, the same for every seed; the seed draws the facts and the split.
# Seed-to-seed differences in quality then come from the sample, not from a
# different model or a different set of popular entities.
MODEL_SEED = 0
POOL = 128  # prior draws per fact and position in importance resampling
CHUNK = 256  # facts resampled together


@dataclass(frozen=True)
class DatasetSpec:
    """Sizes of one planted dataset."""

    name: str
    n_entities: int
    n_relations: int
    n_train: int
    n_valid: int
    n_test: int
    embed_dim: int = 25
    multiplicity: int = 2
    latent_size: int = 10

    @property
    def n_facts(self) -> int:
        return self.n_train + self.n_valid + self.n_test

    def key(self) -> str:
        """Short digest of the spec and generator version, for cache names."""
        blob = json.dumps([GENERATOR_VERSION, asdict(self)], sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:10]


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def _softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def _zipf(n: int, rng: np.random.Generator, uniform_share: float = 0.0) -> np.ndarray:
    """Zipf probabilities over a random permutation of range(n), mixed with
    `uniform_share` of the uniform distribution."""
    weights = 1.0 / np.arange(1, n + 1) ** ZIPF_EXPONENT
    prob = np.empty(n)
    prob[rng.permutation(n)] = weights / weights.sum()
    return (1.0 - uniform_share) * prob + uniform_share / n


class PlantedModel:
    """Planted latent-mode parameters plus a scorer written for them."""

    def __init__(self, ent, basis_u, basis_p, alpha, rel_arity):
        self.ent = ent  # (E, m, d)
        self.basis_u = basis_u  # (K, d)
        self.basis_p = basis_p  # {arity: (K, a, m)} raw
        self.alpha = alpha  # (R, max_a, K) raw, padded past each arity
        self.rel_arity = rel_arity  # (R,)
        self._ent_flat = ent.reshape(ent.shape[0], -1)
        self._terms: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    @classmethod
    def sample(cls, spec: DatasetSpec, rel_arity: np.ndarray, rng) -> tuple["PlantedModel", np.ndarray]:
        """Random planted parameters and the (R, max_a) role map (-1 padded)."""
        d, m, k = spec.embed_dim, spec.multiplicity, spec.latent_size
        max_a = max(a for a, _ in ARITY_MIX)
        ent = rng.normal(0.0, 1.0, (spec.n_entities, m, d))
        # equal block norms: no entity is favoured by every relation at once
        ent *= np.sqrt(m * d) / np.linalg.norm(ent.reshape(len(ent), -1), axis=1)[:, None, None]
        basis_u = rng.normal(0.0, 1.0, (k, d))
        basis_p = {a: rng.normal(0.0, 1.0, (k, a, m)) for a, _ in ARITY_MIX}
        alpha = np.zeros((len(rel_arity), max_a, k))
        role_map = np.full((len(rel_arity), max_a), -1, dtype=np.int64)
        for r, a in enumerate(rel_arity):
            roles = rng.choice(k, size=a, replace=False)
            role_map[r, :a] = roles
            alpha[r, np.arange(a), roles] = ROLE_PEAK
        return cls(ent, basis_u, basis_p, alpha, rel_arity), role_map

    def relation_terms(self, rel: int) -> tuple[np.ndarray, np.ndarray]:
        """Role vectors (a, d) and pattern matrices (a, a, m) of a relation."""
        if rel not in self._terms:
            a = int(self.rel_arity[rel])
            mix = _softmax(self.alpha[rel, :a])  # (a, K)
            raw = self.basis_p[a]
            q = _softmax(raw.reshape(raw.shape[0], -1)).reshape(raw.shape)
            self._terms[rel] = (mix @ self.basis_u, np.einsum("ik,kjm->ijm", mix, q))
        return self._terms[rel]

    def kernels(self, rels: np.ndarray, ents: np.ndarray, pos: int) -> np.ndarray:
        """Per-fact (m*d) vectors whose dot with an entity block is its score
        when that entity fills `pos`; `rels` (B,), `ents` (B, a), one arity."""
        terms = [self.relation_terms(int(r)) for r in rels]
        u = np.stack([t[0] for t in terms])  # (B, a, d)
        p = np.stack([t[1] for t in terms])  # (B, a_i, a_j, m)
        v = np.einsum("bijm,bjmd->bijd", p, self.ent[ents])
        others = np.prod(np.delete(v, pos, axis=2), axis=2)  # (B, a_i, d)
        g = np.einsum("bim,bid->bmd", p[:, :, pos, :], u * others)
        return g.reshape(len(rels), -1)

    def all_scores(self, rels: np.ndarray, ents: np.ndarray, pos: int) -> np.ndarray:
        """(B, n_entities) scores with every entity substituted at `pos`."""
        return self.kernels(rels, ents, pos) @ self._ent_flat.T

    def save(self, out: Path) -> None:
        out.mkdir(parents=True, exist_ok=True)
        np.save(out / "ent.npy", self.ent)
        np.save(out / "basis_u.npy", self.basis_u)
        for a, raw in sorted(self.basis_p.items()):
            np.save(out / f"basis_p_{a}.npy", raw)
        np.save(out / "alpha.npy", self.alpha)
        np.save(out / "rel_arity.npy", self.rel_arity)

    @classmethod
    def load(cls, src: Path) -> "PlantedModel":
        src = Path(src)
        basis_p = {
            int(p.stem.rsplit("_", 1)[1]): np.load(p) for p in sorted(src.glob("basis_p_*.npy"))
        }
        return cls(
            np.load(src / "ent.npy"),
            np.load(src / "basis_u.npy"),
            basis_p,
            np.load(src / "alpha.npy"),
            np.load(src / "rel_arity.npy"),
        )


def _relation_arities(n_relations: int) -> np.ndarray:
    counts = {a: max(2, int(round(n_relations * w))) for a, w in ARITY_MIX}
    counts[2] += n_relations - sum(counts.values())
    return np.concatenate([np.full(c, a, dtype=np.int64) for a, c in sorted(counts.items())])


class FactPrior:
    """Popularity of entities and relations and the per-arity sharpness.

    Drawn from the model's stream, so it is fixed like the planted model.
    """

    def __init__(self, model: PlantedModel, spec: DatasetSpec, rng) -> None:
        self.entity = _zipf(spec.n_entities, rng, UNIFORM_SHARE)
        self.relations = {}
        self.betas = {}
        for a, _ in ARITY_MIX:
            rels = np.flatnonzero(model.rel_arity == a)
            self.relations[a] = (rels, _zipf(rels.size, rng))
            pilot_rels = rels[rng.choice(rels.size, size=CHUNK, p=self.relations[a][1])]
            pilot = rng.choice(spec.n_entities, size=(CHUNK, a), p=self.entity)
            self.betas[a] = SHARPNESS / float(model.all_scores(pilot_rels, pilot, 0).std())


def _sample_facts(model: PlantedModel, prior: FactPrior, n: int, rng) -> tuple[np.ndarray, list[np.ndarray]]:
    """`n` facts as (relation per fact, entity array per fact)."""
    arities, weights = zip(*ARITY_MIX)
    fact_arity = rng.choice(arities, size=n, p=np.array(weights) / sum(weights))
    n_entities = prior.entity.size
    rels = np.empty(n, dtype=np.int64)
    ents: list[np.ndarray] = [None] * n  # type: ignore[list-item]
    for a in arities:
        idx = np.flatnonzero(fact_arity == a)
        if idx.size == 0:
            continue
        cand_rels, rel_prob = prior.relations[a]
        rel = cand_rels[rng.choice(cand_rels.size, size=idx.size, p=rel_prob)]
        tup = rng.choice(n_entities, size=(idx.size, a), p=prior.entity)
        for _ in range(SWEEPS):
            for pos in range(a):
                for lo in range(0, idx.size, CHUNK):
                    sl = slice(lo, lo + CHUNK)
                    g = model.kernels(rel[sl], tup[sl], pos)
                    pool = rng.choice(n_entities, size=(len(g), POOL), p=prior.entity)
                    logits = prior.betas[a] * np.einsum("bx,bcx->bc", g, model._ent_flat[pool])
                    logits += rng.gumbel(size=logits.shape)
                    tup[sl, pos] = pool[np.arange(len(g)), logits.argmax(axis=1)]
        rels[idx] = rel
        for row, i in enumerate(idx):
            ents[i] = tup[row]
    return rels, ents


def _format(rel: int, ents) -> str:
    return "\t".join([f"r{rel}"] + [f"e{int(e)}" for e in ents])


def generate(spec: DatasetSpec, seed: int, out: Path) -> dict:
    """Write the dataset and planted parameters for `seed` into `out`.

    The same (spec, seed) always writes byte-identical files.
    """
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    rel_arity = _relation_arities(spec.n_relations)
    model_rng = _rng(MODEL_SEED, 1)
    model, role_map = PlantedModel.sample(spec, rel_arity, model_rng)
    prior = FactPrior(model, spec, model_rng)
    # oversample so that dropping duplicate facts still leaves enough
    rels, ents = _sample_facts(model, prior, int(spec.n_facts * 1.15) + 64, _rng(seed, 2))
    seen: set[str] = set()
    lines: list[str] = []
    arity_of: list[int] = []
    for r, e in zip(rels, ents):
        line = _format(int(r), e)
        if line not in seen:
            seen.add(line)
            lines.append(line)
            arity_of.append(len(e))
    if len(lines) < spec.n_facts:
        raise RuntimeError(f"only {len(lines)} distinct facts for {spec.n_facts} requested")
    order = _rng(seed, 3).permutation(len(lines))[: spec.n_facts]
    cuts = {"test": (0, spec.n_test),
            "valid": (spec.n_test, spec.n_test + spec.n_valid),
            "train": (spec.n_test + spec.n_valid, spec.n_facts)}
    hist = {}
    for split, (lo, hi) in cuts.items():
        chosen = order[lo:hi]
        (out / f"{split}.txt").write_text("".join(lines[i] + "\n" for i in chosen), encoding="utf-8")
        counts = np.bincount([arity_of[i] for i in chosen], minlength=7)
        hist[split] = {str(a): int(counts[a]) for a in range(2, 7)}
    model.save(out / "planted")
    meta = {
        "generator_version": GENERATOR_VERSION,
        "seed": seed,
        "spec": asdict(spec),
        "arity_mix": {str(a): w for a, w in ARITY_MIX},
        "betas": {str(a): b for a, b in sorted(prior.betas.items())},
        "arity_histogram": hist,
        "role_map": {f"r{r}": [int(k) for k in role_map[r, :a]] for r, a in enumerate(rel_arity)},
    }
    (out / "meta.json").write_text(json.dumps(meta, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return meta


def ensure_dataset(spec: DatasetSpec, seed: int, root: Path) -> Path:
    """Generate into `root` unless this (spec, seed) is already there."""
    final = Path(root) / f"{spec.name}-{spec.key()}-s{seed}"
    if (final / "meta.json").exists():
        return final
    tmp = final.with_name(final.name + f".tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    generate(spec, seed, tmp)
    shutil.rmtree(final, ignore_errors=True)
    tmp.rename(final)
    return final


# -- reading the files back and ranking with the planted model ---------------


def read_split(path: Path) -> list[tuple[int, tuple[int, ...]]]:
    """Facts of a generated split as (relation id, entity ids)."""
    facts = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        tokens = line.split()
        if tokens:
            facts.append((int(tokens[0][1:]), tuple(int(t[1:]) for t in tokens[1:])))
    return facts


def truth_index(facts) -> dict:
    """(relation, position, other entities) -> entity ids true there."""
    truth: dict = {}
    for rel, ents in facts:
        for pos in range(len(ents)):
            truth.setdefault((rel, pos, ents[:pos] + ents[pos + 1 :]), set()).add(ents[pos])
    return truth


def filtered_ranks(model: PlantedModel, queries, facts) -> np.ndarray:
    """Optimistic filtered rank of every position of every query fact.

    Candidates are the entities that occur in `facts` (all splits), minus
    those known true at the queried slot; the queried entity always stays.
    Rank is 1 + the number of candidates scoring strictly above it.
    """
    truth = truth_index(facts)
    in_data = np.zeros(len(model.ent), dtype=bool)
    in_data[[e for _, ents in facts for e in ents]] = True
    ranks = []
    for rel, ents in queries:
        rels = np.array([rel])
        row = np.array([ents])
        for pos in range(len(ents)):
            scores = model.all_scores(rels, row, pos)[0]
            true = scores[ents[pos]]
            known = truth.get((rel, pos, ents[:pos] + ents[pos + 1 :]), set()) - {ents[pos]}
            better = int((scores[in_data] > true).sum()) - sum(1 for e in known if scores[e] > true)
            ranks.append(1 + better)
    return np.array(ranks)
