"""Deliberately naive reimplementations used only as test oracles.

Everything here is written with plain Python loops and direct formula
transcription, independent of the vectorized production paths.
"""

import math

import numpy as np

from ramkb.errors import DataError, DimensionError
from ramkb.kb import Fact, Vocabulary


def naive_softmax(values):
    exps = [math.exp(v) for v in values]
    total = sum(exps)
    return [e / total for e in exps]


def naive_softmax_matrix(matrix):
    flat = [v for row in matrix for v in row]
    soft = naive_softmax(flat)
    cols = len(matrix[0])
    return [soft[i * cols : (i + 1) * cols] for i in range(len(matrix))]


def naive_multilinear(vectors):
    total = 0.0
    for t in range(len(vectors[0])):
        prod = 1.0
        for v in vectors:
            prod *= v[t]
        total += prod
    return total


def naive_role_embedding(alpha, basis_vectors):
    weights = naive_softmax(list(alpha))
    d = len(basis_vectors[0])
    out = [0.0] * d
    for k, w in enumerate(weights):
        for t in range(d):
            out[t] += w * basis_vectors[k][t]
    return out


def naive_pattern_matrix(alpha, basis_matrices):
    weights = naive_softmax(list(alpha))
    rows = len(basis_matrices[0])
    cols = len(basis_matrices[0][0])
    out = [[0.0] * cols for _ in range(rows)]
    for k, w in enumerate(weights):
        normed = naive_softmax_matrix(basis_matrices[k])
        for i in range(rows):
            for j in range(cols):
                out[i][j] += w * normed[i][j]
    return out


def naive_latent_score(params, fact):
    """Latent-mode score via loops over the raw parameter arrays."""
    arity = params.vocab.arity(fact.relation)
    basis_u = params.data[("basis_u",)]
    basis_p = params.data[("basis_p", arity)]
    alpha = params.data[("alpha", fact.relation)]
    ent = params.data[("ent",)]
    total = 0.0
    for i in range(arity):
        u = naive_role_embedding(alpha[i, 0], [list(b) for b in basis_u])
        pat = naive_pattern_matrix(
            alpha[i, 0], [[list(r) for r in b] for b in basis_p]
        )
        vectors = [u]
        for j in range(arity):
            block = ent[fact.entities[j]]
            weighted = [
                sum(pat[j][mu] * block[mu][t] for mu in range(block.shape[0]))
                for t in range(block.shape[1])
            ]
            vectors.append(weighted)
        total += naive_multilinear(vectors)
    return total


def naive_extended_score(params, fact):
    arity = params.vocab.arity(fact.relation)
    cfg = params.cfg
    basis_u = params.data[("basis_u",)]
    basis_p = params.data[("basis_p", arity)]
    alpha = params.data[("alpha", fact.relation)]
    beta = params.data[("beta", fact.relation)]
    omega = params.data[("omega", fact.relation)]
    ent = params.data[("ent",)]
    total = 0.0
    for i in range(arity):
        for j in range(cfg.role_multiplicity):
            u = naive_role_embedding(alpha[i, j], [list(b) for b in basis_u])
            for k in range(cfg.patterns_per_role):
                pat = naive_pattern_matrix(
                    beta[i, j, k], [[list(r) for r in b] for b in basis_p]
                )
                vectors = [u]
                for l in range(arity):
                    block = ent[fact.entities[l]]
                    vectors.append(
                        [
                            sum(
                                pat[l][mu] * block[mu][t]
                                for mu in range(block.shape[0])
                            )
                            for t in range(block.shape[1])
                        ]
                    )
                total += omega[i, j, k] * naive_multilinear(vectors)
    return total


def naive_explicit_score(params, fact):
    arity = params.vocab.arity(fact.relation)
    roles = params.vocab.rel_roles[fact.relation]
    role_vec = params.data[("role_vec",)]
    role_pat = params.data[("role_pat", arity)]
    ent = params.data[("ent",)]
    total = 0.0
    for i in range(arity):
        u = list(role_vec[roles[i]])
        pat = naive_softmax_matrix([list(r) for r in role_pat[roles[i]]])
        vectors = [u]
        for j in range(arity):
            block = ent[fact.entities[j]]
            vectors.append(
                [
                    sum(pat[j][mu] * block[mu][t] for mu in range(block.shape[0]))
                    for t in range(block.shape[1])
                ]
            )
        total += naive_multilinear(vectors)
    return total


def naive_raw_score(params, fact):
    """Raw-mode score via loops over the verbatim role and pattern arrays."""
    arity = params.vocab.arity(fact.relation)
    role_vecs = params.data[("raw_u", fact.relation)]
    patterns = params.data[("raw_p", fact.relation)]
    ent = params.data[("ent",)]
    total = 0.0
    for i in range(arity):
        vectors = [list(role_vecs[i])]
        for j in range(arity):
            block = ent[fact.entities[j]]
            vectors.append(
                [
                    sum(patterns[i][j][mu] * block[mu][t] for mu in range(block.shape[0]))
                    for t in range(block.shape[1])
                ]
            )
        total += naive_multilinear(vectors)
    return total


def naive_fact_loss(score_fn, params, fact, n_entities):
    """Cross-entropy against all corruptions, composed without log-sum-exp."""
    total = 0.0
    for pos in range(len(fact.entities)):
        true_score = score_fn(params, fact)
        denom = 0.0
        for e in range(n_entities):
            entities = list(fact.entities)
            entities[pos] = e
            candidate = type(fact)(fact.relation, tuple(entities))
            denom += math.exp(score_fn(params, candidate))
        total += -math.log(math.exp(true_score) / denom)
    return total


def copy_cross_entropy(scores, true_cols, scale=1.0):
    """Candidate cross-entropy in log-sum-exp form, every step a fresh array.

    `scores` (B, a, C) is left as it is. Returns the (B,) losses summed over
    positions and the (B, a, C) gradient `scale` times softmax(scores) minus
    the one-hot, as ``exps * (scale / total)`` less `scale` at the true column.
    """
    top = scores.max(axis=-1, keepdims=True)
    exps = np.exp(scores - top)
    total = exps.sum(axis=-1, keepdims=True)
    b, a = true_cols.shape
    true = np.array([[scores[i, p, true_cols[i, p]] for p in range(a)] for i in range(b)])
    losses = (top[..., 0] + np.log(total[..., 0]) - true).sum(axis=1)
    grad = exps * (scale / total)
    for i in range(b):
        for p in range(a):
            grad[i, p, true_cols[i, p]] -= scale
    return losses, grad


def loop_split_groups(vocab, facts):
    """Arity groups of `facts`, built one fact at a time: an (arity, rels,
    ents, fact_index, rows) tuple per arity, ascending. Each group keeps its
    facts in list order, and its rows follow the rows of the groups before
    it, `arity` per fact."""
    by_arity = {}
    for i, fact in enumerate(facts):
        if fact.arity != vocab.arity(fact.relation):
            raise DimensionError(
                f"fact arity {fact.arity} != relation arity {vocab.arity(fact.relation)}"
            )
        by_arity.setdefault(fact.arity, []).append(i)
    groups, row = [], 0
    for arity in sorted(by_arity):
        idx = by_arity[arity]
        groups.append((
            arity,
            np.array([facts[i].relation for i in idx], dtype=np.intp),
            np.array([facts[i].entities for i in idx], dtype=np.intp),
            np.array(idx, dtype=np.intp),
            slice(row, row + len(idx) * arity),
        ))
        row += len(idx) * arity
    return groups


def loop_build_kb(train, valid=(), test=()):
    """The vocabulary and the Fact lists of raw splits, indexed one fact and
    one name at a time: (vocab, [train, valid, test]).

    Raises the DataError of the first bad fact in split order: fewer than
    two entities, or roles other than the first ones its relation met.
    """
    if not train:
        raise DataError("empty training split")
    vocab = Vocabulary()
    splits = []
    for raw_split in (train, valid, test):
        facts = []
        for name, entities, roles in raw_split:
            arity = len(entities)
            if arity < 2:
                raise DataError(f"relation {name!r}: facts need >= 2 entities")
            rel = vocab.add_relation(name, arity)
            ent_ids = tuple(vocab.add_entity(e) for e in entities)
            if roles is not None:
                role_ids = tuple(vocab.add_role(r) for r in roles)
                seen = vocab.rel_roles.setdefault(rel, role_ids)
                if seen != role_ids:
                    raise DataError(f"relation {name!r} used with inconsistent role lists")
            facts.append(Fact(rel, ent_ids))
        splits.append(facts)
    return vocab, splits


def brute_force_candidates(kb, fact, position):
    """Filtered-candidate mask recomputed by scanning every stored fact."""
    mask = np.ones(kb.vocab.n_entities, dtype=bool)
    for other in kb.train + kb.valid + kb.test:
        if other.relation != fact.relation:
            continue
        rest_match = all(
            other.entities[j] == fact.entities[j]
            for j in range(len(fact.entities))
            if j != position
        )
        if rest_match:
            mask[other.entities[position]] = False
    mask[fact.entities[position]] = True
    return mask


def sort_rank(scores, mask, true_entity):
    """Sort-based optimistic rank among the masked candidates."""
    candidate_scores = sorted(
        (scores[e] for e in range(len(scores)) if mask[e]), reverse=True
    )
    true_score = scores[true_entity]
    for idx, value in enumerate(candidate_scores):
        if value == true_score:
            return idx + 1
    raise AssertionError("true entity's score not found among candidates")


def sort_ties(scores, mask, true_entity):
    """How many masked candidates other than the true entity score exactly as it does."""
    true_score = scores[true_entity]
    return sum(
        1 for e in range(len(scores))
        if mask[e] and e != true_entity and scores[e] == true_score
    )


def list_report(queries, hit_levels=(1, 3, 10)):
    """(mrr, hits, {arity: (mrr, hits, n_queries)}, ties) of (arity, rank, ties) triples.

    A query's reciprocal rank and Hit@k are averaged over the E + 1 places a
    uniformly random tie-break can give it among its E ties, from its
    optimistic rank on, with plain Python sums. Queries are grouped into
    per-arity lists in the order the arities are first met, and each
    mean is the numpy mean of one list, as a report of lists computes it.
    """
    per_arity = {}
    ties = 0
    for arity, rank, tied in queries:
        places = range(rank, rank + tied + 1)
        rr = 1.0 / rank if tied == 0 else sum(1.0 / place for place in places) / (tied + 1)
        hits = [sum(1 for place in places if place <= k) / (tied + 1) for k in hit_levels]
        per_arity.setdefault(arity, []).append([rr] + hits)
        ties += tied
    if not per_arity:
        raise ValueError("no queries")

    def means(rows):
        columns = list(zip(*rows))
        mrr = float(np.array(columns[0]).mean())
        return mrr, {k: float(np.array(c).mean()) for k, c in zip(hit_levels, columns[1:])}

    mrr, hits = means([row for rows in per_arity.values() for row in rows])
    by_arity = {a: (*means(rows), len(rows)) for a, rows in sorted(per_arity.items())}
    return mrr, hits, by_arity, ties


def rowwise_scatter(out, rows, values):
    """``out[rows[i]] += values[i]`` through numpy's row-wise ``add.at``."""
    np.add.at(out, rows, values)


class TextbookAdam:
    """Lazy Adam (Kingma & Ba, ICLR 2015) in its textbook vectorized form.

    Dense slots advance one step count; row-sparse slots (those in `touched`)
    advance only their touched rows' moments and per-row step counts. The
    moments and steps live here, keyed like the parameter slots.
    """

    def __init__(self, beta1=0.9, beta2=0.999, eps=1e-8):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m1, self.m2, self.steps = {}, {}, {}

    def step(self, data, grads, touched, lr):
        b1, b2, eps = self.beta1, self.beta2, self.eps
        for key, grad in grads.items():
            target = data[key]
            if key not in self.m1:
                self.m1[key] = np.zeros_like(target)
                self.m2[key] = np.zeros_like(target)
                self.steps[key] = (
                    np.zeros(target.shape[0], dtype=np.int64) if key in touched else 0
                )
            m1, m2 = self.m1[key], self.m2[key]
            if key in touched:
                rows = np.flatnonzero(touched[key])
                if rows.size == 0:
                    continue
                self.steps[key][rows] += 1
                t = self.steps[key][rows]
                g = grad[rows]
                m1[rows] = b1 * m1[rows] + (1 - b1) * g
                m2[rows] = b2 * m2[rows] + (1 - b2) * g * g
                extra = (1,) * (target.ndim - 1)
                bc1 = (1 - b1 ** t).reshape(t.shape + extra)
                bc2 = (1 - b2 ** t).reshape(t.shape + extra)
                target[rows] -= lr * (m1[rows] / bc1) / (np.sqrt(m2[rows] / bc2) + eps)
            else:
                self.steps[key] += 1
                t = self.steps[key]
                m1[:] = b1 * m1 + (1 - b1) * grad
                m2[:] = b2 * m2 + (1 - b2) * grad * grad
                target -= lr * (m1 / (1 - b1 ** t)) / (np.sqrt(m2 / (1 - b2 ** t)) + eps)
