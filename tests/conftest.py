from itertools import chain

import numpy as np
import pytest

from ramkb.engine import SampledCandidates, TableCandidates, forward_group
from ramkb.kb import Facts, KnowledgeBase, RawSplit, Vocabulary, build_kb, parse_tabular
from ramkb.mathcore import make_rng


def facts_of(pairs):
    """A Facts of `(relation, entities)` pairs, in order."""
    pairs = list(pairs)
    return Facts([rel for rel, _ in pairs], [len(ents) for _, ents in pairs],
                 [e for _, ents in pairs for e in ents])


def fact_pairs(facts):
    """The `(relation, entities)` pair of every fact of a Facts, in order."""
    ents, bounds = facts.ents.tolist(), facts.offsets.tolist()
    return [(rel, tuple(ents[lo:hi]))
            for rel, lo, hi in zip(facts.rels.tolist(), bounds, bounds[1:])]


def raw_split(facts):
    """A RawSplit of `(name, entity names, role names or None)` triples, in order."""
    facts = list(facts)
    return RawSplit([name for name, _, _ in facts], [len(ents) for _, ents, _ in facts],
                    [e for _, ents, _ in facts for e in ents], [roles for _, _, roles in facts])


def raw_facts(split):
    """The `(name, entity names, role names or None)` triple of every fact of a
    RawSplit, in order: the inverse of :func:`raw_split`."""
    ends = np.cumsum(split.arity).tolist()
    return [(name, tuple(split.entities[end - arity : end]), roles)
            for name, arity, end, roles in zip(split.names, split.arity.tolist(), ends,
                                               split.roles)]


def table_scores(params, spec):
    """Float64 scores (B, a, n_entities) of every entity at every position of a group."""
    return TableCandidates(params, spec.ents).scores(forward_group(params, spec).gather)


def own_scores(params, spec, masks=None):
    """Scores (B, a, 1) of each fact's own entity at every position: its own score."""
    own = SampledCandidates(params, spec.ents[:, :, None])
    return own.scores(forward_group(params, spec, masks).gather)


@pytest.fixture
def toy_kb():
    """Five mixed-arity facts over five entities, no valid/test."""
    raw = parse_tabular(
        [
            "r1 a b c",
            "r1 b c d",
            "r2 a d",
            "r2 c b",
            "r3 d a e b",
        ]
    )
    return build_kb(raw)


def make_vocab(n_entities, arities, explicit_roles=False, seed=0):
    """Vocabulary with one relation per listed arity."""
    rng = make_rng(seed, 99)
    pools = [[f"g{int(g)}" for g in rng.choice(2 * max(arities) + 2, size=arity, replace=False)]
             for arity in arities] if explicit_roles else []
    roles = list(dict.fromkeys(chain.from_iterable(pools)))  # in order of first use
    return Vocabulary([f"e{i}" for i in range(n_entities)],
                      [(f"r{r}", arity) for r, arity in enumerate(arities)], roles,
                      {rel: tuple(map(roles.index, pool)) for rel, pool in enumerate(pools)})


def random_facts(vocab, n_facts, seed=0):
    rng = make_rng(seed, 98)
    pairs = []
    for _ in range(n_facts):
        rel = int(rng.integers(0, vocab.n_relations))
        arity = vocab.arity(rel)
        pairs.append((rel, tuple(int(e) for e in rng.integers(0, vocab.n_entities, arity))))
    return facts_of(pairs)


def random_kb(n_entities, arities, n_train, n_valid=0, n_test=0, seed=0,
              explicit_roles=False):
    vocab = make_vocab(n_entities, arities, explicit_roles, seed)
    train = random_facts(vocab, n_train, seed)
    valid = random_facts(vocab, n_valid, seed + 1)
    test = random_facts(vocab, n_test, seed + 2)
    return KnowledgeBase(vocab, train, valid, test)
