"""The Facts list a split is held as: its arrays, and the operations that gather from them."""

import copy

import numpy as np
import pytest

from ramkb.evaluation import evaluate
from ramkb.kb import Facts, KnowledgeBase
from ramkb.mathcore import make_rng
from ramkb.model import ModelConfig, ModelParams
from ramkb.training import batch_loss

from conftest import fact_pairs, facts_of, random_kb

PAIRS = [(0, (1, 2)), (1, (0, 1, 2)), (0, (2, 2)), (2, (3, 0, 1, 4))]


def test_facts_hold_the_list_as_read_only_arrays():
    facts = facts_of(PAIRS)
    assert facts.rels.tolist() == [0, 1, 0, 2]
    assert facts.arity.tolist() == [2, 3, 2, 4]
    assert facts.ents.tolist() == [1, 2, 0, 1, 2, 2, 2, 3, 0, 1, 4]
    assert facts.offsets.tolist() == [0, 2, 5, 7, 11]
    for array in (facts.rels, facts.arity, facts.ents, facts.offsets):
        assert array.dtype == np.intp and not array.flags.writeable
    with pytest.raises(AttributeError):
        facts.rels = np.zeros(4, dtype=np.intp)
    # the arrays passed in stay writeable: Facts holds read-only views
    rels = np.array([5, 6])
    Facts(rels, [2, 2], [0, 1, 2, 3])
    assert rels.flags.writeable
    with pytest.raises(ValueError):
        Facts([0], [2], [1, 2, 3])


def test_facts_index_slice_and_gather_as_the_list_does():
    facts = facts_of(PAIRS)
    assert len(facts) == 4 and fact_pairs(facts) == PAIRS
    # a fact is read from the arrays: no integer index, no iteration
    for key in (0, -1, 4, np.intp(1), np.int64(0)):
        with pytest.raises(TypeError):
            facts[key]
    with pytest.raises(TypeError, match="not the integer 0"):
        list(facts)
    for key in (slice(1, 3), slice(3, 1), slice(None, None, -1), slice(0, 4, 2), slice(-2, None)):
        assert fact_pairs(facts[key]) == PAIRS[key], key
        assert isinstance(facts[key], Facts)
    order = [3, 0, 0, 2]
    assert fact_pairs(facts[np.array(order)]) == [PAIRS[i] for i in order]
    assert fact_pairs(facts[[-1]]) == PAIRS[-1:]
    assert fact_pairs(facts[np.array([True, False, False, True])]) == [PAIRS[0], PAIRS[3]]
    assert len(facts[np.array([], dtype=np.intp)]) == 0
    assert facts[::2].offsets.tolist() == [0, 2, 4]


def test_facts_concatenate_and_compare_by_value_with_facts_only():
    facts = facts_of(PAIRS)
    assert facts[:2] + facts[2:] == facts
    assert facts[:1] + facts_of(PAIRS[1:]) == facts
    assert facts != facts_of(PAIRS[::-1]) and facts != facts[:3]
    # a list is not a Facts, even one holding the same pairs
    assert facts != PAIRS and facts != "not facts"
    with pytest.raises(TypeError):
        facts + PAIRS
    with pytest.raises(TypeError):
        hash(facts)
    empty = facts_of([])
    assert not empty and fact_pairs(empty) == [] and empty + facts == facts


MODEL = ModelConfig(embed_dim=4, multiplicity=2, latent_size=2)


def test_the_benchmark_split_operations():
    """A shallow copy with a sliced test split, a KB rebuilt from concatenated
    slices, and a training slice scored by batch_loss."""
    kb = random_kb(30, (2, 3, 5), n_train=300, n_valid=10, n_test=40, seed=8)
    params = ModelParams.init(MODEL, kb.vocab, seed=3)
    tests = fact_pairs(kb.test)

    def same_report(a, b):
        a, b = a.to_dict(), b.to_dict()
        del a["seconds"], b["seconds"]
        assert a == b

    # test-split chunks share the whole KB's known-true index
    chunk = copy.copy(kb)
    chunk.test = kb.test[10:25]
    assert fact_pairs(chunk.test) == tests[10:25] and fact_pairs(kb.test) == tests
    rest = KnowledgeBase(kb.vocab, kb.train, kb.valid + kb.test[:10] + facts_of(tests[25:]),
                         facts_of(tests[10:25]))
    same_report(evaluate(params, chunk, "test"), evaluate(params, rest, "test"))

    n = 12
    sub = KnowledgeBase(kb.vocab, kb.train, kb.valid + kb.test[n:], kb.test[:n])
    assert fact_pairs(sub.valid) == fact_pairs(kb.valid) + tests[n:]
    assert fact_pairs(sub.test) == tests[:n]
    head = copy.copy(kb)
    head.test = kb.test[:n]
    same_report(evaluate(params, sub, "test"), evaluate(params, head, "test"))

    sample = kb.train[:256]
    assert len(sample) == 256
    for negatives in ("full", 4):
        rngs = [make_rng(5, i) for i in range(len(sample))]
        again = [make_rng(5, i) for i in range(len(sample))]
        assert batch_loss(params, sample, negatives=negatives, fact_rngs=rngs) == batch_loss(
            params, facts_of(fact_pairs(kb.train)[:256]), negatives=negatives, fact_rngs=again)
