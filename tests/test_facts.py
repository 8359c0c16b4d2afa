"""The Facts sequence a split is held as, and the paths that read it without a Fact per fact."""

import copy

import numpy as np
import pytest

from ramkb import cli
from ramkb.evaluation import evaluate
from ramkb.kb import Fact, Facts, KnowledgeBase, as_facts
from ramkb.mathcore import make_rng
from ramkb.model import ModelConfig, ModelParams
from ramkb.training import TrainConfig, batch_loss, train

from conftest import random_kb

FACTS = [Fact(0, (1, 2)), Fact(1, (0, 1, 2)), Fact(0, (2, 2)), Fact(2, (3, 0, 1, 4))]


def test_facts_hold_the_list_as_read_only_arrays():
    facts = as_facts(FACTS)
    assert facts.rels.tolist() == [0, 1, 0, 2]
    assert facts.arity.tolist() == [2, 3, 2, 4]
    assert facts.ents.tolist() == [1, 2, 0, 1, 2, 2, 2, 3, 0, 1, 4]
    assert facts.offsets.tolist() == [0, 2, 5, 7, 11]
    for array in (facts.rels, facts.arity, facts.ents, facts.offsets):
        assert array.dtype == np.intp and not array.flags.writeable
    with pytest.raises(AttributeError):
        facts.rels = np.zeros(4, dtype=np.intp)
    assert as_facts(facts) is facts
    # the arrays passed in stay writeable: Facts holds read-only views
    rels = np.array([5, 6])
    Facts(rels, [2, 2], [0, 1, 2, 3])
    assert rels.flags.writeable
    with pytest.raises(ValueError):
        Facts([0], [2], [1, 2, 3])


def test_facts_index_slice_and_gather_as_the_list_does():
    facts = as_facts(FACTS)
    assert len(facts) == 4 and list(facts) == FACTS
    assert [facts[i] for i in range(-4, 4)] == FACTS + FACTS
    for i in (4, -5):
        with pytest.raises(IndexError):
            facts[i]
    for key in (slice(1, 3), slice(3, 1), slice(None, None, -1), slice(0, 4, 2), slice(-2, None)):
        assert list(facts[key]) == FACTS[key], key
        assert isinstance(facts[key], Facts)
    order = [3, 0, 0, 2]
    assert list(facts[np.array(order)]) == [FACTS[i] for i in order]
    assert list(facts[[-1]]) == FACTS[-1:]
    assert list(facts[np.array([True, False, False, True])]) == [FACTS[0], FACTS[3]]
    assert len(facts[np.array([], dtype=np.intp)]) == 0
    assert facts[::2].offsets.tolist() == [0, 2, 4]


def test_facts_concatenate_and_compare_by_value_with_facts_only():
    facts = as_facts(FACTS)
    assert facts[:2] + facts[2:] == facts
    assert facts[:1] + as_facts(FACTS[1:]) == facts
    assert facts != as_facts(FACTS[::-1]) and facts != facts[:3]
    # a list is not a Facts, even one holding the same Fact objects
    assert facts != FACTS and facts != "not facts"
    with pytest.raises(TypeError):
        facts + FACTS
    with pytest.raises(TypeError):
        hash(facts)
    empty = as_facts([])
    assert not empty and list(empty) == [] and empty + facts == facts


def write_data(root, n_train=120, n_test=30, n_entities=25, seed=0):
    """Tabular train and test files of arities 2 to 4; no valid file."""
    rng = np.random.default_rng(seed)
    data = root / "data"
    data.mkdir()
    for split, n_facts in (("train", n_train), ("test", n_test)):
        lines = [f"r{a} " + " ".join(f"e{e}" for e in rng.integers(0, n_entities, a))
                 for a in rng.integers(2, 5, n_facts)]
        (data / f"{split}.txt").write_text("\n".join(lines) + "\n")
    return data


MODEL = ModelConfig(embed_dim=4, multiplicity=2, latent_size=2)


@pytest.mark.parametrize("negatives", ["full", 5])
def test_load_train_and_evaluate_make_no_fact(tmp_path, monkeypatch, caplog, negatives):
    """Loading (with the KB's INFO statistics), a validated epoch of training
    and ranking the test split read the split arrays: no Fact is made."""
    data = write_data(tmp_path)
    made = []
    init = Fact.__init__

    def counted(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Fact, "__init__", counted)
    with caplog.at_level("INFO", logger="ramkb.kb"):
        kb, _ = cli.load_dataset(data, valid_fraction=0.2, seed=1)
    assert any("loaded KB" in rec.getMessage() for rec in caplog.records)
    result = train(kb, MODEL, TrainConfig(batch_size=16, max_epochs=1, negatives=negatives,
                                          dropout=0.1, seed=2))
    assert result.best_valid_mrr is not None
    evaluate(result.params, kb, "test")
    assert made == []
    kb.train[0]  # the counter counts
    assert len(made) == 1


def assert_same_params(got, want):
    assert list(got.data) == list(want.data)
    for key in want.data:
        assert got.data[key].tobytes() == want.data[key].tobytes(), key


@pytest.mark.parametrize("negatives", ["full", 3])
def test_a_kb_of_plain_fact_lists_trains_and_ranks_to_the_same_bits(negatives):
    kb = random_kb(20, (2, 3, 4), n_train=90, n_valid=15, n_test=25, seed=4)
    plain = KnowledgeBase(kb.vocab, list(kb.train), list(kb.valid), list(kb.test))
    assert plain.train == kb.train and plain.test == kb.test
    cfg = TrainConfig(batch_size=16, max_epochs=2, negatives=negatives, dropout=0.2, seed=6)
    got, want = train(plain, MODEL, cfg), train(kb, MODEL, cfg)
    assert_same_params(got.params, want.params)
    assert [row.train_loss for row in got.trace] == [row.train_loss for row in want.trace]
    assert got.best_valid_mrr == want.best_valid_mrr
    reports = [evaluate(want.params, k, "test").to_dict() for k in (plain, kb)]
    for report in reports:
        del report["seconds"]
    assert reports[0] == reports[1]


def test_the_benchmark_split_operations():
    """A shallow copy with a sliced test split, a KB rebuilt from concatenated
    slices, and a training slice scored by batch_loss."""
    kb = random_kb(30, (2, 3, 5), n_train=300, n_valid=10, n_test=40, seed=8)
    params = ModelParams.init(MODEL, kb.vocab, seed=3)
    tests = list(kb.test)

    def same_report(a, b):
        a, b = a.to_dict(), b.to_dict()
        del a["seconds"], b["seconds"]
        assert a == b

    # test-split chunks share the whole KB's known-true index
    chunk = copy.copy(kb)
    chunk.test = kb.test[10:25]
    assert list(chunk.test) == tests[10:25] and list(kb.test) == tests
    rest = KnowledgeBase(kb.vocab, kb.train, list(kb.valid + kb.test[:10]) + tests[25:],
                         tests[10:25])
    same_report(evaluate(params, chunk, "test"), evaluate(params, rest, "test"))

    n = 12
    sub = KnowledgeBase(kb.vocab, kb.train, kb.valid + kb.test[n:], kb.test[:n])
    assert list(sub.valid) == list(kb.valid) + tests[n:] and list(sub.test) == tests[:n]
    head = copy.copy(kb)
    head.test = kb.test[:n]
    same_report(evaluate(params, sub, "test"), evaluate(params, head, "test"))

    sample = kb.train[:256]
    assert len(sample) == 256
    for negatives in ("full", 4):
        rngs = [make_rng(5, i) for i in range(len(sample))]
        again = [make_rng(5, i) for i in range(len(sample))]
        assert batch_loss(params, sample, negatives=negatives, fact_rngs=rngs) == batch_loss(
            params, list(kb.train)[:256], negatives=negatives, fact_rngs=again)
