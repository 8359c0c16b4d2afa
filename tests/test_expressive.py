import itertools
import json

import pytest

from oracles import naive_raw_score
from ramkb import cli
from ramkb.errors import ConfigError
from ramkb.expressive import ENUMERATION_CAP, GroundTruth, construct, verify_separation
from ramkb.kb import Fact, Vocabulary
from ramkb.mathcore import make_rng


def random_ground_truth(seed, n_entities=4, n_facts=6):
    """Mixed arity 2-3 facts over `n_entities` entities plus one unused entity."""
    rng = make_rng(seed, 21)
    vocab = Vocabulary()
    for e in range(n_entities + 1):
        vocab.add_entity(f"e{e}")
    for r, arity in enumerate((2, 3, int(rng.integers(2, 4)))):
        vocab.add_relation(f"r{r}", arity)
    facts = []
    while len(facts) < n_facts:
        rel = int(rng.integers(vocab.n_relations))
        ents = tuple(int(e) for e in rng.integers(0, n_entities, vocab.arity(rel)))
        if Fact(rel, ents) not in facts:
            facts.append(Fact(rel, ents))
    return GroundTruth(tuple(facts), vocab)


def per_tuple_report(gt, params):
    """(n_enumerated, min_true_score, max_false_score) by scoring one tuple at a time."""
    true_set = set(gt.facts)
    n_enumerated = 0
    min_true = float("inf")
    max_false = float("-inf")
    for rel, (_, arity) in enumerate(gt.vocab.relations):
        for ents in itertools.product(range(gt.vocab.n_entities), repeat=arity):
            fact = Fact(rel, ents)
            value = naive_raw_score(params, fact)
            n_enumerated += 1
            if fact in true_set:
                min_true = min(min_true, value)
            else:
                max_false = max(max_false, value)
    return n_enumerated, min_true, max_false


@pytest.mark.parametrize("seed", range(5))
def test_construct_separates_random_ground_truths(seed):
    gt = random_ground_truth(seed)
    report = verify_separation(gt, construct(gt))
    assert report.passed, report.to_dict()
    assert report.n_true == len(gt.facts)


@pytest.mark.parametrize("seed", range(3))
def test_batched_report_equals_per_tuple_loop(seed):
    gt = random_ground_truth(seed)
    params = construct(gt)
    report = verify_separation(gt, params)
    expected = per_tuple_report(gt, params)
    assert (report.n_enumerated, report.min_true_score, report.max_false_score) == expected


def test_perturbed_entity_block_fails():
    gt = random_ground_truth(0)
    params = construct(gt)
    entity = gt.facts[0].entities[0]
    params.data[("ent",)][entity] += 1e-3
    report = verify_separation(gt, params)
    assert not report.passed
    assert report.max_false_score > 0.0
    assert report.max_false_score == pytest.approx(per_tuple_report(gt, params)[2], rel=1e-12)


def test_ground_truth_over_enumeration_cap_rejected():
    n_entities = round(ENUMERATION_CAP ** (1 / 3)) + 1
    vocab = Vocabulary()
    for e in range(n_entities):
        vocab.add_entity(f"e{e}")
    vocab.add_relation("r", 3)
    gt = GroundTruth((Fact(0, (0, 1, 2)),), vocab)
    assert n_entities ** 3 > ENUMERATION_CAP
    with pytest.raises(ConfigError):
        verify_separation(gt, construct(gt))


def test_express_command_writes_passing_report(tmp_path):
    spec = tmp_path / "truth.json"
    spec.write_text(json.dumps({
        "facts": [
            {"relation": "r", "entities": ["a", "b"]},
            {"relation": "s", "entities": ["a", "b", "c"]},
            {"relation": "s", "entities": ["c", "c", "d"]},
        ],
        "entities": ["unused"],
    }))
    out = tmp_path / "out"
    assert cli.main(["express", "--spec", str(spec), "--out", str(out)]) == 0
    report = json.loads((out / "separation.json").read_text())
    assert report["passed"] and report["n_true"] == 3
    assert report["n_enumerated"] == 5 ** 2 + 5 ** 3


@pytest.mark.parametrize("text", [
    "{bad",
    "[1,2]",
    '{"facts":[{"relation":"r"}]}',
    '{"facts":[{"relation":"r","entities":"ab"}]}',
    '{"facts":[{"relation":"r","entities":[1,2]}]}',
    '{"facts":[{"relation":5,"entities":["a","b"]}]}',
    '{"facts":[{"relation":"r","entities":["a","b"]}],"entities":"xyz"}',
], ids=["not-json", "not-object", "fact-without-entities", "entities-string",
        "entities-ints", "relation-int", "top-level-entities-string"])
def test_express_command_maps_malformed_spec_to_exit_3(tmp_path, text):
    spec = tmp_path / "truth.json"
    spec.write_text(text)
    assert cli.main(["express", "--spec", str(spec)]) == 3
