import itertools
import json

import pytest

from oracles import naive_latent_score
from ramkb import cli
from ramkb.errors import ConfigError
from ramkb.expressive import ENUMERATION_CAP, construct, verify_separation
from ramkb.kb import Vocabulary
from ramkb.mathcore import make_rng
from ramkb.model import ModelConfig, ModelParams

from conftest import fact_pairs, facts_of


def random_ground_truth(seed, n_entities=4, n_facts=6):
    """(vocab, facts): distinct mixed arity 2-3 facts over `n_entities` entities
    plus one unused entity."""
    rng = make_rng(seed, 21)
    arities = (2, 3, int(rng.integers(2, 4)))
    vocab = Vocabulary([f"e{e}" for e in range(n_entities + 1)],
                       [(f"r{r}", arity) for r, arity in enumerate(arities)])
    pairs = []
    while len(pairs) < n_facts:
        rel = int(rng.integers(vocab.n_relations))
        ents = tuple(int(e) for e in rng.integers(0, n_entities, vocab.arity(rel)))
        if (rel, ents) not in pairs:
            pairs.append((rel, ents))
    return vocab, facts_of(pairs)


def per_tuple_report(vocab, facts, params):
    """(n_enumerated, min_true_score, max_false_score) by scoring one tuple at a time."""
    true_set = set(fact_pairs(facts))
    n_enumerated = 0
    min_true = float("inf")
    max_false = float("-inf")
    for rel, (_, arity) in enumerate(vocab.relations):
        for ents in itertools.product(range(vocab.n_entities), repeat=arity):
            value = naive_latent_score(params, rel, ents)
            n_enumerated += 1
            if (rel, ents) in true_set:
                min_true = min(min_true, value)
            else:
                max_false = max(max_false, value)
    return n_enumerated, min_true, max_false


@pytest.mark.parametrize("seed", range(5))
def test_construct_separates_random_ground_truths(seed):
    vocab, facts = random_ground_truth(seed)
    report = verify_separation(construct(vocab, facts), facts)
    assert report.passed, report
    assert report.n_true == len(facts)


@pytest.mark.parametrize("arity", range(2, 13))
def test_true_fact_scores_exactly_its_arity(arity):
    # at arity 6, 7, 9, ... a pattern mass of 1/arity would score a hair off
    vocab = Vocabulary(["a", "b"], [("r", arity)])
    facts = facts_of([(0, (0,) * arity), (0, tuple(i % 2 for i in range(arity)))])
    report = verify_separation(construct(vocab, facts), facts)
    assert report.passed, report
    assert (report.min_true_score, report.max_false_score) == (arity, 0.0)


@pytest.mark.parametrize("seed", range(3))
def test_batched_report_equals_per_tuple_loop(seed):
    vocab, facts = random_ground_truth(seed)
    params = construct(vocab, facts)
    report = verify_separation(params, facts)
    expected = per_tuple_report(vocab, facts, params)
    assert (report.n_enumerated, report.min_true_score, report.max_false_score) == expected


def test_perturbed_entity_block_fails():
    vocab, facts = random_ground_truth(0)
    params = construct(vocab, facts)
    entity = facts.ents[0]
    params.data[("ent",)][entity] += 1e-3
    report = verify_separation(params, facts)
    assert not report.passed
    assert report.max_false_score > 0.0
    assert report.max_false_score == pytest.approx(
        per_tuple_report(vocab, facts, params)[2], rel=1e-12)


def over_cap_ground_truth():
    n_entities = round(ENUMERATION_CAP ** (1 / 3)) + 1
    vocab = Vocabulary([f"e{e}" for e in range(n_entities)], [("r", 3)])
    assert n_entities ** 3 > ENUMERATION_CAP
    return vocab, facts_of([(0, (0, 1, 2))])


def test_ground_truth_over_enumeration_cap_rejected():
    vocab, facts = over_cap_ground_truth()
    params = ModelParams.init(ModelConfig(embed_dim=1, multiplicity=1, latent_size=1), vocab)
    with pytest.raises(ConfigError, match="enumeration cap"):
        verify_separation(params, facts)


def test_construct_checks_the_cap_before_building_anything(tmp_path, capsys):
    vocab, facts = over_cap_ground_truth()
    with pytest.raises(ConfigError, match="enumeration cap"):
        construct(vocab, facts)
    spec = tmp_path / "truth.txt"
    spec.write_text("".join(f"r e{e} e{e} e{e}\n" for e in range(vocab.n_entities)))
    out = tmp_path / "out"
    assert cli.main(["express", "--spec", str(spec), "--out", str(out)]) == 2
    assert "exceed the enumeration cap" in capsys.readouterr().err
    assert not out.exists()


def test_express_command_writes_passing_report(tmp_path):
    spec = tmp_path / "truth.txt"
    spec.write_text("r a b\ns a b c\ns c c d\n")
    out = tmp_path / "out"
    assert cli.main(["express", "--spec", str(spec), "--out", str(out)]) == 0
    report = json.loads((out / "separation.json").read_text())
    assert report == {"passed": True, "min_true_score": 2.0, "max_false_score": 0.0,
                      "n_true": 3, "n_enumerated": 4 ** 2 + 4 ** 3}


def express_report(spec, capsys):
    assert cli.main(["express", "--spec", str(spec)]) == 0
    return json.loads(capsys.readouterr().out)


def test_tabular_and_role_json_specs_give_equal_reports(tmp_path, capsys):
    # a binary and a ternary relation; role keys sort to the tabular order
    facts = [("r", "a", "b"), ("r", "b", "c"), ("s", "a", "b", "c"), ("s", "d", "d", "a")]
    tabular = tmp_path / "truth.tsv"
    tabular.write_text("".join("\t".join(fact) + "\n" for fact in facts))
    roles = {2: ("p1", "p2"), 3: ("q1", "q2", "q3")}
    role_json = tmp_path / "truth.jsonl"
    role_json.write_text("".join(
        json.dumps(dict(zip(roles[len(ents)], ents))) + "\n" for _, *ents in facts))
    report = express_report(tabular, capsys)
    assert report == express_report(role_json, capsys)
    assert report["passed"] and report["n_true"] == 4
    assert report["n_enumerated"] == 4 ** 2 + 4 ** 3


def test_fact_listed_twice_is_one_true_fact(tmp_path, capsys):
    spec = tmp_path / "truth.txt"
    spec.write_text("r a b\ns a b c\nr a b\nr b a\n")
    report = express_report(spec, capsys)
    assert report["passed"] and report["n_true"] == 3


def _malformed_spec(tmp_path):
    spec = tmp_path / "truth.txt"
    spec.write_text("r a b\nr c\n")
    return spec, "line 2: expected relation plus >= 2 entities"


def _directory_spec(tmp_path):
    spec = tmp_path / "truth.txt"
    spec.mkdir()
    return spec, "is a directory"


def _empty_spec(tmp_path):
    spec = tmp_path / "truth.txt"
    spec.write_text("\n")
    return spec, "holds no facts"


def _old_json_spec(tmp_path):
    # the retired {"facts": [...], "entities": [...]} document on one line:
    # role-JSON reads it as one multi-valued fact and drops it
    spec = tmp_path / "truth.json"
    spec.write_text(json.dumps({"facts": [{"relation": "r", "entities": ["a", "b"]}],
                                "entities": ["a", "b"]}))
    return spec, "holds no facts"


@pytest.mark.parametrize("spoil", [_malformed_spec, _directory_spec, _empty_spec,
                                   _old_json_spec])
def test_unreadable_spec_exits_3_naming_it(tmp_path, capsys, spoil):
    spec, reason = spoil(tmp_path)
    assert cli.main(["express", "--spec", str(spec)]) == 3
    assert f"data error: {spec}: {reason}" in capsys.readouterr().err


@pytest.mark.parametrize("arity", [63, 64, 65, 70])
def test_one_entity_relation_of_arity_64_and_above_separates(tmp_path, capsys, arity):
    """The tuples of a relation are indexed by flat codes, so an arity past
    numpy's 64 index arrays enumerates as any other."""
    spec = tmp_path / "truth.txt"
    spec.write_text("w" + " a" * arity + "\n")
    assert express_report(spec, capsys) == {
        "passed": True, "min_true_score": float(arity), "max_false_score": 0.0,
        "n_true": 1, "n_enumerated": 1}
