import json
import struct

import numpy as np
import pytest

from ramkb import cli
from ramkb.checkpoint import (
    MAGIC,
    check_vocab_compatible,
    load_checkpoint,
    save_checkpoint,
)
from ramkb.engine import forward_group, split_groups
from ramkb.errors import DataError
from ramkb.expressive import GroundTruth, construct, verify_separation
from ramkb.kb import Fact, Vocabulary
from ramkb.model import ModelConfig, ModelParams

from conftest import make_vocab, random_facts
from test_model import randomized_params

TRAINED_MODES = [
    "latent",
    "extended",
    "explicit",
    "preset:DistMult",
    "preset:SimplE",
    "preset:ComplEx",
    "preset:QuatE",
]


def assert_same_arrays(params, loaded):
    assert loaded.slots() == params.slots()
    for key in params.slots():
        np.testing.assert_array_equal(loaded.data[key], params.data[key])


@pytest.mark.parametrize("mode_str", TRAINED_MODES)
def test_round_trip_every_trained_mode(tmp_path, mode_str):
    mode, preset = ModelConfig.parse_mode(mode_str)
    extra = {"role_multiplicity": 2, "patterns_per_role": 2} if mode == "extended" else {}
    cfg = ModelConfig(
        embed_dim=3, multiplicity=2, latent_size=2, mode=mode, preset=preset, **extra
    )
    vocab = make_vocab(
        6, (2,) if mode == "preset" else (2, 3), explicit_roles=(mode == "explicit")
    )
    params = randomized_params(cfg, vocab, seed=3)
    path = tmp_path / "model.ramckpt"
    save_checkpoint(path, params)
    loaded, _ = load_checkpoint(path)
    assert loaded.cfg == cfg
    check_vocab_compatible(vocab, loaded.vocab)
    assert_same_arrays(params, loaded)
    for spec in split_groups(params, random_facts(vocab, 4, seed=4)):
        np.testing.assert_array_equal(
            forward_group(loaded, spec).scores, forward_group(params, spec).scores
        )


def test_round_trip_raw_construction_still_separates(tmp_path):
    vocab = make_vocab(4, (2, 3))
    gt = GroundTruth((Fact(0, (0, 1)), Fact(1, (1, 2, 3)), Fact(1, (3, 3, 0))), vocab)
    params = construct(gt)
    path = tmp_path / "raw.ramckpt"
    save_checkpoint(path, params)
    loaded, _ = load_checkpoint(path)
    check_vocab_compatible(vocab, loaded.vocab)
    assert_same_arrays(params, loaded)
    assert {key[0] for key in loaded.slots()} == {"ent", "raw_u", "raw_p"}
    for spec in split_groups(params, list(gt.facts)):
        np.testing.assert_array_equal(
            forward_group(loaded, spec).scores, forward_group(params, spec).scores
        )
    assert verify_separation(gt, loaded).passed


def test_truncated_or_malformed_checkpoint_is_data_error(tmp_path):
    vocab = make_vocab(5, (2, 3))
    params = ModelParams.init(ModelConfig(embed_dim=3, latent_size=2), vocab, seed=0)
    path = tmp_path / "model.ramckpt"
    save_checkpoint(path, params)
    raw = path.read_bytes()
    header_end = 16 + struct.unpack("<Q", raw[8:16])[0]
    cuts = {
        "magic": 4,
        "length": 12,
        "header": (16 + header_end) // 2,
        "payload": (header_end + len(raw)) // 2,
        "last-byte": len(raw) - 1,
    }
    bad_json = MAGIC + struct.pack("<Q", 9) + b"{not json"
    files = {name: raw[:size] for name, size in cuts.items()}
    files["bad-json"] = bad_json
    for name, blob in files.items():
        bad = tmp_path / f"{name}.ramckpt"
        bad.write_bytes(blob)
        with pytest.raises(DataError):
            load_checkpoint(bad)
        code = cli.main(
            ["export", "--checkpoint", str(bad), "--out", str(tmp_path / name)]
        )
        assert code == 3, name


def test_array_past_payload_is_data_error(tmp_path):
    vocab = make_vocab(5, (2,))
    params = ModelParams.init(ModelConfig(embed_dim=3, latent_size=2), vocab, seed=0)
    path = tmp_path / "model.ramckpt"
    save_checkpoint(path, params)
    raw = path.read_bytes()
    header_end = 16 + struct.unpack("<Q", raw[8:16])[0]
    header = json.loads(raw[16:header_end])
    header["arrays"][-1]["shape"][0] += 1  # one row more than was written
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(MAGIC + struct.pack("<Q", len(blob)) + blob + raw[header_end:])
    with pytest.raises(DataError, match="truncated"):
        load_checkpoint(path)


def saved_header_and_payload(path, cfg, vocab):
    """Header dict and array payload of a fresh checkpoint written to `path`."""
    save_checkpoint(path, ModelParams.init(cfg, vocab, seed=0))
    raw = path.read_bytes()
    header_end = 16 + struct.unpack("<Q", raw[8:16])[0]
    return json.loads(raw[16:header_end]), raw[header_end:]


def test_malformed_header_is_data_error(tmp_path):
    cfg = ModelConfig(embed_dim=3, latent_size=2)
    header, payload = saved_header_and_payload(tmp_path / "model.ramckpt", cfg, make_vocab(5, (2,)))
    # an explicit-mode checkpoint, whose arrays fit a vocabulary with two roles
    explicit_header, explicit_payload = saved_header_and_payload(
        tmp_path / "explicit.ramckpt",
        ModelConfig(embed_dim=3, latent_size=2, mode="explicit"),
        make_vocab(5, (2,), explicit_roles=True),
    )
    entry = header["arrays"][0]
    headers = {
        "empty-object": {},
        "list": [],
        "no-arrays": {k: v for k, v in header.items() if k != "arrays"},
        "entry-without-offset": {
            **header, "arrays": [{"name": entry["name"], "shape": entry["shape"]}]
        },
        "entry-not-object": {**header, "arrays": ["ent"]},
        "bad-slot-name": {**header, "arrays": [{**entry, "name": "ent/x"}]},
        "vocab-without-entities": {
            **header, "vocab": {k: v for k, v in header["vocab"].items() if k != "entities"}
        },
        "no-arrays-listed": {**header, "arrays": []},
        "ent-wrong-shape": {
            **header,
            "arrays": [{**e, "shape": [1, 3, 3]} if e["name"] == "ent" else e
                       for e in header["arrays"]],
        },
        "no-basis-p": {
            **header,
            "arrays": [e for e in header["arrays"] if not e["name"].startswith("basis_p")],
        },
        "holdout-string": {**header, "holdout": "0.2"},
        "holdout-fraction-one": {**header, "holdout": {"valid_fraction": 1.0, "seed": 0}},
        "holdout-seed-negative": {**header, "holdout": {"valid_fraction": 0.2, "seed": -1}},
        "config-int": {**header, "config": 5},
        "config-embed-dim-string": {**header, "config": {**header["config"], "embed_dim": "3"}},
        "config-unknown-mode": {**header, "config": {**header["config"], "mode": "bogus"}},
        "shape-string": {**header, "arrays": [{**entry, "shape": "ab"}]},
        "offset-string": {**header, "arrays": [{**entry, "offset": "0"}]},
        "name-int": {**header, "arrays": [{**entry, "name": 5}]},
        # well-formed models whose sizes differ from the header's vocabulary
        "n-entities-not-vocab": {
            **header,
            "n_entities": 4,
            "arrays": [{**e, "shape": [4, *e["shape"][1:]]} if e["name"] == "ent" else e
                       for e in header["arrays"]],
        },
        "rel-arity-not-vocab": {
            **header,
            "rel_arity": [2, 2],
            "arrays": header["arrays"] + [
                {**e, "name": e["name"].replace("/0", "/1")}
                for e in header["arrays"] if e["name"].endswith("/0")
            ],
        },
        # arrays of exactly the shapes a relation of arity 1 would call for
        "vocab-arity-one": {
            **header,
            "vocab": {**header["vocab"], "relations": [["r0", 1]]},
            "arrays": [
                {**e, "name": "basis_p/1", "shape": [e["shape"][0], 1, e["shape"][2]]}
                if e["name"] == "basis_p/2"
                else {**e, "shape": [1, *e["shape"][1:]]} if e["name"] == "alpha/0"
                else e
                for e in header["arrays"]
            ],
        },
        # vocabularies that the config's mode rejects
        "explicit-without-roles": {**header, "config": {**header["config"], "mode": "explicit"}},
        "preset-ternary": {
            **header,
            "config": {**header["config"], "mode": "preset", "preset": "DistMult"},
            "vocab": {**header["vocab"], "relations": [["r0", 3]]},
        },
        # arities that int() would coerce to the saved arity 2 or to 1
        "vocab-arity-float": {**header, "vocab": {**header["vocab"], "relations": [["r0", 2.9]]}},
        "vocab-arity-bool": {**header, "vocab": {**header["vocab"], "relations": [["r0", True]]}},
    }
    role_cases = {"rel-roles-id-7-of-2": [0, 7], "rel-roles-too-long": [0, 1, 0],
                  "rel-roles-id-negative": [0, -1], "rel-roles-string": "01",
                  "rel-roles-id-float": [0, 1.0], "rel-roles-id-bool": [False, True]}
    assert explicit_header["vocab"]["rel_roles"] == {"0": [0, 1]}
    bad_files = {name: (bad_header, payload) for name, bad_header in headers.items()}
    for name, roles in role_cases.items():
        vocab = {**explicit_header["vocab"], "rel_roles": {"0": roles}}
        bad_files[name] = ({**explicit_header, "vocab": vocab}, explicit_payload)
    for name, (bad_header, bad_payload) in bad_files.items():
        blob = json.dumps(bad_header).encode("utf-8")
        bad = tmp_path / f"{name}.ramckpt"
        bad.write_bytes(MAGIC + struct.pack("<Q", len(blob)) + blob + bad_payload)
        with pytest.raises(DataError):
            load_checkpoint(bad)
        code = cli.main(
            ["export", "--checkpoint", str(bad), "--out", str(tmp_path / name)]
        )
        assert code == 3, name


def test_header_without_holdout_still_loads(tmp_path):
    """A header in the layout before the holdout was recorded reads as the defaults."""
    vocab = make_vocab(5, (2, 3))
    params = randomized_params(ModelConfig(embed_dim=3, latent_size=2), vocab, seed=1)
    path = tmp_path / "model.ramckpt"
    save_checkpoint(path, params, {"valid_fraction": 0.5, "seed": 7})
    raw = path.read_bytes()
    header_end = 16 + struct.unpack("<Q", raw[8:16])[0]
    header = json.loads(raw[16:header_end])
    assert list(header) == ["config", "vocab", "holdout", "arrays"]
    assert header["holdout"] == {"valid_fraction": 0.5, "seed": 7}
    del header["holdout"]
    header.update(n_entities=5, n_relations=2, max_arity=3, arities=[2, 3], rel_arity=[2, 3])
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(MAGIC + struct.pack("<Q", len(blob)) + blob + raw[header_end:])
    loaded, holdout = load_checkpoint(path)
    assert holdout == {"valid_fraction": 0.2, "seed": 0}
    check_vocab_compatible(vocab, loaded.vocab)
    assert_same_arrays(params, loaded)


def _vocab(entities=("x", "y", "z"), relations=(("r", 2),), roles=()):
    vocab = Vocabulary()
    for name in entities:
        vocab.add_entity(name)
    for name, arity in relations:
        vocab.add_relation(name, arity)
    for name in roles:
        vocab.add_role(name)
    return vocab


def test_vocab_mismatch_names_first_differing_entry():
    base = _vocab(roles=("g0", "g1"))
    check_vocab_compatible(base, _vocab(roles=("g0", "g1")))
    cases = [
        (_vocab(entities=("x", "z", "y"), roles=("g0", "g1")),
         "entity vocabularies differ at index 1: 'y' vs 'z'"),
        (_vocab(entities=("x", "y", "z", "w"), roles=("g0", "g1")),
         "entity vocabularies differ at index 3: no entry vs 'w'"),
        (_vocab(relations=(("r", 3),), roles=("g0", "g1")),
         r"relation vocabularies differ at index 0: \('r', 2\) vs \('r', 3\)"),
        (_vocab(roles=("g0", "g2")),
         "role vocabularies differ at index 1: 'g1' vs 'g2'"),
    ]
    for other, message in cases:
        with pytest.raises(DataError, match=message):
            check_vocab_compatible(base, other)
