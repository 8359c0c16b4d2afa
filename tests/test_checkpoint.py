import csv
import io
import json
import struct

import numpy as np
import pytest

from ramkb import cli
from ramkb.checkpoint import (
    MAGIC,
    check_vocab_compatible,
    export_entities_csv,
    export_patterns_csv,
    export_roles_csv,
    load_checkpoint,
    load_checksums,
    save_checkpoint,
)
from ramkb.errors import DataError
from ramkb.expressive import construct, verify_separation
from ramkb.kb import Fact, Vocabulary, split_groups
from ramkb.model import ModelConfig, ModelParams, relation_terms

from conftest import make_vocab, random_facts, table_scores
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


def trained_mode_params(mode):
    """Randomized params of a `mode` model over a vocabulary that mode can take."""
    extra = {"role_multiplicity": 2, "patterns_per_role": 2} if mode == "extended" else {}
    cfg = ModelConfig(embed_dim=3, multiplicity=2, latent_size=2, mode=mode, **extra)
    vocab = make_vocab(
        6, (2,) if mode.startswith("preset:") else (2, 3), explicit_roles=(mode == "explicit")
    )
    return randomized_params(cfg, vocab, seed=3)


@pytest.mark.parametrize("mode_str", TRAINED_MODES)
def test_round_trip_every_trained_mode(tmp_path, mode_str):
    params = trained_mode_params(mode_str)
    cfg, vocab = params.cfg, params.vocab
    path = tmp_path / "model.ramckpt"
    save_checkpoint(path, params)
    loaded, _ = load_checkpoint(path)
    assert loaded.cfg == cfg
    check_vocab_compatible(vocab, loaded.vocab)
    assert_same_arrays(params, loaded)
    for spec in split_groups(params.vocab, random_facts(vocab, 4, seed=4)):
        np.testing.assert_array_equal(
            table_scores(loaded, spec), table_scores(params, spec)
        )


def test_round_trip_raw_construction_still_separates(tmp_path):
    vocab = make_vocab(4, (2, 3))
    facts = [Fact(0, (0, 1)), Fact(1, (1, 2, 3)), Fact(1, (3, 3, 0))]
    params = construct(vocab, facts)
    path = tmp_path / "raw.ramckpt"
    save_checkpoint(path, params)
    loaded, _ = load_checkpoint(path)
    check_vocab_compatible(vocab, loaded.vocab)
    assert_same_arrays(params, loaded)
    assert {key[0] for key in loaded.slots()} == {"ent", "raw_u", "raw_p"}
    for spec in split_groups(params.vocab, facts):
        np.testing.assert_array_equal(
            table_scores(loaded, spec), table_scores(params, spec)
        )
    assert verify_separation(loaded, facts).passed


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


def write_checkpoint(path, header, payload):
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(MAGIC + struct.pack("<Q", len(blob)) + blob + payload)


def saved_header_and_payload(path, cfg, vocab):
    """Header dict and array payload of a fresh checkpoint written to `path`."""
    save_checkpoint(path, ModelParams.init(cfg, vocab, seed=0))
    raw = path.read_bytes()
    header_end = 16 + struct.unpack("<Q", raw[8:16])[0]
    return json.loads(raw[16:header_end]), raw[header_end:]


def assert_data_error_and_export_exits_3(tmp_path, bad_files, match=None):
    for name, (bad_header, bad_payload) in bad_files.items():
        bad = tmp_path / f"{name}.ramckpt"
        write_checkpoint(bad, bad_header, bad_payload)
        with pytest.raises(DataError, match=match):
            load_checkpoint(bad)
        code = cli.main(
            ["export", "--checkpoint", str(bad), "--out", str(tmp_path / name)]
        )
        assert code == 3, name


def test_payload_of_another_size_is_data_error(tmp_path):
    """The config and vocabulary fix the payload's length, to the byte."""
    header, payload = saved_header_and_payload(
        tmp_path / "model.ramckpt", ModelConfig(embed_dim=3, latent_size=2), make_vocab(5, (2,))
    )
    cfg, vocab = header["config"], header["vocab"]
    bad_files = {
        "one-float-short": (header, payload[:-8]),
        "one-float-long": (header, payload + struct.pack("<d", 1.0)),
        "one-entity-fewer": (
            {**header, "vocab": {**vocab, "entities": vocab["entities"][:-1]}}, payload
        ),
        "one-relation-more": (
            {**header, "vocab": {**vocab, "relations": vocab["relations"] + [["r9", 2]]}}, payload
        ),
        "embed-dim-plus-one": (
            {**header, "config": {**cfg, "embed_dim": cfg["embed_dim"] + 1}}, payload
        ),
    }
    assert_data_error_and_export_exits_3(tmp_path, bad_files, match="payload")


def test_malformed_header_is_data_error(tmp_path):
    cfg = ModelConfig(embed_dim=3, latent_size=2)
    header, payload = saved_header_and_payload(tmp_path / "model.ramckpt", cfg, make_vocab(5, (2,)))
    # an explicit-mode checkpoint, whose arrays fit a vocabulary with two roles
    explicit_header, explicit_payload = saved_header_and_payload(
        tmp_path / "explicit.ramckpt",
        ModelConfig(embed_dim=3, latent_size=2, mode="explicit"),
        make_vocab(5, (2,), explicit_roles=True),
    )
    ternary_vocab = {**header["vocab"], "relations": [["r0", 3]]}
    headers = {
        "empty-object": {},
        "list": [],
        "no-config": {k: v for k, v in header.items() if k != "config"},
        "vocab-without-entities": {
            **header, "vocab": {k: v for k, v in header["vocab"].items() if k != "entities"}
        },
        "holdout-string": {**header, "holdout": "0.2"},
        "holdout-fraction-one": {**header, "holdout": {"valid_fraction": 1.0, "seed": 0}},
        "holdout-seed-negative": {**header, "holdout": {"valid_fraction": 0.2, "seed": -1}},
        "config-int": {**header, "config": 5},
        "config-embed-dim-string": {**header, "config": {**header["config"], "embed_dim": "3"}},
        "config-unknown-mode": {**header, "config": {**header["config"], "mode": "bogus"}},
        # vocabularies that the config's mode rejects
        "explicit-without-roles": {**header, "config": {**header["config"], "mode": "explicit"}},
        "preset-ternary": {
            **header,
            "config": {**header["config"], "mode": "preset:DistMult"},
            "vocab": ternary_vocab,
        },
        "preset-ternary-older-spelling": {
            **header,
            "config": {**header["config"], "mode": "preset", "preset": "DistMult"},
            "vocab": ternary_vocab,
        },
        # arities that int() would coerce to the saved arity 2 or to 1
        "vocab-arity-float": {**header, "vocab": {**header["vocab"], "relations": [["r0", 2.9]]}},
        "vocab-arity-bool": {**header, "vocab": {**header["vocab"], "relations": [["r0", True]]}},
        # names that are not strings, over a payload of the saved size
        "vocab-entities-int": {
            **header, "vocab": {**header["vocab"], "entities": [1, 2, 3, 4, 5]}
        },
        "vocab-relation-name-int": {
            **header, "vocab": {**header["vocab"], "relations": [[5, 2]]}
        },
        # rel_roles that is not an object of relation ids
        **{f"vocab-rel-roles-{kind}": {**header, "vocab": {**header["vocab"], "rel_roles": roles}}
           for kind, roles in (("list", [[0, 1]]), ("string", "01"), ("number", 5))},
        # arities whose slots would not fit in memory, or not in a numpy array
        **{f"vocab-arity-1e{exp}": {
            **header, "vocab": {**header["vocab"], "relations": [["r0", 10**exp]]}
        } for exp in (9, 18)},
    }
    role_cases = {"rel-roles-id-7-of-2": [0, 7], "rel-roles-too-long": [0, 1, 0],
                  "rel-roles-id-negative": [0, -1], "rel-roles-string": "01",
                  "rel-roles-id-float": [0, 1.0], "rel-roles-id-bool": [False, True]}
    assert explicit_header["vocab"]["rel_roles"] == {"0": [0, 1]}
    bad_files = {name: (bad_header, payload) for name, bad_header in headers.items()}
    # a relation of arity 1 over a payload of exactly the size it would call for:
    # alpha/0 and basis_p/1 hold half the floats alpha/0 and basis_p/2 do
    bad_files["vocab-arity-one"] = (
        {**header, "vocab": {**header["vocab"], "relations": [["r0", 1]]}}, payload[8 * 6 :]
    )
    for name, roles in role_cases.items():
        vocab = {**explicit_header["vocab"], "rel_roles": {"0": roles}}
        bad_files[name] = ({**explicit_header, "vocab": vocab}, explicit_payload)
    bad_files["vocab-roles-int"] = (
        {**explicit_header, "vocab": {**explicit_header["vocab"], "roles": [0, 1]}},
        explicit_payload,
    )
    assert_data_error_and_export_exits_3(tmp_path, bad_files)


def write_older_layout(path, params, holdout):
    """Write `params` as checkpoints with a table of arrays were written.

    Their header also lists every slot's name, shape and byte offset, and
    spells a preset model's mode as ``"mode": "preset", "preset": <Kind>``.
    """
    config = {**params.cfg.to_dict(), "preset": None}
    if config["mode"].startswith("preset:"):
        config.update(mode="preset", preset=config["mode"].removeprefix("preset:"))
    entries, payload = [], b""
    for key in params.slots():
        array = params.data[key]
        entries.append(
            {"name": "/".join(str(part) for part in key), "shape": list(array.shape),
             "offset": len(payload)}
        )
        payload += array.astype("<f8").tobytes()
    header = {"config": config, "vocab": params.vocab.to_dict(), "holdout": holdout,
              "arrays": entries}
    write_checkpoint(path, header, payload)


@pytest.mark.parametrize("mode_str", ["latent", "extended", "explicit", "preset:QuatE"])
def test_older_layout_still_loads(tmp_path, mode_str):
    params = trained_mode_params(mode_str)
    path = tmp_path / "model.ramckpt"
    write_older_layout(path, params, {"valid_fraction": 0.5, "seed": 7})
    loaded, holdout = load_checkpoint(path)
    assert holdout == {"valid_fraction": 0.5, "seed": 7}
    assert loaded.cfg == params.cfg
    check_vocab_compatible(params.vocab, loaded.vocab)
    assert_same_arrays(params, loaded)


def test_header_without_holdout_still_loads(tmp_path):
    """A header in the layout before the holdout was recorded reads as the defaults."""
    vocab = make_vocab(5, (2, 3))
    params = randomized_params(ModelConfig(embed_dim=3, latent_size=2), vocab, seed=1)
    path = tmp_path / "model.ramckpt"
    save_checkpoint(path, params, {"valid_fraction": 0.5, "seed": 7})
    raw = path.read_bytes()
    header_end = 16 + struct.unpack("<Q", raw[8:16])[0]
    header = json.loads(raw[16:header_end])
    assert list(header) == ["config", "vocab", "holdout"]
    assert header["holdout"] == {"valid_fraction": 0.5, "seed": 7}
    del header["holdout"]
    header.update(n_entities=5, n_relations=2, max_arity=3, arities=[2, 3], rel_arity=[2, 3])
    write_checkpoint(path, header, raw[header_end:])
    loaded, holdout = load_checkpoint(path)
    assert holdout == {"valid_fraction": 0.2, "seed": 0}
    check_vocab_compatible(vocab, loaded.vocab)
    assert_same_arrays(params, loaded)


def test_holdout_that_would_not_load_is_not_saved(tmp_path):
    """load_dataset's second value names the files read, not the holdout:
    saving it raises the DataError loading would, and writes no file."""
    data = tmp_path / "data"
    data.mkdir()
    (data / "train.txt").write_text("r a b\nr b c\n")
    kb, info = cli.load_dataset(data)
    params = randomized_params(ModelConfig(embed_dim=3, latent_size=2), kb.vocab, seed=1)
    path = tmp_path / "model.ramckpt"
    with pytest.raises(DataError, match="holdout .* needs a valid_fraction"):
        save_checkpoint(path, params, info)
    assert not path.exists()


@pytest.mark.parametrize("mode_str", ["extended", "explicit"])
def test_exported_values_are_the_parameters_bit_for_bit(mode_str):
    params = trained_mode_params(mode_str)
    cfg, vocab = params.cfg, params.vocab

    def value_rows(text, labels):
        rows = list(csv.reader(io.StringIO(text)))[1:]
        return [row[labels:] for row in rows]

    def as_bytes(cells):
        return np.array([float(cell) for cell in cells]).tobytes()

    entity_rows = value_rows(export_entities_csv(params), 1)
    ent = params.data[("ent",)].reshape(vocab.n_entities, -1)
    assert [as_bytes(cells) for cells in entity_rows] == [row.tobytes() for row in ent]

    want_roles, want_patterns = [], []
    for rel, (_, a) in enumerate(vocab.relations):
        terms = relation_terms(params, [rel])
        want_roles += list(terms.role_emb[0].reshape(-1, cfg.embed_dim))
        width = a * cfg.multiplicity
        want_patterns += [(width, row) for row in terms.patterns[0].reshape(-1, width)]
    role_rows = value_rows(export_roles_csv(params), 5)
    assert [as_bytes(cells) for cells in role_rows] == [row.tobytes() for row in want_roles]
    pattern_rows = value_rows(export_patterns_csv(params), 5)
    assert len(pattern_rows) == len(want_patterns)
    for cells, (width, want) in zip(pattern_rows, want_patterns):
        assert cells[width:] == [""] * (len(cells) - width)  # padding to the widest arity
        assert as_bytes(cells[:width]) == want.tobytes()


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


def test_split_checksums_have_their_own_header_key(tmp_path):
    """The holdout stays load_dataset's arguments; a malformed sha256 entry is
    refused by saving (no file written) and by load_checksums, not by load_checkpoint."""
    vocab = make_vocab(5, (2, 3))
    params = randomized_params(ModelConfig(embed_dim=3, latent_size=2), vocab, seed=1)
    path = tmp_path / "model.ramckpt"
    sums = {"train": "ab12", "test": "cd34"}
    save_checkpoint(path, params, {"valid_fraction": 0.5, "seed": 7}, sha256=sums)
    raw = path.read_bytes()
    header_end = 16 + struct.unpack("<Q", raw[8:16])[0]
    header = json.loads(raw[16:header_end])
    assert list(header) == ["config", "vocab", "holdout", "sha256"]
    assert load_checkpoint(path)[1] == header["holdout"] == {"valid_fraction": 0.5, "seed": 7}
    assert load_checksums(path) == sums
    bad_path = tmp_path / "bad.ramckpt"
    for bad in ({"train": 1}, {"tests": "ab12"}, ["ab12"], "ab12"):
        with pytest.raises(DataError, match="sha256 .* needs a string per split"):
            save_checkpoint(bad_path, params, sha256=bad)
        assert not bad_path.exists()
        write_checkpoint(path, {**header, "sha256": bad}, raw[header_end:])
        with pytest.raises(DataError, match="sha256 .* needs a string per split"):
            load_checksums(path)
        assert_same_arrays(params, load_checkpoint(path)[0])
