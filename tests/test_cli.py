import hashlib
import json
import logging
import re

import numpy as np
import pytest

from ramkb import cli
from ramkb.checkpoint import load_checkpoint, load_checksums, save_checkpoint
from ramkb.errors import DataError
from ramkb.evaluation import evaluate

TRAIN = ["r1 a b c", "r1 b c d", "r2 a d", "r2 c b", "r2 d e", "r3 d a e b", "r1 e a b"]
VALID = ["r2 b a", "r1 c d e"]
TEST = ["r2 e c", "r1 a c d", "r3 a b c d"]
CONFIG = """# tiny latent model
embed_dim = 4
multiplicity = 2
latent_size = 2
batch_size = 4
max_epochs = 2
eval_every = 1
"""


def write_dataset(root):
    data = root / "data"
    data.mkdir()
    for split, lines in (("train", TRAIN), ("valid", VALID), ("test", TEST)):
        (data / f"{split}.txt").write_text("\n".join(lines) + "\n")
    config = root / "run.cfg"
    config.write_text(CONFIG)
    return data, config


def write_dataset_without_valid(root):
    """100 training and 20 test facts of arity 2 or 3 over 30 entities; no valid file."""
    rng = np.random.default_rng(0)
    data = root / "data"
    data.mkdir()
    for split, n_facts in (("train", 100), ("test", 20)):
        lines = [
            f"r{arity} " + " ".join(f"e{e}" for e in rng.choice(30, arity, replace=False))
            for arity in rng.integers(2, 4, n_facts)
        ]
        (data / f"{split}.txt").write_text("\n".join(lines) + "\n")
    config = root / "run.cfg"
    config.write_text(CONFIG)
    return data, config


def test_train_eval_export_round_trip(tmp_path):
    data, config = write_dataset(tmp_path)
    run = tmp_path / "run"
    argv = ["train", "--data-dir", str(data), "--out", str(run), "--config", str(config),
            "--seed", "3"]
    assert cli.main(argv) == 0
    for name in ("model.ramckpt", "trace.csv", "manifest.json"):
        assert (run / name).is_file(), name
    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest["epochs_run"] == 2

    ckpt = str(run / "model.ramckpt")
    assert cli.main(["eval", "--data-dir", str(data), "--checkpoint", ckpt,
                     "--out", str(tmp_path / "eval")]) == 0
    report = json.loads((tmp_path / "eval" / "eval_test.json").read_text())
    assert report["n_queries"] == 2 + 3 + 4
    assert (tmp_path / "eval" / "eval_test_per_arity.csv").is_file()

    assert cli.main(["export", "--checkpoint", ckpt, "--out", str(tmp_path / "export")]) == 0
    for kind in ("entity", "role", "pattern"):
        assert (tmp_path / "export" / f"{kind}.csv").is_file(), kind


def test_eval_rebuilds_the_split_train_held_out(tmp_path):
    data, config = write_dataset_without_valid(tmp_path)
    run = tmp_path / "run"
    assert cli.main(["train", "--data-dir", str(data), "--out", str(run),
                     "--config", str(config), "--seed", "3"]) == 0
    ckpt = run / "model.ramckpt"
    params, holdout = load_checkpoint(ckpt)
    assert holdout == {"valid_fraction": 0.2, "seed": 3}
    kb, info = cli.load_dataset(data, **holdout)
    assert load_checksums(ckpt) == info["sha256"]
    for split in ("test", "valid"):
        out = tmp_path / f"eval-{split}"
        assert cli.main(["eval", "--data-dir", str(data), "--checkpoint", str(ckpt),
                         "--split", split, "--out", str(out)]) == 0
        report = json.loads((out / f"eval_{split}.json").read_text())
        assert report["mrr"] == evaluate(params, kb, split).mrr


def cli_warnings(caplog):
    return [rec.getMessage() for rec in caplog.records
            if rec.name == "ramkb.cli" and rec.levelno == logging.WARNING]


def test_eval_warns_once_per_split_whose_file_changed(tmp_path, caplog):
    """train records each split file's sha256; eval names every split whose file differs."""
    data, config = write_dataset(tmp_path)
    run = tmp_path / "run"
    assert cli.main(["train", "--data-dir", str(data), "--out", str(run),
                     "--config", str(config), "--seed", "3"]) == 0
    ckpt = str(run / "model.ramckpt")
    _, info = cli.load_dataset(data)
    assert load_checksums(ckpt) == info["sha256"]
    with caplog.at_level(logging.WARNING, logger="ramkb.cli"):
        assert cli.main(["eval", "--data-dir", str(data), "--checkpoint", ckpt]) == 0
    assert cli_warnings(caplog) == []
    # the same facts in another order: the vocabulary is unchanged, the files are not
    for split, lines in (("valid", VALID), ("test", TEST)):
        (data / f"{split}.txt").write_text("\n".join(lines[::-1]) + "\n")
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="ramkb.cli"):
        assert cli.main(["eval", "--data-dir", str(data), "--checkpoint", ckpt]) == 0
    warned = cli_warnings(caplog)
    assert len(warned) == 2
    assert [w.split()[1] for w in warned] == ["valid", "test"]
    assert info["sha256"]["test"] in warned[1]


def test_eval_of_checkpoint_without_checksums_is_silent(tmp_path, caplog):
    """A checkpoint saved before the checksums were recorded evaluates without a warning."""
    data, config = write_dataset(tmp_path)
    run = tmp_path / "run"
    assert cli.main(["train", "--data-dir", str(data), "--out", str(run),
                     "--config", str(config), "--seed", "3"]) == 0
    ckpt = run / "model.ramckpt"
    params, holdout = load_checkpoint(ckpt)
    save_checkpoint(ckpt, params, holdout)
    assert load_checksums(ckpt) is None and load_checkpoint(ckpt)[1] == holdout
    (data / "test.txt").write_text("\n".join(TEST[::-1]) + "\n")
    with caplog.at_level(logging.WARNING, logger="ramkb.cli"):
        assert cli.main(["eval", "--data-dir", str(data), "--checkpoint", str(ckpt)]) == 0
    assert cli_warnings(caplog) == []


@pytest.mark.parametrize("argv", [
    ["eval", "--data-dir", "d", "--checkpoint", "c", "--seed", "3"],
    ["eval", "--data-dir", "d", "--checkpoint", "c", "--valid-fraction", "0.2"],
    ["export", "--checkpoint", "c", "--out", "o", "--seed", "1"],
    ["express", "--spec", "s", "--seed", "1"],
    ["gradcheck", "--out", "x"],
    ["equiv", "--kind", "DistMult", "--out", "x"],
    ["gradcheck", "--trials", "0"],
    ["equiv", "--kind", "DistMult", "--trials", "0"],
    ["equiv", "--kind", "DistMult", "--trials", "-3"],
    ["train", "--data-dir", "d", "--out", "o", "--ratio", "0.5"],
    ["train", "--data-dir", "d", "--out", "o", "--arity-filter", "2"],
    ["gradcheck", "--seed", "-1"],
    ["equiv", "--kind", "DistMult", "--seed", "-1"],
    ["subset", "--data-dir", "d", "--out", "o", "--ratio", "0.5", "--seed", "-1"],
    ["gradcheck", "--tol", "nan"],
    ["gradcheck", "--tol", "0"],
    ["gradcheck", "--tol", "-1"],
    ["gradcheck", "--tol", "inf"],
], ids=["eval-seed", "eval-valid-fraction", "export-seed", "express-seed",
        "gradcheck-out", "equiv-out", "gradcheck-trials-0", "equiv-trials-0",
        "equiv-trials-negative", "train-ratio", "train-arity-filter",
        "gradcheck-seed-negative", "equiv-seed-negative", "subset-seed-negative",
        "gradcheck-tol-nan", "gradcheck-tol-0", "gradcheck-tol-negative", "gradcheck-tol-inf"])
def test_unread_flags_and_checks_of_no_trials_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "PASS" not in capsys.readouterr().out


def test_threads_is_not_an_option(tmp_path):
    data, config = write_dataset(tmp_path)
    config.write_text(CONFIG + "threads = 2\n")
    argv = ["train", "--data-dir", str(data), "--out", str(tmp_path / "run"),
            "--config", str(config)]
    assert cli.main(argv) == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(argv[:-2] + ["--threads", "2"])
    assert exc.value.code == 2


def test_raw_mode_is_rejected_before_anything_is_written(tmp_path):
    data, config = write_dataset(tmp_path)
    run = tmp_path / "run"
    argv = ["train", "--data-dir", str(data), "--out", str(run), "--config", str(config),
            "--mode", "raw"]
    assert cli.main(argv) == 2
    assert not (run / "manifest.json").exists()


@pytest.mark.parametrize("extra_config,extra_argv", [
    ("negatives = abc\n", []),
    ("eval_every = 0\n", []),
    ("learning_rate = nan\n", []),
    ("learning_rate = inf\n", []),
    ("", ["--valid-fraction", "2"]),
    ("", ["--valid-fraction", "-1"]),
    ("embed_dim = 1000000000000\n", []),
], ids=["config-negatives", "config-eval-every-0", "config-learning-rate-nan",
        "config-learning-rate-inf", "valid-fraction-2", "valid-fraction-negative",
        "config-embed-dim-too-large"])
def test_malformed_value_exits_2_before_anything_is_written(tmp_path, capsys, extra_config,
                                                            extra_argv):
    data, config = write_dataset(tmp_path)
    config.write_text(CONFIG + extra_config)
    run = tmp_path / "run"
    argv = ["train", "--data-dir", str(data), "--out", str(run), "--config", str(config)]
    assert cli.main(argv + extra_argv) == 2
    assert not (run / "manifest.json").exists()
    if "embed_dim" in extra_config:  # 5 entities, multiplicity 2
        assert "slot, ('ent',), has shape (5, 2, 1000000000000)" in capsys.readouterr().err


def test_preset_field_beside_mode_exits_2_before_anything_is_written(tmp_path):
    """A preset is named only by `mode = preset:<Kind>`; `preset` is no config key."""
    data = tmp_path / "data"
    data.mkdir()
    (data / "train.txt").write_text("r a b\nr b c\nr c a\n")
    config = tmp_path / "run.cfg"
    config.write_text("mode = preset:QuatE\npreset = DistMult\nmax_epochs = 1\n")
    run = tmp_path / "run"
    argv = ["train", "--data-dir", str(data), "--out", str(run), "--config", str(config)]
    assert cli.main(argv) == 2
    assert not run.exists()


def test_preset_on_ternary_data_exits_2_before_anything_is_written(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    (data / "train.txt").write_text("r a b\nr b c\nq a b c\nr c a\n")
    run = tmp_path / "run"
    argv = ["train", "--data-dir", str(data), "--out", str(run), "--mode", "preset:QuatE"]
    assert cli.main(argv) == 2
    assert not run.exists()


@pytest.mark.parametrize("roles,message", [
    (False, "explicit mode needs a role-annotated dataset"),
    (True, "relation 'r' lacks role annotations"),
], ids=["no-roles", "some-roles"])
def test_explicit_mode_on_data_without_roles_exits_2_before_anything_is_written(
        tmp_path, capsys, roles, message):
    data = tmp_path / "data"
    data.mkdir()
    (data / "train.txt").write_text("r a b\nr b c\nr c a\n")
    if roles:  # role-annotated test facts of another relation
        (data / "test.jsonl").write_text('{"actor": "a", "movie": "b"}\n')
    run = tmp_path / "run"
    argv = ["train", "--data-dir", str(data), "--out", str(run), "--mode", "explicit"]
    assert cli.main(argv) == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not run.exists()


def test_eval_of_non_finite_parameters_exits_4(tmp_path, capsys):
    data, config = write_dataset(tmp_path)
    run = tmp_path / "run"
    assert cli.main(["train", "--data-dir", str(data), "--out", str(run),
                     "--config", str(config), "--seed", "3"]) == 0
    ckpt = run / "model.ramckpt"
    params, holdout = load_checkpoint(ckpt)
    params.data[("ent",)][2, 0, 1] = np.nan
    save_checkpoint(ckpt, params, holdout)
    capsys.readouterr()
    assert cli.main(["eval", "--data-dir", str(data), "--checkpoint", str(ckpt)]) == 4
    assert params.vocab.entities[2] in capsys.readouterr().err


@pytest.mark.parametrize("extra_argv", [
    ["--ratio", "2"],
    ["--ratio", "-1"],
    ["--ratio", "nan"],
    ["--arity-filter", "abc"],
], ids=["ratio-2", "ratio-negative", "ratio-nan", "arity-filter"])
def test_malformed_subset_value_exits_2_before_anything_is_written(tmp_path, extra_argv):
    data, _ = write_dataset(tmp_path)
    out = tmp_path / "sub"
    assert cli.main(["subset", "--data-dir", str(data), "--out", str(out)] + extra_argv) == 2
    assert not out.exists()


def test_train_on_a_subset_evaluates_the_split_it_trained_on(tmp_path):
    data, config = write_dataset_without_valid(tmp_path)
    sub, run = tmp_path / "sub", tmp_path / "run"
    assert cli.main(["subset", "--data-dir", str(data), "--out", str(sub),
                     "--ratio", "0.5", "--seed", "3"]) == 0
    assert cli.main(["train", "--data-dir", str(sub), "--out", str(run),
                     "--config", str(config), "--seed", "3"]) == 0
    manifest = json.loads((run / "manifest.json").read_text())
    out = tmp_path / "eval"
    assert cli.main(["eval", "--data-dir", str(sub), "--checkpoint", str(run / "model.ramckpt"),
                     "--split", "valid", "--out", str(out)]) == 0
    report = json.loads((out / "eval_valid.json").read_text())
    assert report["mrr"] == manifest["best_valid_mrr"]


def test_split_file_is_read_once_and_hashed_as_parsed(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    content = b"r a b\r\nr b c\r\n"
    (data / "train.txt").write_bytes(content)
    kb, info = cli.load_dataset(data, valid_fraction=0.0)
    names = [[kb.vocab.entities[e] for e in f.entities] for f in kb.train]
    assert names == [["a", "b"], ["b", "c"]]
    assert info["sha256"] == {"train": hashlib.sha256(content).hexdigest()}


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
@pytest.mark.parametrize("command", ["train", "eval", "export", "subset", "express"])
def test_out_that_cannot_be_a_directory_exits_2_before_anything_is_written(
        tmp_path, capsys, command, below):
    data, config = write_dataset(tmp_path)
    ckpt = tmp_path / "run" / "model.ramckpt"
    if command in ("eval", "export"):
        assert cli.main(["train", "--data-dir", str(data), "--out", str(ckpt.parent),
                         "--config", str(config)]) == 0
    spec = tmp_path / "truth.txt"
    spec.write_text("r a b\n")
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    out = blocker / "out" if below else blocker
    argv = {
        "train": ["train", "--data-dir", str(data), "--config", str(config)],
        "eval": ["eval", "--data-dir", str(data), "--checkpoint", str(ckpt)],
        "export": ["export", "--checkpoint", str(ckpt)],
        "subset": ["subset", "--data-dir", str(data)],
        "express": ["express", "--spec", str(spec)],
    }[command]
    before = {path: path.read_bytes() if path.is_file() else None
              for path in tmp_path.rglob("*")}
    capsys.readouterr()
    assert cli.main(argv + ["--out", str(out)]) == 2
    assert f"config error: cannot make output directory {out}" in capsys.readouterr().err
    assert {path: path.read_bytes() if path.is_file() else None
            for path in tmp_path.rglob("*")} == before


def _not_utf8(data):
    path = data / "train.txt"
    path.write_bytes(b"r1 a b\n\xff\xfe c d\n")
    return path, "not UTF-8 text"


def _malformed_line(data):
    path = data / "valid.txt"
    path.write_text("r2 b a\nr1 c\n")
    return path, "line 2: expected relation plus >= 2 entities"


def _directory(data):
    path = data / "train.txt"
    path.unlink()
    path.mkdir()
    return path, "is a directory"


def _one_role(data):
    (data / "test.txt").unlink()
    path = data / "test.jsonl"
    path.write_text('{"actor": "p1", "movie": "m1"}\n{"actor": "p2"}\n')
    return path, "line 2: expected >= 2 roles, got 1"


@pytest.mark.parametrize("command", ["subset", "train"])
@pytest.mark.parametrize("spoil", [_not_utf8, _malformed_line, _directory, _one_role])
def test_unreadable_split_file_exits_3_naming_it(tmp_path, capsys, command, spoil):
    # three split files, one of them spoiled: the message says which
    data, _ = write_dataset(tmp_path)
    bad, reason = spoil(data)
    with pytest.raises(DataError, match=re.escape(f"{bad}: {reason}")):
        cli.load_dataset(data)
    assert cli.main([command, "--data-dir", str(data), "--out", str(tmp_path / "out")]) == 3
    assert f"{bad}: {reason}" in capsys.readouterr().err


@pytest.mark.parametrize("command,spoil,code,reason", [
    ("eval", "directory", 3, "is a directory"),
    ("export", "directory", 3, "is a directory"),
    ("express", "directory", 3, "is a directory"),
    ("train", "directory", 2, "is a directory"),
    ("train", "not-utf8", 2, "not UTF-8 text (byte 15)"),
    ("eval", "missing", 3, "No such file or directory"),
], ids=["eval-checkpoint-directory", "export-checkpoint-directory", "express-spec-directory",
        "train-config-directory", "train-config-not-utf8", "eval-checkpoint-missing"])
def test_unreadable_input_file_exits_with_its_code_naming_it(tmp_path, capsys, command, spoil,
                                                             code, reason):
    # the checkpoint, spec or config file: the command's one input besides the data
    data, _ = write_dataset(tmp_path)
    bad, out = tmp_path / "input", tmp_path / "out"
    if spoil == "directory":
        bad.mkdir()
    elif spoil == "not-utf8":
        bad.write_bytes(b"max_epochs = 1\n\xff\xfe\n")
    argv = {
        "eval": ["eval", "--data-dir", str(data), "--checkpoint", str(bad)],
        "export": ["export", "--checkpoint", str(bad)],
        "express": ["express", "--spec", str(bad)],
        "train": ["train", "--data-dir", str(data), "--config", str(bad)],
    }[command]
    assert cli.main(argv + ["--out", str(out)]) == code
    assert f"{bad}: {reason}" in capsys.readouterr().err
    assert not out.exists()


def test_subset_in_place_is_what_load_dataset_reads(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    (data / "train.txt").write_text("r a b\nr b c\nq a b c\nr c a\nq b c d\nq c d a\n")
    assert cli.main(["subset", "--data-dir", str(data), "--out", str(data),
                     "--arity-filter", "3"]) == 0
    kb, _ = cli.load_dataset(data, valid_fraction=0.0)
    assert len(kb.train) == 3 and kb.vocab.arities == (3,)


def test_binary_subset_of_mixed_data_trains_a_preset(tmp_path, capsys):
    """The filter applies to every split, so no n-ary relation is left for
    the preset mode to refuse."""
    data, config = write_dataset(tmp_path)
    sub, run = tmp_path / "sub", tmp_path / "run"
    assert cli.main(["subset", "--data-dir", str(data), "--out", str(sub),
                     "--arity-filter", "2"]) == 0
    kb, _ = cli.load_dataset(sub, valid_fraction=0.0)
    assert kb.vocab.arities == (2,)
    assert [len(kb.split(s)) for s in ("train", "valid", "test")] == [3, 1, 1]
    capsys.readouterr()
    assert cli.main(["train", "--data-dir", str(sub), "--out", str(run), "--config", str(config),
                     "--mode", "preset:ComplEx", "--seed", "3"]) == 0, capsys.readouterr().err
    assert cli.main(["eval", "--data-dir", str(sub), "--checkpoint",
                     str(run / "model.ramckpt")]) == 0


def test_subset_that_leaves_no_test_fact_exits_3_naming_the_filter(tmp_path, capsys):
    data, _ = write_dataset(tmp_path)
    (data / "test.txt").write_text("r2 e c\nr3 a b c d\n")
    out = tmp_path / "sub"
    capsys.readouterr()
    assert cli.main(["subset", "--data-dir", str(data), "--out", str(out),
                     "--arity-filter", "3"]) == 3
    assert "no test fact passes the arity filter '3'" in capsys.readouterr().err
    assert not out.exists()


def test_subset_that_a_stale_split_file_would_shadow_exits_2_before_writing(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    (data / "train.jsonl").write_text('{"actor": "a", "movie": "b"}\n{"actor": "c", "movie": "b"}\n')
    out = tmp_path / "sub"
    out.mkdir()
    (out / "train.txt").write_text("r a b\n")
    assert cli.main(["subset", "--data-dir", str(data), "--out", str(out)]) == 2
    assert sorted(p.name for p in out.iterdir()) == ["train.txt"]


def test_subset_of_role_annotated_data_trains_explicit_roles(tmp_path):
    rng = np.random.default_rng(1)
    data = tmp_path / "data"
    data.mkdir()
    for split, n_facts in (("train", 60), ("test", 10)):
        lines = []
        for kind in rng.integers(0, 2, n_facts):
            fact = {"actor": f"p {rng.integers(12)}", "movie": f"m{rng.integers(8)}"}
            if kind:
                fact["award"] = f"a{rng.integers(3)}"
            lines.append(json.dumps(fact))
        (data / f"{split}.jsonl").write_text("\n".join(lines) + "\n")
    config = tmp_path / "run.cfg"
    config.write_text(CONFIG + "mode = explicit\nnegatives = 3\n")
    sub, run = tmp_path / "sub", tmp_path / "run"
    assert cli.main(["subset", "--data-dir", str(data), "--out", str(sub),
                     "--ratio", "0.5", "--seed", "3"]) == 0
    assert sorted(p.name for p in sub.glob("*.jsonl")) == [
        "test.jsonl", "train.jsonl", "valid.jsonl"]

    def roles_by_relation(data_dir):
        vocab = cli.load_dataset(data_dir, valid_fraction=0.0)[0].vocab
        return {vocab.relations[r]: [vocab.roles[g] for g in group]
                for r, group in vocab.rel_roles.items()}

    assert roles_by_relation(sub) == roles_by_relation(data) == {
        ("actor|movie", 2): ["actor", "movie"],
        ("actor|award|movie", 3): ["actor", "award", "movie"],
    }
    assert cli.main(["train", "--data-dir", str(sub), "--out", str(run),
                     "--config", str(config), "--seed", "3"]) == 0
    assert cli.main(["eval", "--data-dir", str(sub), "--checkpoint",
                     str(run / "model.ramckpt")]) == 0
