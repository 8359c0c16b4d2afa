import hashlib
import json
import logging
import re
from pathlib import Path

import numpy as np
import pytest

from ramkb import cli
from ramkb.checkpoint import load_checkpoint, save_checkpoint
from ramkb.errors import DataError
from ramkb.evaluation import evaluate
from ramkb.mathcore import make_rng

from conftest import fact_pairs
from oracles import loop_build_kb, loop_parse_tabular

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
    params, holdout, checksums = load_checkpoint(ckpt)
    assert holdout == {"valid_fraction": 0.2, "seed": 3}
    kb, info = cli.load_dataset(data, **holdout)
    assert checksums == info["sha256"]
    for split in ("test", "valid"):
        out = tmp_path / f"eval-{split}"
        assert cli.main(["eval", "--data-dir", str(data), "--checkpoint", str(ckpt),
                         "--split", split, "--out", str(out)]) == 0
        report = json.loads((out / f"eval_{split}.json").read_text())
        assert report["mrr"] == evaluate(params, kb, split).mrr


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_load_dataset_holds_out_the_facts_the_per_fact_loop_does(tmp_path, seed):
    """The held-out split is today's list-comprehension hold-out, numbered
    over the kept training facts, the held-out ones and the test split."""
    data, _ = write_dataset_without_valid(tmp_path)
    train, test = (loop_parse_tabular((data / f"{split}.txt").read_text())
                   for split in ("train", "test"))
    order = make_rng(seed, 3).permutation(len(train))
    hold = set(int(i) for i in order[: int(0.2 * len(train))])
    vocab, facts = loop_build_kb([f for i, f in enumerate(train) if i not in hold],
                                 [f for i, f in enumerate(train) if i in hold], test)
    kb, _ = cli.load_dataset(data, valid_fraction=0.2, seed=seed)
    assert kb.vocab.to_dict() == vocab.to_dict()
    assert [fact_pairs(kb.split(split)) for split in ("train", "valid", "test")] == facts


def test_eval_reads_the_checkpoint_file_once(tmp_path, monkeypatch):
    data, config = write_dataset(tmp_path)
    run = tmp_path / "run"
    assert cli.main(["train", "--data-dir", str(data), "--out", str(run),
                     "--config", str(config), "--seed", "3"]) == 0
    ckpt = run / "model.ramckpt"
    read, read_bytes = [], Path.read_bytes

    def recording(path):
        read.append(path)
        return read_bytes(path)

    monkeypatch.setattr(Path, "read_bytes", recording)
    assert cli.main(["eval", "--data-dir", str(data), "--checkpoint", str(ckpt)]) == 0
    assert read.count(ckpt) == 1
    assert sorted(path.name for path in read) == ["model.ramckpt", "test.txt", "train.txt",
                                                  "valid.txt"]


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
    assert load_checkpoint(ckpt)[2] == info["sha256"]
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
    params, holdout, _ = load_checkpoint(ckpt)
    save_checkpoint(ckpt, params, holdout)
    assert load_checkpoint(ckpt)[1:] == (holdout, None)
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
    ("max_epochs 2\n", []),
], ids=["config-negatives", "config-eval-every-0", "config-learning-rate-nan",
        "config-learning-rate-inf", "valid-fraction-2", "valid-fraction-negative",
        "config-embed-dim-too-large", "config-line-without-equals"])
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
    if "max_epochs 2" in extra_config:  # the line after CONFIG's seven
        assert f"{config}:8: expected key=value, got 'max_epochs 2'" in capsys.readouterr().err


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


@pytest.mark.parametrize("key, fixed", [
    ("multiplicity", 4), ("role_multiplicity", 2), ("patterns_per_role", 4),
])
def test_preset_dimension_stated_otherwise_exits_2_naming_the_fixed_value(tmp_path, capsys, key,
                                                                        fixed):
    data = tmp_path / "data"
    data.mkdir()
    (data / "train.txt").write_text("r a b\nr b c\nr c a\n")
    config = tmp_path / "run.cfg"
    config.write_text(f"mode = preset:QuatE\n{key} = 7\nmax_epochs = 1\n")
    run = tmp_path / "run"
    argv = ["train", "--data-dir", str(data), "--out", str(run), "--config", str(config)]
    assert cli.main(argv) == 2
    assert (f"config error: {key} = 7 does not fit mode preset:QuatE, which fixes it at {fixed}"
            in capsys.readouterr().err)
    assert not run.exists()
    # the value the preset fixes may be stated
    model_cfg, _ = cli.load_configs(None, {"mode": "preset:QuatE", key: str(fixed)})
    assert getattr(model_cfg, key) == fixed


def test_unknown_ram_log_level_exits_2_naming_it(monkeypatch, capsys):
    monkeypatch.setenv("RAM_LOG", "verbose")
    assert cli.main(["gradcheck", "--trials", "1"]) == 2
    err = capsys.readouterr().err
    assert ("config error: RAM_LOG='verbose' is not a log level; expected one of DEBUG, INFO, "
            "WARNING, ERROR, CRITICAL") in err
    monkeypatch.setenv("RAM_LOG", "error")  # a level's name in any case
    assert cli.main(["gradcheck", "--trials", "1"]) == 0


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
    params, holdout, _ = load_checkpoint(ckpt)
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
    names = [[kb.vocab.entities[e] for e in ents] for _, ents in fact_pairs(kb.train)]
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


def _not_an_object(data):
    (data / "test.txt").unlink()
    path = data / "test.jsonl"
    # line 2 is blank and skipped, so line 3 is the first that is not an object
    path.write_text('{"actor": "p1", "movie": "m1"}\n\n["p2", "m1"]\n')
    return path, "line 3: expected a JSON object per line"


@pytest.mark.parametrize("command", ["subset", "train"])
@pytest.mark.parametrize("spoil", [_not_utf8, _malformed_line, _directory, _one_role,
                                   _not_an_object])
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


@pytest.mark.parametrize("command", ["subset", "train"])
@pytest.mark.parametrize("case", ["missing", "no-train"])
def test_data_dir_without_a_train_split_exits_3_naming_it(tmp_path, capsys, command, case):
    data, _ = write_dataset(tmp_path)
    if case == "missing":
        data = tmp_path / "absent"
        message = f"data directory not found: {data}"
    else:
        (data / "train.txt").unlink()
        message = f"no train split found under {data}"
    out = tmp_path / "out"
    assert cli.main([command, "--data-dir", str(data), "--out", str(out)]) == 3
    assert f"data error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_subset_arity_bounds_keep_their_arities_in_every_split(tmp_path):
    data, _ = write_dataset(tmp_path)  # arities 2, 3 and 4

    def facts_by_split(data_dir):
        kb, _ = cli.load_dataset(data_dir, valid_fraction=0.0)
        vocab = kb.vocab
        return {split: sorted((vocab.relations[rel][0], tuple(vocab.entities[e] for e in ents))
                              for rel, ents in fact_pairs(kb.split(split)))
                for split in ("train", "valid", "test")}

    every = facts_by_split(data)
    for spec, keep in ((">=3", lambda arity: arity >= 3), ("<=2", lambda arity: arity == 2)):
        sub = tmp_path / f"sub{spec[0]}"
        assert cli.main(["subset", "--data-dir", str(data), "--out", str(sub),
                         "--arity-filter", spec]) == 0
        want = {split: [fact for fact in facts if keep(len(fact[1]))]
                for split, facts in every.items()}
        assert all(want.values()), spec  # the filter leaves a fact in every split
        assert facts_by_split(sub) == want, spec
    out = tmp_path / "bad"
    assert cli.main(["subset", "--data-dir", str(data), "--out", str(out),
                     "--arity-filter", ">=x"]) == 2
    assert not out.exists()


@pytest.mark.parametrize("kind", ["DistMult", "SimplE", "ComplEx", "QuatE"])
def test_equiv_passes_for_every_preset_kind(capsys, kind):
    assert cli.main(["equiv", "--kind", kind]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"{kind}: 200 trials, ")
    assert out.splitlines()[-1] == "PASS"


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


def test_subset_stats_describe_the_subset_as_it_reads_back(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    (data / "train.txt").write_text("r a b\nr b c\nt a b c\nt c d e\n")
    (data / "test.txt").write_text("t a b d\n")
    out = tmp_path / "sub"
    assert cli.main(["subset", "--data-dir", str(data), "--out", str(out),
                     "--arity-filter", ">=3"]) == 0
    stats = json.loads((out / "stats.json").read_text())
    assert stats == cli.load_dataset(out, valid_fraction=0.0)[0].stats()
    assert (stats["n_relations"], stats["arities"], stats["relations_outside_train"]) == (1, [3], 0)


def test_subset_of_a_name_holding_a_line_separator_reads_back(tmp_path):
    """A JSON string may hold U+2028 raw, and ``ram subset`` writes it raw;
    it ends no line, so the subset of the subset holds the same facts."""
    data = tmp_path / "data"
    data.mkdir()
    (data / "train.jsonl").write_text('{"agent": "a", "target": "x\\u2028y"}\n'
                                      '{"agent": "b", "target": "x"}\n')
    first, second = tmp_path / "sub1", tmp_path / "sub2"
    assert cli.main(["subset", "--data-dir", str(data), "--out", str(first)]) == 0
    assert "x\u2028y" in (first / "train.jsonl").read_text(encoding="utf-8")
    assert cli.main(["subset", "--data-dir", str(first), "--out", str(second)]) == 0
    kbs = [cli.load_dataset(d, valid_fraction=0.0)[0] for d in (data, first, second)]
    assert "x\u2028y" in kbs[0].vocab.entities
    for kb in kbs[1:]:
        assert kb.vocab.to_dict() == kbs[0].vocab.to_dict()
        assert kb.train == kbs[0].train


def test_a_raw_next_line_character_inside_a_json_string_is_part_of_its_line(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    (data / "train.jsonl").write_text('{"agent": "a", "target": "x\x85y"}\n'
                                      '{"agent": "b", "target": "x"}\n', encoding="utf-8")
    kb, _ = cli.load_dataset(data, valid_fraction=0.0)
    assert len(kb.train) == 2 and "x\x85y" in kb.vocab.entities
    assert cli.main(["subset", "--data-dir", str(data), "--out", str(tmp_path / "sub")]) == 0


BOM = b"\xef\xbb\xbf"


@pytest.mark.parametrize("suffix,text", [
    (".txt", "r0 a b\nr0 b c\nr1 a b c\n"),
    (".jsonl", '{"actor": "p1", "movie": "m1"}\n{"actor": "p2", "movie": "m1"}\n'),
], ids=["tabular", "role-json"])
def test_split_with_a_byte_order_mark_loads_as_its_twin_without_one(tmp_path, suffix, text):
    kbs = {}
    for name, head in (("plain", b""), ("bom", BOM)):
        data = tmp_path / name
        data.mkdir()
        content = head + text.encode("utf-8")
        (data / f"train{suffix}").write_bytes(content)
        kb, info = cli.load_dataset(data, valid_fraction=0.0)
        assert info["sha256"] == {"train": hashlib.sha256(content).hexdigest()}
        kbs[name] = kb
    assert kbs["bom"].vocab.to_dict() == kbs["plain"].vocab.to_dict()
    assert kbs["bom"].train == kbs["plain"].train


def test_config_with_a_byte_order_mark_reads_as_its_twin_without_one(tmp_path, capsys):
    plain, bom = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
    plain.write_text(CONFIG)
    bom.write_bytes(BOM + CONFIG.encode("utf-8"))
    assert cli.load_configs(bom, {}) == cli.load_configs(plain, {})
    # the offset of a bad byte is still its offset in the file, the mark included
    bom.write_bytes(BOM + b"max_epochs = 1\n\xff\n")
    data, _ = write_dataset(tmp_path)
    assert cli.main(["train", "--data-dir", str(data), "--config", str(bom),
                     "--out", str(tmp_path / "out")]) == 2
    assert f"{bom}: not UTF-8 text (byte 18)" in capsys.readouterr().err
