import json

import numpy as np
import pytest

from ramkb import cli
from ramkb.checkpoint import load_checkpoint, save_checkpoint
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
    kb, _ = cli.load_dataset(data, valid_fraction=0.2, seed=3)
    for split in ("test", "valid"):
        out = tmp_path / f"eval-{split}"
        assert cli.main(["eval", "--data-dir", str(data), "--checkpoint", str(ckpt),
                         "--split", split, "--out", str(out)]) == 0
        report = json.loads((out / f"eval_{split}.json").read_text())
        assert report["mrr"] == evaluate(params, kb, split).mrr


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
], ids=["eval-seed", "eval-valid-fraction", "export-seed", "express-seed",
        "gradcheck-out", "equiv-out", "gradcheck-trials-0", "equiv-trials-0",
        "equiv-trials-negative", "train-ratio", "train-arity-filter",
        "gradcheck-seed-negative", "equiv-seed-negative", "subset-seed-negative"])
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
    ("", ["--valid-fraction", "2"]),
    ("", ["--valid-fraction", "-1"]),
], ids=["config-negatives", "config-eval-every-0", "valid-fraction-2", "valid-fraction-negative"])
def test_malformed_value_exits_2_before_anything_is_written(tmp_path, extra_config, extra_argv):
    data, config = write_dataset(tmp_path)
    config.write_text(CONFIG + extra_config)
    run = tmp_path / "run"
    argv = ["train", "--data-dir", str(data), "--out", str(run), "--config", str(config)]
    assert cli.main(argv + extra_argv) == 2
    assert not (run / "manifest.json").exists()


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
