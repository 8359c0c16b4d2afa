import json

import pytest

from ramkb import cli

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
    ("", ["--arity-filter", "abc"]),
], ids=["config-negatives", "arity-filter"])
def test_malformed_value_exits_2_before_anything_is_written(tmp_path, extra_config, extra_argv):
    data, config = write_dataset(tmp_path)
    config.write_text(CONFIG + extra_config)
    run = tmp_path / "run"
    argv = ["train", "--data-dir", str(data), "--out", str(run), "--config", str(config)]
    assert cli.main(argv + extra_argv) == 2
    assert not (run / "manifest.json").exists()
