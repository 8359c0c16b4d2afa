"""Command-line entry point.

Subcommands: train, eval, gradcheck, equiv, express, export, subset. Every
command that scores facts builds its contraction kernels with
``engine.forward_group``. ``eval`` ranks the kernels directly. ``train``
scores them with an ``engine`` candidate scorer, as do ``equiv`` (through
``engine.score``) and ``express`` (through ``expressive.verify_separation``).
A data directory holds ``train``, ``valid`` and ``test`` splits in one of the
two distribution formats, chosen by suffix: tabular lines (``.txt``,
``.tsv``) or role-annotated JSON lines (``.jsonl``, ``.json``).
``train`` records in the checkpoint the valid fraction and seed it split
the data with; ``eval`` rebuilds the same splits from them. To train on a
subset of a dataset, write it with ``subset``, which writes each split in
one of those two formats, and then ``train`` on the subset's directory, so
that ``eval`` on that directory sees the very facts ``train`` did.
``express`` reads its ground truth from one split file in either format;
a fact listed twice is one true fact. An ``--out`` that cannot be made a
directory is a configuration error.
Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric abort.
The RAM_LOG environment variable sets the log level.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path

from . import checkpoint as ckpt
from .engine import score
from .errors import ConfigError, DataError, NumericError
from .evaluation import evaluate
from .expressive import construct, verify_separation
from .gradcheck import run_gradcheck
from .kb import (
    KnowledgeBase,
    RawFact,
    build_kb,
    export_split,
    parse_role_json,
    parse_tabular,
    subset_by_arity,
)
from .mathcore import make_rng
from .model import ModelConfig, ModelParams, relation_terms
from .presets import PRESET_KINDS, reference_score
from .training import TrainConfig, train, write_trace_csv

log = logging.getLogger("ramkb.cli")


def _read_config_file(path: Path) -> dict[str, str]:
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    values: dict[str, str] = {}
    for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{line_no}: expected key=value, got {line!r}")
        key, value = stripped.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def _coerce(key: str, field_type: str, value: str):
    """Parse a config value by its field type; `negatives` is "full" or an integer."""
    try:
        if field_type == "int" or (key == "negatives" and value != "full"):
            return int(value)
        if field_type == "float":
            return float(value)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {value!r}") from exc
    return value


def load_configs(config_path: Path | None, overrides: dict) -> tuple[ModelConfig, TrainConfig]:
    """Build training configs from a key=value file plus CLI overrides.

    Raw mode is rejected: it holds the expressiveness construction's fixed
    values and has no gradients.
    """
    raw = _read_config_file(config_path) if config_path else {}
    raw.update({k: v for k, v in overrides.items() if v is not None})
    model_fields = {f.name: f for f in fields(ModelConfig)}
    train_fields = {f.name: f for f in fields(TrainConfig)}
    model_kwargs: dict = {}
    train_kwargs: dict = {}
    for key, value in raw.items():
        if key in model_fields:
            model_kwargs[key] = _coerce(key, model_fields[key].type, str(value))
        elif key in train_fields:
            train_kwargs[key] = _coerce(key, train_fields[key].type, str(value))
        else:
            raise ConfigError(f"unknown config key {key!r}")
    model_cfg = ModelConfig(**model_kwargs)
    if model_cfg.mode == "raw":
        raise ConfigError("raw mode is a fixed construction and cannot be trained")
    return model_cfg, TrainConfig(**train_kwargs)


SPLIT_SUFFIXES = (".txt", ".tsv", ".jsonl", ".json")


def _read_split(path: Path) -> tuple[list[RawFact], str]:
    """Parse a split file by its suffix; also return the sha256 of the bytes parsed.

    Every DataError it raises begins with the file's path.
    """
    try:
        data = path.read_bytes()
    except IsADirectoryError:
        raise DataError(f"{path}: is a directory, not a split file") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    parse = parse_role_json if path.suffix in (".json", ".jsonl") else parse_tabular
    try:
        facts = parse(text.splitlines())
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    return facts, hashlib.sha256(data).hexdigest()


def _out_dir(path: str) -> Path:
    """Make the output directory ``path``; a path that cannot be one raises ConfigError."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {out}: {exc.strerror}") from None
    return out


def _find_split(data_dir: Path, split: str) -> Path | None:
    for ext in SPLIT_SUFFIXES:
        path = data_dir / f"{split}{ext}"
        if path.exists():
            return path
    return None


def load_dataset(
    data_dir: str | Path,
    valid_fraction: float = 0.2,
    seed: int = 0,
) -> tuple[KnowledgeBase, dict]:
    """Load train/valid/test splits from a directory.

    Each split is the first of ``<split>.txt``, ``.tsv``, ``.jsonl`` and
    ``.json`` that exists, parsed by its suffix; a file that is not UTF-8
    raises DataError. The returned info names each file read and the sha256
    of the very bytes parsed. When the validation split has no facts (there
    is no validation file, or it holds none) and `valid_fraction` > 0, that
    fraction of the training facts is held out, deterministically in `seed`.
    A fraction outside [0, 1) raises ConfigError.
    """
    if not 0 <= valid_fraction < 1:
        raise ConfigError(f"valid fraction {valid_fraction} is not in [0, 1)")
    data_dir = Path(data_dir)
    if not data_dir.is_dir():
        raise DataError(f"data directory not found: {data_dir}")
    paths = {split: _find_split(data_dir, split) for split in ("train", "valid", "test")}
    if paths["train"] is None:
        raise DataError(f"no train split found under {data_dir}")
    paths = {split: path for split, path in paths.items() if path}
    raw = {"train": [], "valid": [], "test": []}
    checksums = {}
    for split, path in paths.items():
        raw[split], checksums[split] = _read_split(path)
    if not raw["valid"] and valid_fraction > 0 and raw["train"]:
        rng = make_rng(seed, 3)
        n_valid = int(valid_fraction * len(raw["train"]))
        order = rng.permutation(len(raw["train"]))
        hold = set(int(i) for i in order[:n_valid])
        raw["valid"] = [f for i, f in enumerate(raw["train"]) if i in hold]
        raw["train"] = [f for i, f in enumerate(raw["train"]) if i not in hold]
        log.info("held out %d training facts as validation", n_valid)
    kb = build_kb(raw["train"], raw["valid"], raw["test"])
    return kb, {"paths": {s: str(p) for s, p in paths.items()}, "sha256": checksums}


def _arity_predicate(spec: str | None):
    if spec is None or spec == "all":
        return lambda arity: True
    try:
        if spec.startswith(">="):
            floor = int(spec[2:])
            return lambda arity: arity >= floor
        if spec.startswith("<="):
            cap = int(spec[2:])
            return lambda arity: arity <= cap
        allowed = {int(tok) for tok in spec.split(",")}
    except ValueError as exc:
        raise ConfigError(
            f"bad arity filter {spec!r}; expected e.g. '2,4,5', '>=3', '<=4' or 'all'"
        ) from exc
    return lambda arity: arity in allowed


def cmd_train(args) -> int:
    overrides = {"seed": args.seed, "mode": args.mode}
    model_cfg, train_cfg = load_configs(
        Path(args.config) if args.config else None, overrides
    )
    kb, data_info = load_dataset(
        args.data_dir,
        valid_fraction=args.valid_fraction,
        seed=train_cfg.seed,
    )
    # the mode's slot checks (e.g. presets take binary relations only) run
    # before anything is written
    ModelParams(model_cfg, kb.vocab).slot_shapes()
    out = _out_dir(args.out)
    manifest_path = out / "manifest.json"
    ckpt_path = out / "model.ramckpt"
    trace_path = out / "trace.csv"
    manifest = {
        "model_config": model_cfg.to_dict(),
        "train_config": train_cfg.to_dict(),
        "data": data_info,
        "dataset_stats": kb.stats(),
        "seed": train_cfg.seed,
        "artifacts": {
            "checkpoint": str(ckpt_path),
            "trace": str(trace_path),
            "manifest": str(manifest_path),
        },
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    manifest_path.write_text(json.dumps(manifest, indent=2), encoding="utf-8")

    result = train(kb, model_cfg, train_cfg)
    holdout = {"valid_fraction": args.valid_fraction, "seed": train_cfg.seed}
    ckpt.save_checkpoint(ckpt_path, result.params, holdout)
    write_trace_csv(result.trace, trace_path)
    manifest["finished_at"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    manifest["best_valid_mrr"] = result.best_valid_mrr
    manifest["epochs_run"] = len(result.trace)
    manifest_path.write_text(json.dumps(manifest, indent=2), encoding="utf-8")
    print(f"checkpoint: {ckpt_path}")
    print(f"trace: {trace_path}")
    if result.best_valid_mrr is not None:
        print(f"best valid MRR: {result.best_valid_mrr:.4f}")
    return 0


def cmd_eval(args) -> int:
    params, holdout = ckpt.load_checkpoint(args.checkpoint)
    kb, _ = load_dataset(args.data_dir, **holdout)
    ckpt.check_vocab_compatible(params.vocab, kb.vocab)
    out = _out_dir(args.out) if args.out else None
    report = evaluate(params, kb, split=args.split)
    print(report.table())
    if out:
        (out / f"eval_{args.split}.json").write_text(report.to_json(), encoding="utf-8")
        (out / f"eval_{args.split}_per_arity.csv").write_text(
            report.per_arity_csv(), encoding="utf-8"
        )
        print(f"report written to {out}")
    return 0


def cmd_gradcheck(args) -> int:
    report = run_gradcheck(trials=args.trials, seed=args.seed, tol=args.tol)
    for family, err in sorted(report.family_errors.items()):
        print(f"{family:12} max relative error {err:.3e}")
    print(f"overall max {report.max_error:.3e} (tolerance {report.tol:.1e})")
    print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


def cmd_equiv(args) -> int:
    if args.kind not in PRESET_KINDS:
        raise ConfigError(f"unknown preset {args.kind!r}; expected one of {PRESET_KINDS}")
    from .kb import Vocabulary
    from .kb import Fact as KFact

    rng = make_rng(args.seed, 11)
    cfg = ModelConfig(embed_dim=args.dim, mode=f"preset:{args.kind}")
    vocab = Vocabulary()
    vocab.add_entity("h")
    vocab.add_entity("t")
    vocab.add_relation("r", 2)
    max_abs = 0.0
    max_rel = 0.0
    for _ in range(args.trials):
        params = ModelParams.init(cfg, vocab, seed=0)
        for key in params.slots():
            params.data[key] = rng.normal(0, 1, params.data[key].shape)
        got = score(params, KFact(0, (0, 1)))
        ent = params.data[("ent",)]
        role_emb = relation_terms(params, [0]).role_emb[0]
        want = reference_score(args.kind, role_emb, ent[0], ent[1])
        diff = abs(got - want)
        max_abs = max(max_abs, diff)
        max_rel = max(max_rel, diff / max(abs(want), 1e-300))
    print(f"{args.kind}: {args.trials} trials, max abs dev {max_abs:.3e}, "
          f"max rel dev {max_rel:.3e}")
    passed = max_rel <= 1e-9
    print("PASS" if passed else "FAIL")
    return 0 if passed else 1


def cmd_express(args) -> int:
    spec = Path(args.spec)
    raw, _ = _read_split(spec)
    if not raw:
        raise DataError(f"{spec}: holds no facts")
    kb = build_kb(raw)
    facts = list(dict.fromkeys(kb.train))
    out = _out_dir(args.out) if args.out else None
    report = verify_separation(kb.vocab, facts, construct(kb.vocab, facts))
    text = json.dumps(asdict(report), indent=2)
    print(text)
    if out:
        (out / "separation.json").write_text(text, encoding="utf-8")
    return 0 if report.passed else 1


def cmd_export(args) -> int:
    params, _ = ckpt.load_checkpoint(args.checkpoint)
    out = _out_dir(args.out)
    exporters = {
        "entity": ckpt.export_entities_csv,
        "role": ckpt.export_roles_csv,
        "pattern": ckpt.export_patterns_csv,
    }
    kinds = list(exporters) if args.what == "all" else [args.what]
    for kind in kinds:
        path = out / f"{kind}.csv"
        path.write_text(exporters[kind](params), encoding="utf-8")
        print(f"wrote {path}")
    return 0


def cmd_subset(args) -> int:
    kb, _ = load_dataset(args.data_dir, valid_fraction=0.0)
    sub = subset_by_arity(
        kb,
        _arity_predicate(args.arity_filter),
        binary_keep_ratio=1.0 if args.ratio is None else args.ratio,
        seed=args.seed,
    )
    if kb.test and not sub.test:
        raise DataError(f"no test fact passes the arity filter {args.arity_filter!r}")
    out = Path(args.out)
    exports = {split: export_split(sub, split) for split in ("train", "valid", "test")}
    # a split file that load_dataset reads first would shadow the one written
    for split, (suffix, _) in exports.items():
        found = _find_split(out, split)
        if found and SPLIT_SUFFIXES.index(found.suffix) < SPLIT_SUFFIXES.index(suffix):
            raise ConfigError(f"{found} would be read instead of {split}{suffix}")
    _out_dir(args.out)
    for split, (suffix, lines) in exports.items():
        path = out / f"{split}{suffix}"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        print(f"wrote {path}")
    (out / "stats.json").write_text(
        json.dumps(sub.stats(), indent=2), encoding="utf-8"
    )
    return 0


def _trial_count(text: str) -> int:
    """argparse type of ``--trials``: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"needs at least 1 trial, got {value}")
    return value


def _tolerance(text: str) -> float:
    """argparse type of ``--tol``: a finite number above 0."""
    value = float(text)
    if not 0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"tolerance must be finite and > 0, got {value}")
    return value


def _seed(text: str) -> int:
    """argparse type of a command's ``--seed``: a non-negative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be non-negative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ram", description="Role-aware n-ary relational KB completion"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model, write checkpoint+trace+manifest")
    p_train.add_argument("--data-dir", required=True)
    p_train.add_argument("--out", required=True)
    p_train.add_argument("--seed", type=int, help="overrides the config file's seed")
    p_train.add_argument("--config", help="key=value config file")
    p_train.add_argument("--mode", help="latent | explicit | extended | preset:<Kind>")
    p_train.add_argument("--valid-fraction", type=float, default=0.2,
                         help="train fraction held out when no valid split exists")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    p_eval.add_argument("--data-dir", required=True)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--split", default="test", choices=["train", "valid", "test"])
    p_eval.add_argument("--out")
    p_eval.set_defaults(func=cmd_eval)

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient validation")
    p_grad.add_argument("--seed", type=_seed, default=0)
    p_grad.add_argument("--trials", type=_trial_count, default=20)
    p_grad.add_argument("--tol", type=_tolerance, default=1e-4)
    p_grad.set_defaults(func=cmd_gradcheck)

    p_equiv = sub.add_parser("equiv", help="preset vs reference bilinear scorer")
    p_equiv.add_argument("--seed", type=_seed, default=0)
    p_equiv.add_argument("--kind", required=True)
    p_equiv.add_argument("--trials", type=_trial_count, default=200)
    p_equiv.add_argument("--dim", type=int, default=8)
    p_equiv.set_defaults(func=cmd_equiv)

    p_express = sub.add_parser("express", help="exact-separation construction check")
    p_express.add_argument("--spec", required=True,
                           help="ground-truth split file: tabular lines (.txt, .tsv) "
                                "or role-annotated JSON lines (.jsonl, .json)")
    p_express.add_argument("--out")
    p_express.set_defaults(func=cmd_express)

    p_export = sub.add_parser("export", help="CSV export of learned parameters")
    p_export.add_argument("--checkpoint", required=True)
    p_export.add_argument("--out", required=True)
    p_export.add_argument("--what", default="all",
                          choices=["entity", "role", "pattern", "all"])
    p_export.set_defaults(func=cmd_export)

    p_subset = sub.add_parser("subset", help="arity/ratio subsetting of a dataset")
    p_subset.add_argument("--data-dir", required=True)
    p_subset.add_argument("--out", required=True)
    p_subset.add_argument("--seed", type=_seed, default=0)
    p_subset.add_argument("--ratio", type=float, help="binary training fact keep ratio")
    p_subset.add_argument("--arity-filter", help="e.g. '2,4,5' or '>=3' or 'all'")
    p_subset.set_defaults(func=cmd_subset)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("RAM_LOG", "WARNING").upper())
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return 4
    except FileNotFoundError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
