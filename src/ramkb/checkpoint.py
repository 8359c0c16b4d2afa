"""Binary checkpoints and CSV exports of learned parameters.

Checkpoint layout: the magic bytes ``RAMCKPT1``, a little-endian uint64
header length, a UTF-8 JSON header, then the payload. The header holds only
what cannot be derived: ``config``, ``vocab`` (the vocabulary the parameters
own), ``holdout`` (the arguments ``cli.load_dataset`` split the training
data with) and, when recorded, ``sha256`` (the checksum of each split file
the training data was read from). The payload is every slot as
little-endian float64, one after another in ``ModelParams.slots()`` order;
the config and vocabulary fix each slot's shape
(``ModelParams.slot_shapes()``) and so the payload's exact length. Files that also carry a table of the arrays, and spell a preset
model as ``"mode": "preset", "preset": <Kind>``, were written in this same
slot order and still load. Saving, loading and the CSV exports read the
vocabulary from ``ModelParams.vocab``; none of them takes a vocabulary of
its own.
"""

from __future__ import annotations

import csv
import io
import json
import math
import struct
from itertools import zip_longest

import numpy as np

from .errors import ConfigError, DataError, read_input
from .kb import Vocabulary
from .model import ModelConfig, ModelParams, relation_terms

MAGIC = b"RAMCKPT1"
_HEADER_KEYS = ("config", "vocab")
SPLITS = ("train", "valid", "test")
# the holdout of a header that records none: the split evaluation used by default
DEFAULT_HOLDOUT = {"valid_fraction": 0.2, "seed": 0}


def _is_count(value) -> bool:
    """A non-negative JSON integer (not a boolean)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _header_config(path, data) -> ModelConfig:
    int_fields = [f for f in ModelConfig.__dataclass_fields__.values() if f.type == "int"]
    if not isinstance(data, dict) or not all(_is_count(data.get(f.name, 1)) for f in int_fields):
        raise DataError(f"{path}: checkpoint config {data!r} is not a model config")
    if data.get("mode") == "preset":  # the older spelling of "preset:<Kind>"
        data = {**data, "mode": f"preset:{data.get('preset')}"}
    try:
        return ModelConfig.from_dict(data)
    except ConfigError as exc:
        raise DataError(f"{path}: bad model config in checkpoint ({exc})") from None


def _header_holdout(path, data) -> dict:
    fraction = data.get("valid_fraction") if isinstance(data, dict) else None
    if not (type(fraction) in (int, float) and 0 <= fraction < 1 and _is_count(data.get("seed"))):
        raise DataError(
            f"{path}: checkpoint holdout {data!r} needs a valid_fraction in [0, 1) "
            "and a count as seed"
        )
    return {"valid_fraction": fraction, "seed": data["seed"]}


def _header_checksums(path, data) -> dict | None:
    if data is not None and not (isinstance(data, dict) and all(
        split in SPLITS and isinstance(digest, str) for split, digest in data.items()
    )):
        raise DataError(f"{path}: checkpoint sha256 {data!r} needs a string per split")
    return data


def save_checkpoint(path, params: ModelParams, holdout=DEFAULT_HOLDOUT, sha256=None):
    """Write `params`, their vocabulary, and the `holdout` their training data was split by.

    `sha256`, if given, maps each split to the sha256 of the file the
    training data was read from (:func:`load_checksums`). A holdout or
    checksums that loading would refuse raise its DataError before the file
    is opened.
    """
    header = {
        "config": params.cfg.to_dict(),
        "vocab": params.vocab.to_dict(),
        "holdout": _header_holdout(path, holdout),
    }
    if _header_checksums(path, sha256) is not None:
        header["sha256"] = sha256
    blob = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for key in params.slots():
            fh.write(np.ascontiguousarray(params.data[key], dtype="<f8").tobytes())


def _read_header(path) -> tuple[dict, bytes]:
    """A checkpoint's JSON header, with the keys every checkpoint has, and its payload."""
    raw = read_input(path, DataError)
    if raw[: len(MAGIC)] != MAGIC:
        raise DataError(f"{path}: not a checkpoint (bad magic)")
    header_start = len(MAGIC) + 8
    if len(raw) < header_start:
        raise DataError(f"{path}: truncated checkpoint (no header length)")
    (header_len,) = struct.unpack("<Q", raw[len(MAGIC) : header_start])
    if header_start + header_len > len(raw):
        raise DataError(
            f"{path}: truncated checkpoint (header of {header_len} bytes runs past "
            f"the {len(raw)}-byte file)"
        )
    try:
        header = json.loads(raw[header_start : header_start + header_len])
    except ValueError as exc:
        raise DataError(f"{path}: checkpoint header is not valid JSON ({exc})") from exc
    if not isinstance(header, dict):
        raise DataError(f"{path}: checkpoint header is not a JSON object")
    missing = [key for key in _HEADER_KEYS if key not in header]
    if missing:
        raise DataError(f"{path}: checkpoint header lacks {', '.join(missing)}")
    return header, raw[header_start + header_len :]


def load_checkpoint(path) -> tuple[ModelParams, dict]:
    """Read a checkpoint as (params, holdout); the params own the header's vocabulary.

    The header's config and vocabulary fix every slot's shape, and the
    payload holds those slots in `ModelParams.slots()` order. A header
    without ``holdout`` reads as DEFAULT_HOLDOUT; other keys are ignored, so
    files with the older table of arrays load too. A truncated or malformed
    file raises DataError: a header field of the wrong type, a config that
    ModelConfig rejects, a holdout fraction outside [0, 1), a relation of
    arity below 2, a relation's roles that are not one role id per position,
    a vocabulary that the config's mode cannot take, or a payload that is
    not exactly as long as the slots the config and vocabulary call for.
    So does a path that cannot be read (:func:`errors.read_input`).
    """
    header, payload = _read_header(path)
    cfg = _header_config(path, header["config"])
    holdout = _header_holdout(path, header.get("holdout", DEFAULT_HOLDOUT))
    try:
        vocab = Vocabulary.from_dict(header["vocab"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed vocabulary in checkpoint ({exc!r})") from None
    if any(a < 2 for a in vocab.arities):
        raise DataError(f"{path}: checkpoint relation arities {vocab.arities} include one below 2")
    for rel, roles in vocab.rel_roles.items():
        if not (
            0 <= rel < vocab.n_relations
            and len(roles) == vocab.arity(rel)
            and all(0 <= g < vocab.n_roles for g in roles)
        ):
            raise DataError(
                f"{path}: checkpoint rel_roles entry {rel}: {list(roles)} needs a relation "
                f"of the vocabulary and one role id in [0, {vocab.n_roles}) per position"
            )
    params = ModelParams(cfg, vocab)
    try:
        shapes = params.slot_shapes()
    except ConfigError as exc:
        raise DataError(f"{path}: checkpoint vocabulary does not fit its config ({exc})") from None
    counts = [math.prod(shape) for shape in shapes.values()]
    if 8 * sum(counts) != len(payload):
        raise DataError(
            f"{path}: checkpoint payload has {len(payload)} bytes; the {cfg.mode} model "
            f"over its vocabulary needs {8 * sum(counts)}"
        )
    offset = 0
    for (key, shape), count in zip(shapes.items(), counts):
        array = np.frombuffer(payload, dtype="<f8", count=count, offset=offset)
        params.data[key] = array.reshape(shape).astype(np.float64)
        offset += 8 * count
    return params, holdout


def load_checksums(path) -> dict | None:
    """The sha256 of each split file a checkpoint's training data was read
    from, or None for a checkpoint that records none.

    A checkpoint that :func:`load_checkpoint` refuses before its header is
    read raises the same DataError, and so does a ``sha256`` entry that is
    not a string per split.
    """
    header, _ = _read_header(path)
    return _header_checksums(path, header.get("sha256"))


def check_vocab_compatible(vocab: Vocabulary, other: Vocabulary) -> None:
    """Raise unless two vocabularies index the same names identically.

    The message names the first index at which they differ, `vocab`'s entry
    first.
    """
    for kind, ours, theirs in (
        ("entity", vocab.entities, other.entities),
        ("relation", vocab.relations, other.relations),
        ("role", vocab.roles, other.roles),
    ):
        for i, pair in enumerate(zip_longest(ours, theirs)):
            if pair[0] != pair[1]:
                a, b = ("no entry" if x is None else repr(x) for x in pair)
                raise DataError(
                    f"{kind} vocabularies differ at index {i}: {a} vs {b} "
                    f"({len(ours)} vs {len(theirs)} entries)"
                )


def export_entities_csv(params: ModelParams) -> str:
    """One row per entity of `params.vocab`: name plus the flattened (m x d) block."""
    m, d = params.cfg.multiplicity, params.cfg.embed_dim
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["name"] + [f"v{i}" for i in range(m * d)])
    ent = params.data[("ent",)]
    for idx, name in enumerate(params.vocab.entities):
        writer.writerow([name] + [repr(float(x)) for x in ent[idx].reshape(-1)])
    return out.getvalue()


def export_roles_csv(params: ModelParams) -> str:
    """One row per (relation, role position, role embedding index).

    `role_name` is the explicit role of the slot, empty for data without roles.
    """
    vocab = params.vocab
    out = io.StringIO()
    writer = csv.writer(out)
    d = params.cfg.embed_dim
    writer.writerow(
        ["relation", "arity", "position", "emb_index", "role_name"]
        + [f"v{i}" for i in range(d)]
    )
    for rel, (name, arity) in enumerate(vocab.relations):
        role_emb = relation_terms(params, [rel]).role_emb[0]
        for pos in range(arity):
            role_name = ""
            if vocab.roles and rel in vocab.rel_roles:
                role_name = vocab.roles[vocab.rel_roles[rel][pos]]
            for j in range(params.cfg.role_multiplicity):
                writer.writerow(
                    [name, arity, pos, j, role_name]
                    + [repr(float(x)) for x in role_emb[pos, j]]
                )
    return out.getvalue()


def export_patterns_csv(params: ModelParams) -> str:
    """One row per pattern matrix, flattened row-major and padded to the widest arity."""
    vocab = params.vocab
    out = io.StringIO()
    writer = csv.writer(out)
    m = params.cfg.multiplicity
    max_arity = vocab.max_arity
    writer.writerow(
        ["relation", "arity", "position", "emb_index", "pattern_index"]
        + [f"p{i}" for i in range(max_arity * m)]
    )
    for rel, (name, arity) in enumerate(vocab.relations):
        patterns = relation_terms(params, [rel]).patterns[0]
        for pos in range(arity):
            for j in range(params.cfg.role_multiplicity):
                for k in range(params.cfg.patterns_per_role):
                    values = patterns[pos, j, k].reshape(-1)
                    row = [name, arity, pos, j, k] + [repr(float(x)) for x in values]
                    row += [""] * (5 + max_arity * m - len(row))
                    writer.writerow(row)
    return out.getvalue()
