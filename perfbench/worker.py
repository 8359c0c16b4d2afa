"""One measured run of one workload, in a fresh interpreter.

Started by ``run.py`` after the data is generated; it goes through the
package's public API only and writes its measurements as JSON to ``--out``:

    setup      cli.load_dataset + ModelParams.init (or planted-parameter load),
               repeated SETUP_REPEATS times
    rounds     training.train on a fresh model, then evaluation.evaluate on the
               test split `eval_passes` times; at least one round, and more
               while they should end within --seconds (--rounds caps their
               number)
    gates      outside the timed region: finite, decreasing loss, MRR floor,
               identical results in every round, and on eval-filtered the
               package's MRR against the independent planted ranker

With ``--trace`` the package's layer functions are wrapped from outside
(see ``spans.py``) and per-layer self times and counts are added.
"""

from __future__ import annotations

import argparse
import copy
import functools
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import planted  # noqa: E402
from spans import Tracer, self_time_by_name, total_time_by_name  # noqa: E402
from workloads import BATCH_SIZE, DROPOUT, LEARNING_RATE, WORKLOADS  # noqa: E402

from ramkb import cli, evaluation, training  # noqa: E402
from ramkb.kb import KnowledgeBase  # noqa: E402
from ramkb.model import ModelConfig, ModelParams  # noqa: E402

SETUP_REPEATS = 7
GATE_QUERY_FACTS = 200  # test facts ranked by both rankers on eval-filtered
LOSS_CHECK_FACTS = 256
TRAIN_WINDOW_BATCHES = 4  # one training throughput sample
CALIBRATION_REPEATS = 3  # train kernel: ~6 ms on a quiet machine
RANK_CALIBRATION_CELLS = 736_000  # query rows x table width of the rank kernel
EVAL_CHUNK_FACTS = 512  # test facts per evaluate() call, one ranking throughput sample

# (wrapped target, reported layer name). Module attributes are wrapped where
# the caller looks them up, so one layer function can have several targets.
SPAN_TARGETS = (
    ("ramkb.cli.load_dataset", "cli.load_dataset"),
    ("ramkb.cli.build_kb", "kb.build_kb"),
    ("ramkb.kb.KnowledgeBase.filtered_candidates", "kb.filtered_candidates"),
    ("ramkb.engine.relation_terms", "model.relation_terms"),
    ("ramkb.training.split_groups", "engine.split_groups"),
    ("ramkb.evaluation.split_groups", "engine.split_groups"),
    ("ramkb.training.forward_group", "engine.forward_group"),
    ("ramkb.evaluation.forward_group", "engine.forward_group"),
    ("ramkb.training.group_losses", "engine.group_losses"),
    ("ramkb.training.backward_group", "engine.backward_group"),
    ("ramkb.engine.GradientBuffer.add_rows", "engine.scatter_rows"),
    ("ramkb.training.train", "training.train"),
    ("ramkb.training.batch_backward", "training.batch_backward"),
    ("ramkb.training._group_candidates", "training.corrupt"),
    ("ramkb.training.optimizer_step", "training.optimizer_step"),
    ("ramkb.evaluation.evaluate", "evaluation.evaluate"),
    ("ramkb.evaluation.rank_from_scores", "evaluation.rank_from_scores"),
)
COUNT_TARGETS = (
    ("ramkb.training.corrupt", "training.corrupt.calls"),
    ("numpy.einsum", "numpy.einsum"),
)


def model_config(data_spec) -> ModelConfig:
    return ModelConfig(embed_dim=data_spec.embed_dim, multiplicity=data_spec.multiplicity,
                       latent_size=data_spec.latent_size, mode="latent")


def train_config(workload, seed: int) -> training.TrainConfig:
    # eval_every above max_epochs: no validation runs inside train()
    return training.TrainConfig(
        batch_size=BATCH_SIZE, learning_rate=LEARNING_RATE, dropout=DROPOUT,
        max_epochs=workload.epochs, eval_every=workload.epochs + 1,
        negatives=workload.negatives, seed=seed,
    )


def load_planted_params(cfg: ModelConfig, kb: KnowledgeBase, data_dir: Path) -> ModelParams:
    """ModelParams holding the planted arrays, reordered to the KB's vocabulary."""
    model = planted.PlantedModel.load(data_dir / "planted")
    params = ModelParams.init(cfg, kb.vocab)
    ent_ids = np.array([int(name[1:]) for name in kb.vocab.entities])
    params.data[("ent",)] = model.ent[ent_ids]
    params.data[("basis_u",)] = model.basis_u.copy()
    for a in params.arities:
        params.data[("basis_p", a)] = model.basis_p[a].copy()
    for rel, (name, a) in enumerate(kb.vocab.relations):
        params.data[("alpha", rel)] = model.alpha[int(name[1:]), :a, None, :].copy()
    return params


def setup(workload, data_dir: Path, cfg: ModelConfig, seed: int):
    kb, _ = cli.load_dataset(data_dir, valid_fraction=0.0)
    if workload.rank_planted:
        params = load_planted_params(cfg, kb, data_dir)
    else:
        params = ModelParams.init(cfg, kb.vocab, seed=seed)
    return kb, params


def ranking_chunks(kb: KnowledgeBase) -> list[KnowledgeBase]:
    """The test split in EVAL_CHUNK_FACTS pieces, sharing the KB's truth index."""
    chunks = []
    for lo in range(0, len(kb.test), EVAL_CHUNK_FACTS):
        chunk = copy.copy(kb)
        chunk.test = kb.test[lo : lo + EVAL_CHUNK_FACTS]
        chunks.append(chunk)
    return chunks


class Calibration:
    """Fixed work, one kernel per kind of sample, timed right before each one.

    Other tenants of a shared machine slow this process by a factor that
    changes within a second and drifts between runs, and that differs with
    the kind of work: small-array numpy and interpreter work slows more than
    streaming through a wide table. Each kernel's time measures that factor
    for one kind of sample, and ``run.py`` scales each sample's wall time by
    it (``run.reference_rates``):

    - ``train``: the planted scorer on small fixed random arrays, like the
      per-group einsums of a training batch;
    - ``rank``: scores of fixed random queries against a random table with
      as many rows as the workload's dataset has entities, then a masked
      count of higher scores per query, like ``evaluate()``;
    - ``setup``: parsing and indexing fixed tab-separated lines, then one
      random parameter table, like loading a dataset.

    The kernels run on fixed arrays from their own seed, so they do not
    depend on the package or the workload seed. When not `enabled` every
    kernel returns 0 and runs nothing.
    """

    def __init__(self, enabled: bool, width: int) -> None:
        self.enabled = enabled
        rng = np.random.default_rng(20210420)
        arity = np.tile(np.arange(2, 7), 8)
        self.arrays = (
            rng.normal(size=(2000, 2, 25)), rng.normal(size=(10, 25)),
            {a: rng.normal(size=(10, a, 2)) for a in range(2, 7)},
            rng.normal(size=(arity.size, 6, 10)), arity,
        )
        self.batches = [
            (rels, rng.integers(0, 2000, (rels.size, a)))
            for a in range(2, 7)
            for rels in [np.repeat(np.flatnonzero(arity == a), 2)]
        ]
        rows = max(8, RANK_CALIBRATION_CELLS // width)
        self.table = rng.normal(size=(width, 50))
        self.queries = rng.normal(size=(rows, 50))
        self.in_vocab = rng.random(width) < 0.8
        self.known = rng.integers(0, width, size=(rows, 4))
        self.lines = [
            "\t".join([f"r{r}"] + [f"e{e}" for e in ents]) + "\n"
            for r, ents in zip(rng.integers(0, 100, 1300),
                               (rng.integers(0, 5000, a) for a in rng.integers(2, 7, 1300)))
        ]

    def _timed(self, kernel) -> float:
        if not self.enabled:
            return 0.0
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start

    def train(self) -> float:
        def kernel():
            for _ in range(CALIBRATION_REPEATS):
                model = planted.PlantedModel(*self.arrays)  # empty per-relation cache
                for rels, ents in self.batches:
                    model.all_scores(rels, ents, 0)
        return self._timed(kernel)

    def rank(self) -> float:
        def kernel():
            scores = self.queries @ self.table.T
            for row, known in zip(scores, self.known):
                mask = self.in_vocab.copy()
                mask[known] = False
                np.count_nonzero(row[mask] > row[known[0]])
        return self._timed(kernel)

    def setup(self) -> float:
        def kernel():
            ids: dict = {}
            index: dict = {}
            for line in "".join(self.lines).splitlines():
                rel, *ents = line.split("\t")
                key = tuple(ids.setdefault(t, len(ids)) for t in ents)
                index.setdefault((rel, key[1:]), set()).add(key[0])
            np.random.default_rng(0).normal(0.0, 0.1, size=(len(ids), 50))
        return self._timed(kernel)


class BatchWindows:
    """Times training in windows of TRAIN_WINDOW_BATCHES batches.

    Wraps ``training.optimizer_step``, the last call of each batch in
    ``train()``. After the first batch (which also pays for the set-up in
    ``train()``) and after every window, it calibrates and opens the next
    window. Samples are (facts, seconds, calibration seconds).
    """

    def __init__(self, calibrate, batch_facts: list[int]) -> None:
        self.calibrate = calibrate
        self.batch_facts = batch_facts
        self.samples: list[tuple[int, float, float]] = []
        self._done = self._in_window = self._facts = 0
        self._start: Optional[float] = None
        self._cal = 0.0

    def __enter__(self) -> "BatchWindows":
        original = getattr(training, "optimizer_step", None)
        if original is None:
            print("perfbench: ramkb.training.optimizer_step not found; "
                  "timing train() as one sample", file=sys.stderr)
            self._restore = lambda: None
            return self

        @functools.wraps(original)
        def stepped(*args, **kwargs):
            out = original(*args, **kwargs)
            self._batch_done(time.perf_counter())
            return out

        training.optimizer_step = stepped
        self._restore = lambda: setattr(training, "optimizer_step", original)
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _batch_done(self, now: float) -> None:
        self._done += 1
        if self._start is not None:
            self._facts += self.batch_facts[self._done - 1]
            self._in_window += 1
            if self._in_window < TRAIN_WINDOW_BATCHES:
                return
            self.samples.append((self._facts, now - self._start, self._cal))
        self._cal = self.calibrate()
        self._facts = self._in_window = 0
        self._start = time.perf_counter()


def run_round(tracer, calibration, workload, chunks, kb, ranked_params, cfg, tcfg) -> dict:
    n_train = len(kb.train)
    size = tcfg.batch_size
    epoch = [size] * (n_train // size) + ([n_train % size] if n_train % size else [])
    cal = calibration.train()
    with BatchWindows(calibration.train, epoch * workload.epochs) as windows:
        start = time.perf_counter()
        with tracer.phase("train"):
            result = training.train(kb, cfg, tcfg)
        train_s = time.perf_counter() - start
    train_samples = windows.samples or [(n_train * len(result.trace), train_s, cal)]
    params = ranked_params if ranked_params is not None else result.params
    eval_samples, mrrs, queries = [], [], 0
    for _ in range(workload.eval_passes):
        rr_sum = n_queries = 0
        for chunk in chunks:
            cal = calibration.rank()
            start = time.perf_counter()
            with tracer.phase("eval"):
                report = evaluation.evaluate(params, chunk, split="test")
            eval_samples.append((report.n_queries, time.perf_counter() - start, cal))
            rr_sum += report.mrr * report.n_queries
            n_queries += report.n_queries
        mrrs.append(rr_sum / n_queries)
        queries += n_queries
    return {
        "train_s": train_s,
        "train_facts": n_train * len(result.trace),
        "train_batches": len(epoch) * len(result.trace),
        "train_samples": train_samples,
        "final_train_loss": result.trace[-1].train_loss,
        "trained": result.params,
        "queries": queries,
        "eval_samples": eval_samples,
        "mrr": mrrs[0],
        "mrr_passes": mrrs,
    }


def gates(workload, kb, ranked_params, cfg, tcfg, rounds, data_dir) -> list[str]:
    """Correctness checks; each failure is one message."""
    errors = []
    first = rounds[0]
    if any(r["mrr_passes"] != [first["mrr"]] * len(r["mrr_passes"]) for r in rounds):
        errors.append("evaluation passes gave different MRRs")
    for i, r in enumerate(rounds[1:], start=2):
        if (r["final_train_loss"], r["mrr"]) != (first["final_train_loss"], first["mrr"]):
            errors.append(f"round {i} differs from round 1: loss {r['final_train_loss']!r} vs "
                          f"{first['final_train_loss']!r}, mrr {r['mrr']!r} vs {first['mrr']!r}")
    if not math.isfinite(first["final_train_loss"]):
        errors.append(f"final train loss {first['final_train_loss']!r} is not finite")
    # same facts and candidates, no dropout: trained parameters against initial ones
    sample = kb.train[:LOSS_CHECK_FACTS]

    def loss_of(params):
        rngs = [np.random.default_rng([tcfg.seed, i]) for i in range(len(sample))]
        return training.batch_loss(params, sample, negatives=tcfg.negatives, fact_rngs=rngs)

    initial = loss_of(ModelParams.init(cfg, kb.vocab, seed=tcfg.seed))
    trained = loss_of(first["trained"])
    if not trained < initial:
        errors.append(f"training did not lower the loss on {len(sample)} training facts: "
                      f"{trained!r} after, {initial!r} before")
    n_e = kb.vocab.n_entities
    floor = max(workload.mrr_floor, 10.0 / n_e)
    if not first["mrr"] > floor:
        errors.append(f"MRR {first['mrr']!r} not above floor {floor!r} (random ~{1.0 / n_e:.2e})")
    if workload.rank_planted:
        errors.extend(planted_ranking_gate(kb, ranked_params, data_dir))
    return errors


def planted_ranking_gate(kb, params, data_dir: Path) -> list[str]:
    """Package MRR on a fixed test sub-sample equals the independent ranker's."""
    n = GATE_QUERY_FACTS
    sub = KnowledgeBase(kb.vocab, kb.train, kb.valid + kb.test[n:], kb.test[:n])
    got = evaluation.evaluate(params, sub, split="test").mrr
    facts = {s: planted.read_split(data_dir / f"{s}.txt") for s in ("train", "valid", "test")}
    model = planted.PlantedModel.load(data_dir / "planted")
    every = facts["train"] + facts["valid"] + facts["test"]
    want = float((1.0 / planted.filtered_ranks(model, facts["test"][:n], every)).mean())
    if abs(got - want) > 1e-9:
        return [f"evaluate() MRR {got!r} != reference ranker MRR {want!r} on {n} test facts"]
    return []


def install_tracer(tracer: Tracer, rows: dict) -> None:
    def count_rows(params, buf, state, lr):
        touched = buf.touched.get(("ent",))
        rows["touched"] += 0 if touched is None else int(np.count_nonzero(touched))
        rows["steps"] += 1

    for target, name in SPAN_TARGETS:
        hook = count_rows if name == "training.optimizer_step" else None
        tracer.wrap(target, name, on_call=hook)
    for target, name in COUNT_TARGETS:
        tracer.wrap(target, name, count_only=True)


def per_layer(tracer: Tracer, rows: dict, rounds: list[dict], n_entities: int) -> dict:
    """Per-layer metrics from one traced run, as {name: (value, unit)}."""
    by_name = self_time_by_name(tracer.spans)
    in_train = total_time_by_name(tracer.spans, phase="train")
    wrapped = {name for target, name in SPAN_TARGETS if target not in tracer.missing}
    out: dict = {}

    def put(name, value, unit, needs):
        if all(n in wrapped for n in needs):
            out[name] = (value, unit)

    for name in sorted(wrapped):
        out[f"{name}.self_s"] = (by_name.get(name, 0.0), "s")
    put("engine.forward_group.calls", tracer.calls("engine.forward_group"), "count",
        ["engine.forward_group"])
    put("engine.backward_over_forward",
        in_train.get("engine.backward_group", 0.0) / max(in_train.get("engine.forward_group", 0.0), 1e-12),
        "ratio", ["engine.backward_group", "engine.forward_group"])
    batches = sum(r["train_batches"] for r in rounds)
    facts = sum(r["train_facts"] for r in rounds)
    put("model.relation_terms.calls_per_batch",
        tracer.calls("model.relation_terms", "train") / batches, "count", ["model.relation_terms"])
    if "ramkb.training.corrupt" not in tracer.missing:
        out["training.corrupt.calls"] = (tracer.calls("training.corrupt.calls"), "count")
    put("training.optimizer_step.rows_touched_frac",
        rows["touched"] / max(rows["steps"] * n_entities, 1), "ratio", ["training.optimizer_step"])
    put("kb.filtered_candidates.calls", tracer.calls("kb.filtered_candidates"), "count",
        ["kb.filtered_candidates"])
    if "numpy.einsum" not in tracer.missing:
        out["numpy.einsum.calls_per_fact"] = (tracer.calls("numpy.einsum", "train") / facts, "count")
    out["trace.uncovered_s"] = (sum(v for k, v in by_name.items() if k.startswith("phase.")), "s")
    return out


def environment() -> dict:
    info = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "env": {k: os.environ.get(k)
                for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "PYTHONHASHSEED")},
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    return info


def measure(workload, data_dir: Path, seed: int, seconds: float, max_rounds: int = 0,
            trace: bool = False, spans_path=None, calibrate: bool = True) -> dict:
    """Set up, run rounds for `seconds` (at most `max_rounds`, 0: no cap),
    check the gates and return everything as a JSON-ready dict."""
    calibration = Calibration(calibrate and not trace, workload.dataset.n_entities)
    cfg = model_config(workload.dataset)
    tcfg = train_config(workload, seed)
    tracer = Tracer()
    rows = {"touched": 0, "steps": 0}
    if trace:
        install_tracer(tracer, rows)
        tracer.enabled = True
    try:
        setup_samples = []
        for _ in range(SETUP_REPEATS):
            kb = params = None  # drop the previous copy before timing the next
            cal = calibration.setup()
            start = time.perf_counter()
            with tracer.phase("setup"):
                kb, params = setup(workload, data_dir, cfg, seed)
            setup_samples.append((1, time.perf_counter() - start, cal))
        ranked_params = params if workload.rank_planted else None
        chunks = ranking_chunks(kb)

        rounds = []
        start = time.perf_counter()
        # whole rounds only: another starts if it should end within `seconds`
        while not rounds or (
            (time.perf_counter() - start) * (len(rounds) + 1) / len(rounds) <= seconds
            and (max_rounds == 0 or len(rounds) < max_rounds)
        ):
            rounds.append(run_round(tracer, calibration, workload, chunks, kb,
                                    ranked_params, cfg, tcfg))
            if len(rounds) > 1:
                del rounds[-1]["trained"]  # the gates check the first round's model
        tracer.enabled = False
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        tracer.enabled = False
        tracer.unwrap_all()

    errors = gates(workload, kb, ranked_params, cfg, tcfg, rounds, data_dir)
    del rounds[0]["trained"]
    result = {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "setup_samples": setup_samples,
        "rounds": rounds,
        "peak_rss_mb": peak_rss_mb,
        "attempted": sum(r["train_batches"] + r["queries"] for r in rounds),
        "gate_errors": errors,
        "sizes": {
            "n_entities": kb.vocab.n_entities,
            "n_relations": kb.vocab.n_relations,
            "n_train": len(kb.train),
            "n_valid": len(kb.valid),
            "n_test": len(kb.test),
            "queries_per_pass": rounds[0]["queries"] // workload.eval_passes,
            "eval_passes": workload.eval_passes,
            "epochs": workload.epochs,
        },
        "environment": environment(),
    }
    if trace:
        result["per_layer"] = per_layer(tracer, rows, rounds, kb.vocab.n_entities)
        result["missing_targets"] = tracer.missing
        if spans_path is not None:
            tracer.dump(spans_path)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--data", required=True, type=Path)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--rounds", type=int, default=0, help="cap on rounds (0: no cap)")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--calibrate", type=int, default=1, choices=(0, 1))
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--spans", type=Path, default=None)
    args = ap.parse_args(argv)
    result = measure(WORKLOADS[args.workload], args.data, args.seed, args.seconds,
                     args.rounds, bool(args.trace), args.spans, bool(args.calibrate))
    args.out.write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
