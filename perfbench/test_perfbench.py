"""Tests of the benchmark itself: generator determinism, span arithmetic,
the independent ranker, and repeatable trace counts.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import dataclasses
import filecmp
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import planted  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from ramkb import cli, evaluation  # noqa: E402

TINY = planted.DatasetSpec("tiny", n_entities=80, n_relations=12,
                           n_train=120, n_valid=10, n_test=20)


def _files(root: Path) -> list[str]:
    return sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file())


def test_same_seed_gives_identical_files_and_other_seed_differs(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    planted.generate(TINY, 7, a)
    planted.generate(TINY, 7, b)
    planted.generate(TINY, 8, c)
    names = _files(a)
    assert names == _files(b) == _files(c)
    assert "planted/ent.npy" in names and "meta.json" in names
    match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    assert mismatch == [] and errors == []
    same, differ, _ = filecmp.cmpfiles(a, c, names, shallow=False)
    # the seed draws the facts; the planted model is part of the workload
    assert {"train.txt", "valid.txt", "test.txt", "meta.json"} <= set(differ)
    assert {"planted/ent.npy", "planted/alpha.npy"} <= set(same)


def test_generated_splits_match_spec_and_meta(tmp_path):
    meta = planted.generate(TINY, 3, tmp_path)
    facts = {s: planted.read_split(tmp_path / f"{s}.txt") for s in ("train", "valid", "test")}
    assert [len(facts[s]) for s in ("train", "valid", "test")] == [120, 10, 20]
    every = facts["train"] + facts["valid"] + facts["test"]
    assert len(set(every)) == len(every)
    for split, rows in facts.items():
        hist = {str(a): sum(len(e) == a for _, e in rows) for a in range(2, 7)}
        assert meta["arity_histogram"][split] == hist
    arity = np.load(tmp_path / "planted" / "rel_arity.npy")
    for rel, ents in every:
        assert len(ents) == arity[rel] == len(meta["role_map"][f"r{rel}"])


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    S = spans.Span
    tree = [
        S(0, -1, "root", "", 0.0, 10.0),
        S(1, 0, "a", "", 1.0, 4.0),
        S(2, 0, "b", "", 3.0, 6.0),  # overlaps a: union of children is [1, 6]
        S(3, 1, "c", "", 2.0, 3.0),
        S(4, 0, "d", "", 9.0, 12.0),  # runs past the parent: clipped to [9, 10]
    ]
    assert spans.self_times(tree) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])
    assert spans.self_time_by_name(tree) == pytest.approx(
        {"root": 4.0, "a": 2.0, "b": 3.0, "c": 1.0, "d": 3.0})
    assert spans.covered([], 0.0, 1.0) == 0.0


def test_tracer_records_nested_calls_with_parents_and_phases():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    mod = types.ModuleType("perfbench_fake_layer")
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    sys.modules[mod.__name__] = mod
    try:
        assert tracer.wrap("perfbench_fake_layer.inner", "layer.inner")
        assert tracer.wrap("perfbench_fake_layer.outer", "layer.outer")
        assert not tracer.wrap("perfbench_fake_layer.gone", "layer.gone")
        assert tracer.missing == ["perfbench_fake_layer.gone"]
        assert mod.outer(1) == 4  # disabled: nothing recorded
        tracer.enabled = True
        with tracer.phase("train"):
            assert mod.outer(1) == 4
        tracer.enabled = False
    finally:
        tracer.unwrap_all()
        del sys.modules[mod.__name__]
    by_id = {s.id: s for s in tracer.spans}
    names = [s.name for s in tracer.spans]
    assert names == ["phase.train", "layer.outer", "layer.inner"]
    assert [by_id[s.parent].name if s.parent >= 0 else None for s in tracer.spans] == [
        None, "phase.train", "layer.outer"]
    assert {s.phase for s in tracer.spans} == {"train"}
    # clock ticks: phase 0..5, outer 1..4, inner 2..3
    assert spans.self_time_by_name(tracer.spans) == {
        "phase.train": 2.0, "layer.outer": 2.0, "layer.inner": 1.0}
    assert tracer.calls("layer.inner", "train") == 1
    assert mod.inner(1) == 2 and not hasattr(mod.inner, "__wrapped__")


def _hand_built(tmp_path: Path) -> tuple[Path, planted.PlantedModel]:
    """Six entities, a binary and a ternary relation, random planted arrays;
    entity e5 occurs in no fact, so it must not be a candidate."""
    rng = np.random.default_rng(11)
    model = planted.PlantedModel(
        ent=rng.normal(size=(6, 2, 3)),
        basis_u=rng.normal(size=(4, 3)),
        basis_p={a: rng.normal(size=(4, a, 2)) for a in range(2, 7)},
        alpha=rng.normal(size=(2, 6, 4)),
        rel_arity=np.array([2, 3]),
    )
    model.save(tmp_path / "planted")
    splits = {
        "train": ["r0 e0 e1", "r0 e0 e2", "r1 e0 e1 e2", "r1 e3 e1 e2"],
        "valid": ["r0 e3 e4"],
        "test": ["r0 e0 e3", "r1 e4 e1 e2", "r0 e2 e1"],
    }
    for split, lines in splits.items():
        (tmp_path / f"{split}.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return tmp_path, model


def test_reference_ranker_agrees_with_evaluate_on_hand_built_kb(tmp_path):
    data, model = _hand_built(tmp_path)
    kb, _ = cli.load_dataset(data, valid_fraction=0.0)
    assert kb.vocab.n_entities == 5
    spec = dataclasses.replace(TINY, embed_dim=3, multiplicity=2, latent_size=4)
    params = worker.load_planted_params(worker.model_config(spec), kb, data)
    facts = {s: planted.read_split(data / f"{s}.txt") for s in ("train", "valid", "test")}
    every = facts["train"] + facts["valid"] + facts["test"]
    ranks = planted.filtered_ranks(model, facts["test"], every)
    assert len(ranks) == 7 and ranks.min() >= 1 and ranks.max() <= 5
    report = evaluation.evaluate(params, kb, split="test")
    assert report.mrr == pytest.approx(float((1.0 / ranks).mean()), abs=1e-12)
    assert report.hits[1] == pytest.approx(float((ranks <= 1).mean()))


def test_trace_counts_repeat_and_tracing_does_not_change_results(tmp_path):
    data = tmp_path / "data"
    planted.generate(TINY, 5, data)
    workload = dataclasses.replace(WORKLOADS["planted-sampled"], dataset=TINY, negatives=5,
                                   eval_passes=1, mrr_floor=0.0)
    plain = worker.measure(workload, data, seed=5, seconds=0.0, max_rounds=1, trace=False,
                           calibrate=False)
    traced = [worker.measure(workload, data, seed=5, seconds=0.0, max_rounds=1, trace=True)
              for _ in range(2)]
    for res in traced:
        for key in ("final_train_loss", "mrr"):
            assert res["rounds"][0][key] == plain["rounds"][0][key]
    first, second = (r["per_layer"] for r in traced)
    counts = {k for k, (_, unit) in first.items() if unit == "count"
              or k.endswith("rows_touched_frac")}
    assert {"engine.forward_group.calls", "training.corrupt.calls",
            "numpy.einsum.calls_per_fact", "training.optimizer_step.rows_touched_frac"} <= counts
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["training.corrupt.calls"][0] > 0
    assert 0 < first["training.optimizer_step.rows_touched_frac"][0] <= 1


def test_batch_windows_skip_the_first_batch_and_drop_a_partial_window():
    facts = [64] * 10 + [16]
    windows = worker.BatchWindows(lambda: 0.5, facts)
    for _ in facts:
        windows._batch_done(time.perf_counter())
    # batch 1 opens the first window; 2-5 and 6-9 close one each; 10-11 are partial
    assert [(n, cal) for n, _, cal in windows.samples] == [(256, 0.5), (256, 0.5)]
    assert all(sec > 0 for _, sec, _ in windows.samples)


def test_reference_rates_scale_wall_time_by_the_calibration():
    ref = run.CALIBRATION_REF_S
    # twice the work in twice the time, or the same work slowed down as much
    # as the calibration was, is the same reference rate
    samples = [(10, 1.0, ref), (20, 2.0, ref), (10, 3.0, 3 * ref), (10, 1.0, 2 * ref)]
    assert run.reference_rates(samples) == pytest.approx([10.0, 10.0, 10.0, 20.0])


def test_renamed_optimizer_step_falls_back_to_one_training_sample(tmp_path, monkeypatch):
    data = tmp_path / "data"
    planted.generate(TINY, 6, data)
    workload = dataclasses.replace(WORKLOADS["planted-full"], dataset=TINY, eval_passes=1,
                                   mrr_floor=0.0)
    monkeypatch.delattr(worker.training, "optimizer_step")
    monkeypatch.setattr(worker.training, "train", lambda kb, cfg, tcfg: types.SimpleNamespace(
        params=worker.ModelParams.init(cfg, kb.vocab), trace=[types.SimpleNamespace(train_loss=1.0)]))
    rounds = worker.measure(workload, data, seed=6, seconds=0.0, max_rounds=1,
                            calibrate=False)["rounds"]
    assert [n for n, _, _ in rounds[0]["train_samples"]] == [TINY.n_train]
