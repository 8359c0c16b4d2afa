"""Training on the thread pool gives the serial bits, at any worker count."""

import functools
import multiprocessing
import os
import sys
import threading
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from ramkb import pool, training
from ramkb.engine import GradientBuffer
from ramkb.mathcore import make_rng
from ramkb.model import ModelConfig
from ramkb.training import (
    ADAM_BLOCK_ROWS,
    AdamState,
    TrainConfig,
    batch_backward,
    optimizer_step,
    train,
)

from conftest import make_vocab, random_kb
from test_model import randomized_params
from test_training import spread_values

MODES = {
    "latent": {},
    "extended": {"role_multiplicity": 2, "patterns_per_role": 2},
    "explicit": {},
    "preset:ComplEx": {},
}


class RunAtOnce:
    """An executor that runs each task on a thread of its own before `submit`
    returns: no task can be cancelled, so no group is pulled back on the
    calling thread."""

    def submit(self, fn, *args):
        future = Future()
        thread = threading.Thread(target=lambda: future.set_result(fn(*args)))
        thread.start()
        thread.join(60)
        assert future.done(), "a task did not finish"
        return future


def counting_executor(monkeypatch, make=None):
    """Patch pool.executor to count its calls; `make` gives the executor, by default the pool."""
    make, calls = make or pool.executor, []
    monkeypatch.setattr(pool, "executor", lambda: calls.append(1) or make())
    return calls


def mode_case(mode):
    """A KB of 30 entities in arities 2, 3 and 4 (2 only for presets) and randomized params."""
    arities = (2,) if mode.startswith("preset:") else (2, 3, 4)
    kb = random_kb(30, arities, n_train=40, seed=41, explicit_roles=mode == "explicit")
    cfg = ModelConfig(embed_dim=3, multiplicity=2, latent_size=2, mode=mode, **MODES[mode])
    return kb, randomized_params(cfg, kb.vocab, seed=42)


def batches(kb):
    """Batches of mixed arities; of one arity; and of one fact per arity but one."""
    by_arity = {}
    for fact in kb.train:
        by_arity.setdefault(fact.arity, []).append(fact)
    firsts = [facts[0] for facts in by_arity.values()]
    return {
        "mixed": kb.train[:16],
        "one group": by_arity[2][:6],
        "one-fact groups": by_arity[2][:5] + firsts[1:],
        "one fact": kb.train[:1],
    }


def backward(params, facts, negatives, dropout):
    rngs = [make_rng(43, 7)] * len(facts)  # one generator per batch, as train() passes
    return batch_backward(params, facts, negatives, dropout, fact_rngs=rngs)


def assert_same_gradient(got, want):
    (loss, buf), (want_loss, want_buf) = got, want
    assert repr(loss) == repr(want_loss)
    dense, want_dense = buf.dense(), want_buf.dense()
    assert list(dense) == list(want_dense)  # the slots in the order of first writes
    for key, grad in want_dense.items():
        np.testing.assert_array_equal(dense[key], grad, err_msg=str(key))
    assert buf.touched.keys() == want_buf.touched.keys()
    for key, touched in want_buf.touched.items():
        np.testing.assert_array_equal(buf.touched[key], touched)


@pytest.mark.parametrize("mode", list(MODES))
@pytest.mark.parametrize("dropout", [0.0, 0.2])
@pytest.mark.parametrize("negatives", ["full", 4])
def test_pooled_batch_backward_equals_serial_at_any_worker_count(mode, dropout, negatives,
                                                                  monkeypatch):
    kb, params = mode_case(mode)
    monkeypatch.setattr(pool, "WORKERS", 1)
    serial = {name: backward(params, facts, negatives, dropout)
              for name, facts in batches(kb).items()}
    monkeypatch.setattr(training, "POOL_MIN_CELLS", 0)  # every batch is wide enough
    for make in (None, RunAtOnce):
        calls = counting_executor(monkeypatch, make)
        for workers in (1, 2, 3, 5):
            monkeypatch.setattr(pool, "WORKERS", workers)
            for name, facts in batches(kb).items():
                assert_same_gradient(backward(params, facts, negatives, dropout), serial[name])
                assert len(calls) == (workers > 1), (workers, name)
                calls.clear()


def test_only_wide_batches_take_the_pool(monkeypatch):
    """The test is the sum of B * a * C candidate scores over the groups."""
    kb = random_kb(30, (2, 3), n_train=8, seed=44)
    params = randomized_params(ModelConfig(embed_dim=3, multiplicity=2), kb.vocab, seed=45)
    n_slots = sum(fact.arity for fact in kb.train)
    monkeypatch.setattr(pool, "WORKERS", 2)
    calls = counting_executor(monkeypatch)
    for negatives, n_cand in (("full", 30), (4, 5), (100, 30)):  # sampled clips to 29 others
        for cells, pooled in ((n_slots * n_cand, True), (n_slots * n_cand + 1, False)):
            monkeypatch.setattr(training, "POOL_MIN_CELLS", cells)
            backward(params, kb.train, negatives, 0.2)
            assert bool(calls) == pooled, (negatives, cells)
            calls.clear()


def test_sampled_planted_batches_stay_serial():
    """64 facts of arity 2 to 6 with 50 sampled negatives each fall below the
    pool's threshold; full negatives over 3,000 entities are far above it."""
    assert 64 * 6 * 51 < training.POOL_MIN_CELLS < 64 * 2 * 3000


@pytest.mark.parametrize("rows", [
    np.arange(ADAM_BLOCK_ROWS),  # one block
    np.arange(2 * ADAM_BLOCK_ROWS),  # two blocks
    np.arange(7, 7 + 3 * ADAM_BLOCK_ROWS),  # three blocks, past row 0
    np.arange(3, 3 + 2 * ADAM_BLOCK_ROWS + 100),  # a ragged last block
], ids=["1 block", "2 blocks", "3 blocks", "ragged"])
def test_adam_block_split_equals_the_serial_loop(rows, monkeypatch):
    """Each step's parameters and Adam state equal the serial step's, bit for
    bit, and a run of two blocks or more is dealt out to the pool."""
    vocab = make_vocab(3 * ADAM_BLOCK_ROWS + 20, (2,))
    params = randomized_params(ModelConfig(embed_dim=3, multiplicity=2), vocab, seed=46)
    rng = np.random.default_rng(47)
    shape = params.data[("ent",)].shape[1:]
    grads = [spread_values(rng, rows.shape + shape) * 1e-4 for _ in range(3)]
    n_blocks = -(-rows.size // ADAM_BLOCK_ROWS)
    calls = counting_executor(monkeypatch)
    results = {}
    for workers in (1, 2, 3, 5):
        monkeypatch.setattr(pool, "WORKERS", workers)
        run = params.copy()
        state = AdamState()
        for grad in grads:  # later steps start from the moments of earlier ones
            buf = GradientBuffer(run)
            buf.add_rows(("ent",), rows, grad)
            buf.add(("basis_u",), np.ones_like(run.data[("basis_u",)]))  # a dense slot too
            optimizer_step(run, buf, state, lr=0.05)
        assert len(calls) == (3 if workers > 1 and n_blocks > 1 else 0), workers
        calls.clear()
        results[workers] = (run.data, state.m1, state.m2, state.steps)
    for workers, got in results.items():
        for part, want in zip(got, results[1]):
            for key in want:
                np.testing.assert_array_equal(part[key], want[key], err_msg=f"{workers} {key}")


def test_scattered_rows_step_on_the_calling_thread(monkeypatch):
    vocab = make_vocab(3 * ADAM_BLOCK_ROWS, (2,))
    params = randomized_params(ModelConfig(embed_dim=3, multiplicity=2), vocab, seed=48)
    rows = np.arange(0, 3 * ADAM_BLOCK_ROWS, 2)  # 1.5 blocks of rows, not one run
    buf = GradientBuffer(params)
    buf.add_rows(("ent",), rows, np.ones(rows.shape + params.data[("ent",)].shape[1:]))
    monkeypatch.setattr(pool, "WORKERS", 2)
    calls = counting_executor(monkeypatch)
    optimizer_step(params, buf, AdamState(), lr=0.05)
    assert not calls


def test_training_on_more_pool_threads_than_cores_keeps_every_bit(monkeypatch):
    """Four pool threads, switching after every few bytecodes: the trained
    parameters and losses are still the serial ones."""
    kb = random_kb(2 * ADAM_BLOCK_ROWS + 10, (2, 3, 4), n_train=60, seed=51)
    cfg = ModelConfig(embed_dim=3, multiplicity=2, latent_size=2)
    train_cfg = TrainConfig(batch_size=20, max_epochs=2, seed=7)
    monkeypatch.setattr(pool, "WORKERS", 1)
    serial = train(kb, cfg, train_cfg)
    monkeypatch.setattr(pool, "WORKERS", 5)
    monkeypatch.setattr(pool, "_pool", None)  # a pool of WORKERS - 1 threads of its own
    monkeypatch.setattr(training, "POOL_MIN_CELLS", 0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = train(kb, cfg, train_cfg)
    finally:
        sys.setswitchinterval(interval)
        if pool._pool is not None:
            pool._pool.shutdown()
    assert [r.train_loss for r in pooled.trace] == [r.train_loss for r in serial.trace]
    for key, value in serial.params.data.items():
        np.testing.assert_array_equal(pooled.params.data[key], value, err_msg=str(key))


def perfbench_targets():
    """The benchmark's wrap targets: (dotted name, span or count name)."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import worker

    return worker.SPAN_TARGETS + worker.COUNT_TARGETS


def test_no_benchmark_wrap_target_runs_off_the_calling_thread(monkeypatch):
    """The benchmark's tracer keeps one span stack: a wrapped function that
    ran on a pool thread would corrupt it. Every target resolves, and pooled
    training calls each only on the calling thread."""
    targets = perfbench_targets()
    import spans  # the tracer's module, importable once perfbench_targets ran

    caller = threading.current_thread()
    called = {}
    for target, _ in targets:
        owner, attr = spans._resolve_owner(target)
        original = getattr(owner, attr, None)
        assert callable(original), target

        def recording(*args, _original=original, _target=target, **kwargs):
            called.setdefault(_target, set()).add(threading.current_thread())
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, functools.wraps(original)(recording))
    monkeypatch.setattr(pool, "WORKERS", 2)
    monkeypatch.setattr(training, "POOL_MIN_CELLS", 0)
    calls = counting_executor(monkeypatch)
    kb = random_kb(2 * ADAM_BLOCK_ROWS + 10, (2, 3, 4), n_train=40, n_test=6, seed=49)
    cfg = ModelConfig(embed_dim=3, multiplicity=2, latent_size=2)
    for negatives in ("full", 3):
        train(kb, cfg, TrainConfig(batch_size=20, max_epochs=1, negatives=negatives, seed=5))
    assert calls  # the pool took groups and Adam blocks
    for target in ("ramkb.training.forward_group", "ramkb.training.optimizer_step",
                   "ramkb.engine.GradientBuffer.add_rows", "ramkb.training.corrupt"):
        assert target in called, target
    assert {target: threads for target, threads in called.items() if threads != {caller}} == {}


def _train_in_child(send, kb, cfg, train_cfg):
    params = train(kb, cfg, train_cfg).params
    send.send({key: value.tobytes() for key, value in params.data.items()})


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
@pytest.mark.filterwarnings("ignore:.*fork:DeprecationWarning")  # the pool's threads at fork
def test_training_in_a_forked_child_runs_on_a_pool_of_its_own(monkeypatch):
    """The child inherits the parent's pool object but none of its threads:
    a group handed to that pool would never be pulled back."""
    kb = random_kb(2 * ADAM_BLOCK_ROWS + 10, (2, 3), n_train=30, seed=50)
    cfg = ModelConfig(embed_dim=3, multiplicity=2, latent_size=2)
    train_cfg = TrainConfig(batch_size=10, max_epochs=1, seed=6)
    monkeypatch.setattr(pool, "WORKERS", 2)
    monkeypatch.setattr(training, "POOL_MIN_CELLS", 0)
    params = train(kb, cfg, train_cfg).params
    want = {key: value.tobytes() for key, value in params.data.items()}
    assert pool._pool is not None
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_train_in_child, args=(send, kb, cfg, train_cfg))
    child.start()
    try:
        assert receive.poll(60), "the forked child's training did not return"
        assert receive.recv() == want
        child.join(60)
        assert child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()
            child.join()
