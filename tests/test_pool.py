"""Every job reaches the thread pool through `pool.spread`, and training
takes one path at any worker count: in a one-CPU process each chunk of a
batch's stacked candidate rows runs on the calling thread as it is made,
otherwise on the pool. Either way a batch's gradient and the trained
parameters are the same, bit for bit."""

import ast
import functools
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import weakref
from concurrent.futures import Future
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ramkb import engine, pool
from ramkb.engine import GradientBuffer
from ramkb.gradcheck import check_batch
from ramkb.kb import split_groups
from ramkb.mathcore import make_rng
from ramkb.model import ModelConfig
from ramkb.training import (
    ADAM_BLOCK_ROWS,
    CHUNK_ROWS,
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


class StartAtOnce:
    """An executor that starts each task on a thread of its own and returns
    while it runs: every task is running, so none is pulled back, and none
    has finished when `submit` returns."""

    def __init__(self):
        self.threads = []

    def submit(self, fn, *args):
        future = Future()
        future.set_running_or_notify_cancel()

        def run():
            try:
                future.set_result(fn(*args))
            except BaseException as exc:
                future.set_exception(exc)

        self.threads.append(threading.Thread(target=run))
        self.threads[-1].start()
        return future


def counting_executor(monkeypatch, make=None):
    """Patch pool.executor to count its calls; `make` gives the executor, by default the pool."""
    make, calls = make or pool.executor, []
    monkeypatch.setattr(pool, "executor", lambda: calls.append(1) or make())
    return calls


def counting_submits(monkeypatch, make):
    """Patch pool.executor to hand each task to `make()`, an executor, and
    keep a list of the tasks submitted."""
    submitted = []

    def submit(fn, *args):
        submitted.append(fn)
        return make().submit(fn, *args)

    monkeypatch.setattr(pool, "executor", lambda: SimpleNamespace(submit=submit))
    return submitted


def mode_case(mode):
    """A KB of 30 entities in arities 2, 3 and 4 (2 only for presets) and randomized params."""
    arities = (2,) if mode.startswith("preset:") else (2, 3, 4)
    kb = random_kb(30, arities, n_train=40, seed=41, explicit_roles=mode == "explicit")
    cfg = ModelConfig(embed_dim=3, multiplicity=2, latent_size=2, mode=mode, **MODES[mode])
    return kb, randomized_params(cfg, kb.vocab, seed=42)


def batches(kb):
    """Batches of mixed arities; of one arity; of one fact per arity but one;
    and of every training fact, whose stacked rows span more than two
    chunks, with an arity group that crosses a chunk boundary."""
    arities = dict.fromkeys(kb.train.arity.tolist())  # in order of first appearance
    by_arity = {arity: kb.train[kb.train.arity == arity] for arity in arities}
    firsts = [facts[:1] for facts in by_arity.values()]
    return {
        "mixed": kb.train[:16],
        "one group": by_arity[2][:6],
        "one-fact groups": sum(firsts[1:], by_arity[2][:5]),
        "one fact": kb.train[:1],
        "across chunks": kb.train,
    }


def crosses_chunks(params, facts):
    """Whether the batch's stacked rows span more than two chunks and some
    arity group's rows lie in two chunks or more."""
    ends = np.cumsum([spec.ents.size for spec in split_groups(params.vocab, facts)])
    starts = ends - np.diff(ends, prepend=0)
    return ends[-1] > 2 * CHUNK_ROWS and bool(np.any(starts // CHUNK_ROWS != (ends - 1) // CHUNK_ROWS))


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
    assert crosses_chunks(params, batches(kb)["across chunks"])
    monkeypatch.setattr(pool, "WORKERS", 1)
    serial = {name: backward(params, facts, negatives, dropout)
              for name, facts in batches(kb).items()}
    for make in (pool.executor, RunAtOnce):
        submitted = counting_submits(monkeypatch, make)
        for workers in (1, 2, 3, 5):
            monkeypatch.setattr(pool, "WORKERS", workers)
            for name, facts in batches(kb).items():
                assert_same_gradient(backward(params, facts, negatives, dropout), serial[name])
                # one job per chunk of stacked rows, and the entity table's
                # product under full negatives
                n_chunks = -(-facts.ents.size // CHUNK_ROWS)
                want = n_chunks + (negatives == "full") if workers > 1 else 0
                assert len(submitted) == want, (workers, name)
                submitted.clear()


def test_gradcheck_on_a_batch_whose_group_crosses_a_chunk_boundary():
    """An off-by-one in the chunk rows of the kernel gradient, or of the
    entity table's product, moves a gradient that finite differences see."""
    kb, params = mode_case("latent")
    facts = batches(kb)["across chunks"]
    assert crosses_chunks(params, facts)
    params.data[("ent",)] *= 3.0  # above the comparison floor after three factors
    errors = check_batch(params, facts, "full", 0.3, [(44, i) for i in range(len(facts))])
    assert max(errors.values()) <= 1e-4, errors


@pytest.mark.parametrize(
    "env, want",
    [
        ({}, ("1", None, "all")),
        ({"OPENBLAS_NUM_THREADS": "2"}, ("2", None, 1)),
        ({"OMP_NUM_THREADS": "3"}, (None, "3", 1)),
        ({"OMP_NUM_THREADS": "1"}, (None, "1", "all")),
    ],
    ids=["unset", "openblas-2", "omp-3", "omp-1"],
)
def test_importing_ramkb_pins_blas_to_one_thread_unless_the_user_set_it(env, want):
    """In a fresh interpreter that has not loaded numpy: the BLAS variables
    after `import ramkb`, and the pool's worker count (all CPUs, or 1)."""
    clean = {k: v for k, v in os.environ.items()
             if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    src = str(Path(pool.__file__).resolve().parents[1])
    code = ("import os, ramkb; from ramkb import pool; print(repr((os.environ.get("
            "'OPENBLAS_NUM_THREADS'), os.environ.get('OMP_NUM_THREADS'), pool.WORKERS)))")
    out = subprocess.run([sys.executable, "-c", code], env={**clean, **env, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=60, check=True).stdout
    openblas, omp, workers = ast.literal_eval(out)
    assert (openblas, omp) == want[:2]
    assert workers == (len(os.sched_getaffinity(0)) if want[2] == "all" else 1)


def test_in_parts_waits_for_every_part_before_it_raises(monkeypatch):
    """A part that fails must not leave another still writing to what the
    caller goes on to use: the exception arrives after every part is done."""
    monkeypatch.setattr(pool, "WORKERS", 3)
    monkeypatch.setattr(pool, "_pool", None)
    done = [threading.Event() for _ in range(3)]

    def part(i):
        if i == 0:
            raise ValueError("part 0 failed")
        time.sleep(0.2 * i)
        done[i].set()

    try:
        with pytest.raises(ValueError, match="part 0 failed"):
            pool.in_parts(part, 3)
        assert done[1].is_set() and done[2].is_set()
    finally:
        pool._pool.shutdown()


def test_pooled_batch_waits_for_every_group_before_it_raises(monkeypatch):
    """A chunk that fails must not leave another still writing its rows:
    batch_backward raises after every chunk is done."""
    kb, params = mode_case("latent")
    # 12 binary and 4 ternary facts: 36 rows, the first chunk holding every
    # binary one, the second the last 4 ternary ones
    facts = kb.train[kb.train.arity == 2][:12] + kb.train[kb.train.arity == 3][:4]
    assert facts.ents.size == CHUNK_ROWS + 4
    executor, done = StartAtOnce(), threading.Event()
    monkeypatch.setattr(pool, "WORKERS", 2)
    monkeypatch.setattr(pool, "executor", lambda: executor)
    original = engine.group_losses

    def group_losses(scores, true_cols, scale):
        if len(scores) == CHUNK_ROWS:
            raise ValueError("arity 2 failed")
        time.sleep(0.3)
        out = original(scores, true_cols, scale)
        done.set()
        return out

    monkeypatch.setattr(engine, "group_losses", group_losses)
    try:
        with pytest.raises(ValueError, match="arity 2 failed"):
            backward(params, facts, "full", 0.0)
        assert done.is_set()
    finally:
        for thread in executor.threads:
            thread.join(60)
    assert not any(thread.is_alive() for thread in executor.threads)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_spread_yields_results_in_job_order(workers, monkeypatch):
    """Later jobs finish sooner, and the results still come in job order."""
    monkeypatch.setattr(pool, "WORKERS", workers)
    monkeypatch.setattr(pool, "_pool", None)

    def job(i):
        def run():
            time.sleep(0.01 * (6 - i))
            return i

        return run, run

    try:
        assert list(pool.spread(job(i) for i in range(6))) == list(range(6))
    finally:
        if pool._pool is not None:
            pool._pool.shutdown()


def test_spread_on_one_worker_runs_and_releases_each_job_before_the_next_is_made(monkeypatch):
    """In a one-CPU process what a job holds, a batch group's kernels and
    candidates, is gone before the next job is made: a full-negative batch
    holds one group's entity table at a time."""
    monkeypatch.setattr(pool, "WORKERS", 1)

    class Held:
        pass

    ran, held = [], []

    def job(i):
        assert ran == list(range(i))
        assert [ref() for ref in held] == [None] * i
        thing = Held()
        held.append(weakref.ref(thing))

        def run(thing=thing):
            ran.append(i)
            return i

        return run, run

    assert list(pool.spread(job(i) for i in range(4))) == [0, 1, 2, 3]


def test_spread_raises_a_pulled_back_jobs_exception_after_every_pool_job(monkeypatch):
    """The one pool thread runs job 0; the calling thread pulls back job 1,
    which fails, and the exception arrives only after job 0 is done."""
    monkeypatch.setattr(pool, "WORKERS", 2)
    monkeypatch.setattr(pool, "_pool", None)
    done, failed_on = threading.Event(), []

    def slow():
        time.sleep(0.3)
        done.set()

    def fail():
        failed_on.append(threading.current_thread())
        raise ValueError("job 1 failed")

    try:
        with pytest.raises(ValueError, match="job 1 failed"):
            list(pool.spread([(slow, slow), (fail, fail)]))
        assert done.is_set()
        assert failed_on == [threading.current_thread()]
    finally:
        pool._pool.shutdown()


@pytest.mark.parametrize("rows", [
    np.arange(ADAM_BLOCK_ROWS),  # one block
    np.arange(2 * ADAM_BLOCK_ROWS),  # two blocks
    np.arange(7, 7 + 3 * ADAM_BLOCK_ROWS),  # three blocks, past row 0
    np.arange(3, 3 + 2 * ADAM_BLOCK_ROWS + 100),  # a ragged last block
    np.arange(1, 1 + 6 * ADAM_BLOCK_ROWS, 2),  # every other row, three blocks of them
    np.unique(np.random.default_rng(45).integers(0, 6 * ADAM_BLOCK_ROWS, 1500)),  # sampled rows
], ids=["1 block", "2 blocks", "3 blocks", "ragged", "every other row", "random rows"])
def test_adam_block_split_equals_the_serial_loop(rows, monkeypatch):
    """Each step's parameters and Adam state equal the serial step's, bit for
    bit, and touched rows of two blocks or more, a run or scattered, are
    dealt out to the pool."""
    vocab = make_vocab(6 * ADAM_BLOCK_ROWS + 20, (2,))
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


def test_training_on_more_pool_threads_than_cores_keeps_every_bit(monkeypatch):
    """Four pool threads, switching after every few bytecodes: the trained
    parameters and losses are still the serial ones, under full negatives
    and under sampled ones, whose batches touch some 800 scattered entity
    rows, two Adam blocks."""
    kb = random_kb(2 * ADAM_BLOCK_ROWS + 10, (2, 3, 4), n_train=60, seed=51)
    cfg = ModelConfig(embed_dim=3, multiplicity=2, latent_size=2)
    for negatives in ("full", 30):
        train_cfg = TrainConfig(batch_size=20, max_epochs=2, negatives=negatives, seed=7)
        monkeypatch.setattr(pool, "WORKERS", 1)
        serial = train(kb, cfg, train_cfg)
        monkeypatch.setattr(pool, "WORKERS", 5)
        monkeypatch.setattr(pool, "_pool", None)  # a pool of WORKERS - 1 threads of its own
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
            np.testing.assert_array_equal(pooled.params.data[key], value, err_msg=f"{negatives} {key}")


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
