"""Tests for the deterministic process-parallel task runner."""

import os
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.sim.rng import derive_seed
from repro.smp import (
    ParallelTaskError,
    RetryLog,
    Task,
    attempt_seed,
    run_tasks,
    task_seed,
)


# Task callables must be module-level so worker processes can pickle them.
def _square(value):
    return value * value


def _fail(message):
    raise RuntimeError(message)


def _die():
    os._exit(17)  # simulate a worker killed mid-task (segfault, OOM)


def _seed_echo(master, name):
    return task_seed(master, name)


def _flaky(sentinel, fail_times):
    """Fail (raise) until ``sentinel`` has recorded ``fail_times`` attempts.

    The attempt count lives in a file so it survives process boundaries.
    """
    attempts = 0
    if os.path.exists(sentinel):
        attempts = int(open(sentinel).read())
    with open(sentinel, "w") as handle:
        handle.write(str(attempts + 1))
    if attempts < fail_times:
        raise RuntimeError(f"transient failure {attempts}")
    return f"ok after {attempts} failures"


def _die_once(sentinel):
    """Hard-kill the worker on the first attempt only."""
    if not os.path.exists(sentinel):
        with open(sentinel, "w") as handle:
            handle.write("died")
        os._exit(17)
    return "survived"


def _bystander(marker, value):
    """A task a sibling's crash always takes down; run alone, it returns.

    Its first run creates ``marker`` and then blocks until the broken
    pool kills it, so it can only end as a casualty, never with its own
    result (the wait is bounded: a pool that never breaks fails the
    test instead of hanging it).  A later run -- the runner's re-run in
    isolation -- finds ``marker`` and returns ``value``.
    """
    if os.path.exists(marker):
        return value
    open(marker, "w").close()
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        time.sleep(0.01)
    return "outlived the crash"


def _crash_beside(marker, once=None):
    """Kill the worker once the bystander is running (``marker`` exists).

    With ``once`` (a sentinel path) only the first attempt dies; later
    attempts return ``"survived"``.
    """
    deadline = time.monotonic() + 60.0
    while not os.path.exists(marker) and time.monotonic() < deadline:
        time.sleep(0.01)
    if once is not None:
        if os.path.exists(once):
            return "survived"
        open(once, "w").close()
    os._exit(17)


def tasks_for(values):
    return [
        Task(name=f"square-{value}", fn=_square, args=(value,))
        for value in values
    ]


class TestRunTasks:
    def test_inline_preserves_order(self):
        assert run_tasks(tasks_for([3, 1, 2]), jobs=1) == [9, 1, 4]

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_parallel_matches_inline(self, jobs):
        values = list(range(10))
        assert run_tasks(tasks_for(values), jobs=jobs) == (
            run_tasks(tasks_for(values), jobs=1)
        )

    def test_kwargs_forwarded(self):
        task = Task(name="echo", fn=_seed_echo, args=(5,), kwargs={"name": "x"})
        assert run_tasks([task], jobs=1) == [task_seed(5, "x")]

    def test_jobs_validated(self):
        with pytest.raises(ValueError):
            run_tasks([], jobs=0)

    def test_duplicate_names_rejected(self):
        tasks = [Task(name="same", fn=_square, args=(i,)) for i in range(2)]
        with pytest.raises(ValueError, match="unique"):
            run_tasks(tasks, jobs=1)

    def test_progress_callback(self):
        seen = []
        run_tasks(tasks_for([1, 2]), jobs=1, progress=seen.append)
        assert seen == ["square-1", "square-2"]

    def test_inline_failure_names_task(self):
        tasks = tasks_for([1]) + [Task(name="boom", fn=_fail, args=("bad",))]
        with pytest.raises(ParallelTaskError, match="boom.*bad") as err:
            run_tasks(tasks, jobs=1)
        assert err.value.task_name == "boom"

    def test_parallel_failure_names_task(self):
        tasks = tasks_for([1, 2]) + [Task(name="boom", fn=_fail, args=("bad",))]
        with pytest.raises(ParallelTaskError, match="boom"):
            run_tasks(tasks, jobs=2)

    def test_worker_crash_surfaces_no_hang(self):
        """A dying worker process raises a clear error instead of hanging."""
        tasks = tasks_for([1, 2]) + [Task(name="crash", fn=_die)]
        with pytest.raises(ParallelTaskError, match="worker process died"):
            run_tasks(tasks, jobs=2)


class TestRetries:
    def test_inline_retry_recovers(self, tmp_path):
        log = RetryLog()
        task = Task(name="flaky", fn=_flaky, args=(str(tmp_path / "s"), 2))
        assert run_tasks([task], jobs=1, retries=2, retry_log=log) == [
            "ok after 2 failures"
        ]
        assert log.by_task == {"flaky": 2}
        assert log.total == 2

    def test_inline_retries_exhausted(self, tmp_path):
        task = Task(name="flaky", fn=_flaky, args=(str(tmp_path / "s"), 5))
        with pytest.raises(ParallelTaskError, match="flaky") as err:
            run_tasks([task], jobs=1, retries=1)
        assert err.value.task_name == "flaky"

    def test_pool_soft_failure_retried(self, tmp_path):
        log = RetryLog()
        tasks = tasks_for([1, 2]) + [
            Task(name="flaky", fn=_flaky, args=(str(tmp_path / "s"), 1))
        ]
        results = run_tasks(tasks, jobs=2, retries=1, retry_log=log)
        assert results == [1, 4, "ok after 1 failures"]
        assert log.by_task == {"flaky": 1}

    def test_pool_worker_death_retried(self, tmp_path):
        """A killed worker breaks the whole pool; the runner rebuilds it
        and re-runs only the tasks that never produced a result."""
        log = RetryLog()
        tasks = tasks_for([1, 2, 3]) + [
            Task(name="crash", fn=_die_once, args=(str(tmp_path / "s"),))
        ]
        results = run_tasks(tasks, jobs=2, retries=2, retry_log=log)
        assert results == [1, 4, 9, "survived"]
        assert log.by_task.get("crash", 0) >= 1

    def test_pool_exhaustion_names_first_failure(self):
        tasks = tasks_for([1]) + [Task(name="boom", fn=_fail, args=("bad",))]
        with pytest.raises(ParallelTaskError, match="boom") as err:
            run_tasks(tasks, jobs=2, retries=1)
        assert err.value.task_name == "boom"

    def test_retried_results_identical_to_clean_run(self, tmp_path):
        """A run that needed retries returns the same list as one that
        did not -- retries must not perturb artifacts."""
        clean = run_tasks(tasks_for([5, 6]), jobs=1)
        bumpy_tasks = tasks_for([5, 6])
        # A flaky extra task exercises the retry loop in the same run.
        bumpy_tasks.append(
            Task(name="flaky", fn=_flaky, args=(str(tmp_path / "s"), 1))
        )
        bumpy = run_tasks(bumpy_tasks, jobs=2, retries=1)
        assert bumpy[:2] == clean

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="retries"):
            run_tasks(tasks_for([1]), jobs=1, retries=-1)

    def test_negative_backoff_rejected(self):
        with pytest.raises(ValueError, match="backoff"):
            run_tasks(tasks_for([1]), jobs=1, backoff=-0.5)

    def test_retry_log_as_dict(self):
        log = RetryLog()
        log.record("a")
        log.record("a")
        log.record("b")
        assert log.as_dict() == {
            "total": 3,
            "by_task": {"a": 2, "b": 1},
        }


class TestAttemptSeeds:
    def test_attempt_zero_is_task_seed(self):
        assert attempt_seed(7, "cell", 0) == task_seed(7, "cell")

    def test_later_attempts_differ_and_are_stable(self):
        first = attempt_seed(7, "cell", 1)
        assert first != task_seed(7, "cell")
        assert first == attempt_seed(7, "cell", 1)
        assert first != attempt_seed(7, "cell", 2)

    def test_negative_attempt_rejected(self):
        with pytest.raises(ValueError):
            attempt_seed(7, "cell", -1)


class TestTaskSeeds:
    def test_stable_across_calls(self):
        assert task_seed(7, "cell-a") == task_seed(7, "cell-a")

    def test_distinct_per_task_and_master(self):
        seeds = {
            task_seed(master, name)
            for master in (1, 2)
            for name in ("a", "b", "c")
        }
        assert len(seeds) == 6

    def test_matches_derive_seed_namespace(self):
        assert task_seed(3, "x") == derive_seed(3, "task:x")

    def test_same_in_worker_process(self):
        task = Task(name="echo", fn=_seed_echo, args=(42, "cell"))
        inline = run_tasks([task], jobs=1)
        # Re-run in a pool: the derived seed must not depend on process.
        forked = run_tasks(
            [task, Task(name="pad", fn=_square, args=(0,))], jobs=2
        )
        assert forked[0] == inline[0] == task_seed(42, "cell")

    def test_derive_seed_rejects_non_int(self):
        with pytest.raises(TypeError):
            derive_seed("7", "x")


def _raise_broken(message):
    """A task that itself raises BrokenProcessPool (the pool is fine)."""
    from concurrent.futures.process import BrokenProcessPool

    raise BrokenProcessPool(message)


def _raise_broken_once(sentinel, message):
    """Raise BrokenProcessPool on the first attempt only."""
    from concurrent.futures.process import BrokenProcessPool

    if not os.path.exists(sentinel):
        with open(sentinel, "w") as handle:
            handle.write("raised")
        raise BrokenProcessPool(message)
    return "recovered"


class TestPoisonedPoolShutdown:
    """The retry rebuild must never join a poisoned pool (wait=True)."""

    def test_rebuild_never_waits_on_poisoned_pool(self, tmp_path, monkeypatch):
        from repro.smp import parallel as parallel_module

        calls = []

        class RecordingPool(ProcessPoolExecutor):
            def shutdown(self, wait=True, *, cancel_futures=False):
                calls.append((wait, cancel_futures))
                super().shutdown(wait=wait, cancel_futures=cancel_futures)

        monkeypatch.setattr(
            parallel_module, "ProcessPoolExecutor", RecordingPool
        )
        tasks = tasks_for([1, 2, 3]) + [
            Task(name="die-once", fn=_die_once, args=(str(tmp_path / "s"),))
        ]
        assert run_tasks(tasks, jobs=2, retries=1) == [1, 4, 9, "survived"]
        assert calls, "runner never shut its pools down"
        assert all(wait is False for wait, _ in calls), (
            f"poisoned pool joined with wait=True: {calls}"
        )
        assert all(cancel for _, cancel in calls)


class TestBrokenPoolAttribution:
    """A task raising BrokenProcessPool is not a worker death."""

    def test_task_raised_broken_pool_keeps_task_message(self):
        tasks = tasks_for([1, 2]) + [
            Task(name="impostor", fn=_raise_broken, args=("synthetic",))
        ]
        with pytest.raises(ParallelTaskError, match="synthetic") as err:
            run_tasks(tasks, jobs=2)
        assert err.value.task_name == "impostor"
        assert "worker process died" not in str(err.value)

    def test_task_raised_broken_pool_retries_like_any_failure(self, tmp_path):
        log = RetryLog()
        tasks = tasks_for([1, 2]) + [
            Task(
                name="impostor",
                fn=_raise_broken_once,
                args=(str(tmp_path / "s"), "synthetic"),
            )
        ]
        assert run_tasks(tasks, jobs=2, retries=1, retry_log=log) == [
            1,
            4,
            "recovered",
        ]
        assert log.by_task == {"impostor": 1}

    def test_real_worker_death_still_attributed(self):
        tasks = tasks_for([1]) + [Task(name="crash", fn=_die)]
        with pytest.raises(
            ParallelTaskError, match="worker process died"
        ) as err:
            run_tasks(tasks, jobs=2)
        assert err.value.task_name == "crash"

    def test_bystander_rerun_alone_and_crash_named(self, tmp_path):
        """The bystander precedes the crash in submission order and is
        always poisoned by it; run alone it succeeds, so the error names
        the task that dies again -- and isolation is not a retry."""
        marker = str(tmp_path / "bystander-started")
        log = RetryLog()
        tasks = [
            Task(name="bystander", fn=_bystander, args=(marker, 42)),
            Task(name="crash", fn=_crash_beside, args=(marker,)),
        ]
        with pytest.raises(
            ParallelTaskError, match="worker process died"
        ) as err:
            run_tasks(tasks, jobs=2, retry_log=log)
        assert err.value.task_name == "crash"
        assert log.total == 0

    def test_isolated_reruns_keep_results(self, tmp_path):
        """When no task dies again alone, the run succeeds."""
        marker = str(tmp_path / "bystander-started")
        tasks = [
            Task(name="bystander", fn=_bystander, args=(marker, 42)),
            Task(
                name="crash",
                fn=_crash_beside,
                args=(marker, str(tmp_path / "died")),
            ),
        ]
        log = RetryLog()
        assert run_tasks(tasks, jobs=2, retry_log=log) == [42, "survived"]
        assert log.total == 0
