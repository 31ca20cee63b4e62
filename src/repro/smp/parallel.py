"""Process-parallel experiment runner with deterministic results.

Figure and matrix sweeps are embarrassingly parallel -- every cell is a
pure function of its parameters -- so they should fan out across cores.
What must *not* change with the worker count is the answer:

* **Seeding** -- each task derives its own seed from the master seed
  and its name via :func:`repro.sim.rng.derive_seed` (SHA-256, immune
  to PYTHONHASHSEED and process boundaries), so task ``k`` sees the
  same random stream whether it runs first, last, inline, or in a
  subprocess.
* **Ordering** -- results are returned in *submission* order, however
  the workers happen to finish.  ``run_tasks(tasks, jobs=1)`` and
  ``run_tasks(tasks, jobs=4)`` return identical lists, so artifacts
  serialized from them are byte-identical.
* **Failure** -- a task that raises (or a worker process that dies)
  surfaces as a :class:`ParallelTaskError` naming the task, instead of
  a hang or a bare traceback from the middle of a pool.  A worker death
  fails every unfinished task of its pool alike, so before naming one
  the runner re-runs each such task alone: the one that dies again is
  the one named.
* **Retry** -- a long sweep should not lose an hour of work to one
  OOM-killed worker.  ``retries=N`` re-executes failed tasks up to N
  extra times (rebuilding the pool when a worker death broke it, with
  optional exponential backoff between rounds) before surfacing the
  error.  A retried task re-runs with *the same* arguments -- its seed
  is a pure function of (master seed, task name), not of the attempt
  -- so a run that needed retries produces byte-identical artifacts to
  one that did not.  Retry counts land in a :class:`RetryLog` so
  artifacts can report how bumpy the road was
  (:func:`attempt_seed` exists for tasks that *want* per-attempt
  variation, e.g. probing a flaky scenario from a different angle).

Task callables must be module-level functions and their arguments
picklable (the multiprocessing contract).  ``jobs=1`` runs inline --
same code path a worker would run, no pool, easier debugging.
"""

from __future__ import annotations

import dataclasses
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..sim.rng import derive_seed

__all__ = [
    "Task",
    "ParallelTaskError",
    "RetryLog",
    "attempt_seed",
    "run_tasks",
    "task_seed",
]


class ParallelTaskError(RuntimeError):
    """One task of a parallel run failed; carries the task's name."""

    def __init__(self, task_name: str, message: str):
        super().__init__(f"task {task_name!r} failed: {message}")
        self.task_name = task_name


@dataclasses.dataclass(frozen=True)
class Task:
    """One unit of work: a picklable function and its arguments."""

    name: str
    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Optional[Dict[str, Any]] = None

    def run(self) -> Any:
        return self.fn(*self.args, **(self.kwargs or {}))


def task_seed(master_seed: int, task_name: str) -> int:
    """The per-task seed every process derives identically.

    Deliberately attempt-independent: a task that crashed and was
    retried re-runs the exact same experiment, so artifacts stay
    byte-identical whether or not retries happened.
    """
    return derive_seed(master_seed, f"task:{task_name}")


def attempt_seed(master_seed: int, task_name: str, attempt: int) -> int:
    """A deterministic seed for one (task, attempt) pair.

    Attempt 0 equals :func:`task_seed`, so callers that thread the
    attempt number through their task arguments reproduce the plain
    seed on the first try and get fresh -- but replayable -- streams
    on each retry.
    """
    if attempt < 0:
        raise ValueError(f"attempt must be >= 0, got {attempt}")
    if attempt == 0:
        return task_seed(master_seed, task_name)
    return derive_seed(master_seed, f"task:{task_name}:attempt{attempt}")


@dataclasses.dataclass
class RetryLog:
    """Where retries went during one :func:`run_tasks` call.

    ``by_task`` maps task name to *extra* attempts consumed (a task
    that succeeded first try does not appear).  Sweeps surface
    :attr:`total` in their artifacts so a result produced over a
    bumpy pool is distinguishable from a clean one.
    """

    by_task: Dict[str, int] = dataclasses.field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(self.by_task.values())

    def record(self, task_name: str) -> None:
        self.by_task[task_name] = self.by_task.get(task_name, 0) + 1

    def as_dict(self) -> Dict[str, Any]:
        return {"total": self.total, "by_task": dict(self.by_task)}


def _backoff_sleep(backoff: float, completed_rounds: int) -> None:
    if backoff > 0.0:
        time.sleep(backoff * (2.0 ** (completed_rounds - 1)))


def _probe() -> None:
    """No-op worker task used to check whether a pool is still alive."""


def _pool_is_broken(pool: ProcessPoolExecutor) -> bool:
    """Whether ``pool`` itself is broken (a worker process died).

    A task that *raises* ``BrokenProcessPool`` is indistinguishable,
    at ``future.result()``, from the pool delivering its own breakage
    -- but the two need different handling (the former is an ordinary
    task failure; the latter poisons every sibling future).  A broken
    executor refuses new submissions with ``BrokenProcessPool``
    synchronously, so submitting a no-op discriminates the cases
    without touching executor internals.
    """
    try:
        future = pool.submit(_probe)
    except (BrokenProcessPool, RuntimeError):
        # RuntimeError: the pool raced into shutdown; either way it
        # cannot run tasks any more.
        return True
    try:
        future.result()
    except BrokenProcessPool:
        return True
    return False


#: The failure message of a task whose worker process died.
_DEATH = (
    "worker process died before finishing (crash or OOM kill); rerun"
    " with --jobs 1 to see the failure inline"
)

#: index -> (exception, message, whether its worker process died).
_Failures = Dict[int, Tuple[BaseException, str, bool]]


def _run_pool(
    tasks: Sequence[Task],
    indices: Sequence[int],
    jobs: int,
    results: List[Any],
    note: Callable[[str], None],
) -> _Failures:
    """Run ``tasks[index]`` for each index in one fresh pool.

    Stores each result in ``results[index]`` and returns the failures.
    A broken pool poisons the remaining futures; each is collected
    individually, so results that finished before the death are kept
    and only true casualties fail.
    """
    failures: _Failures = {}
    # No ``with`` block: the context manager's exit calls
    # ``shutdown(wait=True)``, which joins worker processes -- on a
    # poisoned pool that blocks the retry rebuild behind dead or
    # wedged workers.  The only shutdown ever issued here is the
    # non-waiting one in the ``finally``.
    pool = ProcessPoolExecutor(max_workers=jobs)
    try:
        futures = {
            index: pool.submit(
                tasks[index].fn,
                *tasks[index].args,
                **(tasks[index].kwargs or {}),
            )
            for index in indices
        }
        # Collect in submission order: determinism beats a marginal
        # latency win from as_completed, and the pool keeps every core
        # busy regardless of the order we *wait* in.
        for index in indices:
            try:
                results[index] = futures[index].result()
                note(tasks[index].name)
            except BrokenProcessPool as exc:
                if _pool_is_broken(pool):
                    failures[index] = (exc, _DEATH, True)
                else:
                    # The *task* raised BrokenProcessPool; the pool is
                    # fine and this is an ordinary task failure.
                    failures[index] = (exc, str(exc), False)
            except Exception as exc:
                failures[index] = (exc, str(exc), False)
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
    return failures


def run_tasks(
    tasks: Sequence[Task],
    jobs: int = 1,
    *,
    progress: Optional[Callable[[str], None]] = None,
    retries: int = 0,
    backoff: float = 0.0,
    retry_log: Optional[RetryLog] = None,
) -> List[Any]:
    """Run every task; return results in submission order.

    ``jobs=1`` executes inline; ``jobs>1`` fans out over a
    :class:`~concurrent.futures.ProcessPoolExecutor`.  Either way the
    returned list is indexed like ``tasks``.

    ``retries`` bounds how many *extra* attempts each failed task
    gets; ``backoff`` seconds (doubling per round) separate retry
    rounds.  A worker death (``BrokenProcessPool``) poisons every
    uncollected future in the pool, so the pool is rebuilt and only
    the tasks without results re-run.  Because the poison hides which
    task died, each task still failing that way after the last round
    re-runs alone in a fresh one-worker pool (not counted as a retry):
    a bystander then returns its result, and the task that dies again
    is the one named.  When a task exhausts its attempts,
    :class:`ParallelTaskError` names it -- the earliest such task in
    submission order -- with the underlying failure chained.  Pass
    ``retry_log`` to receive per-task retry counts.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if backoff < 0.0:
        raise ValueError(f"backoff must be >= 0, got {backoff}")
    names = [task.name for task in tasks]
    if len(set(names)) != len(names):
        raise ValueError("task names must be unique (they key seeds and errors)")
    log = retry_log if retry_log is not None else RetryLog()

    def note(name: str) -> None:
        if progress:
            progress(name)

    if jobs == 1 or len(tasks) <= 1:
        results = []
        for task in tasks:
            for attempt in range(retries + 1):
                try:
                    results.append(task.run())
                    break
                except Exception as exc:
                    if attempt == retries:
                        raise ParallelTaskError(task.name, str(exc)) from exc
                    log.record(task.name)
                    _backoff_sleep(backoff, attempt + 1)
            note(task.name)
        return results

    results: List[Any] = [None] * len(tasks)
    pending = list(range(len(tasks)))
    for round_number in range(retries + 1):
        if round_number:
            _backoff_sleep(backoff, round_number)
        failures = _run_pool(tasks, pending, jobs, results, note)
        if not failures:
            return results
        pending = sorted(failures)
        if round_number < retries:
            for index in pending:
                log.record(tasks[index].name)

    # A worker death fails every unfinished task of its pool alike, so
    # a bystander looks just like the task that died: re-run each alone.
    for index in pending:
        if failures[index][2]:
            failures.pop(index)
            failures.update(_run_pool(tasks, [index], 1, results, note))
    if not failures:
        return results
    first = min(failures)
    cause, message, _died = failures[first]
    raise ParallelTaskError(tasks[first].name, message) from cause
