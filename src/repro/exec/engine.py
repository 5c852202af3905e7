"""The sweep engine: deterministic fan-out of experiment grids.

The determinism contract, in full:

- **Per-task seeds are positional-order-free.**  A task's seed is
  ``derived_seed(task name, root seed)`` where the name encodes the
  driver, the grid point (keys sorted), and the repeat index.  Adding a
  grid value or another repeat never perturbs any other task's seed.
- **Workers never share a simulator.**  Every task builds its own world
  (its own :class:`~repro.sim.kernel.Simulator`, RNG substreams, and
  network) from its seed inside the worker process; no simulation state
  crosses a process boundary -- only plain-data payloads come back.
- **Results are returned in task order**, regardless of which worker
  finished first, so downstream aggregation is schedule-independent.
- **Payloads are content-digested** (canonical JSON, SHA-256), which
  makes parallel == serial *checkable*: :meth:`SweepEngine.verify`
  replays a deterministic sample of tasks serially in-process and
  compares digests.  Any dependence on worker identity, scheduling, or
  shared state shows up as a digest mismatch.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import pickle
import time
from dataclasses import dataclass, field
from multiprocessing import get_context
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.exec.drivers import get_driver
from repro.sim.random import derived_seed, derived_stream


@dataclass(frozen=True)
class SweepTask:
    """One grid point x repeat: everything a worker needs, all picklable
    plain data (the driver travels by name, never as a callable)."""

    index: int
    driver: str
    params: Tuple[Tuple[str, Any], ...]  # sorted (key, value) pairs
    seed: int
    name: str

    def params_dict(self) -> Dict[str, Any]:
        return dict(self.params)


@dataclass(frozen=True)
class SweepResult:
    task: SweepTask
    payload: Dict[str, Any]
    digest: str


def payload_digest(payload: Mapping[str, Any]) -> str:
    """SHA-256 over the canonical JSON form of a driver payload."""
    canonical = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def make_tasks(
    driver: str,
    grid: Mapping[str, Sequence[Any]],
    repeats: int = 1,
    root_seed: int = 0,
) -> List[SweepTask]:
    """Expand a parameter grid into seeded tasks.

    Grid keys are sorted and expanded in lexicographic product order, so
    the task list (and every derived seed) is independent of the dict's
    insertion order.
    """
    if repeats < 1:
        raise ValueError(f"repeats {repeats} must be >= 1")
    get_driver(driver)  # fail fast on unknown names
    keys = sorted(grid)
    tasks: List[SweepTask] = []
    index = 0
    for combo in itertools.product(*(grid[key] for key in keys)):
        params = tuple(zip(keys, combo))
        point = ",".join(f"{key}={value}" for key, value in params)
        for rep in range(repeats):
            name = f"exec/{driver}/{point}/rep{rep}"
            tasks.append(
                SweepTask(
                    index=index,
                    driver=driver,
                    params=params,
                    seed=derived_seed(name, root_seed),
                    name=name,
                )
            )
            index += 1
    return tasks


def run_task(task: SweepTask) -> SweepResult:
    """Execute one task (module-level so worker pools can pickle it)."""
    payload = get_driver(task.driver)(task.params_dict(), task.seed)
    return SweepResult(task=task, payload=payload, digest=payload_digest(payload))


def run_task_timed(
    task: SweepTask,
) -> Tuple[SweepResult, int, float, float, float]:
    """Like :func:`run_task`, but stamped for phase attribution.

    Returns ``(result, worker pid, start_mono, end_mono, execute_s)``.
    The monotonic stamps use ``time.monotonic()``, which on Linux is
    CLOCK_MONOTONIC and therefore comparable across the parent and its
    forked/spawned workers; ``execute_s`` is a local ``perf_counter``
    span around the driver call alone.
    """
    start_mono = time.monotonic()
    exec_start = time.perf_counter()
    result = run_task(task)
    execute_s = time.perf_counter() - exec_start
    end_mono = time.monotonic()
    return result, os.getpid(), start_mono, end_mono, execute_s


@dataclass
class TaskTiming:
    """Where one task's wall-clock went, phase by phase.

    - ``serialize_s``: pickling the task payload in the parent (measured
      explicitly; the pool pickles again, but the cost is the same shape).
    - ``dispatch_s``: submit in the parent until the worker starts --
      queueing, pickle transfer, and worker availability.
    - ``execute_s``: the driver call inside the worker.
    - ``merge_s``: worker finish until the parent's result callback ran
      -- result pickling, transfer, and parent-side readiness.

    Cross-process deltas are clamped at zero: monotonic clocks are
    comparable across processes on Linux but not perfectly so elsewhere.
    """

    name: str
    worker: int
    serialize_s: float
    dispatch_s: float
    execute_s: float
    merge_s: float


@dataclass
class SweepTelemetry:
    """Per-phase, per-worker accounting for one :meth:`SweepEngine.run`.

    ``pool_startup_s`` is the cost of creating the process pool itself
    (interpreter spawn/fork + import), paid once per run and invisible in
    per-task phases -- historically the dominant term in short sweeps.
    """

    workers: int
    start_method: str
    pool_startup_s: float = 0.0
    wall_s: float = 0.0
    tasks: List[TaskTiming] = field(default_factory=list)

    def phase_totals(self) -> Dict[str, float]:
        totals = {"serialize": 0.0, "dispatch": 0.0, "execute": 0.0, "merge": 0.0}
        for t in self.tasks:
            totals["serialize"] += t.serialize_s
            totals["dispatch"] += t.dispatch_s
            totals["execute"] += t.execute_s
            totals["merge"] += t.merge_s
        return totals

    def per_worker(self) -> Dict[int, Dict[str, Any]]:
        """Aggregate task phases by worker pid (sorted by pid)."""
        workers: Dict[int, Dict[str, Any]] = {}
        for t in self.tasks:
            row = workers.setdefault(
                t.worker,
                {"tasks": 0, "dispatch": 0.0, "execute": 0.0, "merge": 0.0},
            )
            row["tasks"] += 1
            row["dispatch"] += t.dispatch_s
            row["execute"] += t.execute_s
            row["merge"] += t.merge_s
        return dict(sorted(workers.items()))

    def render(self) -> str:
        """A human-readable phase table (tools print this verbatim)."""
        lines = [
            f"sweep telemetry: {len(self.tasks)} tasks, "
            f"{self.workers} worker(s), wall {self.wall_s * 1e3:.1f} ms, "
            f"pool startup {self.pool_startup_s * 1e3:.1f} ms"
        ]
        totals = self.phase_totals()
        lines.append(
            "  phase totals (summed over tasks): "
            + ", ".join(
                f"{name} {seconds * 1e3:.1f} ms"
                for name, seconds in totals.items()
            )
        )
        header = (
            f"  {'worker':>8} {'tasks':>5} {'dispatch_ms':>12} "
            f"{'execute_ms':>11} {'merge_ms':>9}"
        )
        lines.append(header)
        for pid, row in self.per_worker().items():
            lines.append(
                f"  {pid:>8} {row['tasks']:>5} {row['dispatch'] * 1e3:>12.1f} "
                f"{row['execute'] * 1e3:>11.1f} {row['merge'] * 1e3:>9.1f}"
            )
        busy = totals["execute"]
        if self.wall_s > 0 and self.workers > 1:
            utilization = busy / (self.wall_s * self.workers)
            lines.append(
                f"  worker utilization {utilization * 100.0:.0f}% "
                f"(execute {busy * 1e3:.1f} ms across "
                f"{self.workers} workers over {self.wall_s * 1e3:.1f} ms wall)"
            )
        return "\n".join(lines)


class SweepEngine:
    """Runs sweep tasks serially or across a process pool.

    ``workers <= 1`` runs everything in-process (the reference
    schedule); larger values fan tasks out across a process pool.
    Either way the result list is in task order and digest-identical --
    the engine's whole job is to make that equivalence hold and then
    prove it via :meth:`verify`.

    Each parallel :meth:`run` uses one throwaway pool (never more
    processes than tasks) and dispatches one task per IPC round trip, so
    slow points never convoy behind fast ones.
    """

    def __init__(self, workers: int = 0, start_method: str = "") -> None:
        self.workers = workers
        self.start_method = start_method
        #: filled by :meth:`run` when called with ``telemetry=True``.
        self.last_telemetry: Optional[SweepTelemetry] = None

    def _new_pool(self, n_tasks: int):
        context = (
            get_context(self.start_method)
            if self.start_method
            else get_context()
        )
        return context.Pool(processes=min(self.workers, n_tasks))

    def run(
        self, tasks: Iterable[SweepTask], telemetry: bool = False
    ) -> List[SweepResult]:
        task_list = list(tasks)
        if telemetry:
            return self._run_telemetry(task_list)
        if self.workers <= 1 or len(task_list) <= 1:
            return [run_task(task) for task in task_list]
        pool = self._new_pool(len(task_list))
        try:
            # Pool.map preserves input order in its result list no
            # matter which worker finishes when; the trailing 1 is its
            # chunk size (one task per round trip).
            return pool.map(run_task, task_list, 1)
        finally:
            pool.terminate()
            pool.join()

    def _run_telemetry(self, task_list: List[SweepTask]) -> List[SweepResult]:
        """The instrumented run path: identical results, stamped phases.

        Uses ``apply_async`` (one submission per task, still in-order
        collection) instead of ``pool.map`` so each task gets its own
        submit and ready timestamps; the uninstrumented path stays the
        benchmarked ``pool.map`` loop.
        """
        wall_start = time.monotonic()
        telemetry = SweepTelemetry(
            workers=max(1, self.workers),
            start_method=self.start_method or "",
        )
        if self.workers <= 1 or len(task_list) <= 1:
            results = []
            pid = os.getpid()
            for task in task_list:
                result, _, start, end, execute_s = run_task_timed(task)
                results.append(result)
                telemetry.tasks.append(
                    TaskTiming(
                        name=task.name,
                        worker=pid,
                        serialize_s=0.0,
                        dispatch_s=0.0,
                        execute_s=execute_s,
                        merge_s=max(0.0, (end - start) - execute_s),
                    )
                )
            telemetry.workers = 1
            telemetry.wall_s = time.monotonic() - wall_start
            self.last_telemetry = telemetry
            return results
        telemetry.workers = min(self.workers, len(task_list))
        pool_start = time.monotonic()
        pool = self._new_pool(len(task_list))
        telemetry.pool_startup_s = time.monotonic() - pool_start
        try:
            ready_mono: Dict[int, float] = {}

            def _make_callback(position: int):
                def _on_ready(_result) -> None:
                    # Runs in the parent's result-handler thread the
                    # moment the reply is unpickled.
                    ready_mono[position] = time.monotonic()

                return _on_ready

            serialize_s: List[float] = []
            submit_mono: List[float] = []
            handles = []
            for position, task in enumerate(task_list):
                pickle_start = time.perf_counter()
                pickle.dumps(task)
                serialize_s.append(time.perf_counter() - pickle_start)
                submit_mono.append(time.monotonic())
                handles.append(
                    pool.apply_async(
                        run_task_timed,
                        (task,),
                        callback=_make_callback(position),
                    )
                )
            results = []
            for position, (task, handle) in enumerate(zip(task_list, handles)):
                result, pid, start, end, execute_s = handle.get()
                results.append(result)
                ready = ready_mono.get(position, end)
                telemetry.tasks.append(
                    TaskTiming(
                        name=task.name,
                        worker=pid,
                        serialize_s=serialize_s[position],
                        dispatch_s=max(0.0, start - submit_mono[position]),
                        execute_s=execute_s,
                        merge_s=max(0.0, ready - end),
                    )
                )
        finally:
            pool.terminate()
            pool.join()
        telemetry.wall_s = time.monotonic() - wall_start
        self.last_telemetry = telemetry
        return results

    def verify(
        self,
        results: Sequence[SweepResult],
        sample: int = 3,
        root_seed: int = 0,
    ) -> List[Tuple[SweepResult, SweepResult]]:
        """Replay a deterministic sample serially; return mismatches.

        Each sampled task re-runs in *this* process from its recorded
        seed; its payload digest must equal the one the (possibly
        parallel) run produced.  Returns ``(original, replay)`` pairs
        that disagreed -- empty means the sampled equivalence held.
        """
        if not results:
            return []
        rng = derived_stream("exec/verify", root_seed)
        count = min(sample, len(results))
        picks = sorted(rng.sample(range(len(results)), count))
        mismatches: List[Tuple[SweepResult, SweepResult]] = []
        for position in picks:
            original = results[position]
            replay = run_task(original.task)
            if replay.digest != original.digest:
                mismatches.append((original, replay))
        return mismatches
