"""Tests for the parallel deterministic sweep engine.

The headline property: a parallel run is digest-identical to a serial
run, task by task, and the engine can *prove* it by replaying sampled
tasks.  Everything else here guards the machinery that property rests
on -- order-free seed derivation, result ordering, and the verifier's
ability to actually catch a nondeterministic driver.
"""

import pytest

from repro.exec import (
    SweepEngine,
    driver,
    get_driver,
    make_tasks,
    payload_digest,
    run_task,
)
from repro.sim.random import derived_seed, derived_stream

FABRIC_GRID = {"n_ports": [4, 8], "load": [0.6, 0.9], "slots": [300]}


@driver("toy")
def toy_driver(params, seed):
    """Pure function of (params, seed): the shape every driver must have."""
    rng = derived_stream("test/toy", seed)
    return {
        "value": rng.random(),
        "scaled": params.get("x", 1) * rng.randrange(1_000),
    }


@driver("stateful")
def stateful_driver(params, seed):
    """Deliberately broken: leaks process identity into the payload, the
    worker-dependence the engine's contract forbids."""
    import os

    return {"value": os.getpid()}


class TestTaskDerivation:
    def test_grid_expansion_sorted_and_complete(self):
        tasks = make_tasks("toy", {"b": [1, 2], "a": [3]}, repeats=2)
        assert len(tasks) == 4
        assert [t.index for t in tasks] == [0, 1, 2, 3]
        assert tasks[0].name == "exec/toy/a=3,b=1/rep0"
        assert tasks[1].name == "exec/toy/a=3,b=1/rep1"
        assert tasks[2].name == "exec/toy/a=3,b=2/rep0"

    def test_insertion_order_is_irrelevant(self):
        forward = make_tasks("toy", {"a": [1], "b": [2, 3]}, root_seed=5)
        backward = make_tasks("toy", {"b": [2, 3], "a": [1]}, root_seed=5)
        assert forward == backward

    def test_seeds_are_name_derived_not_positional(self):
        """Growing the grid or adding repeats never reseeds existing
        tasks -- each seed is a pure function of the task name."""
        small = make_tasks("toy", {"x": [1]}, repeats=1, root_seed=9)
        grown = make_tasks("toy", {"x": [1, 2]}, repeats=3, root_seed=9)
        by_name = {t.name: t.seed for t in grown}
        for task in small:
            assert by_name[task.name] == task.seed
            assert task.seed == derived_seed(task.name, 9)

    def test_unknown_driver_fails_fast(self):
        with pytest.raises(KeyError):
            make_tasks("no-such-driver", {"x": [1]})
        with pytest.raises(KeyError):
            get_driver("no-such-driver")


class TestDigest:
    def test_payload_digest_is_key_order_free(self):
        assert payload_digest({"a": 1, "b": 2}) == payload_digest(
            {"b": 2, "a": 1}
        )

    def test_payload_digest_separates_values(self):
        assert payload_digest({"a": 1}) != payload_digest({"a": 2})


class TestParallelEqualsSerial:
    def test_fabric_grid_digest_identical(self):
        """>= 3 grid points, serially and across 4 workers: identical
        digests in identical order."""
        tasks = make_tasks("fabric", FABRIC_GRID, repeats=1, root_seed=3)
        assert len(tasks) >= 3
        serial = SweepEngine(workers=0).run(tasks)
        parallel = SweepEngine(workers=4).run(tasks)
        assert [r.digest for r in serial] == [r.digest for r in parallel]
        assert [r.task for r in parallel] == tasks, "results out of order"
        assert [r.payload for r in serial] == [r.payload for r in parallel]

    def test_repeats_get_distinct_seeds_and_payloads(self):
        tasks = make_tasks(
            "fabric",
            {"n_ports": [8], "load": [0.9], "slots": [300]},
            repeats=3,
        )
        results = SweepEngine(workers=0).run(tasks)
        digests = {r.digest for r in results}
        assert len(digests) == 3, "repeat seeds must decorrelate the runs"

    def test_verify_passes_on_honest_results(self):
        tasks = make_tasks("toy", {"x": [1, 2, 3, 4]}, root_seed=2)
        engine = SweepEngine(workers=2)
        results = engine.run(tasks)
        assert engine.verify(results, sample=3, root_seed=2) == []

    def test_verify_catches_worker_dependent_results(self):
        """A driver leaking process identity produces different payloads
        in pool workers than in a serial replay; the digest comparison
        must notice."""
        tasks = make_tasks("stateful", {"x": [1, 2, 3]})
        engine = SweepEngine(workers=2)
        results = engine.run(tasks)
        mismatches = engine.verify(results, sample=3)
        assert mismatches, "verify must flag the nondeterministic driver"
        original, replay = mismatches[0]
        assert original.digest != replay.digest

    def test_verify_empty_results(self):
        assert SweepEngine().verify([]) == []


class TestDriverRegistry:
    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            driver("toy")(lambda params, seed: {})

    def test_run_task_digests_its_payload(self):
        task = make_tasks("toy", {"x": [7]})[0]
        result = run_task(task)
        assert result.digest == payload_digest(result.payload)

