"""Run-digest tests: canonical encoding, stability, hashseed immunity."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.conform.digest import RunDigest, canonical_bytes, digest_scenario
from repro.sim.kernel import Simulator

SRC = str(Path(__file__).resolve().parents[2] / "src")

# Short enough to keep the suite snappy; long enough that the scenario
# converges, sets up its circuit, and carries traffic.
DURATION_US = 40_000.0


# ----------------------------------------------------------------------
# canonical_bytes
# ----------------------------------------------------------------------
class TestCanonicalBytes:
    def test_set_order_insensitive(self):
        assert canonical_bytes({3, 1, 2}) == canonical_bytes({2, 3, 1})
        assert canonical_bytes(frozenset("ab")) == canonical_bytes(set("ba"))

    def test_dict_order_insensitive(self):
        assert canonical_bytes({"a": 1, "b": 2}) == canonical_bytes(
            {"b": 2, "a": 1}
        )

    def test_list_order_sensitive(self):
        assert canonical_bytes([1, 2]) != canonical_bytes([2, 1])

    def test_scalar_types_distinguished(self):
        assert canonical_bytes(1) != canonical_bytes(1.0)
        assert canonical_bytes(True) != canonical_bytes(1)
        assert canonical_bytes("1") != canonical_bytes(1)
        assert canonical_bytes(None) != canonical_bytes(False)

    def test_rejects_arbitrary_objects(self):
        class Opaque:
            pass

        with pytest.raises(TypeError):
            canonical_bytes(Opaque())
        with pytest.raises(TypeError):
            canonical_bytes({"nested": Opaque()})

    def test_rejects_node_ids_and_epoch_tags(self):
        """Tuples underneath, yet refused like any other component value:
        a fingerprint reduces them to plain data (``str``) first."""
        from repro._types import switch_id
        from repro.core.reconfig.epoch import GENESIS, EpochTag

        for value in (switch_id(3), EpochTag(1, switch_id(0)), GENESIS):
            with pytest.raises(TypeError):
                canonical_bytes(value)
            with pytest.raises(TypeError):
                canonical_bytes([value])
        assert canonical_bytes(("switch", 3)) == canonical_bytes(["switch", 3])

    def test_nested_structures(self):
        a = {"k": [{1, 2}, (3, 4)], "m": {"x": b"\x00\xff"}}
        b = {"m": {"x": b"\x00\xff"}, "k": [{2, 1}, (3, 4)]}
        assert canonical_bytes(a) == canonical_bytes(b)


# ----------------------------------------------------------------------
# callback identity
# ----------------------------------------------------------------------
class TestCallbackName:
    def test_plain_function(self):
        def tick():
            pass

        assert "tick" in RunDigest.callback_name(tick)

    def test_bound_method_includes_node_id(self):
        class Comp:
            node_id = "s3"

            def fire(self):
                pass

        name = RunDigest.callback_name(Comp().fire)
        assert name.startswith("s3:")
        assert "fire" in name

    def test_never_embeds_memory_address(self):
        class Comp:
            def fire(self):
                pass

        comp = Comp()
        assert hex(id(comp)) not in RunDigest.callback_name(comp.fire)


# ----------------------------------------------------------------------
# kernel integration
# ----------------------------------------------------------------------
class TestKernelHook:
    def test_digest_observes_dispatch_order(self):
        sim = Simulator()
        digest = RunDigest()
        sim.digest = digest
        fired = []
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.run(10.0)
        assert fired == ["a", "b"]
        assert digest.events_observed == 2

    def test_same_schedule_same_digest(self):
        def run():
            sim = Simulator()
            digest = RunDigest()
            sim.digest = digest
            for t in (3.0, 1.0, 2.0):
                sim.schedule(t, lambda: None)
            sim.run(10.0)
            return digest.hexdigest()

        assert run() == run()

    def test_detach_stops_observing(self):
        sim = Simulator()
        digest = RunDigest()
        sim.digest = digest
        sim.schedule(1.0, lambda: None)
        sim.run(5.0)
        sim.digest = None
        sim.schedule(6.0, lambda: None)
        sim.run(10.0)
        assert digest.events_observed == 1


# ----------------------------------------------------------------------
# scenario digest stability
# ----------------------------------------------------------------------
class TestScenarioDigest:
    def test_three_runs_identical(self):
        digests = {
            digest_scenario(seed=1, duration_us=DURATION_US)
            for _ in range(3)
        }
        assert len(digests) == 1

    def test_seed_sensitivity(self):
        assert digest_scenario(
            seed=1, duration_us=DURATION_US
        ) != digest_scenario(seed=2, duration_us=DURATION_US)

    @pytest.mark.parametrize("hashseed", ["0", "1", "random"])
    def test_hashseed_immunity(self, hashseed):
        """The digest must not depend on PYTHONHASHSEED."""
        expected = digest_scenario(seed=1, duration_us=DURATION_US)
        code = (
            "from repro.conform.digest import digest_scenario;"
            f"print(digest_scenario(seed=1, duration_us={DURATION_US}))"
        )
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hashseed
        env["PYTHONPATH"] = SRC
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, check=True,
        )
        assert out.stdout.strip() == expected
