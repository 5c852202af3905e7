"""The whole-fabric slot engine: every switch fabric, one pass per slot.

:class:`FabricArrayEngine` registers many single-switch fabrics
(:class:`~repro.switch.fabric.VoqFabric`,
:class:`~repro.switch.fabric.FifoFabric`) and advances **all** of them
with one :meth:`step_all` call per cell slot, replacing S per-fabric
Python dispatches with a handful of array operations over stacked
state.  Two backends share one API:

- **numpy** (the default when numpy imports): fabrics whose
  configuration the vectorized match rounds support are *ingested* into
  stacked arrays -- queue rings ``(S, 16, 16, C)`` of arrival slots,
  ring heads/sizes, and per-slot request/column/union bitmask matrices
  derived from occupancy, the same bitmask state
  :class:`~repro.switch.fabric.VoqFabric` maintains incrementally.  PIM
  (fast and strict RNG), iSLIP, and FIFO match rounds then run as table
  lookups and einsums over the whole stack at once.
- **python** (numpy absent, or ``REPRO_FASTPATH_FORCE_PYTHON`` set, or
  ``backend="python"``): every fabric stays *scalar-resident* and
  :meth:`step_all` is a stacked loop over the fabrics' own ``step``.
  Same API, same results, no dependency.

**Bit-identical reproduction.**  The vectorized rounds consume each
fabric's *own* scheduler RNG in exactly the scalar draw order: grant
draws per contested output in ascending output order, then accept draws
per granted input in ascending input order, per iteration -- fast mode
draws ``rng.random()`` only for multi-contender picks, strict mode draws
``rng.randrange(k)`` for every pick, exactly as
:mod:`repro.core.matching.bitmask` does.  Metrics (latency samples in
delivery order, iterations-to-maximal tallies in slot order, per-pair
delivery counts, backlog slot counts) are accumulated in arrays and
flushed into each fabric's ordinary :class:`FabricMetrics` by
:meth:`sync`, byte-for-byte equal to a scalar run.  The conformance
oracle (:func:`repro.conform.oracle.fastpath_sweep`) proves this
continuously.

**Scalar fallback.**  Fabrics the vectorized rounds cannot express --
frame-schedule reservations (guaranteed traffic), attached tracers or
registry probes, bounded buffers, reference (non-bitmask) schedulers,
``n_ports > 16`` -- are registered *scalar-resident*: the engine steps
them through their own ``step`` inside the same :meth:`step_all` wave.
:meth:`pin_scalar` moves a vectorized fabric to the scalar path mid-run
(the fault-blast-radius hook) by writing its array state back into the
fabric; :meth:`unpin` re-ingests it.  Both directions preserve queue
contents, masks, metrics, and the RNG stream position exactly.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, List, Optional, Tuple

from repro.fastpath.backend import Tables, load_numpy

__all__ = ["FabricArrayEngine"]

_W = 16  # stacked port width: every mask fits the 16-bit tables
_POOL = 1024  # pre-drawn uniforms buffered per fabric row


def _mirror_rng(np, rng):
    """A numpy ``RandomState`` at exactly ``rng``'s MT19937 state.

    CPython's ``random.Random`` and numpy's legacy ``RandomState`` both
    run MT19937 and build doubles the same way
    (``(genrand() >> 5) * 2**26 + (genrand() >> 6)`` over ``2**53``), so
    the mirrored ``random_sample`` stream is bit-identical to repeated
    ``rng.random()`` calls.
    """
    internal = rng.getstate()[1]
    rs = np.random.RandomState()
    rs.set_state(
        ("MT19937", np.asarray(internal[:624], np.uint32), internal[624])
    )
    return rs


def _scheduler_kind(fabric) -> Optional[Tuple[str, bool]]:
    """(group kind, strict) when the scheduler is vectorizable, else None."""
    # Imported here so the engine stays importable without the switch
    # package being touched first (and to keep import cycles away).
    from repro.core.matching.bitmask import (
        BitmaskFifoScheduler,
        BitmaskIslip,
        BitmaskPim,
    )
    from repro.switch.fabric import FifoFabric, VoqFabric

    scheduler = fabric.scheduler
    if isinstance(fabric, VoqFabric):
        if type(scheduler) is BitmaskPim:
            return ("pim", scheduler.strict_rng)
        if type(scheduler) is BitmaskIslip:
            return ("islip", False)
        return None
    if isinstance(fabric, FifoFabric):
        if type(scheduler) is BitmaskFifoScheduler:
            return ("fifo", scheduler.strict_rng)
        return None
    return None


def _vectorizable(fabric) -> Optional[Tuple[str, bool]]:
    """Group key when this fabric can live in stacked arrays, else None.

    The exclusions are exactly the scalar-fallback triggers documented in
    DESIGN §13: frame schedules, tracers, probes (registry-owned or
    bounded tallies), buffer limits, wide fabrics, reference schedulers.
    """
    kind = _scheduler_kind(fabric)
    if kind is None:
        return None
    if fabric.n_ports > _W:
        return None
    if getattr(fabric, "frame_schedule", None):
        return None
    if getattr(fabric, "tracer", None) is not None:
        return None
    if getattr(fabric, "_probes", None) is not None:
        return None
    if getattr(fabric, "buffer_capacity", None) is not None:
        return None
    if getattr(fabric, "per_vc_capacity", None) is not None:
        return None
    metrics = fabric.metrics
    if metrics.latency.max_samples is not None:
        return None
    if metrics.iterations_to_maximal.max_samples is not None:
        return None
    if kind[0] in ("pim", "islip"):
        if fabric.scheduler.iterations > 127:
            return None
        if any(len(q) for qs in fabric.guaranteed_queues for q in qs.values()):
            return None
    return kind


class _Group:
    """One stacked array family: fabrics sharing a scheduler kind."""

    def __init__(self, engine: "FabricArrayEngine", kind: str, strict: bool):
        self.engine = engine
        self.kind = kind  # "pim" | "islip" | "fifo"
        self.strict = strict
        self.fabrics: List[Any] = []
        self.rngs: List[Any] = []  # scheduler.rng per row (None for islip)
        np = engine.np
        # Fast-mode (non-strict) draw batching: each row's Python RNG is
        # mirrored into a numpy MT19937 ``RandomState`` that emits the
        # bit-identical 53-bit double stream.  Draws are consumed from a
        # per-row pool; the lagging Python object is re-synchronized at
        # sync() by replaying exactly ``consumed`` values on a shadow
        # mirror (rows with no RNG, or strict rows, hold ``None``).
        self.np_rngs: List[Any] = []
        self.np_shadow: List[Any] = []
        self.pool = np.zeros((0, _POOL), np.float64)
        self.pool_pos = np.zeros(0, np.int64)
        self.consumed = np.zeros(0, np.int64)
        self.cap = 8
        self.n = np.zeros(0, np.int64)
        self.iters = np.zeros(0, np.int64)
        if kind == "fifo":
            self.qslot = np.zeros((0, _W, self.cap), np.int64)
            self.qout = np.zeros((0, _W, self.cap), np.int64)
            self.qhead = np.zeros((0, _W), np.int64)
            self.qsize = np.zeros((0, _W), np.int64)
        else:
            self.qdata = np.zeros((0, _W, _W, self.cap), np.int64)
            self.qhead = np.zeros((0, _W, _W), np.int64)
            self.qsize = np.zeros((0, _W, _W), np.int64)
            # Stacked column bitmasks, maintained incrementally on offer
            # and delivery -- the same invariant VoqFabric keeps per
            # fabric (cols[s, o] bit i set iff queue (i, o) of fabric s
            # is non-empty).  Row masks are never needed: the match
            # rounds select requests straight from the columns.
            self.cols = np.zeros((0, _W), np.int64)
            if kind == "islip":
                self.gptr = np.zeros((0, _W), np.int64)
                self.aptr = np.zeros((0, _W), np.int64)
        # Pending offers, flushed in arrival order at the next step/sync.
        self.po_s: List[int] = []
        self.po_i: List[int] = []
        self.po_o: List[int] = []
        self.po_slot: List[int] = []
        # Bulk offer chunks: (position in the per-cell stream when the
        # chunk arrived, row, input array, output array, slot).
        self.po_chunks: List[Tuple[int, int, Any, Any, int]] = []
        # Metric deltas since the last sync().
        self.d_slots = np.zeros(0, np.int64)
        self.d_offered = np.zeros(0, np.int64)
        self.d_delivered = np.zeros(0, np.int64)
        self.d_backlog = np.zeros(0, np.int64)
        self.pair_count = np.zeros((0, _W, _W), np.int64)
        # Latency samples (fabric row, waited), in delivery order.
        self.lat_s = np.zeros(256, np.int64)
        self.lat_w = np.zeros(256, np.int64)
        self.lat_len = 0
        # iterations_to_maximal per (stepped slot, fabric row); 0 = None.
        self.it_buf = np.zeros((256, 0), np.int8)
        self.it_len = 0

    @property
    def size(self) -> int:
        return len(self.fabrics)

    # -- row management -------------------------------------------------
    def _append_axis0(self, name: str, row) -> None:
        np = self.engine.np
        old = getattr(self, name)
        setattr(self, name, np.concatenate([old, row[None]], axis=0))

    def add_row(self, fabric) -> int:
        """Ingest ``fabric``'s live state as a new stacked row."""
        np = self.engine.np
        row = self.size
        self.fabrics.append(fabric)
        n = fabric.n_ports
        self.n = np.concatenate([self.n, np.array([n], np.int64)])
        iters = getattr(fabric.scheduler, "iterations", 1)
        self.iters = np.concatenate([self.iters, np.array([iters], np.int64)])
        if self.kind == "fifo":
            self.rngs.append(fabric.scheduler.rng)
            lengths = [len(q) for q in fabric.queues]
            self._ensure_cap(max(lengths) if lengths else 0)
            qslot = np.zeros((_W, self.cap), np.int64)
            qout = np.zeros((_W, self.cap), np.int64)
            qsize = np.zeros(_W, np.int64)
            for i, q in enumerate(fabric.queues):
                for j, (slot, out) in enumerate(q):
                    qslot[i, j] = slot
                    qout[i, j] = out
                qsize[i] = len(q)
            self._append_axis0("qslot", qslot)
            self._append_axis0("qout", qout)
            self._append_axis0("qhead", np.zeros(_W, np.int64))
            self._append_axis0("qsize", qsize)
        else:
            self.rngs.append(
                fabric.scheduler.rng if self.kind == "pim" else None
            )
            longest = max(
                (len(q) for qs in fabric.queues for q in qs.values()),
                default=0,
            )
            self._ensure_cap(longest)
            qdata = np.zeros((_W, _W, self.cap), np.int64)
            qsize = np.zeros((_W, _W), np.int64)
            for i, qs in enumerate(fabric.queues):
                for o, q in qs.items():
                    for j, slot in enumerate(q):
                        qdata[i, o, j] = slot
                    qsize[i, o] = len(q)
            self._append_axis0("qdata", qdata)
            self._append_axis0("qhead", np.zeros((_W, _W), np.int64))
            self._append_axis0("qsize", qsize)
            col_masks = np.zeros(_W, np.int64)
            col_masks[:n] = np.asarray(fabric.col_masks)
            self._append_axis0("cols", col_masks)
            if self.kind == "islip":
                gptr = np.zeros(_W, np.int64)
                aptr = np.zeros(_W, np.int64)
                gptr[:n] = np.asarray(fabric.scheduler.grant_pointers)
                aptr[:n] = np.asarray(fabric.scheduler.accept_pointers)
                self._append_axis0("gptr", gptr)
                self._append_axis0("aptr", aptr)
        rng = self.rngs[row]
        if rng is not None and not self.strict:
            self.np_rngs.append(_mirror_rng(np, rng))
            self.np_shadow.append(_mirror_rng(np, rng))
        else:
            self.np_rngs.append(None)
            self.np_shadow.append(None)
        self._append_axis0("pool", np.zeros(_POOL, np.float64))
        self.pool_pos = np.concatenate(
            [self.pool_pos, np.full(1, _POOL, np.int64)]
        )
        self.consumed = np.concatenate([self.consumed, np.zeros(1, np.int64)])
        for name in ("d_slots", "d_offered", "d_delivered", "d_backlog"):
            setattr(
                self,
                name,
                np.concatenate([getattr(self, name), np.zeros(1, np.int64)]),
            )
        self._append_axis0("pair_count", np.zeros((_W, _W), np.int64))
        self.it_buf = np.concatenate(
            [self.it_buf, np.zeros((self.it_buf.shape[0], 1), np.int8)], axis=1
        )
        self._recache_iters()
        return row

    def drop_row(self, row: int) -> None:
        """Remove one row (its buffers must already be synced flat)."""
        assert self.lat_len == 0 and self.it_len == 0
        assert not self.po_s and not self.po_chunks
        assert not self.consumed.any()  # sync() has resynced the RNGs
        np = self.engine.np
        keep = np.arange(self.size) != row
        for name in (
            "n", "iters", "qhead", "qsize", "d_slots", "d_offered",
            "d_delivered", "d_backlog", "pair_count",
            "pool", "pool_pos", "consumed",
        ):
            setattr(self, name, getattr(self, name)[keep])
        if self.kind == "fifo":
            self.qslot = self.qslot[keep]
            self.qout = self.qout[keep]
        else:
            self.qdata = self.qdata[keep]
            self.cols = self.cols[keep]
            if self.kind == "islip":
                self.gptr = self.gptr[keep]
                self.aptr = self.aptr[keep]
        self.it_buf = self.it_buf[:, keep]
        del self.fabrics[row]
        del self.rngs[row]
        del self.np_rngs[row]
        del self.np_shadow[row]
        self._recache_iters()

    def _recache_iters(self) -> None:
        """Refresh the per-group iteration-budget summary (the slot loop
        reads these every slot; they only change on add/drop)."""
        self.max_iters = int(self.iters.max()) if self.size else 0
        self.uniform_budget = bool((self.iters == self.max_iters).all())

    def _ensure_cap(self, needed: int) -> None:
        while self.cap <= needed:
            self._grow()

    def _grow(self) -> None:
        """Double every ring buffer, unrolling each ring to head 0."""
        np = self.engine.np
        cap = self.cap
        new_cap = cap * 2
        if self.kind == "fifo":
            idx = (self.qhead[..., None] + np.arange(cap)) & (cap - 1)
            for name in ("qslot", "qout"):
                old = getattr(self, name)
                new = np.zeros(old.shape[:-1] + (new_cap,), np.int64)
                new[..., :cap] = np.take_along_axis(old, idx, axis=-1)
                setattr(self, name, new)
        else:
            idx = (self.qhead[..., None] + np.arange(cap)) & (cap - 1)
            new = np.zeros(self.qdata.shape[:-1] + (new_cap,), np.int64)
            new[..., :cap] = np.take_along_axis(self.qdata, idx, axis=-1)
            self.qdata = new
        self.qhead[...] = 0
        self.cap = new_cap

    # -- offers ----------------------------------------------------------
    def flush_offers(self) -> None:
        if not self.po_s and not self.po_chunks:
            return
        np = self.engine.np
        if (
            self.po_chunks
            and not self.po_s
            and all(type(c[2]) is np.ndarray for c in self.po_chunks)
        ):
            # All-array fast path: traffic generators that pre-build
            # per-fabric arrival arrays skip list merging entirely.
            counts = np.asarray(
                [len(c[2]) for c in self.po_chunks], np.int64
            )
            s = np.repeat(
                np.asarray([c[1] for c in self.po_chunks], np.int64), counts
            )
            i = np.concatenate(
                [c[2] for c in self.po_chunks]
            ).astype(np.int64, copy=False)
            o = np.concatenate(
                [c[3] for c in self.po_chunks]
            ).astype(np.int64, copy=False)
            slots = np.repeat(
                np.asarray([c[4] for c in self.po_chunks], np.int64), counts
            )
            self.po_chunks = []
            return self._apply_offers(s, i, o, slots)
        if self.po_chunks:
            # Merge per-cell offers and bulk chunks, in arrival order,
            # as plain Python lists: one asarray per column beats one
            # small array per chunk by an order of magnitude.
            s_l: List[int] = []
            i_l: List[int] = []
            o_l: List[int] = []
            t_l: List[int] = []
            cut = 0
            for at, row, ins, outs, slot in self.po_chunks:
                if at > cut:
                    s_l += self.po_s[cut:at]
                    i_l += self.po_i[cut:at]
                    o_l += self.po_o[cut:at]
                    t_l += self.po_slot[cut:at]
                    cut = at
                count = len(ins)
                s_l += [row] * count
                i_l += list(ins)
                o_l += list(outs)
                t_l += [slot] * count
            if len(self.po_s) > cut:
                s_l += self.po_s[cut:]
                i_l += self.po_i[cut:]
                o_l += self.po_o[cut:]
                t_l += self.po_slot[cut:]
            self.po_chunks = []
        else:
            s_l, i_l, o_l, t_l = self.po_s, self.po_i, self.po_o, self.po_slot
        s = np.asarray(s_l, np.int64)
        i = np.asarray(i_l, np.int64)
        o = np.asarray(o_l, np.int64)
        slots = np.asarray(t_l, np.int64)
        self.po_s, self.po_i, self.po_o, self.po_slot = [], [], [], []
        self._apply_offers(s, i, o, slots)

    def _apply_offers(self, s, i, o, slots) -> None:
        np = self.engine.np
        self.d_offered += np.bincount(s, minlength=self.size)
        if self.kind == "fifo":
            key = s * _W + i
            qn = _W
        else:
            key = (s * _W + i) * _W + o
            qn = _W * _W
        if (np.bincount(key, minlength=qn * self.size) > 1).any():
            # Two same-flush cells into one queue: positions would
            # collide under fancy indexing, so apply sequentially.
            for row, ip, op, sl in zip(
                s.tolist(), i.tolist(), o.tolist(), slots.tolist()
            ):
                self._offer_one(row, ip, op, sl)
            return
        sizes = self.qsize.reshape(-1)[key]
        if (sizes >= self.cap).any():
            self._grow()
        pos = (self.qhead.reshape(-1)[key] + sizes) & (self.cap - 1)
        if self.kind == "fifo":
            self.qslot.reshape(qn * self.size, self.cap)[key, pos] = slots
            self.qout.reshape(qn * self.size, self.cap)[key, pos] = o
        else:
            self.qdata.reshape(qn * self.size, self.cap)[key, pos] = slots
            T = self.engine.tables
            self.cols |= (
                np.bincount(
                    s * _W + o, weights=T.pow2f[i], minlength=self.size * _W
                )
                .astype(np.int64)
                .reshape(self.size, _W)
            )
        self.qsize.reshape(-1)[key] += 1

    def _offer_one(self, row: int, i: int, o: int, slot: int) -> None:
        if self.kind == "fifo":
            if self.qsize[row, i] >= self.cap:
                self._grow()
            pos = int(self.qhead[row, i] + self.qsize[row, i]) & (self.cap - 1)
            self.qslot[row, i, pos] = slot
            self.qout[row, i, pos] = o
            self.qsize[row, i] += 1
        else:
            if self.qsize[row, i, o] >= self.cap:
                self._grow()
            pos = int(self.qhead[row, i, o] + self.qsize[row, i, o]) & (
                self.cap - 1
            )
            self.qdata[row, i, o, pos] = slot
            self.qsize[row, i, o] += 1
            self.cols[row, o] |= 1 << i

    # -- RNG mirror pools -------------------------------------------------
    def refill(self, rows) -> None:
        """Slide each listed row's unconsumed pool tail to the front and
        top the pool back up from that row's ``RandomState`` mirror."""
        for r in rows.tolist():
            pos = int(self.pool_pos[r])
            rem = _POOL - pos
            if rem:
                self.pool[r, :rem] = self.pool[r, pos:]
            self.pool[r, rem:] = self.np_rngs[r].random_sample(pos)
            self.pool_pos[r] = 0

    def resync_rngs(self) -> None:
        """Advance each row's Python RNG past the draws consumed from
        its mirror pool: the shadow mirror replays exactly ``consumed``
        values, so ``rng.getstate()`` afterwards is bit-identical to a
        scalar run's."""
        consumed = self.consumed
        for r in consumed.nonzero()[0].tolist():
            shadow = self.np_shadow[r]
            shadow.random_sample(int(consumed[r]))
            keys, pos = shadow.get_state()[1:3]
            rng = self.rngs[r]
            gauss = rng.getstate()[2]
            rng.setstate(
                (3, tuple(int(k) for k in keys) + (int(pos),), gauss)
            )
        consumed[...] = 0

    # -- sample accumulators ---------------------------------------------
    def _append_lat(self, rows, waited) -> None:
        np = self.engine.np
        count = rows.size
        need = self.lat_len + count
        if need > self.lat_s.size:
            new_size = max(need, self.lat_s.size * 2)
            for name in ("lat_s", "lat_w"):
                old = getattr(self, name)
                new = np.zeros(new_size, np.int64)
                new[: self.lat_len] = old[: self.lat_len]
                setattr(self, name, new)
        self.lat_s[self.lat_len:need] = rows
        self.lat_w[self.lat_len:need] = waited
        self.lat_len = need

    def _append_iters(self, it_rec) -> None:
        np = self.engine.np
        if self.it_len >= self.it_buf.shape[0]:
            grown = np.zeros(
                (max(256, self.it_buf.shape[0] * 2), self.size), np.int8
            )
            grown[: self.it_len] = self.it_buf[: self.it_len]
            self.it_buf = grown
        self.it_buf[self.it_len] = it_rec
        self.it_len += 1


class FabricArrayEngine:
    """Batched slot advance across every registered fabric.

    Args:
        backend: ``"auto"`` (numpy when importable, else the pure-Python
            stacked loop), ``"numpy"`` (required; raises without it), or
            ``"python"`` (forced fallback -- what the no-numpy CI job and
            the differential oracle exercise).
    """

    def __init__(self, backend: str = "auto") -> None:
        if backend not in ("auto", "numpy", "python"):
            raise ValueError(f"unknown backend {backend!r}")
        np = load_numpy() if backend in ("auto", "numpy") else None
        if backend == "numpy" and np is None:
            raise RuntimeError(
                "numpy backend requested but numpy is unavailable "
                "(not installed, or REPRO_FASTPATH_FORCE_PYTHON is set)"
            )
        self.np = np
        self.backend = "numpy" if np is not None else "python"
        self.tables = Tables.get(np) if np is not None else None
        self._groups: Dict[Tuple[str, bool], _Group] = {}
        #: id(fabric) -> ("scalar", None) or ("group", (group, row)).
        self._where: Dict[int, Tuple[str, Any]] = {}
        self._scalar: List[Any] = []  # scalar-resident, registration order
        self._fabrics: List[Any] = []  # registration order (all)
        self.slots_stepped = 0

    # ------------------------------------------------------------------
    # registration and residency
    # ------------------------------------------------------------------
    def register(self, fabric) -> None:
        """Adopt ``fabric``.  Vectorizable configurations are ingested
        into stacked arrays; everything else stays scalar-resident (the
        engine still batches its slot loop).  After registration the
        fabric must be driven only through the engine (``offer`` /
        ``step_all``) until :meth:`unregister` hands its state back."""
        if id(fabric) in self._where:
            raise ValueError("fabric is already registered")
        self._fabrics.append(fabric)
        kind = _vectorizable(fabric) if self.np is not None else None
        if kind is None:
            self._where[id(fabric)] = ("scalar", None)
            self._scalar.append(fabric)
            return
        self.sync()  # row indices in the sample buffers must stay stable
        group = self._groups.get(kind)
        if group is None:
            group = self._groups[kind] = _Group(self, kind[0], kind[1])
        row = group.add_row(fabric)
        self._where[id(fabric)] = ("group", (group, row))

    def unregister(self, fabric) -> None:
        """Release ``fabric``, writing its live state (queues, masks,
        pointers, metrics) back so it can be driven scalar again."""
        place = self._where.pop(id(fabric), None)
        if place is None:
            raise ValueError("fabric is not registered")
        self._fabrics.remove(fabric)
        if place[0] == "scalar":
            self._scalar.remove(fabric)
            return
        self.sync()
        group, row = self._where_row(fabric, place)
        self._write_back(group, row, fabric)
        group.drop_row(row)
        self._reindex(group)

    def pin_scalar(self, fabric) -> None:
        """Move a vectorized fabric onto the per-fabric scalar path (the
        fault-blast-radius hook).  No-op when already scalar-resident."""
        place = self._where.get(id(fabric))
        if place is None:
            raise ValueError("fabric is not registered")
        if place[0] == "scalar":
            return
        self.sync()
        group, row = self._where_row(fabric, place)
        self._write_back(group, row, fabric)
        group.drop_row(row)
        self._reindex(group)
        self._where[id(fabric)] = ("scalar", None)
        self._scalar.append(fabric)

    def unpin(self, fabric) -> None:
        """Return a pinned fabric to the stacked arrays (when its
        configuration still qualifies; otherwise it stays scalar)."""
        place = self._where.get(id(fabric))
        if place is None:
            raise ValueError("fabric is not registered")
        if place[0] != "scalar":
            return
        kind = _vectorizable(fabric) if self.np is not None else None
        if kind is None:
            return
        self.sync()
        self._scalar.remove(fabric)
        group = self._groups.get(kind)
        if group is None:
            group = self._groups[kind] = _Group(self, kind[0], kind[1])
        row = group.add_row(fabric)
        self._where[id(fabric)] = ("group", (group, row))

    def vectorized(self, fabric) -> bool:
        """True when ``fabric`` currently lives in the stacked arrays."""
        place = self._where.get(id(fabric))
        return place is not None and place[0] == "group"

    @property
    def n_registered(self) -> int:
        return len(self._fabrics)

    @property
    def n_vectorized(self) -> int:
        return sum(g.size for g in self._groups.values())

    def _where_row(self, fabric, place) -> Tuple[_Group, int]:
        group, row = place[1]
        assert group.fabrics[row] is fabric
        return group, row

    def _reindex(self, group: _Group) -> None:
        for row, fabric in enumerate(group.fabrics):
            self._where[id(fabric)] = ("group", (group, row))

    # ------------------------------------------------------------------
    # traffic
    # ------------------------------------------------------------------
    def offer(self, fabric, input_port: int, output_port: int, slot: int):
        place = self._where[id(fabric)]
        if place[0] == "scalar":
            return fabric.offer(input_port, output_port, slot)
        group, row = place[1]
        group.po_s.append(row)
        group.po_i.append(input_port)
        group.po_o.append(output_port)
        group.po_slot.append(slot)
        return True

    def offer_batch(self, fabric, cells, slot: int) -> None:
        place = self._where[id(fabric)]
        if place[0] == "scalar":
            offer_batch = getattr(fabric, "offer_batch", None)
            if offer_batch is not None:
                offer_batch(cells, slot)
            else:
                for i, o in cells:
                    fabric.offer(i, o, slot)
            return
        group, row = place[1]
        for i, o in cells:
            group.po_s.append(row)
            group.po_i.append(i)
            group.po_o.append(o)
            group.po_slot.append(slot)

    def offer_arrays(self, fabric, input_ports, output_ports, slot: int):
        """Bulk-enqueue one slot's arrivals for ``fabric`` from two
        parallel (input, output) sequences -- the stacked-array analogue
        of the scalar ``offer_batch`` fast path, and
        what traffic generators should use at scale (one call per fabric
        per slot instead of one per cell)."""
        place = self._where[id(fabric)]
        if place[0] == "scalar":
            offer_batch = getattr(fabric, "offer_batch", None)
            if offer_batch is not None:
                offer_batch(list(zip(input_ports, output_ports)), slot)
            else:
                for i, o in zip(input_ports, output_ports):
                    fabric.offer(i, o, slot)
            return
        group, row = place[1]
        group.po_chunks.append(
            (len(group.po_s), row, input_ports, output_ports, slot)
        )

    def total_backlog(self, fabric) -> int:
        place = self._where[id(fabric)]
        if place[0] == "scalar":
            return fabric.total_backlog()
        group, row = place[1]
        group.flush_offers()
        return int(group.qsize[row].sum())

    # ------------------------------------------------------------------
    # the slot advance
    # ------------------------------------------------------------------
    def step_all(self, slot: int) -> None:
        """Advance every registered fabric by one cell slot."""
        for group in self._groups.values():
            if group.size:
                group.flush_offers()
                if group.kind == "fifo":
                    self._step_fifo(group, slot)
                else:
                    self._step_voq(group, slot)
        for fabric in self._scalar:
            fabric.step(slot)
        self.slots_stepped += 1

    # -- VOQ (PIM / iSLIP) ----------------------------------------------
    def _step_voq(self, g: _Group, slot: int) -> None:
        np, T = self.np, self.tables
        S = g.size
        # cols_live[s, o]: inputs with backlog to output o that are not
        # yet matched, zeroed once output o matches.  Maintaining it in
        # place makes the column masks the whole match-round state: an
        # output participates iff its column is non-zero, and a fabric
        # has reached a maximal matching iff its row of columns is zero.
        cols_live = g.cols.copy()
        g.d_slots += 1
        g.d_backlog += cols_live.any(axis=1)

        it_rec = np.zeros(S, np.int64)
        pairs_s: List[Any] = []
        pairs_i: List[Any] = []
        pairs_o: List[Any] = []
        # Homogeneous iteration budgets (the common case: one config
        # shared by the whole group) skip the per-fabric budget masks.
        max_iters = g.max_iters
        uniform_budget = g.uniform_budget
        for t in range(1, max_iters + 1):
            sel_s, sel_o = np.nonzero(cols_live)
            if sel_s.size:
                col = cols_live[sel_s, sel_o]
                if g.kind == "islip":
                    chosen = T.rotate[col, g.gptr[sel_s, sel_o]].astype(
                        np.int64
                    )
                elif g.strict:
                    k = T.pop[col]
                    j = self._draw_randrange(g, sel_s, k)
                    chosen = T.select[col, j].astype(np.int64)
                else:
                    k = T.pop[col]
                    multi = k > 1
                    if multi.any():
                        j = np.zeros(col.size, np.int64)
                        u = self._draw_uniform(g, sel_s[multi])
                        j[multi] = (u * k[multi]).astype(np.int64)
                        chosen = T.select[col, j].astype(np.int64)
                    else:
                        chosen = T.select[col, 0].astype(np.int64)
                # Pack grant masks by weighted bincount: each output
                # grants one input, so every contribution to a row is a
                # distinct power of two and float sum == bitwise or.
                grows = (
                    np.bincount(
                        sel_s * _W + chosen,
                        weights=T.pow2f[sel_o],
                        minlength=S * _W,
                    )
                    .astype(np.int64)
                    .reshape(S, _W)
                )
                acc_s, acc_i = np.nonzero(grows)
                granted = np.bincount(
                    acc_s, weights=T.pow2f[acc_i], minlength=S
                ).astype(np.int64)
                rowm = grows[acc_s, acc_i]
                if g.kind == "islip":
                    accepted = T.rotate[rowm, g.aptr[acc_s, acc_i]].astype(
                        np.int64
                    )
                    if t == 1:
                        # Pointers move only on first-iteration accepts.
                        g.gptr[acc_s, accepted] = (acc_i + 1) % g.n[acc_s]
                        g.aptr[acc_s, acc_i] = (accepted + 1) % g.n[acc_s]
                elif g.strict:
                    ka = T.pop[rowm]
                    j = self._draw_randrange(g, acc_s, ka)
                    accepted = T.select[rowm, j].astype(np.int64)
                else:
                    ka = T.pop[rowm]
                    accepted = T.select[rowm, 0].astype(np.int64)
                    am = ka > 1
                    if am.any():
                        u = self._draw_uniform(g, acc_s[am])
                        j = (u * ka[am]).astype(np.int64)
                        accepted[am] = T.select[rowm[am], j]
                # Granted inputs all match (each accepts one grant), and
                # each accepted output is matched: drop both from play.
                cols_live &= ~granted[:, None]
                cols_live[acc_s, accepted] = 0
                pairs_s.append(acc_s)
                pairs_i.append(acc_i)
                pairs_o.append(accepted)
            active = cols_live.any(axis=1)  # unmatched work remains
            if uniform_budget:
                settled = ~active & (it_rec == 0)
                it_rec[settled] = t
                if t == max_iters or not active.any():
                    break
            else:
                settled = ~active & (it_rec == 0) & (g.iters >= t)
                it_rec[settled] = t
                # Fabrics whose budget is spent stop participating.
                cols_live[g.iters <= t] = 0
                if not cols_live.any():
                    break
        g._append_iters(it_rec)

        if pairs_s:
            ds = np.concatenate(pairs_s)
            di = np.concatenate(pairs_i)
            do = np.concatenate(pairs_o)
            if ds.size:
                # Stable by fabric: per-fabric delivery order becomes
                # (iteration, ascending input) -- the scalar matching
                # dict's insertion order, hence its sample order.
                order = np.argsort(ds, kind="stable")
                ds, di, do = ds[order], di[order], do[order]
                self._deliver_voq(g, ds, di, do, slot)

    def _deliver_voq(self, g: _Group, ds, di, do, slot: int) -> None:
        np, T = self.np, self.tables
        flat = (ds * _W + di) * _W + do
        qhead = g.qhead.reshape(-1)
        qsize = g.qsize.reshape(-1)
        head = qhead[flat]
        arrivals = g.qdata.reshape(-1, g.cap)[flat, head]
        qhead[flat] = (head + 1) & (g.cap - 1)
        qsize[flat] -= 1
        emptied = qsize[flat] == 0
        if emptied.any():
            # Clear mask bits for queues that just drained.  (s, o) is
            # unique within a slot's matching, so the in-place fancy
            # update cannot collide.
            es, ei, eo = ds[emptied], di[emptied], do[emptied]
            g.cols[es, eo] &= ~T.pow2[ei]
        g.d_delivered += np.bincount(ds, minlength=g.size)
        g.pair_count.reshape(-1)[flat] += 1
        g._append_lat(ds, slot - arrivals)

    # -- FIFO ------------------------------------------------------------
    def _step_fifo(self, g: _Group, slot: int) -> None:
        np, T = self.np, self.tables
        S = g.size
        g.d_slots += 1
        backlogged = g.qsize > 0  # (S, 16)
        g.d_backlog += backlogged.any(axis=1)
        hs, hi = np.nonzero(backlogged)
        if hs.size == 0:
            return
        heads = g.qout.reshape(-1, g.cap)[
            hs * _W + hi, g.qhead[hs, hi]
        ]
        cols = (
            np.bincount(
                hs * _W + heads, weights=T.pow2f[hi], minlength=S * _W
            )
            .astype(np.int64)
            .reshape(S, _W)
        )
        sel_s, sel_o = np.nonzero(cols)  # ascending output per fabric
        col = cols[sel_s, sel_o]
        if g.strict:
            k = T.pop[col]
            j = self._draw_randrange(g, sel_s, k)
            winner = T.select[col, j].astype(np.int64)
        else:
            k = T.pop[col]
            winner = T.select[col, 0].astype(np.int64)
            multi = k > 1
            if multi.any():
                u = self._draw_uniform(g, sel_s[multi])
                j = (u * k[multi]).astype(np.int64)
                winner[multi] = T.select[col[multi], j]
        flat = sel_s * _W + winner
        qhead = g.qhead.reshape(-1)
        qsize = g.qsize.reshape(-1)
        head = qhead[flat]
        arrivals = g.qslot.reshape(-1, g.cap)[flat, head]
        qhead[flat] = (head + 1) & (g.cap - 1)
        qsize[flat] -= 1
        g.d_delivered += np.bincount(sel_s, minlength=S)
        g.pair_count.reshape(-1)[(sel_s * _W + winner) * _W + sel_o] += 1
        # sel_s is already non-decreasing: per-fabric delivery order is
        # ascending output, the scalar matching dict's insertion order.
        g._append_lat(sel_s, slot - arrivals)

    # -- RNG reproduction ------------------------------------------------
    def _draw_uniform(self, g: _Group, rows):
        """One ``rng.random()`` per entry, grouped per fabric in order.

        ``rows`` must be non-decreasing (row-major ``nonzero`` output),
        which is exactly the scalar visit order: each fabric's draws are
        consecutive and taken from that fabric's own scheduler RNG.
        Values come from the per-row MT19937 mirror pools (see
        :func:`_mirror_rng`); the lagging Python RNG objects are brought
        back up to date at :meth:`sync`.
        """
        np = self.np
        cnt = np.bincount(rows, minlength=g.size)
        over = g.pool_pos + cnt > _POOL
        if over.any():
            g.refill(np.flatnonzero(over))
        excl = np.cumsum(cnt) - cnt
        offset = np.arange(rows.size) - excl[rows]
        out = g.pool[rows, g.pool_pos[rows] + offset]
        g.pool_pos += cnt
        g.consumed += cnt
        return out

    def _draw_randrange(self, g: _Group, rows, k):
        """One ``rng.randrange(k)`` per entry (strict mode), in order."""
        np = self.np
        rngs = g.rngs
        out = []
        append = out.append
        prev = -1
        randrange = None
        for row, kv in zip(rows.tolist(), k.tolist()):
            if row != prev:
                randrange = rngs[row].randrange
                prev = row
            append(randrange(kv))
        return np.asarray(out, np.int64)

    # ------------------------------------------------------------------
    # metrics flush and state hand-back
    # ------------------------------------------------------------------
    def sync(self) -> None:
        """Flush accumulated deltas into every fabric's ``metrics``.

        After ``sync`` each vectorized fabric's :class:`FabricMetrics`
        is exactly what a scalar run would have produced: counters,
        latency samples (same values, same order), iterations tallies in
        slot order, ``maximal_within``, ``delivered_per_pair``.
        """
        for group in self._groups.values():
            if group.size:
                group.flush_offers()
                self._sync_group(group)
                group.resync_rngs()

    def _sync_group(self, g: _Group) -> None:
        np = self.np
        lat_s = g.lat_s[: g.lat_len]
        lat_w = g.lat_w[: g.lat_len]
        if g.lat_len:
            order = np.argsort(lat_s, kind="stable")
            lat_s = lat_s[order]
            lat_w = lat_w[order]
            bounds = np.cumsum(np.bincount(lat_s, minlength=g.size))
        it_buf = g.it_buf[: g.it_len]
        for row, fabric in enumerate(g.fabrics):
            m = fabric.metrics
            m.slots += int(g.d_slots[row])
            m.cells_offered += int(g.d_offered[row])
            m.cells_delivered += int(g.d_delivered[row])
            m.slots_with_backlog += int(g.d_backlog[row])
            if g.lat_len:
                lo = 0 if row == 0 else int(bounds[row - 1])
                hi = int(bounds[row])
                if hi > lo:
                    m.latency._samples.extend(lat_w[lo:hi].tolist())
            if g.kind != "fifo" and g.it_len:
                col = it_buf[:, row]
                buckets = col[col > 0]
                if buckets.size:
                    m.iterations_to_maximal._samples.extend(buckets.tolist())
                    for bucket, count in enumerate(
                        np.bincount(buckets).tolist()
                    ):
                        if count:
                            m.maximal_within[bucket] = (
                                m.maximal_within.get(bucket, 0) + count
                            )
            pc = g.pair_count[row]
            if pc.any():
                per_pair = m.delivered_per_pair
                for i, o in zip(*np.nonzero(pc)):
                    pair = (int(i), int(o))
                    per_pair[pair] = per_pair.get(pair, 0) + int(pc[i, o])
        g.d_slots[...] = 0
        g.d_offered[...] = 0
        g.d_delivered[...] = 0
        g.d_backlog[...] = 0
        g.pair_count[...] = 0
        g.lat_len = 0
        g.it_len = 0

    def reset_metrics(self) -> None:
        """Fresh measurement interval for every registered fabric (the
        warmup boundary).  Pending deltas are dropped, not flushed."""
        for group in self._groups.values():
            group.flush_offers()
            group.d_slots[...] = 0
            group.d_offered[...] = 0
            group.d_delivered[...] = 0
            group.d_backlog[...] = 0
            group.pair_count[...] = 0
            group.lat_len = 0
            group.it_len = 0
        for fabric in self._fabrics:
            fabric.reset_metrics()

    def _write_back(self, g: _Group, row: int, fabric) -> None:
        """Materialize one stacked row back onto its fabric object."""
        np = self.np
        cap = g.cap
        n = fabric.n_ports
        if g.kind == "fifo":
            for i in range(n):
                size = int(g.qsize[row, i])
                head = int(g.qhead[row, i])
                fabric.queues[i] = deque(
                    (
                        int(g.qslot[row, i, (head + j) & (cap - 1)]),
                        int(g.qout[row, i, (head + j) & (cap - 1)]),
                    )
                    for j in range(size)
                )
            return
        for i in range(n):
            per_input: Dict[int, Any] = {}
            for o in range(n):
                size = int(g.qsize[row, i, o])
                if size:
                    head = int(g.qhead[row, i, o])
                    per_input[o] = deque(
                        int(g.qdata[row, i, o, (head + j) & (cap - 1)])
                        for j in range(size)
                    )
            fabric.queues[i] = per_input
        fabric.recompute_masks()
        if g.kind == "islip":
            fabric.scheduler.grant_pointers = [
                int(v) for v in g.gptr[row, :n]
            ]
            fabric.scheduler.accept_pointers = [
                int(v) for v in g.aptr[row, :n]
            ]
