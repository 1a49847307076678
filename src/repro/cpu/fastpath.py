"""Batched coherence fast path: bulk core stepping over vectorized probes.

The event loop's steady state in cache-resident phases is a stream of
scheduler buckets holding nothing but core activity — trace-buffer step
wakeups and hit-completion callbacks.  Every such event resolves to a
clean private-cache hit through a five-frame Python call chain
(``_step_buffered`` → ``access`` → ``_hit`` → ``_fill_l1`` →
``_on_complete``) whose *decisions* are fully determined by flat state:
the trace columns, the SRAM tag/state arenas, and a handful of core
integers.  :class:`BatchedStepper` executes those buckets wholesale —
one vectorized NumPy pass classifies every candidate core's next row
against all private caches' tag arenas at once (see
:func:`repro.cache.sram.probe_sets`), then a single in-order walk
retires the clean demand hits inline and routes everything else
(misses, upgrades, barrier rows, MSHR conflicts, repeat wakeups) down
the unmodified scalar path.

This is a fast path, not an approximation.  Three rules keep it
bit-identical to the scalar engine:

* **All-or-nothing buckets.**  A bucket containing any foreign event
  (a NoC arrival, an LLC lookup, a fill) is drained by the scalar
  ``run_due`` untouched — cross-event interleaving is protocol-visible
  there, and the fast path never reorders it.
* **Exact in-order replay.**  Within an owned bucket, events execute
  in scheduling order and every side effect (stamp sequences, counter
  bumps, completion/wakeup inserts) is issued in the scalar path's
  order, so the scheduler's ``(cycle, seq)`` stream is unchanged.
* **Per-cycle classification.**  Probe results are valid only for the
  cycle they were computed in and only until the core issues; anything
  stale falls back to ``_step_buffered``, which re-derives the decision
  from scratch.

``REPRO_NO_FASTPATH=1`` (or :func:`set_fastpath`) disables the whole
layer as a bisection escape hatch, and systems with hardware prefetchers
enabled never build it, because every demand access trains the
prefetcher and would classify as residue anyway.
"""

from __future__ import annotations

import os
from typing import List, Optional

from repro.cache.coherence import PRIV_M, PRIV_S
from repro.cache.sram import F_ACCESSED, F_DIRTY, F_PUSHED, probe_sets
from repro.common.params import LINE_BYTES

#: process-wide enable flag
_fastpath_enabled = os.environ.get("REPRO_NO_FASTPATH", "") in ("", "0")

_LINE_SHIFT = LINE_BYTES.bit_length() - 1
assert (1 << _LINE_SHIFT) == LINE_BYTES, "line size must be a power of two"

#: candidate count from which the one-pass vectorized probe beats
#: per-core dict probes in the walk.  NumPy's fixed dispatch cost (~25
#: array ops per pass) amortizes to less than the two dict lookups +
#: state read only on big fabrics; measured crossover is above 64 and
#: comfortably under 256.  Candidates are at most one per core, so a
#: fabric smaller than this never builds the probe arenas at all.
VEC_MIN = 128


def fastpath_enabled() -> bool:
    """Is the batched coherence fast path globally enabled?"""
    return _fastpath_enabled


def set_fastpath(enabled: bool) -> None:
    """Enable/disable the fast path (read at ``System`` construction).

    The A/B bisection switch: with the fast path off, systems keep
    plain list/bytearray SRAM storage and every bucket drains through
    the scalar ``run_due`` — results must be bit-identical either way.
    """
    global _fastpath_enabled
    _fastpath_enabled = bool(enabled)


def _numpy():
    try:
        import numpy
    except ImportError:  # pragma: no cover - numpy is a hard dep of the
        return None      # array engine but the event engine runs without it
    return numpy


class FastpathArena:
    """Cross-core L2 SRAM arenas: one ``(num_cores, slots)`` matrix per
    tag/state/flags column.

    Each private cache's L2 :class:`~repro.cache.sram.CacheArray`
    receives one row of each matrix as its backing, so scalar
    controllers mutate the same storage the vectorized probe reads —
    there is no mirroring and nothing to keep in sync.  The L1 is
    deliberately *not* arena-backed: hit/miss classification is decided
    by the L2 (L1 residency only picks the latency, one dict probe at
    consume time), and the L1's fill/evict churn is the most
    storage-sensitive traffic in the hierarchy — NumPy element accesses
    there would tax every fill more than the probe saves.
    """

    def __init__(self, params, np) -> None:
        n = params.num_cores
        self.np = np
        slots = params.l2.num_sets * params.l2.assoc
        self.l2_tags = np.full((n, slots), -1, dtype=np.int64)
        self.l2_state = np.zeros((n, slots), dtype=np.uint8)
        self.l2_flags = np.zeros((n, slots), dtype=np.uint8)

    def backing(self, tile: int):
        """The L2 ``(tags, state, flags)`` backing triple for a tile."""
        return (self.l2_tags[tile], self.l2_state[tile],
                self.l2_flags[tile])


def make_arena(params) -> Optional[FastpathArena]:
    """A :class:`FastpathArena` for ``params`` when it can pay off.

    None without NumPy, and None below ``VEC_MIN`` cores: the
    vectorized probe needs ``VEC_MIN`` same-cycle candidates to beat
    the walk's dict probes, there is at most one candidate per core,
    and arena-backed rows make every scalar SRAM element access a
    (slower) NumPy one — so on small fabrics the arena is pure cost.
    The stepper itself runs fine without one.
    """
    np = _numpy()
    if np is None or params.num_cores < VEC_MIN:
        return None
    return FastpathArena(params, np)


class BatchedStepper:
    """Executes fully core-owned scheduler buckets in bulk.

    Built by :class:`repro.sim.system.System` once every core is
    buffer-backed; :meth:`run_cycle` is the drop-in replacement for
    ``scheduler.run_due(cycle)`` on cycles where the network has no due
    work.
    """

    def __init__(self, system) -> None:
        self.scheduler = system.scheduler
        self.cores = system.cores
        arena = system._fp_arena
        #: the vectorized probe pass only exists on arena-backed
        #: systems (>= VEC_MIN cores); without it every decision comes
        #: from the walk's inline dict probes, same as the scalar path
        self._classify_on = arena is not None
        params = system.params
        if arena is not None:
            from repro.cpu.tracebuf import concat_columns

            np = _numpy()
            self._np = np
            addr_all, iw_all, offsets = concat_columns(
                [core._buf for core in system.cores], np)
            self._addr_all = addr_all
            self._iw_all = iw_all
            self._off = offsets
            self._l2_tags = arena.l2_tags
            self._l2_state = arena.l2_state
            self._l2_mask = params.l2.num_sets - 1
            self._a2 = np.arange(params.l2.assoc, dtype=np.int64)[None, :]
        self._max_out = params.core.max_outstanding
        self.vec_min = VEC_MIN
        #: reused scratch (one walk at a time; never re-entered)
        self._ev: List = []
        self._cands: List = []
        for core in system.cores:
            # Residue-only cores: a prefetcher turns every demand access
            # into a training event, so classification cannot help.
            core._fp_scalar = core.cache.prefetcher is not None
            core._fp_len = len(core._buf.addr)
            core._fp_seen = -1
            core._fp_cls_cursor = -1
            core._fp_l2_slot = -1

    # ------------------------------------------------------------------

    def run_cycle(self, cycle: int) -> None:
        """Drain every event due at ``cycle``, batching when possible.

        Exactly equivalent to ``scheduler.run_due(cycle)``; the caller
        guarantees the network has no work due this cycle.
        """
        sch = self.scheduler
        bucket = sch.peek_bucket(cycle)
        if bucket is None:
            sch.run_due(cycle)
            return
        ev = self._ev
        cands = self._cands
        ev.clear()
        cands.clear()
        if not self._scan(bucket, ev, cands, cycle):
            sch.run_due(cycle)
            return
        if len(cands) >= self.vec_min:
            self._classify(cands)
        while True:
            sch.consume_bucket(cycle)
            self._drain(ev, cycle)
            # Same-cycle appends (completion-driven steps, barrier
            # releases) land in a fresh bucket; keep draining them in
            # append order, exactly as run_due's live-list iteration.
            bucket = sch.peek_bucket(cycle)
            if bucket is None:
                return
            ev.clear()
            cands.clear()
            if not self._scan(bucket, ev, cands, cycle):
                sch.run_due(cycle)
                return
            if len(cands) >= self.vec_min:
                self._classify(cands)

    def _scan(self, bucket, ev, cands, cycle) -> bool:
        """Collect (kind, core) pairs; False on any foreign event.

        Step events' cores also become classification candidates for
        the vectorized probe pass (completions never probe — the steps
        they wake land in the next same-cycle bucket and are collected
        there).
        """
        collect = self._classify_on
        append = ev.append
        for cb in bucket:
            kind = getattr(cb, "_fp_kind", 0)
            if not kind:
                return False
            core = cb.__self__
            append((kind, core))
            if collect and kind == 2 and core._fp_seen != cycle:
                core._fp_seen = cycle
                if not (core._fp_scalar or core.finished
                        or core._at_barrier
                        or core._cursor >= core._fp_len):
                    cands.append(core)
        return True

    def _classify(self, cands) -> None:
        """One vectorized probe of every candidate's next trace row."""
        np = self._np
        k = len(cands)
        idx = np.fromiter((c.tile for c in cands), np.int64, k)
        cur = np.fromiter((c._cursor for c in cands), np.int64, k)
        rows = self._off[idx] + cur
        addr = self._addr_all[rows]
        line = addr >> _LINE_SHIFT
        hit2, slot2 = probe_sets(self._l2_tags, idx,
                                 line & self._l2_mask, line, self._a2)
        # Clean demand hit: resident, not a barrier row, and writable
        # when the row writes (E/M; an S write is an upgrade miss).
        clean = hit2 & (addr >= 0) & (
            (self._iw_all[rows] == 0)
            | (self._l2_state[idx, slot2] != PRIV_S))
        clean_l = clean.tolist()
        slot2_l = slot2.tolist()
        cur_l = cur.tolist()
        for j, core in enumerate(cands):
            if clean_l[j]:
                core._fp_cls_cursor = cur_l[j]
                core._fp_l2_slot = slot2_l[j]
            else:
                core._fp_cls_cursor = -1

    def _drain(self, ev, now) -> None:
        """The in-order walk: the bulk twin of one run_due bucket.

        Clean demand hits retire in one flat pass here — the inline
        replay of ``_step_buffered`` → ``access`` → ``_hit`` with the
        five-frame call chain collapsed.  Residency comes from the
        vectorized pre-pass when one ran (``_fp_cls_cursor`` matches),
        else from the same ``_slot_of`` dict probes the scalar path
        uses.  Every side effect below mirrors the scalar code in both
        kind and order; anything that is not a clean hit is handed to
        ``_step_buffered`` untouched.
        """
        sch = self.scheduler
        sch_at = sch.at
        max_out = self._max_out
        for kind, core in ev:
            if kind == 1:
                # -- inline Core._on_complete --
                core._outstanding -= 1
                core._c_completions.value += 1
                if core._at_barrier:
                    raise AssertionError(
                        "completion while parked at a barrier")
                if not core._step_scheduled:
                    core._step_scheduled = True
                    sch_at(now, core._step)
                continue
            # -- a step wakeup --
            if core.finished or core._at_barrier or core._fp_scalar:
                core._step_buffered()
                continue
            i = core._cursor
            if i >= core._fp_len:
                core._step_buffered()  # exhausted: the finish path
                continue
            buf = core._buf
            addr = buf.addr[i]
            if addr < 0:
                core._step_buffered()  # barrier sentinel row
                continue
            core._step_scheduled = False
            if not core._loaded:
                # The compute gap runs from the previous issue.
                core._loaded = True
                core._ready_cycle = core._last_issue + buf.work[i]
            if now < core._ready_cycle:
                # A pre-classified verdict must not outlive this cycle:
                # foreign buckets on later cycles may mutate the cache
                # before the wakeup fires.
                core._fp_cls_cursor = -1
                core._step_scheduled = True
                sch_at(core._ready_cycle, core._step)
                continue
            if core._outstanding >= max_out:
                core._fp_cls_cursor = -1  # same staleness guard
                core._c_window_stalls.value += 1
                continue
            cache = core.cache
            l2 = cache.l2
            is_write = buf.is_write[i]
            line = addr >> _LINE_SHIFT
            if core._fp_cls_cursor == i:
                # Pre-classified clean by the vectorized probe pass.
                l2_slot = core._fp_l2_slot
            else:
                l2_slot = cache._l2_slot_get(line, -1)
                if l2_slot < 0 or (is_write
                                   and l2._state[l2_slot] == PRIV_S):
                    core._step_buffered()  # miss or upgrade residue
                    continue
            l1_slot = cache._l1_slot_get(line, -1)
            # ---- issue: the inline twin of the scalar hit chain ----
            core._cursor = i + 1
            core._loaded = False
            core._outstanding += 1
            insts = buf.insts[i]
            core.instructions += insts if insts > 0 else buf.work[i] + 1
            core._c_accesses.value += 1
            core._last_issue = now
            cache._c_demand_accesses.value += 1
            if l1_slot >= 0:
                l1 = cache.l1
                l1._stamp = stamp = l1._stamp + 1
                l1._stamps[l1_slot] = stamp
                cache._c_l1_hits.value += 1
                latency = cache._l1_hit_cycles
            else:
                cache._c_l2_hits.value += 1
                latency = cache._l2_hit_latency
            l2._stamp = stamp = l2._stamp + 1
            l2._stamps[l2_slot] = stamp
            flags = l2._flags[l2_slot]
            if flags & F_PUSHED and not flags & F_ACCESSED:
                cache._c_push_miss_to_hit.value += 1
                cache.upc += 1  # _count_useful_push
            l2._flags[l2_slot] = flags | F_ACCESSED
            if l1_slot < 0:
                cache._fill_l1(line)
            if is_write:
                l2._state[l2_slot] = PRIV_M
                l2._flags[l2_slot] |= F_DIRTY
            sch_at(now + latency, core._on_complete)
            # ---- continue the scalar while-loop on the next row ----
            i += 1
            if i >= core._fp_len:
                continue  # outstanding > 0: the scalar loop returns
            if buf.addr[i] < 0:
                continue  # barrier row drains the window first
            ready = now + buf.work[i]
            core._loaded = True
            core._ready_cycle = ready
            if ready > now:
                core._step_scheduled = True
                sch_at(ready, core._step)
            else:
                # A zero-gap row would issue in the same scalar loop
                # pass; re-enter the scalar twin to continue it.
                core._step_buffered()
