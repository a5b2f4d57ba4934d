"""Trace replay through a controller, with a functional shadow model.

:func:`replay` drives every request through the controller and, when
asked, keeps a plain dict of the latest plaintext per address — the
oracle the crash/recovery tests compare post-recovery reads against.

:func:`replay_batched` is the drop-in fast variant: it feeds the
trace's columnar form through the chunked batch engine
(:mod:`repro.controller.batch`) wherever that is provably exact, and
replays request-by-request everywhere else — inside caller-declared
``scalar_windows`` (crash/fault/attack injection ranges), for
functional ``check_reads`` runs, under a live telemetry session, and
for controllers the batch engine does not support.  Results are
identical to :func:`replay` in all cases; only wall-clock differs.
A run picks its batch mode ("auto" / "on" / "off") on its
:class:`~repro.sim.parallel.ParallelSweepExecutor`, which ships it to
every cell and campaign worker.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.controller.access import Op
from repro.controller.base import SecureMemoryController
from repro.errors import ConfigError, IntegrityError
from repro.traces.trace import Trace

#: Legal batch replay modes.
BATCH_MODES = ("auto", "on", "off")


def check_batch_mode(mode: str) -> str:
    """``mode`` if it is one of :data:`BATCH_MODES`, else ConfigError.

    "auto" and "on" differ only in heuristics (auto may run mostly-cold
    chunks scalar); "off" forces request-by-request replay everywhere.
    """
    if mode not in BATCH_MODES:
        raise ConfigError(
            f"batch mode must be one of {BATCH_MODES}, got {mode!r}"
        )
    return mode


def _flush_deferred(controller) -> None:
    """Land host-side deferred metadata updates, if the controller has
    any (Bonsai eager tree hashing), so its caches show eager state."""
    flush = getattr(controller, "flush_deferred", None)
    if flush is not None:
        flush()


def replay(
    controller: SecureMemoryController,
    trace: Trace,
    oracle: Optional[Dict[int, bytes]] = None,
    check_reads: bool = False,
) -> Dict[int, bytes]:
    """Run every request of ``trace`` through ``controller``.

    Parameters
    ----------
    oracle:
        Optional pre-existing plaintext oracle to extend (for replays
        that continue an earlier stream, e.g. after recovery).
    check_reads:
        When True, every read's result is compared against the oracle —
        a full functional check, slower but used widely in tests.

    Returns the (possibly updated) oracle mapping address -> plaintext.
    On return, raised errors included, the controller has landed any
    deferred metadata updates, so callers that inspect its caches see
    the undeferred state.
    """
    shadow: Dict[int, bytes] = oracle if oracle is not None else {}
    # Never-written lines read back as zeros of the *configured* block
    # size; hard-coding 64 here made every non-64B geometry report
    # phantom IntegrityErrors on cold reads.
    blank = bytes(controller.config.memory.block_size)
    try:
        for request in trace:
            if request.op == Op.WRITE:
                controller.access(request)
                shadow[request.address] = request.data
            else:
                data = controller.access(request)
                if check_reads:
                    expected = shadow.get(request.address, blank)
                    if data != expected:
                        raise IntegrityError(
                            f"replay mismatch at {request.address:#x}: "
                            f"controller returned different plaintext "
                            f"than the oracle"
                        )
    finally:
        _flush_deferred(controller)
    return shadow


def _replay_range(
    controller: SecureMemoryController,
    trace: Trace,
    shadow: Dict[int, bytes],
    blank: bytes,
    check_reads: bool,
    start: int,
    stop: int,
) -> None:
    """Scalar replay of ``trace[start:stop)`` — the :func:`replay` body."""
    from repro.telemetry.runtime import active_sampler

    sampler = active_sampler()
    if sampler is not None:
        # Duplicated loop: the common no-sampling path must not pay a
        # per-request None check on top of the access itself.
        for request in trace.iter_range(start, stop):
            if request.op == Op.WRITE:
                controller.access(request)
                shadow[request.address] = request.data
            else:
                data = controller.access(request)
                if check_reads:
                    expected = shadow.get(request.address, blank)
                    if data != expected:
                        raise IntegrityError(
                            f"replay mismatch at {request.address:#x}: "
                            f"controller returned different plaintext "
                            f"than the oracle"
                        )
            sampler.tick(controller)
        return
    for request in trace.iter_range(start, stop):
        if request.op == Op.WRITE:
            controller.access(request)
            shadow[request.address] = request.data
        else:
            data = controller.access(request)
            if check_reads:
                expected = shadow.get(request.address, blank)
                if data != expected:
                    raise IntegrityError(
                        f"replay mismatch at {request.address:#x}: "
                        f"controller returned different plaintext than "
                        f"the oracle"
                    )


def _merge_windows(
    windows: Optional[Iterable[Tuple[int, int]]], total: int
) -> List[Tuple[int, int]]:
    """Clip windows to ``[0, total)``, sort, and merge overlaps."""
    if not windows:
        return []
    clipped = sorted(
        (max(0, int(lo)), min(total, int(hi)))
        for lo, hi in windows
    )
    merged: List[Tuple[int, int]] = []
    for lo, hi in clipped:
        if hi <= lo:
            continue
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def replay_batched(
    controller: SecureMemoryController,
    trace: Trace,
    oracle: Optional[Dict[int, bytes]] = None,
    check_reads: bool = False,
    scalar_windows: Optional[Iterable[Tuple[int, int]]] = None,
    chunk_size: Optional[int] = None,
    batch: str = "auto",
    start: int = 0,
    stop: Optional[int] = None,
) -> Dict[int, bytes]:
    """Drop-in :func:`replay` that batches the steady-state hot path.

    Parameters mirror :func:`replay`, plus:

    scalar_windows:
        ``(start, stop)`` request-index ranges that must run through the
        plain per-request path — crash points, fault-injection spans,
        attack windows.  Anything a campaign perturbs mid-stream belongs
        here; the fast path's proof of exactness assumes an undisturbed
        window (see DESIGN.md).
    chunk_size:
        Accesses per planning chunk (default
        :data:`repro.controller.batch.DEFAULT_CHUNK`).
    batch:
        Batch mode, one of :data:`BATCH_MODES`; "off" degenerates to
        scalar replay.
    start, stop:
        Replay only requests ``[start, stop)`` (default: the whole
        trace).  Callers that must pause at known indices — the fault
        campaign snapshotting the persistent domain at crash points —
        replay segment by segment with the same semantics as one pass.

    The result — oracle content, controller state, statistics, timing,
    raised errors — is identical to :func:`replay` for every supported
    configuration; unsupported ones silently run scalar.  As after
    :func:`replay`, deferred metadata updates have landed on return.
    """
    from repro.controller.batch import (
        DEFAULT_CHUNK,
        batch_supported,
        run_batched_range,
    )

    mode = check_batch_mode(batch)
    shadow: Dict[int, bytes] = oracle if oracle is not None else {}
    blank = bytes(controller.config.memory.block_size)
    total = len(trace)
    if stop is None:
        stop = total
    start = max(0, start)
    stop = min(total, stop)
    if stop <= start:
        return shadow

    from repro.telemetry.runtime import live_tracer

    tracer = live_tracer()
    if tracer.enabled:
        # A live tracer always forces the whole range scalar, so these
        # events are identical across batch modes (the cross-mode
        # bit-identity contract extends to the event stream).
        from repro.controller.batch import scalar_fallback_reason

        reason = (
            scalar_fallback_reason(controller, check_reads) or "telemetry"
        )
        tracer.emit("batch.fallback", reason=reason, start=start, stop=stop)
        for lo, hi in _merge_windows(scalar_windows, total):
            lo, hi = max(lo, start), min(hi, stop)
            if hi > lo:
                tracer.emit(
                    "batch.fallback",
                    reason="scalar_window",
                    start=lo,
                    stop=hi,
                )
    columns = None
    if mode != "off" and not check_reads and batch_supported(controller):
        columns = trace.to_columns()
    try:
        if columns is None:
            _replay_range(
                controller, trace, shadow, blank, check_reads, start, stop
            )
            return shadow
        if chunk_size is None:
            chunk_size = DEFAULT_CHUNK
        position = start
        for lo, hi in _merge_windows(scalar_windows, total):
            lo = max(lo, start)
            hi = min(hi, stop)
            if hi <= lo:
                continue
            if position < lo:
                run_batched_range(
                    controller, columns, position, lo, shadow, chunk_size,
                    mode,
                )
            _replay_range(
                controller, trace, shadow, blank, check_reads, lo, hi
            )
            position = hi
        if position < stop:
            run_batched_range(
                controller, columns, position, stop, shadow, chunk_size, mode
            )
    finally:
        _flush_deferred(controller)
    return shadow
