"""The campaign job server: asyncio HTTP front, journaled job store.

Pure standard library — the HTTP/1.1 front end is hand-rolled on
:func:`asyncio.start_server` (the container has no third-party HTTP
stack, and the API surface is small enough that a dependency would
cost more than it saves).

Design invariants, in the order they matter:

1. **Never lose accepted work.**  Every admission and every state
   transition is journaled through the same torn-tail-safe
   :class:`~repro.sim.checkpoint.CheckpointJournal` the campaigns use,
   with ``replace=True`` records so the latest state wins on replay.
   A SIGKILL'd server restarts, bumps its *generation*, finds RUNNING
   jobs whose lease carries a dead generation, and re-adopts them —
   their per-job checkpoint directories resume the actual work
   byte-identically.
2. **Reject before you drop.**  Admission control is explicit: a full
   queue or an exhausted tenant quota answers HTTP 429 with a
   ``Retry-After`` header *at submission time*; work that was accepted
   is never shed.  Under pressure the server degrades in rungs —
   level 1 forces per-job serial execution, level 2 stops admitting
   entirely (503) while still finishing everything accepted.
3. **Fairness is round-robin over tenants**, not FIFO over jobs: the
   scheduler rotates through tenants with queued work, so one tenant's
   burst cannot starve another's single job, and per-tenant running
   caps hold even when the global pool has free workers.

Threading model: all server state lives on the event loop thread.
Jobs execute on worker threads via ``asyncio.to_thread``; the only
thing a worker thread does to the server is schedule
``call_soon_threadsafe(...)`` trampolines.
"""

from __future__ import annotations

import asyncio
import html
import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Set, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.errors import ServiceError, ValidationError
from repro.sim.checkpoint import CheckpointJournal, fingerprint
from repro.sim.parallel import ParallelSweepExecutor, validate_supervision
from repro.service.execution import JobCancelled, execute_job
from repro.service.jobs import (
    Job,
    JobState,
    JobSpec,
    job_id,
    validate_spec,
)
from repro.service.telemetry import JobTelemetryFeed
from repro.telemetry.metrics import Gauge

#: Journal work-fingerprint — constant on purpose: the server journal
#: belongs to the *data directory*, not to any particular workload.
_JOURNAL_VERSION = 1

_REASONS = {
    200: "OK",
    201: "Created",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Cap on retained per-job event history (progress events dominate).
_MAX_JOB_EVENTS = 4096


@dataclass
class ServiceConfig:
    """Everything the job server needs to run."""

    data_dir: str
    host: str = "127.0.0.1"
    #: 0 picks an ephemeral port; the bound port is ``server.port``.
    port: int = 0
    #: Maximum concurrently *running* jobs (the worker pool).
    workers: int = 2
    #: Process parallelism *inside* one job (campaign trial slices);
    #: forced to 1 at degradation level >= 1.
    jobs_per_job: int = 1
    #: Global bound on queued (admitted, not yet running) jobs.
    max_queue: int = 8
    #: Per-tenant cap on concurrently running jobs.
    tenant_max_running: int = 2
    #: Per-tenant cap on queued jobs.
    tenant_max_queued: int = 4
    #: Per-tenant cap on queued+running *work* (trial-weighted).
    tenant_max_trials: int = 100_000
    #: Seconds clients should wait before retrying a 429/503.
    retry_after: int = 2
    #: Lease heartbeat period while a job runs.
    heartbeat_seconds: float = 1.0
    #: Default supervision for job executors (per-slice timeout /
    #: retry rounds); a job spec may override both.
    timeout: Optional[float] = None
    retries: int = 2
    #: Content-addressed result cache consulted by campaign jobs.
    cache_dir: Optional[str] = None
    cache_stamp: Optional[str] = None
    #: Worker-crash retries tolerated before degrading to serial.
    degrade_crash_threshold: int = 3
    #: ru_maxrss soft/hard limits in MiB (None = unlimited).
    memory_soft_mb: Optional[float] = None
    memory_hard_mb: Optional[float] = None
    request_body_limit: int = 1 << 20


class JobServer:
    """One generation of the campaign service over a data directory."""

    def __init__(self, config: ServiceConfig) -> None:
        validate_supervision(
            timeout=config.timeout, retries=config.retries
        )
        if config.workers < 1:
            raise ValidationError("workers must be >= 1")
        if config.max_queue < 1:
            raise ValidationError("max_queue must be >= 1")
        self.config = config
        # The executor template: per-job executors are derived from it
        # with with_overrides(), so supervision policy lives in one
        # place and spec-level overrides stay explicit.
        self._executor_template = ParallelSweepExecutor(
            jobs=config.jobs_per_job,
            timeout=config.timeout,
            retries=config.retries,
        )
        self.jobs: Dict[str, Job] = {}
        self._queues: Dict[str, Deque[str]] = {}
        self._tenant_rr: List[str] = []
        self._running: Dict[str, threading.Event] = {}
        self._tasks: Set[asyncio.Task] = set()
        self._events: Dict[str, List[dict]] = {}
        #: Live telemetry feeds, one per job attempt; kept after the
        #: job finishes so late watchers still get the full replay.
        self._feeds: Dict[str, JobTelemetryFeed] = {}
        self._service_events: Deque[dict] = deque(maxlen=256)
        self._seq = 0
        self._event_seq = 0
        self.generation = 0
        self.level = 0
        self.port: Optional[int] = None
        self._journal: Optional[CheckpointJournal] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._cache = None
        self._crash_signals = 0
        self._stop_requested = False
        self._stopped: Optional[asyncio.Event] = None
        self._started_clock = time.perf_counter()
        self._gauge_queue = Gauge("queue_depth")
        self._gauge_inflight = Gauge("inflight")
        self._counters: Dict[str, int] = {
            "submitted": 0,
            "attached": 0,
            "rejected_validation": 0,
            "rejected_backpressure": 0,
            "rejected_quota": 0,
            "rejected_degraded": 0,
            "succeeded": 0,
            "failed": 0,
            "cancelled": 0,
            "adopted": 0,
        }

    # ------------------------------------------------------------------
    # Lifecycle

    async def start(self) -> None:
        """Recover the journal, bump the generation, start listening."""
        os.makedirs(self.config.data_dir, exist_ok=True)
        self._stopped = asyncio.Event()
        self._journal = CheckpointJournal(
            os.path.join(self.config.data_dir, "server.jsonl"),
            fingerprint("service-journal", _JOURNAL_VERSION),
        )
        prior = self._journal.get("generation", {"generation": 0})
        self.generation = int(prior["generation"]) + 1
        self._journal.record(
            "generation", {"generation": self.generation}, replace=True
        )
        self._recover_jobs()
        self._configure_cache()
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._update_gauges()
        self._pump()

    def _recover_jobs(self) -> None:
        """Rebuild the job table; re-adopt orphans of dead generations.

        A RUNNING job whose lease names another generation was in
        flight when that server died — it is requeued (attempt count
        preserved) and its per-job checkpoint directory makes the
        re-run resume instead of restart.
        """
        assert self._journal is not None
        for key in list(self._journal.keys()):
            if not key.startswith("job:"):
                continue
            job = Job.from_dict(self._journal.get(key))
            self.jobs[job.id] = job
            self._seq = max(self._seq, job.submitted_seq + 1)
        for job in sorted(
            self.jobs.values(), key=lambda j: j.submitted_seq
        ):
            if job.spec.tenant not in self._queues:
                self._queues[job.spec.tenant] = deque()
                self._tenant_rr.append(job.spec.tenant)
            if job.state is JobState.QUEUED:
                self._queues[job.spec.tenant].append(job.id)
            elif job.state is JobState.RUNNING:
                lease = self._journal.get(f"lease:{job.id}", {})
                lease_gen = int(lease.get("generation", 0))
                if lease_gen != self.generation:
                    job.state = JobState.QUEUED
                    self._record_job(job)
                    self._queues[job.spec.tenant].append(job.id)
                    self._counters["adopted"] += 1
                    self._emit(
                        "service.adopt", job=job.id, generation=lease_gen
                    )

    def _configure_cache(self) -> None:
        if not self.config.cache_dir:
            return
        from repro.sim.result_cache import ResultCache, resolve_cache_stamp

        self._cache = ResultCache(
            self.config.cache_dir,
            code_stamp=resolve_cache_stamp(self.config.cache_stamp),
        )
        self._executor_template = self._executor_template.with_overrides(
            cache=self._cache
        )

    def request_stop(self) -> None:
        """Begin a graceful stop: no new admissions, no new launches.

        Running jobs drain to completion (their journals make even an
        impatient SIGKILL safe); queued jobs stay journaled for the
        next generation.
        """
        if self._stop_requested:
            return
        self._stop_requested = True
        if self._server is not None:
            self._server.close()
        if not self._running and self._stopped is not None:
            self._stopped.set()

    async def wait_stopped(self) -> None:
        """Block until a requested stop has fully drained, then clean
        up (final manifest, journal close)."""
        assert self._stopped is not None
        await self._stopped.wait()
        if self._server is not None:
            await self._server.wait_closed()
        self._write_service_manifest()
        if self._journal is not None:
            self._journal.close()
            self._journal = None

    async def stop(self) -> None:
        self.request_stop()
        await self.wait_stopped()

    # ------------------------------------------------------------------
    # Admission

    def admit(
        self, payload: Any
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        """Admission control for one submission body.

        Returns ``(status, body, extra_headers)``.  Ordering matters:
        validation first (a bad spec is 400 even under overload), then
        idempotent attach (attaching costs nothing, so it succeeds even
        when degraded), then degradation / backpressure / quota.
        """
        retry = {"Retry-After": str(self.config.retry_after)}
        try:
            spec = validate_spec(payload)
        except ValidationError as exc:
            tenant = "unknown"
            if isinstance(payload, dict) and isinstance(
                payload.get("tenant"), str
            ):
                tenant = payload["tenant"]
            self._reject(tenant, "validation")
            return (
                400,
                {"error": str(exc), "type": "ValidationError"},
                {},
            )

        jid = job_id(spec)
        existing = self.jobs.get(jid)
        if existing is not None:
            self._counters["attached"] += 1
            self._emit(
                "service.attach", job=jid, tenant=spec.tenant
            )
            return 200, {"job": existing.status(), "attached": True}, {}

        if self._stop_requested or self.level >= 2:
            self._reject(spec.tenant, "degraded")
            return (
                503,
                {
                    "error": "server is draining; not accepting work",
                    "level": self.level,
                },
                retry,
            )
        queued_total = sum(len(q) for q in self._queues.values())
        if queued_total >= self.config.max_queue:
            self._reject(spec.tenant, "backpressure")
            return (
                429,
                {
                    "error": "queue full",
                    "reason": "backpressure",
                    "queue_depth": queued_total,
                },
                retry,
            )
        tenant_queue = self._queues.get(spec.tenant, ())
        if len(tenant_queue) >= self.config.tenant_max_queued:
            self._reject(spec.tenant, "quota")
            return (
                429,
                {
                    "error": (
                        f"tenant {spec.tenant!r} has "
                        f"{len(tenant_queue)} queued jobs (cap "
                        f"{self.config.tenant_max_queued})"
                    ),
                    "reason": "quota",
                },
                retry,
            )
        weight = spec.weight() + self._tenant_weight(spec.tenant)
        if weight > self.config.tenant_max_trials:
            self._reject(spec.tenant, "quota")
            return (
                429,
                {
                    "error": (
                        f"tenant {spec.tenant!r} would hold {weight} "
                        f"queued trials (cap "
                        f"{self.config.tenant_max_trials})"
                    ),
                    "reason": "quota",
                },
                retry,
            )

        job = Job(id=jid, spec=spec, submitted_seq=self._seq)
        self._seq += 1
        self.jobs[jid] = job
        if spec.tenant not in self._queues:
            self._queues[spec.tenant] = deque()
            self._tenant_rr.append(spec.tenant)
        self._queues[spec.tenant].append(jid)
        self._record_job(job)
        self._counters["submitted"] += 1
        self._emit(
            "service.submit",
            job=jid,
            tenant=spec.tenant,
            job_kind=spec.kind,
        )
        self._update_gauges()
        self._pump()
        return 201, {"job": job.status()}, {}

    def _tenant_weight(self, tenant: str) -> int:
        """Admitted-but-unfinished work currently held by ``tenant``."""
        total = 0
        for jid in self._queues.get(tenant, ()):
            total += self.jobs[jid].spec.weight()
        for jid in self._running:
            job = self.jobs[jid]
            if job.spec.tenant == tenant:
                total += job.spec.weight()
        return total

    def _reject(self, tenant: str, reason: str) -> None:
        self._counters[f"rejected_{reason}"] += 1
        self._emit("service.reject", tenant=tenant, reason=reason)

    def cancel(self, jid: str) -> Tuple[int, Dict[str, Any]]:
        job = self.jobs.get(jid)
        if job is None:
            return 404, {"error": f"unknown job {jid!r}"}
        if job.terminal:
            return (
                409,
                {
                    "error": (
                        f"job {jid} already terminal "
                        f"({job.state.value})"
                    )
                },
            )
        if job.state is JobState.QUEUED:
            try:
                self._queues[job.spec.tenant].remove(jid)
            except ValueError:
                pass
            self._finish(job, JobState.CANCELLED, error=None)
            return 200, {"job": job.status()}
        # RUNNING: flag the worker thread; it observes the flag at the
        # next trial/experiment boundary.
        self._running[jid].set()
        return 202, {"job": job.status(), "cancelling": True}

    # ------------------------------------------------------------------
    # Scheduling and execution

    def _next_job(self) -> Optional[Job]:
        """Round-robin across tenants under the per-tenant running cap."""
        for tenant in list(self._tenant_rr):
            queue = self._queues.get(tenant)
            if not queue:
                continue
            running = sum(
                1
                for jid in self._running
                if self.jobs[jid].spec.tenant == tenant
            )
            if running >= self.config.tenant_max_running:
                continue
            jid = queue.popleft()
            self._tenant_rr.remove(tenant)
            self._tenant_rr.append(tenant)
            return self.jobs[jid]
        return None

    def _pump(self) -> None:
        if self._stop_requested:
            return
        while len(self._running) < self.config.workers:
            job = self._next_job()
            if job is None:
                break
            cancel = threading.Event()
            self._running[job.id] = cancel
            task = asyncio.create_task(self._run_job(job, cancel))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)
        self._update_gauges()

    def _job_executor(self, job: Job) -> ParallelSweepExecutor:
        overrides: Dict[str, Any] = {}
        if self.level >= 1:
            overrides["jobs"] = 1
        if job.spec.timeout is not None:
            overrides["timeout"] = job.spec.timeout
        if job.spec.retries is not None:
            overrides["retries"] = job.spec.retries
        return self._executor_template.with_overrides(**overrides)

    def _job_dir(self, jid: str) -> str:
        return os.path.join(self.config.data_dir, "jobs", jid)

    async def _run_job(
        self, job: Job, cancel: threading.Event
    ) -> None:
        job.state = JobState.RUNNING
        job.generation = self.generation
        job.attempts += 1
        self._record_job(job)
        self._record_lease(job, 0)
        self._emit(
            "service.start",
            job=job.id,
            tenant=job.spec.tenant,
            job_kind=job.spec.kind,
        )
        self._update_gauges()
        loop = asyncio.get_running_loop()

        def progress(done: int, total: int) -> None:
            loop.call_soon_threadsafe(
                self._note_progress, job, done, total
            )

        executor = self._job_executor(job)
        heartbeat = asyncio.create_task(self._heartbeat(job))
        # A fresh feed per attempt: a re-adopted job's watchers see the
        # resumed attempt's events, not a stale buffer.
        feed = JobTelemetryFeed(job.id)
        self._feeds[job.id] = feed
        state = JobState.SUCCEEDED
        error: Optional[str] = None
        outcome = None
        try:
            outcome = await asyncio.to_thread(
                execute_job,
                job,
                self._job_dir(job.id),
                executor,
                progress,
                cancel,
                feed,
            )
        except JobCancelled:
            state = JobState.CANCELLED
        except Exception as exc:  # noqa: BLE001 — FAILED, not crashed
            state = JobState.FAILED
            error = f"{type(exc).__name__}: {exc}"
        finally:
            heartbeat.cancel()
            feed.close()
        if outcome is not None:
            job.summary = outcome.summary
            job.artifact = outcome.artifact
        self._absorb_supervision(executor)
        self._finish(job, state, error)
        self._check_pressure()
        self._write_service_manifest()
        self._pump()
        if self._stop_requested and not self._running:
            assert self._stopped is not None
            self._stopped.set()

    def _finish(
        self, job: Job, state: JobState, error: Optional[str]
    ) -> None:
        self._running.pop(job.id, None)
        job.state = state
        job.error = error
        if state is JobState.SUCCEEDED and job.total:
            # Journal-restored trials never fire on_trial, so a
            # resumed job's live counter undershoots; completion is
            # total by definition.
            job.done = job.total
        self._record_job(job)
        self._counters[state.value.lower()] += 1
        self._emit(
            "service.complete", job=job.id, state=state.value
        )
        self._update_gauges()

    async def _heartbeat(self, job: Job) -> None:
        seq = 0
        try:
            while True:
                await asyncio.sleep(self.config.heartbeat_seconds)
                seq += 1
                self._record_lease(job, seq)
        except asyncio.CancelledError:
            pass

    def _note_progress(self, job: Job, done: int, total: int) -> None:
        job.done = done
        job.total = total
        self._emit(
            "service.progress", job=job.id, done=done, total=total
        )

    # ------------------------------------------------------------------
    # Degradation

    def _absorb_supervision(
        self, executor: ParallelSweepExecutor
    ) -> None:
        """Fold a finished job's supervision history into the pressure
        signal: every retry the executor logged means a worker crashed,
        hung, or threw."""
        self._crash_signals += len(executor.retry_log)
        if (
            self.level < 1
            and self._crash_signals
            >= self.config.degrade_crash_threshold
        ):
            self.set_level(1, "worker-crashes")

    def _check_pressure(self) -> None:
        soft = self.config.memory_soft_mb
        hard = self.config.memory_hard_mb
        if soft is None and hard is None:
            return
        try:
            import resource

            used_mb = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                / 1024.0
            )
        except Exception:
            return
        if hard is not None and used_mb >= hard and self.level < 2:
            self.set_level(2, "memory-hard-limit")
        elif soft is not None and used_mb >= soft and self.level < 1:
            self.set_level(1, "memory-soft-limit")

    def set_level(self, level: int, reason: str) -> None:
        """Move the degradation ladder (0 normal, 1 serial, 2 frozen)."""
        level = max(0, min(2, int(level)))
        if level == self.level:
            return
        self.level = level
        self._emit("service.degrade", level=level, reason=reason)

    # ------------------------------------------------------------------
    # Telemetry

    def _emit(self, kind: str, **fields: Any) -> None:
        self._event_seq += 1
        event = {
            "kind": kind,
            "ns": time.time_ns(),
            "seq": self._event_seq,
            **fields,
        }
        jid = fields.get("job")
        if jid is not None:
            history = self._events.setdefault(jid, [])
            if len(history) < _MAX_JOB_EVENTS:
                history.append(event)
        else:
            self._service_events.append(event)

    def _update_gauges(self) -> None:
        self._gauge_queue.set(
            sum(len(q) for q in self._queues.values())
        )
        self._gauge_inflight.set(len(self._running))

    def service_block(self) -> Dict[str, Any]:
        """The manifest/metrics state block for this service period."""
        by_state: Dict[str, int] = {}
        for job in self.jobs.values():
            by_state[job.state.value] = (
                by_state.get(job.state.value, 0) + 1
            )
        tenants: Dict[str, Dict[str, int]] = {}
        for tenant, queue in self._queues.items():
            running = sum(
                1
                for jid in self._running
                if self.jobs[jid].spec.tenant == tenant
            )
            tenants[tenant] = {
                "queued": len(queue),
                "running": running,
                "weight": self._tenant_weight(tenant),
            }
        return {
            "generation": self.generation,
            "level": self.level,
            "gauges": {
                "queue_depth": {
                    "value": self._gauge_queue.value,
                    "max": self._gauge_queue.maximum,
                },
                "inflight": {
                    "value": self._gauge_inflight.value,
                    "max": self._gauge_inflight.maximum,
                },
            },
            "counters": dict(self._counters),
            "jobs": {"total": len(self.jobs), "by_state": by_state},
            "tenants": tenants,
        }

    def _write_service_manifest(self) -> None:
        from repro.telemetry.runtime import build_manifest, write_manifest

        write_manifest(
            os.path.join(self.config.data_dir, "manifest.json"),
            build_manifest(
                command="serve",
                config_fingerprint=fingerprint(
                    "service", _JOURNAL_VERSION
                ),
                arguments={
                    "host": self.config.host,
                    "port": self.port,
                    "workers": self.config.workers,
                    "max_queue": self.config.max_queue,
                    "tenant_max_running": self.config.tenant_max_running,
                    "tenant_max_queued": self.config.tenant_max_queued,
                },
                started=self._started_clock,
                result_cache=(
                    self._cache.stats()
                    if self._cache is not None
                    else None
                ),
                service=self.service_block(),
            ),
        )

    # ------------------------------------------------------------------
    # Journal helpers (event-loop thread only)

    def _record_job(self, job: Job) -> None:
        if self._journal is not None:
            self._journal.record(
                f"job:{job.id}", job.to_dict(), replace=True
            )

    def _record_lease(self, job: Job, seq: int) -> None:
        if self._journal is not None:
            self._journal.record(
                f"lease:{job.id}",
                {
                    "generation": self.generation,
                    "seq": seq,
                    "ns": time.time_ns(),
                },
                replace=True,
            )

    # ------------------------------------------------------------------
    # HTTP front end

    async def _handle_client(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            request = await asyncio.wait_for(
                reader.readline(), timeout=30
            )
            if not request:
                return
            parts = request.decode("latin-1").split()
            if len(parts) != 3:
                await self._respond(
                    writer, 400, {"error": "malformed request line"}
                )
                return
            method, target, _version = parts
            headers: Dict[str, str] = {}
            while True:
                line = await asyncio.wait_for(
                    reader.readline(), timeout=30
                )
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            length = int(headers.get("content-length", 0) or 0)
            if length > self.config.request_body_limit:
                await self._respond(
                    writer, 413, {"error": "request body too large"}
                )
                return
            body = (
                await asyncio.wait_for(
                    reader.readexactly(length), timeout=30
                )
                if length
                else b""
            )
            await self._route(method, target, body, writer)
        except (
            asyncio.IncompleteReadError,
            asyncio.TimeoutError,
            ConnectionError,
        ):
            pass
        except Exception as exc:  # noqa: BLE001 — keep serving
            try:
                await self._respond(
                    writer,
                    500,
                    {"error": f"{type(exc).__name__}: {exc}"},
                )
            except Exception:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _route(
        self,
        method: str,
        target: str,
        body: bytes,
        writer: asyncio.StreamWriter,
    ) -> None:
        url = urlsplit(target)
        path = url.path.rstrip("/") or "/"
        query = parse_qs(url.query)

        if path == "/v1/healthz" and method == "GET":
            await self._respond(
                writer,
                200,
                {
                    "ok": True,
                    "generation": self.generation,
                    "level": self.level,
                    "queue_depth": int(self._gauge_queue.value),
                    "inflight": int(self._gauge_inflight.value),
                    "active": sum(
                        1 for j in self.jobs.values() if not j.terminal
                    ),
                },
            )
            return
        if path == "/v1/metrics" and method == "GET":
            await self._respond(writer, 200, self.service_block())
            return
        if path == "/v1/jobs" and method == "POST":
            try:
                payload = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                await self._respond(
                    writer,
                    400,
                    {"error": f"request body is not JSON: {exc}"},
                )
                return
            status, doc, extra = self.admit(payload)
            await self._respond(writer, status, doc, extra)
            return
        if path == "/v1/jobs" and method == "GET":
            tenant = query.get("tenant", [None])[0]
            jobs = sorted(
                (
                    j
                    for j in self.jobs.values()
                    if tenant is None or j.spec.tenant == tenant
                ),
                key=lambda j: j.submitted_seq,
            )
            await self._respond(
                writer,
                200,
                {
                    "jobs": [j.status() for j in jobs],
                    "active": sum(1 for j in jobs if not j.terminal),
                },
            )
            return
        if path == "/v1/status" and method == "GET":
            await self._respond_html(writer, 200, self._status_html())
            return
        if path.startswith("/v1/jobs/"):
            rest = path[len("/v1/jobs/"):]
            if rest.endswith("/events") and method == "GET":
                jid = rest[: -len("/events")]
                job = self.jobs.get(jid)
                if job is None:
                    await self._respond(
                        writer, 404, {"error": f"unknown job {jid!r}"}
                    )
                    return
                await self._stream_events(writer, job)
                return
            if rest.endswith("/telemetry") and method == "GET":
                jid = rest[: -len("/telemetry")]
                job = self.jobs.get(jid)
                if job is None:
                    await self._respond(
                        writer, 404, {"error": f"unknown job {jid!r}"}
                    )
                    return
                await self._stream_telemetry(writer, job)
                return
            if rest.endswith("/cancel") and method == "POST":
                jid = rest[: -len("/cancel")]
                status, doc = self.cancel(jid)
                await self._respond(writer, status, doc)
                return
            jid = rest
            if method == "GET":
                job = self.jobs.get(jid)
                if job is None:
                    await self._respond(
                        writer, 404, {"error": f"unknown job {jid!r}"}
                    )
                    return
                await self._respond(writer, 200, {"job": job.status()})
                return
            if method == "DELETE":
                status, doc = self.cancel(jid)
                await self._respond(writer, status, doc)
                return
        if path == "/v1/admin/degrade" and method == "POST":
            try:
                payload = json.loads(body.decode("utf-8"))
                level = int(payload["level"])
            except Exception:
                await self._respond(
                    writer,
                    400,
                    {"error": "body must be {\"level\": 0|1|2}"},
                )
                return
            self.set_level(level, "admin")
            await self._respond(writer, 200, {"level": self.level})
            return
        await self._respond(
            writer, 404, {"error": f"no route {method} {path}"}
        )

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, Any],
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        head = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        for name, value in (extra_headers or {}).items():
            head.append(f"{name}: {value}")
        writer.write(
            ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body
        )
        await writer.drain()

    async def _respond_html(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        page: str,
    ) -> None:
        body = page.encode("utf-8")
        head = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            "Content-Type: text/html; charset=utf-8",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        writer.write(
            ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body
        )
        await writer.drain()

    def _status_html(self) -> str:
        """The ``/v1/status`` page: zero-dependency, auto-refreshing.

        Plain HTML with an inline stylesheet and a ``meta refresh`` —
        no scripts, no external assets — so it renders in anything
        that speaks HTTP, including ``curl | w3m``.
        """
        block = self.service_block()
        rows = []
        for job in sorted(
            self.jobs.values(), key=lambda j: j.submitted_seq
        ):
            progress = f"{job.done}/{job.total}" if job.total else "&#8212;"
            error = html.escape(job.error or "")
            rows.append(
                "<tr>"
                f"<td><code>{html.escape(job.id)}</code></td>"
                f"<td>{html.escape(job.spec.tenant)}</td>"
                f"<td>{html.escape(job.spec.kind)}</td>"
                f"<td class='s-{html.escape(job.state.value)}'>"
                f"{html.escape(job.state.value)}</td>"
                f"<td>{progress}</td>"
                f"<td>{error}</td>"
                "</tr>"
            )
        counters = block["counters"]
        return (
            "<!DOCTYPE html><html><head>"
            "<meta charset='utf-8'>"
            "<meta http-equiv='refresh' content='2'>"
            "<title>repro service</title>"
            "<style>"
            "body{font-family:monospace;margin:2em;background:#111;"
            "color:#ddd}"
            "table{border-collapse:collapse;margin-top:1em}"
            "td,th{border:1px solid #444;padding:.3em .8em;"
            "text-align:left}"
            ".s-RUNNING{color:#6cf}.s-SUCCEEDED{color:#6f6}"
            ".s-FAILED{color:#f66}.s-CANCELLED{color:#fc6}"
            ".s-QUEUED{color:#aaa}"
            "</style></head><body>"
            f"<h1>repro service &#8212; generation "
            f"{block['generation']}</h1>"
            f"<p>level {block['level']} &#183; queue "
            f"{int(self._gauge_queue.value)} &#183; inflight "
            f"{int(self._gauge_inflight.value)} &#183; submitted "
            f"{counters['submitted']} &#183; succeeded "
            f"{counters['succeeded']} &#183; failed "
            f"{counters['failed']}</p>"
            "<table><tr><th>job</th><th>tenant</th><th>kind</th>"
            "<th>state</th><th>progress</th><th>error</th></tr>"
            + "".join(rows)
            + "</table></body></html>"
        )

    async def _stream_events(
        self, writer: asyncio.StreamWriter, job: Job
    ) -> None:
        """Chunked NDJSON: replay the job's history, then follow until
        the job is terminal."""
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"Connection: close\r\n\r\n"
        )
        sent = 0
        while True:
            history = self._events.get(job.id, [])
            while sent < len(history):
                line = (
                    json.dumps(history[sent], sort_keys=True) + "\n"
                ).encode("utf-8")
                writer.write(
                    f"{len(line):x}\r\n".encode("latin-1")
                    + line
                    + b"\r\n"
                )
                sent += 1
            await writer.drain()
            if job.terminal and sent >= len(
                self._events.get(job.id, [])
            ):
                break
            await asyncio.sleep(0.05)
        writer.write(b"0\r\n\r\n")
        await writer.drain()

    async def _stream_telemetry(
        self, writer: asyncio.StreamWriter, job: Job
    ) -> None:
        """Chunked NDJSON over the job's live telemetry feed.

        Replays the feed from the start, then follows until the feed
        closes (the job's attempt finished).  A job that has not
        started yet streams nothing until its feed appears.
        """
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"Connection: close\r\n\r\n"
        )
        sent = 0
        while True:
            feed = self._feeds.get(job.id)
            if feed is not None:
                for event in feed.snapshot(sent):
                    line = (
                        json.dumps(event, sort_keys=True) + "\n"
                    ).encode("utf-8")
                    writer.write(
                        f"{len(line):x}\r\n".encode("latin-1")
                        + line
                        + b"\r\n"
                    )
                    sent += 1
            await writer.drain()
            if job.terminal and (
                feed is None or (feed.closed and sent >= len(feed))
            ):
                break
            await asyncio.sleep(0.05)
        writer.write(b"0\r\n\r\n")
        await writer.drain()


class ServerThread:
    """Run a :class:`JobServer` on a background thread (tests, tools).

    ``start()`` blocks until the server is listening and returns the
    bound port; ``stop()`` performs a graceful drain and joins.
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.server: Optional[JobServer] = None
        self.port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._listening = threading.Event()
        self._error: Optional[BaseException] = None

    def start(self) -> int:
        self._thread = threading.Thread(
            target=self._main, name="repro-service", daemon=True
        )
        self._thread.start()
        if not self._listening.wait(timeout=60):
            raise ServiceError("service thread failed to start in time")
        if self._error is not None:
            raise self._error
        assert self.port is not None
        return self.port

    def _main(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # noqa: BLE001
            self._error = exc
            self._listening.set()

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        self.server = JobServer(self.config)
        try:
            await self.server.start()
        except BaseException as exc:  # noqa: BLE001
            self._error = exc
            self._listening.set()
            return
        self.port = self.server.port
        self._listening.set()
        await self.server.wait_stopped()

    def stop(self, timeout: float = 120.0) -> None:
        if self._loop is not None and self.server is not None:
            try:
                self._loop.call_soon_threadsafe(
                    self.server.request_stop
                )
            except RuntimeError:
                pass
        if self._thread is not None:
            self._thread.join(timeout=timeout)
