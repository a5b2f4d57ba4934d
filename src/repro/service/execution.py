"""Kind-specific job execution for the campaign service.

One rule governs everything here: a job executed by the service must
produce artifacts **byte-identical** to the same work run directly
through the CLI or the experiments harness.  That is achieved by
*reuse*, not reimplementation — campaign jobs call
:func:`repro.faults.campaign.run_campaign` /
:func:`repro.attacks.campaign.run_attack_campaign` with the job's own
checkpoint directory, sweep jobs drive the exact journal + artifact
protocol of ``python -m repro.experiments --resume``, and all of them
write through :func:`~repro.sim.checkpoint.write_artifact`.  A job that
was SIGKILL'd mid-run resumes from its per-job journal and still
converges on the same bytes.

Execution happens on a worker thread (``asyncio.to_thread``); the
``progress`` callback and ``cancelled`` event are the only channels
back to the server's event loop, and the callback must be thread-safe
(the server passes a ``call_soon_threadsafe`` trampoline).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable, Dict, Optional

from repro.sim.checkpoint import (
    CheckpointJournal,
    fingerprint,
    write_artifact,
)
from repro.sim.parallel import ParallelSweepExecutor
from repro.service.jobs import Job


class JobCancelled(Exception):
    """Raised inside the worker thread when the job was cancelled.

    Deliberately *not* a :class:`~repro.errors.ReproError`: it is a
    control-flow signal, and the server maps it to the CANCELLED
    terminal state rather than FAILED.
    """


@dataclass
class JobOutcome:
    """What a successfully finished job hands back to the server."""

    summary: Dict[str, Any]
    #: Path of the primary result artifact, relative to the job dir.
    artifact: Optional[str]


ProgressFn = Callable[[int, int], None]


class _NeverSet:
    """Stand-in cancel flag for callers that never cancel."""

    @staticmethod
    def is_set() -> bool:
        return False


#: Every Nth completed trial also emits a ``metric.sample`` progress
#: snapshot into the live feed (the final trial always does).
FEED_SAMPLE_EVERY = 16


def execute_job(
    job: Job,
    job_dir: str,
    executor: ParallelSweepExecutor,
    progress: Optional[ProgressFn] = None,
    cancelled=None,
    feed=None,
) -> JobOutcome:
    """Run one job to completion inside ``job_dir``.

    Resumable: re-running after a crash with the same ``job_dir`` skips
    journaled work and produces identical artifacts.  Raises
    :class:`JobCancelled` when the ``cancelled`` event is observed set,
    and lets any worker exception propagate (the server records it as
    FAILED with the message).

    ``feed`` is an optional
    :class:`~repro.service.telemetry.JobTelemetryFeed`: trial outcomes
    and periodic progress samples are emitted into it for live
    streaming.  The feed never influences execution or artifacts.
    """
    os.makedirs(job_dir, exist_ok=True)
    if progress is None:
        progress = lambda done, total: None  # noqa: E731
    if cancelled is None:
        cancelled = _NeverSet()
    kind = job.spec.kind
    if kind == "probe":
        return _execute_probe(job, job_dir, progress, cancelled, feed)
    if kind == "sweep":
        return _execute_sweep(
            job, job_dir, executor, progress, cancelled, feed
        )
    if kind in ("faults", "attack"):
        return _execute_campaign(
            job, job_dir, executor, progress, cancelled, feed
        )
    raise ValueError(f"unknown job kind {kind!r}")


def _feed_sample(feed, done: int, total: int) -> None:
    """Progress snapshot for the live feed (throttled by the caller)."""
    feed.emit(
        "metric.sample",
        tick=done,
        values={"done": float(done), "total": float(total)},
    )


def _system_config(params: Dict[str, Any]):
    """The simulated system for a campaign job's parameters.

    Delegates to the CLI's resolver so scheme/tree aliases ("anubis",
    "bmt") and Table-1 defaults stay in lock-step with direct runs.
    """
    from repro.cli import _resolve_faults_system

    return _resolve_faults_system(
        SimpleNamespace(
            scheme=params["scheme"],
            tree=params["tree"],
            capacity_gib=params["capacity_gib"],
            cache_kib=params["cache_kib"],
        )
    )


def _execute_campaign(
    job: Job,
    job_dir: str,
    executor: ParallelSweepExecutor,
    progress: ProgressFn,
    cancelled,
    feed=None,
) -> JobOutcome:
    """Fault or attack campaign — the CLI code path with a journal."""
    from repro.faults.campaign import _build_plan

    params = job.spec.params
    system = _system_config(params)
    if job.spec.kind == "faults":
        from repro.faults.campaign import CampaignConfig, run_campaign

        campaign = CampaignConfig(
            system=system,
            seed=params["seed"],
            trials=None if params["exhaustive"] else params["trials"],
            workload=params["workload"],
            trace_length=params["length"],
            num_crash_points=params["crash_points"],
            probe_reads=params["probe_reads"],
            nested_crash_fraction=params["nested_fraction"],
        )
        runner = run_campaign
        plan_campaign = campaign
        artifact_name = "campaign.json"
        artifact_kind = "fault-campaign"
    else:
        from repro.attacks.campaign import (
            AttackCampaignConfig,
            _fault_campaign,
            run_attack_campaign,
        )
        from repro.faults.models import (
            WINDOW_AT_CRASH,
            WINDOW_MID_RECOVERY,
        )

        if params["window"] == "both":
            windows = (WINDOW_AT_CRASH, WINDOW_MID_RECOVERY)
        else:
            windows = (params["window"],)
        campaign = AttackCampaignConfig(
            system=system,
            seed=params["seed"],
            trials=params["trials"],
            workload=params["workload"],
            trace_length=params["length"],
            num_crash_points=params["crash_points"],
            probe_reads=params["probe_reads"],
            windows=windows,
        )
        runner = run_attack_campaign
        plan_campaign = _fault_campaign(campaign)
        artifact_name = "attack_campaign.json"
        artifact_kind = "attack-campaign"

    total = len(_build_plan(plan_campaign).plan)
    progress(0, total)
    completed = [0]

    def on_trial(trial) -> None:
        if cancelled.is_set():
            raise JobCancelled(job.id)
        completed[0] += 1
        progress(completed[0], total)
        if feed is not None:
            # Fault trials carry .fault, attack trials .attack; both
            # land in the schema's ``model`` slot.
            feed.emit(
                "trial.outcome",
                trial=trial.index,
                model=str(
                    getattr(trial, "fault", None)
                    or getattr(trial, "attack", "?")
                ),
                outcome=trial.outcome.value,
                crash_point=trial.crash_point,
            )
            if (
                completed[0] % FEED_SAMPLE_EVERY == 0
                or completed[0] == total
            ):
                _feed_sample(feed, completed[0], total)

    result = runner(
        campaign,
        checkpoint_dir=job_dir,
        executor=executor,
        on_trial=on_trial,
    )
    if cancelled.is_set():
        raise JobCancelled(job.id)
    artifact = os.path.join(job_dir, artifact_name)
    write_artifact(artifact, result.to_dict(), kind=artifact_kind)
    summary: Dict[str, Any] = {
        "trials": len(result.trials),
        "outcomes": {
            name: count
            for name, count in result.outcome_counts().items()
            if count
        },
    }
    if job.spec.kind == "attack":
        summary["verdicts"] = {
            name: count
            for name, count in result.verdict_counts().items()
            if count
        }
        summary["violations"] = len(result.violations())
    else:
        summary["silent"] = len(result.silent_trials())
    return JobOutcome(summary=summary, artifact=artifact_name)


def _execute_sweep(
    job: Job,
    job_dir: str,
    executor: ParallelSweepExecutor,
    progress: ProgressFn,
    cancelled,
    feed=None,
) -> JobOutcome:
    """Paper-figure sweep — the experiments runner's resume protocol.

    Journal fingerprint, record keys, and the ``results.json``
    artifact kind all match ``python -m repro.experiments --resume``
    exactly, so the artifact is ``cmp``-identical to a direct run of
    the same experiment list.  The wrappers' human-readable report
    goes to ``log.txt`` in the job directory instead of the server's
    stdout.
    """
    from repro.experiments.runner import EXPERIMENTS

    params = job.spec.params
    names = list(params["experiments"])
    full = bool(params["full"])
    journal = CheckpointJournal(
        os.path.join(job_dir, "experiments.jsonl"),
        fingerprint("experiments", full),
    )
    collected: Dict[str, dict] = {}
    total = len(names)
    progress(0, total)
    try:
        with open(
            os.path.join(job_dir, "log.txt"), "a", encoding="utf-8"
        ) as log:
            for done, name in enumerate(names, start=1):
                if cancelled.is_set():
                    raise JobCancelled(job.id)
                key = f"experiment:{name}"
                if key in journal:
                    collected[name] = journal.get(key)
                else:
                    collected[name] = EXPERIMENTS[name](
                        full, executor, out=log
                    )
                    journal.record(key, collected[name])
                progress(done, total)
                if feed is not None:
                    _feed_sample(feed, done, total)
    finally:
        journal.close()
    artifact = os.path.join(job_dir, "results.json")
    write_artifact(artifact, collected, kind="experiment-results")
    return JobOutcome(
        summary={"experiments": names, "full": full},
        artifact="results.json",
    )


def _execute_probe(
    job: Job, job_dir: str, progress: ProgressFn, cancelled, feed=None
) -> JobOutcome:
    """Tiny deterministic job for load tests and smoke checks."""
    params = job.spec.params
    steps = int(params["steps"])
    pause = (int(params["sleep_ms"]) / 1000.0) / steps
    progress(0, steps)
    for done in range(1, steps + 1):
        if cancelled.is_set():
            raise JobCancelled(job.id)
        time.sleep(pause)
        progress(done, steps)
        if feed is not None:
            _feed_sample(feed, done, steps)
    if params["fail"]:
        raise RuntimeError("probe job was asked to fail")
    write_artifact(
        os.path.join(job_dir, "probe.json"),
        {"steps": steps, "slept_ms": int(params["sleep_ms"])},
        kind="service-probe",
    )
    return JobOutcome(
        summary={"steps": steps}, artifact="probe.json"
    )
