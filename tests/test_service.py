"""The campaign service: admission, fairness, durability, degradation.

The properties under test, in order of importance:

1. **Accepted work is never lost.**  A server killed mid-job (stale
   lease, torn journal tail, SIGKILL'd subprocess) restarts, re-adopts
   its orphans, and finishes them with artifacts byte-identical to an
   uninterrupted direct run — and no trial ever executes twice.
2. **Rejection is explicit and typed.**  Invalid specs are HTTP 400 at
   admission (never a worker-side crash); a full queue or exhausted
   quota is HTTP 429 with Retry-After; a degraded server is 503 —
   while everything already accepted still completes.
3. **Idempotent submission**: the same tenant resubmitting the same
   work attaches to the existing job.
4. **Fairness**: per-tenant running caps hold even with free global
   workers.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.errors import (
    QuotaExceededError,
    ServiceError,
    ValidationError,
)
from repro.service import (
    Backpressure,
    JobState,
    QuotaBackpressure,
    ServerThread,
    ServiceClient,
    ServiceConfig,
    job_id,
    validate_spec,
)
from repro.service.jobs import Job, JobSpec
from repro.service.server import JobServer
from repro.sim.checkpoint import (
    CheckpointJournal,
    fingerprint,
    load_artifact,
)


def _server(tmp_path, **overrides):
    defaults = dict(
        data_dir=str(tmp_path / "data"),
        workers=2,
        retry_after=3,
        heartbeat_seconds=0.2,
    )
    defaults.update(overrides)
    thread = ServerThread(ServiceConfig(**defaults))
    port = thread.start()
    return thread, ServiceClient(f"http://127.0.0.1:{port}")


@pytest.fixture()
def service(tmp_path):
    thread, client = _server(tmp_path)
    yield thread, client
    thread.stop()


# ---------------------------------------------------------------------------
# Admission-time validation (satellite: typed errors, HTTP 400)
# ---------------------------------------------------------------------------


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValidationError, match="kind"):
            validate_spec({"kind": "mine-bitcoin"})

    def test_unknown_parameter_is_rejected_not_dropped(self):
        with pytest.raises(ValidationError, match="trails"):
            validate_spec({"kind": "faults", "params": {"trails": 5}})

    def test_nonpositive_timeout(self):
        with pytest.raises(ValidationError, match="timeout"):
            validate_spec({"kind": "probe", "timeout": 0})

    def test_negative_retries(self):
        with pytest.raises(ValidationError, match="retries"):
            validate_spec({"kind": "probe", "retries": -1})

    def test_validation_error_is_a_value_error(self):
        # Back-compat: callers that caught ValueError keep working.
        with pytest.raises(ValueError):
            validate_spec({"kind": "probe", "timeout": -2.0})

    def test_bool_does_not_pass_as_int(self):
        with pytest.raises(ValidationError, match="bool"):
            validate_spec({"kind": "faults", "params": {"trials": True}})

    def test_unknown_experiment_name(self):
        with pytest.raises(ValidationError, match="fig99"):
            validate_spec(
                {"kind": "sweep", "params": {"experiments": ["fig99"]}}
            )

    def test_bad_tenant(self):
        with pytest.raises(ValidationError, match="tenant"):
            validate_spec({"kind": "probe", "tenant": "a/b"})

    def test_nested_fraction_range(self):
        with pytest.raises(ValidationError, match="nested_fraction"):
            validate_spec(
                {"kind": "faults", "params": {"nested_fraction": 1.5}}
            )

    def test_defaults_mirror_the_cli(self):
        spec = validate_spec({"kind": "faults"})
        assert spec.params["trials"] == 100
        assert spec.params["length"] == 2_000
        assert spec.params["crash_points"] == 8
        assert spec.params["nested_fraction"] == 0.25

    def test_http_400_with_typed_body(self, service):
        _thread, client = service
        with pytest.raises(ValidationError, match="trials"):
            client.submit("faults", params={"trials": -2})
        assert (
            client.metrics()["counters"]["rejected_validation"] == 1
        )

    def test_bad_json_body_is_400(self, service):
        thread, _client = service
        import http.client

        conn = http.client.HTTPConnection(
            "127.0.0.1", thread.port, timeout=10
        )
        conn.request(
            "POST", "/v1/jobs", body=b"{not json", headers={}
        )
        response = conn.getresponse()
        assert response.status == 400
        conn.close()


class TestJobIdentity:
    def test_same_work_same_id(self):
        a = validate_spec({"kind": "probe", "tenant": "alice"})
        b = validate_spec({"kind": "probe", "tenant": "alice"})
        assert job_id(a) == job_id(b)

    def test_tenants_get_separate_jobs(self):
        a = validate_spec({"kind": "probe", "tenant": "alice"})
        b = validate_spec({"kind": "probe", "tenant": "bob"})
        assert job_id(a) != job_id(b)

    def test_params_change_the_id(self):
        a = validate_spec({"kind": "probe"})
        b = validate_spec(
            {"kind": "probe", "params": {"sleep_ms": 99}}
        )
        assert job_id(a) != job_id(b)


# ---------------------------------------------------------------------------
# End-to-end over HTTP
# ---------------------------------------------------------------------------


class TestEndToEnd:
    def test_probe_lifecycle_and_idempotent_attach(self, service):
        _thread, client = service
        doc = client.submit(
            "probe", tenant="alice", params={"sleep_ms": 30}
        )
        jid = doc["job"]["id"]
        assert not doc.get("attached")
        again = client.submit(
            "probe", tenant="alice", params={"sleep_ms": 30}
        )
        assert again["attached"] and again["job"]["id"] == jid
        final = client.wait(jid, timeout=60)[0]
        assert final["state"] == "SUCCEEDED"
        assert final["artifact"] == "probe.json"
        counters = client.metrics()["counters"]
        assert counters["submitted"] == 1
        assert counters["attached"] == 1

    def test_watch_streams_schema_valid_events(self, service):
        from repro.telemetry.events import validate_events

        _thread, client = service
        jid = client.submit("probe", params={"sleep_ms": 20})["job"][
            "id"
        ]
        events = list(client.watch(jid))
        kinds = [event["kind"] for event in events]
        assert kinds[0] == "service.submit"
        assert kinds[-1] == "service.complete"
        assert "service.start" in kinds
        assert "service.progress" in kinds
        assert validate_events(events) == []

    def test_telemetry_streams_schema_valid_feed(self, service):
        from repro.telemetry.events import validate_events

        _thread, client = service
        jid = client.submit(
            "probe", params={"sleep_ms": 20, "steps": 5}
        )["job"]["id"]
        events = list(client.telemetry(jid))
        assert events, "telemetry feed streamed nothing"
        assert validate_events(events) == []
        samples = [e for e in events if e["kind"] == "metric.sample"]
        assert samples[-1]["values"] == {"done": 5.0, "total": 5.0}
        assert all(e["job"] == jid for e in events)
        # Late watcher: the feed replays after the job is terminal.
        client.wait(jid, timeout=60)
        assert list(client.telemetry(jid)) == events

    def test_telemetry_feed_carries_trial_outcomes(self, service):
        from repro.telemetry.events import validate_events

        _thread, client = service
        jid = client.submit(
            "faults",
            params={"trials": 6, "length": 500, "crash_points": 2},
        )["job"]["id"]
        events = list(client.telemetry(jid))
        outcomes = [e for e in events if e["kind"] == "trial.outcome"]
        assert len(outcomes) == 6
        assert validate_events(events) == []
        assert all("model" in e and "outcome" in e for e in outcomes)

    def test_telemetry_unknown_job_is_404(self, service):
        _thread, client = service
        with pytest.raises(ServiceError, match="unknown job"):
            list(client.telemetry("nope"))

    def test_status_page_renders_jobs(self, service):
        _thread, client = service
        jid = client.submit("probe", params={"sleep_ms": 10})["job"][
            "id"
        ]
        client.wait(jid, timeout=60)
        page = client.status_page()
        assert page.startswith("<!DOCTYPE html>")
        assert jid in page
        assert "SUCCEEDED" in page

    def test_top_once_renders_frame(self, service, capsys):
        import repro.cli as cli

        thread, client = service
        jid = client.submit("probe", params={"sleep_ms": 10})["job"][
            "id"
        ]
        client.wait(jid, timeout=60)
        assert cli.main([
            "top", "--once",
            "--server", f"http://127.0.0.1:{thread.port}",
        ]) == 0
        frame = capsys.readouterr().out
        assert "repro service" in frame
        assert jid in frame

    def test_failed_job_reports_error(self, service):
        _thread, client = service
        jid = client.submit("probe", params={"fail": True})["job"][
            "id"
        ]
        final = client.wait(jid, timeout=60)[0]
        assert final["state"] == "FAILED"
        assert "asked to fail" in final["error"]

    def test_cancel_queued_job(self, tmp_path):
        thread, client = _server(tmp_path, workers=1)
        try:
            client.submit(
                "probe", tenant="a", params={"sleep_ms": 500}
            )
            queued = client.submit(
                "probe", tenant="b", params={"sleep_ms": 500}
            )["job"]["id"]
            doc = client.cancel(queued)
            assert doc["job"]["state"] == "CANCELLED"
            with pytest.raises(ServiceError, match="terminal"):
                client.cancel(queued)
            client.wait(timeout=60)
        finally:
            thread.stop()

    def test_unknown_job_is_404(self, service):
        _thread, client = service
        with pytest.raises(ServiceError, match="unknown job"):
            client.status("deadbeef")

    def test_sweep_artifact_matches_direct_runner(
        self, tmp_path, service
    ):
        import io

        from repro.experiments.runner import EXPERIMENTS
        from repro.sim.checkpoint import write_artifact
        from repro.sim.parallel import ParallelSweepExecutor

        _thread, client = service
        jid = client.submit(
            "sweep", params={"experiments": ["fig05"]}
        )["job"]["id"]
        final = client.wait(jid, timeout=120)[0]
        assert final["state"] == "SUCCEEDED"
        service_artifact = os.path.join(
            _thread.config.data_dir, "jobs", jid, "results.json"
        )
        direct = {
            "fig05": EXPERIMENTS["fig05"](
                False, ParallelSweepExecutor(1), out=io.StringIO()
            )
        }
        reference = str(tmp_path / "reference.json")
        write_artifact(reference, direct, kind="experiment-results")
        with open(service_artifact, "rb") as got, open(
            reference, "rb"
        ) as want:
            assert got.read() == want.read()


# ---------------------------------------------------------------------------
# Backpressure, quotas, fairness, degradation
# ---------------------------------------------------------------------------


class TestAdmissionControl:
    def test_full_queue_is_429_with_retry_after(self, tmp_path):
        thread, client = _server(
            tmp_path, workers=1, max_queue=2, retry_after=7
        )
        try:
            for index in range(3):
                client.submit(
                    "probe",
                    tenant=f"t{index}",
                    params={"sleep_ms": 400},
                )
            with pytest.raises(Backpressure) as caught:
                client.submit(
                    "probe", tenant="t9", params={"sleep_ms": 1}
                )
            assert caught.value.retry_after == 7.0
            assert caught.value.reason == "backpressure"
            client.wait(timeout=120)
            counters = client.metrics()["counters"]
            assert counters["rejected_backpressure"] == 1
            # Every accepted job completed despite the rejection.
            assert counters["succeeded"] == 3
        finally:
            thread.stop()

    def test_tenant_queue_quota_is_typed(self, tmp_path):
        thread, client = _server(
            tmp_path, workers=1, max_queue=50, tenant_max_queued=2
        )
        try:
            with pytest.raises(QuotaBackpressure) as caught:
                for index in range(6):
                    client.submit(
                        "probe",
                        tenant="greedy",
                        params={"sleep_ms": 300 + index},
                    )
            assert isinstance(caught.value, QuotaExceededError)
            assert caught.value.retry_after > 0
            client.wait(timeout=120)
        finally:
            thread.stop()

    def test_tenant_trial_weight_quota(self, tmp_path):
        thread, client = _server(
            tmp_path, workers=1, tenant_max_trials=30
        )
        try:
            client.submit(
                "probe", tenant="t", params={"sleep_ms": 400}
            )
            with pytest.raises(QuotaBackpressure, match="trials"):
                client.submit(
                    "faults", tenant="t", params={"trials": 500}
                )
            client.wait(timeout=120)
        finally:
            thread.stop()

    def test_tenant_running_cap_holds_with_free_workers(
        self, tmp_path
    ):
        thread, client = _server(
            tmp_path, workers=3, tenant_max_running=1
        )
        try:
            for index in range(3):
                client.submit(
                    "probe",
                    tenant="solo",
                    params={"sleep_ms": 250, "steps": 5 + index},
                )
            peak = 0
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                block = client.metrics()
                peak = max(
                    peak,
                    block["tenants"].get("solo", {}).get("running", 0),
                )
                if block["jobs"]["by_state"].get("SUCCEEDED") == 3:
                    break
                time.sleep(0.05)
            assert peak == 1
        finally:
            thread.stop()

    def test_degraded_level_two_freezes_admission(self, service):
        _thread, client = service
        accepted = client.submit(
            "probe", tenant="a", params={"sleep_ms": 200}
        )["job"]["id"]
        assert client.degrade(2)["level"] == 2
        with pytest.raises(Backpressure) as caught:
            client.submit("probe", tenant="b", params={"sleep_ms": 1})
        assert caught.value.retry_after > 0
        # The accepted job still finishes: reject-new never drops
        # accepted work.
        assert client.wait(accepted, timeout=60)[0]["state"] == (
            "SUCCEEDED"
        )
        assert client.degrade(0)["level"] == 0
        client.submit("probe", tenant="b", params={"sleep_ms": 1})
        client.wait(timeout=60)

    def test_level_one_forces_serial_executors(self, tmp_path):
        server = JobServer(
            ServiceConfig(
                data_dir=str(tmp_path / "d"), jobs_per_job=4
            )
        )
        job = Job(
            id="x", spec=validate_spec({"kind": "probe"})
        )
        assert server._job_executor(job).jobs == 4
        server.set_level(1, "test")
        assert server._job_executor(job).jobs == 1

    def test_spec_supervision_overrides_template(self, tmp_path):
        server = JobServer(
            ServiceConfig(
                data_dir=str(tmp_path / "d"), timeout=30.0, retries=2
            )
        )
        spec = validate_spec(
            {"kind": "probe", "timeout": 5.0, "retries": 0}
        )
        executor = server._job_executor(Job(id="x", spec=spec))
        assert executor.timeout == 5.0
        assert executor.retries == 0

    def test_sweep_jobs_honour_supervision(self, tmp_path, monkeypatch):
        """Every sweep cell runs under the job's executor: the spec's
        timeout/retries, else the server's."""
        from repro.experiments.runner import EXPERIMENTS
        from repro.service.execution import execute_job

        seen = []

        def stub(full, executor, out=None):
            seen.append((executor.timeout, executor.retries))
            return {}

        monkeypatch.setitem(EXPERIMENTS, "stub", stub)
        server = JobServer(
            ServiceConfig(
                data_dir=str(tmp_path / "d"), timeout=30.0, retries=3
            )
        )
        for index, supervision in enumerate(
            [{"timeout": 5.0, "retries": 0}, {}]
        ):
            spec = validate_spec(
                {
                    "kind": "sweep",
                    "params": {"experiments": ["stub"]},
                    **supervision,
                }
            )
            job = Job(id=f"j{index}", spec=spec)
            execute_job(
                job, str(tmp_path / job.id), server._job_executor(job)
            )
        assert seen == [(5.0, 0), (30.0, 3)]

    def test_worker_crash_signals_degrade_to_serial(self, tmp_path):
        from repro.sim.parallel import ParallelSweepExecutor

        server = JobServer(
            ServiceConfig(
                data_dir=str(tmp_path / "d"),
                degrade_crash_threshold=2,
            )
        )
        executor = ParallelSweepExecutor(1)
        executor.retry_log.extend([(1, "boom"), (2, "boom")])
        server._absorb_supervision(executor)
        assert server.level == 1

    def test_bad_service_config_is_typed(self, tmp_path):
        with pytest.raises(ValidationError, match="timeout"):
            JobServer(
                ServiceConfig(
                    data_dir=str(tmp_path / "d"), timeout=-1.0
                )
            )
        with pytest.raises(ValidationError, match="workers"):
            JobServer(
                ServiceConfig(data_dir=str(tmp_path / "d"), workers=0)
            )


# ---------------------------------------------------------------------------
# Durability: leases, torn tails, kill-and-restart
# ---------------------------------------------------------------------------

#: The service's own journal identity (mirrors server._JOURNAL_VERSION).
_SERVICE_FINGERPRINT = fingerprint("service-journal", 1)

#: A campaign small enough to finish in seconds but large enough to
#: exercise plan/probe/nested paths deterministically.
_TINY_FAULTS = {"trials": 4, "length": 250, "crash_points": 3}


def _seed_orphan(data_dir, spec_payload, *, generation=1, seq=50):
    """Write a RUNNING job with a stale-generation lease, as a dead
    server would have left it."""
    os.makedirs(data_dir, exist_ok=True)
    spec = validate_spec(spec_payload)
    job = Job(
        id=job_id(spec),
        spec=spec,
        state=JobState.RUNNING,
        submitted_seq=seq,
        generation=generation,
    )
    journal = CheckpointJournal(
        os.path.join(data_dir, "server.jsonl"), _SERVICE_FINGERPRINT
    )
    journal.record("generation", {"generation": generation}, replace=True)
    journal.record(f"job:{job.id}", job.to_dict(), replace=True)
    journal.record(
        f"lease:{job.id}",
        {"generation": generation, "seq": 9, "ns": 0},
        replace=True,
    )
    journal.close()
    return job.id


class TestDurability:
    def test_stale_lease_is_readopted_on_restart(self, tmp_path):
        data_dir = str(tmp_path / "data")
        jid = _seed_orphan(
            data_dir,
            {"kind": "probe", "tenant": "ghost",
             "params": {"sleep_ms": 10}},
        )
        thread, client = _server(tmp_path)
        try:
            health = client.healthz()
            assert health["generation"] == 2
            final = client.wait(jid, timeout=60)[0]
            assert final["state"] == "SUCCEEDED"
            assert client.metrics()["counters"]["adopted"] == 1
            events = list(client.watch(jid))
            assert any(
                e["kind"] == "service.adopt" and e["generation"] == 1
                for e in events
            )
        finally:
            thread.stop()

    def test_torn_journal_tail_is_truncated_not_fatal(self, tmp_path):
        data_dir = str(tmp_path / "data")
        jid = _seed_orphan(
            data_dir,
            {"kind": "probe", "tenant": "ghost",
             "params": {"sleep_ms": 10}},
        )
        journal_path = os.path.join(data_dir, "server.jsonl")
        intact = os.path.getsize(journal_path)
        with open(journal_path, "ab") as handle:
            # A record the dying server never finished writing.
            handle.write(b'{"key": "job:torn", "TORN-TAIL-MARK')
        thread, client = _server(tmp_path)
        try:
            final = client.wait(jid, timeout=60)[0]
            assert final["state"] == "SUCCEEDED"
            assert "torn" not in [
                j["id"] for j in client.jobs()["jobs"]
            ]
        finally:
            thread.stop()
        # The torn bytes are gone from disk: the reopened journal
        # truncated back to the valid prefix before appending.
        with open(journal_path, "rb") as handle:
            assert b"TORN-TAIL-MARK" not in handle.read()
        assert os.path.getsize(journal_path) >= intact

    @pytest.mark.parametrize("jobs_per_job", [1, 2])
    def test_readopted_campaign_resumes_byte_identical(
        self, tmp_path, jobs_per_job
    ):
        """A faults job orphaned by a dead generation finishes with an
        artifact byte-identical to an uninterrupted direct run — at
        serial and parallel executor widths."""
        from repro.service.execution import execute_job
        from repro.sim.parallel import ParallelSweepExecutor

        spec_payload = {
            "kind": "faults",
            "tenant": "ghost",
            "params": dict(_TINY_FAULTS),
        }
        # Reference: direct, uninterrupted execution of the same spec.
        reference_dir = str(tmp_path / "reference")
        reference_job = Job(
            id="reference", spec=validate_spec(spec_payload)
        )
        execute_job(
            reference_job,
            reference_dir,
            ParallelSweepExecutor(1),
        )
        with open(
            os.path.join(reference_dir, "campaign.json"), "rb"
        ) as handle:
            reference_bytes = handle.read()
        payload = load_artifact(
            os.path.join(reference_dir, "campaign.json"),
            kind="fault-campaign",
        )
        assert payload["outcome_counts"]

        data_dir = str(tmp_path / "data")
        jid = _seed_orphan(data_dir, spec_payload)
        thread, client = _server(
            tmp_path, jobs_per_job=jobs_per_job
        )
        try:
            final = client.wait(jid, timeout=300)[0]
            assert final["state"] == "SUCCEEDED"
        finally:
            thread.stop()
        with open(
            os.path.join(data_dir, "jobs", jid, "campaign.json"),
            "rb",
        ) as handle:
            assert handle.read() == reference_bytes

    def test_graceful_stop_preserves_queued_jobs(self, tmp_path):
        thread, client = _server(tmp_path, workers=1)
        running = client.submit(
            "probe", tenant="a", params={"sleep_ms": 300}
        )["job"]["id"]
        queued = client.submit(
            "probe", tenant="b", params={"sleep_ms": 300}
        )["job"]["id"]
        thread.stop()
        # Restart: the running job finished during the drain; the
        # queued one was preserved and now runs to completion.
        thread2, client2 = _server(tmp_path)
        try:
            final = {
                doc["id"]: doc["state"]
                for doc in client2.wait(timeout=60)
            }
            assert final[running] == "SUCCEEDED"
            assert final[queued] == "SUCCEEDED"
        finally:
            thread2.stop()


@pytest.mark.slow
class TestKillAndRestartSubprocess:
    """The headline robustness claim, against a real SIGKILL."""

    def _start(self, data_dir):
        env = dict(os.environ)
        src = os.path.join(
            os.path.dirname(os.path.dirname(__file__)), "src"
        )
        env["PYTHONPATH"] = src + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--data-dir", data_dir, "--port", "0",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            text=True,
        )
        banner = proc.stdout.readline()
        match = re.search(r":(\d+) ", banner)
        assert match, banner
        return proc, ServiceClient(
            f"http://127.0.0.1:{match.group(1)}"
        )

    def test_sigkill_mid_campaign_resumes_byte_identical(
        self, tmp_path
    ):
        from repro.service.execution import execute_job
        from repro.sim.parallel import ParallelSweepExecutor

        params = {"trials": 12, "length": 600, "crash_points": 4}
        reference_dir = str(tmp_path / "reference")
        execute_job(
            Job(
                id="reference",
                spec=validate_spec(
                    {"kind": "faults", "tenant": "alice",
                     "params": params}
                ),
            ),
            reference_dir,
            ParallelSweepExecutor(1),
        )

        data_dir = str(tmp_path / "data")
        proc, client = self._start(data_dir)
        jid = client.submit(
            "faults", tenant="alice", params=params
        )["job"]["id"]
        journal = os.path.join(
            data_dir, "jobs", jid, "campaign.jsonl"
        )
        deadline = time.monotonic() + 180
        while time.monotonic() < deadline:
            if (
                os.path.exists(journal)
                and sum(1 for _ in open(journal)) >= 2
            ):
                break
            time.sleep(0.02)
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait()
        journaled = sum(1 for _ in open(journal)) - 1
        assert 1 <= journaled <= len(
            range(params["trials"])
        ), journaled

        proc2, client2 = self._start(data_dir)
        try:
            final = client2.wait(jid, timeout=300)[0]
            assert final["state"] == "SUCCEEDED"
            assert final["done"] == final["total"]
        finally:
            proc2.send_signal(signal.SIGTERM)
            proc2.wait(timeout=60)
        # No trial ran twice: every journal key is unique.
        with open(journal) as handle:
            keys = [
                json.loads(line)["key"]
                for line in list(handle)[1:]
            ]
        assert len(keys) == len(set(keys)) == params["trials"]
        with open(
            os.path.join(data_dir, "jobs", jid, "campaign.json"),
            "rb",
        ) as got, open(
            os.path.join(reference_dir, "campaign.json"), "rb"
        ) as want:
            assert got.read() == want.read()


# ---------------------------------------------------------------------------
# Telemetry surface
# ---------------------------------------------------------------------------


class TestTelemetry:
    def test_manifest_reports_service_gauges(self, tmp_path):
        thread, client = _server(tmp_path, workers=1)
        try:
            client.submit("probe", params={"sleep_ms": 120})
            client.submit(
                "probe", tenant="b", params={"sleep_ms": 120}
            )
            client.wait(timeout=60)
        finally:
            thread.stop()
        with open(
            os.path.join(thread.config.data_dir, "manifest.json")
        ) as handle:
            manifest = json.load(handle)
        block = manifest["service"]
        assert manifest["command"] == "serve"
        assert block["generation"] == 1
        assert block["gauges"]["inflight"]["max"] >= 1
        assert block["gauges"]["queue_depth"]["max"] >= 1
        assert block["counters"]["submitted"] == 2
        assert block["jobs"]["by_state"]["SUCCEEDED"] == 2

    def test_healthz_shape(self, service):
        _thread, client = service
        health = client.healthz()
        assert health["ok"] is True
        assert set(health) >= {
            "generation", "level", "queue_depth", "inflight",
        }
