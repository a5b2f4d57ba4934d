"""End-to-end telemetry: metrics registry, event tracing, introspection.

Three modules:

* :mod:`repro.telemetry.metrics` — counters/gauges/histograms/timers
  and the hierarchical :class:`MetricsRegistry` (subsumes the types in
  :mod:`repro.util.stats`);
* :mod:`repro.telemetry.events` — the bounded structured
  :class:`EventTracer`, JSONL serialization, schema validation, and
  the Chrome ``trace_event`` exporter;
* :mod:`repro.telemetry.runtime` — sessions, the picklable
  :class:`TelemetrySpec` that rides into worker processes, ``span()``
  phase timing, and the parent-side :class:`RunCollector` that merges
  per-cell streams deterministically;
* :mod:`repro.telemetry.flightrec` — the recovery flight recorder:
  per-phase analytic + wall-clock profiling of recovery engine runs;
* :mod:`repro.telemetry.sampling` — the deterministic op-tick metric-
  series sampler feeding ``--samples-out`` NDJSON.

See ``docs/observability.md`` for the metric naming scheme, the event
schema table, and the Chrome-trace workflow.
"""

from repro.telemetry.events import (
    DEFAULT_BUFFER_LIMIT,
    EVENT_SCHEMA,
    EventTracer,
    NULL_TRACER,
    chrome_trace,
    read_jsonl,
    validate_events,
    write_jsonl,
)
from repro.telemetry.flightrec import FlightRecorder, breakdown_seconds
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
    flatten_histogram,
)
from repro.telemetry.runtime import (
    RunCollector,
    TelemetrySession,
    TelemetrySpec,
    active_sampler,
    build_manifest,
    current_session,
    current_tracer,
    git_describe,
    live_tracer,
    sampling_active,
    session,
    span,
    write_manifest,
)
from repro.telemetry.sampling import MetricSampler

__all__ = [
    "DEFAULT_BUFFER_LIMIT",
    "EVENT_SCHEMA",
    "EventTracer",
    "NULL_TRACER",
    "chrome_trace",
    "read_jsonl",
    "validate_events",
    "write_jsonl",
    "FlightRecorder",
    "breakdown_seconds",
    "MetricSampler",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Timer",
    "flatten_histogram",
    "RunCollector",
    "TelemetrySession",
    "TelemetrySpec",
    "active_sampler",
    "build_manifest",
    "current_session",
    "current_tracer",
    "git_describe",
    "live_tracer",
    "sampling_active",
    "session",
    "span",
    "write_manifest",
]
