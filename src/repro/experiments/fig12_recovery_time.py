"""Figure 12 — Anubis recovery time as a function of cache size.

Unlike Osiris (Fig. 5), Anubis recovery cost scales with the *metadata
cache* size, not the memory size.  The paper sweeps both caches from
128KB to 4MB and reports sub-second recovery everywhere (≈0.48s for
AGIT at 4MB; ASIT below AGIT at every point).

This experiment reports both:

* the analytic worst-case model (every slot tracks a distinct block) —
  the directly comparable series; and
* a *functional* measurement — an actual trace, an actual crash, an
  actual recovery run, with the recovery engine's step counts priced at
  the same 100ns — which is necessarily below the worst case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.config import KIB, SchemeKind, TreeKind, default_table1_config
from repro.controller.factory import build_controller
from repro.core.recovery_agit import AgitRecovery
from repro.core.recovery_asit import AsitRecovery
from repro.core.recovery_time import (
    agit_recovery_breakdown,
    agit_recovery_time_s,
    asit_recovery_breakdown,
    asit_recovery_time_s,
)
from repro.crypto.keys import ProcessorKeys
from repro.experiments.reporting import format_markdown_table, format_seconds
from repro.recovery.crash import crash, reincarnate
from repro.sim.parallel import ParallelSweepExecutor
from repro.traces.profiles import profile
from repro.traces.replay import replay_batched
from repro.traces.synthetic import generate_trace

#: Cache sizes on the paper's x-axis (per cache; both grow together).
DEFAULT_CACHE_SIZES = [
    128 * KIB,
    256 * KIB,
    512 * KIB,
    1024 * KIB,
    2048 * KIB,
    4096 * KIB,
]


@dataclass
class Fig12Result:
    """Analytic and (optionally) functional recovery seconds per size."""

    cache_sizes: List[int]
    agit_analytic: Dict[int, float] = field(default_factory=dict)
    asit_analytic: Dict[int, float] = field(default_factory=dict)
    agit_functional: Dict[int, float] = field(default_factory=dict)
    asit_functional: Dict[int, float] = field(default_factory=dict)
    #: Per-phase splits of the analytic series (each breakdown's phase
    #: seconds sum to the corresponding ``*_analytic`` entry exactly).
    agit_breakdown: Dict[int, Dict[str, float]] = field(default_factory=dict)
    asit_breakdown: Dict[int, Dict[str, float]] = field(default_factory=dict)
    #: Flight-recorder phase splits of the functional runs (seconds).
    agit_functional_phases: Dict[int, Dict[str, float]] = field(
        default_factory=dict
    )
    asit_functional_phases: Dict[int, Dict[str, float]] = field(
        default_factory=dict
    )


def run(
    cache_sizes: Optional[List[int]] = None,
    functional: bool = False,
    trace_length: int = 8_000,
    seed: int = 0,
    executor: Optional[ParallelSweepExecutor] = None,
) -> Fig12Result:
    """Sweep cache sizes; optionally run real crash-recovery cycles,
    warmed up in ``executor``'s batch mode."""
    sizes = list(cache_sizes) if cache_sizes is not None else DEFAULT_CACHE_SIZES
    result = Fig12Result(cache_sizes=sizes)
    for size in sizes:
        result.agit_analytic[size] = agit_recovery_time_s(size, size)
        result.asit_analytic[size] = asit_recovery_time_s(2 * size)
        result.agit_breakdown[size] = agit_recovery_breakdown(size, size)
        result.asit_breakdown[size] = asit_recovery_breakdown(2 * size)
    if functional:
        batch = "auto" if executor is None else executor.batch
        keys = ProcessorKeys(seed)
        trace = generate_trace(profile("libquantum"), trace_length, seed=seed)
        for size in sizes:
            seconds, phases = _functional_agit(trace, size, keys, batch)
            result.agit_functional[size] = seconds
            result.agit_functional_phases[size] = phases
            seconds, phases = _functional_asit(trace, size, keys, batch)
            result.asit_functional[size] = seconds
            result.asit_functional_phases[size] = phases
    return result


def _functional_agit(trace, cache_size: int, keys: ProcessorKeys, batch: str):
    config = default_table1_config(
        SchemeKind.AGIT_PLUS, TreeKind.BONSAI
    ).with_cache_size(cache_size)
    controller = build_controller(config, keys=keys)
    replay_batched(controller, trace, batch=batch)
    crash(controller)
    reborn = reincarnate(controller)
    report = AgitRecovery(reborn.nvm, reborn.layout, reborn).run()
    return report.estimated_seconds(), report.breakdown_seconds()


def _functional_asit(trace, cache_size: int, keys: ProcessorKeys, batch: str):
    config = default_table1_config(
        SchemeKind.ASIT, TreeKind.SGX
    ).with_cache_size(cache_size)
    controller = build_controller(config, keys=keys)
    replay_batched(controller, trace, batch=batch)
    crash(controller)
    reborn = reincarnate(controller)
    report = AsitRecovery(reborn.nvm, reborn.layout, reborn).run()
    return report.estimated_seconds(), report.breakdown_seconds()


def format_table(result: Fig12Result) -> str:
    """Render the figure's two (or four) series."""
    headers = ["cache size", "AGIT worst-case", "ASIT worst-case"]
    include_functional = bool(result.agit_functional)
    if include_functional:
        headers += ["AGIT measured", "ASIT measured"]
    rows = []
    for size in result.cache_sizes:
        row = [
            f"{size // KIB} KB",
            format_seconds(result.agit_analytic[size]),
            format_seconds(result.asit_analytic[size]),
        ]
        if include_functional:
            row += [
                format_seconds(result.agit_functional[size]),
                format_seconds(result.asit_functional[size]),
            ]
        rows.append(row)
    return format_markdown_table(headers, rows)


def format_chart(result: Fig12Result, width: int = 40) -> str:
    """Sweep chart of worst-case recovery seconds per cache size."""
    from repro.experiments.plotting import sweep_chart

    series = {
        "AGIT": {
            size: round(result.agit_analytic[size], 4)
            for size in result.cache_sizes
        },
        "ASIT": {
            size: round(result.asit_analytic[size], 4)
            for size in result.cache_sizes
        },
    }
    return sweep_chart(
        series, x_format=lambda size: f"{size // KIB}KB", width=width, unit=" s"
    )


def main() -> None:
    """Print the Fig. 12 reproduction (analytic + functional)."""
    result = run(functional=True)
    print("Figure 12 — Anubis recovery time vs metadata cache size")
    print(format_table(result))
    print()
    print(format_chart(result))
    print("\npaper: ~0.03 s at 256KB, ≤0.48 s at 4MB; ASIT below AGIT")


if __name__ == "__main__":
    main()
