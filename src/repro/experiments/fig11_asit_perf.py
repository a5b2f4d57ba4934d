"""Figure 11 — ASIT performance on SGX-style trees.

Four schemes on eleven SPEC-like traces, normalized to the SGX
write-back baseline: Write-Back, Strict Persistence, Osiris, ASIT.
Only strict persistence and ASIT can actually recover this tree; the
paper's averages are strict ≈63% vs ASIT ≈7.9%, an ~8× reduction, with
ASIT also issuing ~10× fewer extra NVM writes per data write.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.config import SchemeKind, TreeKind, default_table1_config
from repro.crypto.keys import ProcessorKeys
from repro.experiments.reporting import collect, format_markdown_table
from repro.sim.parallel import ParallelSweepExecutor
from repro.sim.results import SchemeComparison
from repro.traces.profiles import profile, profile_names
from repro.traces.synthetic import generate_trace

#: The four schemes of §6.2, baseline first.
SCHEMES = [
    SchemeKind.WRITE_BACK,
    SchemeKind.STRICT_PERSISTENCE,
    SchemeKind.OSIRIS,
    SchemeKind.ASIT,
]


@dataclass
class Fig11Result:
    """Per-benchmark comparisons plus average bars and endurance data."""

    comparisons: List[SchemeComparison]
    averages: Dict[SchemeKind, float]
    #: Extra NVM writes per data write, per scheme (gmean-free mean).
    extra_writes: Dict[SchemeKind, float]

    @property
    def benchmarks(self) -> List[str]:
        """Benchmarks in run order."""
        return [comparison.benchmark for comparison in self.comparisons]


def run(
    benchmarks: Optional[List[str]] = None,
    trace_length: int = 20_000,
    seed: int = 0,
    executor: Optional[ParallelSweepExecutor] = None,
) -> Fig11Result:
    """Replay every benchmark under every SGX scheme.

    ``executor`` runs the benchmark × scheme grid with the run's
    settings; results are identical to a serial run.
    """
    names = benchmarks if benchmarks is not None else profile_names()
    keys = ProcessorKeys(seed)
    base_config = default_table1_config(tree=TreeKind.SGX)
    traces = [
        generate_trace(profile(name), trace_length, seed=seed)
        for name in names
    ]
    run = collect(
        [
            (base_config.with_scheme(scheme), trace)
            for trace in traces
            for scheme in SCHEMES
        ],
        keys,
        executor,
    )
    return Fig11Result(
        comparisons=run.comparisons(SCHEMES),
        averages=run.averages(SCHEMES),
        extra_writes=run.scheme_mean(
            SCHEMES, lambda result: result.extra_writes_per_data_write
        ),
    )


def format_table(result: Fig11Result) -> str:
    """Render normalized execution time per scheme."""
    headers = ["benchmark"] + [scheme.value for scheme in SCHEMES]
    rows = []
    for comparison in result.comparisons:
        rows.append(
            [comparison.benchmark]
            + [
                f"{comparison.normalized_time(scheme):.3f}"
                for scheme in SCHEMES
            ]
        )
    rows.append(
        ["gmean overhead %"]
        + [f"{result.averages.get(scheme, 0.0):+.1f}%" for scheme in SCHEMES]
    )
    rows.append(
        ["extra writes/write"]
        + [f"{result.extra_writes.get(scheme, 0.0):.2f}" for scheme in SCHEMES]
    )
    return format_markdown_table(headers, rows)


def format_chart(result: Fig11Result, width: int = 36) -> str:
    """Figure-style grouped bars of normalized execution time."""
    from repro.experiments.plotting import grouped_bar_chart

    groups = [
        (
            comparison.benchmark,
            [
                (scheme.value, round(comparison.normalized_time(scheme), 3))
                for scheme in SCHEMES
            ],
        )
        for comparison in result.comparisons
    ]
    return grouped_bar_chart(groups, width=width, baseline=1.0)


def main() -> None:
    """Print the Fig. 11 reproduction."""
    result = run()
    print("Figure 11 — ASIT performance (normalized to write-back)")
    print(format_table(result))
    print()
    print(format_chart(result))
    print("\npaper averages: strict ~63%, ASIT ~7.9%")


if __name__ == "__main__":
    main()
