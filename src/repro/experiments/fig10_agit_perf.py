"""Figure 10 — AGIT performance on general (Bonsai) trees.

Five schemes on eleven SPEC-like traces, each normalized to the
write-back baseline: Write-Back, Strict Persistence, Osiris, AGIT-Read,
AGIT-Plus.  The paper's averages: strict ≈63% overhead, Osiris ≈1.4%,
AGIT-Read ≈10.4%, AGIT-Plus ≈3.4%.
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

#: The five schemes of §6.1, baseline first.
SCHEMES = [
    SchemeKind.WRITE_BACK,
    SchemeKind.STRICT_PERSISTENCE,
    SchemeKind.OSIRIS,
    SchemeKind.AGIT_READ,
    SchemeKind.AGIT_PLUS,
]


@dataclass
class Fig10Result:
    """Per-benchmark comparisons plus the figure's average bars."""

    comparisons: List[SchemeComparison]
    averages: Dict[SchemeKind, float]

    def overhead(self, benchmark: str, scheme: SchemeKind) -> float:
        """One benchmark's overhead percent for one scheme."""
        for comparison in self.comparisons:
            if comparison.benchmark == benchmark:
                return comparison.overhead_percent(scheme)
        raise KeyError(benchmark)

    @property
    def benchmarks(self) -> List[str]:
        """Benchmarks in run order."""
        return [comparison.benchmark for comparison in self.comparisons]


def run(
    benchmarks: Optional[List[str]] = None,
    trace_length: int = 20_000,
    seed: int = 0,
    executor: Optional[ParallelSweepExecutor] = None,
) -> Fig10Result:
    """Replay every benchmark under every scheme.

    ``executor`` runs the benchmark × scheme grid with the run's
    settings; results are identical to a serial run.
    """
    names = benchmarks if benchmarks is not None else profile_names()
    keys = ProcessorKeys(seed)
    base_config = default_table1_config(tree=TreeKind.BONSAI)
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
    return Fig10Result(
        comparisons=run.comparisons(SCHEMES),
        averages=run.averages(SCHEMES),
    )


def format_table(result: Fig10Result) -> str:
    """Render normalized execution time (1.0 = write-back) per scheme."""
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
    average_row = ["gmean overhead %"] + [
        f"{result.averages.get(scheme, 0.0):+.1f}%" for scheme in SCHEMES
    ]
    rows.append(average_row)
    return format_markdown_table(headers, rows)


def format_chart(result: Fig10Result, width: int = 36) -> str:
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
    """Print the Fig. 10 reproduction."""
    result = run()
    print("Figure 10 — AGIT performance (normalized to write-back)")
    print(format_table(result))
    print()
    print(format_chart(result))
    print(
        "\npaper averages: strict ~63%, osiris ~1.4%, "
        "agit_read ~10.4%, agit_plus ~3.4%"
    )


if __name__ == "__main__":
    main()
