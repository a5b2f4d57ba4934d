"""Figure 7 — most counter-cache evictions are clean.

The observation motivating AGIT-Plus: a large share of the blocks the
counter cache evicts were never modified, so tracking them (as AGIT-Read
does) buys no recoverability.  This experiment replays each SPEC-like
trace on the write-back baseline and reports the clean/dirty eviction
split of the counter cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.config import SchemeKind, TreeKind, default_table1_config
from repro.crypto.keys import ProcessorKeys
from repro.experiments.reporting import collect, format_markdown_table
from repro.sim.parallel import ParallelSweepExecutor
from repro.traces.profiles import profile, profile_names
from repro.traces.synthetic import generate_trace


@dataclass
class Fig07Result:
    """Per-benchmark clean/dirty eviction counts for the counter cache."""

    clean: Dict[str, int]
    dirty: Dict[str, int]

    def clean_fraction(self, benchmark: str) -> float:
        """Fraction of evictions that were clean."""
        total = self.clean[benchmark] + self.dirty[benchmark]
        return self.clean[benchmark] / total if total else 0.0

    @property
    def benchmarks(self) -> List[str]:
        """Benchmarks in run order."""
        return list(self.clean)


def run(
    benchmarks: Optional[List[str]] = None,
    trace_length: int = 20_000,
    seed: int = 0,
    counter_cache_bytes: int = 8 * 1024,
    executor: Optional[ParallelSweepExecutor] = None,
) -> Fig07Result:
    """Measure the eviction split on the write-back baseline.

    The counter cache is scaled down (default 8KB) to keep the
    cache-to-trace-footprint ratio in the regime of the paper's 500M
    -instruction runs: with the full 256KB cache, a 10^4-request trace
    never evicts at all, which would leave the clean/dirty split — the
    quantity Fig. 7 actually reports — undefined for the streaming
    benchmarks.
    """
    names = benchmarks if benchmarks is not None else profile_names()
    keys = ProcessorKeys(seed)
    config = default_table1_config(
        SchemeKind.WRITE_BACK, TreeKind.BONSAI
    ).with_cache_size(counter_cache_bytes)
    traces = [
        generate_trace(profile(name), trace_length, seed=seed)
        for name in names
    ]
    run = collect([(config, trace) for trace in traces], keys, executor)
    clean = dict(
        zip(names, run.column("counter_cache.evictions_clean", int))
    )
    dirty = dict(
        zip(names, run.column("counter_cache.evictions_dirty", int))
    )
    return Fig07Result(clean=clean, dirty=dirty)


def format_table(result: Fig07Result) -> str:
    """Render the clean/dirty split per benchmark."""
    rows = []
    for name in result.benchmarks:
        rows.append(
            (
                name,
                result.clean[name],
                result.dirty[name],
                f"{result.clean_fraction(name):.0%}",
            )
        )
    return format_markdown_table(
        ["benchmark", "clean evictions", "dirty evictions", "clean %"], rows
    )


def main() -> None:
    """Print the Fig. 7 reproduction."""
    result = run()
    print("Figure 7 — counter-cache eviction split (write-back baseline)")
    print(format_table(result))


if __name__ == "__main__":
    main()
