"""Figure 13 — performance sensitivity to metadata cache size.

Each Anubis scheme's overhead (normalized to a write-back baseline with
the *same* cache size) is swept over cache sizes from 256KB to 4MB.
The paper's findings: improvements flatten beyond ~1MB, and ASIT is the
least sensitive scheme because its extra writes track application write
count rather than cache locality.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.config import (
    KIB,
    SchemeKind,
    TreeKind,
    default_table1_config,
)
from repro.crypto.keys import ProcessorKeys
from repro.experiments.reporting import collect, format_markdown_table
from repro.sim.parallel import ParallelSweepExecutor
from repro.traces.profiles import MIB, SPEC_PROFILES, SyntheticProfile
from repro.traces.synthetic import generate_trace

#: Dedicated sweep workload: its hot set needs ~24MB of data coverage,
#: i.e. ~384KB of counter blocks — inside the 256KB..4MB sweep range, so
#: the smallest caches thrash and the larger ones don't.  The SPEC-like
#: profiles either fit everywhere (hot sets of a few MB) or nowhere
#: (compulsory-miss streams), which would make every series trivially
#: flat.
SWEEP_PROFILE = SyntheticProfile(
    name="cache-sweep-mix",
    write_fraction=0.35,
    pattern="hot_cold",
    footprint_bytes=96 * MIB,
    hot_bytes=24 * MIB,
    hot_fraction=0.90,
    rewrite_count=2,
    gap_mean_ns=150.0,
    description="mixed-locality sweep load whose reuse set spans the "
    "cache sizes under study",
)

#: Cache sizes on the x-axis (per cache).
DEFAULT_CACHE_SIZES = [256 * KIB, 512 * KIB, 1024 * KIB, 2048 * KIB, 4096 * KIB]

#: (scheme, tree) series the figure plots.
SERIES: List[Tuple[SchemeKind, TreeKind]] = [
    (SchemeKind.AGIT_READ, TreeKind.BONSAI),
    (SchemeKind.AGIT_PLUS, TreeKind.BONSAI),
    (SchemeKind.ASIT, TreeKind.SGX),
]


@dataclass
class Fig13Result:
    """Normalized time per (scheme, cache size)."""

    cache_sizes: List[int]
    benchmark: str
    #: scheme -> {cache size -> normalized execution time}.
    normalized: Dict[SchemeKind, Dict[int, float]] = field(default_factory=dict)

    def sensitivity(self, scheme: SchemeKind) -> float:
        """Spread between the worst and best point of a series —
        the figure's 'which scheme is least sensitive' metric."""
        series = self.normalized[scheme]
        return max(series.values()) - min(series.values())


def run(
    benchmark: str = "cache-sweep-mix",
    cache_sizes: Optional[List[int]] = None,
    trace_length: int = 25_000,
    seed: int = 0,
    executor: Optional[ParallelSweepExecutor] = None,
) -> Fig13Result:
    """Sweep cache sizes for each Anubis scheme on one workload.

    The default is the dedicated :data:`SWEEP_PROFILE`; any SPEC-like
    profile name is also accepted.  ``executor`` runs the (scheme,
    size) grid — two simulations per point — with the run's settings.
    """
    sizes = list(cache_sizes) if cache_sizes is not None else DEFAULT_CACHE_SIZES
    keys = ProcessorKeys(seed)
    workload = (
        SWEEP_PROFILE
        if benchmark == SWEEP_PROFILE.name
        else SPEC_PROFILES[benchmark]
    )
    trace = generate_trace(workload, trace_length, seed=seed)
    result = Fig13Result(cache_sizes=sizes, benchmark=benchmark)
    cells = []
    for scheme, tree in SERIES:
        for size in sizes:
            base_config = default_table1_config(
                SchemeKind.WRITE_BACK, tree
            ).with_cache_size(size)
            cells.append((base_config, trace))
            cells.append((base_config.with_scheme(scheme), trace))
    pairs = collect(cells, keys, executor).chunked(2)
    cursor = 0
    for scheme, _tree in SERIES:
        series: Dict[int, float] = {}
        for size in sizes:
            base, run_result = pairs[cursor]
            cursor += 1
            series[size] = run_result.elapsed_ns / base.elapsed_ns
        result.normalized[scheme] = series
    return result


def format_table(result: Fig13Result) -> str:
    """Render normalized time per scheme per cache size."""
    schemes = list(result.normalized)
    headers = ["cache size"] + [scheme.value for scheme in schemes]
    rows = []
    for size in result.cache_sizes:
        rows.append(
            [f"{size // KIB} KB"]
            + [f"{result.normalized[scheme][size]:.3f}" for scheme in schemes]
        )
    rows.append(
        ["sensitivity (max-min)"]
        + [f"{result.sensitivity(scheme):.3f}" for scheme in schemes]
    )
    return format_markdown_table(headers, rows)


def main() -> None:
    """Print the Fig. 13 reproduction."""
    result = run()
    print(
        "Figure 13 — sensitivity to cache size "
        f"(benchmark: {result.benchmark}, normalized to same-size write-back)"
    )
    print(format_table(result))
    print("\npaper: flattens beyond ~1MB; ASIT least sensitive")


if __name__ == "__main__":
    main()
