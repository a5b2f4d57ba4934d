"""Extra experiment (beyond the paper): fault-injection coverage.

The paper argues Anubis recovers *correctly*, not just quickly: the
shadow tables plus the on-chip root make every crash-time loss either
repairable or detectable.  This experiment stress-tests that claim with
the deterministic fault campaign of :mod:`repro.faults` and contrasts
the protected schemes against the unprotected write-back baseline:

* **AGIT+ / Bonsai** and **ASIT / SGX** must end every trial in
  RECOVERED or DETECTED_UNRECOVERABLE — zero silent corruption;
* **write-back / Bonsai** (no shadow tables, adopt-the-rebuilt-root
  recovery) is the control: rollback and dropped-flush faults *must*
  produce SILENT_CORRUPTION there, proving the campaign's probes would
  catch such escapes if the protected schemes had them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.config import KIB, MIB, SchemeKind, TreeKind, default_table1_config
from repro.faults.campaign import CampaignConfig, CampaignResult, run_campaign
from repro.faults.report import format_comparison, format_matrix
from repro.sim.parallel import ParallelSweepExecutor

#: (scheme, tree) campaigns, protected schemes first, control last.
CAMPAIGNS = [
    (SchemeKind.AGIT_PLUS, TreeKind.BONSAI),
    (SchemeKind.ASIT, TreeKind.SGX),
    (SchemeKind.WRITE_BACK, TreeKind.BONSAI),
]


@dataclass
class FaultCoverageResult:
    """The three campaigns' full results, in :data:`CAMPAIGNS` order."""

    results: List[CampaignResult]
    trials: int
    seed: int

    @property
    def protected(self) -> List[CampaignResult]:
        """Campaigns that must show zero silent corruption."""
        return [
            r for r in self.results if r.scheme != SchemeKind.WRITE_BACK
        ]

    @property
    def control(self) -> CampaignResult:
        """The unprotected write-back baseline."""
        return next(
            r for r in self.results if r.scheme == SchemeKind.WRITE_BACK
        )


def run(
    trials: int = 120,
    trace_length: int = 2000,
    seed: int = 0,
    capacity_bytes: int = 256 * MIB,
    cache_bytes: int = 32 * KIB,
    executor: Optional[ParallelSweepExecutor] = None,
) -> FaultCoverageResult:
    """Run the campaign for each scheme under identical settings.

    ``executor`` runs each campaign's trials with the run's settings;
    the coverage matrices are identical for any job count.
    """
    results = []
    for scheme, tree in CAMPAIGNS:
        config = default_table1_config(
            scheme, tree, capacity_bytes=capacity_bytes
        ).with_cache_size(cache_bytes)
        campaign = CampaignConfig(
            system=config,
            seed=seed,
            trials=trials,
            trace_length=trace_length,
        )
        results.append(run_campaign(campaign, executor=executor))
    return FaultCoverageResult(results=results, trials=trials, seed=seed)


def format_table(result: FaultCoverageResult) -> str:
    """Cross-scheme totals followed by each per-fault matrix."""
    sections = [format_comparison(result.results)]
    for campaign in result.results:
        sections.append(
            f"\n{campaign.scheme.value} / {campaign.tree.value}:"
        )
        sections.append(format_matrix(campaign))
    return "\n".join(sections)


def main() -> None:
    """Print the fault-coverage comparison."""
    result = run()
    print("Extra — fault-injection coverage by scheme")
    print(format_table(result))
    silent = result.control.outcome_counts()["SILENT_CORRUPTION"]
    print(
        "\nprotected schemes recover or detect every fault; the "
        f"write-back control silently served wrong data {silent} times"
    )


if __name__ == "__main__":
    main()
