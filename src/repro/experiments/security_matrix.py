"""Extra experiment (beyond the paper): the security matrix.

Anubis's correctness story is a claims table — per scheme, per attack,
the design detects the tamper, recovers the right state, or is
known-vulnerable with a citation.  This experiment runs the active-
adversary campaign of :mod:`repro.attacks` against a representative
scheme set and renders the scheme × attack detection matrix, judging
every cell against :func:`~repro.attacks.oracle.default_oracle`:

* **AGIT+ / Bonsai** and **ASIT / SGX** (the paper's schemes) must
  refuse or correctly recover from *every* attack;
* **Osiris / Bonsai** holds the line too — its on-chip root survives;
* **selective / Bonsai** and **write-back / Bonsai** are the controls:
  full-triple line replay *is* silently accepted there, exactly as the
  literature says, proving the campaign's probes would catch such an
  escape in the protected schemes.

Any cell that contradicts its declared claim — above all, silent
acceptance outside a cited ``KNOWN_VULNERABLE`` entry — is a hard
experiment failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.config import KIB, MIB, SchemeKind, TreeKind, default_table1_config
from repro.attacks.campaign import (
    AttackCampaignConfig,
    AttackCampaignResult,
    format_attack_matrix,
    run_attack_campaign,
)
from repro.attacks.oracle import Verdict
from repro.sim.parallel import ParallelSweepExecutor

#: (scheme, tree) systems in the matrix — paper schemes first, the
#: known-vulnerable controls last.
SYSTEMS = [
    (SchemeKind.AGIT_PLUS, TreeKind.BONSAI),
    (SchemeKind.ASIT, TreeKind.SGX),
    (SchemeKind.OSIRIS, TreeKind.BONSAI),
    (SchemeKind.SELECTIVE, TreeKind.BONSAI),
    (SchemeKind.WRITE_BACK, TreeKind.BONSAI),
]


@dataclass
class SecurityMatrixResult:
    """Per-system attack campaigns, in :data:`SYSTEMS` order."""

    results: List[AttackCampaignResult]
    seed: int

    def violations(self) -> List[str]:
        """Human-readable claim violations across all systems."""
        problems = []
        for campaign in self.results:
            for trial in campaign.violations():
                problems.append(
                    f"{campaign.scheme.value}/{campaign.tree.value}: "
                    f"trial #{trial.index} {trial.attack} "
                    f"({trial.window}) -> {trial.outcome.value}, claimed "
                    f"{trial.expected.value}"
                )
        return problems

    def require_as_claimed(self) -> None:
        """Raise unless every system matched its declared claims."""
        for campaign in self.results:
            campaign.require_as_claimed()

    def to_dict(self) -> Dict[str, dict]:
        """scheme/tree -> the campaign's full deterministic payload."""
        return {
            f"{campaign.scheme.value}/{campaign.tree.value}":
                campaign.to_dict()
            for campaign in self.results
        }


def run(
    trace_length: int = 1200,
    num_crash_points: int = 3,
    probe_reads: int = 6,
    seed: int = 0,
    capacity_bytes: int = 256 * MIB,
    cache_bytes: int = 32 * KIB,
    executor: Optional[ParallelSweepExecutor] = None,
) -> SecurityMatrixResult:
    """Run the exhaustive attack grid for each system.

    ``executor`` runs each campaign's trials with the run's settings;
    the matrices and verdicts are identical for any job count.
    """
    results = []
    for scheme, tree in SYSTEMS:
        config = default_table1_config(
            scheme, tree, capacity_bytes=capacity_bytes
        ).with_cache_size(cache_bytes)
        campaign = AttackCampaignConfig(
            system=config,
            seed=seed,
            trace_length=trace_length,
            num_crash_points=num_crash_points,
            probe_reads=probe_reads,
        )
        results.append(run_attack_campaign(campaign, executor=executor))
    return SecurityMatrixResult(results=results, seed=seed)


def format_table(result: SecurityMatrixResult) -> str:
    """Cross-system verdict totals followed by each attack matrix."""
    header = ["system", "trials", "as claimed", "vacuous", "violations",
              "silent (cited)"]
    rows = []
    for campaign in result.results:
        verdicts = campaign.verdict_counts()
        outcomes = campaign.outcome_counts()
        rows.append([
            f"{campaign.scheme.value}/{campaign.tree.value}",
            str(len(campaign.trials)),
            str(verdicts[Verdict.AS_CLAIMED.value]),
            str(verdicts[Verdict.VACUOUS.value]),
            str(verdicts[Verdict.VIOLATION.value]),
            str(outcomes["SILENT_CORRUPTION"]),
        ])
    widths = [
        max(len(line[i]) for line in [header] + rows)
        for i in range(len(header))
    ]
    lines = [
        "| " + " | ".join(
            cell.ljust(widths[i]) for i, cell in enumerate(header)
        ) + " |",
        "|" + "|".join("-" * (width + 2) for width in widths) + "|",
    ]
    for row in rows:
        lines.append(
            "| " + " | ".join(
                cell.ljust(widths[i]) for i, cell in enumerate(row)
            ) + " |"
        )
    for campaign in result.results:
        lines.append(
            f"\n{campaign.scheme.value} / {campaign.tree.value}:"
        )
        lines.append(format_attack_matrix(campaign))
    return "\n".join(lines)


def main() -> None:
    """Print the security matrix and enforce the claims."""
    result = run()
    print("Extra — scheme x attack security matrix")
    print(format_table(result))
    result.require_as_claimed()
    print(
        "\nevery cell matches its declared claim; the only silent "
        "acceptances are the cited known-vulnerable line replays"
    )


if __name__ == "__main__":
    main()
