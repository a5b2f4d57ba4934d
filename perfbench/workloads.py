"""The benchmark's workloads: what one round runs and how it is checked.

A workload is set up once per process (:func:`setup`) and then run in
rounds (:meth:`Workload.run_round`).  Every round does the same fixed
work on one of the workload's input variants and returns one
:class:`Part` per timed piece — a grid cell or a whole campaign — with a
digest of each simulated outcome, so rounds on the same variant can be
compared with each other and with the recorded references.

* ``read_miss`` / ``write_hot``: two traces under the nine (tree,
  scheme) systems of figures 10 and 11, each cell through
  :func:`repro.experiments.reporting.collect` with ``jobs=1``.
* ``campaigns``: a fault campaign and an attack campaign for AGIT+ on
  the Bonsai tree and for ASIT on the SGX tree.
"""

from __future__ import annotations

import hashlib
import json
import signal
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

#: Traces and accesses per trace of each grid workload.  The batch
#: engine plans in 4,096-access chunks and runs a mostly-cold chunk
#: scalar, so ``write_hot`` replays two chunks' worth (8,192 accesses):
#: the second runs batched on the Bonsai cells.  ``read_miss`` stays
#: miss-bound and scalar at any length, so it uses 2,000 accesses.
#: Both are shorter than the figures' 10,000-access quick pass so that
#: a run holds several rounds.
GRID_TRACES = {
    "read_miss": (("mcf", "omnetpp"), 2_000),
    "write_hot": (("lbm", "libquantum"), 8_192),
}
#: Trials per campaign.  Each trial draws its crash point from
#: CRASH_POINTS points sampled over the warm-up, so the per-seed mix of
#: cheap and costly crash states averages out.
FAULT_TRIALS = 60
ATTACK_TRIALS = 80
CRASH_POINTS = 32
#: Input variants per workload.  Round ``r`` of a run uses inputs made
#: from ``seed * variants + r % variants``, so a run averages over this
#: many distinct inputs instead of repeating one: a single input's mix
#: of cheap and costly cells or trials moved the metrics by 5-10%
#: between seeds.  Grid runs hold two or more rounds, campaign runs
#: about four.
VARIANTS = {"read_miss": 2, "write_hot": 2, "campaigns": 4}
#: While a part runs, a timer signal samples the machine's speed (one
#: calibration-kernel run) this often; see :class:`Meter`.
TICK_S = 0.05
WORKLOADS = ("read_miss", "write_hot", "campaigns")


def digest(payload) -> str:
    """Short stable digest of a JSON-able payload (floats by repr)."""
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class Part:
    """One timed piece of a round."""

    name: str
    #: Host seconds of the part, calibration runs excluded.
    seconds: float
    #: One digest per unit (a cell, or each trial of a campaign).
    digests: List[str]
    #: Units that raised or broke a claim.
    failed_units: int = 0
    #: Simulated demand accesses the part drove.
    accesses: int = 0
    #: Host seconds per trial after the first (campaign parts only).
    trial_seconds: List[float] = field(default_factory=list)
    error: str = ""
    #: Host seconds of each calibration-kernel run made for the part.
    calibrations: List[float] = field(default_factory=list)
    #: Which of the workload's input variants the part ran.
    variant: int = 0

    @property
    def key(self) -> str:
        """Name of the part's digests in references and comparisons."""
        return f"{self.name}#{self.variant}"


def calibration_kernel(rounds: int = 2_000) -> int:
    """A fixed pure-Python load in the simulator's idiom (small dicts,
    int/bytes conversion, keyed BLAKE2 digests).  Its host time tracks
    how fast this machine runs the simulator at the moment."""
    table: Dict[int, int] = {}
    acc = 0
    for i in range(rounds):
        address = (i * 2654435761) & 0xFFFFFF
        block = address.to_bytes(8, "little") * 8
        mac = hashlib.blake2b(block, key=b"perfbench", digest_size=8).digest()
        acc ^= int.from_bytes(mac, "little")
        table[address & 0xFFF] = table.get(address & 0xFFF, 0) + 1
    return acc + len(table)


def time_calibration() -> float:
    started = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - started


class Meter:
    """Samples how fast the machine runs while a part runs.

    One calibration-kernel run before the part, then one on every
    SIGALRM tick (each :data:`TICK_S`) until :meth:`stop`.  ``paused``
    is the time those runs took, which the part's own time leaves out.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.samples: List[float] = []
        self.paused = 0.0
        self._busy = False
        self._previous = None

    def calibrate(self) -> None:
        if self._busy:  # a tick that lands inside a calibration run
            return
        self._busy = True
        try:
            seconds = time_calibration()
        finally:
            self._busy = False
        self.samples.append(seconds)
        self.paused += seconds

    def start(self) -> None:
        if self.enabled:
            self.calibrate()
            self._previous = signal.signal(
                signal.SIGALRM, lambda _signum, _frame: self.calibrate()
            )
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)


class TrialTimer:
    """``on_trial`` hook: host time between consecutive trials, less the
    calibration runs that landed in between."""

    def __init__(self, meter: Meter) -> None:
        self.meter = meter
        self.gaps: List[float] = []
        self._last: Optional[Tuple[float, float]] = None

    def __call__(self, _trial) -> None:
        now, paused = time.perf_counter(), self.meter.paused
        if self._last is not None:  # the first trial carries the warm-up
            last, last_paused = self._last
            self.gaps.append(now - last - (paused - last_paused))
        self._last = (now, paused)


@dataclass
class Workload:
    name: str
    #: ``(part name, runner)``; each runner takes the part's Meter and
    #: the round's input variant and returns a Part whose time is
    #: filled in here.
    parts: List[Tuple[str, Callable[[Meter, int], Part]]]
    #: Input variants the rounds cycle through.
    variants: int = 1

    def run_round(self, index: int = 0, calibrate: bool = True) -> List[Part]:
        """Run every part once on round ``index``'s inputs, sampling the
        machine's speed around and during each part unless ``calibrate``
        is false."""
        variant = index % self.variants
        results = []
        for name, runner in self.parts:
            meter = Meter(calibrate)
            meter.start()
            outside = meter.paused
            started = time.perf_counter()
            try:
                part = runner(meter, variant)
            except Exception as exc:  # one failed part must not end the run
                part = Part(name, 0.0, [], failed_units=1, error=repr(exc))
            finally:
                meter.stop()
            part.variant = variant
            elapsed = time.perf_counter() - started
            part.seconds = elapsed - (meter.paused - outside)
            part.calibrations = meter.samples
            results.append(part)
        return results


def setup(name: str, seed: int, trace_length: Optional[int] = None,
          fault_trials: int = FAULT_TRIALS,
          attack_trials: int = ATTACK_TRIALS,
          systems: Optional[List[Tuple[str, str]]] = None) -> Workload:
    """Build a workload's inputs from ``seed``; the keyword arguments
    shrink it for tests (``systems`` as ``(tree, scheme)`` values)."""
    if name in GRID_TRACES:
        return _grid(name, seed, trace_length, systems)
    if name == "campaigns":
        return _campaigns(seed, fault_trials, attack_trials, systems)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


def grid_systems():
    """The nine (tree, scheme) systems of figures 10 and 11."""
    from repro.config import TreeKind
    from repro.experiments import fig10_agit_perf, fig11_asit_perf

    return [(TreeKind.BONSAI, s) for s in fig10_agit_perf.SCHEMES] + [
        (TreeKind.SGX, s) for s in fig11_asit_perf.SCHEMES
    ]


def _grid(name, seed, trace_length, systems) -> Workload:
    from repro.config import default_table1_config
    from repro.crypto.keys import ProcessorKeys
    from repro.experiments.reporting import collect
    from repro.sim.parallel import ParallelSweepExecutor
    from repro.traces.profiles import profile
    from repro.traces.synthetic import generate_trace

    keys = ProcessorKeys(seed)
    names, length = GRID_TRACES[name]
    variants = VARIANTS[name]
    # traces[variant][i]: trace ``names[i]`` of that variant's inputs.
    traces = [
        [
            generate_trace(
                profile(trace), trace_length or length,
                seed=seed * variants + variant,
            )
            for trace in names
        ]
        for variant in range(variants)
    ]
    executor = ParallelSweepExecutor(1)
    chosen = [
        (tree, scheme)
        for tree, scheme in grid_systems()
        if systems is None or (tree.value, scheme.value) in systems
    ]

    def cell(config, index, label):
        def run(_meter: Meter, variant: int) -> Part:
            trace = traces[variant][index]
            result = collect([(config, trace)], keys, executor=executor)
            record = result.results[0].to_dict()
            record["tree"] = config.tree.value
            return Part(label, 0.0, [digest(record)], accesses=len(trace))

        return run

    parts = []
    for tree, scheme in chosen:
        config = default_table1_config(tree=tree).with_scheme(scheme)
        for index, trace in enumerate(names):
            label = f"{tree.value}.{scheme.value}.{trace}"
            parts.append((label, cell(config, index, label)))
    return Workload(name, parts, variants=variants)


def _campaigns(seed, fault_trials, attack_trials, systems) -> Workload:
    from repro.attacks.campaign import AttackCampaignConfig
    from repro.attacks.oracle import Verdict
    from repro.config import KIB, MIB, SchemeKind, TreeKind, default_table1_config
    from repro.faults import campaign as faults
    from repro.attacks import campaign as attacks

    chosen = [
        (scheme, tree)
        for scheme, tree in (
            (SchemeKind.AGIT_PLUS, TreeKind.BONSAI),
            (SchemeKind.ASIT, TreeKind.SGX),
        )
        if systems is None or (tree.value, scheme.value) in systems
    ]
    def fault_part(config, label):
        def run(meter: Meter, variant: int) -> Part:
            campaign = faults.CampaignConfig(
                system=config, seed=seed * VARIANTS["campaigns"] + variant,
                trials=fault_trials,
                num_crash_points=CRASH_POINTS,
            )
            on_trial = TrialTimer(meter)
            # Looked up on the module so a traced round sees its wrapper.
            result = faults.run_campaign(campaign, jobs=1, on_trial=on_trial)
            # SILENT_CORRUPTION and RECOVERY_FAILED are the unclassified
            # outcomes; either breaks the campaign's claim.
            bad = sum(
                1 for t in result.trials
                if t.outcome not in faults.CLASSIFIED_OUTCOMES
            )
            return Part(
                label, 0.0,
                [digest(t.to_dict()) for t in result.trials],
                failed_units=bad + abs(len(result.trials) - fault_trials),
                accesses=result.trace_length + sum(t.probed for t in result.trials),
                trial_seconds=on_trial.gaps,
            )

        return run

    def attack_part(config, label):
        def run(meter: Meter, variant: int) -> Part:
            attack = AttackCampaignConfig(
                system=config, seed=seed * VARIANTS["campaigns"] + variant,
                trials=attack_trials,
                num_crash_points=CRASH_POINTS,
            )
            on_trial = TrialTimer(meter)
            result = attacks.run_attack_campaign(attack, jobs=1, on_trial=on_trial)
            bad = sum(1 for t in result.trials if t.verdict is Verdict.VIOLATION)
            bad += abs(len(result.trials) - attack_trials)
            return Part(
                label, 0.0,
                [digest(t.to_dict()) for t in result.trials],
                failed_units=bad,
                accesses=result.trace_length + sum(t.probed for t in result.trials),
                trial_seconds=on_trial.gaps,
            )

        return run

    configs = {
        f"{tree.value}.{scheme.value}": default_table1_config(
            scheme, tree, capacity_bytes=256 * MIB
        ).with_cache_size(32 * KIB)
        for scheme, tree in chosen
    }
    parts = []
    for kind, make in (("fault", fault_part), ("attack", attack_part)):
        for system, config in configs.items():
            label = f"{kind}.{system}"
            parts.append((label, make(config, label)))
    return Workload("campaigns", parts, variants=VARIANTS["campaigns"])


def system_of(part_name: str) -> str:
    """``tree.scheme`` of a grid part name ``tree.scheme.trace``."""
    return ".".join(part_name.split(".")[:2])


def compare(parts: List[Part], expected: Dict[str, List[str]]) -> int:
    """Units whose digest differs from ``expected`` (missing counts)."""
    wrong = 0
    for part in parts:
        want = expected.get(part.key)
        if want is None:
            continue
        if len(part.digests) != len(want):
            wrong += max(len(part.digests), len(want), 1)
            continue
        wrong += sum(1 for a, b in zip(part.digests, want) if a != b)
    return wrong


def round_digests(parts: List[Part]) -> Dict[str, List[str]]:
    return {p.key: list(p.digests) for p in parts}
