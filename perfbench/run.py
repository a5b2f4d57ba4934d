"""Host-time benchmark of the simulator: end-to-end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload read_miss --seed 1 --seconds 20 --trace 0

``--trace 0`` repeats the workload's fixed work in rounds until
``--seconds`` of rounds have run, checks every simulated outcome, and
reports the end-to-end metrics.  ``--trace 1`` alternates untraced and
traced rounds and reports the per-layer split (see ``layers.py``).  The
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--record`` runs one round and stores its digests as the reference
for (workload, seed) in ``references.json``.  See ``README.md`` for the
workloads, the metrics and what each layer should move.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"
OUT_DIR = ROOT / ".perfbench_out"
#: Untraced rounds per run at least, however long they take.
MIN_ROUNDS = 2
#: Extra fresh-process set-ups per run; setup_s is the median over
#: these and the run's own set-up.
SETUP_PROBES = 4
#: Calibration-kernel runs timed after each set-up, and before and
#: after each traced round.
SETUP_CALIBRATIONS = 20
#: End-to-end times are scaled to a machine on which the calibration
#: kernel takes exactly this long (see README.md, "Reference speed").
REFERENCE_KERNEL_S = 0.0025

#: Layers only the campaigns call: their self times read exactly 0 on
#: the grid workloads, so the result line carries their call counts and
#: the report file their self times.
CAMPAIGN_ONLY_LAYERS = ("recovery", "faults", "attacks")

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "us_per_access": "us",
    "trials_per_s": "1/s",
    "trial_ms_p50": "ms",
    "trial_ms_p95": "ms",
    "peak_rss_mb": "MB",
}


def _import_simulator() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: simulator sources not found under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this seed's digests as its reference")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _load_references():
    if REFERENCES.is_file():
        return json.loads(REFERENCES.read_text())
    return {}


def _percentile(values, q):
    """The q-th percentile (q in 5..95, step 5) of ``values``,
    interpolated within their range (a group may hold two values)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[q // 5 - 1]


def _scale(calibrations):
    """Factor from this run's host time to reference-speed time."""
    return REFERENCE_KERNEL_S / statistics.fmean(calibrations)


def _scaled_setup(setup_s):
    import workloads

    calibrations = [workloads.time_calibration() for _ in range(SETUP_CALIBRATIONS)]
    return setup_s * _scale(calibrations)


def _probe_setups(workload: str, seed: int):
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


class Checker:
    """Counts attempted and failed units across rounds.

    A unit fails when it raised, broke a campaign claim, or its digest
    differs from the seed's reference (or, for a seed without one, from
    the first round that ran the same inputs).
    """

    def __init__(self, reference):
        self.reference = reference
        self.seen = {}
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def check(self, parts, also=None):
        import workloads

        expected = self.reference if self.reference is not None else self.seen
        for part in parts:
            units = max(len(part.digests), len(expected.get(part.key, ())), 1)
            bad = part.failed_units
            if part.error:
                bad = units
                self.errors.append(f"{part.key}: {part.error}")
            bad += workloads.compare([part], expected)
            if also is not None:
                bad += workloads.compare([part], also)
            self.attempted += units
            self.failed += min(bad, units)
        for key, digests in workloads.round_digests(parts).items():
            self.seen.setdefault(key, digests)

    def fail(self, message):
        self.attempted += 1
        self.failed += 1
        self.errors.append(message)

    @property
    def correct(self):
        return self.failed == 0


def _grid_cells(rounds):
    """Reference-speed us per access of each (tree, scheme) system."""
    import workloads

    per_system = {}
    for index, part in enumerate(rounds[0]):
        seconds = statistics.fmean(_scaled(r[index]) for r in rounds)
        system = workloads.system_of(part.name)
        total, accesses = per_system.get(system, (0.0, 0))
        per_system[system] = (total + seconds, accesses + part.accesses)
    return {
        f"cell.{system}.us_per_access": total * 1e6 / accesses
        for system, (total, accesses) in sorted(per_system.items())
    }


def _scaled(part, seconds=None):
    """``seconds`` (default: the part's time) at the reference speed,
    using the speed sampled around and during the part."""
    return (part.seconds if seconds is None else seconds) * _scale(part.calibrations)


def _end_to_end(name, rounds, setup_samples):
    import workloads

    raw_wall = statistics.fmean(sum(p.seconds for p in r) for r in rounds)
    wall = statistics.fmean(sum(_scaled(p) for p in r) for r in rounds)
    parts0 = rounds[0]
    accesses = statistics.fmean(sum(p.accesses for p in r) for r in rounds)
    campaigns = name == "campaigns"
    units = sum(len(p.digests) for p in parts0) if campaigns else len(parts0)
    # Percentiles are taken per group and averaged over the groups: per
    # campaign, and per (tree, scheme) system on the grids.  Trials of
    # different systems form separate clusters (AGIT+ vs ASIT, batched
    # vs scalar cells), and a pooled median would fall between them.
    groups = {}
    for part in (p for r in rounds for p in r):
        if campaigns:
            groups.setdefault(part.name, []).extend(
                _scaled(part, t) for t in part.trial_seconds
            )
        else:
            groups.setdefault(workloads.system_of(part.name), []).append(
                _scaled(part)
            )

    def percentile(q):
        return statistics.fmean(_percentile(v, q) for v in groups.values())

    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(setup_samples),
        "us_per_access": wall * 1e6 / max(accesses, 1),
        "trials_per_s": units / wall,
        "trial_ms_p50": percentile(50) * 1e3,
        "trial_ms_p95": percentile(95) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    calibrations = [c for r in rounds for p in r for c in p.calibrations]
    notes = {
        "rounds": len(rounds),
        "units_per_round": units,
        "accesses_per_round": accesses,
        "trial_samples": sum(len(v) for v in groups.values()),
        "trial_groups": len(groups),
        "setup_samples": len(setup_samples),
        "raw_wall_s": raw_wall,
        "calibration_runs": len(calibrations),
        "calibration_kernel_mean_s": statistics.fmean(calibrations),
    }
    return metrics, notes


def run_untraced(args, workload, checker, setup_s):
    rounds = []
    measured = 0.0
    while len(rounds) < MIN_ROUNDS or measured < args.seconds:
        parts = workload.run_round(len(rounds))
        checker.check(parts)
        rounds.append(parts)
        measured += sum(p.seconds + sum(p.calibrations) for p in parts)
    setups = [setup_s] + _probe_setups(args.workload, args.seed)
    metrics, notes = _end_to_end(args.workload, rounds, setups)
    report = {"metrics": metrics, "notes": notes}
    if args.workload != "campaigns":
        report["cells"] = _grid_cells(rounds)
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, report


def run_traced(args, workload, checker):
    import numpy as np

    import layers
    import workloads

    # Raw seconds bound the run; reference-speed seconds give the
    # overhead.  A traced round samples the speed only just before and
    # after it: a timer tick inside would land in some layer's span.
    raw_s = plain_s = traced_s = 0.0
    totals = counts = None
    batched = [0, 0]
    spans = {}
    absent = []
    plain_rounds = []
    n = 0
    while n == 0 or raw_s < args.seconds:
        plain = workload.run_round(n)
        checker.check(plain)
        plain_rounds.append(plain)
        plain_s += sum(_scaled(p) for p in plain)
        speed = [workloads.time_calibration() for _ in range(SETUP_CALIBRATIONS)]
        tracer = layers.Tracer()
        tracer.install()
        try:
            started = time.perf_counter_ns()
            parts = workload.run_round(n, calibrate=False)
            wall_ns = time.perf_counter_ns() - started
        finally:
            try:
                tracer.uninstall()
            except RuntimeError as exc:
                checker.fail(str(exc))
        speed += [workloads.time_calibration() for _ in range(SETUP_CALIBRATIONS)]
        checker.check(parts, also=workloads.round_digests(plain))
        traced_raw = sum(p.seconds for p in parts)
        traced_s += traced_raw * _scale(speed)
        raw_s += sum(p.seconds for p in plain) + traced_raw
        split = layers.split_layers(tracer, wall_ns)
        if sum(split.layer_self_ns.values()) + split.harness_ns != split.wall_ns:
            checker.fail("layer self times do not sum to the traced wall time")
        totals = _add(totals, _split_totals(split))
        counts = _add(counts, layers.controller_counts(tracer))
        batched[0] += split.accesses
        batched[1] += split.scalar_accesses
        absent = tracer.absent
        if not spans:
            # Only the first traced round's spans are written out; later
            # rounds add to the totals, which bounds the file's size.
            spans = dict(tracer.columns(), sites=np.array(tracer.sites))
        n += 1
        del tracer

    per_round = {k: v / n for k, v in totals.items()}
    metrics = {}
    for layer in layers.LAYER_NAMES:
        if layer not in CAMPAIGN_ONLY_LAYERS:
            metrics[f"{layer}.self_s"] = (per_round[f"layer.{layer}.self_ns"] / 1e9, "s")
        metrics[f"{layer}.calls"] = (per_round[f"layer.{layer}.calls"], "count")
    metrics["harness.self_s"] = (per_round["harness_ns"] / 1e9, "s")
    metrics["trace.wall_s"] = (per_round["wall_ns"] / 1e9, "s")
    metrics["trace.overhead_fraction"] = (traced_s / plain_s - 1.0, "fraction")
    metrics["controller.batch.batched_fraction"] = (
        1.0 - batched[1] / batched[0] if batched[0] else 0.0, "fraction")
    for cache in ("counter_cache", "merkle_cache", "metadata_cache"):
        lookups = counts[f"{cache}.lookups"]
        metrics[f"cache.{cache}.hit_rate"] = (
            counts[f"{cache}.hits"] / lookups if lookups else 0.0, "fraction")
    metrics["mem.nvm.reads"] = (per_round.get("site.NvmDevice.read.calls", 0), "count")
    metrics["mem.nvm.writes"] = (per_round.get("site.NvmDevice.write.calls", 0), "count")
    metrics["core.shadow_writes"] = (counts["shadow_writes"] / n, "count")

    report = {
        "metrics": {k: v for k, (v, _unit) in metrics.items()},
        "layers_per_round": {
            k: v for k, v in per_round.items() if k.startswith("layer.")
        },
        "sites_per_round": {
            k: v for k, v in per_round.items() if k.startswith("site.")
        },
        "traced_rounds": n,
        "absent_targets": absent,
    }
    if args.workload != "campaigns":
        report["cells"] = _grid_cells(plain_rounds)
    OUT_DIR.mkdir(exist_ok=True)
    np.savez(OUT_DIR / f"{args.workload}-spans.npz", **spans)
    return metrics, report


def _split_totals(split):
    flat = {"wall_ns": split.wall_ns, "harness_ns": split.harness_ns}
    for layer, value in split.layer_self_ns.items():
        flat[f"layer.{layer}.self_ns"] = value
        flat[f"layer.{layer}.calls"] = split.layer_calls[layer]
    for site, value in split.site_self_ns.items():
        flat[f"site.{site}.self_ns"] = value
        flat[f"site.{site}.calls"] = split.site_calls[site]
    return flat


def _add(total, more):
    if total is None:
        return dict(more)
    for key, value in more.items():
        total[key] = total.get(key, 0) + value
    return total


def _record(args, workload):
    import workloads

    digests = {}
    for index in range(workload.variants):
        parts = workload.run_round(index, calibrate=False)
        bad = [p.key for p in parts if p.error or p.failed_units]
        if bad:
            raise SystemExit(f"perfbench: not recording, parts failed: {bad}")
        digests.update(workloads.round_digests(parts))
    references = _load_references()
    references.setdefault(args.workload, {})[str(args.seed)] = digests
    REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    print(f"recorded {args.workload} seed {args.seed}: "
          f"{sum(len(d) for d in digests.values())} units")


def _print_report(args, metrics, report, checker):
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    for name, value in report.get("cells", {}).items():
        print(f"  {name:<44} {value:>14.6g} us")
    for name, value in sorted(report.get("layers_per_round", {}).items()):
        print(f"  {name:<44} {value:>14.6g}")
    for key, value in report.get("notes", {}).items():
        print(f"  ({key}: {value:g})")
    if checker.reference is not None:
        print("  reference digests: recorded")
    else:
        print("  reference digests: none for this seed; rounds compared "
              "with each other")
    print(f"  failed_fraction: {checker.failed / max(checker.attempted, 1):g} "
          f"({checker.failed} of {checker.attempted} units)")
    for error in checker.errors[:10]:
        print(f"  error: {error}")


def main(argv=None):
    args = _parse(argv)
    _import_simulator()
    import workloads

    workload = workloads.setup(args.workload, args.seed)
    setup_s = time.perf_counter() - _STARTED
    if args.setup_probe:
        print(json.dumps({"setup_s": _scaled_setup(setup_s)}))
        return 0
    if args.record:
        _record(args, workload)
        return 0
    reference = _load_references().get(args.workload, {}).get(str(args.seed))
    checker = Checker(reference)
    if args.trace:
        metrics, report = run_traced(args, workload, checker)
    else:
        metrics, report = run_untraced(args, workload, checker, _scaled_setup(setup_s))
    report.update(
        workload=args.workload, seed=args.seed, trace=args.trace,
        attempted=checker.attempted, failed=checker.failed,
        errors=checker.errors,
    )
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True, default=str) + "\n"
    )
    _print_report(args, metrics, report, checker)
    print(json.dumps({
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
