"""Run one workload of the squarespan benchmark and print its metrics.

    python3 perfbench/run.py --workload enum-square12 --seed 1 \
        --seconds 30 --trace 0

Run from the root of a source tree; the package is imported from its
``src`` directory, never from an installed copy.  With ``--trace 0`` the
workload runs whole rounds of its operations, at least one, and another
while the time spent so far plus the last round's still fits in
``--seconds``; the output checks run after every round and are not
timed.  All the while a timer samples the host's speed (hostspeed.py),
and every time is reported in seconds at the reference host's speed.
With ``--trace 1`` it runs a plain round, a traced round and another
plain round, all serial and unsampled, and reports the per-layer
metrics and the tracing overhead.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every output passed its checks.
"""

import time

_START = time.perf_counter()  # set-up is timed from the script's start

import hostspeed  # noqa: E402

if __name__ == "__main__":
    # The host is sampled from the start, so the set-up is scaled too.
    SAMPLER = hostspeed.Sampler()
    SAMPLER.start(hostspeed.SETUP_EVERY_S)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

from checks import CheckError  # noqa: E402
from tracing import SPANS, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_package() -> None:
    """Import squarespan from this tree's src/ or exit with an error."""
    sys.path.insert(0, str(SRC))
    try:
        import squarespan
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import squarespan from {SRC}: {exc}")
    where = Path(squarespan.__file__).resolve().parent
    if where != SRC / "squarespan":
        sys.exit(f"perfbench: squarespan was imported from {where}, "
                 f"not from {SRC}")


def cpu_seconds() -> float:
    """User plus system time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


# Samples from this long before an operation's start to this long after
# its end give the host's slowness during it.
PAD_S = 0.05


@dataclass
class Round:
    outputs: dict = field(default_factory=dict)
    durations: dict = field(default_factory=dict)  # op name -> raw s
    cpu: dict = field(default_factory=dict)        # op name -> raw CPU s
    spans: dict = field(default_factory=dict)      # op name -> (start, end)
    # Durations divided by the host's slowness sampled around each
    # operation; filled by scale().
    scaled: dict = field(default_factory=dict)
    scaled_cpu: dict = field(default_factory=dict)
    failed: int = 0
    unexpected: int = 0

    @property
    def wall(self) -> float:
        """Time of the round's operations, without the host samples."""
        return sum(self.durations.values())

    def scale(self, sampler, exponent: float) -> None:
        for name, (t0, t1) in self.spans.items():
            slowness = sampler.around(t0, t1, PAD_S) ** exponent
            self.scaled[name] = self.durations[name] / slowness
            self.scaled_cpu[name] = self.cpu[name] / slowness


def run_round(workload, sampler=None) -> Round:
    """One round of the workload's operations.  With a running
    ``sampler``, the time it spends sampling is left out of each
    operation's wall and CPU time."""
    rnd = Round()
    for op in workload.ops:
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # counted as failed; the round goes on
            rnd.failed += 1
            if op.known_fault is None:
                rnd.unexpected += 1
                print(f"perfbench: {op.name} failed:", file=sys.stderr)
                traceback.print_exc()
            elif rnd.failed == 1:
                print(f"perfbench: {op.name} failed as known "
                      f"({op.known_fault}): {exc}", file=sys.stderr)
            continue
        t1 = time.perf_counter()
        sampling = sampler.spent_in(t0, t1) if sampler else 0.0
        rnd.durations[op.name] = t1 - t0 - sampling
        rnd.cpu[op.name] = cpu_seconds() - c0 - sampling
        rnd.spans[op.name] = (t0, t1)
        rnd.outputs[op.name] = out
    return rnd


def checked(workload, rnd: Round) -> bool:
    if rnd.unexpected:
        return False
    try:
        workload.check(rnd.outputs)
    except CheckError as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        return False
    return True


def timed_run(workload, seconds: float, sampler):
    """Whole rounds while the time spent so far plus the last round's
    (checks included) fits in ``seconds``, with ``sampler`` running.
    Each operation's scaled time is its median over the rounds."""
    rounds = []
    correct = True
    begin = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        rnd = run_round(workload, sampler)
        correct = checked(workload, rnd) and correct
        rnd.outputs = None  # so one round's outputs set the peak, not all
        # After the checks, so that samples follow each operation.
        rnd.scale(sampler, workload.host_exponent)
        rounds.append(rnd)
        now = time.perf_counter()
        if now - begin + (now - r0) > seconds:
            break
    print(f"perfbench: {len(rounds)} round(s), raw walls "
          + " ".join(f"{r.wall:.3f}" for r in rounds) + " s, "
          f"{len(sampler.slowness)} host samples, median slowness "
          f"{statistics.median(sampler.slowness or [0.0]):.2f}",
          file=sys.stderr)

    def per_op(attr):
        names = sorted({n for r in rounds for n in getattr(r, attr)})
        return [statistics.median(getattr(r, attr)[n] for r in rounds
                                  if n in getattr(r, attr))
                for n in names]

    op_s = per_op("scaled")
    metrics = {
        "wall_s": (sum(op_s), "s"),
        "cpu_s": (sum(per_op("scaled_cpu")), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "op_p50_s": (statistics.median(op_s) if op_s else 0.0, "s"),
    }
    return correct, rounds, metrics


def traced_run(workload):
    """Plain round, traced round, plain round.  The overhead compares the
    traced round with the faster plain one, so that neither order nor a
    first round's warm-up is charged to the spans."""
    first = run_round(workload)
    correct = checked(workload, first)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_round(workload)
    finally:
        tracer.uninstall()
    correct = checked(workload, traced) and correct
    last = run_round(workload)
    correct = checked(workload, last) and correct
    ref = min(first, last, key=lambda r: r.wall)

    counts = dict(tracer.counts)
    counts.update(workload.layer_counts(traced.outputs))
    metrics = {}
    for name in SPANS:
        metrics[f"{name}.calls"] = (tracer.calls[name], "count")
        metrics[f"{name}.self_s"] = (tracer.self_time(name), "s")
    for name in ("extension.children", "extension.keys",
                 "extension.keys_past_nmax", "extension.classes",
                 "beam.collected", "beam.keyed", "beam.distinct",
                 "beam.rebuilds", "realize.forms"):
        metrics[name] = (counts.get(name, 0), "count")

    def ratio(num, den):
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

    metrics["extension.key_yield"] = (
        ratio("extension.classes", "extension.keys"), "ratio")
    metrics["beam.key_yield"] = (ratio("beam.distinct", "beam.keyed"),
                                 "ratio")
    metrics["trace.untraced_wall_s"] = (ref.wall, "s")
    metrics["trace.traced_wall_s"] = (traced.wall, "s")
    metrics["trace.overhead_pct"] = (
        100.0 * (traced.wall - ref.wall) / ref.wall, "%")
    return correct, [first, traced, last], metrics


def main(sampler, argv=None) -> int:
    """Run the workload; ``sampler`` has been sampling the host since the
    script started."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    import workloads
    try:
        workload = workloads.build(args.workload, args.seed,
                                   serial=bool(args.trace))
    except ValueError as exc:
        sys.exit(f"perfbench: {exc}")
    setup_end = time.perf_counter()
    setup_raw = setup_end - _START - sampler.spent_in(_START, setup_end)

    if args.trace:
        sampler.stop()  # a sample inside a span would count as its time
        correct, rounds, metrics = traced_run(workload)
    else:
        sampler.start(hostspeed.EVERY_S)
        correct, rounds, metrics = timed_run(workload, args.seconds, sampler)
        sampler.stop()
        slowness = sampler.around(_START, setup_end, 0.0)
        print(f"perfbench: raw setup {setup_raw:.4f} s at slowness "
              f"{slowness:.2f}", file=sys.stderr)
        metrics = {"setup_s": (setup_raw / slowness, "s"), **metrics}
    result = {
        "correct": correct,
        "attempted": len(workload.ops) * len(rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        code = main(SAMPLER)
    finally:
        SAMPLER.stop()
    sys.exit(code)
