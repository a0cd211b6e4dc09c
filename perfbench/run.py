#!/usr/bin/env python3
"""Benchmark of leibcohom: one workload in this process, one client.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

W is one of tower, zinbiel, requests (see perfbench/README.md).
Run from the root of a source checkout; the program is imported from
src/.  The run builds the workload's inputs from the seed, sets up, then
repeats whole rounds of operations until S seconds of rounds have
passed, with one more timed set-up after each round.  After the timed part
it checks every output against the benchmark's own computations and
runs the negative controls.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1 (whose spans are also written under .perfbench_trace/).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REF_LOOP_SAMPLES = 9


def ref_loop_ms():
    """Median time of a fixed pure-Python loop: how fast the host ran."""
    times = []
    for _ in range(REF_LOOP_SAMPLES):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def upper_quartile(values):
    values = list(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


class Phase:
    """Whole rounds of operations and what they produced."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies = {}      # op index -> latencies of its completed runs
        self.records = []        # (op, output) of every op that did not fail
        self.unexpected = []     # failures that no named fault explains
        self.rounds = 0

    def typical(self):
        """Each operation's latency: the upper quartile of its latencies
        over the rounds it completed in.

        The host alternates, every ten seconds to a minute, between a slow
        state it is in most of the time and a state up to 1.8 times faster.
        A round repeats the same operations, so the upper quartile of one
        operation's latencies reads the slow state unless nearly the whole
        run fell into the fast one.
        """
        return [upper_quartile(v) for v in self.latencies.values()]

    @property
    def ops_per_s(self):
        """Operations of one round per second of their typical latencies."""
        typical = self.typical()
        return len(typical) / sum(typical)

    def median_round_s(self):
        """Median over rounds of the time spent inside the round's operations."""
        return statistics.median(map(sum, zip(*self.latencies.values())))


def run_rounds(workload, ops, seconds, max_rounds=None, tracer=None,
               setup_s=None):
    """Repeat whole rounds until ``seconds`` have passed (at least one).

    With a ``setup_s`` list, each round is followed by one fresh set-up
    whose time is appended to it, so that set-ups are sampled across the
    run like the operations.
    """
    failed_of = getattr(workload, "failed", lambda op, out: False)
    phase = Phase()
    clock = time.perf_counter
    start = clock()
    while True:
        for i, op in enumerate(ops):
            t0 = clock()
            try:
                out = op.run() if tracer is None else tracer.run_op(i, op.run)
                error = None
            except Exception as exc:          # a failed operation, counted
                out, error = None, exc
            dt = clock() - t0
            phase.attempted += 1
            if error is not None or failed_of(op, out):
                phase.failed += 1
                if op.fault is None:
                    phase.unexpected.append(f"{op.label}: {error!r}")
            else:
                phase.latencies.setdefault(i, []).append(dt)
                phase.records.append((op, out))
        phase.rounds += 1
        if setup_s is not None:
            t0 = clock()
            workload.setup()
            setup_s.append(clock() - t0)
        if max_rounds is not None and phase.rounds >= max_rounds:
            break
        if max_rounds is None and clock() - start >= seconds:
            break
    return phase


def quantile(values, q):
    """The q-quantile of the sample (inclusive method)."""
    return statistics.quantiles(values, n=100, method="inclusive")[round(100 * q) - 1]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "leibcohom", "__init__.py")):
        print(f"perfbench: no program source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    sys.path.insert(0, src)
    import leibcohom as L
    import leibcohom.cli  # noqa: F401  (the requests workload calls it)
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    workdir = os.path.join(ROOT, ".perfbench_work",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        return run(args, L, workloads, Tracer, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, L, workloads, Tracer, workdir):
    host_ms = [ref_loop_ms()]
    wl = workloads.WORKLOADS[args.workload](L, args.seed, workdir)

    t0 = time.perf_counter()
    state = wl.setup()
    setup_s = [time.perf_counter() - t0]
    ops = wl.round(state)

    if args.trace:
        plain = run_rounds(wl, ops, args.seconds / 2)
        tracer = Tracer("leibcohom")
        tracer.install()
        try:
            wl.setup()                       # one traced set-up
            phase = run_rounds(wl, ops, 0, max_rounds=1, tracer=tracer)
        finally:
            tracer.uninstall()
        phases = [plain, phase]
    else:
        phase = run_rounds(wl, ops, args.seconds, setup_s=setup_s)
        phases = [phase]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    host_ms.append(ref_loop_ms())

    # every round is counted and checked, the untraced ones of a traced run too
    attempted = sum(ph.attempted for ph in phases)
    failed = sum(ph.failed for ph in phases)
    errors = [e for ph in phases for e in ph.unexpected]
    errors += wl.check(state, [r for ph in phases for r in ph.records])
    controls = workloads.negative_controls(L, wl.table)
    errors += [f"negative control {name} was not rejected"
               for name, rejected in controls.items() if not rejected]
    for e in errors[:20]:
        print(f"perfbench: {e}", file=sys.stderr)

    if args.trace:
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in tracer.metrics(phase.attempted).items()}
        metrics["host.ref_loop_ms"] = {"value": statistics.median(host_ms),
                                       "unit": "ms"}
        # traced ops_per_s over untraced ops_per_s, round against round
        metrics["bench.trace_overhead"] = {
            "value": plain.median_round_s() / phase.median_round_s(),
            "unit": "ratio"}
        tdir = os.path.join(ROOT, ".perfbench_trace")
        os.makedirs(tdir, exist_ok=True)
        tracer.write(os.path.join(tdir, f"{args.workload}-seed{args.seed}.json"))
    else:
        lat = phase.typical()
        metrics = {
            "setup_s": {"value": upper_quartile(setup_s), "unit": "s"},
            "ops_per_s": {"value": phase.ops_per_s, "unit": "ops/s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(lat), "unit": "ms"},
            "op_p90_ms": {"value": 1e3 * quantile(lat, 0.9), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(f"perfbench: {args.workload} seed {args.seed}: "
          f"{sum(ph.rounds for ph in phases)} rounds, {attempted} ops, "
          f"{attempted - failed} completed, "
          f"host loop {statistics.median(host_ms):.2f} ms, controls {controls}",
          file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
