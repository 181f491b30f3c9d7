"""Benchmark for nbhdrecon: one workload per run, end to end or traced.

Run from the repository root:

    python3 bench/run.py --workload realize-dense --seed 1 --seconds 20 --trace 0

Workloads: realize-dense, dc-sparse, roundtrip-small, sweep-n7 (see
``bench/README.md``).  One process drives the load as a closed loop: the next
query starts when the previous one returns.  With ``--trace 0`` the run
measures the end-to-end metrics for ``--seconds`` seconds with no
instrumentation; with ``--trace 1`` it runs a fixed number of queries (set
by the seed and ``--seconds``) inside spans and reports per-layer metrics.
Every answer is checked against ground truth after the timed region.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
are a readable report: each metric with its unit and sample count, the
error rate, a SHA-256 digest of the canonical outputs, and the machine and
input facts.  The same record, with the spans of a traced run, is written
under ``bench/out/``.  The program is imported from ``src/`` of the checkout
this script sits in; without it the run exits with status 2.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: Seed used while writing a change; a claimed gain must also hold on the
#: held-out seed, which is not used until the claim is checked.
DEFAULT_SEED = 1
HELDOUT_SEED = 7919

#: Fresh interpreters timed for setup_s (after one that byte-compiles).
SETUP_SPAWNS = 7

#: The calibration kernel's time at the reference speed: its median on the
#: 2-core Intel Xeon (2.0 GHz) host the benchmark was written on.
KERNEL_REFERENCE_S = 0.0017
#: Query time between two runs of the calibration kernel between queries,
#: and the interval at which a timer samples it inside a sweep command.
CALIBRATE_EVERY_S = 0.2

END_TO_END_UNITS = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "verify_graphs_per_s": "1/s",
    "mine_graphs_per_s": "1/s",
    "peak_rss_mb": "MB",
}

_SETUP_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); import nbhdrecon; "
               "print(time.monotonic_ns())")


def use_checkout_source():
    """Import ``nbhdrecon`` from this checkout's ``src``, or return None."""
    if not (SRC / "nbhdrecon" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import nbhdrecon

    if not Path(nbhdrecon.__file__).resolve().is_relative_to(SRC):
        return None
    return nbhdrecon


def kernel_seconds() -> float:
    """Time a fixed piece of CPU work in the program's style: bit operations,
    a dict, calls and a numpy sort."""
    import numpy as np

    t0 = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(3000):
        m = (i * 2654435761) & 0xFFFF
        acc += (m & -m).bit_length() + m.bit_count()
        table[m & 255] = table.get(m & 255, 0) + 1
    keys = (np.arange(20000, dtype=np.uint64) * np.uint64(2654435761)) & np.uint64(0xFFFFFFFF)
    acc += int(np.sort(keys)[-1]) + len(table)
    return time.perf_counter() - t0


class Calibration:
    """Scales measured query times to the reference speed.

    The host's speed drifts by a fifth and more within and between runs, as
    other tenants load its cores.  The benchmark times the calibration kernel
    after every ``CALIBRATE_EVERY_S`` of query time, between queries, and
    divides each query time by the mean of the two kernel runs around it
    over ``KERNEL_REFERENCE_S``.  A workload whose queries run for seconds
    (``sample_inside``) has a timer sample the kernel at the same interval
    inside each query instead; the query is divided by the mean of its own
    samples, and their time is taken out of the query's time.  The raw times
    are kept beside the scaled ones.
    """

    def __init__(self):
        self.kernel_s = [kernel_seconds()]
        self.inside_s: list[float] = []
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.side_scaled = 0.0
        self.last = 0.0
        self._own: list[float | None] = []
        self._inside: list[float] = []
        self._spent = 0.0
        self._side_open = 0.0
        self._since = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._inside.append(kernel_seconds())
        self._spent += time.perf_counter() - t0

    @contextmanager
    def call(self, sample_inside: bool):
        """Time the body as one query; its time, less the samples', is ``last``."""
        self._inside, self._spent = [], 0.0
        if sample_inside:
            previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - t0
            if sample_inside:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
                self.inside_s.extend(self._inside)
            self.last = elapsed - self._spent

    def add(self, seconds: float, side: float = 0.0) -> None:
        """Record the last query's time, plus ``side`` seconds of other timed
        work done after it (the gate's ``realizes`` calls)."""
        self.raw.append(seconds)
        self._own.append(statistics.mean(self._inside) if self._inside else None)
        self._side_open += side
        self._since += seconds
        if self._since >= CALIBRATE_EVERY_S:
            self.close()

    def close(self) -> None:
        """Run the kernel and scale every time measured since its last run."""
        if len(self.scaled) == len(self.raw):
            return
        k = kernel_seconds()
        around = (self.kernel_s[-1] + k) / 2
        self.kernel_s.append(k)
        for t, own in zip(self.raw[len(self.scaled):], self._own[len(self.scaled):]):
            self.scaled.append(t * KERNEL_REFERENCE_S / (own or around))
        self.side_scaled += self._side_open * KERNEL_REFERENCE_S / around
        self._side_open = 0.0
        self._since = 0.0

    def speed(self) -> dict:
        """The run's kernel times over the reference: above 1 means slower."""
        factors = sorted(k / KERNEL_REFERENCE_S for k in self.kernel_s + self.inside_s)
        return {"kernel_runs": len(factors), "min": factors[0], "max": factors[-1],
                "median": statistics.median(factors),
                "raw_over_scaled": sum(self.raw) / sum(self.scaled) if self.scaled else 1.0}


def measure_setup(spawns: int) -> list[float]:
    """Seconds from starting a fresh interpreter until ``import nbhdrecon`` returns.

    These are not scaled: process start-up and loading the modules did not
    follow the calibration kernel's speed.
    """
    cmd = [sys.executable, "-c", _SETUP_CODE, str(SRC)]
    subprocess.run(cmd, check=True, capture_output=True, timeout=60)
    times = []
    for _ in range(spawns):
        t0 = time.monotonic_ns()
        done = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=60)
        times.append((int(done.stdout.strip()) - t0) / 1e9)
    return times


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, -(-len(sorted_values) * q // 1))
    return sorted_values[int(rank) - 1]


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def execute(wl, seed: int, seconds: float, tracer=None):
    """Closed loop over the seeded queries.

    Untraced, it runs until ``seconds`` of measured query time and at least
    ``min_queries`` queries are done; traced, it runs a fixed
    ``wl.trace_queries(seconds)`` queries inside spans.  Inputs are generated
    and each answer is checked and dropped between timed intervals, so
    neither is timed and memory stays flat.  Returns the records ``(kind,
    scaled latency)``, the problems per query, the output digest and the
    calibration.
    """
    stream = wl.queries(seed)
    first = next(stream)
    if wl.warm_up:
        wl.run(first)  # lazy set-up finishes before anything is timed
    limit = wl.trace_queries(seconds) if tracer else None
    cal = Calibration()
    kinds, problems = [], []
    measured = 0.0
    sha = hashlib.sha256()
    for i, q in enumerate(itertools.chain([first], stream)):
        try:
            with cal.call(wl.sample_inside):
                if tracer is None:
                    out = wl.run(q)
                else:
                    tracer.query = i
                    with tracer.span("bench.query", kind=q.kind):
                        out = wl.trace(q, tracer)
            err = None
        except Exception as exc:  # a failed query is counted, not fatal
            out, err = None, _error(exc)
        latency = cal.last
        measured += latency
        verify_s = wl.verify_s
        found = [err] if err is not None else check(wl, q, out)
        cal.add(latency, wl.verify_s - verify_s)
        problems.append(found)
        kinds.append(q.kind)
        if i < wl.min_queries:
            line = f"error {err}" if err is not None else wl.canonical(q, out)
            sha.update(line.encode("utf-8") + b"\n")
        n = i + 1
        if limit is not None:
            if n >= limit:
                break
        elif measured >= seconds and n >= wl.min_queries and n % wl.pass_size == 0:
            break
    cal.close()
    return list(zip(kinds, cal.scaled)), problems, sha.hexdigest(), cal


def check(wl, q, out) -> list[str]:
    """Ground-truth problems of one answer; empty when it is right."""
    try:
        return wl.check(q, out)
    except Exception as exc:
        return [f"check raised {_error(exc)}"]


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest peak among its children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def machine_facts(nbhdrecon) -> dict:
    import numpy

    uname = os.uname()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nbhdrecon": nbhdrecon.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "ram_gib": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 2),
        "machine": f"{uname.sysname} {uname.release} {uname.machine}",
        "commit": commit(),
    }


def end_to_end(wl, records, setup_times: list[float], cal: Calibration) -> dict:
    lat = sorted(t for _, t in records)
    verify_rate, mine_rate = wl.rates(records, cal.side_scaled)
    return {
        "setup_s": statistics.median(setup_times),
        "queries_per_s": len(lat) / sum(lat),
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_p90_ms": 1e3 * percentile(lat, 0.9),
        "verify_graphs_per_s": verify_rate,
        "mine_graphs_per_s": mine_rate,
        "peak_rss_mb": peak_rss_mb(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    nbhdrecon = use_checkout_source()
    if nbhdrecon is None:
        print(f"error: no nbhdrecon package under {SRC.relative_to(ROOT)}/ "
              "next to the benchmark", file=sys.stderr)
        return 2
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](smoke=args.smoke)
    OUT.mkdir(exist_ok=True)
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"

    t0 = time.perf_counter()
    if args.trace:
        tracer = Tracer()
        records, problems, sha, cal = execute(wl, args.seed, args.seconds, tracer)
        speed = cal.speed()["raw_over_scaled"]
        metrics = {k: (v / speed if unit in ("s", "ms") else v, unit)
                   for k, (v, unit) in layer_metrics(tracer.spans).items()}
        tracer.write(OUT / f"spans-{tag}.jsonl")
        notes = {"spans": len(tracer.spans)}
    else:
        setup_times = measure_setup(1 if args.smoke else SETUP_SPAWNS)
        records, problems, sha, cal = execute(wl, args.seed, args.seconds)
        metrics = {k: (v, END_TO_END_UNITS[k])
                   for k, v in end_to_end(wl, records, setup_times, cal).items()}
        p90 = percentile(sorted(t for _, t in records), 0.9)
        notes = {"setup_samples_s": setup_times,
                 "latency_samples": len(records),
                 "latency_samples_above_p90": sum(t > p90 for _, t in records),
                 "queries_per_s_raw": len(records) / sum(cal.raw)}
    notes.update(queries=len(records), measured_s=sum(cal.raw), speed=cal.speed(),
                 elapsed_s=time.perf_counter() - t0)

    failed = sum(1 for p in problems if p)
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "correct": failed == 0, "attempted": len(records), "failed": failed,
        "error_rate": failed / len(records),
        "digest": {"sha256": sha, "queries": min(len(records), wl.min_queries)},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "run": notes, "inputs": wl.sizes(), "facts": machine_facts(nbhdrecon),
        "problems": [f"query {i}: {'; '.join(p)}" for i, p in enumerate(problems) if p][:20],
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"# {wl.name}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}, "
          f"{len(records)} queries")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:.6g} {unit}")
    print(f"{'error_rate':32s} {record['error_rate']:.6g} ({failed}/{len(records)})")
    print(f"{'digest':32s} sha256:{record['digest']['sha256']} "
          f"over the first {record['digest']['queries']} queries")
    print(f"{'run':32s} {json.dumps(notes, sort_keys=True)}")
    print(f"{'inputs':32s} {json.dumps(record['inputs'], sort_keys=True)}")
    print(f"{'facts':32s} {json.dumps(record['facts'], sort_keys=True)}")
    for line in record["problems"]:
        print(f"problem: {line}")
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
