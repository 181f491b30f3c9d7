"""Run the benchmark over several seeds and report the spread between runs.

    python3 bench/spread.py --workloads realize-dense dc-sparse --seeds 1-10

Each run is ``bench/run.py`` in a fresh process, as the benchmark command
runs it.  For every metric the summary gives the median, the quartiles (as
``statistics.quantiles(values, n=4)``) and the spread: the distance between
the quartiles as a share of the median, next to the bound that
``BENCHMARK.json`` fixes.  The summary, with every run's values, the machine
facts and the wall time of each run, goes to ``bench/out/BENCH_<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((BENCH / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"seed": seed, "wall_s": wall, "result": result, "record": record}


def summarize(runs: list[dict], bounds: dict) -> dict:
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        out[name] = {"unit": runs[0]["result"]["metrics"][name]["unit"], "median": median,
                     "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0,
                     "bound": bounds.get(name), "values": values}
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,3,7919")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default="spread")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"seeds": parse_seeds(args.seeds), "seconds": args.seconds,
              "trace": args.trace, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in report["seeds"]:
            runs.append(run_once(workload, seed, args.seconds, args.trace))
            r = runs[-1]
            print(f"{workload} seed {seed}: wall {r['wall_s']:.1f} s, "
                  f"correct {r['result']['correct']}, attempted {r['result']['attempted']}",
                  flush=True)
        summary = summarize(runs, bounds)
        report["facts"] = runs[-1]["record"]["facts"]
        report["workloads"][workload] = {
            "inputs": runs[-1]["record"]["inputs"],
            "wall_s": [r["wall_s"] for r in runs],
            "attempted": [r["result"]["attempted"] for r in runs],
            "failed": [r["result"]["failed"] for r in runs],
            "digests": {r["seed"]: r["record"]["digest"]["sha256"] for r in runs},
            "metrics": summary,
        }
        for name, s in summary.items():
            flag = "" if s["bound"] is None or s["spread"] < s["bound"] / 3 else "  <-- over bound/3"
            print(f"  {name:30s} median {s['median']:.6g} {s['unit']:6s} "
                  f"spread {s['spread']:.4f}  bound {s['bound']}{flag}")
    (BENCH / "out").mkdir(exist_ok=True)
    path = BENCH / "out" / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
