"""Run the benchmark over several seeds and report each end-to-end metric's
median, quartiles and spread (quartile distance as a share of the median),
next to the bound ``BENCHMARK.json`` gives it::

    python3 perfbench/steady.py --seeds 0-9
    python3 perfbench/steady.py --workloads oracle-mid --seeds 1-5
    python3 perfbench/steady.py --seeds 0-9 --baseline perfbench/baseline.json

With ``--baseline`` it also makes one traced run per workload at the default
seed and writes everything to that file, keeping its ``about`` and
``notes``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    record = json.loads((HERE / "work" / workload / f"record-trace{trace}.json").read_text(encoding="utf-8"))
    if proc.returncode != 0 or record["seed"] != seed:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    return record


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "min": min(values), "max": max(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    out = {}
    for name in args.workloads.split(","):
        records = []
        for seed in seeds:
            records.append(run_once(name, seed, seconds, 0))
            e2e = records[-1]["end_to_end"]
            print(f"{name} seed {seed}: " + " ".join(f"{k}={e2e[k]:.5g}" for k in metrics), flush=True)
        summary = {k: dict(spread([r["end_to_end"][k] for r in records]), unit=m["unit"], bound=m["bound"])
                   for k, m in metrics.items()}
        for k, s in summary.items():
            flag = "" if s["spread"] is None or s["spread"] <= s["bound"] / 3 else "  <-- above bound/3"
            print(f"  {k:<14} median {s['median']:.5g} {s['unit']}  spread {s['spread']:.4f}  "
                  f"bound {s['bound']}{flag}", flush=True)
        out[name] = {
            "why": WORKLOADS[name].why,
            "seeds": seeds,
            "end_to_end": summary,
            "guards": {g: [r["end_to_end"][g] for r in records] for g in ("failed_frac", "excess_small")},
            "unscaled": {
                k: spread([r["info"]["unscaled"][k] for r in records]) for k in records[0]["info"]["unscaled"]
            } | {"setup_s": spread([statistics.median(r["setup_s_unscaled"]) for r in records])},
            "passes": [r["info"]["passes"] for r in records],
            "row_tail_percentile": sorted({r["info"]["row_tail_percentile"] for r in records}),
            "environment": [r["environment"] for r in records],
        }
        if args.baseline:
            traced = run_once(name, DEFAULT_SEED, seconds, 1)
            out[name]["per_layer_default_seed"] = traced["per_layer"]
            out[name]["trace_info"] = traced["info"]

    if args.baseline:
        # the hand-written "about" and "notes" of an existing baseline stay
        old = json.loads(args.baseline.read_text(encoding="utf-8")) if args.baseline.is_file() else {}
        kept = {k: old[k] for k in ("about", "notes") if k in old}
        args.baseline.write_text(json.dumps({**kept, "run_seconds": seconds, "workloads": out}, indent=1) + "\n",
                                 encoding="utf-8")
        print(f"wrote {args.baseline}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
