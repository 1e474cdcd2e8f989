#!/usr/bin/env python3
"""Run the benchmark over several seeds and report the run-to-run spread.

Run from the repository root:

    python3 perfbench/repeat.py --workload serve-open --seeds 1-10 [--trace 0] [--out rec.json]

For every metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them), and the quartile spread as a
share of the median. For end-to-end metrics it also prints the bound from
BENCHMARK.json and whether the spread is within a third of it. With --out it
writes a record with each run's provenance and the raw values.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(text):
    out = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def run_once(bench, workload, seed, trace):
    cmd = list(bench["command"]) + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    prov = None
    for line in lines:
        if line.startswith("provenance: "):
            prov = json.loads(line[len("provenance: "):])
    return json.loads(lines[-1]), prov


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = []
    for seed in seeds_of(args.seeds):
        res, prov = run_once(bench, args.workload, seed, args.trace)
        if not res["correct"]:
            raise SystemExit(f"{args.workload} seed {seed}: incorrect output")
        runs.append({"seed": seed, "result": res, "provenance": prov})
        vals = " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items())
        print(f"seed {seed}: failed {res['failed']}/{res['attempted']} {vals}", flush=True)

    ok = True
    summary = {}
    for name in runs[0]["result"]["metrics"]:
        xs = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0], 0, xs[0])
        spread = (q3 - q1) / abs(med) if med else float("nan")
        bound = bounds.get(name)
        verdict = ""
        if bound is not None and name != "setup_s":
            good = spread < bound / 3
            ok &= good
            verdict = f"bound {bound} {'ok' if good else 'TOO WIDE'}"
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": xs}
        print(f"{name:32s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:7.4f} {verdict}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "trace": args.trace, "runs": runs, "summary": summary}, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
