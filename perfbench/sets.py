"""Run a set of benchmark runs and summarise it.

    python3 perfbench/sets.py [--seeds 1-10] [--compare results/set-....json]

Runs perfbench/run.py for BENCHMARK.json's run_seconds once per workload and
seed (untraced), then once traced per workload at the first seed, and writes
perfbench/results/set-<time>.json: every run's values, the median and
quartiles of each metric with the sample count, the spread (q3 - q1) / median
against the metric's bound in BENCHMARK.json, the operations attempted and
failed, the traced run_s against the untraced one, and the environment.  The
set is OK when every run is correct, every spread is within its bound, the
failed share is the same in every run, and runs with the same CLI arguments
wrote the same CSV bytes.  --compare checks the medians against an earlier
set: no metric may be worse by more than its bound, the traced counts must
repeat exactly, and the CSV bytes must match for the same CLI arguments.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

from run import END_TO_END, HERE, RESULTS, ROOT, WORKLOADS, environment, summary

BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    record_path = lines[-2].rsplit("record ", 1)[1]
    with open(os.path.join(ROOT, record_path)) as fh:
        record = json.load(fh)
    return {"seed": seed, "wall_s": wall, "record": record_path,
            "argv": record["argv"], "csv_sha256": record["csv_sha256"],
            "result": json.loads(lines[-1]),
            "round_run_s": [r["run_s"] for r in record["rounds"]]}


def csv_hashes(runs):
    """The CSV sha256 values seen for each set of CLI arguments."""
    out = {}
    for r in runs:
        out.setdefault(tuple(r["argv"]), set()).add(r["csv_sha256"])
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--compare", help="an earlier set JSON to compare medians with")
    args = ap.parse_args(argv)
    with open(BENCHMARK) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    out = {"seconds": seconds, "seeds": seeds, "environment": environment(),
           "workloads": {}}
    ok = True
    for wl in WORKLOADS:
        runs = [one_run(wl, s, seconds, 0) for s in seeds]
        traced = [one_run(wl, seeds[0], seconds, 1)]
        metrics = {}
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            s = summary(values)
            s["values"] = values
            s["spread"] = (s["q3"] - s["q1"]) / s["median"]
            s["bound"] = bound
            metrics[name] = s
        layers = {}
        for r in traced:
            for name, m in r["result"]["metrics"].items():
                layers.setdefault(name, []).append(m["value"])
        entry = {
            "runs": runs,
            "traced_runs": traced,
            "metrics": metrics,
            "attempted": [r["result"]["attempted"] for r in runs],
            "failed": [r["result"]["failed"] for r in runs],
            "correct": all(r["result"]["correct"] for r in runs + traced),
            "layers": layers,
        }
        untraced = summary([v for r in runs for v in r["round_run_s"]])["median"]
        traced_s = summary([v for r in traced for v in r["round_run_s"]])["median"]
        entry["trace_overhead"] = {"untraced_run_s": untraced, "traced_run_s": traced_s,
                                   "ratio": traced_s / untraced}
        selfs = {n.removesuffix(".self_s"): summary(v)["median"]
                 for n, v in layers.items() if n.endswith(".self_s")}
        total = sum(selfs.values())
        entry["self_share"] = {n: v / total for n, v in
                               sorted(selfs.items(), key=lambda kv: -kv[1]) if v}
        out["workloads"][wl] = entry
        shares = {f / a for f, a in zip(entry["failed"], entry["attempted"])}
        print(f"{wl}: correct {entry['correct']} attempted {entry['attempted']}"
              f" failed {entry['failed']} failed share {sorted(shares)}")
        ok &= entry["correct"] and len(shares) == 1
        for argv, hashes in csv_hashes(runs + traced).items():
            if len(hashes) != 1:
                ok = False
                print(f"  CSV bytes differ between runs of {' '.join(argv)}")
        for name, s in metrics.items():
            steady = s["spread"] < s["bound"] / 3
            ok &= s["spread"] <= s["bound"]
            print(f"  {name:12s} {END_TO_END[name]:3s} median {s['median']:10.5g}"
                  f"  q1 {s['q1']:10.5g}  q3 {s['q3']:10.5g}  n {s['n']}  spread {s['spread']:.4f}"
                  f" / bound {s['bound']}{'' if steady else '  NOT STEADY'}")
        t = entry["trace_overhead"]
        print(f"  traced run_s {t['traced_run_s']:.4g} vs {t['untraced_run_s']:.4g}"
              f" ({t['ratio']:.3f}x)")
        print("  self-time shares: " + ", ".join(
            f"{n} {v:.1%}" for n, v in list(entry["self_share"].items())[:8]))
    if args.compare:
        with open(args.compare) as fh:
            before = json.load(fh)
        for wl, entry in out["workloads"].items():
            old_runs = before["workloads"][wl]["runs"] + before["workloads"][wl]["traced_runs"]
            for argv, hashes in csv_hashes(old_runs + entry["runs"] + entry["traced_runs"]).items():
                if len(hashes) != 1:
                    ok = False
                    print(f"compare {wl}: CSV bytes differ for {' '.join(argv)}")
            for name, s in entry["metrics"].items():
                old = before["workloads"][wl]["metrics"][name]["median"]
                worse = s["median"] / old - 1.0
                ok &= worse <= s["bound"]
                print(f"compare {wl:14s} {name:12s} {old:10.5g} -> {s['median']:10.5g}"
                      f"  {worse:+.4f} (bound {s['bound']})")
            for name, old in before["workloads"][wl].get("layers", {}).items():
                new = entry["layers"].get(name)
                if name.endswith((".calls", ".cache_entries", ".n3_g")) and new and old[0] != new[0]:
                    ok = False
                    print(f"compare {wl} {name}: {old[0]} -> {new[0]}")
    path = os.path.join(RESULTS, time.strftime("set-%Y%m%dT%H%M%S.json"))
    os.makedirs(RESULTS, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1)
    print(f"{'OK' if ok else 'NOT OK'}  set record {os.path.relpath(path, ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
