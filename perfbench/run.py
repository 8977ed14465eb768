"""Benchmark of the ngcorr CLI: figure sweeps and single-state measures.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout.  For S seconds it starts whole
rounds; a round is one fresh Python process that imports ngcorr.cli from
./src and makes one ngcorr.cli.main([...]) call (closed loop, one client),
followed by SETUP_PROBES fresh processes that only import ngcorr.cli.
Every round's CSV is checked.  The last line of standard output is one JSON
object: correct, attempted and failed (CSV rows), and the metrics, the
medians over the rounds (setup_s over every import of the run): the
end-to-end metrics with --trace 0, the per-layer metrics of the span
recorder with --trace 1.  A record of the run goes to
perfbench/results/runs/.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

import checks
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")

FIG4_GRID = 5
FIG5_SEED = 3
FIG5_SAMPLES = 40
MEASURE_SPEC = os.path.join(HERE, "ecs30.spec")
MEASURE_IDS = ("vn", "renyi:0.5", "sandwiched:1.5", "bures", "tr", "hs")

WORKLOADS = ("fig4-loss", "fig5-scatter", "measure-ecs30")

END_TO_END = {"run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

#: Import-only processes per round.  Import time varies by about ±20% from
#: one process to the next, so setup_s needs more samples than a run has
#: rounds.
SETUP_PROBES = 3

#: A run must end within 180 s: no round starts that could cross this.
RUN_LIMIT_S = 165.0

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NGCORR_THREADS")


def read_spec(path):
    keys = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                key, _, value = line.partition("=")
                keys[key.strip()] = value.strip()
    return keys


def plan(workload, seed):
    """The CLI arguments of one round, and the checker of its CSV text."""
    rng = random.Random(seed)
    if workload == "fig4-loss":
        # the top of the eta grid moves with the seed; every point costs the
        # same at a fixed cutoff, and eta = 1, a cheaper special case, is left out
        stop = rng.uniform(0.9, 0.99)
        argv = ["run_figure", "fig4", "--threads", "2",
                "--eta", f"0:{stop!r}:{FIG4_GRID}"]
        return argv, lambda text: checks.check_fig4(text, stop, FIG4_GRID)
    if workload == "fig5-scatter":
        # fixed sample set: see README.md for why the seed does not move it
        argv = ["run_figure", "fig5", "--threads", "1",
                "--samples", str(FIG5_SAMPLES), "--seed", str(FIG5_SEED)]
        return argv, lambda text: checks.check_fig5(text, FIG5_SEED, FIG5_SAMPLES)
    if workload == "measure-ecs30":
        ids = list(MEASURE_IDS)
        rng.shuffle(ids)
        spec = read_spec(MEASURE_SPEC)
        gamma, eta = float(spec["gamma"]), float(spec["eta"])
        argv = ["measure_state", os.path.relpath(MEASURE_SPEC, ROOT), *ids]
        return argv, lambda text: checks.check_measure(text, ids, gamma, eta)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def _git_commit(root):
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(root, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def environment(root=ROOT):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception as exc:  # the layout of show_config differs between versions
        blas = repr(exc)
    return {
        "nproc": os.cpu_count(),
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(root),
    }


def summary(values):
    """Median, quartiles and sample count."""
    values = sorted(values)
    if len(values) > 1:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def run_child(argv, trace_path=None, timeout=RUN_LIMIT_S):
    cmd = [sys.executable, os.path.join(HERE, "child.py"), ROOT, trace_path or "-",
           "--", *argv]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"child exited with {proc.returncode}: {' '.join(cmd)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ngcorr", "cli.py")):
        print(f"no ngcorr source under {ROOT}/src", file=sys.stderr)
        return 2
    cli_argv, check = plan(args.workload, args.seed)
    stamp = time.strftime("%Y%m%dT%H%M%S") + f"-{os.getpid()}"
    run_dir = os.path.join(RESULTS, "runs",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}")
    os.makedirs(run_dir, exist_ok=True)

    rounds = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        longest = max((r["wall_s"] for r in rounds), default=0.0)
        if rounds and (elapsed >= args.seconds or elapsed + longest > RUN_LIMIT_S):
            break
        k = len(rounds)
        csv_path = os.path.join(run_dir, f"round{k}.csv")
        trace_path = os.path.join(run_dir, f"round{k}.spans.jsonl") if args.trace else None
        t0 = time.perf_counter()
        try:
            res = run_child([*cli_argv, "--out", csv_path], trace_path, RUN_LIMIT_S - elapsed)
            res["setup_probes"] = [run_child([], None, RUN_LIMIT_S - elapsed)["setup_s"]
                                   for _ in range(SETUP_PROBES)]
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"run failed: {exc}", file=sys.stderr)
            return 1
        with open(csv_path, "rb") as fh:
            data = fh.read()
        res["rows"], res["failed"], res["problems"] = check(data.decode())
        res["sha256"] = hashlib.sha256(data).hexdigest()
        if k:
            os.remove(csv_path)
        res["wall_s"] = time.perf_counter() - t0
        rounds.append(res)

    problems = [p for r in rounds for p in r["problems"]]
    if len({r["sha256"] for r in rounds}) != 1:
        problems.append("CSV bytes differ between rounds")
    if args.trace:
        units = tracer.metric_units()
        values = {name: [r["layers"][name] for r in rounds] for name in units}
    else:
        units = END_TO_END
        values = {name: [r[name] for r in rounds] for name in units}
        values["setup_s"] += [v for r in rounds for v in r["setup_probes"]]
    stats = {name: summary(v) for name, v in values.items()}
    result = {
        "correct": not problems,
        "attempted": sum(r["rows"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": stats[name]["median"], "unit": units[name]}
                    for name in units},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "argv": cli_argv, "csv_sha256": rounds[0]["sha256"],
        "result": result, "summary": stats,
        "problems": problems, "rounds": rounds, "environment": environment(),
    }
    with open(run_dir + ".json", "w") as fh:
        json.dump(record, fh, indent=1)

    for name, s in stats.items():
        print(f"{args.workload:14s} {name:44s} {s['median']:14.6g} {units[name]:6s}"
              f" q1 {s['q1']:.6g} q3 {s['q3']:.6g} n {s['n']}")
    for p in problems:
        print(f"{args.workload}: PROBLEM {p}")
    print(f"{args.workload}: attempted {result['attempted']} failed {result['failed']}"
          f" correct {result['correct']}  record {os.path.relpath(run_dir, ROOT)}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
