"""One invocation of the ngcorr CLI in a fresh process, timed from inside.

Usage: python3 child.py ROOT TRACE_JSONL|- -- <ngcorr cli arguments>

Imports ngcorr.cli from ROOT/src (set-up time), optionally installs the span
recorder, calls ngcorr.cli.main(argv) and prints one JSON object: setup_s,
run_s, cpu_s (user + system of the whole process, BLAS and worker threads
included), peak_rss_mb and, when traced, the per-layer aggregates.  With no
cli arguments it only imports ngcorr.cli and prints setup_s.
"""

import json
import os
import resource
import sys
import time


def _cpu():
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def main():
    root, trace_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        sys.exit("usage: child.py ROOT TRACE_JSONL|- -- ARGS...")
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import ngcorr.cli

    setup_s = time.perf_counter() - t0
    if not os.path.abspath(ngcorr.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.exit(f"imported {ngcorr.cli.__file__}, not the checkout's source")
    if not argv:
        print(json.dumps({"setup_s": setup_s}))
        return
    recorder = None
    if trace_path != "-":
        import tracer

        recorder = tracer.Recorder()
        recorder.install()
    c0 = _cpu()
    t1 = time.perf_counter()
    code = ngcorr.cli.main(argv)
    run_s = time.perf_counter() - t1
    cpu_s = _cpu() - c0
    if code:
        sys.exit(f"ngcorr exited with {code}")
    out = {
        "setup_s": setup_s,
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if recorder is not None:
        spans = recorder.spans()
        tracer.write_jsonl(spans, trace_path)
        out["layers"] = {**tracer.aggregate(spans), **tracer.cache_entries()}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
