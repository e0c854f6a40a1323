"""One benchmark process: set-up, the timed phase, then the checks.

Started by run.py in a fresh interpreter with src/ on the path.  Prints one
JSON object as its last line of standard output.  Nothing from numpy or
fracbinom is imported before the set-up clock starts.
"""

import argparse
import json
import resource
import sys
import time
import warnings


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--corrupt", action="store_true", help="perturb one output before the checks")
    ap.add_argument("--spans", help="file for the traced run's spans (.npz)")
    args = ap.parse_args()

    t0 = time.perf_counter()
    import fracbinom  # noqa: F401

    t1 = time.perf_counter()
    import fracbinom.cli  # noqa: F401

    t2 = time.perf_counter()
    import workloads

    # pmf warns on every call above N = 60; keep stderr for failed ops and checks
    warnings.simplefilter("ignore")
    workload = workloads.WORKLOADS[args.workload]
    workload.warmup()
    t3 = time.perf_counter()
    setup = {"package_s": t1 - t0, "cli_s": t2 - t1, "setup_s": t3 - t0}
    if args.setup_only:
        print(json.dumps({"setup": setup}))
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    done, latencies, failures = [], [], {}
    attempted = 0
    start = time.perf_counter()
    r = 0
    while True:
        for op in workload.round(args.seed, r):
            if tracer:
                tracer.op = op.index
                tracer.active = True
            began = time.perf_counter()
            try:
                out = workload.run(op)
            except Exception as exc:  # a failed op is counted, and the run goes on
                key = f"{type(exc).__name__}: {exc}"
                failures[key] = failures.get(key, 0) + 1
            else:
                latencies.append(time.perf_counter() - began)
                done.append((op, out))
            finally:
                if tracer:
                    tracer.active = False
            attempted += 1
        r += 1
        if time.perf_counter() - start >= args.seconds:
            break
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = None
    if tracer:
        layers = tracing.layer_metrics(tracer, attempted)
        if args.spans:
            tracer.write(args.spans)

    if args.corrupt:
        workload.corrupt(done)
    problems = workload.check(done, args.seed)
    for line in problems[:20]:
        print("check failed:", line, file=sys.stderr)
    for line, times in failures.items():
        print(f"op failed {times} times:", line, file=sys.stderr)

    print(json.dumps({
        "setup": setup,
        "rounds": r,
        "attempted": attempted,
        "failed": attempted - len(done),
        "latencies_s": latencies,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "correct": not problems,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
