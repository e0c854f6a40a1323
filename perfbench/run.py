"""Benchmark of fracbinom: three workloads through its public API.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pmf_scan --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-check

Each run starts fresh single-threaded processes, one at a time: several that
only set up (import fracbinom and fracbinom.cli, then one warm-up op), and
one that sets up, runs whole rounds of ops for --seconds, and then checks
their outputs.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics of a traced run with --trace 1.  See
perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pmf_scan", "moment_curves", "mc_marginals")
SETUP_SAMPLES = 5  # set-ups per run, the timed process's own included
RUN_LIMIT_S = 170  # a whole run, all its processes included
# the layer each workload should spend most of its time in (self-check)
MAIN_LAYER = {
    "pmf_scan": "analytics.pmf.self_s",
    "moment_curves": "mittag_leffler.busy_s",
    "mc_marginals": "sampler.ensemble.busy_s",
}


def _env():
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _worker(*args, deadline):
    """Run one worker process to its end and return its JSON result.

    A worker still running at `deadline` (time.monotonic) is killed, and the
    run fails.
    """
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *map(str, args)],
        env=_env(),
        cwd=ROOT,
        stdout=subprocess.PIPE,
        timeout=max(1.0, deadline - time.monotonic()),
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(map(str, args))} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload, seed, seconds, trace):
    deadline = time.monotonic() + RUN_LIMIT_S
    setups = [
        _worker("--workload", workload, "--seed", seed, "--setup-only", deadline=deadline)["setup"]
        for _ in range(SETUP_SAMPLES - 1)
    ]
    args = ["--workload", workload, "--seed", seed, "--seconds", seconds, "--trace", trace]
    if trace:
        out_dir = os.path.join(HERE, "out")
        args += ["--spans", os.path.join(out_dir, f"spans-{workload}-seed{seed}.npz")]
    result = _worker(*args, deadline=deadline)
    setups.append(result["setup"])

    def setup_median(key):
        return statistics.median(s[key] for s in setups)

    lat_ms = [x * 1e3 for x in result["latencies_s"]]
    if trace:
        metrics = {
            "import.package_s": (setup_median("package_s"), "s"),
            "import.cli_s": (setup_median("cli_s"), "s"),
        }
        metrics.update((k, tuple(v)) for k, v in result["layers"].items())
        metrics["trace.ops_per_s"] = (len(lat_ms) / result["wall_s"], "1/s")
    else:
        metrics = {
            "setup_s": (setup_median("setup_s"), "s"),
            "ops_per_s": (len(lat_ms) / result["wall_s"], "1/s"),
            "op_p50_ms": (statistics.median(lat_ms), "ms"),
            "op_p90_ms": (statistics.quantiles(lat_ms, n=10, method="inclusive")[8], "ms"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
    print(
        f"{workload} seed={seed} trace={trace}: {result['rounds']} rounds, "
        f"{result['attempted']} ops attempted, {result['failed']} failed, "
        f"{len(lat_ms)} timed, wall {result['wall_s']:.2f} s",
        file=sys.stderr,
    )
    return {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def self_check():
    """Corrupted outputs must fail the checks; traced runs must see each main layer."""
    ok = True
    for workload in WORKLOADS:
        deadline = time.monotonic() + RUN_LIMIT_S
        clean = _worker("--workload", workload, "--seed", 1, "--trace", 1, deadline=deadline)
        bad = _worker("--workload", workload, "--seed", 1, "--corrupt", deadline=deadline)
        layer = MAIN_LAYER[workload]
        busy = clean["layers"][layer][0] * clean["attempted"]
        share = busy / clean["wall_s"]
        verdicts = [
            ("clean outputs pass the checks", clean["correct"]),
            ("a corrupted output fails the checks", not bad["correct"]),
            (f"traced run records {layer} > 0 ({busy:.3f} s, {share:.0%} of the timed phase)", busy > 0),
        ]
        for text, passed in verdicts:
            print(f"{'PASS' if passed else 'FAIL'} {workload}: {text}")
            ok = ok and passed
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "fracbinom", "__init__.py")):
        print(f"no fracbinom sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    print(json.dumps(measure(args.workload, args.seed, args.seconds, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
