"""Command-line front end.

Subcommands compute moment tables, state probabilities, extinction curves,
equilibrium distributions, sample paths, ensemble statistics, and run the
oracle cross-validation suite.  Output is CSV (default) or JSON lines, to
stdout or --out.  Every subcommand is a pure function of its flags and seed;
the seed is taken from --seed, else the FRACBIN_SEED environment variable,
else generated and printed to stderr.

Exit codes: 0 ok, 2 configuration error, 3 numerical-accuracy error,
4 validation failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

import numpy as np

from . import analytics, reference, sampler
from .analytics import AccuracyError
from .mittag_leffler import ConvergenceError, ml_one
from .model import ProcessParams, _check_time

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ACCURACY = 3
EXIT_VALIDATION = 4

SEED_ENV_VAR = "FRACBIN_SEED"


def parse_t_grid(spec: str) -> np.ndarray:
    """Parse 'start:stop:count' (linear) or 'log:start:stop:count'."""
    parts = spec.split(":")
    try:
        if parts[0] == "log":
            if len(parts) != 4:
                raise ValueError
            start, stop, count = _check_time(parts[1]), _check_time(parts[2]), int(parts[3])
            if start <= 0 or stop <= start or count < 2:
                raise ValueError
            return np.geomspace(start, stop, count)
        if len(parts) != 3:
            raise ValueError
        start, stop, count = _check_time(parts[0]), _check_time(parts[1]), int(parts[2])
        if stop <= start or count < 2:
            raise ValueError
        return np.linspace(start, stop, count)
    except (ValueError, IndexError):
        raise ValueError(
            f"bad t-grid {spec!r}: expected start:stop:count or log:start:stop:count"
        ) from None


def _params_from(args) -> ProcessParams:
    return ProcessParams(
        birth_rate=args.birth_rate,
        death_rate=args.death_rate,
        ceiling=args.ceiling,
        initial=args.initial,
        order=args.order,
    )


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None
    seed = int.from_bytes(os.urandom(8), "big")
    print(f"seed: {seed}", file=sys.stderr)
    return seed


def _emit(rows, header, args):
    """Write rows as CSV or JSON lines.  Floats use shortest repr, so equal
    inputs produce byte-identical output."""
    buf = io.StringIO()
    if args.format == "json":
        for row in rows:
            buf.write(json.dumps(dict(zip(header, row))) + "\n")
    else:
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    data = buf.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(data)
    else:
        sys.stdout.write(data)


def cmd_moments(args) -> int:
    params = _params_from(args)
    grid = parse_t_grid(args.t_grid)
    rows = []
    for t in grid:
        t = float(t)
        rows.append(
            (
                t,
                analytics.mean(params, t),
                analytics.variance(params, t),
                analytics.second_factorial_moment(params, t),
            )
        )
    _emit(rows, ["t", "mean", "variance", "second_factorial_moment"], args)
    return EXIT_OK


def cmd_pmf(args) -> int:
    params = _params_from(args)
    times = [args.t] if args.t is not None else list(parse_t_grid(args.t_grid))
    rows = []
    for t in times:
        dist = analytics.pmf(params, float(t))
        for n, p in enumerate(dist.probs):
            rows.append((float(t), n, float(p)))
    _emit(rows, ["t", "n", "p"], args)
    return EXIT_OK


def cmd_extinct(args) -> int:
    params = _params_from(args)
    grid = parse_t_grid(args.t_grid)
    rows = [(float(t), analytics.extinction_probability(params, float(t))) for t in grid]
    _emit(rows, ["t", "p0"], args)
    return EXIT_OK


def cmd_equilibrium(args) -> int:
    params = _params_from(args)
    dist = analytics.equilibrium_pmf(params)
    rows = [(n, float(p)) for n, p in enumerate(dist.probs)]
    _emit(rows, ["n", "p"], args)
    return EXIT_OK


def cmd_simulate(args) -> int:
    params = _params_from(args)
    seed = _resolve_seed(args)
    rng = np.random.default_rng(seed)
    rows = []
    for path_id in range(args.paths):
        path = sampler.fractional_path(params, args.horizon, rng=rng)
        for t, state in zip(path.times, path.states):
            rows.append((path_id, float(t), int(state)))
    _emit(rows, ["path_id", "t", "state"], args)
    return EXIT_OK


def cmd_ensemble(args) -> int:
    params = _params_from(args)
    seed = _resolve_seed(args)
    grid = parse_t_grid(args.t_grid)
    stats = sampler.ensemble(params, grid, args.paths, seed)
    rows = [
        (float(t), float(m), float(v), float(se))
        for t, m, v, se in zip(stats.t_grid, stats.mean_est, stats.var_est, stats.se_mean)
    ]
    _emit(rows, ["t", "mean_est", "var_est", "se_mean"], args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def _validation_checks(suite: str):
    """Yield (name, callable) pairs; each callable returns (ok, detail)."""

    def ml_vs_series():
        worst = 0.0
        for alpha in (0.3, 0.7, 1.0):
            for z in (-0.5, -4.0, -12.0, -60.0):
                got = ml_one(alpha, z)
                want = reference.ml_series_highprec(alpha, 1.0, z, digits=20)
                worst = max(worst, abs(got - want))
        return worst <= 1e-10, f"max |ml - series| = {worst:.2e}"

    def classical_pmf_vs_ode():
        params = ProcessParams(1, 2, 12, 5, 1.0)
        worst = 0.0
        for t in (0.25, 1.0, 4.0):
            dist = analytics.pmf(params, t)
            ode = reference.master_equation_classical(params, t)
            worst = max(worst, float(np.abs(dist.probs - ode.probs).max()))
        return worst <= 1e-6, f"max entry diff = {worst:.2e}"

    def extinction_matches_pmf():
        params = ProcessParams(1, 2, 10, 4, 0.8)
        worst = 0.0
        for t in (0.5, 2.0, 10.0):
            dist = analytics.pmf(params, t)
            p0 = analytics.extinction_probability(params, t)
            worst = max(worst, abs(float(dist.probs[0]) - p0))
        return worst <= 1e-9, f"max |pmf[0] - extinction| = {worst:.2e}"

    def equilibrium_approach():
        params = ProcessParams(1, 1, 30, 10, 0.6)
        eq = analytics.equilibrium_pmf(params).probs
        dists = [
            float(np.abs(analytics.pmf(params, t).probs - eq).max())
            for t in (10.0, 1e3, 1e5)
        ]
        ok = dists[0] > dists[1] > dists[2]
        return ok, f"sup distances {dists[0]:.2e} > {dists[1]:.2e} > {dists[2]:.2e}"

    yield "mittag_leffler_vs_highprec_series", ml_vs_series
    yield "classical_pmf_vs_master_equation", classical_pmf_vs_ode
    yield "extinction_consistency", extinction_matches_pmf
    yield "equilibrium_monotone_approach", equilibrium_approach

    if suite == "full":

        def subordination_cross_check():
            params = ProcessParams(1, 2, 12, 5, 0.7)
            t = 1.0
            mc = reference.subordination_pmf_mc(params, t, 20_000, seed=20260810)
            dist = analytics.pmf(params, t)
            resid = np.abs(dist.probs - mc.probs) / np.maximum(mc.se, 1e-12)
            return float(resid.max()) <= 5.0, f"max |diff|/se = {resid.max():.2f}"

        def mc_mean_vs_formula():
            params = ProcessParams(1, 1, 40, 10, 0.8)
            stats = sampler.ensemble(params, [0.5, 2.0], 4000, seed=77)
            worst = 0.0
            for t, m, se in zip(stats.t_grid, stats.mean_est, stats.se_mean):
                worst = max(worst, abs(m - analytics.mean(params, float(t))) / se)
            return worst <= 5.0, f"max |diff|/se = {worst:.2f}"

        yield "subordination_mc_vs_state_formula", subordination_cross_check
        yield "ensemble_mean_vs_formula", mc_mean_vs_formula


def cmd_validate(args) -> int:
    failures = 0
    for name, check in _validation_checks(args.suite):
        try:
            ok, detail = check()
        except Exception as exc:  # pragma: no cover - defensive
            ok, detail = False, f"raised {exc!r}"
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failures += 0 if ok else 1
    print(f"{failures} failure(s)")
    return EXIT_OK if failures == 0 else EXIT_VALIDATION


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_model_args(p: argparse.ArgumentParser):
    p.add_argument("--lambda", dest="birth_rate", type=float, required=True,
                   help="birth-rate coefficient (per vacancy)")
    p.add_argument("--mu", dest="death_rate", type=float, required=True,
                   help="death-rate coefficient (per individual)")
    p.add_argument("--N", dest="ceiling", type=int, required=True,
                   help="population ceiling")
    p.add_argument("--M", dest="initial", type=int, required=True,
                   help="initial population")
    p.add_argument("--nu", dest="order", type=float, default=1.0,
                   help="fractional order in (0, 1] (default 1)")


def _add_output_args(p: argparse.ArgumentParser):
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="output file (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracbin",
        description="Fractional binomial process: tables, simulation, validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moments", help="mean/variance table over a time grid")
    _add_model_args(p)
    p.add_argument("--t-grid", required=True, help="start:stop:count or log:start:stop:count")
    _add_output_args(p)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("pmf", help="state probabilities at one or more times")
    _add_model_args(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--t", type=float, help="single evaluation time")
    group.add_argument("--t-grid", help="start:stop:count or log:start:stop:count")
    _add_output_args(p)
    p.set_defaults(func=cmd_pmf)

    p = sub.add_parser("extinct", help="extinction probability over a time grid")
    _add_model_args(p)
    p.add_argument("--t-grid", required=True)
    _add_output_args(p)
    p.set_defaults(func=cmd_extinct)

    p = sub.add_parser("equilibrium", help="long-run binomial distribution")
    _add_model_args(p)
    _add_output_args(p)
    p.set_defaults(func=cmd_equilibrium)

    p = sub.add_parser("simulate", help="sample paths as jump records")
    _add_model_args(p)
    p.add_argument("--horizon", type=float, required=True, help="real-time horizon")
    p.add_argument("--paths", type=int, default=1)
    p.add_argument("--seed", type=int, default=None)
    _add_output_args(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("ensemble", help="Monte Carlo marginal statistics")
    _add_model_args(p)
    p.add_argument("--t-grid", required=True)
    p.add_argument("--paths", type=int, default=1000)
    p.add_argument("--seed", type=int, default=None)
    _add_output_args(p)
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("validate", help="run oracle cross-checks")
    p.add_argument("--suite", choices=("quick", "full"), default="full",
                   help="quick skips the Monte Carlo checks")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (AccuracyError, ConvergenceError, ArithmeticError) as exc:
        print(f"accuracy error: {exc}", file=sys.stderr)
        return EXIT_ACCURACY


if __name__ == "__main__":
    sys.exit(main())
