"""The benchmark's workloads: parameter lists, ops, warm-up ops and checks.

One op is one parameter set's complete study.  A run repeats whole rounds of
ops; round r of a run with seed s draws its parameters from the stream
(s, workload, r), so the same seed always gives the same inputs and every
round has the same make-up.  The quantities that set an op's cost (N, and nu
where it matters) take one value in each of equal strata per round, placed
so that a run fills every stratum evenly (see `_strata`): a run then costs
nearly the same on every seed, and op costs still spread continuously.

Functions of fracbinom are called through the package namespace, so the
tracer's wrappers see every call.  Checks run after the timed phase and
compare against `fracbinom.reference` or against properties the process must
have; none compares against stored output.
"""

from __future__ import annotations

import math

import numpy as np

import fracbinom as fb
from fracbinom import reference


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _strata(seed, key, r, count):
    """`count` points in [0, 1), one in each of `count` equal strata.

    Within stratum k, round r sits at (offset_k + r * golden) mod 1, with
    offset_k drawn from the seed: over any run of rounds the points fill each
    stratum evenly (a Kronecker sequence), so what a run costs barely depends
    on the seed.
    """
    offsets = np.random.default_rng([seed, key]).random(count)
    return (np.arange(count) + (offsets + r * _GOLDEN) % 1.0) / count


def _log_strata(u, low, high):
    return low * (high / low) ** u


def _rates(p, total):
    return p * total, (1.0 - p) * total


class Op:
    """One parameter set and what to compute for it."""

    def __init__(self, index, params, **extra):
        self.index = index
        self.params = params
        self.__dict__.update(extra)

    def label(self):
        p = self.params
        return (
            f"op {self.index} (lambda={p.birth_rate:.6g}, mu={p.death_rate:.6g}, "
            f"N={p.ceiling}, M={p.initial}, nu={p.order:.6g})"
        )


# ---------------------------------------------------------------------------
# pmf_scan
# ---------------------------------------------------------------------------


class PmfScan:
    """`pmf` for a new parameter set at one time (cold), then at four more (warm).

    Seeded ops stay inside the envelope where `pmf` works today: the weight
    table's cancellation grows like 10**(1.3 N (M/N - p)**2), so M is drawn
    within 1.2/sqrt(N) of N p, with p = lambda/(lambda+mu) in [0.1, 0.9].
    The failing block holds one op of each fault class named in the README;
    they fail every time today, on inputs that do not depend on the seed.
    """

    name = "pmf_scan"
    key = 1
    seeded = 27
    nu_one = (4, 13, 22)  # strata whose op runs at nu = 1
    # (lambda, mu, N, M, nu, first time); warm times are 0.5, 2, 4, 8 x first
    failing = (
        (1.0, 0.0, 40, 1, 0.8, 0.1),  # pure birth: integer weights cancel
        (1.0, 1e-3, 60, 3, 0.6, 4.0),  # entry of -7e7
        (0.25, 2.5, 80, 67, 0.87, 1.0),  # M near N, p far from 1/2
    )
    failing_at = (5, 15, 25)
    mc_samples = 20_000
    mc_checks = 3  # nu < 1 ops of round 0 checked against the MC oracle

    def round(self, seed, r):
        rng = np.random.default_rng([seed, self.key, r])
        n = self.seeded
        ceilings = np.rint(_log_strata(_strata(seed, self.key, r, n), 10.0, 150.0)).astype(int)
        nus = 0.3 + 0.7 * _strata(seed, self.key + 10, r, n - len(self.nu_one))
        rng.shuffle(nus)
        nus = list(nus)
        ops = []
        for k in rng.permutation(n):
            N = int(ceilings[k])
            p = rng.uniform(0.1, 0.9)
            lam, mu = _rates(p, math.exp(rng.uniform(math.log(0.5), math.log(4.0))))
            delta = rng.uniform(-1.2, 1.2) / math.sqrt(N)
            M = int(min(N, max(1, round(N * (p + delta)))))
            nu = 1.0 if k in self.nu_one else float(nus.pop())
            tau = (lam + mu) ** (-1.0 / nu)
            times = tuple(float(u) * tau for u in np.exp(rng.uniform(math.log(0.05), math.log(20.0), 5)))
            ops.append((fb.ProcessParams(lam, mu, N, M, nu), times))
        for pos, (lam, mu, N, M, nu, t) in zip(self.failing_at, self.failing):
            times = (t, 0.5 * t, 2.0 * t, 4.0 * t, 8.0 * t)
            ops.insert(pos, (fb.ProcessParams(lam, mu, N, M, nu), times))
        return [Op(r * len(ops) + i, params, times=times) for i, (params, times) in enumerate(ops)]

    def run(self, op):
        return [fb.pmf(op.params, t).probs for t in op.times]

    def warmup(self):
        # Its weight table (keyed by lambda, mu, N, M) is not one of a timed op's.
        self.run(Op(-1, fb.ProcessParams(0.9, 1.1, 24, 11, 0.75), times=(0.5, 0.25, 1.0, 2.0, 4.0)))

    def check(self, done, seed):
        problems = []
        mc_left = self.mc_checks
        for op, out in done:
            params = op.params
            n = np.arange(params.ceiling + 1)
            for t, probs in zip(op.times, out):
                where = f"{op.label()} at t={t:.6g}"
                if probs.min() < 0.0 or abs(probs.sum() - 1.0) > 1e-12:
                    problems.append(f"{where}: not a distribution (min {probs.min():.3g}, sum {probs.sum()!r})")
                m = float(probs @ n)
                v = float(probs @ (n * n)) - m * m
                m_ref, v_ref = fb.mean(params, t), fb.variance(params, t)
                if abs(m - m_ref) > 1e-9 * (1 + params.ceiling):
                    problems.append(f"{where}: mean {m!r} != closed form {m_ref!r}")
                if abs(v - v_ref) > 1e-9 * (1 + params.ceiling) ** 2:
                    problems.append(f"{where}: variance {v!r} != closed form {v_ref!r}")
                if params.order == 1.0:
                    # the default route for N > 64 (DOP853) can return entries below
                    # its own -1e-12 floor and raise; the matrix exponential does not
                    ref = reference.master_equation_classical(params, t, method="expm").probs
                    err = np.abs(probs - ref).max()
                    if err > 1e-9:
                        problems.append(f"{where}: differs from the classical master equation by {err:.3g}")
            if mc_left and params.order < 1.0 and params.ceiling <= 60:
                mc_left -= 1
                t = op.times[0]
                mc = reference.subordination_pmf_mc(params, t, self.mc_samples, seed=seed)
                z = np.abs(out[0] - mc.probs) - 6.0 * mc.se
                if z.max() > 1e-10:
                    problems.append(f"{op.label()} at t={t:.6g}: differs from subordination MC by more than 6 se")
        if mc_left:
            problems.append(f"only {self.mc_checks - mc_left} ops were checked against subordination MC")
        return problems

    def corrupt(self, done):
        # Move 1e-4 of probability to the next state: the sum stays 1, the mean moves.
        op, out = done[0]
        probs = np.array(out[0])
        k = int(np.argmax(probs[:-1]))
        probs[k] -= 1e-4
        probs[k + 1] += 1e-4
        out[0] = probs


# ---------------------------------------------------------------------------
# moment_curves
# ---------------------------------------------------------------------------


class MomentCurves:
    """`mean`, `variance` and `second_factorial_moment` on a long log grid, and
    `extinction_probability` on a coarse one, for one parameter set.

    Grids are in units of the relaxation time tau = (lambda+mu)**(-1/nu), so
    every op puts its arguments u = |z|**(1/nu) in the same Mittag-Leffler
    bands; nu is stratified over (0.05, 1), and two ops per round run at nu = 1.
    """

    name = "moment_curves"
    key = 2
    size = 20
    nu_one = (3, 13)
    grid_u = np.logspace(-2.0, 3.0, 160)
    extinction_u = np.logspace(-1.0, 2.0, 8)
    ml_checks = 2  # sampled arguments per op of round 0, against the extended-precision series

    def round(self, seed, r):
        rng = np.random.default_rng([seed, self.key, r])
        n = self.size
        ceilings = np.rint(_log_strata(_strata(seed, self.key, r, n), 10.0, 150.0)).astype(int)
        nus = 0.05 + 0.95 * _strata(seed, self.key + 10, r, n - len(self.nu_one))
        rng.shuffle(nus)
        nus = list(nus)
        ops = []
        for i, k in enumerate(rng.permutation(n)):
            N = int(ceilings[k])
            p = rng.uniform(0.05, 0.95)
            lam, mu = _rates(p, math.exp(rng.uniform(math.log(0.5), math.log(4.0))))
            M = int(rng.integers(1, N + 1))
            nu = 1.0 if k in self.nu_one else float(nus.pop())
            tau = (lam + mu) ** (-1.0 / nu)
            ops.append(Op(r * n + i, fb.ProcessParams(lam, mu, N, M, nu), tau=tau))
        return ops

    def run(self, op):
        params = op.params
        ts = self.grid_u * op.tau
        curves = np.array(
            [
                (fb.mean(params, t), fb.variance(params, t), fb.second_factorial_moment(params, t))
                for t in ts
            ]
        )
        extinction = np.array(
            [fb.extinction_probability(params, t) for t in self.extinction_u * op.tau]
        )
        return {"mean": curves[:, 0], "variance": curves[:, 1], "sfm": curves[:, 2], "extinction": extinction}

    def warmup(self):
        params = fb.ProcessParams(1.0, 1.0, 20, 7, 0.6)
        self.run(Op(-1, params, tau=2.0 ** (-1.0 / 0.6)))

    def check(self, done, seed):
        problems = []
        rng = np.random.default_rng([seed, self.key, 1 << 20])
        for op, out in done:
            params = op.params
            N, M = params.ceiling, params.initial
            target = N * fb.equilibrium_p(params)
            ts = self.grid_u * op.tau
            low, high = min(M, target), max(M, target)
            slack = 1e-12 * (1 + N)
            if np.any(out["mean"] < low - slack) or np.any(out["mean"] > high + slack):
                problems.append(f"{op.label()}: mean leaves [{low:.6g}, {high:.6g}]")
            if np.any(out["variance"] < -1e-12 * (1 + N) ** 2):
                problems.append(f"{op.label()}: negative variance {out['variance'].min():.3g}")
            if np.any(out["extinction"] < 0.0) or np.any(out["extinction"] > 1.0):
                problems.append(f"{op.label()}: extinction probability outside [0, 1]")
            if params.order == 1.0:
                n = np.arange(N + 1)
                for j in range(0, len(ts), 20):
                    probs = reference.master_equation_classical(params, ts[j], method="expm").probs
                    ref_mean = probs @ n
                    ref_sfm = probs @ (n * (n - 1.0))
                    for name, got, ref, tol in (
                        ("mean", out["mean"][j], ref_mean, 1e-9 * (1 + N)),
                        ("second factorial moment", out["sfm"][j], ref_sfm, 1e-9 * (1 + N) ** 2),
                        ("variance", out["variance"][j], ref_sfm + ref_mean - ref_mean**2, 1e-9 * (1 + N) ** 2),
                    ):
                        if abs(got - ref) > tol:
                            problems.append(f"{op.label()} at t={ts[j]:.6g}: {name} differs from the classical master equation by {abs(got - ref):.3g}")
            if op.index < self.size:
                for j in rng.choice(len(ts), self.ml_checks, replace=False):
                    t = ts[j]
                    # a mean point, and a relaxation argument of the extinction sum
                    k = int(rng.integers(1, N + 1))
                    z1 = -params.total_rate * t**params.order
                    zk = -k * params.total_rate * t**params.order
                    e1 = reference.ml_series_highprec(params.order, 1.0, z1)
                    ek = reference.ml_series_highprec(params.order, 1.0, zk)
                    got_mean, ref_mean = float(out["mean"][j]), (M - target) * e1 + target
                    if abs(got_mean - ref_mean) > 1e-10 * (1 + abs(M - target)):
                        problems.append(f"{op.label()} at t={t:.6g}: mean {got_mean!r} != {ref_mean!r} from the extended-precision series")
                    for z, ref in ((z1, e1), (zk, ek)):
                        got = fb.ml(params.order, 1.0, z)
                        if abs(got - ref) > 1e-10:
                            problems.append(f"ml({params.order!r}, 1, {z!r}) = {got!r}, extended-precision series {ref!r}")
        return problems

    def corrupt(self, done):
        # A relative change of 1e-6 in the mean curve of an op the sampled check covers.
        op, out = done[0]
        out["mean"] = out["mean"] * (1.0 + 1e-6)


# ---------------------------------------------------------------------------
# mc_marginals
# ---------------------------------------------------------------------------


class McMarginals:
    """`ensemble` on a three-point grid, then a batch of `fractional_path`
    trajectories, for one parameter set.

    Times are 0.3, 1 and 3 relaxation times tau = (lambda+mu)**(-1/nu); N is
    stratified over [10, 100] and nu over [0.3, 0.95].
    """

    name = "mc_marginals"
    key = 3
    size = 20
    grid_u = np.array([0.3, 1.0, 3.0])
    n_paths = 1024
    trajectories = 16
    horizon_u = 3.0

    def round(self, seed, r):
        rng = np.random.default_rng([seed, self.key, r])
        n = self.size
        ceilings = np.rint(_log_strata(_strata(seed, self.key, r, n), 10.0, 100.0)).astype(int)
        nus = 0.3 + 0.65 * _strata(seed, self.key + 10, r, n)
        rng.shuffle(nus)
        ops = []
        for i, k in enumerate(rng.permutation(n)):
            N = int(ceilings[k])
            p = rng.uniform(0.1, 0.9)
            lam, mu = _rates(p, math.exp(rng.uniform(math.log(0.5), math.log(4.0))))
            M = int(rng.integers(1, N + 1))
            nu = float(nus[k])
            tau = (lam + mu) ** (-1.0 / nu)
            ops.append(
                Op(r * n + i, fb.ProcessParams(lam, mu, N, M, nu), tau=tau, seed=int(rng.integers(1 << 62)))
            )
        return ops

    def run(self, op):
        stats = fb.ensemble(op.params, self.grid_u * op.tau, self.n_paths, op.seed)
        rng = np.random.default_rng(op.seed)
        # keep what the check needs of each path, so memory does not grow with the run
        ranges = []
        for _ in range(self.trajectories):
            states = fb.fractional_path(op.params, self.horizon_u * op.tau, rng=rng).states
            ranges.append((states[0], states.min(), states.max()))
        return {"stats": stats, "paths": ranges}

    def warmup(self):
        params = fb.ProcessParams(1.0, 1.0, 20, 7, 0.6)
        self.run(Op(-1, params, tau=2.0 ** (-1.0 / 0.6), seed=12345))

    def check(self, done, seed):
        problems = []
        for op, out in done:
            params, stats = op.params, out["stats"]
            N = params.ceiling
            for t, m_est, v_est in zip(stats.t_grid, stats.mean_est, stats.var_est):
                m, v = fb.mean(params, t), fb.variance(params, t)
                se = math.sqrt(v / stats.n_paths)
                # a run makes thousands of these comparisons: at 6 se a false alarm
                # is a chance of about 1e-5 per run, at 5 se a few per thousand runs
                if abs(m_est - m) > 6.0 * se:
                    problems.append(f"{op.label()} at t={t:.6g}: ensemble mean {m_est:.6g} is {abs(m_est - m) / se:.1f} se from {m:.6g}")
                # sd of a sample variance <= D sigma / sqrt(n) when |X - m| <= D
                bound = 5.0 * max(m, N - m) * se
                if abs(v_est - v) > bound:
                    problems.append(f"{op.label()} at t={t:.6g}: ensemble variance {v_est:.6g} differs from {v:.6g} by more than {bound:.3g}")
            for first, low, high in out["paths"]:
                if low < 0 or high > N or first != params.initial:
                    problems.append(f"{op.label()}: a path leaves [0, {N}] or does not start at M")
        return problems

    def corrupt(self, done):
        # Shift one ensemble mean by 12 standard errors.
        op, out = done[0]
        stats = out["stats"]
        v = fb.variance(op.params, stats.t_grid[0])
        mean_est = stats.mean_est.copy()
        mean_est[0] += 12.0 * math.sqrt(v / stats.n_paths)
        out["stats"] = type(stats)(stats.t_grid, mean_est, stats.var_est, stats.se_mean, stats.n_paths)


WORKLOADS = {w.name: w for w in (PmfScan(), MomentCurves(), McMarginals())}
