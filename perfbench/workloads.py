"""Inputs, jobs and correctness checks of the three benchmark workloads.

Each workload makes its inputs from the workload seed alone and hands the
package only those inputs: model matrices or a model JSON file, a grid
string and per-job seeds.  ``job`` is the timed part and calls the package
only through attributes resolved at call time (``vfbm.sample_paths``,
``vfbm.cli.main``), so the traced run sees every call.  ``check`` runs
after the timer stops and returns the work done and a list of failures.

All models come from mixing matrices, so every grid covariance is positive
semidefinite by construction, and each has a critical pair
(H_i + H_j = 1), so the x log|x| forms run.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
from pathlib import Path

import numpy as np

import vfbm
import vfbm.cli

# Per-job chance of a false alarm of the statistical checks.  Each check
# compares m estimates with Bonferroni-corrected two-sided normal bounds.
FALSE_ALARM = 1e-6


def family_z(m: int) -> float:
    """Normal quantile whose two-sided tail, summed over m tests, is FALSE_ALARM."""
    return statistics.NormalDist().inv_cdf(1.0 - FALSE_ALARM / (2.0 * m))


def _mixing(rng: np.random.Generator, hurst) -> vfbm.MixingMatrices:
    """Mixing matrices with A- != 0 and no degenerate component."""
    h = vfbm.validate_hurst(hurst)
    while True:
        m = vfbm.MixingMatrices(
            a_plus=rng.normal(size=(h.p, h.p)), a_minus=0.5 * rng.normal(size=(h.p, h.p)), hurst=h
        )
        try:
            for i in range(1, h.p + 1):
                vfbm.sigma_from_mixing(m, i)
        except vfbm.errors.DegenerateComponentError:
            continue
        return m


def _job_seed(seed: int, k: int) -> int:
    return int(np.random.SeedSequence([seed, k]).generate_state(1, dtype=np.uint64)[0])


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """``vfbm.cli.main`` in this process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = vfbm.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


class Workload:
    name = ""
    unit = ""

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny
        self.cli_bytes = 0  # bytes the CLI wrote to files and stdout

    def setup(self) -> None:
        """Make the inputs, then load and validate the model."""

    def job(self, k: int):
        raise NotImplementedError

    def check(self, k: int, raw) -> tuple[int, list[str]]:
        raise NotImplementedError

    def finish(self) -> list[str]:
        """Checks over the whole run; failures make the run incorrect."""
        return []


class ManyPaths(Workload):
    """Python API: many exact paths on a short irregular grid.

    Per-replication RNG streams and the ``z @ L.T`` product do almost all the
    work; at dimension 24 assembly and factorization are negligible.  The
    grid is irregular, so a circulant-embedding fast path must not fire.
    """

    name = "many-paths"
    unit = "paths"
    HURST = (0.3, 0.7, 0.6)
    TIMES = (0.0, 0.5, 1.0, 1.5, 2.5, 4.0, 6.5, 10.0)

    def setup(self):
        self.n = 2_000 if self.tiny else 50_000
        mixing = _mixing(np.random.default_rng(self.seed), self.HURST)
        self.model = vfbm.ensure_valid(vfbm.coeffs_from_mixing(mixing))
        self.grid = vfbm.TimeGrid(self.TIMES)
        self.reference = vfbm.cov_matrix(self.model, self.grid).entries
        dim = self.reference.shape[0]
        self.z = family_z(dim * (dim + 1) // 2)

    def job(self, k):
        ens = vfbm.sample_paths(self.model, self.grid, self.n, _job_seed(self.seed, k))
        return ens, vfbm.empirical_cov(ens)

    def check(self, k, raw):
        ens, emp = raw
        if ens.paths.shape != (self.n, len(self.TIMES), len(self.HURST)):
            return 0, [f"paths shape {ens.paths.shape}"]
        failures = []
        if np.any(ens.paths[:, 0, :] != 0.0):
            failures.append("a t = 0 value is not exactly 0")
        excess = np.abs(emp.cov - self.reference) - self.z * emp.se
        if not np.all(excess <= 0.0):
            worst = np.unravel_index(np.argmax(excess), excess.shape)
            failures.append(f"empirical_cov entry {tuple(map(int, worst))} outside {self.z:.2f} SE of cov_matrix")
        return self.n, failures


class LongGrid(Workload):
    """CLI ``simulate``: few paths on a long equispaced grid, CSV output.

    ``cov_matrix`` (block fill and the lambda_min eigvalsh), ``cholesky_psd``
    and CSV formatting dominate; only a few hundred RNG streams are built.
    This is where circulant embedding for regular grids must show.
    """

    name = "long-grid"
    unit = "paths"
    HURST = (0.35, 0.65)
    T_END = 10.0

    def setup(self):
        self.n = 20 if self.tiny else 150
        self.times = np.linspace(0.0, self.T_END, 50 if self.tiny else 700)
        self.grid_text = ",".join(repr(float(t)) for t in self.times)
        self.model_path = self.workdir / "model.json"
        mixing = _mixing(np.random.default_rng(self.seed), self.HURST)
        self.model_path.write_text(json.dumps(
            {"hurst": list(self.HURST), "a_plus": mixing.a_plus.tolist(), "a_minus": mixing.a_minus.tolist()}
        ))
        self.out_path = self.workdir / "paths.csv"
        model = vfbm.ensure_valid(vfbm.load_model(self.model_path))
        p = len(self.HURST)
        self.var_T = np.array([vfbm.cov_pair(model, i, i, self.T_END, self.T_END) for i in range(1, p + 1)])
        self.at_T: list[np.ndarray] = []  # X_i(T) of every correct job, pooled for finish()

    def job(self, k):
        return run_cli(
            ["simulate", "--model", str(self.model_path), "--grid", self.grid_text,
             "--n", str(self.n), "--seed", str(_job_seed(self.seed, k)), "--out", str(self.out_path)]
        )

    def check(self, k, raw):
        rc, out, err = raw
        if rc != 0:
            return 0, [f"exit code {rc}: {err.strip()}"]
        self.cli_bytes += self.out_path.stat().st_size + len(out.encode())
        nt, p = self.times.size, len(self.HURST)
        with open(self.out_path, "rb") as fh:
            header = fh.readline()
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        failures = []
        if header.strip() != b"rep,time,component,value" or data.shape != (self.n * nt * p, 4):
            return 0, [f"CSV has header {header!r} and shape {data.shape}, expected {self.n * nt * p} rows"]
        cols = data.reshape(self.n, nt, p, 4)
        if not (np.array_equal(cols[..., 0], np.broadcast_to(np.arange(self.n)[:, None, None], (self.n, nt, p)))
                and np.array_equal(cols[..., 1], np.broadcast_to(self.times[None, :, None], (self.n, nt, p)))
                and np.array_equal(cols[..., 2], np.broadcast_to(np.arange(1, p + 1), (self.n, nt, p)))):
            failures.append("CSV rep/time/component columns out of order")
        values = cols[..., 3]
        if not np.all(np.isfinite(values)):
            failures.append("non-finite value in CSV")
        if np.any(values[:, 0, :] != 0.0):
            failures.append("a t = 0 value is not exactly 0")
        if not failures:
            self.at_T.append(values[:, -1, :].copy())
        return self.n, failures

    def finish(self):
        if not self.at_T:
            return ["no correct job to pool X(T) over"]
        x = np.concatenate(self.at_T)
        n = x.shape[0]
        # X_i(T) has mean 0, so E X^2 estimates the variance with SE from E X^4
        second = np.mean(x**2, axis=0)
        se = np.sqrt(np.maximum(np.mean(x**4, axis=0) - second**2, 0.0) / n)
        z = family_z(x.shape[1])
        bad = np.abs(second - self.var_T) > z * se
        if np.any(bad):
            i = int(np.argmax(bad))
            return [f"pooled var X_{i + 1}(T) = {second[i]:.6g} over {n} paths, "
                    f"cov_pair gives {self.var_T[i]:.6g} (bound {z:.2f} SE = {z * se[i]:.3g})"]
        return []


class OracleChecks(Workload):
    """CLI ``verify --suite all``, then the Monte Carlo integral oracle.

    The only workload that calls the covariance layer pointwise (tens of
    thousands of scalar ``cov_pair`` calls per job); it also runs the kernel,
    representation and special-function layers.  The MC oracle uses the RNG
    and ``kernel_factor`` differently from path sampling.

    The MC oracle is called through the Python API in the discretization of
    acceptance criterion 7 (grid step 0.05), not through ``verify --suite
    mc``: that suite's grid step 0.1 leaves a variance deficit of about 2.7
    SE at its 20k replications, so its 4 SE check fails on some seeds (one
    in 13 tried).  At step 0.05 and 5k replications the deficit is under
    1 SE.
    """

    name = "oracle-checks"
    unit = "checks"
    ALL_SEEDS_PER_JOB = 2
    MC_HURST = (0.3, 0.7)
    MC_A_PLUS = ((1.0, 0.5), (0.0, 1.0))
    MC_TIMES = (0.5, 1.0, 2.0)
    MC_STEP = 0.05
    MC_TRUNC = 120.0

    def setup(self):
        # verify runs at consecutive seeds from a base drawn from the workload seed
        self.base = int(np.random.default_rng(self.seed).integers(0, 2**31 - 2**20))
        self.mc_reps = 200 if self.tiny else 5_000
        p = len(self.MC_HURST)
        self.mixing = vfbm.MixingMatrices(
            a_plus=np.array(self.MC_A_PLUS), a_minus=np.zeros((p, p)), hurst=vfbm.validate_hurst(self.MC_HURST)
        )
        self.mc_grid = vfbm.TimeGrid(self.MC_TIMES)
        model = vfbm.ensure_valid(vfbm.coeffs_from_mixing(self.mixing))
        self.analytic = vfbm.cov_matrix(model, self.mc_grid).entries
        dim = self.analytic.shape[0]
        self.mc_z = family_z(dim * (dim + 1) // 2)
        # verify's allowance for the discretization: 2% of the largest entry
        self.mc_floor = 0.02 * float(np.max(np.abs(self.analytic)))

    def job(self, k):
        first = self.base + k * self.ALL_SEEDS_PER_JOB
        reports = [run_cli(["verify", "--suite", "all", "--seed", str(s)])
                   for s in range(first, first + self.ALL_SEEDS_PER_JOB)]
        cfg = vfbm.McConfig(n_reps=self.mc_reps, grid_step=self.MC_STEP, trunc=self.MC_TRUNC,
                            seed=_job_seed(self.seed, k))
        return reports, vfbm.mc_integral_oracle(self.mixing, self.mc_grid, cfg)

    def check(self, k, raw):
        reports, table = raw
        checks, failures = 0, []
        for rc, out, err in reports:
            self.cli_bytes += len(out.encode())
            if rc != 0:
                failures.append(f"verify exit code {rc}: {err.strip() or out.strip()[-300:]}")
                continue
            results = json.loads(out)["results"]
            checks += len(results)
            failures += [f"{r['check']} failed: {r['statistic']!r} > {r['tolerance']!r}"
                         for r in results if not r["pass"]]
        allowance = np.maximum(self.mc_z * table.se, self.mc_floor)
        ratio = np.abs(table.cov - self.analytic) / allowance
        if not (table.n_reps == self.mc_reps and np.all(np.isfinite(ratio)) and np.max(ratio) <= 1.0):
            failures.append(f"MC table off cov_matrix by {float(np.max(ratio)):.3g} x max({self.mc_z:.2f} SE, 2%)")
        return checks + 1, failures


WORKLOADS = {w.name: w for w in (ManyPaths, LongGrid, OracleChecks)}

