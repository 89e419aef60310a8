"""Outside-in tracing of the vfbm package for the benchmark's traced run.

``Tracer.install`` replaces every public function of each layer module (a
module-level function whose name has no leading underscore) by a wrapper,
at every place a caller resolves it: the package namespace (``vfbm.X``),
each layer module's namespace (``vfbm.simulate.cov_matrix``,
``vfbm.covariance.cov_pair``, ...) and module-level registries such as
``vfbm.verify.SUITES``.  Calls the package makes through a function-local
``from .module import name`` resolve the module attribute at call time, so
they are traced as well.  Private helpers are not wrapped; their time is
self time of the public function that called them.

Each wrapped call appends one span (name, start, end, parent, job id) to
flat in-memory arrays.  Self time is a span's duration minus the part its
direct children cover; calls are strictly nested on one thread, so that
part is the sum of the children's durations.  ``uninstall`` restores every
replaced attribute.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import gzip
import importlib
import inspect
import json
import time
from array import array
from pathlib import Path

import numpy as np

# Layer name -> module of the package (``errors`` does no work of its own and
# is counted through ``errors.raised``).
LAYERS = ("cli", "model", "representation", "covariance", "kernels", "special", "simulate", "verify")

JOB = "job"  # root span of one benchmark job; its self time is the benchmark's own


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_cov_pair(tr, args, kwargs, result):
    s = np.asarray(_arg(args, kwargs, 3, "s"))
    t = np.asarray(_arg(args, kwargs, 4, "t"))
    tr.counts["covariance.cov_pair.points"] += np.broadcast(s, t).size


def _count_kernel_factor(tr, args, kwargs, result):
    points = np.size(_arg(args, kwargs, 3, "x"))
    tr.counts["kernels.kernel_factor.points"] += points
    if tr.active["kernels.quadrature_kernel_oracle"]:
        tr.counts["kernels.quadrature.points"] += points


def _count_quadrature(tr, args, kwargs, result):
    tr.counts["kernels.quadrature.max_evals"] += (
        args[7] if len(args) > 7 else kwargs.get("max_evals", tr.quadrature_default_evals)
    )


def _count_cov_matrix(tr, args, kwargs, result):
    tr.counts["covariance.cov_matrix.dim_total"] += result.dim


def _count_cholesky(tr, args, kwargs, result):
    tr.counts["simulate.cholesky_psd.dim_total"] += result.shape[0]
    tr.counts["simulate.cholesky_psd.zero_pivots"] += int(np.count_nonzero(np.diagonal(result) == 0.0))


def _count_sample_paths(tr, args, kwargs, result):
    tr.counts["simulate.normals"] += result.paths.size


def _count_mc(tr, args, kwargs, result):
    tr.counts["simulate.mc.reps"] += _arg(args, kwargs, 2, "cfg").n_reps


def _count_run_suite(tr, args, kwargs, result):
    tr.counts["verify.records"] += len(result["results"])
    tr.counts["verify.passed"] += sum(1 for r in result["results"] if r["pass"])


# Counters taken from a call's arguments or result, only on the outermost
# call of a recursion (cov_pair re-enters itself for i > j).
_HOOKS = {
    "covariance.cov_pair": _count_cov_pair,
    "covariance.cov_matrix": _count_cov_matrix,
    "kernels.kernel_factor": _count_kernel_factor,
    "kernels.quadrature_kernel_oracle": _count_quadrature,
    "simulate.cholesky_psd": _count_cholesky,
    "simulate.sample_paths": _count_sample_paths,
    "simulate.mc_integral_oracle": _count_mc,
    "verify.run_suite": _count_run_suite,
}


class Tracer:
    """Spans and counters of the package's public calls, kept in memory."""

    def __init__(self, package):
        self._package = package
        self._modules = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS}
        self._error_base = importlib.import_module(f"{package.__name__}.errors").VfbmError
        self.quadrature_default_evals = (
            inspect.signature(self._modules["kernels"].quadrature_kernel_oracle).parameters["max_evals"].default
        )
        self.names: list[str] = [JOB]
        self._ids = {JOB: 0}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job_of = array("i")
        self.counts: collections.Counter = collections.Counter()
        self.active: collections.Counter = collections.Counter()
        self._current = -1
        self._job = -1
        self._last_error = None
        self._patches: list = []

    # -- recording -------------------------------------------------------
    def _enter(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._current)
        self.job_of.append(self._job)
        self.end.append(0.0)
        self._current = idx
        self.start.append(time.perf_counter())
        return idx

    def _exit(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._current = self.parent[idx]

    def _raised(self, exc: BaseException) -> None:
        # an exception crossing several spans is counted once, where it first leaves one
        if isinstance(exc, self._error_base) and exc is not self._last_error:
            self.counts["errors.raised"] += 1
        self._last_error = exc

    @contextlib.contextmanager
    def job(self, job_id: int):
        """Root span of one benchmark job."""
        self._job = job_id
        idx = self._enter(0)
        try:
            yield
        finally:
            self._exit(idx)
            self._job = -1

    def _wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        hook = _HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outermost = not tracer.active[name]
            tracer.active[name] += 1
            idx = tracer._enter(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._exit(idx)
                tracer.active[name] -= 1
                tracer._raised(exc)
                raise
            tracer._exit(idx)
            tracer.active[name] -= 1
            if hook is not None and outermost:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    # -- patching --------------------------------------------------------
    def install(self) -> None:
        wrappers = {}
        for layer, mod in self._modules.items():
            for attr, val in vars(mod).items():
                if inspect.isfunction(val) and val.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[val] = self._wrap(f"{layer}.{attr}", val)
        for ns in (self._package, *self._modules.values()):
            for key, val in list(vars(ns).items()):
                if key.startswith("__"):
                    continue
                if inspect.isfunction(val) and val in wrappers:
                    self._patches.append((ns, key, val))
                    setattr(ns, key, wrappers[val])
                elif isinstance(val, dict):
                    for k2, v2 in list(val.items()):
                        if inspect.isfunction(v2) and v2 in wrappers:
                            self._patches.append((val, k2, v2))
                            val[k2] = wrappers[v2]

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    # -- analysis --------------------------------------------------------
    def summary(self) -> dict:
        """Per-layer metrics of everything recorded, and per job its
        duration and the sum of the package's self times in it."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        has_parent = parent >= 0
        self_t = dur - np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        n_names = len(self.names)
        self_by = np.bincount(name, weights=self_t, minlength=n_names)
        incl_by = np.bincount(name, weights=dur, minlength=n_names)
        # a call is an entry into a function from a different one (not a recursion)
        parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)
        calls_by = np.bincount(name[parent_name != name], minlength=n_names)

        def fn(key):
            nid = self._ids.get(key)
            return (0.0, 0.0, 0) if nid is None else (float(self_by[nid]), float(incl_by[nid]), int(calls_by[nid]))

        def layer(prefix):
            ids = [i for i, n in enumerate(self.names) if n.startswith(prefix + ".")]
            return float(self_by[ids].sum()), int(calls_by[ids].sum())

        c = self.counts
        out = {}
        cli_self, _ = layer("cli")
        out["cli.self_s"] = cli_self
        out["cli.bytes_out"] = c["cli.bytes_out"]
        out["cli.out_mb_per_s"] = c["cli.bytes_out"] / 1e6 / cli_self if cli_self > 0 else 0.0
        out["model.self_s"], out["model.calls"] = layer("model")
        out["representation.coeffs_from_mixing.calls"] = fn("representation.coeffs_from_mixing")[2]
        out["representation.self_s"] = layer("representation")[0]
        out["covariance.cov_pair.calls"] = fn("covariance.cov_pair")[2]
        out["covariance.cov_pair.points"] = c["covariance.cov_pair.points"]
        out["covariance.cov_pair.self_s"] = fn("covariance.cov_pair")[0]
        out["covariance.cov_matrix.self_s"] = fn("covariance.cov_matrix")[0]
        cm_calls = fn("covariance.cov_matrix")[2]
        out["covariance.cov_matrix.dim"] = c["covariance.cov_matrix.dim_total"] / cm_calls if cm_calls else 0.0
        out["kernels.kernel_cov.calls"] = fn("kernels.kernel_cov")[2]
        out["kernels.kernel_cov.self_s"] = fn("kernels.kernel_cov")[0]
        out["kernels.kernel_factor.points"] = c["kernels.kernel_factor.points"]
        out["kernels.kernel_factor.self_s"] = fn("kernels.kernel_factor")[0]
        evals = c["kernels.quadrature.points"] / 2  # two kernel factors per integrand evaluation
        out["kernels.quadrature.evals"] = evals
        budget = c["kernels.quadrature.max_evals"]
        out["kernels.quadrature.budget_used"] = evals / budget if budget else 0.0
        out["special.self_s"], out["special.calls"] = layer("special")
        sp_self = fn("simulate.sample_paths")[0]
        out["simulate.sample_paths.self_s"] = sp_self
        out["simulate.normals"] = c["simulate.normals"]
        out["simulate.normals_per_s"] = c["simulate.normals"] / sp_self if sp_self > 0 else 0.0
        out["simulate.cholesky_psd.self_s"] = fn("simulate.cholesky_psd")[0]
        ch_calls = fn("simulate.cholesky_psd")[2]
        out["simulate.cholesky_psd.dim"] = c["simulate.cholesky_psd.dim_total"] / ch_calls if ch_calls else 0.0
        out["simulate.cholesky_psd.zero_pivots"] = c["simulate.cholesky_psd.zero_pivots"]
        out["simulate.empirical_cov.self_s"] = fn("simulate.empirical_cov")[0]
        mc_self, mc_incl, _ = fn("simulate.mc_integral_oracle")
        out["simulate.mc_integral_oracle.self_s"] = mc_self
        out["simulate.mc.reps_per_s"] = c["simulate.mc.reps"] / mc_incl if mc_incl > 0 else 0.0
        out["verify.records"] = c["verify.records"]
        out["verify.pass_ratio"] = c["verify.passed"] / c["verify.records"] if c["verify.records"] else 0.0
        out["verify.self_s"] = layer("verify")[0]
        out["errors.raised"] = c["errors.raised"]

        # per job: traced duration and the package's summed self time
        roots = name == 0
        job_ids = np.frombuffer(self.job_of, dtype=np.int32)
        package = ~roots & (job_ids >= 0)
        jobs = sorted(set(job_ids[roots].tolist()))
        root_dur = {int(j): float(d) for j, d in zip(job_ids[roots], dur[roots])}
        pkg_self = np.bincount(job_ids[package], weights=self_t[package], minlength=max(jobs, default=0) + 1)
        per_job = [{"job": j, "job_s": root_dur[j], "package_self_s": float(pkg_self[j])} for j in jobs]
        return {"metrics": out, "jobs": per_job, "spans": int(dur.size)}

    def write(self, path: Path) -> None:
        """Write every span and counter as gzipped JSON: a table of names,
        then parallel columns, so the file stays compact."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "names": self.names,
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "job": self.job_of.tolist(),
            "counts": dict(self.counts),
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)
