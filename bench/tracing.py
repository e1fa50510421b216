"""Layer spans recorded from outside the library, by rebinding its public names.

`Tracer.install()` replaces each traced function with a wrapper in every
`degenheat` module that holds a reference to it (the defining module and
each module that imported the name), and each traced method on its
class.  A wrapper records one span per call: name, start, end, parent
span and job id, plus a few counts read off the arguments and the
result.  Spans stay in memory until `write()`; `layer_metrics()` reduces
them to the per-layer metrics.  Nothing under `src/` is edited.

Every metric is a mean per traced job.  `<layer>.self_s` is the time in
that layer's spans minus the time in their child spans.  Counts and
points come from a layer's outermost spans (a weighted_rule inside
integrate_weighted_interval is not another rule).  A block hit is a call
for a (mesh, lag) pair already assembled; a kept sample is a lattice
point inside the heat ball.  `capacity.matrix_s` is capacity_lp's time
outside linprog; `cli.self_s` is the job wall outside top-level spans.
"""
from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from pathlib import Path

import numpy as np


def _points(res) -> int:
    return int(np.size(res))


def _grad_points(res) -> int:
    shape = np.shape(res)
    return int(np.prod(shape[:-1])) if shape else 1


def _sample_counts(args, kwargs, res):
    ball = args[0]
    density = args[1] if len(args) > 1 else kwargs["density"]
    tried = density ** (ball.params.n + 1)
    return tried, 0 if res is None else len(res.times)


def _block_hit(args, kwargs):
    mesh, lag = args[0], args[1] if len(args) > 1 else kwargs["lag"]
    return lag in mesh._blocks


def _lp_counts(args, kwargs, res):
    a_ub = kwargs["A_ub"]
    nit = -1 if res is None else int(res.nit)
    return a_ub.shape[0], a_ub.shape[1], int(np.count_nonzero(a_ub)), nit


# (module, name) and (module, class, method): the public entry points of each layer
FUNCTIONS = [
    ("special", "f_profile_vec"),
    ("special", "f_profile_prime_vec"),
    ("kernel", "gamma_fs_vec"),
    ("kernel", "gamma_grad_y_vec"),
    ("kernel", "u_tilde"),
    ("kernel", "weighted_normal_limit_vec"),
    ("quadrature", "weighted_rule"),
    ("quadrature", "integrate_weighted_interval"),
    ("geometry", "heat_ball_sample"),
    ("bem", "solve_density"),
    ("bem", "initial_lift"),
    ("bem", "double_layer_eval"),
    ("capacity", "capacity_lp"),
    ("capacity", "linprog"),
    ("meanvalue", "solid_mean"),
    ("wiener", "shell_term"),
]
METHODS = [
    ("geometry", "HeatBall", "bounding_box"),
    ("geometry", "HeatBall", "contains_vec"),
    ("geometry", "Shell", "contains_vec"),
    ("bem", "BoundaryMesh", "block"),
]
# span name -> (extra read before the call, extra read after it)
EXTRAS = {
    "special.f_profile_vec": (None, lambda a, k, r: _points(r)),
    "special.f_profile_prime_vec": (None, lambda a, k, r: _points(r)),
    "kernel.gamma_fs_vec": (None, lambda a, k, r: _points(r)),
    "kernel.gamma_grad_y_vec": (None, lambda a, k, r: _grad_points(r)),
    "kernel.u_tilde": (None, lambda a, k, r: _points(r)),
    "kernel.weighted_normal_limit_vec": (None, lambda a, k, r: _points(r)),
    "geometry.heat_ball_sample": (None, _sample_counts),
    "bem.BoundaryMesh.block": (_block_hit, None),
    "capacity.linprog": (None, _lp_counts),
    "wiener.shell_term": (None, lambda a, k, r: r is not None and r[0] == 0.0),
}


class Tracer:
    """Span store plus the installed wrappers; one per traced process."""

    def __init__(self) -> None:
        self.enabled = False
        self.job = -1
        self.names: list[str] = []
        self.spans: list = []  # [name_id, start, end, parent, job, extra]
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        before, after = EXTRAS.get(name, (None, None))
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            extra = before(args, kwargs) if before else None
            idx = len(spans)
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1, self.job, extra]
            spans.append(span)
            stack.append(idx)
            res = None
            span[1] = time.perf_counter()
            try:
                res = fn(*args, **kwargs)
                return res
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if after:
                    span[5] = after(args, kwargs, res)

        return traced

    def install(self) -> None:
        mods = {k: v for k, v in sys.modules.items() if k.startswith("degenheat.")}
        for mod, attr in FUNCTIONS:
            orig = getattr(mods[f"degenheat.{mod}"], attr)
            wrapper = self._wrap(f"{mod}.{attr}", orig)
            for m in mods.values():
                if getattr(m, attr, None) is orig:
                    self._undo.append((m, attr, orig))
                    setattr(m, attr, wrapper)
        for mod, cls_name, attr in METHODS:
            cls = getattr(mods[f"degenheat.{mod}"], cls_name)
            orig = cls.__dict__[attr]
            self._undo.append((cls, attr, orig))
            setattr(cls, attr, self._wrap(f"{mod}.{cls_name}.{attr}", orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def write(self, path) -> None:
        """Spans as gzipped CSV: name,start,end,parent,job (times in s)."""
        with gzip.open(path, "wt") as fh:
            fh.write("name,start,end,parent,job\n")
            for s in self.spans:
                fh.write(f"{self.names[s[0]]},{s[1]:.9f},{s[2]:.9f},{s[3]},{s[4]}\n")

    # ------------------------------------------------------------ reduction

    def job_counts(self) -> dict:
        """Per-job counts keyed by job id; two runs on one seed must repeat them."""
        return {
            job: {k: m[k] for k in COUNTS} for job, m in self._per_job().items()
        }

    def _per_job(self) -> dict:
        """Per-job sums of every per-layer quantity except the time ratios."""
        names = self.names
        per: dict = {}
        root_of: list[int] = []
        for i, (nid, t0, t1, parent, job, extra) in enumerate(self.spans):
            root_of.append(i if parent < 0 else root_of[parent])
        child = [0.0] * len(self.spans)
        for nid, t0, t1, parent, job, extra in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (nid, t0, t1, parent, job, extra) in enumerate(self.spans):
            m = per.setdefault(job, _empty_job())
            name = names[nid]
            layer = name.split(".", 1)[0]
            dur = t1 - t0
            m[f"{layer}.self_s"] = m.get(f"{layer}.self_s", 0.0) + dur - child[i]
            pname = names[self.spans[parent][0]] if parent >= 0 else ""
            outer = not pname.startswith(layer + ".")  # first span of its layer
            if parent < 0:
                m["library_s"] += dur
            if layer == "special" and outer:
                m["special.points"] += extra
            elif layer == "kernel" and outer:
                m["kernel.calls"] += 1
                m["kernel.points"] += extra
                m["kernel_s"] += dur
                if names[self.spans[root_of[i]][0]] == "meanvalue.solid_mean":
                    m["mean_kernel_calls"] += 1
            elif layer == "quadrature" and outer:
                m["quadrature.rules"] += 1
            elif name == "geometry.heat_ball_sample":
                m["geometry.sample_attempts"] += extra[0]
                m["sample_kept"] += extra[1]
            elif name == "bem.BoundaryMesh.block":
                m["bem.assembly_s"] += dur
                m["bem.blocks"] += 1
                m["block_hits"] += int(extra)
            elif name == "bem.solve_density":
                m["bem.density_s"] += dur - child[i]
            elif name == "bem.initial_lift" and outer:
                m["bem.lift_s"] += dur
                m["bem.lift_calls"] += 1
            elif name == "bem.double_layer_eval":
                m["bem.eval_s"] += dur
                m["bem.evals"] += 1
            elif name == "capacity.linprog":
                m["capacity.lp_s"] += dur
                m["capacity.lp_calls"] += 1
                rows, cols, nnz, nit = extra
                m["capacity.lp_rows"] += rows
                m["capacity.lp_cols"] += cols
                m["capacity.lp_nnz"] += nnz
                m["capacity.lp_iters"] += nit
            elif name == "capacity.capacity_lp":
                m["capacity.matrix_s"] += dur
            elif name == "meanvalue.solid_mean":
                m["meanvalue.means"] += 1
            elif name == "wiener.shell_term":
                m["wiener.shells"] += 1
                m["wiener.empty_shells"] += int(extra)
        for m in per.values():
            m["capacity.matrix_s"] -= m["capacity.lp_s"]
            m["meanvalue.kernel_calls_per_mean"] = _ratio(m["mean_kernel_calls"], m["meanvalue.means"])
        return per

    def layer_metrics(self, job_walls: dict) -> dict:
        """Per-layer metrics as per-job means over the traced jobs.

        job_walls maps job id -> wall seconds of its traced `main()` call;
        cli.self_s is that wall minus the time inside top-level library spans.
        """
        per = self._per_job()
        jobs = sorted(job_walls)
        tot = _empty_job()
        for job in jobs:
            m = per.get(job, _empty_job())
            for k in tot:
                tot[k] += m.get(k, 0.0)
            tot["cli.self_s"] += job_walls[job] - m.get("library_s", 0.0)
        nj = len(jobs)
        out = {k: v / nj for k, v in tot.items() if k in UNITS}
        out["kernel.pts_per_call"] = _ratio(tot["kernel.points"], tot["kernel.calls"])
        out["kernel.mpts_per_s"] = _ratio(tot["kernel.points"], tot["kernel_s"]) / 1e6
        out["geometry.sample_kept_ratio"] = _ratio(tot["sample_kept"], tot["geometry.sample_attempts"])
        out["bem.block_hit_ratio"] = _ratio(tot["block_hits"], tot["bem.blocks"])
        out["meanvalue.kernel_calls_per_mean"] = _ratio(
            tot["mean_kernel_calls"], tot["meanvalue.means"]
        )
        return out


# the benchmark's metric names and units, as BENCHMARK.json lists them
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# counts that repeat exactly for one config; the repeat self-check compares
# them (capacity.lp_iters is compared too, but only reported if it varies)
COUNTS = [k for k, u in UNITS.items() if u == "count/job"] + ["meanvalue.kernel_calls_per_mean"]
_HELPERS = ("library_s", "kernel_s", "sample_kept", "block_hits", "mean_kernel_calls")


def _empty_job() -> dict:
    m = {k: 0.0 for k in UNITS}
    m.update({k: 0.0 for k in _HELPERS})
    return m


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
