"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload large_calls --seed 1 --seconds 40 --trace 0

Each job is one in-process `degenheat.cli.main([...])` call at
`--workers 1` on a config generated from the seed (see workloads.py).
Jobs run back to back (a closed loop with one client).  A run holds a
fixed list of jobs, the whole rounds of the workload's mix that take
about `--seconds` on a 2-core x86-64 VM at the seed code's speed; a
faster commit runs the same jobs in less time.

--trace 0 reports the end-to-end metrics: `setup_s` (median wall of
fresh interpreters running `import degenheat.cli`), `jobs_per_s`,
`job_s.p50` and `peak_rss_mb`.  --trace 1 first runs the same jobs
untraced in a fresh interpreter (a `--trace 0` run), then traced in
this one; it checks that both write the same CSV bytes, and reports the
per-layer metrics of tracing.py plus `trace.overhead_frac` (traced over
untraced job walls, minus 1) and the reference-check summary.

The last stdout line is the result object; the line before it is the
full record (machine facts, per-job config sha256, wall, exit code and
check), also written to bench/out/.  Exit code 2, and no result: the
checkout has no library source.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPS = 3

sys.path.insert(0, str(BENCH))
from tracing import SPEC, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@dataclass
class Job:
    index: int
    command: str
    config_sha256: str
    exit: object
    wall_s: float
    ok: bool
    err: float
    detail: str
    csv_sha256: str = ""
    broken: bool = False  # output that is not the generated config's


def load_cli():
    """Import degenheat.cli from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import degenheat.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "degenheat").resolve():
        sys.exit(f"bench: imported degenheat from {cli.__file__}, not from {SRC}")
    return cli


def setup_seconds() -> list[float]:
    """Walls of fresh interpreters that import the CLI, as every CLI run does."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    walls = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import degenheat.cli"], cwd=ROOT, env=env, check=True)
        walls.append(time.perf_counter() - t0)
    return walls


def _cache_sizes() -> dict:
    out = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_env": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "workers": 1,
    }


def run_job(cli, command, seed: int, i: int, job_id: int, work: Path, tracer):
    """Job `i` of `command` on `seed`, run as job `job_id` of this run."""
    cfg = command.config(seed, i)
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(blob.encode()).hexdigest()
    cfg_path = work / f"job{job_id}.json"
    cfg_path.write_text(blob)
    out = work / f"job{job_id}"
    argv = [command.name, "--config", str(cfg_path), "--out", str(out), "--workers", "1"]
    if tracer is not None:
        tracer.job, tracer.enabled = job_id, True
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    except Exception as exc:  # a traceback is a failed job, not a failed benchmark
        code = f"{type(exc).__name__}: {exc}"
        traceback.print_exc()
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.enabled = False
    job = Job(job_id, command.name, digest, code, wall, False, math.nan, "")
    if code != 0:
        job.detail = f"exit {code}"
        return job
    envelope = json.loads((out / f"{command.name}.json").read_text())
    csv_bytes = (out / f"{command.name}.csv").read_bytes()
    job.csv_sha256 = hashlib.sha256(csv_bytes).hexdigest()
    if envelope["config_digest"] != digest:
        job.broken = True
        job.detail = "CLI digest differs from the generated config"
        return job
    check = command.check(cfg, envelope["payload"], csv_bytes.decode())
    job.ok, job.err, job.detail = bool(check.ok), float(check.err), check.detail
    return job


def untraced_twin(args) -> dict:
    """Record of a `--trace 0` run of the same jobs in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True, timeout=170)
    return json.loads(proc.stdout.strip().splitlines()[-2])


def run(args) -> tuple[dict, dict]:
    name, seed = args.workload, args.seed
    workload = WORKLOADS[name]
    load = os.getloadavg()  # the machine is shared: note how busy it was
    setup = [] if args.trace else setup_seconds()
    twin = untraced_twin(args) if args.trace else None
    cli = load_cli()
    facts = {**machine_facts(), "loadavg_at_start": load}
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    work = OUT / f"tmp-{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        t_start = time.perf_counter()
        jobs = [
            run_job(cli, command, seed, i, job_id, work, tracer)
            for job_id, (command, i) in enumerate(workload.jobs(args.seconds))
        ]
        wall = time.perf_counter() - t_start
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # a failed job exits nonzero, writes NaN or misses its reference bound;
    # an incorrect run has output that is not its config's, or CSV that
    # tracing altered
    failed = [j for j in jobs if not j.ok]
    correct = not any(j.broken for j in jobs)
    # worst finite error; a NaN result already counts as a failed job
    err_max = max((j.err for j in jobs if not math.isnan(j.err)), default=0.0)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": facts,
        "timed_wall_s": wall,
        "jobs": [{**asdict(j), "err": None if math.isnan(j.err) else j.err} for j in jobs],
        "err_max": err_max,
        "failed_frac": len(failed) / len(jobs),
    }
    if not args.trace:
        walls = [j.wall_s for j in jobs]
        record["setup_walls_s"] = setup
        record["job_s.n"] = len(walls)
        values = {
            "setup_s": statistics.median(setup),
            "jobs_per_s": len(jobs) / wall,
            "job_s.p50": statistics.median(walls),
            "peak_rss_mb": peak_rss_mb,
        }
        specs = SPEC["end_to_end"]
    else:
        plain = twin["jobs"]
        same_csv = [j["config_sha256"] for j in plain] == [j.config_sha256 for j in jobs] and all(
            p["csv_sha256"] == j.csv_sha256 for p, j in zip(plain, jobs)
        )
        correct = correct and same_csv
        values = {
            **tracer.layer_metrics({j.index: j.wall_s for j in jobs}),
            "trace.overhead_frac": sum(j.wall_s for j in jobs) / sum(p["wall_s"] for p in plain) - 1.0,
            "check.err_max": err_max,
            "check.failed_frac": len(failed) / len(jobs),
        }
        record["csv_identical_traced_untraced"] = same_csv
        record["job_counts"] = tracer.job_counts()
        spans_path = OUT / f"{name}-seed{seed}-spans.csv.gz"
        tracer.write(spans_path)
        record["spans"] = str(spans_path.relative_to(ROOT))
        specs = SPEC["per_layer"]
    result = {
        "correct": bool(correct),
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in specs},
    }
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "degenheat" / "cli.py").is_file():
        print(f"bench: no library source at {SRC / 'degenheat'}", file=sys.stderr)
        return 2
    record, result = run(args)
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps(record, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
