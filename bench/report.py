"""Run every workload and print every metric by name and unit, one row per workload.

    python3 bench/report.py [--seed 1]

Every workload of BENCHMARK.json, each run for its `run_seconds`: one
untraced run (end-to-end metrics and the reference checks) and two
traced runs on the same seed.  The traced runs give the per-layer
metrics, printed in one table per layer with `trace.overhead_frac`
beside them, and drive the exact-repeat self-check: every per-job count
must agree between the two runs (`capacity.lp_iters` is shown with both
values if it varies), and each traced run must write the same CSV bytes
as its untraced twin.  Exits 1 if a check fails.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
from tracing import COUNTS, SPEC  # noqa: E402


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=BENCH.parent)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    record, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(record), json.loads(result)


def repeat_check(first: dict, second: dict) -> list[str]:
    problems = []
    for rec in (first, second):
        if not rec["csv_identical_traced_untraced"]:
            problems.append("traced and untraced CSV bytes differ")
    a, b = first["job_counts"], second["job_counts"]
    for job in sorted(set(a) & set(b), key=int):
        for key in COUNTS:
            if a[job][key] != b[job][key]:
                tag = "varies" if key == "capacity.lp_iters" else "MISMATCH"
                problems.append(f"job {job} {key} {tag}: {a[job][key]} vs {b[job][key]}")
    return problems


def table(title: str, names: list[str], units: dict, rows: dict) -> None:
    heads = ["workload"] + [f"{n} [{units[n]}]" for n in names]
    widths = [max(len(h), 10) for h in heads]
    print(f"\n{title}")
    print("  ".join(h.ljust(w) for h, w in zip(heads, widths)))
    for wl, vals in rows.items():
        cells = [wl] + [f"{vals[n]:.6g}" for n in names]
        print("  ".join(c.ljust(w) for c, w in zip(cells, widths)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    e2e, layer, checks, bad = {}, {}, {}, []
    for wl in (w["name"] for w in SPEC["workloads"]):
        record, result = run(wl, args.seed, 0)
        traced = [run(wl, args.seed, 1) for _ in range(2)]
        e2e[wl] = {k: v["value"] for k, v in result["metrics"].items()}
        layer[wl] = {k: v["value"] for k, v in traced[0][1]["metrics"].items()}
        problems = repeat_check(traced[0][0], traced[1][0])
        checks[wl] = {
            "correct": all(r["correct"] for _, r in [(record, result)] + traced),
            "attempted": result["attempted"],
            "failed": result["failed"],
            "failed_frac": record["failed_frac"],
            "err_max": record["err_max"],
            "job_s.n": record["job_s.n"],
        }
        print(f"{wl}: seed {args.seed}, configs {[j['config_sha256'][:12] for j in record['jobs']]}")
        print(f"{wl}: machine {json.dumps(record['machine'])}")
        for p in problems:
            print(f"{wl}: repeat check: {p}")
        bad += [p for p in problems if "MISMATCH" in p or "CSV" in p]
        if not checks[wl]["correct"]:
            bad.append(f"{wl}: incorrect output")

    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    table("end to end (untraced)", [m["name"] for m in SPEC["end_to_end"]], units, e2e)
    print("\nchecks (untraced run)")
    for wl, c in checks.items():
        print(f"{wl:<10}  " + "  ".join(f"{k}={v}" for k, v in c.items()))
    groups: dict = {}
    for m in SPEC["per_layer"]:
        if m["name"] != "trace.overhead_frac":
            groups.setdefault(m["name"].split(".")[0], []).append(m["name"])
    for group, names in groups.items():
        table(f"per layer: {group} (traced, per job)", names + ["trace.overhead_frac"], units, layer)
    print("\nrepeat self-check:", "PASS" if not bad else "FAIL")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
