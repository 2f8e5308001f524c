"""pclean benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload catalog_verify --seed 1 --seconds 12 --trace 0

Run from the root of a checkout.  Each measurement runs in a fresh child
interpreter (``workloads.py``), one at a time, with one BLAS/OpenMP thread,
so the two cores are never oversubscribed and no cache survives between
runs.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` makes one
untraced and one traced run and reports the per-layer metrics.  Human-readable
lines come first; the last stdout line is one JSON object.  Exits non-zero
without a result when the program cannot be run or a child fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DEADLINE_S = 175  # a run must end within 180 s, children included


def metric_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, for kind "end_to_end" or "per_layer"."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


class ChildFailed(Exception):
    pass


def child(workload: str, seed: int, seconds: int, mode: str, deadline: float) -> dict:
    env = dict(os.environ)
    env.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        ),
    )
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
           "--t0", repr(time.time())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=max(1.0, deadline - time.monotonic()), text=True)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{workload} {mode} passed the {RUN_DEADLINE_S} s deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{workload} {mode} exited {proc.returncode}")
    return json.loads(lines[-1])


def provenance(seed: int, workload: str, res: dict) -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        commit = git.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pclean").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": res["python"],
        "numpy": res["numpy"],
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "seed": seed,
        "seed_used": WORKLOADS[workload].seed_used,
    }


def fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def main() -> int:
    ap = argparse.ArgumentParser(description="pclean benchmark (one workload, one run)")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "pclean" / "__init__.py").is_file():
        print(f"error: no pclean sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    w, seed = args.workload, args.seed
    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        setups = [child(w, seed, args.seconds, "setup", deadline)["setup_s"]
                  for _ in range(WORKLOADS[w].setup_samples - 1)]
        res = child(w, seed, args.seconds, "run", deadline)
        setups.append(res["setup_s"])
        traced = child(w, seed, args.seconds, "trace", deadline) if args.trace else None
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    runs = [res] + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for r in runs:
        for p in r["problems"]:
            print(f"mismatch: {p}", file=sys.stderr)
    e2e = dict(res, setup_s=statistics.median(setups))
    prov = provenance(seed, w, res)

    print(f"workload {w}  seed {seed}{'' if WORKLOADS[w].seed_used else ' (unused)'}  "
          f"closed loop, 1 caller, {res['passes']} pass(es), {res['ops']} queries")
    notes = {
        "setup_s": f"median of {len(setups)} set-up(s)",
        "run_s": f"median of {res['passes']} pass(es)",
    }
    end_to_end = metric_units("end_to_end")
    for name, unit in end_to_end.items():
        print(f"  {name:<15} {fmt(e2e[name]):>12} {unit:<5} {notes.get(name, '')}")
    print("  not bounded (too noisy on a shared host, or always 0):")
    print(f"  {'query_p50_ms':<15} {fmt(res['query_p50_ms']):>12} {'ms':<5} n={res['ops']}")
    if res["query_p99_ms"] is not None:
        print(f"  {'query_p99_ms':<15} {fmt(res['query_p99_ms']):>12} {'ms':<5} "
              f"n={res['ops']}, {res['p99_beyond']} beyond")
    else:
        print(f"  {'query_p99_ms':<15} {'-':>12} {'ms':<5} "
              f"not reported: fewer than ten of {res['ops']} samples beyond it")
    print(f"  {'failed_share':<15} {fmt(failed / attempted):>12} {'1':<5} "
          f"{failed} of {attempted} operations")
    print(f"provenance {json.dumps(prov)}")

    row = {"workload": w, "trace": args.trace, **prov,
           "end_to_end": {n: e2e[n] for n in end_to_end},
           "query_p50_ms": res["query_p50_ms"], "query_p99_ms": res["query_p99_ms"],
           "failed_share": failed / attempted,
           "setup_samples": setups}
    if traced:
        layers = dict(traced["layers"], **{"trace.overhead_s": traced["run_s"] - res["run_s"]})
        units = metric_units("per_layer")
        missing = sorted(set(units) - set(layers))
        if missing:
            print(f"error: traced run did not produce {', '.join(missing)}", file=sys.stderr)
            return 1
        metrics = {n: {"value": layers[n], "unit": u} for n, u in units.items()}
        row["per_layer"] = layers
        print(f"  traced run_s {fmt(traced['run_s'])} s vs untraced {fmt(res['run_s'])} s; "
              f"spans in perfbench/out/")
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in end_to_end.items()}
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    with open(out / "results.jsonl", "a") as fh:
        fh.write(json.dumps(row) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
