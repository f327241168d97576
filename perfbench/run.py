"""delonetop benchmark: CLI experiments that end in a verified integer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every measured run is a fresh process that
imports ``delonetop.cli`` from ``src/`` and calls ``cli.main`` with
``--workers 1``, closed loop, one run at a time.  The BLAS thread count is
pinned in each child's environment.  Runs repeat while the next one is
predicted to end within ``--seconds``; at least one always runs.  Each
report is checked against ``perfbench/expected``.  The last line of
standard output is the result as JSON; the line before it records the
environment, seeds and samples.

``--trace 0`` reports the end-to-end metrics (medians over the runs).
``--trace 1`` adds one traced run and reports the per-layer metrics; see
tracer.py and README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import REF_SEEDS, WORKLOADS, check_report, load_expected

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
SETUP_PROBES = 3       # set-up-only processes per run, after one warm-up
DEADLINE_S = 170.0     # the whole invocation must end within 180 s


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


class Runner:
    def __init__(self, calls, deadline: float):
        self.calls = calls
        self.deadline = deadline
        self.env = child_env()
        self.count = 0

    def run(self, setup_only: bool = False, trace: bool = False) -> dict:
        """One fresh child process; returns its result plus setup_s and reports."""
        self.count += 1
        work = WORK / f"run{self.count}"
        outs = [str(work / f"out{k}") for k in range(len(self.calls))]
        spec = {"calls": [[cmd, cfg, out] for (cmd, cfg), out in zip(self.calls, outs)],
                "work": str(work), "result": str(work / "result.json"),
                "setup_only": setup_only, "trace": trace}
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        (work / "spec.json").write_text(json.dumps(spec))
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise TimeoutError("benchmark deadline reached")
        launched = time.monotonic()
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(work / "spec.json")],
                              env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)
        result_path = work / "result.json"
        if proc.returncode != 0 or not result_path.is_file():
            return {"error": proc.stderr[-2000:] or f"exit {proc.returncode}",
                    "reports": [None] * len(outs)}
        result = json.loads(result_path.read_text())
        result["setup_s"] = result["ready"] - launched
        reports = []
        for code, out in zip(result.get("codes", []), outs):
            path = Path(out) / "report.json"
            reports.append(json.loads(path.read_text()) if code == 0 and path.is_file()
                           else None)
        result["reports"] = reports
        shutil.rmtree(work)
        return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "delonetop" / "__init__.py").is_file():
        print(f"no delonetop package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    input_seed = wl.input_seed(args.seed)
    expected = load_expected(wl.name)[str(input_seed)]
    shutil.rmtree(WORK, ignore_errors=True)
    runner = Runner(wl.calls(input_seed), deadline)

    # Warm-up, discarded: a set-up-only process fills the page cache and
    # writes the bytecode that every later process reads.
    warm = runner.run(setup_only=True)
    if "error" in warm:
        print(f"warm-up failed:\n{warm['error']}", file=sys.stderr)
        return 1
    env = {**warm["env"], "nproc": len(os.sched_getaffinity(0)),
           "cpu": cpu_model(), "blas_threads": BLAS_THREADS}
    setups = [runner.run(setup_only=True)["setup_s"] for _ in range(SETUP_PROBES)]

    attempted = failed = 0
    mismatches: list[str] = []
    walls, rss = [], []

    def measure(trace: bool) -> dict:
        nonlocal attempted, failed
        res = runner.run(trace=trace)
        for k, (got, want) in enumerate(zip(res["reports"], expected)):
            a, f, paths = check_report(got, want)
            attempted += a
            failed += f
            mismatches.extend(f"call{k}{p}" for p in paths)
        if "error" in res:
            mismatches.append(res["error"])
        return res

    # Closed loop: start another run only while it should end in time,
    # leaving room for the traced run when there is one.
    t0 = time.monotonic()
    reserve = 2 if args.trace else 1
    while True:
        start = time.monotonic()
        res = measure(trace=False)
        if "error" in res:
            break
        walls.append(res["wall_s"])
        rss.append(res["maxrss_mb"])
        setups.append(res["setup_s"])
        took = time.monotonic() - start
        if time.monotonic() - t0 + reserve * took > args.seconds:
            break

    values = {}
    if args.trace and walls:
        traced = measure(trace=True)
        if "spans" in traced:
            from tracer import layer_metrics
            values = layer_metrics(traced["spans"])
            values["trace.overhead_s"] = traced["wall_s"] - statistics.median(walls)
    elif walls:
        values = {"wall_s": statistics.median(walls),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": statistics.median(rss)}
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in section} if values else {}
    shutil.rmtree(WORK, ignore_errors=True)

    correct = not mismatches and bool(metrics)
    print(json.dumps({
        "workload": wl.name, "seed": args.seed, "input_seed": input_seed,
        "default_seed": wl.default_seed, "held_out_seed": wl.held_out_seed,
        "reference_seeds": REF_SEEDS if wl.held_out_seed is not None else None,
        "env": env, "wall_s_samples": walls, "setup_s_samples": setups,
        "peak_rss_mb_samples": rss,
        "fail_ratio": failed / attempted,
        "mismatches": mismatches[:20],
    }))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


if __name__ == "__main__":
    sys.exit(main())
