"""Parent-against-change pairs through the unchanged benchmark driver.

    python3 bench/pairs.py --parent REV --change TREE-ISH --label NAME \
        --workdir DIR --claim WORKLOAD:SEED:SEED [--check WORKLOAD:SEED ...] \
        [--note TEXT]

Run from the repository root, with nothing else running on the host.  Each
side is exported with ``git archive`` into its own directory under DIR
(``--change`` may name a tree, e.g. ``git write-tree`` of the staged work),
and both get their bytecode compiled before the first pair, so neither
side's first run writes ``__pycache__`` while the other reads it (a
checkout without bytecode read +2.5 MB ``peak_rss_mb``).  The children run
without ``PYTHONDONTWRITEBYTECODE`` and without the caller's ``PYTHONPATH``.

A pair runs ``python3 perfbench/run.py --workload W --seed S --seconds 40``
(the benchmark's run length) once in each side's directory, one after the
other; the side that runs first alternates, parent first in even pairs.
``--claim`` names the claimed workload with its default and its held-out
seed, ``--check`` a workload and seed for a no-regression series; every
series is 10 pairs.  The claimed metric is ``wall_s``, lower is better.  ``BENCH_<label>.json`` is rewritten after every pair, in the
repository root, so an interrupted run keeps what it measured.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("wall_s", "setup_s", "peak_rss_mb")
CLAIM_METRIC = "wall_s"
PAIRS = 10
SECONDS = 40
RULE = ("at least 9 of 10 pairs won and the median gap larger than the parent's "
        "IQR, at the default seed and at the held-out seed")


def export(rev: str, dest: Path) -> None:
    """The tree of rev in dest, with every module compiled to bytecode."""
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                   cwd=dest, check=True, env=child_env())


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPATH", None)
    return env


def run_side(tree: Path, workload: str, seed: int) -> dict:
    """One perfbench/run.py invocation: its metrics, gate and samples."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS)], cwd=tree, env=child_env(), capture_output=True,
        text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"correct": False, "error": proc.stderr[-2000:] or f"exit {proc.returncode}"}
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    out = {m: result["metrics"][m]["value"] for m in METRICS if m in result["metrics"]}
    out.update(correct=result["correct"], attempted=result["attempted"],
               failed=result["failed"], wall_s_samples=record["wall_s_samples"],
               peak_rss_mb_samples=record["peak_rss_mb_samples"], env=record["env"])
    return out


def quartiles(xs: list) -> dict:
    q1, med, q3 = (statistics.quantiles(xs, n=4, method="inclusive")
                   if len(xs) > 1 else (xs[0],) * 3)
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(pairs: list, claim: bool) -> dict:
    done = [p for p in pairs if all(m in p[s] for s in ("parent", "change") for m in METRICS)]
    summary = {}
    for m in METRICS:
        if not done:
            break
        par, chg = [p["parent"][m] for p in done], [p["change"][m] for p in done]
        ratios = [c / p for c, p in zip(chg, par)]
        entry = {"parent": quartiles(par), "change": quartiles(chg),
                 "change_wins": sum(c < p for c, p in zip(chg, par)),
                 "ties": sum(c == p for c, p in zip(chg, par)), "pairs": len(done),
                 "median_change_over_parent": statistics.median(ratios),
                 "change_over_parent_q1_q3": [quartiles(ratios)["q1"],
                                              quartiles(ratios)["q3"]]}
        if claim and m == CLAIM_METRIC:
            gap = entry["parent"]["median"] - entry["change"]["median"]
            entry["claim_rule"] = {
                "wins_at_least_9_in_10": entry["change_wins"] >= 9,
                "median_gap_s": gap, "parent_iqr_s": entry["parent"]["iqr"],
                "gap_beyond_parent_iqr": gap > entry["parent"]["iqr"]}
        summary[m] = entry
    sides = [p[s] for p in pairs for s in ("parent", "change")]
    summary["all_correct"] = all(s.get("correct") for s in sides)
    summary["failed"] = sum(s.get("failed", 0) for s in sides)
    return summary


def parse_series(spec: str, claim: bool) -> list:
    workload, *seeds = spec.split(":")
    if (claim and len(seeds) != 2) or (not claim and len(seeds) != 1):
        raise SystemExit(f"bad series {spec!r}")
    roles = ["claim, default seed", "claim, held-out seed"] if claim else ["no-regression check"]
    return [{"workload": workload, "seed": int(s), "role": r, "claim": claim}
            for s, r in zip(seeds, roles)]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--label", required=True)
    ap.add_argument("--workdir", required=True, type=Path)
    ap.add_argument("--claim", required=True)
    ap.add_argument("--check", action="append", default=[])
    ap.add_argument("--note", default="")
    args = ap.parse_args()

    trees = {side: args.workdir.resolve() / side for side in ("parent", "change")}
    for side, rev in (("parent", args.parent), ("change", args.change)):
        export(rev, trees[side])
    parent_rev = subprocess.run(["git", "rev-parse", "--short", args.parent], cwd=ROOT,
                                check=True, capture_output=True, text=True).stdout.strip()
    claim_series = parse_series(args.claim, claim=True)
    series = claim_series + [s for c in args.check for s in parse_series(c, claim=False)]
    out = ROOT / f"BENCH_{args.label}.json"
    doc = {"label": args.label, "change": args.note, "parent": parent_rev,
           "claim": {"workload": claim_series[0]["workload"], "metric": CLAIM_METRIC,
                     "better": "lower", "rule": RULE},
           "command": (f"python3 perfbench/run.py --workload WORKLOAD --seed SEED "
                       f"--seconds {SECONDS}"),
           "method": ("Each pair runs the parent checkout and the change checkout one "
                      "after the other, each in its own directory exported by git archive "
                      "with its bytecode compiled; the side that runs first alternates, "
                      "parent first in even pairs. Metric values are the run's reported "
                      "medians."),
           "env": None, "series": []}
    for s in series:
        entry = {"workload": s["workload"], "seed": s["seed"], "role": s["role"],
                 "summary": {}, "pairs": []}
        doc["series"].append(entry)
        for k in range(PAIRS):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            pair = {"pair": k, "first": order[0]}
            for side in order:
                pair[side] = run_side(trees[side], s["workload"], s["seed"])
                doc["env"] = doc["env"] or pair[side].get("env")
                pair[side].pop("env", None)
            entry["pairs"].append(pair)
            entry["summary"] = summarize(entry["pairs"], s["claim"])
            out.write_text(json.dumps(doc, indent=1) + "\n")
            print(f"{s['workload']} seed {s['seed']} pair {k}: "
                  + ", ".join(f"{side} {pair[side].get(CLAIM_METRIC, 'error')}"
                              for side in order), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
