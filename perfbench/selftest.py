"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at smoke size in fresh processes, twice traced and once
untraced, and checks that each run exits 0, that the three reports agree
under the benchmark's comparison rule, and that the exact counts repeat.
Then checks the comparison rule on a report altered by hand.  Prints one
line per check and exits non-zero on the first failure.
"""

from __future__ import annotations

import copy
import shutil
import sys
import time

from run import WORK, Runner
from tracer import layer_metrics
from workloads import WORKLOADS, check_report, load_expected

EXACT_COUNTS = ("linalg.eig.n3_sum", "index.localizer_even.dim_sum",
                "groupoid.represent.blocks", "roe.random_perturbation.blocks",
                "geometry.sites")


def check(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"FAIL {what}")
    print(f"ok   {what}", flush=True)


def smoke(name: str) -> None:
    wl = WORKLOADS[name]
    runner = Runner(wl.calls(wl.default_seed, smoke=True), time.monotonic() + 300.0)
    runs = [runner.run(trace=True), runner.run(trace=True), runner.run()]
    for k, res in enumerate(runs):
        check("error" not in res and all(c == 0 for c in res["codes"]),
              f"{name}: smoke run {k} exits 0")
    base = runs[2]["reports"]
    for k in (0, 1):
        problems = [p for got, want in zip(runs[k]["reports"], base)
                    for p in check_report(got, want)[2]]
        check(not problems, f"{name}: traced run {k} matches the untraced run {problems}")
    first, second = (layer_metrics(r["spans"]) for r in runs[:2])
    for key in EXACT_COUNTS + tuple(k for k in first if k.endswith(".calls")):
        check(first[key] == second[key], f"{name}: {key} repeats ({first[key]})")


def comparison_rule() -> None:
    want = load_expected("periodic_robustness")["0"][0]
    got = copy.deepcopy(want)
    got["records"][3]["margin"] *= 1.0 + 1e-13
    check(check_report(got, want) == (31, 0, []), "float drift of 1e-13 passes")
    got["records"][3]["margin"] *= 1.0 + 1e-6
    check(check_report(got, want)[1:] == (0, ["/records/3/margin"]),
          "float drift of 1e-6 is a mismatch, not a failed operation")
    got = copy.deepcopy(want)
    got["records"][5]["status"] = "unreliable"
    got["records"][7]["index"] = 0
    check(check_report(got, want)[1] == 2, "changed status and index fail two operations")
    check(check_report(None, want)[:2] == (31, 31), "a missing report fails every operation")
    stack = load_expected("chain_stacking")["0"][0]
    got = copy.deepcopy(stack)
    got["records"][-1]["verdict"] = "fail"
    check(check_report(got, stack)[1] == 1, "a failed control fails one operation")


def main() -> int:
    comparison_rule()
    for name in sorted(WORKLOADS):
        smoke(name)
    shutil.rmtree(WORK, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
