"""Record the expected reports in perfbench/expected/ from the current code.

    python3 perfbench/record.py [WORKLOAD ...]

Each input seed runs in a fresh process exactly as a measured run does.
A report is stored only if its verdict is pass and every operation in it
is reliable, so a reference can never encode a failure.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

from run import WORK, Runner
from workloads import EXPECTED, WORKLOADS


def acceptable(report: dict) -> bool:
    return report["verdict"] == "pass" and all(
        rec.get("verdict") == "pass" if rec.get("stage") == "control"
        else rec.get("status") == "ok"
        for rec in report["records"])


def main(names) -> int:
    EXPECTED.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        wl = WORKLOADS[name]
        refs = {}
        for seed in wl.ref_seeds():
            runner = Runner(wl.calls(seed), time.monotonic() + 600.0)
            res = runner.run()
            if "error" in res or not all(r is not None and acceptable(r)
                                         for r in res["reports"]):
                print(f"{name} seed {seed}: not recorded: "
                      f"{res.get('error') or res['reports']}", file=sys.stderr)
                return 1
            refs[str(seed)] = res["reports"]
            print(f"{name} seed {seed}: {res['wall_s']:.2f} s", flush=True)
        (EXPECTED / f"{name}.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
