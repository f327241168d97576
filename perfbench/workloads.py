"""Workload definitions and the correctness gate.

A workload run is a list of CLI calls ``(command, config)``.  Seeded
workloads map the benchmark seed ``s`` to the input seed ``s % REF_SEEDS``;
``expected/<workload>.json`` holds the report of every input seed, recorded
by ``record.py`` from fresh processes at the pinned BLAS thread count.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

EXPECTED = Path(__file__).resolve().parent / "expected"

REF_SEEDS = 10
# Relative tolerance for floats (margin, gap, half_signature, kitaev, ...);
# the absolute floor covers values that are rounding noise by nature, such
# as the stacked multiplicity residual (~1e-14).
REL_TOL = 1e-9
ABS_TOL = 1e-12

CHERN = {"name": "chern_2band_2d", "M": 1.0, "mu": 0.0}
SSH = {"name": "chiral_ssh_1d", "t1": 0.5, "t2": 1.0}
STACK_KAPPAS = [0.05, 0.1, 0.2]


def amorphous_chern(seed: int, smoke: bool = False) -> list:
    window = [0.0, 8.0] if smoke else [0.0, 27.0]
    return [("quantization", {
        "lattice": {"generator": "hardcore_random", "dim": 2, "window": window,
                    "min_dist": 0.8, "target_R": 1.2, "seed": seed},
        "model": CHERN,
        "index": {"kappa_list": [0.1]},
    })]


def periodic_robustness(seed: int, smoke: bool = False) -> list:
    window, trials = ([0.0, 6.0], 3) if smoke else ([0.0, 16.0], 30)
    return [("robustness", {
        "lattice": {"generator": "periodic", "dim": 2, "window": window},
        "model": CHERN,
        "index": {"kappa_list": [0.1]},
        "experiment": {"n_trials": trials, "strength_rel": 0.2, "range": 2.0,
                       "master_seed": seed},
    })]


def chain_stacking(seed: int, smoke: bool = False) -> list:
    chain_hi, fib_len, stack_hi = (10.0, 12.0, 3.0) if smoke else (34.0, 48.0, 7.0)
    experiment = {"stack_window": [0.0, stack_hi]}
    if smoke:
        experiment["control_window"] = [0.0, 6.0]
    index = {"kappa_list": STACK_KAPPAS}
    return [
        ("stacking", {"lattice": {"generator": "periodic", "dim": 1,
                                  "window": [0.0, chain_hi]},
                      "model": SSH, "index": index, "experiment": experiment}),
        ("stacking", {"lattice": {"generator": "fibonacci_1d", "dim": 1,
                                  "length": fib_len},
                      "model": SSH, "index": index, "experiment": experiment}),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    calls: Callable[..., list]  # (seed, smoke=False) -> [(command, config)]
    default_seed: int
    held_out_seed: int | None  # None: the inputs do not depend on the seed

    def input_seed(self, seed: int) -> int:
        return 0 if self.held_out_seed is None else seed % REF_SEEDS

    def ref_seeds(self) -> range:
        return range(1 if self.held_out_seed is None else REF_SEEDS)


WORKLOADS = {w.name: w for w in (
    Workload("amorphous_chern", amorphous_chern, default_seed=1, held_out_seed=7),
    Workload("periodic_robustness", periodic_robustness, default_seed=0, held_out_seed=6),
    Workload("chain_stacking", chain_stacking, default_seed=0, held_out_seed=None),
)}


def load_expected(name: str) -> dict:
    return json.loads((EXPECTED / f"{name}.json").read_text())


def _key(record: dict):
    """(index, status) of one operation: a record of the report.

    The stacking control record stands for one operation whose (index,
    status) is its integers and verdict.
    """
    if record.get("stage") == "control":
        return record.get("integers"), record.get("verdict")
    return record.get("index"), record.get("status")


def compare(got, want, path: str = "") -> list:
    """Paths where got differs from want.

    Strings, booleans, None and integers must match exactly; a value that
    is a float on either side matches within REL_TOL (ABS_TOL floor).
    Bytes are never compared: BLAS threading moves the last digits.
    """
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [path or "/"]
        return [p for k in sorted(want) for p in compare(got[k], want[k], f"{path}/{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [path or "/"]
        return [p for i, (g, w) in enumerate(zip(got, want))
                for p in compare(g, w, f"{path}/{i}")]
    numeric = (int, float)
    if (isinstance(want, numeric) and isinstance(got, numeric)
            and not isinstance(want, bool) and not isinstance(got, bool)
            and (isinstance(want, float) or isinstance(got, float))):
        ok = math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    else:
        ok = type(got) is type(want) and got == want
    return [] if ok else [path or "/"]


def check_report(got: dict | None, want: dict) -> tuple[int, int, list]:
    """(attempted, failed, mismatching paths) of one call's report.

    An operation fails when its (index, status) differs from the expected
    report; a missing report fails every operation.
    """
    ops = want["records"]
    if got is None:
        return len(ops), len(ops), ["report missing"]
    got_ops = got["records"] if isinstance(got.get("records"), list) else []
    failed = sum(1 for k, w in enumerate(ops)
                 if k >= len(got_ops) or _key(got_ops[k]) != _key(w))
    return len(ops), failed, compare(got, want)
