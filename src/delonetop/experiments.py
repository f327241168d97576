"""Theorem-level experiments as reproducible seeded runs.

Each run_* function builds the requested point set and Hamiltonian, computes
the localizer index with its oracles, and returns an ExperimentReport whose
verdict is recomputable from its records.  Reports are pure functions of
(config, seeds): trials use deterministic per-trial seeds and a fixed
collection order, so the serialized report is byte-identical for any worker
count.

The base window, every perturbed trial and every recentred window pair H
with the position spectral triple through the same two steps: _mu_gap
resolves mu and the gap (a trial passes the base mu as its policy), and
_localize runs index.kappa_stability with the configured margin_min, which
also judges the stacked window of run_stacking.  The dimension d of the
point set picks the pairing: even d the even pairing (class A: Chern
localizer, Kitaev and FHS oracles), odd d the odd pairing, which needs the
model's chiral grading (class AIII: winding localizer and oracle).  A model
is chiral iff it carries a grading; its mu is pinned to 0 and its gap is
the symmetric one around 0.  Every
default of the drivers and of the CLI lives in DEFAULTS (config sections)
and EXPERIMENT_DEFAULTS (the [experiment] keys of each subcommand).  The
robustness, stacking and omega drivers take the CLI's [experiment] section
as one dict, merge it over EXPERIMENT_DEFAULTS of their subcommand and echo
the run it makes; the CLI passes the section through unchanged.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import GapUndefined, InvalidInput
from .geometry import (DeloneSet, gen_cut_and_project, gen_hardcore_random,
                       gen_periodic, gen_perturbed_lattice, translate)
from .groupoid import (BlockOperator, HoppingFunction, bloch_hamiltonian,
                       builtin_model, represent, stack_operator)
from .index import (IndexResult, PositionDirac, angular_sectors,
                    bloch_chern_fhs, bloch_winding, chiral_bloch_block,
                    kappa_stability, kitaev_chern, localizer_index_even,
                    localizer_index_odd, position_dirac)
from .roe import random_perturbation
from .spectral import (GapInfo, eig_hermitian, fermi_projection, largest_gap,
                       spectral_gap, symmetric_gap)

__all__ = [
    "ExperimentReport",
    "build_lattice",
    "run_quantization",
    "run_robustness",
    "run_stacking",
    "run_omega_independence",
]

_LARGEST_GAP = "largest-gap"

DEFAULTS = {
    "lattice": {"generator": "periodic", "seed": 0},
    "model": {"name": "chern_2band_2d", "mu": _LARGEST_GAP},
    "index": {"kappa_list": [], "x0": "center"},
}
EXPERIMENT_DEFAULTS = {
    "robustness": {"n_trials": 30, "master_seed": 0, "strength_rel": 0.2,
                   "range": 2.0, "symmetry": "none"},
    "stacking": {"stack_generator": "periodic", "stack_window": [0.0, 8.0],
                 "stack_seed": 0, "control": True, "control_window": [0.0, 12.0]},
    "omega": {"base_sites": 5},
}

# fraction of the smallest window half-extent used for the Kitaev sector disk
SECTOR_RADIUS_FRAC = 0.45
# fraction of the window radius that base points must keep from the boundary
BOUNDARY_MARGIN_FRAC = 0.25
# a perturbed gap below this fraction of the base gap counts as closed
GAP_FLOOR_FRAC = 0.1

FHS_GRID = 16
WINDING_SAMPLES = 512


@dataclass
class ExperimentReport:
    """Inputs echo, per-trial records, and a verdict recomputable from them.

    artifacts holds bulky arrays (spectra, site sets) for file emission and
    timings holds wall-clock stage durations; neither enters the JSON body,
    which must be a pure function of (config, seeds).
    """

    experiment: str
    inputs: dict
    records: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    passed: bool = False
    artifacts: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "inputs": self.inputs,
            "records": self.records,
            "summary": self.summary,
            "verdict": "pass" if self.passed else "fail",
        }


def _pmap(fn, items, workers: int = 1):
    """Ordered map over an executor.

    Even single-worker runs go through the pool so every trial computes in
    the same threading context regardless of the worker count.
    """
    items = list(items)
    if not items:
        return []
    with ThreadPoolExecutor(max_workers=max(1, int(workers))) as ex:
        return list(ex.map(fn, items))


# ---------------------------------------------------------------------------
# Config materialization
# ---------------------------------------------------------------------------

def _window_pair(spec, dim: int):
    arr = np.asarray(spec, dtype=float)
    if arr.ndim == 0:
        arr = np.array([0.0, float(arr)])
    if arr.ndim == 1:
        if arr.shape != (2,):
            raise InvalidInput("window must be [lo, hi] or one pair per axis")
        arr = np.tile(arr, (dim, 1))
    if arr.shape != (dim, 2):
        raise InvalidInput(f"window must have one [lo, hi] pair per axis (dim {dim})")
    return arr[:, 0].copy(), arr[:, 1].copy()


def build_lattice(cfg: dict) -> DeloneSet:
    """Construct the point set described by a lattice config section."""
    cfg = {**DEFAULTS["lattice"], **cfg}
    gen = cfg["generator"]
    seed = int(cfg["seed"])
    if gen == "fibonacci_1d":
        length = float(cfg.get("length", 30.0))
        return gen_cut_and_project("fibonacci_1d", ([0.0], [length]))
    if gen == "ammann_beenker_2d":
        r = float(cfg.get("radius", 8.0))
        return gen_cut_and_project("ammann_beenker_2d", ([-r, -r], [r, r]))
    if gen not in ("periodic", "perturbed_lattice", "hardcore_random"):
        raise InvalidInput(f"unknown lattice generator {gen!r}")
    dim = int(cfg.get("dim", 2))
    window = _window_pair(cfg.get("window", [0.0, 12.0]), dim)
    if gen == "hardcore_random":
        return gen_hardcore_random(window,
                                   float(cfg.get("min_dist", 0.8)),
                                   float(cfg.get("target_R", 1.2)),
                                   seed,
                                   max_attempts=int(cfg.get("max_attempts", 100_000)))
    basis = float(cfg.get("spacing", 1.0)) * np.eye(dim)
    if gen == "periodic":
        return gen_periodic(basis, window)
    return gen_perturbed_lattice(basis, window, float(cfg.get("max_disp", 0.1)), seed)


def _model_from_cfg(model_cfg: dict) -> tuple[HoppingFunction, object]:
    cfg = {**DEFAULTS["model"], **model_cfg}
    name = cfg.pop("name")
    mu_policy = cfg.pop("mu")
    return builtin_model(name, **cfg), mu_policy


def _resolve_mu(evs: np.ndarray, mu_policy, grading) -> float:
    """The number a mu policy names.  The one string policy, 'largest-gap',
    is the centre of the widest gap, or for a chiral model (grading not
    None) the symmetry point 0 the pairing is pinned to."""
    if not isinstance(mu_policy, str):
        return float(mu_policy)
    if mu_policy != _LARGEST_GAP:
        raise InvalidInput(f"mu must be a number or {_LARGEST_GAP!r}, got {mu_policy!r}")
    return 0.0 if grading is not None else largest_gap(evs).center


def _mu_gap(evs: np.ndarray, mu_policy, grading) -> tuple[float, GapInfo]:
    """mu and the spectral gap around it, for a model with this chiral
    grading.  A chiral model's gap is measured around 0 after filtering
    machine-zero boundary modes; GapUndefined propagates."""
    mu = _resolve_mu(evs, mu_policy, grading)
    if grading is not None:
        return mu, symmetric_gap(evs)[0]
    return mu, spectral_gap(evs, mu)


def _localize(H, mu: float, dirac, kappas, grading, index_cfg: dict, evs):
    """The kappa sweep of one window: kappa_stability with the configured
    margin_min.  The localizer names imported here are passed in, so
    instrumentation that rebinds them (perfbench/tracer.py) sees every call."""
    return kappa_stability(
        H, mu, dirac, kappas, grading, index_cfg.get("margin_min"), evs,
        even=localizer_index_even, odd=localizer_index_odd)


def _resolve_x0(index_cfg: dict, sites: DeloneSet) -> np.ndarray:
    spec = index_cfg.get("x0", DEFAULTS["index"]["x0"])
    if isinstance(spec, str):
        if spec != "center":
            raise InvalidInput(f"x0 must be 'center' or coordinates, got {spec!r}")
        return sites.window_center
    return np.asarray(spec, dtype=float)


def _default_kappa(gap: GapInfo, sites: DeloneSet, evs: np.ndarray) -> float:
    width = gap.width
    if not np.isfinite(width):
        width = float(evs[-1] - evs[0]) if evs.size else 1.0
    return 0.1 * width / max(sites.window_radius, 1e-9)


def _kappa_list(index_cfg: dict, gap: GapInfo, sites: DeloneSet, evs: np.ndarray):
    kl = index_cfg.get("kappa_list")
    if kl:
        return [float(k) for k in kl]
    return [_default_kappa(gap, sites, evs)]


def _min_half_extent(sites: DeloneSet) -> float:
    lo, hi = sites.window
    return float((hi - lo).min() / 2.0)


def _interior_mask(sites: DeloneSet, margin: float) -> np.ndarray:
    lo, hi = sites.window
    return np.all((sites.points - lo >= margin) & (hi - sites.points >= margin), axis=1)


# ---------------------------------------------------------------------------
# Single-window pipeline shared by the experiment drivers
# ---------------------------------------------------------------------------

@dataclass
class _BaseRun:
    sites: DeloneSet
    H: BlockOperator
    evs: np.ndarray
    mu: float
    gap: GapInfo
    x0: np.ndarray
    dirac: PositionDirac
    kappas: list
    results: list
    plateau: bool
    oracles: dict


def _base_pipeline(sites: DeloneSet, f: HoppingFunction, mu_policy, index_cfg: dict,
                   periodic_basis=None) -> _BaseRun:
    """Represent, locate the gap, attach the oracles, sweep the localizer.

    H is densified once.  The three-sector oracle, the only reader of
    eigenvectors, runs straight after the eigensolve; from then on only the
    eigenvalues are kept, so no eigenvector matrix is alive during the
    kappa sweep.
    """
    H = represent(f, sites)
    Hd = H.to_dense()
    hdata = eig_hermitian(Hd)
    evs = hdata.eigenvalues
    mu, gap = _mu_gap(evs, mu_policy, f.grading)
    x0 = _resolve_x0(index_cfg, sites)

    oracles: dict = {}
    if sites.dim == 2:
        radius = float(index_cfg.get("sector_radius",
                                     SECTOR_RADIUS_FRAC * _min_half_extent(sites)))
        sectors = angular_sectors(sites, x0, radius, f.N,
                                  theta0=float(index_cfg.get("sector_theta0", 0.0)))
        oracles["kitaev"] = kitaev_chern(fermi_projection(hdata, mu), sectors)
    del hdata

    dirac = position_dirac(sites, x0, f.N)
    kappas = _kappa_list(index_cfg, gap, sites, evs)
    results, plateau = _localize(Hd, mu, dirac, kappas, f.grading, index_cfg, evs)
    if periodic_basis is not None:
        hk = bloch_hamiltonian(f, periodic_basis)
        if sites.dim == 2:
            oracles["bloch"] = bloch_chern_fhs(hk, mu, int(index_cfg.get("fhs_grid", FHS_GRID)))
        else:
            ak = chiral_bloch_block(hk, f.grading)
            oracles["bloch"] = bloch_winding(ak, int(index_cfg.get("winding_samples",
                                                                   WINDING_SAMPLES)))
    return _BaseRun(sites, H, evs, mu, gap, x0, dirac, kappas,
                    results, plateau, oracles)


def _periodic_basis(sites: DeloneSet):
    if sites.metadata.get("generator") != "periodic":
        return None
    return np.asarray(sites.metadata["basis"])


def _result_record(res: IndexResult, **extra) -> dict:
    rec = res.as_dict()
    rec.update(extra)
    return rec


def _onsite_potential(H: BlockOperator) -> np.ndarray:
    out = np.zeros(len(H.sites))
    diag = H.rows == H.cols
    out[H.rows[diag]] = np.trace(H.blocks[diag], axis1=1, axis2=2).real / H.block_dim
    return out


def _stash_artifacts(report: ExperimentReport, base: _BaseRun) -> None:
    report.artifacts["sites"] = base.sites
    report.artifacts["onsite"] = _onsite_potential(base.H)
    report.artifacts["spectrum"] = np.asarray(base.evs)


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def run_quantization(lattice_cfg: dict, model_cfg: dict,
                     index_cfg: dict | None = None,
                     workers: int = 1) -> ExperimentReport:
    """Localizer index with oracle cross-checks, over one or more seeds.

    Passes iff every seed yields a reliable kappa-plateau, all seeds share
    one integer, the three-sector value sits within 0.1 of it, and the Bloch
    oracle (periodic lattices) returns the same integer.
    """
    index_cfg = dict(index_cfg or {})
    t0 = time.perf_counter()
    seeds = list(lattice_cfg.get("seeds")
                 or [int(lattice_cfg.get("seed", DEFAULTS["lattice"]["seed"]))])
    report = ExperimentReport(
        "quantization",
        dict(lattice=dict(lattice_cfg), model=dict(model_cfg), index=index_cfg,
             experiment={"seeds": seeds}),
    )

    f, mu_policy = _model_from_cfg(model_cfg)

    def one_seed(seed: int):
        sites = build_lattice({**lattice_cfg, "seed": seed})
        try:
            base = _base_pipeline(sites, f, mu_policy, index_cfg,
                                  periodic_basis=_periodic_basis(sites))
        except GapUndefined as err:
            return seed, None, [{"seed": seed, "status": "gap_closed",
                                 "error": str(err)}], None
        records = [
            _result_record(res, seed=seed, gap=base.gap.width, n_sites=len(sites))
            for res in base.results
        ]
        integer = base.results[0].index if base.plateau else None
        return seed, base, records, integer

    outcomes = _pmap(one_seed, seeds, workers)
    integers, kitaevs, blochs = [], [], []
    ok = True
    for seed, base, records, integer in outcomes:
        report.records.extend(records)
        if base is None or not base.plateau or integer is None:
            ok = False
            continue
        integers.append(integer)
        if "kitaev" in base.oracles:
            kitaevs.append(base.oracles["kitaev"])
            if abs(base.oracles["kitaev"] - integer) > 0.1:
                ok = False
        if "bloch" in base.oracles:
            blochs.append(base.oracles["bloch"])
            if base.oracles["bloch"] != integer:
                ok = False
    if not integers or len(set(integers)) != 1:
        ok = False

    report.summary = {
        "integers": integers,
        "kitaev": kitaevs,
        "bloch": blochs,
        "seeds": seeds,
    }
    report.passed = ok
    first_base = next((b for _, b, _, _ in outcomes if b is not None), None)
    if first_base is not None:
        _stash_artifacts(report, first_base)
    report.timings["total"] = time.perf_counter() - t0
    return report


def run_robustness(lattice_cfg: dict, model_cfg: dict,
                   index_cfg: dict | None = None, experiment: dict | None = None,
                   workers: int = 1) -> ExperimentReport:
    """Gap-preserving random perturbations must reproduce the base integer.

    Each trial adds a controlled Hermitian block perturbation; trials whose
    gap at mu drops below GAP_FLOOR_FRAC of the base width are recorded as
    gap_closed and excluded.  Passes iff the base run is reliable and every
    included trial returns exactly the base integer.  The perturbation's
    symmetry, "none" or "chiral" (noise anticommuting with the model's
    grading), is resolved before any solve.  An absolute strength overrides
    strength_rel (a fraction of the base gap).
    """
    index_cfg = dict(index_cfg or {})
    exp = {**EXPERIMENT_DEFAULTS["robustness"], **(experiment or {})}
    n_trials, master_seed = int(exp["n_trials"]), int(exp["master_seed"])
    pert = {k: exp[k] for k in ("strength", "strength_rel", "range", "symmetry")
            if k in exp}
    t0 = time.perf_counter()
    report = ExperimentReport(
        "robustness",
        dict(lattice=dict(lattice_cfg), model=dict(model_cfg), index=index_cfg,
             experiment={"n_trials": n_trials, "perturbation": pert,
                         "master_seed": master_seed}),
    )
    sites = build_lattice(lattice_cfg)
    f, mu_policy = _model_from_cfg(model_cfg)
    symmetry = exp["symmetry"]
    if symmetry not in ("none", "chiral"):
        raise InvalidInput(f"unknown symmetry {symmetry!r}")
    if symmetry == "chiral" and f.grading is None:
        raise InvalidInput("chiral symmetry needs the on-site grading")
    noise_grading = f.grading if symmetry == "chiral" else None
    base = _base_pipeline(sites, f, mu_policy, index_cfg)
    base_int = base.results[0].index if base.plateau else None
    report.records.append(_result_record(
        base.results[0], trial="base",
        seed=int(lattice_cfg.get("seed", DEFAULTS["lattice"]["seed"])),
        gap=base.gap.width))
    if base_int is None:
        report.summary = {"base_index": None, "note": "base run unreliable"}
        report.passed = False
        _stash_artifacts(report, base)
        report.timings["total"] = time.perf_counter() - t0
        return report

    strength = (float(exp["strength"]) if "strength" in exp
                else float(exp["strength_rel"]) * base.gap.width)
    prange = float(exp["range"])
    gap_floor = GAP_FLOOR_FRAC * base.gap.width
    Hd = base.H.to_dense()

    def one_trial(t: int) -> dict:
        seed = int(np.random.SeedSequence([master_seed, t]).generate_state(1)[0])
        V = random_perturbation(sites, prange, strength, f.N, grading=noise_grading,
                                seed=seed)
        # Equal bit for bit to base.H.add(V).to_dense().  Not overwritten by
        # eigvalsh: the localizer reads Hp afterwards.
        Hp = Hd + V.to_dense()
        evs = scipy.linalg.eigvalsh(Hp)
        try:
            _, gap = _mu_gap(evs, base.mu, f.grading)
        except GapUndefined:
            return {"trial": t, "seed": seed, "index": None, "margin": 0.0,
                    "gap": 0.0, "status": "gap_closed"}
        if gap.width < gap_floor:
            return {"trial": t, "seed": seed, "index": None, "margin": 0.0,
                    "gap": gap.width, "status": "gap_closed"}
        (res,), _ = _localize(Hp, base.mu, base.dirac, base.kappas[:1],
                              f.grading, index_cfg, evs)
        return _result_record(res, trial=t, seed=seed, gap=gap.width)

    trials = _pmap(one_trial, range(n_trials), workers)
    report.records.extend(trials)
    included = [r for r in trials if r["status"] != "gap_closed"]
    excluded = len(trials) - len(included)
    agree = all(r["status"] == "ok" and r["index"] == base_int for r in included)
    report.passed = bool(included) and agree
    report.summary = {
        "base_index": base_int,
        "included": len(included),
        "excluded_gap_closed": excluded,
        "strength": strength,
        "range": prange,
        "agreeing": sum(1 for r in included
                        if r["status"] == "ok" and r["index"] == base_int),
    }
    _stash_artifacts(report, base)
    report.timings["total"] = time.perf_counter() - t0
    return report


def run_stacking(chain_lattice_cfg: dict, model_cfg: dict,
                 index_cfg: dict | None = None, experiment: dict | None = None,
                 workers: int = 1) -> ExperimentReport:
    """A nonzero 1D winding must die when stacked along a second direction.

    Runs the odd localizer on the chain, stacks the operator over the 1D set
    L that the stack_* keys describe, and computes the 2D even index of the
    stacked operator at the same mu.  Passes iff the chain winding is
    nonzero (and matches the Bloch oracle of the periodic reference), the
    stacked index is exactly 0 across the kappa plateau, and the stacked
    spectrum is the chain spectrum repeated |L| times to 1e-9.  With control
    true, a genuine 2D Chern model runs for contrast (its nonzero index is
    reported, not required): the default model at mu = 0 on a periodic 2D
    control_window, with the chain's kappas (0.1 when it has none).  A chain
    that is not 1D or a model without a chiral grading is rejected before
    any solve.
    """
    index_cfg = dict(index_cfg or {})
    exp = {**EXPERIMENT_DEFAULTS["stacking"], **(experiment or {})}
    stack_cfg = {"generator": exp["stack_generator"], "dim": 1,
                 "window": exp["stack_window"], "seed": int(exp["stack_seed"])}
    for key in ("min_dist", "target_R"):
        if f"stack_{key}" in exp:
            stack_cfg[key] = exp[f"stack_{key}"]
    control_cfg = None
    if exp["control"]:
        control_cfg = {
            "lattice": {"generator": "periodic", "dim": 2, "window": exp["control_window"]},
            "model": {"name": DEFAULTS["model"]["name"], "mu": 0.0},
            "index": {"kappa_list": index_cfg.get("kappa_list") or [0.1]},
        }
    t0 = time.perf_counter()
    report = ExperimentReport(
        "stacking",
        dict(lattice=dict(chain_lattice_cfg), model=dict(model_cfg),
             index=index_cfg,
             experiment={"stack": stack_cfg, "control": control_cfg}),
    )

    chain = build_lattice(chain_lattice_cfg)
    f, mu_policy = _model_from_cfg(model_cfg)
    if chain.dim != 1 or f.grading is None:
        raise InvalidInput("stacking needs a chiral 1D model")
    # The winding oracle of an aperiodic chain is that of the unit chain.
    basis = _periodic_basis(chain)
    base = _base_pipeline(chain, f, mu_policy, index_cfg,
                          periodic_basis=np.eye(1) if basis is None else basis)
    winding = base.results[0].index if base.plateau else None
    ref_oracle = base.oracles["bloch"]
    for res in base.results:
        report.records.append(_result_record(res, stage="chain", gap=base.gap.width))

    L = build_lattice(stack_cfg)
    stacked = stack_operator(base.H, L)
    Sd = stacked.to_dense()
    evs_stacked = scipy.linalg.eigvalsh(Sd)
    expected = np.sort(np.repeat(base.evs, len(L)))
    mult_resid = float(np.abs(evs_stacked - expected).max()) if evs_stacked.size else 0.0

    x0_2d = stacked.sites.window_center
    dirac2 = position_dirac(stacked.sites, x0_2d, stacked.block_dim)
    stacked_results, _ = _localize(Sd, base.mu, dirac2, base.kappas,
                                   f.grading, index_cfg, evs_stacked)
    for res in stacked_results:
        report.records.append(_result_record(res, stage="stacked"))
    stacked_valid = [r.index for r in stacked_results if r.status == "ok"]
    stacked_zero = (bool(stacked_valid) and set(stacked_valid) == {0}
                    and len(stacked_valid) == len(stacked_results))

    control_summary = None
    if control_cfg:
        control = run_quantization(control_cfg["lattice"], control_cfg["model"],
                                   control_cfg["index"], workers=workers)
        control_summary = control.summary
        report.records.append({"stage": "control",
                               "verdict": "pass" if control.passed else "fail",
                               **{k: v for k, v in control.summary.items()}})

    report.passed = (winding is not None and winding != 0
                     and winding == ref_oracle
                     and stacked_zero and mult_resid <= 1e-9)
    report.summary = {
        "winding": winding,
        "winding_oracle": ref_oracle,
        "stacked_indices": [r.index for r in stacked_results],
        "multiplicity_residual": mult_resid,
        "stack_size": len(L),
        "control": control_summary,
    }
    report.artifacts["sites"] = stacked.sites
    report.artifacts["onsite"] = _onsite_potential(stacked)
    report.artifacts["spectrum"] = evs_stacked
    report.timings["total"] = time.perf_counter() - t0
    return report


def run_omega_independence(lattice_cfg: dict, model_cfg: dict,
                           index_cfg: dict | None = None,
                           experiment: dict | None = None,
                           workers: int = 1,
                           collect_artifacts: bool = False) -> ExperimentReport:
    """The index must not depend on the transversal point.

    For each chosen interior site x the pattern is recentred (omega = Lambda
    - x), the Hamiltonian rebuilt by covariance, and the localizer evaluated
    at x0 = 0.  Passes iff all integers agree and are reliable.  base_sites
    is either a count (picked evenly over interior sites) or a list of site
    indices; indices too close to the boundary raise InvalidInput.
    """
    index_cfg = dict(index_cfg or {})
    base_sites = {**EXPERIMENT_DEFAULTS["omega"], **(experiment or {})}["base_sites"]
    t0 = time.perf_counter()
    report = ExperimentReport(
        "omega_independence",
        dict(lattice=dict(lattice_cfg), model=dict(model_cfg), index=index_cfg,
             experiment={"base_sites": base_sites}),
    )
    sites = build_lattice(lattice_cfg)
    f, mu_policy = _model_from_cfg(model_cfg)
    margin = f.R_f + BOUNDARY_MARGIN_FRAC * sites.window_radius
    interior = np.flatnonzero(_interior_mask(sites, margin))
    if isinstance(base_sites, int):
        if interior.size == 0:
            raise InvalidInput("no interior sites at the required boundary margin")
        pick = np.unique(np.linspace(0, interior.size - 1,
                                     min(base_sites, interior.size)).round().astype(int))
        chosen = [int(interior[i]) for i in pick]
    else:
        chosen = [int(i) for i in base_sites]
        for i in chosen:
            if not 0 <= i < len(sites):
                raise InvalidInput(f"base site {i} out of range")
            if i not in set(interior.tolist()):
                raise InvalidInput(f"base site {i} is too close to the window boundary")

    def one_site(i: int) -> dict:
        omega = translate(sites, sites.points[i])
        H = represent(f, omega).to_dense()
        evs = scipy.linalg.eigvalsh(H)
        try:
            mu, gap = _mu_gap(evs, mu_policy, f.grading)
        except GapUndefined as err:
            return {"site": i, "status": "gap_closed", "error": str(err)}
        kappas = _kappa_list(index_cfg, gap, omega, evs)[:1]
        dirac = position_dirac(omega, np.zeros(sites.dim), f.N)
        (res,), _ = _localize(H, mu, dirac, kappas, f.grading, index_cfg, evs)
        return _result_record(res, site=i, gap=gap.width)

    records = _pmap(one_site, chosen, workers)
    report.records.extend(records)
    indices = [r.get("index") for r in records]
    ok = (bool(records)
          and all(r.get("status") == "ok" for r in records)
          and len(set(indices)) == 1 and indices[0] is not None)
    report.passed = ok
    report.summary = {
        "sites": chosen,
        "indices": indices,
        "weak_evidence": len(chosen) < 2,
    }
    if collect_artifacts:
        H0 = represent(f, sites)
        report.artifacts["sites"] = sites
        report.artifacts["onsite"] = _onsite_potential(H0)
        report.artifacts["spectrum"] = scipy.linalg.eigvalsh(H0.to_dense())
    report.timings["total"] = time.perf_counter() - t0
    return report
