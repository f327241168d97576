"""Theorem-level experiments as reproducible seeded runs.

Each run_* function builds the requested point set and Hamiltonian, computes
the localizer index with its oracles, and returns an ExperimentReport whose
verdict is recomputable from its records.  Reports are pure functions of
(config, seeds): trials use deterministic per-trial seeds and a fixed
collection order, so the serialized report is byte-identical for any worker
count.

Every command takes its window through one pipeline, _window: represent,
the spectrum, mu and the gap (_mu_gap, which a perturbed trial also calls
with the base mu), x0 and its Dirac, the kappas and the sweep (_localize,
index.kappa_stability with the configured margin_min, which also judges the
trials, the omega window at each site and the stacked window).  Only the
Kitaev oracle of run_quantization reads eigenvectors.  The dimension d of the
point set picks the pairing: even d the even pairing (class A: Chern
localizer, Kitaev and FHS oracles), odd d the odd pairing, which needs the
model's chiral grading (class AIII: winding localizer and oracle).  A model
is chiral iff it carries a grading; its mu is pinned to 0 and its gap is
the symmetric one around 0.  Every default of the drivers and of the
CLI lives here: DEFAULTS (config sections), LATTICE_DEFAULTS (the [lattice]
keys of each generator) and EXPERIMENT_DEFAULTS (the [experiment] keys of
each subcommand; those read without a default are OPTIONAL_EXPERIMENT_KEYS).
The robustness, stacking and omega drivers take the CLI's [experiment]
section as one dict, merge it over EXPERIMENT_DEFAULTS of their subcommand
and echo the run it makes; the CLI passes the section through unchanged.
One key rule, unread_key, names the first key a command's run does not
read: cli.load_config anchors its message at the key's line, and every
driver and build_lattice raise it as InvalidInput before any solve.
"""

from __future__ import annotations

import inspect
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import GapUndefined, InvalidInput
from .geometry import (DeloneSet, gen_cut_and_project, gen_hardcore_random,
                       gen_periodic, gen_perturbed_lattice)
from .groupoid import (BUILTIN_MODELS, BlockOperator, HoppingFunction,
                       bloch_hamiltonian, builtin_model, represent, stack_operator)
from .index import (IndexResult, PositionDirac, _components, angular_sectors,
                    bloch_chern_fhs, bloch_winding, chiral_bloch_block,
                    kappa_stability, kitaev_chern, localizer_index_even,
                    localizer_index_odd, position_dirac)
from .roe import random_perturbation
from .spectral import (GapInfo, eigenvalues, largest_gap, near_spectrum,
                       reduce_hermitian, spectral_gap, symmetric_gap)
# Not called here: perfbench/tracer.py wraps these two names on this module
# (getattr), so a traced run keeps its spectral.* spans.
from .spectral import eig_hermitian, fermi_projection  # noqa: F401

__all__ = [
    "ExperimentReport",
    "build_lattice",
    "run_quantization",
    "run_robustness",
    "run_stacking",
    "run_omega_independence",
    "unread_key",
]

_LARGEST_GAP = "largest-gap"

DEFAULTS = {
    "lattice": {"generator": "periodic", "seed": 0},
    "model": {"name": "chern_2band_2d", "mu": _LARGEST_GAP},
    "index": {"kappa_list": [], "x0": "center"},
}
# Each generator's [lattice] keys beyond EVERY_GENERATOR_KEYS, with their
# defaults.  A cut-and-project set has one dimension and no window.
LATTICE_DEFAULTS = {
    "periodic": {"dim": 2, "window": [0.0, 12.0], "spacing": 1.0},
    "perturbed_lattice": {"dim": 2, "window": [0.0, 12.0], "spacing": 1.0,
                          "max_disp": 0.1},
    "hardcore_random": {"dim": 2, "window": [0.0, 12.0], "min_dist": 0.8,
                        "target_R": 1.2, "max_attempts": 100_000},
    "fibonacci_1d": {"dim": 1, "length": 30.0},
    "ammann_beenker_2d": {"dim": 2, "radius": 8.0},
}
EVERY_GENERATOR_KEYS = ("generator", "seed", "seeds")
EXPERIMENT_DEFAULTS = {
    "robustness": {"n_trials": 30, "master_seed": 0, "strength_rel": 0.2,
                   "range": 2.0, "symmetry": "none"},
    "stacking": {"stack_generator": "periodic", "stack_window": [0.0, 8.0],
                 "stack_seed": 0, "control": True, "control_window": [0.0, 12.0]},
    "omega": {"base_sites": 5},
}
# The [experiment] keys a subcommand reads that have no default.
OPTIONAL_EXPERIMENT_KEYS = {"stacking": ("stack_min_dist", "stack_target_R")}
# The [index] keys every driver reads; margin_min has no default.
INDEX_KEYS = (*DEFAULTS["index"], "margin_min")
_COMMANDS = ("generate", "spectrum", "quantization", "robustness", "stacking", "omega")
# A model's keys and kinds: its factory's parameters and their annotations.
_MODEL_PARAMS = {
    name: {p.name: p.annotation.__name__
           for p in inspect.signature(factory, eval_str=True).parameters.values()}
    for name, factory in BUILTIN_MODELS.items()
}
_EXPERIMENT_KEYS = {c: {*EXPERIMENT_DEFAULTS.get(c, ()),
                        *OPTIONAL_EXPERIMENT_KEYS.get(c, ())} for c in _COMMANDS}
# A section whose keys depend on a choice (its model, its generator, the
# command): the key naming the choice, the phrase naming it, and the keys
# each choice reads; every command reads the same [index] keys, and read
# without a command, [experiment] takes the keys of every command.
_READS = {
    "model": ("name", "does not apply to model",
              {m: {*DEFAULTS["model"], *p} for m, p in _MODEL_PARAMS.items()}),
    "lattice": ("generator", "does not apply to generator",
                {g: {*EVERY_GENERATOR_KEYS, *d} for g, d in LATTICE_DEFAULTS.items()}),
    "index": (None, "in [index] does not apply to command",
              dict.fromkeys((None, *_COMMANDS), set(INDEX_KEYS))),
    "experiment": (None, "in [experiment] does not apply to command", {
        None: set().union(*_EXPERIMENT_KEYS.values()), **_EXPERIMENT_KEYS}),
}
# Keys of other sections that only some commands read (None: every key of
# the section): every other command runs one lattice seed, omega moves x0
# over its base_sites, generate reads no model and neither reads [index].
_COMMAND_KEYS = {("lattice", "seeds"): {"quantization"},
                 ("index", "x0"): set(_COMMANDS) - {"omega"},
                 ("model", None): set(_COMMANDS) - {"generate"},
                 ("index", None): set(_COMMANDS) - {"generate", "spectrum"}}

# fraction of the smallest window half-extent used for the Kitaev sector disk
SECTOR_RADIUS_FRAC = 0.45
# fraction of the window radius that base points must keep from the boundary
BOUNDARY_MARGIN_FRAC = 0.25
# a perturbed gap below this fraction of the base gap counts as closed
GAP_FLOOR_FRAC = 0.1


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

def unread_key(command: str | None, cfg: dict):
    """The first key of cfg ({section: {key: value}}) a run of command (None:
    any command) does not read, as (section, key, message), or None.  In
    order: an unknown model or generator, a key its section's model,
    generator or command does not read (_READS, then _COMMAND_KEYS), a
    cut-and-project dim other than the generator's own, and a stack_* key
    stack_generator does not read; cfg holds the key returned."""
    lattice = {**DEFAULTS["lattice"], **cfg.get("lattice", {})}
    choice = {"model": {**DEFAULTS["model"], **cfg.get("model", {})}["name"],
              "lattice": lattice["generator"], "index": command, "experiment": command}
    for sec, (choice_key, phrase, reads) in _READS.items():
        if choice[sec] not in reads:
            return sec, choice_key, f"unknown {sec} {choice_key} {choice[sec]!r}"
        for key in cfg.get(sec, ()):
            if key not in reads[choice[sec]]:
                return sec, key, f"key {key!r} {phrase} {choice[sec]!r}"
    for (sec, only), commands in _COMMAND_KEYS.items():
        if command in (None, *commands):
            continue
        for key in cfg.get(sec, ()):
            if only in (None, key):
                return sec, key, f"key {key!r} in [{sec}] does not apply to command {command!r}"
    own = LATTICE_DEFAULTS[lattice["generator"]]
    if "window" not in own and lattice.get("dim", own["dim"]) != own["dim"]:
        return "lattice", "dim", (f"generator {lattice['generator']!r} makes "
                                  f"{own['dim']}D sets, not {lattice['dim']}D")
    if command == "stacking":  # the stack set's keys against its generator
        exp = {**EXPERIMENT_DEFAULTS["stacking"], **cfg.get("experiment", {})}
        gen = exp["stack_generator"]
        for key in ("stack_window", *OPTIONAL_EXPERIMENT_KEYS["stacking"]):
            if key in exp and key.removeprefix("stack_") not in LATTICE_DEFAULTS.get(gen, ()):
                return ("experiment", key if key in cfg["experiment"] else "stack_generator",
                        f"key {key!r} does not apply to stack_generator {gen!r}")
    return None


def _driver_config(command: str, lattice_cfg, model_cfg, index_cfg,
                   experiment=None) -> tuple[dict, dict]:
    """index_cfg as a dict and experiment merged over EXPERIMENT_DEFAULTS of
    the command; the key unread_key finds is an InvalidInput."""
    index_cfg, experiment = dict(index_cfg or {}), dict(experiment or {})
    if unread := unread_key(command, {"lattice": lattice_cfg, "model": model_cfg,
                                      "index": index_cfg, "experiment": experiment}):
        raise InvalidInput(unread[2])
    return index_cfg, {**EXPERIMENT_DEFAULTS.get(command, {}), **experiment}


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
    """Construct the point set a lattice config section describes; a key
    unread_key rejects, or seeds (one set has one seed; run_quantization
    reads seeds), is an InvalidInput."""
    if unread := unread_key(None, {"lattice": cfg}):
        raise InvalidInput(unread[2])
    if "seeds" in cfg:
        raise InvalidInput("build_lattice builds one set from seed; only "
                           "run_quantization reads seeds")
    gen = cfg.get("generator", DEFAULTS["lattice"]["generator"])
    reads = LATTICE_DEFAULTS[gen]
    cfg = {**DEFAULTS["lattice"], **reads, **cfg}
    dim, seed = int(cfg["dim"]), int(cfg["seed"])
    if "window" not in reads:  # cut and project
        if gen == "fibonacci_1d":
            return gen_cut_and_project(gen, ([0.0], [float(cfg["length"])]))
        r = float(cfg["radius"])
        return gen_cut_and_project(gen, ([-r, -r], [r, r]))
    window = _window_pair(cfg["window"], dim)
    if gen == "hardcore_random":
        return gen_hardcore_random(window, float(cfg["min_dist"]),
                                   float(cfg["target_R"]), seed,
                                   max_attempts=int(cfg["max_attempts"]))
    basis = float(cfg["spacing"]) * np.eye(dim)
    if gen == "periodic":
        return gen_periodic(basis, window)
    return gen_perturbed_lattice(basis, window, float(cfg["max_disp"]), seed)


def _model_from_cfg(model_cfg: dict) -> tuple[HoppingFunction, object]:
    cfg = {**DEFAULTS["model"], **model_cfg}
    name = cfg.pop("name")
    mu_policy = cfg.pop("mu")
    return builtin_model(name, **cfg), mu_policy


def _mu_gap(evs: np.ndarray, mu_policy, grading) -> tuple[float, GapInfo]:
    """The mu a policy names and the spectral gap around it, for a model with
    this chiral grading.  The one string policy, 'largest-gap' (_window
    checks the form before any solve), names the centre of the widest gap,
    or for a chiral model the symmetry point 0 the pairing is pinned to; a
    chiral model's gap is measured around 0 after filtering machine-zero
    boundary modes.  GapUndefined propagates."""
    if isinstance(mu_policy, str):
        mu = 0.0 if grading is not None else largest_gap(evs).center
    else:
        mu = float(mu_policy)
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


def _kappa_list(index_cfg: dict, gap: GapInfo, sites: DeloneSet, evs: np.ndarray):
    """The configured kappa_list, by default [gap width / window radius rho].
    Loring & Schulz-Baldes (NYJM 2017) need rho >= 2 g / kappa, g the
    distance from mu to the spectrum; 2 g <= width, so the default meets it;
    a tenth of it reads a reliable-looking index 0 on the [0, 12]^2 to
    [0, 27]^2 Chern windows.  An unbounded gap uses the spectrum's width."""
    if index_cfg.get("kappa_list"):
        return [float(k) for k in index_cfg["kappa_list"]]
    width = gap.width
    if not np.isfinite(width):
        width = float(evs[-1] - evs[0]) if evs.size else 1.0
    return [width / max(sites.window_radius, 1e-9)]


def _interior_mask(sites: DeloneSet, margin: float) -> np.ndarray:
    lo, hi = sites.window
    return np.all((sites.points - lo >= margin) & (hi - sites.points >= margin), axis=1)


# ---------------------------------------------------------------------------
# The one window pipeline of every command
# ---------------------------------------------------------------------------

@dataclass
class _Window:
    """One window through _window: H, as a BlockOperator and as CSR, its
    spectrum, mu and the gap; given an index_cfg, also the Dirac at x0, the
    kappas and the sweep's results and plateau; kitaev is the three-sector
    value, None unless the caller reads it."""

    sites: DeloneSet
    H: BlockOperator
    Hs: object
    evs: np.ndarray
    mu: float
    gap: GapInfo
    dirac: PositionDirac | None = None
    kappas: list = field(default_factory=list)
    results: list = field(default_factory=list)
    plateau: bool = False
    kitaev: float | None = None


def _window(sites: DeloneSet, f: HoppingFunction, mu_policy, index_cfg: dict | None = None,
            kitaev: bool = False, report: ExperimentReport | None = None) -> _Window:
    """The one represent -> spectrum -> mu/gap -> x0/Dirac -> kappa path.

    Before represent, the mu policy's form is checked and, for a caller that
    reads x0 (index_cfg given), x0 is resolved into its PositionDirac, which
    checks its shape and finiteness.  H is held as one CSR matrix and its
    spectrum is spectral.eigenvalues of it, unless the caller reads the
    three-sector Kitaev oracle (kitaev, a 2D window): then the asserted
    spectral.reduce_hermitian, whose Fermi projection at the resolved mu
    forms only the occupied frame for kitaev_chern (and the two eigenvectors
    that bound the spectrum the run reads), all freed before the kappa
    sweep.  report, if given, keeps the sites and the spectrum as artifacts
    as soon as they exist, so a window whose gap closes at mu (GapUndefined
    propagates) still has them.  Without index_cfg (spectrum and omega,
    which read no x0) the run ends at the gap.
    """
    if isinstance(mu_policy, str) and mu_policy != _LARGEST_GAP:
        raise InvalidInput(f"mu must be a number or {_LARGEST_GAP!r}, got {mu_policy!r}")
    dirac = None if index_cfg is None else position_dirac(
        sites, _resolve_x0(index_cfg, sites), f.N)
    H = represent(f, sites)
    Hs = H.to_sparse()
    reduction = reduce_hermitian(Hs) if kitaev else None
    evs = eigenvalues(Hs) if reduction is None else reduction.eigenvalues
    if report is not None:
        _stash_artifacts(report, sites, evs)
    w = _Window(sites, H, Hs, evs, *_mu_gap(evs, mu_policy, f.grading), dirac)
    if reduction is not None:
        lo, hi = sites.window
        sectors = angular_sectors(sites, dirac.x0, SECTOR_RADIUS_FRAC * (hi - lo).min() / 2.0,
                                  f.N)
        w.kitaev = kitaev_chern(reduction.fermi_projection(w.mu), sectors)
        del reduction
    if index_cfg is not None:
        w.kappas = _kappa_list(index_cfg, w.gap, sites, evs)
        w.results, w.plateau = _localize(Hs, w.mu, dirac, w.kappas, f.grading, index_cfg, evs)
    return w


def _periodic_basis(sites: DeloneSet):
    if sites.metadata.get("generator") != "periodic":
        return None
    return np.asarray(sites.metadata["basis"])


def _bloch_oracle(f: HoppingFunction, basis, mu: float):
    """The Bloch oracle of the periodic set with this basis: the FHS Chern
    number at mu in 2D, the winding of the chiral block in 1D."""
    hk = bloch_hamiltonian(f, basis)
    if len(basis) == 2:
        return bloch_chern_fhs(hk, mu)
    return bloch_winding(chiral_bloch_block(hk, f.grading))


def _result_record(res: IndexResult, **extra) -> dict:
    rec = res.as_dict()
    rec.update(extra)
    return rec


def _stash_artifacts(report: ExperimentReport, sites, evs) -> None:
    report.artifacts["sites"] = sites
    report.artifacts["spectrum"] = np.asarray(evs)


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
    index_cfg, _ = _driver_config("quantization", lattice_cfg, model_cfg, index_cfg)
    t0 = time.perf_counter()
    seeds = list(lattice_cfg.get("seeds")
                 or [int(lattice_cfg.get("seed", DEFAULTS["lattice"]["seed"]))])
    report = ExperimentReport(
        "quantization",
        dict(lattice=dict(lattice_cfg), model=dict(model_cfg), index=index_cfg,
             experiment={"seeds": seeds}),
    )

    f, mu_policy = _model_from_cfg(model_cfg)
    one_set = {k: v for k, v in lattice_cfg.items() if k != "seeds"}

    def one_seed(seed: int):
        sites = build_lattice({**one_set, "seed": seed})
        try:
            w = _window(sites, f, mu_policy, index_cfg, kitaev=sites.dim == 2)
        except GapUndefined as err:
            return [{"seed": seed, "status": "gap_closed", "error": str(err)}], None, None
        basis = _periodic_basis(sites)
        return ([_result_record(res, seed=seed, gap=w.gap.width, n_sites=len(sites))
                 for res in w.results],
                w, None if basis is None else _bloch_oracle(f, basis, w.mu))

    outcomes = _pmap(one_seed, seeds, workers)
    integers, kitaevs, blochs = [], [], []
    ok = True
    for records, w, bloch in outcomes:
        report.records.extend(records)
        integer = w.results[0].index if w is not None and w.plateau else None
        if integer is None:
            ok = False
            continue
        integers.append(integer)
        if w.kitaev is not None:
            kitaevs.append(w.kitaev)
            if abs(w.kitaev - integer) > 0.1:
                ok = False
        if bloch is not None:
            blochs.append(bloch)
            if bloch != integer:
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
    first = next((w for _, w, _ in outcomes if w is not None), None)
    if first is not None:
        _stash_artifacts(report, first.sites, first.evs)
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
    grading), is resolved before any solve.  The noise strength is
    strength_rel times the base gap.  A trial solves only the spectrum it
    reads, spectral.near_spectrum of H + V around the base mu: the gap, the
    collision check and ||H + V - mu|| for the default margin_min.  The base
    window's whole spectrum is its eigenvalues alone (_window): no oracle of
    this run reads eigenvectors, and the trials add V to its CSR H.
    """
    index_cfg, exp = _driver_config("robustness", lattice_cfg, model_cfg, index_cfg,
                                    experiment)
    n_trials, master_seed = int(exp["n_trials"]), int(exp["master_seed"])
    pert = {k: exp[k] for k in ("strength_rel", "range", "symmetry")}
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
    base = _window(sites, f, mu_policy, index_cfg, report=report)
    base_int = base.results[0].index if base.plateau else None
    report.records.append(_result_record(
        base.results[0], trial="base",
        seed=int(lattice_cfg.get("seed", DEFAULTS["lattice"]["seed"])),
        gap=base.gap.width))
    if base_int is None:
        report.summary = {"base_index": None, "note": "base run unreliable"}
        report.passed = False
        report.timings["total"] = time.perf_counter() - t0
        return report

    strength = float(exp["strength_rel"]) * base.gap.width
    prange = float(exp["range"])
    gap_floor = GAP_FLOOR_FRAC * base.gap.width

    def one_trial(t: int) -> dict:
        seed = int(np.random.SeedSequence([master_seed, t]).generate_state(1)[0])
        V = random_perturbation(sites, prange, strength, f.N, grading=noise_grading,
                                seed=seed)
        # Each stored entry equal bit for bit to base.H.add(V).to_sparse()'s.
        Hp = base.Hs + V.to_sparse()
        evs = near_spectrum(Hp, base.mu)
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
    spectrum, the union of the spectra of the stacked operator's connected
    components, is the chain spectrum repeated |L| times to 1e-9.  With control
    true, a genuine 2D Chern model runs for contrast (its nonzero index is
    reported, not required): the default model at mu = 0 on a periodic 2D
    control_window, with the chain's kappas (0.1 when it has none).  A chain
    that is not 1D, a model without a grading or a stack set build_lattice
    rejects fails before any solve.
    """
    index_cfg, exp = _driver_config("stacking", chain_lattice_cfg, model_cfg, index_cfg,
                                    experiment)
    stack_cfg = {"generator": exp["stack_generator"], "dim": 1,
                 "window": exp["stack_window"], "seed": int(exp["stack_seed"])}
    for key in OPTIONAL_EXPERIMENT_KEYS["stacking"]:
        if key in exp:
            stack_cfg[key.removeprefix("stack_")] = exp[key]
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
    L = build_lattice(stack_cfg)
    base = _window(chain, f, mu_policy, index_cfg)
    winding = base.results[0].index if base.plateau else None
    # The winding oracle of an aperiodic chain is that of the unit chain.
    basis = _periodic_basis(chain)
    ref_oracle = _bloch_oracle(f, np.eye(1) if basis is None else basis, base.mu)
    for res in base.results:
        report.records.append(_result_record(res, stage="chain", gap=base.gap.width))

    stacked = stack_operator(base.H, L)
    S = stacked.to_sparse()
    # S is block-diagonal over its components, one per layer unless an
    # entry couples layers: its spectrum is the union of theirs.
    coo = S.tocoo()
    evs_stacked = np.sort(np.concatenate(
        [eigenvalues(S[idx][:, idx])
         for idx in _components(S.shape[0], coo.row, coo.col)[1]]))
    expected = np.sort(np.repeat(base.evs, len(L)))
    mult_resid = float(np.abs(evs_stacked - expected).max()) if evs_stacked.size else 0.0

    x0_2d = stacked.sites.window_center
    dirac2 = position_dirac(stacked.sites, x0_2d, stacked.block_dim)
    stacked_results, _ = _localize(S, base.mu, dirac2, base.kappas,
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
    _stash_artifacts(report, stacked.sites, evs_stacked)
    report.timings["total"] = time.perf_counter() - t0
    return report


def run_omega_independence(lattice_cfg: dict, model_cfg: dict,
                           index_cfg: dict | None = None,
                           experiment: dict | None = None,
                           workers: int = 1) -> ExperimentReport:
    """The index must not depend on the transversal point.

    One window, x0 at each chosen site; the index at x0 = x on Lambda is the
    index at 0 on Lambda - x (represent is covariant), so the window goes
    once through _window, without x0, for its eigenvalues, mu, gap and
    artifacts, and x0 moves over the sites at its first kappa.  Passes iff
    all integers agree and are reliable.  base_sites is a count or a list
    of site indices (_chosen_sites).  A gap closed at mu makes every record
    gap_closed.
    """
    index_cfg, exp = _driver_config("omega", lattice_cfg, model_cfg, index_cfg, experiment)
    base_sites = exp["base_sites"]
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
    chosen = _chosen_sites(base_sites, len(sites), interior)

    try:
        w = _window(sites, f, mu_policy, report=report)
    except GapUndefined as err:
        records = [{"site": i, "status": "gap_closed", "error": str(err)} for i in chosen]
    else:
        kappas = _kappa_list(index_cfg, w.gap, sites, w.evs)[:1]

        def one_site(i: int) -> dict:
            dirac = position_dirac(sites, sites.points[i], f.N)
            (res,), _ = _localize(w.Hs, w.mu, dirac, kappas, f.grading, index_cfg, w.evs)
            return _result_record(res, site=i, gap=w.gap.width)

        records = _pmap(one_site, chosen, workers)
    report.records.extend(records)
    indices = [r.get("index") for r in records]
    report.passed = (all(r["status"] == "ok" for r in records)
                     and len(set(indices)) == 1 and indices[0] is not None)
    report.summary = {
        "sites": chosen,
        "indices": indices,
        "weak_evidence": len(chosen) < 2,
    }
    report.timings["total"] = time.perf_counter() - t0
    return report


def _chosen_sites(base_sites, n_sites: int, interior: np.ndarray) -> list:
    """The sites base_sites names: a count of at least 1 picks that many
    evenly over the interior sites, a non-empty list names distinct interior
    sites by int index.  Anything else raises InvalidInput."""
    def is_int(v):
        return isinstance(v, (int, np.integer)) and not isinstance(v, bool)

    if is_int(base_sites):
        if base_sites < 1:
            raise InvalidInput(f"base_sites count must be at least 1, got {base_sites}")
        if interior.size == 0:
            raise InvalidInput("no interior sites at the required boundary margin")
        pick = np.unique(np.linspace(0, interior.size - 1,
                                     min(base_sites, interior.size)).round().astype(int))
        return [int(interior[i]) for i in pick]
    if not isinstance(base_sites, (list, tuple)) or not base_sites:
        raise InvalidInput("base_sites must be a count or a non-empty list of site "
                           f"indices, got {base_sites!r}")
    inside = set(interior.tolist())
    for i in base_sites:
        if not is_int(i):
            raise InvalidInput(f"base site {i!r} is not an int index")
        if not 0 <= i < n_sites:
            raise InvalidInput(f"base site {i} out of range")
        if i not in inside:
            raise InvalidInput(f"base site {i} is too close to the window boundary")
    if len(set(base_sites)) != len(base_sites):
        raise InvalidInput(f"base_sites names a site more than once: {base_sites}")
    return [int(i) for i in base_sites]
