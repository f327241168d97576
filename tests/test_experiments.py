import numpy as np
import pytest
import scipy.linalg

from delonetop import experiments
from delonetop.errors import InvalidInput
from delonetop.experiments import (build_lattice, run_omega_independence,
                                   run_quantization, run_robustness,
                                   run_stacking)
from delonetop.geometry import gen_periodic
from delonetop.groupoid import builtin_model, represent
from delonetop.index import (localizer_index_even, localizer_index_odd,
                             position_dirac)
from delonetop.spectral import eig_hermitian

CHERN = {"name": "chern_2band_2d", "M": 1.0, "mu": 0.0}
SSH = {"name": "chiral_ssh_1d", "t1": 0.5, "t2": 1.0}
KAPPAS = {"kappa_list": [0.1, 0.2]}


# ---------------------------------------------------------------------------
# lattice config dispatch
# ---------------------------------------------------------------------------

def test_build_lattice_defaults_to_periodic_square():
    sites = build_lattice({})
    assert sites.dim == 2
    assert len(sites) == 169


def test_build_lattice_window_forms():
    assert len(build_lattice({"window": 4.0})) == 25
    assert len(build_lattice({"window": [0.0, 4.0]})) == 25
    assert len(build_lattice({"window": [[0.0, 4.0], [0.0, 2.0]]})) == 15
    with pytest.raises(InvalidInput):
        build_lattice({"window": [0.0, 1.0, 2.0]})


def test_build_lattice_generators_dispatch():
    pert = build_lattice({"generator": "perturbed_lattice", "window": 6.0,
                          "max_disp": 0.2, "seed": 5})
    assert pert.r_pack == pytest.approx(0.3)
    again = build_lattice({"generator": "perturbed_lattice", "window": 6.0,
                           "max_disp": 0.2, "seed": 5})
    assert np.array_equal(pert.points, again.points)

    hc = build_lattice({"generator": "hardcore_random", "window": 8.0,
                        "min_dist": 0.8, "target_R": 1.2, "seed": 1})
    assert hc.r_pack == pytest.approx(0.4)

    fib = build_lattice({"generator": "fibonacci_1d", "length": 20.0})
    assert (fib.dim, len(fib)) == (1, 15)

    ab = build_lattice({"generator": "ammann_beenker_2d", "radius": 4.0})
    assert ab.dim == 2 and len(ab) > 0

    with pytest.raises(InvalidInput):
        build_lattice({"generator": "penrose"})


def test_model_config_errors_surface_as_invalid_input():
    with pytest.raises(InvalidInput):
        run_quantization({}, {"name": "kagome"})
    with pytest.raises(InvalidInput):
        run_quantization({}, {"name": "chern_2band_2d", "mass": 1.0})


# ---------------------------------------------------------------------------
# quantization driver
# ---------------------------------------------------------------------------

def test_quantization_chern_window_passes_with_both_oracles():
    rep = run_quantization({"window": [0.0, 12.0]}, CHERN, KAPPAS)
    assert rep.passed
    assert rep.summary["integers"] == [1]
    assert rep.summary["bloch"] == [1]
    assert rep.summary["kitaev"][0] == pytest.approx(0.9852608024113896, abs=1e-9)
    assert abs(rep.summary["kitaev"][0] - 1.0) <= 0.1
    assert {r["status"] for r in rep.records} == {"ok"}
    assert rep.as_dict()["verdict"] == "pass"


def test_quantization_ssh_chain_uses_winding_oracle():
    rep = run_quantization({"generator": "periodic", "dim": 1,
                            "window": [0.0, 60.0]}, SSH, {"kappa_list": [0.1]})
    assert rep.passed
    assert rep.summary["integers"] == [-1]
    assert rep.summary["bloch"] == [-1]
    assert rep.summary["kitaev"] == []


def test_quantization_gap_closure_is_recorded_not_raised():
    rep = run_quantization({"window": [0.0, 12.0]},
                           {"name": "nn_laplacian", "dim": 2, "mu": 0.0})
    assert not rep.passed
    assert rep.records[0]["status"] == "gap_closed"
    assert rep.summary["integers"] == []
    assert rep.as_dict()["verdict"] == "fail"


def test_quantization_multi_seed_amorphous():
    rep = run_quantization({"generator": "hardcore_random", "window": [0.0, 14.0],
                            "min_dist": 0.8, "target_R": 1.2, "seeds": [1, 2]},
                           CHERN, {"kappa_list": [0.15]})
    assert rep.summary["seeds"] == [1, 2]
    assert len(rep.summary["integers"]) == 2
    assert len(set(rep.summary["integers"])) == 1


def test_quantization_report_is_deterministic_across_workers():
    kw = ({"window": [0.0, 10.0]}, CHERN, {"kappa_list": [0.15]})
    a = run_quantization(*kw, workers=1).as_dict()
    b = run_quantization(*kw, workers=4).as_dict()
    assert a == b


# ---------------------------------------------------------------------------
# robustness driver
# ---------------------------------------------------------------------------

def test_robustness_zero_strength_reproduces_base():
    rep = run_robustness({"window": [0.0, 10.0]}, CHERN, KAPPAS,
                         experiment={"n_trials": 3, "strength": 0.0})
    assert rep.passed
    assert rep.summary == {"base_index": 1, "included": 3,
                           "excluded_gap_closed": 0, "strength": 0.0,
                           "range": 2.0, "agreeing": 3}


def test_robustness_gap_preserving_perturbations_pass():
    rep = run_robustness({"window": [0.0, 10.0]}, CHERN, KAPPAS,
                         experiment={"n_trials": 6, "strength_rel": 0.2,
                                     "master_seed": 1})
    assert rep.passed
    assert rep.summary["base_index"] == 1
    assert rep.summary["agreeing"] == rep.summary["included"] == 6
    assert rep.summary["strength"] == pytest.approx(0.2 * 0.2046273799082779,
                                                    rel=1e-9)
    trial_recs = [r for r in rep.records if r["trial"] != "base"]
    assert len(trial_recs) == 6
    assert all(r["gap"] > 0 for r in trial_recs)


def test_robustness_excessive_strength_fails_honestly():
    rep = run_robustness({"window": [0.0, 10.0]}, CHERN, KAPPAS,
                         experiment={"n_trials": 6, "strength_rel": 5.0,
                                     "master_seed": 3})
    assert not rep.passed
    assert rep.summary["agreeing"] < rep.summary["included"] \
        or rep.summary["excluded_gap_closed"] > 0


def test_robustness_chiral_class_perturbations():
    rep = run_robustness({"generator": "periodic", "dim": 1, "window": [0.0, 60.0]},
                         SSH, {"kappa_list": [0.1]},
                         experiment={"n_trials": 5, "strength_rel": 0.2,
                                     "symmetry": "chiral", "master_seed": 2})
    assert rep.passed
    assert rep.summary["base_index"] == -1
    assert rep.summary["agreeing"] == 5


def _no_eigensolve(*args, **kwargs):
    raise AssertionError("an eigensolve ran before the input check")


def test_robustness_chiral_noise_needs_a_chiral_model(monkeypatch):
    # chern_2band_2d carries no chiral grading to draw anticommuting noise for.
    with pytest.raises(InvalidInput, match="grading"):
        run_robustness({"window": [0.0, 10.0]}, CHERN, KAPPAS,
                       experiment={"n_trials": 2, "symmetry": "chiral"})
    # The symmetry string is resolved before the base run: no eigensolve
    # runs first, and a base run left unreliable by margin_min = 1e6 does
    # not skip the check.
    monkeypatch.setattr(experiments, "eig_hermitian", _no_eigensolve)
    unreliable = {**KAPPAS, "margin_min": 1e6}
    with pytest.raises(InvalidInput, match="unknown symmetry 'weird'"):
        run_robustness({"window": [0.0, 10.0]}, CHERN, unreliable,
                       experiment={"n_trials": 2, "symmetry": "weird"})
    with pytest.raises(InvalidInput, match="chiral symmetry needs the on-site grading"):
        run_robustness({"window": [0.0, 10.0]}, CHERN, unreliable,
                       experiment={"n_trials": 2, "symmetry": "chiral"})


def test_robustness_master_seed_determinism():
    kw = dict(experiment={"n_trials": 4, "strength_rel": 0.2, "master_seed": 7})
    a = run_robustness({"window": [0.0, 10.0]}, CHERN, KAPPAS, **kw).as_dict()
    b = run_robustness({"window": [0.0, 10.0]}, CHERN, KAPPAS, **kw, workers=3).as_dict()
    assert a == b
    c = run_robustness({"window": [0.0, 10.0]}, CHERN, KAPPAS,
                       experiment={"n_trials": 4, "strength_rel": 0.2,
                                   "master_seed": 8}).as_dict()
    assert [r["seed"] for r in c["records"]] != [r["seed"] for r in a["records"]]


def test_robustness_trials_honour_margin_min():
    # A margin_min between the smallest trial margin and the base margin
    # must leave the base reliable and mark the trials below it unreliable.
    kw = dict(experiment={"n_trials": 3, "strength_rel": 0.2})
    free = run_robustness({"window": [0.0, 6.0]}, CHERN, {"kappa_list": [0.1]}, **kw)
    base_margin = free.records[0]["margin"]
    trial_margins = [r["margin"] for r in free.records[1:]]
    assert min(trial_margins) < base_margin
    margin_min = 0.5 * (min(trial_margins) + base_margin)

    rep = run_robustness({"window": [0.0, 6.0]}, CHERN,
                         {"kappa_list": [0.1], "margin_min": margin_min}, **kw)
    assert rep.records[0]["status"] == "ok"
    assert [r["margin"] for r in rep.records[1:]] == trial_margins
    assert [r["status"] for r in rep.records[1:]] == [
        "ok" if m > margin_min else "unreliable" for m in trial_margins]
    assert not rep.passed


# ---------------------------------------------------------------------------
# stacking driver
# ---------------------------------------------------------------------------

def test_stacked_sweep_honours_margin_min():
    # margin_min = 0.48 lies above both kappa = 0.1 margins on this chain
    # (chain 0.4707, stacked 0.4733): both records must be unreliable.
    chain = {"generator": "periodic", "dim": 1, "window": [0.0, 30.0]}
    stack = {"stack_window": [0.0, 5.0], "control": False}
    free = run_stacking(chain, SSH, {"kappa_list": [0.1]}, experiment=stack)
    rep = run_stacking(chain, SSH, {"kappa_list": [0.1], "margin_min": 0.48},
                       experiment=stack)
    assert [r["stage"] for r in rep.records] == ["chain", "stacked"]
    assert [r["status"] for r in free.records] == ["ok", "ok"]
    assert [r["margin"] for r in rep.records] == [r["margin"] for r in free.records]
    assert all(r["margin"] < 0.48 for r in rep.records)
    assert [r["status"] for r in rep.records] == ["unreliable", "unreliable"]
    assert rep.summary["stacked_indices"] == [None]
    assert not rep.passed


def test_stacking_kills_the_winding():
    rep = run_stacking({"generator": "periodic", "dim": 1, "window": [0.0, 34.0]},
                       SSH, KAPPAS,
                       experiment={"stack_window": [0.0, 7.0], "control": False})
    assert rep.passed
    assert rep.summary["winding"] == -1
    assert rep.summary["winding"] == rep.summary["winding_oracle"]
    assert rep.summary["stacked_indices"] == [0, 0]
    assert rep.summary["multiplicity_residual"] <= 1e-9
    assert rep.summary["stack_size"] == 8
    stages = {r.get("stage") for r in rep.records}
    assert stages == {"chain", "stacked"}


def test_stacking_aperiodic_chain_uses_reference_oracle():
    rep = run_stacking({"generator": "fibonacci_1d", "length": 48.0}, SSH,
                       {"kappa_list": [0.1]},
                       experiment={"stack_window": [0.0, 5.0], "control": False})
    assert rep.passed
    assert rep.summary["winding"] == -1
    assert rep.summary["winding_oracle"] == -1
    assert rep.summary["stacked_indices"] == [0]


def test_stacking_rejects_even_models(monkeypatch):
    # Rejected before the chain's eigensolve: a 2D Chern chain and a 1D
    # model without a chiral grading.
    monkeypatch.setattr(experiments, "eig_hermitian", _no_eigensolve)
    with pytest.raises(InvalidInput, match="stacking needs a chiral 1D model"):
        run_stacking({"window": [0.0, 8.0]}, CHERN)
    with pytest.raises(InvalidInput, match="stacking needs a chiral 1D model"):
        run_stacking({"generator": "periodic", "dim": 1, "window": [0.0, 8.0]},
                     {"name": "nn_laplacian", "dim": 1, "mu": 0.5})


def test_stacking_control_model_reports_nonzero():
    rep = run_stacking({"generator": "periodic", "dim": 1, "window": [0.0, 20.0]},
                       SSH, {"kappa_list": [0.1]},
                       experiment={"stack_window": [0, 4], "control_window": [0, 10]})
    assert rep.summary["control"]["integers"] == [1]
    control_recs = [r for r in rep.records if r.get("stage") == "control"]
    assert control_recs and control_recs[0]["verdict"] == "pass"


# ---------------------------------------------------------------------------
# transversal-independence driver
# ---------------------------------------------------------------------------

def test_omega_independence_interior_sites_agree():
    rep = run_omega_independence({"window": [0.0, 12.0]}, CHERN,
                                 index_cfg={"kappa_list": [0.15]}, experiment={"base_sites": 5})
    assert rep.passed
    assert rep.summary["indices"] == [1, 1, 1, 1, 1]
    assert rep.summary["weak_evidence"] is False
    assert len(rep.summary["sites"]) == 5


def test_omega_independence_odd_mode():
    rep = run_omega_independence({"generator": "periodic", "dim": 1,
                                  "window": [0.0, 50.0]}, SSH,
                                 index_cfg={"kappa_list": [0.1]}, experiment={"base_sites": 3})
    assert rep.passed
    assert rep.summary["indices"] == [-1, -1, -1]


def test_omega_independence_single_site_is_weak_evidence():
    rep = run_omega_independence({"window": [0.0, 12.0]}, CHERN,
                                 index_cfg={"kappa_list": [0.15]},
                                 experiment={"base_sites": [84]})
    assert rep.passed
    assert rep.summary["weak_evidence"] is True


def test_omega_independence_rejects_boundary_sites():
    with pytest.raises(InvalidInput):
        run_omega_independence({"window": [0.0, 12.0]}, CHERN,
                               experiment={"base_sites": [0]})
    with pytest.raises(InvalidInput):
        run_omega_independence({"window": [0.0, 12.0]}, CHERN,
                               experiment={"base_sites": [10**6]})


def test_omega_independence_worker_determinism():
    kw = dict(index_cfg={"kappa_list": [0.15]}, experiment={"base_sites": 4})
    a = run_omega_independence({"window": [0.0, 12.0]}, CHERN, **kw).as_dict()
    b = run_omega_independence({"window": [0.0, 12.0]}, CHERN, **kw,
                               workers=4).as_dict()
    assert a == b


# ---------------------------------------------------------------------------
# one BLAS pool
# ---------------------------------------------------------------------------

def test_window_sized_lapack_goes_through_scipy(monkeypatch):
    # NumPy and SciPy each bundle an OpenBLAS; alternating the two slows the
    # next solve, so window-sized eigh/eigvalsh/solve calls must all be SciPy's.
    sites = gen_periodic(np.eye(2), ([0.0, 0.0], [6.0, 6.0]))
    H = represent(builtin_model("chern_2band_2d", M=1.0), sites)
    dirac = position_dirac(sites, sites.window_center, block_dim=2)
    evs = np.linalg.eigh(H.to_dense())[0]

    def forbidden(*args, **kwargs):
        raise AssertionError("window-sized LAPACK call on NumPy's OpenBLAS")

    for name in ("eigh", "eigvalsh", "solve"):
        monkeypatch.setattr(np.linalg, name, forbidden)

    for hdata in (None, evs):
        assert localizer_index_even(H, 0.0, dirac, 0.1, hdata=hdata).index == 1

    chain = gen_periodic(np.eye(1), ([0.0], [40.0]))
    Hc = represent(builtin_model("chiral_ssh_1d", t1=0.5, t2=1.0), chain)
    dirac1 = position_dirac(chain, chain.window_center, block_dim=2)
    assert localizer_index_odd(Hc, dirac1, 0.1, np.diag([1.0, -1.0])).index == -1

    rep = run_robustness({"window": [0.0, 6.0]}, CHERN, {"kappa_list": [0.1]},
                         experiment={"n_trials": 3, "strength_rel": 0.2})
    assert rep.passed
    assert rep.summary["included"] == 3


def test_window_sized_lapack_overwrites_fortran_buffers(monkeypatch):
    # eig_hermitian (MRRR, from 1000 rows) and the Schur LU solve of the even
    # localizer must hand LAPACK a Fortran-ordered buffer it may overwrite;
    # a C-ordered one, or overwrite_a=False, costs an m x m copy.
    calls = []

    def spy(name, fn):
        def wrapped(a, *args, **kwargs):
            calls.append((name, a.shape[0], a.flags.f_contiguous,
                          kwargs.get("overwrite_a", False)))
            return fn(a, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(scipy.linalg, "eigh", spy("eigh", scipy.linalg.eigh))
    monkeypatch.setattr(scipy.linalg, "solve", spy("solve", scipy.linalg.solve))

    n = 1000
    H = np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
    eig_hermitian(H)
    sites = gen_periodic(np.eye(2), ([0.0, 0.0], [6.0, 6.0]))
    Hc = represent(builtin_model("chern_2band_2d", M=1.0), sites)
    dirac = position_dirac(sites, sites.window_center, block_dim=2)
    assert localizer_index_even(Hc, 0.0, dirac, 0.1).index == 1

    assert [c[:2] for c in calls] == [("eigh", n), ("solve", 98)]
    assert all(f_contiguous and overwrite for _, _, f_contiguous, overwrite in calls)
