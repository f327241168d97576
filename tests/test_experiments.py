import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from delonetop import cli, experiments
from delonetop.errors import InvalidInput
from delonetop.experiments import (build_lattice, run_omega_independence,
                                   run_quantization, run_robustness,
                                   run_stacking)
from delonetop.geometry import gen_periodic, translate
from delonetop.groupoid import BlockOperator, builtin_model, represent
from delonetop.index import (kappa_stability, localizer_index_even,
                             localizer_index_odd, position_dirac)
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


def test_build_lattice_rejects_what_its_generator_does_not_read():
    # A cut-and-project set has its own dimension, which a config may name
    # (as the benchmark's chain does), and no window.
    fib = build_lattice({"generator": "fibonacci_1d", "length": 20.0})
    same = build_lattice({"generator": "fibonacci_1d", "dim": 1, "length": 20.0})
    assert np.array_equal(fib.points, same.points)
    with pytest.raises(InvalidInput, match="'fibonacci_1d' makes 1D sets, not 2D"):
        build_lattice({"generator": "fibonacci_1d", "dim": 2})
    with pytest.raises(InvalidInput, match="'ammann_beenker_2d' makes 2D sets, not 1D"):
        build_lattice({"generator": "ammann_beenker_2d", "dim": 1})
    for cfg, key in (({"generator": "fibonacci_1d", "window": [0.0, 100.0]}, "window"),
                     ({"generator": "ammann_beenker_2d", "length": 4.0}, "length"),
                     ({"max_disp": 0.1}, "max_disp"),
                     ({"generator": "hardcore_random", "spacing": 2.0}, "spacing")):
        with pytest.raises(InvalidInput, match=f"key '{key}' does not apply to generator"):
            build_lattice(cfg)


def test_seeds_are_read_by_quantization_alone(monkeypatch):
    # build_lattice makes one set from one seed; run_quantization strips seeds
    # before it builds each window, and every other driver rejects them
    # before any solve instead of silently running seed 0.
    with pytest.raises(InvalidInput, match="only run_quantization reads seeds"):
        build_lattice({"window": [0.0, 6.0], "seeds": [3, 4]})
    monkeypatch.setattr(experiments, "represent", _no_eigensolve)
    lattice = {"window": [0.0, 12.0], "seeds": [3, 4]}
    for run in (lambda: run_robustness(lattice, CHERN, KAPPAS),
                lambda: run_omega_independence(lattice, CHERN, KAPPAS),
                lambda: run_stacking({**lattice, "dim": 1}, SSH, KAPPAS)):
        with pytest.raises(InvalidInput, match="only run_quantization reads seeds"):
            run()


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


@pytest.mark.parametrize("lattice, model, integer", [
    ({"window": [0.0, 12.0]}, CHERN, 1),
    ({"generator": "hardcore_random", "window": [0.0, 14.0], "min_dist": 0.8,
      "target_R": 1.2, "seed": 1}, CHERN, 1),
    ({"generator": "periodic", "dim": 1, "window": [0.0, 34.0]}, SSH, -1),
], ids=["periodic", "amorphous", "ssh"])
def test_quantization_default_kappa_finds_the_phase(lattice, model, integer):
    # No kappa_list: one kappa, the gap width over the window radius.  A
    # tenth of it read a reliable 0 on both Chern windows.
    rep = run_quantization(lattice, model)
    assert rep.passed
    assert rep.summary["integers"] == [integer]
    sites = build_lattice(lattice)
    (rec,) = rep.records
    assert rec["kappa"] == pytest.approx(rec["gap"] / sites.window_radius, rel=1e-12)


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


def test_stacking_multiplicity_check_catches_an_inter_layer_entry(monkeypatch):
    # One wrong entry (with its adjoint) between chain site 17 of layers 0
    # and 1 merges the two layers into one component of the stacked
    # operator, whose spectrum is then not the chain's repeated.
    stack_operator = experiments.stack_operator

    def miswired(T, L):
        S = stack_operator(T, L)
        p, q = 17 * len(L), 17 * len(L) + 1
        wrong = np.full((S.block_dim, S.block_dim), 0.3)
        return BlockOperator(S.sites, S.block_dim, np.r_[S.rows, p, q],
                             np.r_[S.cols, q, p], np.concatenate([S.blocks, [wrong, wrong]]))

    monkeypatch.setattr(experiments, "stack_operator", miswired)
    rep = run_stacking({"generator": "periodic", "dim": 1, "window": [0.0, 34.0]},
                       SSH, {"kappa_list": [0.1]},
                       experiment={"stack_window": [0.0, 5.0], "control": False})
    assert rep.summary["winding"] == rep.summary["winding_oracle"] == -1
    assert rep.summary["multiplicity_residual"] > 1e-9
    assert not rep.passed


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


def test_stacking_rejects_a_stack_set_without_a_window_before_any_solve(monkeypatch):
    # The cut-and-project generators are sized by length or radius: stacking
    # over one fails on its window before the chain is represented.
    represented = []
    monkeypatch.setattr(experiments, "represent", lambda *args: represented.append(args))
    for generator in ("fibonacci_1d", "ammann_beenker_2d"):
        with pytest.raises(InvalidInput, match=f"'window' does not apply to generator "
                                               f"'{generator}'"):
            run_stacking({"generator": "periodic", "dim": 1, "window": [0.0, 20.0]}, SSH,
                         KAPPAS, experiment={"stack_generator": generator,
                                             "control": False})
    assert represented == []


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


OMEGA_WINDOWS = {
    "periodic": ({"window": [0.0, 12.0]}, CHERN, {"kappa_list": [0.15]}),
    "amorphous": ({"generator": "hardcore_random", "window": [0.0, 14.0],
                   "min_dist": 0.8, "target_R": 1.2, "seed": 1}, CHERN,
                  {"kappa_list": [0.15]}),
    "ssh": ({"generator": "periodic", "dim": 1, "window": [0.0, 50.0]}, SSH,
            {"kappa_list": [0.1]}),
}


@pytest.mark.parametrize("name", list(OMEGA_WINDOWS))
def test_omega_x0_at_a_site_is_the_recentred_window_at_0(name):
    # Covariance oracle: each record of the one-window run equals the
    # pattern recentred at its site (translate, then represent and solve it
    # again) evaluated at x0 = 0.
    lattice, model, index_cfg = OMEGA_WINDOWS[name]
    rep = run_omega_independence(lattice, model, index_cfg,
                                 experiment={"base_sites": 5})
    assert rep.passed and len(rep.records) == 5
    sites = build_lattice(lattice)
    f, mu_policy = experiments._model_from_cfg(model)
    for rec in rep.records:
        x = sites.points[rec["site"]]
        assert rec["x0"] == list(x)
        omega = translate(sites, x)
        Hs = represent(f, omega).to_sparse()
        evs = scipy.linalg.eigvalsh(Hs.toarray())
        mu, gap = experiments._mu_gap(evs, mu_policy, f.grading)
        kappas = experiments._kappa_list(index_cfg, gap, omega, evs)[:1]
        dirac = position_dirac(omega, np.zeros(sites.dim), f.N)
        (res,), _ = kappa_stability(Hs, mu, dirac, kappas, f.grading, None, evs)
        assert (rec["index"], rec["status"]) == (res.index, res.status)
        for key, want in (("margin", res.margin), ("half_signature", res.half_signature),
                          ("gap", gap.width), ("kappa", res.kappa), ("mu", res.mu)):
            assert rec[key] == pytest.approx(want, rel=1e-9, abs=1e-12), key


def test_omega_gap_closed_window_records_every_site():
    rep = run_omega_independence({"window": [0.0, 12.0]},
                                 {"name": "nn_laplacian", "dim": 2, "mu": 0.0},
                                 experiment={"base_sites": 3})
    assert not rep.passed
    assert [r["status"] for r in rep.records] == ["gap_closed"] * 3
    assert len({r["error"] for r in rep.records}) == 1
    assert rep.summary["indices"] == [None] * 3
    assert "spectrum" in rep.artifacts


@pytest.mark.parametrize("base_sites, message", [
    (-2, "count must be at least 1"),
    (0, "count must be at least 1"),
    (True, "must be a count or a non-empty list"),
    ([], "must be a count or a non-empty list"),
    ("84", "must be a count or a non-empty list"),
    ([84, 84], "names a site more than once"),
    ([84.9], "base site 84.9 is not an int index"),
    ([84.0], "base site 84.0 is not an int index"),
    ([True], "base site True is not an int index"),
], ids=["negative", "zero", "bool", "empty", "str", "repeated", "fraction", "float",
        "bool-index"])
def test_omega_base_sites_are_checked_before_any_solve(monkeypatch, base_sites, message):
    monkeypatch.setattr(experiments, "represent", _no_eigensolve)
    with pytest.raises(InvalidInput, match=message):
        run_omega_independence({"window": [0.0, 12.0]}, CHERN, KAPPAS,
                               experiment={"base_sites": base_sites})


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
    # eig_hermitian (MRRR, from 1000 rows) must hand LAPACK a Fortran-ordered
    # buffer it may overwrite; a C-ordered one, or overwrite_a=False, costs an
    # m x m copy.  (The even localizer makes no dense LAPACK call at all.)
    calls = []

    def spy(name, fn):
        def wrapped(a, *args, **kwargs):
            calls.append((name, a.shape[0], a.flags.f_contiguous,
                          kwargs.get("overwrite_a", False)))
            return fn(a, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(scipy.linalg, "eigh", spy("eigh", scipy.linalg.eigh))

    n = 1000
    H = np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
    eig_hermitian(H)

    assert [c[:2] for c in calls] == [("eigh", n)]
    assert all(f_contiguous and overwrite for _, _, f_contiguous, overwrite in calls)


def test_drivers_never_densify_a_block_operator(monkeypatch, tmp_path):
    # H lives as one CSR matrix from represent on; its only dense forms are
    # eigensolver buffers, so no driver calls BlockOperator.to_dense.
    def forbidden(self):
        raise AssertionError("BlockOperator.to_dense called")

    monkeypatch.setattr(BlockOperator, "to_dense", forbidden)
    small, window = {"window": [0.0, 6.0]}, {"window": [0.0, 10.0]}
    assert run_quantization(window, CHERN, {"kappa_list": [0.15]}).passed
    assert run_robustness(small, CHERN, {"kappa_list": [0.1]},
                          experiment={"n_trials": 2}).passed
    assert run_omega_independence(window, CHERN, {"kappa_list": [0.15]},
                                  experiment={"base_sites": 1}).passed
    chain = {"dim": 1, "window": [0.0, 20.0]}
    assert run_stacking(chain, SSH, {"kappa_list": [0.1]},
                        experiment={"stack_window": [0.0, 3.0],
                                    "control": False}).passed
    cfg = tmp_path / "spectrum.ini"
    cfg.write_text("[lattice]\nwindow = [0.0, 6.0]\n")
    assert cli.main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0


def test_quantization_allocation_bound():
    # The 23^2 periodic Chern window, m = 1152: the whole run, from
    # represent to the report, holds ~2.13 m x m complex arrays at its peak
    # (the eigensolver's buffer and its eigenvectors), 2.3 at most.  A dense
    # H kept beside them, as before H was held sparse, read 3.10.
    m = 1152
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        rep = run_quantization({"window": [0.0, 23.0]}, CHERN, {"kappa_list": [0.1]})
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert rep.passed and rep.records[0]["n_sites"] * 2 == m
    assert peak <= 2.3 * m * m * 16, f"peak {peak / (m * m * 16):.2f} m x m arrays"
