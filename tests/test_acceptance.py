"""Acceptance gate: one test per release criterion, at full stated scale.

Each test computes every subcondition of its criterion, records a single
PASS/FAIL line (shown in the terminal summary), and asserts the verdict.
The per-module suites cover the fine-grained behavior; this file pins the
headline guarantees at the tolerances they are promised at.
"""

import json
import time

import numpy as np

from conftest import ACCEPTANCE_LINES
from delonetop.clifford import build_rep, spanning_rank, verify_relations
from delonetop.cli import main
from delonetop.experiments import (run_omega_independence, run_quantization,
                                   run_robustness, run_stacking)
from delonetop.geometry import (DeloneSet, gen_hardcore_random, gen_periodic,
                                gen_perturbed_lattice, local_pattern,
                                union_pointsets)
from delonetop.groupoid import bloch_hamiltonian, builtin_model, represent
from delonetop.index import (bloch_chern_fhs, kappa_stability, position_dirac)
from delonetop.roe import (covering_embed, position_commutator,
                           subset_injection, support_stats)
from delonetop.spectral import eig_hermitian

CHERN = {"name": "chern_2band_2d", "M": 1.0, "mu": 0.0}
SSH = {"name": "chiral_ssh_1d", "t1": 0.5, "t2": 1.0}


def record(name: str, ok: bool, detail: str = "") -> None:
    line = f"{name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------

def test_criterion_1_clifford_relations_exact():
    t0 = time.perf_counter()
    worst = 0.0
    for total in range(1, 9):
        for p in range(total + 1):
            worst = max(worst, verify_relations(build_rep(p, total - p)).max_residual)
    rank = spanning_rank(build_rep(1, 1))
    elapsed = time.perf_counter() - t0
    ok = worst == 0.0 and rank == 4 and elapsed < 10.0
    record("criterion 1 - Clifford relations exact for p+q <= 8, Cl(1,1) rank 4",
           ok, f"max residual {worst!r}, rank {rank}, {elapsed:.1f}s")


def test_criterion_2_dirac_spectrum_on_random_windows():
    rng = np.random.default_rng(42)
    worst = 0.0
    for t in range(20):
        d = (t % 3) + 1
        kind = ("periodic", "perturbed", "hardcore")[(t // 3) % 3]
        hi = float(rng.integers(*{1: (8, 25), 2: (4, 9), 3: (2, 4)}[d]))
        window = (np.zeros(d), np.full(d, hi))
        if kind == "periodic":
            sites = gen_periodic(np.eye(d), window)
        elif kind == "perturbed":
            sites = gen_perturbed_lattice(np.eye(d), window, 0.2, seed=100 + t)
        else:
            sites = gen_hardcore_random(window, 0.9, 1.4, seed=100 + t)
        x0 = rng.uniform(0.0, hi, size=d)
        N = 1 + t % 2
        D = position_dirac(sites, x0, block_dim=N).matrix
        got = np.sort(np.linalg.eigvalsh(D))
        r = np.linalg.norm(sites.points - x0, axis=1)
        mult = N * 2 ** (d - 1)
        expected = np.sort(np.concatenate([np.repeat(-r, mult), np.repeat(r, mult)]))
        worst = max(worst, float(np.abs(got - expected).max()))
    ok = worst <= 1e-9
    record("criterion 2 - Dirac spectrum {+-|x-x0|}, multiplicity N*2^(d-1), "
           "20 random windows", ok, f"max deviation {worst:.2e}")


def test_criterion_3_matrix_element_and_commutator_laws():
    cases = {
        "nn_laplacian": (builtin_model("nn_laplacian", dim=2),
                         gen_periodic(np.eye(2), ([0.0, 0.0], [8.0, 8.0]))),
        "dimer_chain_1d": (builtin_model("dimer_chain_1d", t1=0.7),
                           gen_periodic(np.eye(1), ([0.0], [40.0]))),
        "chiral_ssh_1d": (builtin_model("chiral_ssh_1d", t1=0.5, t2=1.0),
                          gen_periodic(np.eye(1), ([0.0], [40.0]))),
        "chern_2band_2d": (builtin_model("chern_2band_2d", M=1.0),
                           gen_hardcore_random(([0.0, 0.0], [10.0, 10.0]),
                                               0.8, 1.2, seed=2)),
    }
    rng = np.random.default_rng(7)
    exact = True
    for name, (f, omega) in cases.items():
        H = represent(f, omega)
        n = len(omega)
        for _ in range(200):
            i, j = int(rng.integers(n)), int(rng.integers(n))
            a = omega.points[j] - omega.points[i]
            if np.linalg.norm(a) > f.R_f:
                expected = np.zeros((f.N, f.N))
            else:
                pat = local_pattern(omega, i, max(f.rho_f, 1e-9))
                expected = np.asarray(f.kernel(pat, a)).reshape(f.N, f.N)
            exact &= bool(np.array_equal(H.block(i, j), expected))
        for axis in range(omega.dim):
            C = position_commutator(H, axis)
            coords = omega.points[:, axis]
            for _ in range(200):
                i, j = int(rng.integers(n)), int(rng.integers(n))
                expected = (coords[j] - coords[i]) * H.block(i, j)
                exact &= bool(np.array_equal(C.block(i, j), expected))
    record("criterion 3 - matrix-element and position-commutator laws exact, "
           "200 probes per model", exact)


def test_criterion_4_quantization_periodic_and_amorphous():
    t0 = time.perf_counter()
    omega = gen_periodic(np.eye(2), ([0.0, 0.0], [24.0, 24.0]))
    f = builtin_model("chern_2band_2d", M=1.0)
    H = represent(f, omega)
    spec = eig_hermitian(H.to_dense())
    hnorm = float(np.abs(spec.eigenvalues).max())
    dirac = position_dirac(omega, omega.window_center, block_dim=2)
    results, plateau = kappa_stability(H, 0.0, dirac, [0.05, 0.1, 0.2], hdata=spec)
    fhs = bloch_chern_fhs(bloch_hamiltonian(f, np.eye(2)), 0.0, n=16)
    elapsed = time.perf_counter() - t0
    periodic_ok = (plateau and elapsed < 300.0
                   and all(r.status == "ok" and r.index == 1
                           and r.margin > 1e-3 * hnorm for r in results)
                   and fhs == 1)

    rep = run_quantization({"generator": "hardcore_random", "window": [0.0, 27.0],
                            "min_dist": 0.8, "target_R": 1.2, "seeds": [1, 2, 3]},
                           CHERN, {"kappa_list": [0.1]})
    kit_dev = max(abs(k - i) for k, i in zip(rep.summary["kitaev"],
                                             rep.summary["integers"]))
    amorphous_ok = (rep.passed and rep.summary["integers"] == [1, 1, 1]
                    and kit_dev <= 0.1)

    record("criterion 4 - localizer = Bloch Chern = 1 on 24x24 periodic "
           "(margin > 1e-3*|H|, kappa-plateau) and on ~800-site amorphous x3 seeds",
           periodic_ok and amorphous_ok,
           f"margins {[round(r.margin, 3) for r in results]}, "
           f"periodic {elapsed:.0f}s, kitaev dev {kit_dev:.1e}")


def test_criterion_5_robustness_30_perturbations():
    rep = run_robustness({"window": [0.0, 16.0]}, CHERN, {"kappa_list": [0.1]},
                         experiment={"n_trials": 30, "strength_rel": 0.2,
                                     "range": 2.0, "master_seed": 0},
                         workers=2)
    s = rep.summary
    ok = (rep.passed and s["base_index"] == 1
          and s["included"] + s["excluded_gap_closed"] == 30
          and s["agreeing"] == s["included"])
    record("criterion 5 - 30 gap-preserving perturbations (0.2*gap, range 2) "
           "reproduce the base integer",
           ok, f"agreeing {s['agreeing']}/{s['included']}, "
               f"gap-closed exclusions {s['excluded_gap_closed']}")


def test_criterion_6_stacked_phase_is_weak():
    ok = True
    details = []
    for tag, lattice in (("periodic",
                          {"generator": "periodic", "dim": 1, "window": [0.0, 34.0]}),
                         ("fibonacci",
                          {"generator": "fibonacci_1d", "length": 48.0})):
        rep = run_stacking(lattice, SSH, {"kappa_list": [0.05, 0.1, 0.2]},
                           experiment={"stack_window": [0.0, 7.0], "control": False})
        s = rep.summary
        ok &= (rep.passed and abs(s["winding"]) == 1
               and s["winding"] == s["winding_oracle"]
               and s["stacked_indices"] == [0, 0, 0]
               and s["multiplicity_residual"] <= 1e-9)
        details.append(f"{tag}: winding {s['winding']}, stacked {s['stacked_indices']}, "
                       f"mult resid {s['multiplicity_residual']:.1e}")
    record("criterion 6 - chain winding +-1 matches Bloch oracle; stacked 2D "
           "index 0 across plateau; spectrum multiplicity |L| to 1e-9",
           ok, "; ".join(details))


def test_criterion_7_omega_independence():
    per = run_omega_independence({"window": [0.0, 12.0]}, CHERN,
                                 index_cfg={"kappa_list": [0.15]},
                                 experiment={"base_sites": 5})
    amo = run_omega_independence({"generator": "hardcore_random",
                                  "window": [0.0, 14.0], "min_dist": 0.8,
                                  "target_R": 1.2, "seed": 1}, CHERN,
                                 index_cfg={"kappa_list": [0.15]},
                                 experiment={"base_sites": 5})
    ok = True
    for rep in (per, amo):
        idx = rep.summary["indices"]
        ok &= rep.passed and len(idx) >= 5 and len(set(idx)) == 1
    ok = ok and per.summary["indices"][0] == amo.summary["indices"][0] == 1
    record("criterion 7 - index agrees at >= 5 interior transversal points, "
           "periodic and amorphous",
           ok, f"periodic {per.summary['indices']}, amorphous {amo.summary['indices']}")


def test_criterion_8_coarse_invariance_of_conjugation():
    base = gen_periodic(np.eye(2), ([0.0, 0.0], [8.0, 8.0]))
    lo, hi = base.window
    offset = DeloneSet(2, base.points + 0.5, base.r_pack, base.R_cov,
                       (lo, hi + 0.5))
    Y = union_pointsets(base, offset)
    T = represent(builtin_model("chern_2band_2d", M=1.0), base)
    S = covering_embed(T, Y, subset_injection(base, Y))
    a, b = support_stats(T), support_stats(S)
    stats_exact = (a.propagation == b.propagation and a.nnz_blocks == b.nnz_blocks
                   and a.schur_row == b.schur_row and a.schur_col == b.schur_col)
    ev_t = np.linalg.eigvalsh(T.to_dense())
    ev_s = np.linalg.eigvalsh(S.to_dense())
    nz_t = np.sort(ev_t[np.abs(ev_t) > 1e-9])
    nz_s = np.sort(ev_s[np.abs(ev_s) > 1e-9])
    spec_dev = (float(np.abs(nz_t - nz_s).max())
                if nz_t.size == nz_s.size else np.inf)
    ok = stats_exact and spec_dev <= 1e-9
    record("criterion 8 - covering conjugation preserves propagation and Schur "
           "norms exactly, nonzero spectrum to 1e-9",
           ok, f"spectrum deviation {spec_dev:.2e}")


def test_criterion_9_byte_identical_reports(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("""\
[lattice]
generator = periodic
dim = 2
window = [0.0, 10.0]

[model]
name = chern_2band_2d
M = 1.0
mu = 0.0

[index]
kappa_list = [0.15]
""", encoding="utf-8")
    blobs = []
    for workers in (1, 2, 8):
        out = tmp_path / f"w{workers}"
        code = main(["quantization", "--config", str(cfg), "--out", str(out),
                     "--workers", str(workers)])
        assert code == 0
        blobs.append((out / "report.json").read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2]
    detail = f"{len(blobs[0])} bytes"
    if ok:
        verdict = json.loads(blobs[0])["verdict"]
        detail += f", verdict {verdict}"
        ok = verdict == "pass"
    record("criterion 9 - report.json byte-identical for worker counts 1, 2, 8",
           ok, detail)
