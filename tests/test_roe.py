import numpy as np
import pytest

from delonetop.errors import InvalidInput
from delonetop.geometry import (DeloneSet, box, gen_hardcore_random, gen_periodic,
                                union_pointsets)
from delonetop.groupoid import BlockOperator, builtin_model, represent
from delonetop.roe import (covering_embed, is_controlled, position_commutator,
                           random_perturbation, subset_injection,
                           summability_profile, support_stats)
from oracles import brute_neighbors, reference_random_perturbation


def z2(size):
    return gen_periodic(np.eye(2), ([0.0, 0.0], [float(size), float(size)]))


def nn_on(omega):
    return represent(builtin_model("nn_laplacian", dim=omega.dim), omega)


# ---------------------------------------------------------------------------
# support stats / controlledness
# ---------------------------------------------------------------------------

def test_identity_stats():
    s = support_stats(BlockOperator.identity(z2(4), 2))
    assert s.propagation == 0.0
    assert s.schur_row == 1.0
    assert s.schur_col == 1.0
    assert s.nnz_blocks == 25


def test_nn_laplacian_stats():
    s = support_stats(nn_on(z2(8)))
    assert s.propagation == 1.0
    assert s.schur_row == 4.0
    assert s.schur_col == 4.0


def test_zero_operator_stats():
    s = support_stats(BlockOperator(z2(3), 1, [], [], np.zeros((0, 1, 1))))
    assert (s.propagation, s.nnz_blocks, s.schur_row, s.schur_col) == (0.0, 0, 0.0, 0.0)


def test_is_controlled_threshold():
    f = builtin_model("chern_2band_2d", M=1.0)
    T = represent(f, z2(6))
    assert is_controlled(T, f.R_f)
    assert not is_controlled(T, 0.5 * f.R_f)
    with pytest.raises(InvalidInput):
        is_controlled(T, -1.0)


# ---------------------------------------------------------------------------
# position commutators
# ---------------------------------------------------------------------------

def test_commutator_of_identity_is_zero():
    C = position_commutator(BlockOperator.identity(z2(4), 2), 0)
    assert C.entries == {}


def test_commutator_entry_law_on_random_probes():
    omega = z2(7)
    T = represent(builtin_model("chern_2band_2d", M=1.0), omega)
    for axis in (0, 1):
        C = position_commutator(T, axis)
        coords = omega.points[:, axis]
        rng = np.random.default_rng(5 + axis)
        keys = list(T.entries)
        for k in rng.choice(len(keys), size=200):
            i, j = keys[int(k)]
            expected = (coords[j] - coords[i]) * T.block(i, j)
            assert np.array_equal(C.block(i, j), expected)


def test_commutator_of_unit_shift_has_norm_one():
    omega = gen_periodic(np.eye(1), ([0.0], [20.0]))
    shift = BlockOperator(omega, 1, np.arange(20), np.arange(1, 21), np.ones((20, 1, 1)),
                          hermitian=False)
    C = position_commutator(shift, 0)
    dense = C.to_dense()
    assert np.linalg.norm(dense, 2) == pytest.approx(1.0, abs=1e-12)
    assert support_stats(C).propagation == 1.0


def test_commutator_axis_out_of_range():
    with pytest.raises(InvalidInput):
        position_commutator(BlockOperator.identity(z2(3), 1), 2)


def test_commutator_is_antihermitian_for_hermitian_input():
    T = nn_on(z2(6))
    dense = position_commutator(T, 1).to_dense()
    assert np.abs(dense + dense.conj().T).max() <= 1e-15


# ---------------------------------------------------------------------------
# covering isometries
# ---------------------------------------------------------------------------

def shifted(ds, v):
    v = np.asarray(v, dtype=float)
    lo, hi = ds.window
    window = (lo + np.minimum(v, 0.0), hi + np.maximum(v, 0.0))
    return DeloneSet(ds.dim, ds.points + v, ds.r_pack, ds.R_cov, window)


def offset_union(size):
    """Z^2 window inside its union with an interleaved offset lattice."""
    base = z2(size)
    return base, union_pointsets(base, shifted(base, [0.5, 0.5]))


def test_subset_injection_identifies_identical_points():
    X, Y = offset_union(5)
    inj = subset_injection(X, Y)
    assert np.abs(Y.points[inj] - X.points).max() == 0.0


def test_subset_injection_rejects_missing_point():
    X = z2(4)
    with pytest.raises(InvalidInput):
        subset_injection(X, shifted(X, [0.3, 0.3]))


def test_covering_embed_preserves_stats_and_spectrum():
    X, Y = offset_union(6)
    T = nn_on(X)
    S = covering_embed(T, Y, subset_injection(X, Y))
    a, b = support_stats(T), support_stats(S)
    assert (a.propagation, a.nnz_blocks, a.schur_row, a.schur_col) == \
           (b.propagation, b.nnz_blocks, b.schur_row, b.schur_col)
    ev_t = np.linalg.eigvalsh(T.to_dense())
    ev_s = np.linalg.eigvalsh(S.to_dense())
    nz_t = np.sort(ev_t[np.abs(ev_t) > 1e-9])
    nz_s = np.sort(ev_s[np.abs(ev_s) > 1e-9])
    assert nz_t.size == nz_s.size
    assert np.abs(nz_t - nz_s).max() <= 1e-9


def test_covering_embed_identity_becomes_projection():
    X, Y = offset_union(4)
    S = covering_embed(BlockOperator.identity(X, 1), Y, subset_injection(X, Y))
    dense = S.to_dense()
    assert np.array_equal(dense, dense @ dense)
    assert int(np.trace(dense).real) == len(X)


def test_covering_embed_rejects_non_injective_map():
    X, Y = offset_union(3)
    inj = subset_injection(X, Y)
    inj[1] = inj[0]
    with pytest.raises(InvalidInput):
        covering_embed(nn_on(X), Y, inj)


def test_covering_embed_rejects_site_moving_map():
    X, Y = offset_union(3)
    inj = subset_injection(X, Y)
    other = subset_injection(shifted(X, [0.5, 0.5]), Y)
    inj[0] = other[0]
    with pytest.raises(InvalidInput):
        covering_embed(nn_on(X), Y, inj)


# ---------------------------------------------------------------------------
# random perturbations
# ---------------------------------------------------------------------------

def test_perturbation_zero_strength_is_empty():
    assert random_perturbation(z2(5), 2.0, 0.0, 2).entries == {}


def test_perturbation_norm_budget_and_propagation():
    V = random_perturbation(z2(6), 1.5, 0.3, 2, seed=11)
    assert V.hermitian
    s = support_stats(V)
    assert s.propagation <= 1.5
    for b in V.entries.values():
        assert np.linalg.svd(b, compute_uv=False)[0] <= 0.3 + 1e-12
    dense = V.to_dense()
    assert np.abs(dense - dense.conj().T).max() <= 1e-12


def test_perturbation_chiral_blocks_anticommute_with_grading():
    G = np.diag([1.0, -1.0])
    V = random_perturbation(z2(5), 1.5, 0.3, 2, symmetry="chiral",
                            grading=G, seed=4)
    for b in V.entries.values():
        assert np.abs(G @ b + b @ G).max() <= 1e-14
    dense = V.to_dense()
    Gfull = np.kron(np.eye(len(z2(5))), G)
    assert np.abs(Gfull @ dense + dense @ Gfull).max() <= 1e-12


def test_perturbation_seed_determinism():
    a = random_perturbation(z2(5), 1.5, 0.2, 2, seed=7)
    b = random_perturbation(z2(5), 1.5, 0.2, 2, seed=7)
    c = random_perturbation(z2(5), 1.5, 0.2, 2, seed=8)
    assert sorted(a.entries) == sorted(b.entries)
    assert all(np.array_equal(a.entries[k], b.entries[k]) for k in a.entries)
    assert any(not np.array_equal(a.entries[k], c.entries[k])
               for k in a.entries if k in c.entries)


def test_perturbation_consumes_rng_in_ascending_neighbor_order():
    sites = gen_hardcore_random(([0.0, 0.0], [6.0, 6.0]), 0.8, 1.4, seed=3)
    R, strength, N, seed = 1.5, 0.3, 2, 5
    V = random_perturbation(sites, R, strength, N, seed=seed)
    rng = np.random.default_rng(seed)
    want = {}
    for i, x in enumerate(sites.points):
        for j in map(int, brute_neighbors(sites.points, x, R)):
            if j < i:
                continue
            B = rng.standard_normal((N, N)) + 1.0j * rng.standard_normal((N, N))
            if j == i:
                B = 0.5 * (B + B.conj().T)
            nrm = np.linalg.svd(B, compute_uv=False)[0]
            if nrm > strength:
                B = B * (strength / nrm)
            want[(i, j)] = B
            if j != i:
                want[(j, i)] = B.conj().T
    assert list(V.entries) == list(want)
    for key, B in want.items():
        assert np.array_equal(V.entries[key], B)


PERTURBATION_WINDOWS = {
    "periodic_16": lambda: z2(16),
    "hardcore": lambda: gen_hardcore_random(([0.0, 0.0], [9.0, 9.0]), 0.8, 1.2, seed=2),
}


@pytest.mark.parametrize("window", sorted(PERTURBATION_WINDOWS))
@pytest.mark.parametrize("symmetry", ["none", "chiral"])
@pytest.mark.parametrize("strength", [0.3, 2.5, 50.0])
def test_perturbation_matches_per_pair_reference(window, symmetry, strength):
    # 0.3 clips almost every block, 50 none, 2.5 some of them.
    sites = PERTURBATION_WINDOWS[window]()
    G = np.diag([1.0, -1.0])
    grading = G if symmetry == "chiral" else None
    for seed in (0, 5, 123456789):
        V = random_perturbation(sites, 2.0, strength, 2, symmetry=symmetry,
                                grading=grading, seed=seed)
        want = reference_random_perturbation(sites.points, 2.0, strength, 2,
                                             symmetry=symmetry, grading=G,
                                             seed=seed)
        assert list(V.entries) == list(want)
        for key, B in want.items():
            assert V.entries[key].tobytes() == B.tobytes()


def test_dense_trial_sum_equals_block_sum():
    cases = [
        (z2(16), builtin_model("chern_2band_2d", M=1.0), "none"),
        (gen_hardcore_random(([0.0, 0.0], [9.0, 9.0]), 0.8, 1.2, seed=2),
         builtin_model("chern_2band_2d", M=1.0), "none"),
        (gen_periodic(np.eye(1), ([0.0], [40.0])),
         builtin_model("chiral_ssh_1d", t1=0.5, t2=1.0), "chiral"),
    ]
    for sites, f, symmetry in cases:
        H = represent(f, sites)
        for seed in (0, 1, 2):
            V = random_perturbation(sites, 2.0, 0.2, f.N, symmetry=symmetry,
                                    grading=np.diag([1.0, -1.0]), seed=seed)
            dense = H.to_dense() + V.to_dense()
            assert dense.tobytes() == H.add(V).to_dense().tobytes()


def test_perturbation_rejects_bad_arguments():
    with pytest.raises(InvalidInput):
        random_perturbation(z2(3), 1.0, -0.1, 1)
    with pytest.raises(InvalidInput):
        random_perturbation(z2(3), -1.0, 0.1, 1)
    with pytest.raises(InvalidInput):
        random_perturbation(z2(3), 1.0, 0.1, 1, symmetry="weird")
    with pytest.raises(InvalidInput):
        random_perturbation(z2(3), 1.0, 0.1, 2, symmetry="chiral")
    with pytest.raises(InvalidInput, match="diagonal"):
        random_perturbation(z2(3), 1.0, 0.1, 2, symmetry="chiral",
                            grading=np.array([[0.0, 1.0], [1.0, 0.0]]))


# ---------------------------------------------------------------------------
# summability
# ---------------------------------------------------------------------------

def test_summability_profile_matches_direct_sum():
    omega = z2(10)
    radii = [2.0, 4.0, 6.0]
    prof = summability_profile(omega, 3.0, radii)
    c = omega.window_center
    r2 = np.sum((omega.points - c) ** 2, axis=1)
    for got, rho in zip(prof, radii):
        expected = 4.0 * np.sum((1.0 + r2[r2 <= rho * rho]) ** -1.5)
        assert got == pytest.approx(expected, rel=1e-13)


def test_summability_ball_is_closed_at_the_norm_rule():
    # |p - x| = rho exactly, yet |p - x|^2 > rho^2 in floating point.
    p = np.array([2.6414215220820934, 0.9822090689727103])
    x = np.array([3.0740679955850174, 0.846698970430042])
    one = DeloneSet(2, p[None], 0.5, 1.0, box([0.0, 0.0], [4.0, 4.0]))
    rho = float(np.linalg.norm(p - x))
    assert summability_profile(one, 3.0, [rho], center=x)[0] > 0.0


def test_summability_increments_shrink_when_s_exceeds_dim():
    omega = z2(40)
    radii = np.arange(4.0, 21.0, 4.0)
    prof = summability_profile(omega, 4.0, radii)
    inc = np.diff(prof)
    assert np.all(np.diff(prof) > 0.0)
    assert np.all(np.diff(inc) < 0.0)


def test_summability_rejects_bad_radii():
    with pytest.raises(InvalidInput):
        summability_profile(z2(4), 3.0, [])
    with pytest.raises(InvalidInput):
        summability_profile(z2(4), 3.0, [2.0, 1.0])
