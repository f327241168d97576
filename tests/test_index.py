import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from delonetop.errors import (GapUndefined, InvalidInput, LocalizerUnreliable,
                              SymmetryViolation)
from delonetop.experiments import build_lattice
from delonetop.geometry import gen_cut_and_project, gen_hardcore_random, gen_periodic
from delonetop.groupoid import (bloch_hamiltonian, builtin_model, represent,
                                stack_operator)
from delonetop.index import (_chirality_residual, _components, angular_sectors,
                             bloch_chern_fhs, bloch_winding, chiral_bloch_block,
                             kappa_stability, kitaev_chern, localizer_index_even,
                             localizer_index_odd, position_dirac)
from delonetop.roe import random_perturbation
from delonetop.spectral import eig_hermitian, fermi_projection, reduce_hermitian
from oracles import (ReferenceGapUndefined, dvector_chern_lower,
                     reference_bloch_chern_fhs, reference_fermi_projection,
                     reference_localizer_even, reference_localizer_odd,
                     winding_unwrap)

GRADING = np.diag([1.0, -1.0])


def z1(n):
    return gen_periodic(np.eye(1), ([0.0], [float(n - 1)]))


def single_site(dim):
    pt = np.full((1, dim), 2.0)
    return gen_periodic(np.eye(dim), (pt[0], pt[0]))


# ---------------------------------------------------------------------------
# position Dirac operators
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dim", [1, 2, 3])
def test_dirac_single_site_spectrum(dim):
    sites = single_site(dim)
    x0 = np.zeros(dim)
    r = float(np.linalg.norm(sites.points[0]))
    for block_dim in (1, 2):
        D = position_dirac(sites, x0, block_dim).matrix
        evs = np.sort(np.linalg.eigvalsh(D))
        mult = block_dim * 2 ** (dim - 1)
        expected = np.sort([-r] * mult + [r] * mult)
        assert np.abs(evs - expected).max() <= 1e-9


def test_dirac_site_at_origin_is_zero():
    sites = single_site(2)
    D = position_dirac(sites, sites.points[0], block_dim=1).matrix
    assert np.array_equal(D, np.zeros((4, 4)))


def test_dirac_line_spectrum_closed_form():
    sites = gen_periodic(np.eye(1), ([-5.0], [5.0]))
    D = position_dirac(sites, [0.5], block_dim=1).matrix
    evs = np.sort(np.linalg.eigvalsh(D))
    dist = np.abs(sites.points[:, 0] - 0.5)
    expected = np.sort(np.concatenate([-dist, dist]))
    assert np.abs(evs - expected).max() <= 1e-12


def test_dirac_square_identity_exact(z2_12):
    dirac = position_dirac(z2_12, z2_12.window_center, block_dim=2)
    D = dirac.matrix
    r2 = np.sum((z2_12.points - z2_12.window_center) ** 2, axis=1)
    expected = np.kron(np.diag(r2), np.eye(2 * 4))
    assert np.abs(D @ D - expected).max() <= 1e-12


def test_dirac_rejects_bad_arguments(z2_12):
    with pytest.raises(InvalidInput):
        position_dirac(z2_12, [0.0])
    with pytest.raises(InvalidInput):
        position_dirac(z2_12, [np.nan, 0.0])
    with pytest.raises(InvalidInput):
        position_dirac(z2_12, [0.0, 0.0], block_dim=0)


# ---------------------------------------------------------------------------
# even localizer
# ---------------------------------------------------------------------------

def _matches_dense_reference(H, mu, dirac, kappa, hdata=None):
    """The inertia/shift-invert localizer against the dense 2m x 2m oracle."""
    Hd = H.to_dense() if hasattr(H, "to_dense") else np.asarray(H)
    r = localizer_index_even(H, mu, dirac, kappa, hdata=hdata)
    ref = reference_localizer_even(Hd, mu, dirac.sites.points, dirac.x0,
                                   Hd.shape[0] // len(dirac.sites), kappa)
    assert (r.index, r.status, r.half_signature) == (
        ref["index"], ref["status"], ref["half_signature"])
    assert abs(r.margin - ref["margin"]) <= 1e-9 * ref["margin"]
    return r


def test_even_localizer_atomic_limit_is_trivial():
    omega = gen_periodic(np.eye(2), ([0.0, 0.0], [8.0, 8.0]))
    H = np.kron(np.eye(len(omega)), np.diag([1.0, -1.0]))
    dirac = position_dirac(omega, omega.window_center, block_dim=2)
    r = localizer_index_even(H, 0.0, dirac, 0.1)
    assert r.status == "ok"
    assert r.index == 0
    assert r.margin == pytest.approx(1.0, abs=1e-9)


def test_even_localizer_chern_window_frozen_margins(z2_12, chern_12):
    _, H = chern_12
    spec = eig_hermitian(H.to_dense())
    dirac = position_dirac(z2_12, z2_12.window_center, block_dim=2)
    frozen = {0.05: 0.25800374856015174,
              0.1: 0.5832284252018702,
              0.2: 1.1086889399564739}
    for kappa, margin in frozen.items():
        r = _matches_dense_reference(H, 0.0, dirac, kappa, hdata=spec)
        assert r.status == "ok"
        assert r.index == 1
        assert r.margin == pytest.approx(margin, abs=1e-9)
        assert r.half_signature == 1.0


def test_even_localizer_leaves_input_unchanged(z2_12, chern_12):
    # H is read, never written; mu != 0 also exercises the diagonal shift
    # against the dense oracle.
    _, H = chern_12
    Hd = H.to_dense()
    before = Hd.tobytes()
    dirac = position_dirac(z2_12, z2_12.window_center, block_dim=2)
    r = _matches_dense_reference(Hd, 0.1, dirac, 0.1)
    assert Hd.tobytes() == before
    assert r.index == 1


def test_even_localizer_matches_bloch_oracle_both_phases(z2_12):
    dirac = position_dirac(z2_12, z2_12.window_center, block_dim=2)
    for M in (-1.0, 1.0):
        f = builtin_model("chern_2band_2d", M=M)
        H = represent(f, z2_12)
        r = localizer_index_even(H, 0.0, dirac, 0.1)
        fhs = bloch_chern_fhs(bloch_hamiltonian(f, np.eye(2)), 0.0, n=12)
        assert r.status == "ok"
        assert r.index == fhs


def test_even_localizer_absurd_kappa_is_unreliable(z2_12, chern_12):
    _, H = chern_12
    dirac = position_dirac(z2_12, z2_12.window_center, block_dim=2)
    r = _matches_dense_reference(H, 0.0, dirac, 1000.0)
    assert r.status == "unreliable"
    assert r.index is None


def test_even_localizer_rejects_bad_geometry():
    omega = z1(10)
    dirac = position_dirac(omega, omega.window_center, block_dim=1)
    with pytest.raises(InvalidInput):
        localizer_index_even(np.eye(10), 0.0, dirac, 0.1)


def test_even_localizer_rejects_mismatched_dimension(z2_12):
    dirac = position_dirac(z2_12, z2_12.window_center, block_dim=1)
    with pytest.raises(InvalidInput):
        localizer_index_even(np.eye(len(z2_12) + 1), 0.0, dirac, 0.1)


def test_even_localizer_gap_collision_raises(z2_12):
    dirac = position_dirac(z2_12, z2_12.window_center, block_dim=1)
    with pytest.raises(GapUndefined):
        localizer_index_even(np.zeros((len(z2_12), len(z2_12))), 0.0, dirac, 0.1)


def test_even_localizer_hdata_paths_agree(z2_12, chern_12):
    _, H = chern_12
    dirac = position_dirac(z2_12, z2_12.window_center, block_dim=2)
    spec = eig_hermitian(H.to_dense())
    r_none = _matches_dense_reference(H, 0.0, dirac, 0.1)
    r_spec = _matches_dense_reference(H, 0.0, dirac, 0.1, hdata=spec)
    r_vals = _matches_dense_reference(H, 0.0, dirac, 0.1, hdata=spec.eigenvalues)
    assert r_none.index == r_spec.index == r_vals.index == 1
    assert r_none.margin == r_spec.margin == r_vals.margin


def test_even_localizer_matches_dense_reference_periodic_24():
    sites = gen_periodic(np.eye(2), ([0.0, 0.0], [24.0, 24.0]))
    H = represent(builtin_model("chern_2band_2d", M=1.0), sites)
    dirac = position_dirac(sites, sites.window_center, block_dim=2)
    r = _matches_dense_reference(H, 0.0, dirac, 0.1,
                                 hdata=eig_hermitian(H.to_dense()))
    assert (r.status, r.index) == ("ok", 1)


def test_even_localizer_matches_dense_reference_amorphous():
    sites = gen_hardcore_random(([0.0, 0.0], [27.0, 27.0]), 0.8, 1.2, 1)
    assert 700 <= len(sites) <= 900
    H = represent(builtin_model("chern_2band_2d", M=1.0), sites)
    dirac = position_dirac(sites, sites.window_center, block_dim=2)
    r = _matches_dense_reference(H, 0.0, dirac, 0.1,
                                 hdata=eig_hermitian(H.to_dense()))
    assert (r.status, r.index) == ("ok", 1)


def test_even_localizer_matches_dense_reference_perturbed_trial(z2_12, chern_12):
    _, H = chern_12
    V = random_perturbation(z2_12, 2.0, 0.2, 2, seed=5)
    Hp = H.add(V)
    evs = np.linalg.eigvalsh(Hp.to_dense())
    dirac = position_dirac(z2_12, z2_12.window_center, block_dim=2)
    r = _matches_dense_reference(Hp, 0.0, dirac, 0.1, hdata=evs)
    assert (r.status, r.index) == ("ok", 1)


def test_even_localizer_matches_dense_reference_near_gap_closing():
    # Noise of strength 1.4 on the 16^2 window all but closes the localizer
    # gap: margin 6.2e-4, below the default margin_min, so the record is
    # unreliable; with margin_min under the margin the signature must pass
    # every guard and still be the dense one.
    sites = gen_periodic(np.eye(2), ([0.0, 0.0], [16.0, 16.0]))
    H = represent(builtin_model("chern_2band_2d", M=1.0), sites)
    Hp = H.add(random_perturbation(sites, 2.0, 1.4, 2, seed=37)).to_dense()
    evs = scipy.linalg.eigvalsh(Hp)
    dirac = position_dirac(sites, sites.window_center, block_dim=2)
    r = _matches_dense_reference(Hp, 0.0, dirac, 0.1, hdata=evs)
    assert r.status == "unreliable"
    assert 5e-4 < r.margin < 7e-4
    certified = localizer_index_even(Hp, 0.0, dirac, 0.1, margin_min=0.5 * r.margin,
                                     hdata=evs)
    assert (certified.status, certified.index) == ("ok", 1)
    assert certified.half_signature == r.half_signature


def test_even_localizer_matches_dense_reference_site_at_x0():
    sites = gen_hardcore_random(([0.0, 0.0], [12.0, 12.0]), 0.8, 1.2, 3)
    k = int(np.argmin(np.linalg.norm(sites.points - sites.window_center, axis=1)))
    dirac = position_dirac(sites, sites.points[k], block_dim=2)
    assert not np.any(dirac.sites.points[k] - dirac.x0)  # D- vanishes on site k
    H = represent(builtin_model("chern_2band_2d", M=1.0), sites)
    _matches_dense_reference(H, 0.0, dirac, 0.1)


SSH = builtin_model("chiral_ssh_1d", t1=0.5, t2=1.0)
STACK_CHAINS = {
    "periodic": {"generator": "periodic", "dim": 1, "window": [0.0, 34.0]},
    "fibonacci": {"generator": "fibonacci_1d", "length": 48.0},
}


def _stacked_ssh(chain_cfg):
    """The SSH chain stacked along the periodic layers [0, 7] as run_stacking
    builds it: 8 layers, each a connected component of H."""
    layers = build_lattice({"generator": "periodic", "dim": 1, "window": [0.0, 7.0]})
    S = stack_operator(represent(SSH, build_lattice(chain_cfg)), layers)
    Sd = S.to_dense()
    dirac = position_dirac(S.sites, S.sites.window_center, S.block_dim)
    return Sd, dirac, scipy.linalg.eigvalsh(Sd)


@pytest.mark.parametrize("chain", sorted(STACK_CHAINS))
def test_even_localizer_matches_dense_reference_stacked_ssh(chain):
    Sd, dirac, evs = _stacked_ssh(STACK_CHAINS[chain])
    for kappa in (0.05, 0.1, 0.2):
        r = _matches_dense_reference(Sd, 0.0, dirac, kappa, hdata=evs)
        assert (r.status, r.index) == ("ok", 0)


def _component_sizes(Hd):
    _, labels = connected_components(sparse.csr_matrix(Hd != 0), directed=False)
    return sorted(np.bincount(labels).tolist(), reverse=True)


def test_component_labels_match_csgraph():
    # csgraph numbers the components by their smallest vertex, and so must
    # the NumPy labelling; edges are undirected and may repeat.
    rng = np.random.default_rng(5)
    Sd = _stacked_ssh(STACK_CHAINS["periodic"])[0]
    graphs = [(len(Sd), *np.nonzero(Sd))]
    for _ in range(200):
        m = int(rng.integers(1, 120))
        e = int(rng.integers(0, 2 * m))
        graphs.append((m, rng.integers(0, m, e), rng.integers(0, m, e)))
    for m, rows, cols in graphs:
        n, ref = connected_components(
            sparse.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(m, m)),
            directed=False)
        labels, members = _components(m, rows, cols)
        assert np.array_equal(labels, ref)
        assert len(members) == n
        for k, idx in enumerate(members):
            assert np.array_equal(idx, np.flatnonzero(ref == k))


def test_even_localizer_unequal_components_match_dense_reference(z2_12, chern_12):
    # The 12^2 Chern window cut into groups no hopping crosses: x <= 7 holds
    # x0 and contributes index 1, x >= 8 lies away from x0 and contributes
    # 0, and the site (12, 12) keeps only its diagonal on-site term, so its
    # two orbitals are 1 x 1 components contributing 0.
    pts = z2_12.points
    group = np.where(pts[:, 0] <= 7.0, 0, 1)
    group[np.flatnonzero((pts == 12.0).all(axis=1))] = 2
    g = np.repeat(group, 2)
    Hd = chern_12[1].to_dense() * (g[:, None] == g[None, :])
    assert _component_sizes(Hd) == [208, 128, 1, 1]
    x0 = np.array([3.5, 6.0])
    dirac = position_dirac(z2_12, x0, block_dim=2)
    for kappa in (0.1, 0.2):
        r = _matches_dense_reference(Hd, 0.0, dirac, kappa)
        assert (r.status, r.index) == ("ok", 1)
        parts = [reference_localizer_even(Hd[np.ix_(g == k, g == k)], 0.0,
                                          pts[group == k], x0, 2, kappa)
                 for k in range(3)]
        assert [p["half_signature"] for p in parts] == [1.0, 0.0, 0.0]
        assert r.half_signature == sum(p["half_signature"] for p in parts)


def test_even_localizer_makes_no_dense_lapack_call(monkeypatch, z2_12, chern_12):
    # Given the H eigenvalues, the even localizer works on the sparse L
    # alone: no dense solve, eigvalsh or eigh, whether the window is a
    # stack of 8 chain components or connected.
    calls = []

    def spy(name, fn):
        def wrapped(a, *args, **kwargs):
            calls.append((name, a.shape[0]))
            return fn(a, *args, **kwargs)
        return wrapped

    Sd, dirac, evs = _stacked_ssh(STACK_CHAINS["periodic"])
    Hd = chern_12[1].to_dense()
    evs_h = scipy.linalg.eigvalsh(Hd)
    for name in ("solve", "eigvalsh", "eigh"):
        monkeypatch.setattr(scipy.linalg, name, spy(name, getattr(scipy.linalg, name)))
    assert len(Sd) == 560
    assert localizer_index_even(Sd, 0.0, dirac, 0.1, hdata=evs).index == 0
    dirac_h = position_dirac(z2_12, z2_12.window_center, block_dim=2)
    assert localizer_index_even(Hd, 0.0, dirac_h, 0.1, hdata=evs_h).index == 1
    assert calls == []


def test_even_localizer_allocation_bound():
    # The connected 22^2 Chern window, m = 1058: beyond its input the
    # localizer holds the sparse L, the factors of one shifted LU and O(m)
    # vectors, ~0.81 m x m complex arrays; one dense m x m copy of H - mu
    # would push it past 1.
    omega = gen_periodic(np.eye(2), ([0.0, 0.0], [22.0, 22.0]))
    Hd = represent(builtin_model("chern_2band_2d", M=1.0), omega).to_dense()
    m = Hd.shape[0]
    assert m == 1058 and Hd.dtype == complex
    evs = scipy.linalg.eigvalsh(Hd)
    dirac = position_dirac(omega, omega.window_center, block_dim=2)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        r = localizer_index_even(Hd, 0.0, dirac, 0.1, hdata=evs)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert (r.status, r.index) == ("ok", 1)
    assert peak <= 1.0 * m * m * 16, f"peak {peak / (m * m * 16):.2f} m x m arrays"


@pytest.mark.parametrize("kappa", [0.01, 0.1, 1.0, 10.0])
def test_even_localizer_chiral_operator_has_zero_signature(kappa):
    # For chiral A at mu = 0, U = diag(G, -G) gives U L U^dag = -L, so the
    # 2D even localizer of any chiral operator has signature 0; this is why
    # a stacked chain (criterion 6) always reads index 0.
    sites = gen_periodic(np.eye(2), ([0.0, 0.0], [6.0, 6.0]))
    m = 2 * len(sites)
    rng = np.random.default_rng(7)
    M = rng.standard_normal((m, m)) + 1.0j * rng.standard_normal((m, m))
    g = np.tile([1.0, -1.0], len(sites))
    H = (M + M.conj().T) * (g[:, None] != g[None, :])
    assert np.array_equal(g[:, None] * H * g[None, :], -H)
    dirac = position_dirac(sites, sites.window_center, block_dim=2)
    assert localizer_index_even(H, 0.0, dirac, kappa).half_signature == 0.0


def _failing_eigsh(*args, **kwargs):
    from scipy.sparse.linalg import ArpackNoConvergence

    raise ArpackNoConvergence("ARPACK error -1: No convergence", np.zeros(0),
                              np.zeros((0, 0)))


def test_even_localizer_single_site_closed_form(monkeypatch):
    # 2m = 2 is below ARPACK's k < n - 1: the margin must come from the
    # closed form +-sqrt(a^2 + kappa^2 |d|^2), never from the solver.
    monkeypatch.setattr("scipy.sparse.linalg.eigsh", _failing_eigsh)
    sites = single_site(2)
    dirac = position_dirac(sites, [0.5, 1.0], block_dim=1)
    for a in (0.7, -0.3):
        r = _matches_dense_reference(np.array([[a]]), 0.0, dirac, 0.4)
        assert r.margin == pytest.approx(np.hypot(a, 0.4 * np.hypot(1.5, 1.0)),
                                         rel=1e-14)
        assert (r.status, r.index) == ("ok", 0)


def _certified_localizer(kind, z2_12, chern_12, **kwargs):
    """The even localizer on the 12^2 Chern window (index 1), or the odd one
    on a 40-site SSH chain (index -1), at kappa = 0.1: the odd localizer
    runs on the even one's margin solve and certified signature, so each
    test of that engine below runs both."""
    if kind == "even":
        dirac = position_dirac(z2_12, z2_12.window_center, block_dim=2)
        return localizer_index_even(chern_12[1], 0.0, dirac, 0.1, **kwargs)
    omega = z1(40)
    dirac = position_dirac(omega, omega.window_center, block_dim=2)
    return localizer_index_odd(represent(SSH, omega), dirac, 0.1, GRADING, **kwargs)


@pytest.mark.parametrize("kind", ["even", "odd"])
def test_even_localizer_unconverged_margin_raises(monkeypatch, z2_12, chern_12, kind):
    monkeypatch.setattr("scipy.sparse.linalg.eigsh", _failing_eigsh)
    with pytest.raises(LocalizerUnreliable, match="did not converge"):
        _certified_localizer(kind, z2_12, chern_12)


def _edit_lu(monkeypatch, edit):
    """Replace splu by one whose factor of the k-th shifted L (k = 1, 2) is
    edit(lu, k); the first call, the margin solve's factor of L itself, is
    left as it is."""
    real = scipy.sparse.linalg.splu
    count = []

    def fake(A, **kwargs):
        count.append(1)
        lu = real(A, **kwargs)
        return lu if len(count) == 1 else edit(lu, len(count) - 1)

    monkeypatch.setattr("scipy.sparse.linalg.splu", fake)


def _lu(lu, perm_r=None, L=None, U=None):
    return SimpleNamespace(perm_r=lu.perm_r if perm_r is None else perm_r,
                           perm_c=lu.perm_c, L=lu.L if L is None else L,
                           U=lu.U if U is None else U)


def _row_pivoting(lu, k):
    return _lu(lu, perm_r=lu.perm_r[::-1])


def _complex_pivots(lu, k):
    d = lu.U.diagonal().real
    return _lu(lu, U=lu.U + sparse.diags(1.0e-3j * d, format="csc"))


def _huge_multipliers(lu, k):
    return _lu(lu, L=1.0e16 * lu.L)


def _second_inertia_off_by_one(lu, k):
    # the first pivot of the L + t factorization changes sign
    flip = np.zeros(lu.U.shape[0])
    flip[0] = 2.0 * lu.U.diagonal()[0].real if k == 2 else 0.0
    return _lu(lu, U=lu.U - sparse.diags(flip, format="csc"))


LU_EDITS = [(_row_pivoting, "pivoted off the diagonal", "perm"),
            (_complex_pivots, "complex pivot", "complex-pivot"),
            (_huge_multipliers, "backward error bound", "backward-error"),
            (_second_inertia_off_by_one, "inertias .* disagree", "inertia")]


@pytest.mark.parametrize("kind, edit, reason", [
    pytest.param(kind, edit, reason, id=name if kind == "even" else f"odd-{name}")
    for kind in ("even", "odd") for edit, reason, name in LU_EDITS])
def test_even_localizer_uncertified_signature_raises(monkeypatch, z2_12, chern_12,
                                                     kind, edit, reason):
    _edit_lu(monkeypatch, edit)
    with pytest.raises(LocalizerUnreliable, match=f"signature not certified: .*{reason}"):
        _certified_localizer(kind, z2_12, chern_12)


@pytest.mark.parametrize("kind, half_signature", [("even", 1.0), ("odd", -1.0)],
                         ids=["even", "odd"])
def test_even_localizer_below_margin_min_skips_the_certificate(monkeypatch, z2_12,
                                                              chern_12, kind,
                                                              half_signature):
    # An unreliable margin already withholds the index, so a failed guard
    # leaves the record unreliable instead of raising.
    _edit_lu(monkeypatch, _huge_multipliers)
    r = _certified_localizer(kind, z2_12, chern_12, margin_min=1.0)
    assert (r.status, r.index, r.half_signature) == ("unreliable", None, half_signature)


# ---------------------------------------------------------------------------
# odd localizer
# ---------------------------------------------------------------------------

def test_odd_localizer_ssh_matches_winding_oracles():
    f = builtin_model("chiral_ssh_1d", t1=0.5, t2=1.0)
    omega = z1(200)
    H = represent(f, omega)
    dirac = position_dirac(omega, omega.window_center, block_dim=2)
    r = localizer_index_odd(H, dirac, 0.1, GRADING)
    ak = chiral_bloch_block(bloch_hamiltonian(f, np.eye(1)), GRADING)
    assert r.status == "ok"
    assert r.index == -1
    assert r.index == bloch_winding(ak) == winding_unwrap(ak)
    assert r.margin == pytest.approx(0.4707, abs=1e-3)


def test_odd_localizer_reversed_dimerization_is_trivial():
    f = builtin_model("chiral_ssh_1d", t1=1.0, t2=0.5)
    omega = z1(200)
    H = represent(f, omega)
    dirac = position_dirac(omega, omega.window_center, block_dim=2)
    r = localizer_index_odd(H, dirac, 0.1, GRADING)
    assert (r.status, r.index) == ("ok", 0)


def test_odd_localizer_dimer_reference_is_trivial():
    f = builtin_model("dimer_chain_1d", t1=0.7)
    omega = z1(120)
    H = represent(f, omega)
    dirac = position_dirac(omega, omega.window_center, block_dim=2)
    r = localizer_index_odd(H, dirac, 0.1, GRADING)
    assert (r.status, r.index) == ("ok", 0)


def test_odd_localizer_fibonacci_chain():
    fib = gen_cut_and_project("fibonacci_1d", ([0.0], [48.0]))
    H = represent(builtin_model("chiral_ssh_1d", t1=0.5, t2=1.0), fib)
    dirac = position_dirac(fib, fib.window_center, block_dim=2)
    r = localizer_index_odd(H, dirac, 0.1, GRADING)
    assert (r.status, r.index) == ("ok", -1)


ODD_CHAINS = {
    "periodic_34": lambda: (builtin_model("chiral_ssh_1d", t1=0.5, t2=1.0),
                            gen_periodic(np.eye(1), ([0.0], [34.0]))),
    "fibonacci_48": lambda: (builtin_model("chiral_ssh_1d", t1=0.5, t2=1.0),
                             gen_cut_and_project("fibonacci_1d", ([0.0], [48.0]))),
    "ssh_200": lambda: (builtin_model("chiral_ssh_1d", t1=0.5, t2=1.0), z1(200)),
    "dimer_120": lambda: (builtin_model("dimer_chain_1d", t1=0.7), z1(120)),
    # the 2 x 2 closed-form margin, and the smallest L that ARPACK solves
    "one_site": lambda: (builtin_model("chiral_ssh_1d", t1=0.5, t2=1.0), z1(1)),
    "two_sites": lambda: (builtin_model("chiral_ssh_1d", t1=0.5, t2=1.0), z1(2)),
}


@pytest.mark.parametrize("noise", [False, True], ids=["clean", "chiral-noise"])
@pytest.mark.parametrize("chain", sorted(ODD_CHAINS))
def test_odd_localizer_matches_chiral_basis_reference(chain, noise):
    # The sparse L = H + k (X - x0) G in site-major order is the chiral-basis
    # block matrix up to a permutation: the same inertia, and the margin to
    # the even localizer's 1e-9 relative.
    f, omega = ODD_CHAINS[chain]()
    H = represent(f, omega).to_dense()
    if noise:
        H = H + random_perturbation(omega, 2.0, 0.2, 2, grading=GRADING, seed=3).to_dense()
    dirac = position_dirac(omega, omega.window_center, block_dim=2)
    for kappa in (0.05, 0.1, 0.2):
        r = localizer_index_odd(H, dirac, kappa, GRADING)
        want = reference_localizer_odd(H, omega.points, dirac.x0, GRADING, kappa)
        assert (r.index, r.status, r.half_signature) == (
            want["index"], want["status"], want["half_signature"])
        assert abs(r.margin - want["margin"]) <= 1e-9 * want["margin"]


def test_odd_localizer_rejects_broken_symmetry():
    omega = z1(40)
    H = represent(builtin_model("chiral_ssh_1d"), omega).to_dense()
    H = H + 0.1 * np.eye(H.shape[0])
    dirac = position_dirac(omega, omega.window_center, block_dim=2)
    with pytest.raises(SymmetryViolation):
        localizer_index_odd(H, dirac, 0.1, GRADING)


@pytest.mark.parametrize("n_sites", [35, 201])
def test_odd_chirality_residual_matches_dense_grading_product(n_sites):
    # 70- and 402-row SSH chains: exact chiral noise, non-chiral noise below
    # the 1e-13 bound and non-chiral noise above it.
    omega = z1(n_sites)
    H = represent(builtin_model("chiral_ssh_1d", t1=0.5, t2=1.0), omega)
    G = np.kron(np.eye(n_sites), GRADING)
    dirac = position_dirac(omega, omega.window_center, block_dim=2)
    for seed, symmetry, strength, accepted in ((0, "chiral", 0.2, True),
                                               (1, "chiral", 0.2, True),
                                               (2, "none", 1e-14, True),
                                               (3, "none", 1e-3, False)):
        V = random_perturbation(omega, 2.0, strength, 2,
                                grading=GRADING if symmetry == "chiral" else None,
                                seed=seed)
        Hd = H.to_dense() + V.to_dense()
        res = _chirality_residual(Hd, np.diag(G).copy())
        assert res == float(np.abs(G @ Hd @ G + Hd).max())
        if accepted:
            assert localizer_index_odd(Hd, dirac, 0.1, GRADING).index == -1
        else:
            with pytest.raises(SymmetryViolation):
                localizer_index_odd(Hd, dirac, 0.1, GRADING)


def _input_forms(H):
    """A BlockOperator, its CSR matrix and its dense matrix."""
    return [H, H.to_sparse(), H.to_dense()]


def test_localizers_agree_on_every_input_form(z2_12, chern_12):
    # Each input form is read as the same CSR matrix, so every IndexResult
    # is equal, floats included; hdata=None also resolves the spectrum.
    H = chern_12[1]
    dirac = position_dirac(z2_12, z2_12.window_center, block_dim=2)
    omega = z1(40)
    Hc = represent(SSH, omega)
    dirac1 = position_dirac(omega, omega.window_center, block_dim=2)
    runs = [
        [localizer_index_even(form, 0.0, dirac, 0.1) for form in _input_forms(H)],
        [localizer_index_odd(form, dirac1, 0.1, GRADING) for form in _input_forms(Hc)],
        [kappa_stability(form, 0.0, dirac, [0.05, 0.2]) for form in _input_forms(H)],
        [kappa_stability(form, 0.0, dirac1, [0.1, 0.2], GRADING)
         for form in _input_forms(Hc)],
    ]
    for results in runs:
        assert results[1] == results[0] and results[2] == results[0]
    assert runs[0][0].index == 1 and runs[1][0].index == -1


def test_odd_localizer_rejects_bad_arguments(z2_12):
    omega = z1(40)
    H = represent(builtin_model("chiral_ssh_1d"), omega)
    dirac = position_dirac(omega, omega.window_center, block_dim=2)
    with pytest.raises(InvalidInput, match="pinned to mu = 0"):
        kappa_stability(H, 0.1, dirac, [0.1], grading=GRADING)
    with pytest.raises(InvalidInput, match="needs the on-site chiral grading"):
        kappa_stability(H, 0.0, dirac, [0.1])
    with pytest.raises(InvalidInput):
        localizer_index_odd(H, dirac, 0.1, np.diag([1.0, 1.0]))
    with pytest.raises(InvalidInput):
        localizer_index_odd(H, dirac, 0.1, np.array([[0.0, 1.0], [1.0, 0.0]]))
    # Four orbitals per site against the 2 x 2 grading.
    dirac4 = position_dirac(omega, omega.window_center, block_dim=4)
    with pytest.raises(InvalidInput, match="shape does not match block_dim"):
        localizer_index_odd(np.kron(H.to_dense(), np.eye(2)), dirac4, 0.1, GRADING)
    dirac2 = position_dirac(z2_12, z2_12.window_center, block_dim=2)
    with pytest.raises(InvalidInput):
        localizer_index_odd(H, dirac2, 0.1, GRADING)


# ---------------------------------------------------------------------------
# kappa plateaus
# ---------------------------------------------------------------------------

def test_kappa_plateau_excludes_absurd_kappa(z2_12, chern_12):
    _, H = chern_12
    dirac = position_dirac(z2_12, z2_12.window_center, block_dim=2)
    results, plateau = kappa_stability(H, 0.0, dirac, [0.05, 0.1, 0.2, 1000.0])
    assert plateau
    assert [r.status for r in results] == ["ok", "ok", "ok", "unreliable"]
    assert {r.index for r in results if r.status == "ok"} == {1}


def test_kappa_plateau_odd_mode():
    omega = z1(120)
    H = represent(builtin_model("chiral_ssh_1d", t1=0.5, t2=1.0), omega)
    dirac = position_dirac(omega, omega.window_center, block_dim=2)
    results, plateau = kappa_stability(H, 0.0, dirac, [0.05, 0.1, 0.2],
                                       grading=GRADING)
    assert plateau
    assert [r.index for r in results] == [-1, -1, -1]


def test_kappa_plateau_rejects_bad_arguments(z2_12, chern_12):
    _, H = chern_12
    dirac = position_dirac(z2_12, z2_12.window_center, block_dim=2)
    with pytest.raises(InvalidInput):
        kappa_stability(H, 0.0, dirac, [])


# ---------------------------------------------------------------------------
# real-space Chern oracle
# ---------------------------------------------------------------------------

def test_angular_sectors_partition_disk(z2_12):
    x0 = z2_12.window_center
    sectors = angular_sectors(z2_12, x0, 5.5, block_dim=2)
    dense = np.concatenate(sectors)
    assert np.unique(dense).size == dense.size
    sites = np.unique(dense // 2)
    r = np.linalg.norm(z2_12.points - x0, axis=1)
    assert np.array_equal(sites, np.flatnonzero(r <= 5.5))
    for s in sectors:
        assert np.array_equal(np.unique(s // 2 * 2), s[::2])


def test_angular_sectors_rejects_bad_arguments(z2_12):
    with pytest.raises(InvalidInput):
        angular_sectors(z1(5), [0.0], 2.0)
    with pytest.raises(InvalidInput):
        angular_sectors(z2_12, z2_12.window_center, 0.0)


def test_kitaev_zero_projection_gives_zero(z2_12):
    sectors = angular_sectors(z2_12, z2_12.window_center, 5.5, block_dim=1)
    P = np.zeros((len(z2_12), len(z2_12)))
    assert kitaev_chern(P, sectors) == 0.0


def _frame_matches_reference_projection(H, sites, x0, radius, block_dim):
    """kitaev_chern from the frame-backed projections of eig_hermitian and of
    the Householder reduction against the full reference P, for every order
    of the three sectors; the reduction's eigenvalues against eig_hermitian's."""
    spec = eig_hermitian(H)
    P = fermi_projection(spec, 0.0)
    ref = reference_fermi_projection(spec.eigenvalues, spec.eigenvectors, 0.0)
    red = reduce_hermitian(H)
    lam = spec.eigenvalues
    assert (np.abs(red.eigenvalues - lam) <= 1e-12 * np.maximum(np.abs(lam), 1.0)).all()
    Q = red.fermi_projection(0.0)
    assert Q.rank == P.rank and Q.frame.shape == P.frame.shape
    A, B, C = angular_sectors(sites, x0, radius, block_dim)
    values = []
    for order in ((A, B, C), (B, A, C), (A, C, B), (C, A, B)):
        c, c_ref = kitaev_chern(P, order), kitaev_chern(ref, order)
        assert abs(c - c_ref) <= 1e-12 * max(1.0, abs(c_ref))
        assert abs(kitaev_chern(Q, order) - c) <= 1e-12
        values.append(c)
    assert values[1] == pytest.approx(-values[0], abs=1e-12)
    assert values[2] == pytest.approx(-values[0], abs=1e-12)
    assert values[3] == pytest.approx(values[0], abs=1e-12)
    return values[0]


def test_kitaev_chern_window_frozen_value(z2_12, chern_12):
    _, H = chern_12
    c = _frame_matches_reference_projection(H.to_dense(), z2_12, z2_12.window_center,
                                            5.5, 2)
    assert c == pytest.approx(0.9999795346429747, abs=1e-9)
    assert abs(c - 1.0) <= 0.1


def test_kitaev_frame_matches_reference_projection_periodic_23():
    # m = 1152, the MRRR path of eig_hermitian, read as CSR.
    sites = gen_periodic(np.eye(2), ([0.0, 0.0], [23.0, 23.0]))
    H = represent(builtin_model("chern_2band_2d", M=1.0), sites).to_sparse()
    c = _frame_matches_reference_projection(H, sites, sites.window_center,
                                            0.45 * 11.5, 2)
    assert abs(c - 1.0) <= 0.1


def test_kitaev_frame_matches_reference_projection_amorphous():
    # The 27^2 hard-core acceptance window (seed 1, m = 1552, MRRR path)
    # with the drivers' sector radius, 0.45 of the half-width.
    sites = gen_hardcore_random(([0.0, 0.0], [27.0, 27.0]), 0.8, 1.2, 1)
    H = represent(builtin_model("chern_2band_2d", M=1.0), sites).to_dense()
    c = _frame_matches_reference_projection(H, sites, sites.window_center,
                                            0.45 * 13.5, 2)
    assert abs(c - 1.0) <= 0.1


def test_kitaev_frame_matches_reference_projection_amorphous_14():
    sites = gen_hardcore_random(([0.0, 0.0], [14.0, 14.0]), 0.8, 1.2, 1)
    H = represent(builtin_model("chern_2band_2d", M=1.0), sites).to_sparse()
    c = _frame_matches_reference_projection(H, sites, sites.window_center,
                                            0.45 * 7.0, 2)
    assert abs(c - 1.0) <= 0.1


# ---------------------------------------------------------------------------
# Bloch-side oracles
# ---------------------------------------------------------------------------

def test_fhs_flat_family_is_trivial():
    c = bloch_chern_fhs(lambda k: np.diag([-1.0, 1.0]), 0.0, n=12)
    assert c == 0


def test_fhs_matches_solid_angle_oracle_across_phases():
    for M in (-1.0, 1.0, 3.0):
        hk = bloch_hamiltonian(builtin_model("chern_2band_2d", M=M), np.eye(2))
        assert bloch_chern_fhs(hk, 0.0, n=12) == dvector_chern_lower(hk)


def test_fhs_grid_stability():
    hk = bloch_hamiltonian(builtin_model("chern_2band_2d", M=1.0), np.eye(2))
    assert [bloch_chern_fhs(hk, 0.0, n=n) for n in (12, 16, 24)] == [1, 1, 1]


def test_fhs_error_paths():
    with pytest.raises(InvalidInput):
        bloch_chern_fhs(lambda k: np.diag([-1.0, 1.0]), 0.0, n=1)
    with pytest.raises(GapUndefined):
        bloch_chern_fhs(lambda k: np.diag([0.0, 1.0]), 0.0, n=12)
    with pytest.raises(GapUndefined):
        bloch_chern_fhs(lambda k: np.diag([np.cos(k[0]), 2.0]), 0.4, n=12)

    def swapping(k):
        return np.diag([-1.0, 1.0]) if k[0] < np.pi else np.diag([1.0, -1.0])

    with pytest.raises(GapUndefined):
        bloch_chern_fhs(swapping, 0.0, n=12)


def _fhs_outcome(fhs, hk, mu, n):
    try:
        return fhs(hk, mu, n=n)
    except (GapUndefined, ReferenceGapUndefined) as err:
        return ("gap undefined", str(err))


def _swapping(k):
    return np.diag([-1.0, 1.0]) if k[0] < np.pi else np.diag([1.0, -1.0])


def _chern_hk(**params):
    return bloch_hamiltonian(builtin_model("chern_2band_2d", **params), np.eye(2))


@pytest.mark.parametrize("hk, mu, n", [
    pytest.param(lambda k: np.diag([-1.0, 1.0]), 0.0, 12, id="flat"),
    *(pytest.param(_chern_hk(M=M), 0.0, 12, id=f"M={M}") for M in (-1.0, 1.0, 3.0)),
    *(pytest.param(_chern_hk(M=1.0), 0.0, n, id=f"grid-{n}") for n in (12, 16, 24)),
    pytest.param(lambda k: np.diag([0.0, 1.0]), 0.0, 12, id="gap-closes"),
    pytest.param(lambda k: np.diag([np.cos(k[0]), 2.0]), 0.4, 12, id="count-varies"),
    pytest.param(_swapping, 0.0, 12, id="degenerate-link"),
    # The stacking control: the default Chern model on the unit square lattice.
    pytest.param(_chern_hk(), 0.0, 16, id="stacking-control"),
])
def test_fhs_matches_the_per_point_oracle(hk, mu, n):
    # The batched grid against one eigh per k-point: the same integer, or
    # the same GapUndefined with the same message.
    assert _fhs_outcome(bloch_chern_fhs, hk, mu, n) == _fhs_outcome(
        reference_bloch_chern_fhs, hk, mu, n)


@pytest.mark.parametrize("hk, message", [
    (lambda k: np.diag([np.cos(k[0]) - 0.5, 1.0 + np.cos(k[1])]),
     "gap closes at grid point (0, 6)"),
    (lambda k: np.diag([np.cos(k[0]) - 0.9, np.cos(k[0])]),
     "occupied band count varies across the grid"),
], ids=["gap-first", "count-first"])
def test_fhs_reports_the_first_failing_grid_point(hk, message):
    # Each family both closes the gap and changes the occupied count on the
    # 12-point grid, at (0, 6) before (2, 0), or at (1, 0) before (3, 0):
    # the first failing point in row-major order names the error.
    for fhs, error in ((bloch_chern_fhs, GapUndefined),
                       (reference_bloch_chern_fhs, ReferenceGapUndefined)):
        with pytest.raises(error) as info:
            fhs(hk, 0.0, n=12)
        assert str(info.value) == message


def test_winding_closed_forms():
    assert bloch_winding(lambda k: np.exp(1.0j * k)) == 1
    assert bloch_winding(lambda k: np.exp(-2.0j * k)) == -2
    assert bloch_winding(lambda k: 3.0 + np.exp(1.0j * k)) == 0


def test_winding_error_paths():
    with pytest.raises(InvalidInput):
        bloch_winding(lambda k: np.exp(1.0j * k), n=4)
    with pytest.raises(GapUndefined):
        bloch_winding(lambda k: 1.0 - np.exp(-1.0j * k))


def test_chiral_block_extraction_closed_form():
    hk = bloch_hamiltonian(builtin_model("chiral_ssh_1d", t1=0.5, t2=1.0),
                           np.eye(1))
    ak = chiral_bloch_block(hk, GRADING)
    for k in (0.0, 0.9, np.pi):
        assert complex(ak(k)[0, 0]) == pytest.approx(0.5 + np.exp(-1.0j * k),
                                                     abs=1e-12)
