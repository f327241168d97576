import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

import delonetop.spectral as spectral
from delonetop.errors import GapUndefined, InvalidInput
from delonetop.experiments import build_lattice
from delonetop.geometry import gen_periodic
from delonetop.groupoid import BlockOperator, builtin_model, represent
from delonetop.roe import random_perturbation
from delonetop.spectral import (_MRRR_MIN_DIM, GapInfo, SpectralData, eig_hermitian,
                                eigenvalues, fermi_projection, largest_gap, near_spectrum,
                                reduce_hermitian, spectral_gap, symmetric_gap,
                                write_spectrum_csv)
from oracles import path_graph_eigenvalues, reference_fermi_projection


def z1(n):
    return gen_periodic(np.eye(1), ([0.0], [float(n - 1)]))


# ---------------------------------------------------------------------------
# eig_hermitian
# ---------------------------------------------------------------------------

def test_eigenvalues_is_one_scipy_eigvalsh_on_an_overwritable_buffer(monkeypatch):
    # Looked up on scipy.linalg at call time, so a wrapper installed there
    # (as a tracer does) sees every eigenvalue-only solve.
    n = 40
    S = scipy.sparse.csr_array(np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1))
    before = S.toarray()
    calls = []
    real = scipy.linalg.eigvalsh

    def spy(a, **kwargs):
        calls.append((a.shape, a.flags.f_contiguous, kwargs))
        return real(a, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigvalsh", spy)
    evs = eigenvalues(S)
    assert calls == [((n, n), True, {"overwrite_a": True})]
    assert np.abs(evs - path_graph_eigenvalues(n)).max() <= 1e-12
    assert np.array_equal(S.toarray(), before)
    empty = eigenvalues(scipy.sparse.csr_array((0, 0)))
    assert empty.shape == (0,) and len(calls) == 1


def test_diagonal_matrix_sorted():
    spec = eig_hermitian(np.diag([3.0, 1.0, 2.0]))
    assert np.array_equal(spec.eigenvalues, [1.0, 2.0, 3.0])
    assert spec.source_dim == 3
    recon = spec.eigenvectors @ np.diag(spec.eigenvalues) @ spec.eigenvectors.conj().T
    assert np.abs(recon - np.diag([3.0, 1.0, 2.0])).max() <= 1e-12


def test_path_graph_against_closed_form():
    n = 50
    H = np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
    spec = eig_hermitian(H)
    assert np.abs(spec.eigenvalues - path_graph_eigenvalues(n)).max() <= 1e-9


def test_mrrr_path_against_closed_form():
    n = _MRRR_MIN_DIM
    H = np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
    spec = eig_hermitian(H)
    assert np.abs(spec.eigenvalues - path_graph_eigenvalues(n)).max() <= 1e-9


def test_complex_hermitian_and_eigenvector_columns():
    H = np.array([[0.0, 1.0j], [-1.0j, 0.0]])
    spec = eig_hermitian(H)
    assert np.abs(spec.eigenvalues - [-1.0, 1.0]).max() <= 1e-12
    for k in range(2):
        v = spec.eigenvectors[:, k]
        assert np.abs(H @ v - spec.eigenvalues[k] * v).max() <= 1e-12


def test_non_hermitian_rejected():
    with pytest.raises(InvalidInput):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(InvalidInput):
        eig_hermitian(np.ones((2, 3)))


def test_outputs_are_readonly():
    spec = eig_hermitian(np.eye(3))
    with pytest.raises(ValueError):
        spec.eigenvalues[0] = 5.0
    with pytest.raises(ValueError):
        spec.eigenvectors[0, 0] = 5.0


def _phased_path(n):
    """Open path graph with complex hoppings e^{0.3 i k}: Hermitian, not real."""
    hop = np.exp(0.3j * np.arange(n - 1))
    return np.diag(hop, 1) + np.diag(hop.conj(), -1)


@pytest.mark.parametrize("n", [50, _MRRR_MIN_DIM], ids=["evd", "evr"])
def test_eig_hermitian_leaves_input_unchanged(n):
    H = _phased_path(n)
    before = H.tobytes()
    spec = eig_hermitian(H)
    assert H.tobytes() == before
    assert np.abs(spec.eigenvalues - path_graph_eigenvalues(n)).max() <= 1e-9


def _corrupting(solver, kind):
    """solver with the last eigenvector column corrupted: rotated into the
    first one (still orthonormal, wrong residual) or scaled by 1 + 1e-6
    (right direction, not normalized)."""
    def corrupted(*args, **kwargs):
        vals, vecs, *rest = solver(*args, **kwargs)
        vecs = np.array(vecs)
        if kind == "rotate":
            c, s = np.cos(0.1), np.sin(0.1)
            vecs[:, [0, -1]] = vecs[:, [0, -1]] @ np.array([[c, -s], [s, c]])
        else:
            vecs[:, -1] *= 1.0 + 1e-6
        return vals, vecs, *rest
    return corrupted


@pytest.mark.parametrize("kind,message", [("rotate", "eigen residual"),
                                          ("scale", "orthonormality")])
@pytest.mark.parametrize("n", [50, _MRRR_MIN_DIM], ids=["evd", "evr"])
def test_corrupted_eigenvector_column_raises(monkeypatch, n, kind, message):
    monkeypatch.setattr(scipy.linalg, "eigh", _corrupting(scipy.linalg.eigh, kind))
    with pytest.raises(AssertionError, match=message):
        eig_hermitian(_phased_path(n))


def test_eig_hermitian_allocation_bound():
    # The 23^2 periodic Chern window, m = 1152 (MRRR path), given sparse:
    # beyond its input, eig_hermitian may hold the symmetrized CSR matrix,
    # the dense buffer LAPACK overwrites, the eigenvectors and block-sized
    # temporaries, ~2.07 m x m complex arrays, 2.2 at most.  A second dense
    # copy of H would need 3; the full-size residual and Gram products ~4.
    omega = gen_periodic(np.eye(2), ([0.0, 0.0], [23.0, 23.0]))
    H = represent(builtin_model("chern_2band_2d", M=1.0), omega).to_sparse()
    m = H.shape[0]
    assert m == 1152 and H.dtype == complex
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        spec = eig_hermitian(H)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert spec.eigenvectors.shape == (m, m)
    assert peak <= 2.2 * m * m * 16, f"peak {peak / (m * m * 16):.2f} m x m arrays"


@pytest.mark.parametrize("n", [40, _MRRR_MIN_DIM // 2], ids=["evd", "evr"])
def test_eig_hermitian_input_forms_agree(n):
    # A BlockOperator, its CSR matrix and its dense matrix are one CSR
    # matrix to eig_hermitian: byte-identical eigenvalues and eigenvectors.
    f = builtin_model("chiral_ssh_1d", t1=0.5, t2=1.0)
    H = represent(f, z1(n))
    specs = [eig_hermitian(form) for form in (H, H.to_sparse(), H.to_dense())]
    assert specs[0].source_dim == 2 * n
    for spec in specs[1:]:
        assert spec.eigenvalues.tobytes() == specs[0].eigenvalues.tobytes()
        assert spec.eigenvectors.tobytes() == specs[0].eigenvectors.tobytes()


def test_non_hermitian_message_is_the_same_for_every_input_form():
    T = BlockOperator(z1(2), 1, [0], [1], [[[1.0]]])
    messages = set()
    for form in (T, T.to_sparse(), T.to_dense()):
        with pytest.raises(InvalidInput, match="not Hermitian") as err:
            eig_hermitian(form)
        messages.add(str(err.value))
    assert messages == {"matrix is not Hermitian: max |H - H^dag| = 1.000e+00"}


# ---------------------------------------------------------------------------
# gaps
# ---------------------------------------------------------------------------

def test_gap_at_zero_of_pm_one():
    gap = spectral_gap(eig_hermitian(np.diag([-1.0, 1.0])), 0.0)
    assert (gap.below, gap.above, gap.width) == (-1.0, 1.0, 2.0)
    assert spectral_gap(np.array([-1.0, 1.0]), 0.0) == gap
    assert gap.center == 0.0
    assert gap.bounded


def test_gap_collision_raises():
    spec = eig_hermitian(np.diag([-1.0, 0.0, 1.0]))
    with pytest.raises(GapUndefined):
        spectral_gap(spec, 0.0)
    with pytest.raises(GapUndefined):
        spectral_gap(spec, 1.0 + 5e-13)


def test_gap_outside_spectrum_is_unbounded():
    spec = eig_hermitian(np.diag([-1.0, 1.0]))
    assert not spectral_gap(spec, 5.0).bounded
    assert spectral_gap(spec, -5.0).above == -1.0


def test_largest_gap_picks_widest():
    spec = eig_hermitian(np.diag([0.0, 0.1, 2.0, 2.05]))
    gap = largest_gap(spec)
    assert (gap.below, gap.above) == (0.1, 2.0)
    assert gap.center == pytest.approx(1.05)
    assert largest_gap(spec.eigenvalues) == gap
    with pytest.raises(GapUndefined):
        largest_gap(eig_hermitian(np.diag([1.0])))
    with pytest.raises(GapUndefined):
        largest_gap(eig_hermitian(np.eye(4)))


def test_gap_functions_read_unsorted_eigenvalues():
    # A localizer's hdata may be any array of eigenvalues, in any order.
    gap = spectral_gap(np.array([0.3, -0.1, 0.2, -0.4]), 0.0)
    assert (gap.below, gap.above) == (-0.1, 0.2)
    assert gap.width == pytest.approx(0.3, abs=1e-15)
    rng = np.random.default_rng(5)
    vals = np.array([-2.0, -1.9, -1.5, 0.25, 0.3, 1.5, 1.6])
    for _ in range(5):
        shuffled = rng.permutation(vals)
        assert spectral_gap(shuffled, 0.0) == spectral_gap(vals, 0.0)
        assert largest_gap(shuffled) == largest_gap(vals) == GapInfo(-1.5, 0.25, 1.75)
        assert symmetric_gap(shuffled) == symmetric_gap(vals)


def test_chern_half_filling_gap_frozen_value():
    """Finite-size gap of the two-band model on a 20x20 window with open edges.

    Edge modes cross the bulk gap, so the open-boundary width at mu = 0 is
    much smaller than the Bloch bulk gap (1.885); the eigensolver gives
    0.11273925825278838 and the value is frozen here as a regression anchor.
    """
    omega = gen_periodic(np.eye(2), ([0.0, 0.0], [20.0, 20.0]))
    H = represent(builtin_model("chern_2band_2d", M=1.0), omega).to_dense()
    gap = spectral_gap(eig_hermitian(H), 0.0)
    assert gap.width == pytest.approx(0.11273925825278838, abs=1e-12)


# ---------------------------------------------------------------------------
# symmetric (chiral) gap with zero-mode filtering
# ---------------------------------------------------------------------------

def test_symmetric_gap_ssh_open_chain():
    omega = z1(40)
    H = represent(builtin_model("chiral_ssh_1d", t1=0.5, t2=1.0), omega).to_dense()
    gap, nzero = symmetric_gap(np.linalg.eigvalsh(H))
    assert nzero == 2
    assert gap.width == pytest.approx(1.0, abs=0.05)
    assert gap.center == 0.0


def test_symmetric_gap_dimer_has_no_zero_modes():
    omega = z1(40)
    H = represent(builtin_model("dimer_chain_1d", t1=0.7), omega).to_dense()
    gap, nzero = symmetric_gap(np.linalg.eigvalsh(H))
    assert nzero == 0
    assert gap.width == pytest.approx(1.4, abs=1e-9)


def test_symmetric_gap_all_zero_raises():
    with pytest.raises(GapUndefined):
        symmetric_gap(np.zeros(6))


# ---------------------------------------------------------------------------
# near_spectrum against the dense oracle
# ---------------------------------------------------------------------------

CHERN = {"name": "chern_2band_2d", "M": 1.0}


def _trials(lattice, model, strength_rel, chiral, master_seed, n_trials):
    """(H + V, mu) of robustness trials built as run_robustness builds them:
    the noise strength is strength_rel times the window's gap at mu = 0."""
    sites = build_lattice(lattice)
    f = builtin_model(**model)
    Hs = represent(f, sites).to_sparse()
    evs = eigenvalues(Hs)
    width = (symmetric_gap(evs)[0] if chiral else spectral_gap(evs, 0.0)).width
    grading = f.grading if chiral else None
    for t in range(n_trials):
        seed = int(np.random.SeedSequence([master_seed, t]).generate_state(1)[0])
        V = random_perturbation(sites, 2.0, strength_rel * width, f.N, grading=grading,
                                seed=seed)
        yield Hs + V.to_sparse(), 0.0


def _matrices(case):
    if case == "periodic-16":
        for master_seed in (0, 1, 2):
            yield from _trials({"window": [0.0, 16.0]}, CHERN, 0.2, False, master_seed, 1)
    elif case == "hardcore-27":
        yield from _trials({"generator": "hardcore_random", "window": [0.0, 27.0],
                            "min_dist": 0.8, "target_R": 1.2, "seed": 1},
                           CHERN, 0.2, False, 0, 1)
    elif case == "ssh-20-chiral-noise":
        # Chiral noise splits the end modes above the zero-mode filter: every
        # trial's gap is the split, below the gap_closed floor.
        yield from _trials({"dim": 1, "window": [0.0, 20.0]},
                           {"name": "chiral_ssh_1d", "t1": 0.5, "t2": 1.0}, 0.2, True, 0, 6)
    elif case == "ssh-t1-0":
        # Exactly decoupled end orbitals: SuperLU finds H exactly singular.
        yield from _trials({"dim": 1, "window": [0.0, 20.0]},
                           {"name": "chiral_ssh_1d", "t1": 0.0, "t2": 1.0}, 0.0, True, 0, 1)
    elif case == "below-arpack":
        # 6 rows: ARPACK cannot ask for 2 eigenvalues of a 6-row matrix with
        # room to restart.
        yield from _trials({"dim": 1, "window": [0.0, 2.0]},
                           {"name": "chiral_ssh_1d", "t1": 0.5, "t2": 1.0}, 0.2, True, 0, 2)
    elif case == "mu-on-eigenvalue":
        S = represent(builtin_model(**CHERN), gen_periodic(np.eye(2), ([0.0] * 2, [8.0] * 2)))
        S = S.to_sparse()
        evs = eigenvalues(S)
        for j in (5, 17, len(evs) // 2):
            yield S, float(evs[j])


def _reads(evs, mu):
    """What the drivers and localizers read off a spectrum: the gap at mu,
    the chiral gap and zero-mode count around mu (None on GapUndefined),
    and ||H - mu||."""
    out = []
    for read in (lambda: spectral_gap(evs, mu).width,
                 lambda: symmetric_gap(evs - mu)):
        try:
            out.append(read())
        except GapUndefined:
            out.append(None)
    gap, sym = out
    return gap, sym and sym[0].width, sym and sym[1], float(np.abs(evs - mu).max())


@pytest.mark.parametrize("case, dense_fallback", [
    ("periodic-16", False), ("hardcore-27", False), ("ssh-20-chiral-noise", False),
    ("ssh-t1-0", True), ("below-arpack", True), ("mu-on-eigenvalue", False)])
def test_near_spectrum_reads_as_the_dense_spectrum(monkeypatch, case, dense_fallback):
    fallbacks = []
    real = spectral.eigenvalues

    def spy(S):
        fallbacks.append(S.shape[0])
        return real(S)

    monkeypatch.setattr(spectral, "eigenvalues", spy)
    n = 0
    for S, mu in _matrices(case):
        dense = real(S)
        fallbacks.clear()
        part = near_spectrum(S, mu)
        assert bool(fallbacks) == dense_fallback
        assert np.all(np.diff(part) >= 0)
        got, want = _reads(part, mu), _reads(dense, mu)
        # GapUndefined where dense raises it, and the same zero-mode count.
        assert [v is None for v in got] == [v is None for v in want]
        assert got[2] == want[2]
        for g, w in zip(got, want):
            if w is not None:
                assert abs(g - w) <= 1e-9 * abs(w), (case, got, want)
        n += 1
    assert n > 0


def test_near_spectrum_brackets_mu_outside_a_zero_mode_cluster():
    # Four zero modes and a bulk at +-1, +-2, ...: the first 2-eigenvalue
    # slice holds zero modes only, so the count doubles until the slice
    # reaches the bulk.
    vals = np.concatenate([[-1e-9, -1e-10, 1e-10, 1e-9], np.arange(1.0, 17.0),
                           -np.arange(1.0, 17.0)])
    S = scipy.sparse.csr_array(np.diag(vals))
    part = near_spectrum(S, 0.0)
    gap, nzero = symmetric_gap(part)
    assert nzero == 4
    assert gap.width == pytest.approx(2.0, rel=1e-12)
    assert float(np.abs(part).max()) == pytest.approx(16.0, rel=1e-12)
    assert spectral_gap(part, 0.0).width == pytest.approx(2e-10, rel=1e-9)


def test_near_spectrum_falls_back_to_the_dense_spectrum_without_arpack(monkeypatch):
    import scipy.sparse.linalg
    from scipy.sparse.linalg import ArpackNoConvergence

    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
    S = represent(builtin_model(**CHERN), gen_periodic(np.eye(2), ([0.0] * 2, [6.0] * 2)))
    S = S.to_sparse()
    np.testing.assert_array_equal(near_spectrum(S, 0.0), eigenvalues(S))


# ---------------------------------------------------------------------------
# Fermi projections
# ---------------------------------------------------------------------------

def test_fermi_projection_diagonal():
    spec = eig_hermitian(np.diag([-2.0, -1.0, 1.0, 2.0]))
    P = fermi_projection(spec, 0.0)
    assert P.rank == 2
    assert P.gap == (-1.0, 1.0)
    assert np.abs(P.matrix - np.diag([1.0, 1.0, 0.0, 0.0])).max() <= 1e-12
    with pytest.raises(ValueError):
        P.matrix[0, 0] = 7.0


def test_fermi_projection_commutes_with_h():
    omega = gen_periodic(np.eye(2), ([0.0, 0.0], [7.0, 7.0]))
    H = represent(builtin_model("chern_2band_2d", M=1.0), omega).to_dense()
    spec = eig_hermitian(H)
    P = fermi_projection(spec, 0.0).matrix
    assert np.abs(P @ H - H @ P).max() <= 1e-9
    assert np.abs(P @ P - P).max() <= 1e-9


def test_fermi_projection_matches_full_reference(chern_12):
    _, H = chern_12
    spec = eig_hermitian(H.to_dense())
    P = fermi_projection(spec, 0.0)
    ref = reference_fermi_projection(spec.eigenvalues, spec.eigenvectors, 0.0)
    assert P.rank == int((spec.eigenvalues < 0.0).sum())
    assert P.frame.shape == (H.dense_dim, P.rank)
    assert np.shares_memory(P.frame, spec.eigenvectors)
    assert np.abs(P.matrix - ref).max() <= 1e-12
    assert P.matrix is P.matrix
    for arr in (P.frame, P.matrix):
        with pytest.raises(ValueError):
            arr[0, 0] = 7.0


def test_fermi_projection_non_orthonormal_frame_trips_idempotency():
    spec = eig_hermitian(np.diag([-2.0, -1.0, 1.0, 2.0]))
    vecs = np.array(spec.eigenvectors)
    vecs[:, 1] *= 1.0 + 1e-6
    with pytest.raises(AssertionError, match="idempotency"):
        fermi_projection(SpectralData(spec.eigenvalues, vecs, 4), 0.0)
    # An unoccupied column is outside the frame and does not count.
    vecs = np.array(spec.eigenvectors)
    vecs[:, 2] *= 1.0 + 1e-6
    assert fermi_projection(SpectralData(spec.eigenvalues, vecs, 4), 0.0).rank == 2


def test_fermi_projection_collision_raises():
    spec = eig_hermitian(np.diag([-1.0, 0.0, 1.0]))
    with pytest.raises(GapUndefined):
        fermi_projection(spec, 0.0)


# ---------------------------------------------------------------------------
# The Householder reduction and its Fermi projection
# ---------------------------------------------------------------------------

def _small_hermitian(m):
    """An m x m complex Hermitian matrix with eigenvalues 1..m."""
    rng = np.random.default_rng(m)
    Q, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1.0j * rng.standard_normal((m, m)))
    return (Q * np.arange(1.0, m + 1.0)) @ Q.conj().T


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("mu", [0.5, 10.0], ids=["rank-0", "rank-m"])
def test_reduction_projection_matches_eig_hermitian_at_the_edges(m, mu):
    H = _small_hermitian(m)
    spec = eig_hermitian(H)
    ref = fermi_projection(spec, mu)
    red = reduce_hermitian(H)
    assert np.abs(red.eigenvalues - spec.eigenvalues).max() <= 1e-12
    P = red.fermi_projection(mu)
    assert P.rank == ref.rank == (0 if mu < 1.0 else m)
    assert P.frame.shape == (m, P.rank)
    assert P.gap == pytest.approx(ref.gap, abs=1e-12)
    assert np.abs(P.matrix - ref.matrix).max() <= 1e-12


def test_reduction_of_an_empty_matrix():
    red = reduce_hermitian(np.zeros((0, 0)))
    assert red.eigenvalues.shape == (0,)
    assert red.fermi_projection(0.0).frame.shape == (0, 0)


def test_reduction_outputs_and_input():
    H = _phased_path(60)
    before = H.tobytes()
    red = reduce_hermitian(H)
    assert H.tobytes() == before
    assert np.abs(red.eigenvalues - path_graph_eigenvalues(60)).max() <= 1e-12
    P = red.fermi_projection(0.0)
    assert P.rank == 30
    for arr in (red.eigenvalues, P.frame):
        with pytest.raises(ValueError):
            arr[0] = 7.0
    # The projection releases the reduction's m x m arrays: it runs once.
    with pytest.raises(RuntimeError, match="already projected"):
        red.fermi_projection(0.0)
    with pytest.raises(GapUndefined):
        reduce_hermitian(np.diag([-1.0, 0.0, 1.0])).fermi_projection(0.0)
    with pytest.raises(InvalidInput, match="not Hermitian"):
        reduce_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("kind,message", [("rotate", "eigen residual"),
                                          ("scale", "orthonormality")])
@pytest.mark.parametrize("n", [50, 600])
def test_corrupted_back_transformed_column_raises(monkeypatch, n, kind, message):
    # T's eigenvectors corrupted as _corrupting corrupts eigh's, so the
    # back-transform forms the first and last columns rotated, or the last
    # one scaled.  The shift puts the farthest eigenvalue from mu = 0 last:
    # that column is formed, outside the occupied frame, and checked.
    monkeypatch.setattr(scipy.linalg.lapack, "dstevd",
                        _corrupting(scipy.linalg.lapack.dstevd, kind))
    red = reduce_hermitian(_phased_path(n) + 0.5 * np.eye(n))
    with pytest.raises(AssertionError, match=message):
        red.fermi_projection(0.0)


def test_lost_eigenvalue_trips_the_trace_identities(monkeypatch):
    real = scipy.linalg.lapack.dstevd

    def shifted(d, e, **kwargs):
        vals, z, info = real(d, e, **kwargs)
        vals[-1] += 1e-6
        return vals, z, info

    monkeypatch.setattr(scipy.linalg.lapack, "dstevd", shifted)
    with pytest.raises(AssertionError, match="trace identity"):
        reduce_hermitian(_phased_path(50) + np.eye(50))


def test_reduction_allocation_bound():
    # The 23^2 periodic Chern window, m = 1152, given sparse: beyond its
    # input, the reduction and its projection at mu = 0 hold at their peak
    # about 1.56 m x m complex arrays (measured): the buffer zhetrd
    # overwrites and the panels of reflectors copied out of it; then the
    # panels, T's eigenvectors and dstevd's m^2 workspace; then the panels,
    # T's eigenvectors and the formed columns.  eig_hermitian holds 2.07.
    # The buffer kept until dstevd returns would read 2.56.
    omega = gen_periodic(np.eye(2), ([0.0, 0.0], [23.0, 23.0]))
    H = represent(builtin_model("chern_2band_2d", M=1.0), omega).to_sparse()
    m = H.shape[0]
    assert m == 1152
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        P = reduce_hermitian(H).fermi_projection(0.0)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert P.frame.shape == (m, m // 2)
    assert peak <= 1.6 * m * m * 16, f"peak {peak / (m * m * 16):.2f} m x m arrays"


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def test_write_spectrum_csv_roundtrip(tmp_path):
    path = tmp_path / "spec.csv"
    vals = [-1.5, 0.0, 1.0 / 3.0]
    write_spectrum_csv(path, vals)
    lines = path.read_text().splitlines()
    assert lines[0] == "index,eigenvalue"
    assert len(lines) == 4
    back = [float(l.split(",")[1]) for l in lines[1:]]
    assert back == vals
