import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from delonetop.errors import GapUndefined, InvalidInput
from delonetop.geometry import gen_periodic
from delonetop.groupoid import builtin_model, represent
from delonetop.spectral import (_MRRR_MIN_DIM, SpectralData, eig_hermitian,
                                fermi_projection, largest_gap, spectral_gap,
                                symmetric_gap, write_spectrum_csv)
from oracles import path_graph_eigenvalues, reference_fermi_projection


def z1(n):
    return gen_periodic(np.eye(1), ([0.0], [float(n - 1)]))


# ---------------------------------------------------------------------------
# eig_hermitian
# ---------------------------------------------------------------------------

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
        vals, vecs = solver(*args, **kwargs)
        vecs = np.array(vecs)
        if kind == "rotate":
            c, s = np.cos(0.1), np.sin(0.1)
            vecs[:, [0, -1]] = vecs[:, [0, -1]] @ np.array([[c, -s], [s, c]])
        else:
            vecs[:, -1] *= 1.0 + 1e-6
        return vals, vecs
    return corrupted


@pytest.mark.parametrize("kind,message", [("rotate", "eigen residual"),
                                          ("scale", "orthonormality")])
@pytest.mark.parametrize("n", [50, _MRRR_MIN_DIM], ids=["evd", "evr"])
def test_corrupted_eigenvector_column_raises(monkeypatch, n, kind, message):
    monkeypatch.setattr(scipy.linalg, "eigh", _corrupting(scipy.linalg.eigh, kind))
    with pytest.raises(AssertionError, match=message):
        eig_hermitian(_phased_path(n))


def test_eig_hermitian_allocation_bound():
    # The 23^2 periodic Chern window, m = 1152 (MRRR path): beyond its
    # input, eig_hermitian may hold the symmetrized copy LAPACK overwrites,
    # the eigenvectors and block-sized temporaries, 2.5 m x m complex arrays
    # at most.  The full-size residual and Gram products need ~4.
    omega = gen_periodic(np.eye(2), ([0.0, 0.0], [23.0, 23.0]))
    H = represent(builtin_model("chern_2band_2d", M=1.0), omega).to_dense()
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
    assert peak <= 2.5 * m * m * 16, f"peak {peak / (m * m * 16):.2f} m x m arrays"


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
