"""Hermitian spectral computations: eigendecompositions, gap location,
Fermi projections.

Window sizes stay at desk scale (matrices up to a few thousand), so a
window whose whole spectrum is read gets a dense eigenvalue solve,
eigenvalues(S).  Eigenvectors are formed, by eig_hermitian, only for the one
reader of them, the Kitaev oracle of a 2D quantization window: projections
are built from eigenvectors, which is exact at finite dimension.  A
perturbed robustness trial reads only the eigenvalues nearest mu and
||H - mu||: near_spectrum computes just those, by ARPACK shift-invert on one
sparse LU of H - mu.  Every eigendecomposition is ``scipy.linalg.eigh``: from _MRRR_MIN_DIM rows up with LAPACK's MRRR
driver (Dhillon & Parlett, SIMAX 2004), ``driver="evr"``, below it with
divide and conquer, ``driver="evd"``.

Only the m x m arrays an output reads are allocated.  H, a BlockOperator
or a dense or sparse matrix, is read as one CSR matrix (Hamiltonians are
finite-range): eig_hermitian checks Hermiticity and symmetrizes on it,
densifies it once, into the Fortran-ordered buffer that LAPACK overwrites,
and checks every column's residual against the same CSR matrix and its
orthonormality in column blocks.  A FermiProjection holds the occupied
frame V, a view of the eigenvectors: P = V V^dag is formed only when
.matrix is read, and the three-sector Chern oracle forms just the sector
blocks of P from the frame.

Every whole-spectrum eigenvalue-only solve of the package is
eigenvalues(S): one scipy.linalg.eigvalsh of S's _fortran_buffer, which
LAPACK overwrites; it is also near_spectrum's test oracle.
Window-sized LAPACK work goes through scipy.linalg: NumPy and SciPy each
bundle an OpenBLAS, and alternating the two at 2 BLAS threads slowed each
call ~2x.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse

from .errors import GapUndefined, InvalidInput
from .groupoid import BlockOperator
from .serialize import format_float

__all__ = [
    "SpectralData",
    "GapInfo",
    "FermiProjection",
    "eig_hermitian",
    "eigenvalues",
    "near_spectrum",
    "spectral_gap",
    "largest_gap",
    "symmetric_gap",
    "fermi_projection",
    "write_spectrum_csv",
]

_COLLISION_TOL = 1e-12
# |eigenvalue| at or below this counts as a zero (boundary) mode of a chiral
# spectrum in symmetric_gap.
_ZERO_MODE_TOL = 1e-6
# MRRR halves the 1552-row solve against divide and conquer.  Below this
# size the driver is evd: evr at every size gave no resolved wall-time gain
# in benchmark pairs (2-core host), and SciPy's evd gave eigenvalues and
# eigenvectors byte-identical to numpy's eigh at 70, 338 and 578 rows.
_MRRR_MIN_DIM = 1000
# Columns per block of eig_hermitian's checks: each block needs m x _BLOCK
# temporaries instead of m x m ones.
_BLOCK = 256
# Eigenvalues near_spectrum first asks ARPACK for around mu; the count
# doubles until the slice brackets mu.
_NEAR_K = 2


@dataclass(frozen=True)
class SpectralData:
    """Full eigendecomposition of a Hermitian matrix.

    eigenvalues ascend; eigenvectors[:, k] belongs to eigenvalues[k].
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    source_dim: int


@dataclass(frozen=True)
class GapInfo:
    """Bracket of a spectral gap: largest eigenvalue below mu, smallest at or
    above, and their difference.  An infinite side means mu sits outside the
    spectrum range."""

    below: float
    above: float
    width: float

    @property
    def bounded(self) -> bool:
        return np.isfinite(self.width)

    @property
    def center(self) -> float:
        return 0.5 * (self.below + self.above)


@dataclass(frozen=True)
class FermiProjection:
    """Spectral projection P = V V^dag onto the eigenvalues below mu.

    frame is the occupied frame V = eigenvectors[:, :rank]: a read-only
    view of the eigendecomposition, not a copy.  matrix forms the m x m P
    on first access (read-only); consumers that need only some blocks of P,
    such as index.kitaev_chern, read them off the frame.
    """

    frame: np.ndarray
    mu: float
    gap: tuple[float, float]
    rank: int

    @cached_property
    def matrix(self) -> np.ndarray:
        P = self.frame @ self.frame.conj().T
        P.setflags(write=False)
        return P


def _csr(H, dtype=None) -> scipy.sparse.csr_array:
    """H, a BlockOperator or a square dense or sparse matrix, as one CSR
    matrix: BlockOperator.to_sparse(), else csr_array (which drops zeros of
    a dense input and shares a CSR input's arrays)."""
    if isinstance(H, BlockOperator):
        return H.to_sparse()
    shape = np.shape(H)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise InvalidInput(f"expected a square matrix, got shape {shape}")
    return scipy.sparse.csr_array(H, dtype=dtype)


def _fortran_buffer(S) -> np.ndarray:
    """The dense Fortran-ordered copy of the sparse S for a LAPACK call to
    overwrite.  Stored entries are copied bit for bit: toarray adds them
    into zeros, which turns a -0.0 part into 0.0."""
    coo = S.tocoo()
    out = np.zeros(S.shape, dtype=S.dtype, order="F")
    out[coo.row, coo.col] = coo.data
    return out


def eig_hermitian(H) -> SpectralData:
    """Eigendecomposition with asserted residual and orthonormality bounds.

    H is a BlockOperator or a dense or sparse matrix, read as one CSR
    matrix (_csr).  MRRR solves from _MRRR_MIN_DIM rows up, divide and
    conquer below.  H must be Hermitian within 1e-10 elementwise; it is
    symmetrized exactly on the CSR matrix and densified once, into the
    Fortran-ordered buffer the solver overwrites, so the result is
    deterministic in the stored entries and H itself is left unchanged.
    Every column is checked, one block of columns at a time: its residual
    |H v - lambda v| against the symmetrized CSR matrix (<= 1e-9
    max(|lambda|, 1)), and its inner products with all columns on SciPy's
    BLAS (|V^dag V - 1| <= 1e-9).
    """
    H = _csr(H)
    n = H.shape[0]
    if n == 0:
        return SpectralData(np.zeros(0), np.zeros((0, 0)), 0)
    blocks = [slice(j, min(j + _BLOCK, n)) for j in range(0, n, _BLOCK)]
    Hdag = H.conj().T.tocsr()
    herm_res = float(np.abs((H - Hdag).data).max(initial=0.0))
    if herm_res > 1e-10:
        raise InvalidInput(f"matrix is not Hermitian: max |H - H^dag| = {herm_res:.3e}")
    Hsp = (Hdag + H) * 0.5
    del H, Hdag
    Hs = _fortran_buffer(Hsp)
    driver = "evr" if n >= _MRRR_MIN_DIM else "evd"
    vals, vecs = scipy.linalg.eigh(Hs, driver=driver, overwrite_a=True)
    del Hs

    scale = max(float(np.abs(vals).max()), 1.0)
    gemm = scipy.linalg.get_blas_funcs("gemm", (vecs,))
    resid = ortho = 0.0
    for j in blocks:
        R = Hsp @ vecs[:, j]
        R -= vecs[:, j] * vals[j]
        resid = max(resid, float(np.linalg.norm(R, axis=0).max()))
        # V^dag V is Hermitian: its upper triangle covers every pair.
        G = gemm(1.0, vecs[:, :j.stop], vecs[:, j], trans_a=2)
        G[j] -= np.eye(j.stop - j.start)
        ortho = max(ortho, float(np.abs(G).max()))
    assert resid <= 1e-9 * scale, f"eigen residual {resid:.3e} exceeds tolerance"
    assert ortho <= 1e-9, f"orthonormality defect {ortho:.3e} exceeds tolerance"

    vals.setflags(write=False)
    vecs.setflags(write=False)
    return SpectralData(vals, vecs, n)


def eigenvalues(S) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian sparse matrix S, from one
    scipy.linalg.eigvalsh (looked up at call time) of its dense Fortran
    buffer, which LAPACK overwrites; S itself is left unchanged."""
    if S.shape[0] == 0:
        return np.zeros(0)
    return scipy.linalg.eigvalsh(_fortran_buffer(S), overwrite_a=True)


def _splu(A):
    """SuperLU factor of the sparse CSC matrix A with diagonal pivots in a
    symmetric MMD_AT_PLUS_A ordering, as far as the diagonal allows."""
    # Imported here: scipy.sparse.linalg adds ~35 modules to CLI start-up.
    from scipy.sparse.linalg import splu

    return splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options={"SymmetricMode": True})


def near_spectrum(S, mu: float) -> np.ndarray:
    """The part of the spectrum of the Hermitian sparse matrix S that the gap
    functions and the localizers read, ascending: the eigenvalues nearest mu
    and the one farthest from it.

    One _splu factor of S - mu serves ARPACK shift-invert (Lehoucq, Sorensen
    & Yang, ARPACK Users' Guide, SIAM 1998) at tol = 0 from a fixed-seed
    start vector.  Over the 300 trials of the 16^2 periodic Chern robustness
    runs at master seeds 0-9, its diagonal pivots gave gaps within 2.3e-13
    relative of a dense eigvalsh, as SuperLU's default partial pivoting
    did, in 6.2 against 9.6 ms per trial.  It asks for _NEAR_K eigenvalues,
    doubling the count until the slice holds one below mu, one at or above
    it and one farther than _ZERO_MODE_TOL from it: the nearest eigenvalue
    on each side of mu, every zero mode and the nearest nonzero
    |eigenvalue - mu| are then in the slice, so spectral_gap and
    symmetric_gap read the same bracket and count off it as off the whole
    spectrum.  One more ARPACK solve adds the eigenvalue farthest from mu, so
    max |slice - mu| = ||S - mu||, the localizers' default scale.  It stops
    at tol = 1e-10, as the localizer's margin solve does: on the same trials
    it took 7.1 against 10.9 ms at tol = 0, both within 1.4e-14 relative of
    the dense value.  Where ARPACK cannot run (n <= 2k + 2), S - mu is
    exactly singular or ARPACK does not converge it returns eigenvalues(S).
    """
    n = S.shape[0]
    k = _NEAR_K
    if n <= 2 * k + 2:
        return eigenvalues(S)
    from scipy.sparse.linalg import LinearOperator, eigsh

    A = scipy.sparse.csc_matrix(S - mu * scipy.sparse.identity(n, format="csr"))
    rng = np.random.default_rng(0)
    v0 = rng.standard_normal(n)
    if np.iscomplexobj(A.data):
        v0 = v0 + 1.0j * rng.standard_normal(n)
    try:
        inv = LinearOperator(A.shape, matvec=_splu(A).solve, dtype=A.dtype)
        while n > 2 * k + 2:
            near = eigsh(A, k=k, sigma=0, OPinv=inv, v0=v0, tol=0,
                         return_eigenvectors=False)
            if ((near < 0).any() and (near >= 0).any()
                    and (np.abs(near) > _ZERO_MODE_TOL).any()):
                far = eigsh(A, k=1, which="LM", v0=v0, tol=1e-10,
                            return_eigenvectors=False)
                return np.sort(np.concatenate([near, far]) + mu)
            k *= 2
    except RuntimeError:  # SuperLU's "Factor is exactly singular"; ArpackError
        pass
    return eigenvalues(S)


def spectral_gap(spec: SpectralData | np.ndarray, mu: float) -> GapInfo:
    """Locate the gap bracketing mu; raises GapUndefined on collision.  The
    eigenvalues may come in any order."""
    vals = np.asarray(getattr(spec, "eigenvalues", spec), dtype=float)
    if vals.size and float(np.abs(vals - mu).min()) <= _COLLISION_TOL:
        raise GapUndefined(f"mu = {mu!r} collides with an eigenvalue")
    lower = vals[vals < mu]
    upper = vals[vals >= mu]
    below = float(lower.max()) if lower.size else -np.inf
    above = float(upper.min()) if upper.size else np.inf
    return GapInfo(below, above, float(above - below))


def largest_gap(spec: SpectralData | np.ndarray) -> GapInfo:
    """Widest gap between consecutive eigenvalues, in any order; its center
    is the natural chemical potential for a half-specified run."""
    vals = np.sort(np.asarray(getattr(spec, "eigenvalues", spec), dtype=float))
    if vals.size < 2:
        raise GapUndefined("need at least two eigenvalues to pick a gap")
    diffs = np.diff(vals)
    k = int(np.argmax(diffs))
    if diffs[k] <= _COLLISION_TOL:
        raise GapUndefined("spectrum has no open gap")
    return GapInfo(float(vals[k]), float(vals[k + 1]), float(diffs[k]))


def symmetric_gap(eigenvalues) -> tuple[GapInfo, int]:
    """Gap around 0 of a chiral (symmetric) spectrum, tolerating edge modes.

    Open chiral chains in a nontrivial phase carry a handful of eigenvalues
    that are zero to machine precision (boundary modes); the bulk gap is the
    distance to the rest of the spectrum.  Returns the filtered gap and the
    number of zero modes ignored.
    """
    vals = np.abs(np.asarray(eigenvalues, dtype=float))
    zero = vals <= _ZERO_MODE_TOL
    bulk = vals[~zero]
    if bulk.size == 0:
        raise GapUndefined("spectrum consists of zero modes only")
    half = float(bulk.min())
    return GapInfo(-half, half, 2.0 * half), int(zero.sum())


def fermi_projection(spec: SpectralData, mu: float) -> FermiProjection:
    """Spectral projection onto eigenvalues strictly below mu, held as its
    occupied frame V (eigenvalues ascend, so V is a leading column slice).

    P = V V^dag is Hermitian by construction.  Idempotency is asserted on
    the rank x rank frame Gram matrix instead of on P @ P: with
    E = V^dag V - 1, P^2 - P = V E V^dag, so
    max|P^2 - P| <= ||V||^2 ||E|| <= ||E||_F (1 + ||E||_F), and the assert
    ||E||_F (1 + ||E||_F) <= 1e-9 bounds max|P^2 - P| by 1e-9.
    """
    gap = spectral_gap(spec, mu)
    rank = int((spec.eigenvalues < mu).sum())
    V = spec.eigenvectors[:, :rank].view()
    V.setflags(write=False)
    E = scipy.linalg.get_blas_funcs("gemm", (V,))(1.0, V, V, trans_a=2)
    E[np.diag_indices(rank)] -= 1.0
    e = float(np.linalg.norm(E))
    assert e * (1.0 + e) <= 1e-9, f"projection idempotency bound {e * (1.0 + e):.3e}"
    return FermiProjection(V, float(mu), (gap.below, gap.above), rank)


def write_spectrum_csv(path, eigenvalues) -> None:
    """Write eigenvalues as CSV with header ``index,eigenvalue``."""
    lines = ["index,eigenvalue"]
    for k, v in enumerate(np.asarray(eigenvalues, dtype=float)):
        lines.append(f"{k},{format_float(float(v))}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
