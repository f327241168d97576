"""Dense Hermitian spectral computations: eigendecompositions, gap location,
Fermi projections.

Window sizes stay at desk scale (matrices up to a few thousand), so
everything is a full dense eigensolve; projections are built from
eigenvectors, which is exact at finite dimension.  Every eigendecomposition
is ``scipy.linalg.eigh``: from _MRRR_MIN_DIM rows up with LAPACK's MRRR
driver (Dhillon & Parlett, SIMAX 2004), ``driver="evr"``, below it with
divide and conquer, ``driver="evd"``.

Only the m x m arrays an output reads are allocated.  eig_hermitian
symmetrizes into one Fortran-ordered buffer that LAPACK overwrites, and
checks every column's residual against a CSR copy of H (Hamiltonians are
finite-range) and its orthonormality in column blocks.  A FermiProjection
holds the occupied frame V, a view of the eigenvectors: P = V V^dag is
formed only when .matrix is read, and the three-sector Chern oracle forms
just the sector blocks of P from the frame.

The rest of the package sends window-sized LAPACK work (eigenvalue-only
solves, the localizer's LU solve) through scipy.linalg too: NumPy and SciPy
each bundle an OpenBLAS, and alternating the two at 2 BLAS threads slowed
each call ~2x.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse

from .errors import GapUndefined, InvalidInput
from .serialize import format_float

__all__ = [
    "SpectralData",
    "GapInfo",
    "FermiProjection",
    "eig_hermitian",
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


def eig_hermitian(H: np.ndarray) -> SpectralData:
    """Eigendecomposition with asserted residual and orthonormality bounds.

    MRRR solves from _MRRR_MIN_DIM rows up, divide and conquer below.
    Input must be Hermitian within 1e-10 elementwise; it is symmetrized
    exactly, into one Fortran-ordered buffer the solver overwrites, so the
    result is deterministic in the input bytes and H itself is left
    unchanged.  Every column is checked,
    one block of columns at a time: its residual |H v - lambda v| against a
    CSR copy of the symmetrized H (<= 1e-9 max(|lambda|, 1)), and its inner
    products with all columns on SciPy's BLAS (|V^dag V - 1| <= 1e-9).
    """
    H = np.asarray(H)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise InvalidInput(f"expected a square matrix, got shape {H.shape}")
    n = H.shape[0]
    if n == 0:
        return SpectralData(np.zeros(0), np.zeros((0, 0)), 0)
    blocks = [slice(j, min(j + _BLOCK, n)) for j in range(0, n, _BLOCK)]
    Hs = np.empty((n, n), dtype=np.result_type(H, 0.5), order="F")
    np.conjugate(H.T, out=Hs)
    herm_res = max(float(np.abs(H[:, j] - Hs[:, j]).max()) for j in blocks)
    if herm_res > 1e-10:
        raise InvalidInput(f"matrix is not Hermitian: max |H - H^dag| = {herm_res:.3e}")
    Hs += H
    Hs *= 0.5
    Hsp = scipy.sparse.csr_array(Hs)
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


def spectral_gap(spec: SpectralData | np.ndarray, mu: float) -> GapInfo:
    """Locate the gap bracketing mu; raises GapUndefined on collision."""
    vals = np.asarray(getattr(spec, "eigenvalues", spec), dtype=float)
    if vals.size and float(np.abs(vals - mu).min()) <= _COLLISION_TOL:
        raise GapUndefined(f"mu = {mu!r} collides with an eigenvalue")
    lower = vals[vals < mu]
    upper = vals[vals >= mu]
    below = float(lower[-1]) if lower.size else -np.inf
    above = float(upper[0]) if upper.size else np.inf
    return GapInfo(below, above, float(above - below))


def largest_gap(spec: SpectralData | np.ndarray) -> GapInfo:
    """Widest gap between consecutive eigenvalues; its center is the natural
    chemical potential for a half-specified run."""
    vals = np.asarray(getattr(spec, "eigenvalues", spec), dtype=float)
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
