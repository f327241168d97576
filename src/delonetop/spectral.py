"""Dense Hermitian spectral computations: eigendecompositions, gap location,
Fermi projections.

Window sizes stay at desk scale (matrices up to a few thousand), so
everything is a full dense eigensolve; projections are built from
eigenvectors, which is exact at finite dimension.  From _MRRR_MIN_DIM rows
up, eigenvectors come from LAPACK's MRRR driver (Dhillon & Parlett, SIMAX
2004), ``scipy.linalg.eigh(driver="evr")``; smaller matrices use numpy.

The rest of the package sends window-sized LAPACK work (eigenvalue-only
solves, the localizer's LU solve) through scipy.linalg: NumPy and SciPy
each bundle an OpenBLAS, and alternating the two at 2 BLAS threads slowed
each call ~2x.  eig_hermitian is the measured exception below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

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
# MRRR halves the 1552-row solve against numpy's divide and conquer.  Below
# this size numpy's eigh stays: evr at every size gave no resolved wall-time
# gain in benchmark pairs (2-core host), and SciPy's evd below 1000 rows is
# byte-identical to numpy's and was neutral over 4 + 3 pairs.
_MRRR_MIN_DIM = 1000


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
    matrix: np.ndarray
    mu: float
    gap: tuple[float, float]
    rank: int


def eig_hermitian(H: np.ndarray) -> SpectralData:
    """Eigendecomposition with asserted residual and orthonormality bounds.

    MRRR solves from _MRRR_MIN_DIM rows up.  Input must be Hermitian within
    1e-10 elementwise; it is symmetrized exactly before the solve so the
    result is deterministic in the input bytes.
    """
    H = np.asarray(H)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise InvalidInput(f"expected a square matrix, got shape {H.shape}")
    n = H.shape[0]
    if n == 0:
        return SpectralData(np.zeros(0), np.zeros((0, 0)), 0)
    herm_res = float(np.abs(H - H.conj().T).max())
    if herm_res > 1e-10:
        raise InvalidInput(f"matrix is not Hermitian: max |H - H^dag| = {herm_res:.3e}")
    Hs = 0.5 * (H + H.conj().T)
    if n >= _MRRR_MIN_DIM:
        vals, vecs = scipy.linalg.eigh(Hs, driver="evr")
    else:
        vals, vecs = np.linalg.eigh(Hs)

    scale = max(float(np.abs(vals).max()), 1.0)
    resid = float(np.linalg.norm(Hs @ vecs - vecs * vals[None, :], axis=0).max())
    ortho = float(np.abs(vecs.conj().T @ vecs - np.eye(n)).max())
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


def symmetric_gap(eigenvalues, zero_tol: float = 1e-6) -> tuple[GapInfo, int]:
    """Gap around 0 of a chiral (symmetric) spectrum, tolerating edge modes.

    Open chiral chains in a nontrivial phase carry a handful of eigenvalues
    that are zero to machine precision (boundary modes); the bulk gap is the
    distance to the rest of the spectrum.  Returns the filtered gap and the
    number of zero modes ignored.
    """
    vals = np.abs(np.asarray(eigenvalues, dtype=float))
    zero = vals <= zero_tol
    bulk = vals[~zero]
    if bulk.size == 0:
        raise GapUndefined("spectrum consists of zero modes only")
    half = float(bulk.min())
    return GapInfo(-half, half, 2.0 * half), int(zero.sum())


def fermi_projection(spec: SpectralData, mu: float) -> FermiProjection:
    """Spectral projection onto eigenvalues strictly below mu."""
    gap = spectral_gap(spec, mu)
    occ = spec.eigenvalues < mu
    V = spec.eigenvectors[:, occ]
    P = V @ V.conj().T
    rank = int(occ.sum())

    idem = float(np.abs(P @ P - P).max()) if P.size else 0.0
    herm = float(np.abs(P - P.conj().T).max()) if P.size else 0.0
    assert idem <= 1e-9, f"projection idempotency defect {idem:.3e}"
    assert herm <= 1e-9, f"projection hermiticity defect {herm:.3e}"
    P.setflags(write=False)
    return FermiProjection(P, float(mu), (gap.below, gap.above), rank)


def write_spectrum_csv(path, eigenvalues) -> None:
    """Write eigenvalues as CSV with header ``index,eigenvalue``."""
    lines = ["index,eigenvalue"]
    for k, v in enumerate(np.asarray(eigenvalues, dtype=float)):
        lines.append(f"{k},{format_float(float(v))}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
