"""Hermitian spectral computations: eigendecompositions, gap location,
Fermi projections.

Window sizes stay at desk scale (matrices up to a few thousand), so a
window whose whole spectrum is read gets a dense eigenvalue solve,
eigenvalues(S).  Eigenvectors are formed only for the one reader of them,
the Kitaev oracle of a 2D quantization window, and only the ones it reads:
reduce_hermitian splits the eigensolve as LAPACK does (one zhetrd
Householder reduction to a real tridiagonal T, dstevd for T's whole
spectrum and eigenvectors), and its fermi_projection, once mu is resolved
from the eigenvalues, back-transforms (zunmqr) only the occupied frame and
the two eigenvectors that bound the spectrum the run reads.  Projections
are built from eigenvectors, which is exact at finite dimension.  A
perturbed robustness trial reads only the eigenvalues nearest mu and
||H - mu|| (a Weyl-certified one not even that): near_spectrum computes
just those, by ARPACK shift-invert on one sparse LU of H - mu.
eig_hermitian, the full eigendecomposition, is ``scipy.linalg.eigh``: from
_MRRR_MIN_DIM rows up with LAPACK's MRRR driver (Dhillon & Parlett, SIMAX
2004), ``driver="evr"``, below it with divide and conquer,
``driver="evd"``; it and fermi_projection are the public full solve and
the test oracle of the reduction.

Only the m x m arrays an output reads are allocated.  H, a BlockOperator
or a dense or sparse matrix, is read as one CSR matrix (Hamiltonians are
finite-range): eig_hermitian and reduce_hermitian check Hermiticity and
symmetrize on it, densify it once, into the Fortran-ordered buffer that
LAPACK overwrites, and check every eigenvector they form: its residual
against the same CSR matrix and its orthonormality.  A FermiProjection
holds the occupied frame V: P = V V^dag is formed only when .matrix is
read, and the three-sector Chern oracle forms just the sector blocks of P
from the frame.

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
    "HermitianReduction",
    "eig_hermitian",
    "reduce_hermitian",
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
# Reflectors per zunmqr call of HermitianReduction.fermi_projection:
# LAPACK's largest block (NBMAX), so a panel costs what one call over all
# of them would, and the panels' triangles add only m x _PANEL / 2 entries
# to the reflectors' m^2 / 2.
_PANEL = 64


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
    view of the eigenvectors (an eig_hermitian solve's, or the columns a
    HermitianReduction formed), not a copy.  matrix forms the m x m P
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


def _symmetrized(H) -> scipy.sparse.csr_array:
    """H read as one CSR matrix (_csr), checked Hermitian within 1e-10
    elementwise and symmetrized exactly, (H + H^dag) / 2."""
    H = _csr(H)
    Hdag = H.conj().T.tocsr()
    herm_res = float(np.abs((H - Hdag).data).max(initial=0.0))
    if herm_res > 1e-10:
        raise InvalidInput(f"matrix is not Hermitian: max |H - H^dag| = {herm_res:.3e}")
    return (Hdag + H) * 0.5


def _max_residual(Hsp, vecs, vals) -> float:
    """max_k |H v_k - lambda_k v_k| against the CSR matrix Hsp, one block of
    _BLOCK columns at a time."""
    resid = 0.0
    for j in range(0, vecs.shape[1], _BLOCK):
        j = slice(j, j + _BLOCK)
        R = Hsp @ vecs[:, j]
        R -= vecs[:, j] * vals[j]
        resid = max(resid, float(np.linalg.norm(R, axis=0).max()))
    return resid


def _assert_idempotent(e: float) -> None:
    """The idempotency bound of P = V V^dag from e = ||E||_F, the Frobenius
    norm of the frame's Gram defect E = V^dag V - 1: P^2 - P = V E V^dag, so
    max|P^2 - P| <= ||V||^2 ||E|| <= e (1 + e), asserted <= 1e-9."""
    assert e * (1.0 + e) <= 1e-9, f"projection idempotency bound {e * (1.0 + e):.3e}"


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
    Hsp = _symmetrized(H)
    n = Hsp.shape[0]
    if n == 0:
        return SpectralData(np.zeros(0), np.zeros((0, 0)), 0)
    Hs = _fortran_buffer(Hsp)
    driver = "evr" if n >= _MRRR_MIN_DIM else "evd"
    vals, vecs = scipy.linalg.eigh(Hs, driver=driver, overwrite_a=True)
    del Hs

    scale = max(float(np.abs(vals).max()), 1.0)
    resid = _max_residual(Hsp, vecs, vals)
    gemm = scipy.linalg.get_blas_funcs("gemm", (vecs,))
    ortho = 0.0
    for j in range(0, n, _BLOCK):
        j = slice(j, min(j + _BLOCK, n))
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


def near_spectrum(S, mu: float, far: bool = True) -> np.ndarray:
    """The part of the spectrum of the Hermitian sparse matrix S that the gap
    functions and the localizers read, ascending: the eigenvalues nearest mu
    and, unless far is False, the one farthest from it.

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
    the dense value.  That solve is more than half of the call on the 16^2
    window (131-141 products: the band edge is clustered), so a caller that
    reads no default scale, a Weyl-certified robustness trial, passes
    far=False and gets the near eigenvalues alone.  Where ARPACK cannot run
    (n <= 2k + 2), S - mu is exactly singular or ARPACK does not converge it
    returns eigenvalues(S), whole.
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
                if far:
                    near = np.concatenate([near, eigsh(
                        A, k=1, which="LM", v0=v0, tol=1e-10, return_eigenvectors=False)])
                return np.sort(near + mu)
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
    _assert_idempotent(float(np.linalg.norm(E)))
    return FermiProjection(V, float(mu), (gap.below, gap.above), rank)


class HermitianReduction:
    """The whole spectrum of a Hermitian H from one Householder reduction,
    and the Fermi projection at a mu resolved from it.

    reduce_hermitian builds it (LAPACK's split of the eigensolve, Anderson
    et al., LAPACK Users' Guide, SIAM 1999): zhetrd reduces H = Q T Q^dag,
    T real tridiagonal, and dstevd (divide and conquer) gives
    T = Z diag(l) Z^T.  eigenvalues, ascending and read-only, are every l;
    the eigenvectors of H are Q Z, and fermi_projection forms only the
    columns a window reads.  Q is held as its reflectors, in panels of
    _PANEL.  A reduction projects once: that call releases Z and the
    reflectors as soon as its columns no longer need them.
    """

    def __init__(self, eigenvalues, matrix, panels, tvecs):
        self.eigenvalues = eigenvalues
        self._matrix = matrix
        self._panels = panels
        self._tvecs = tvecs

    def fermi_projection(self, mu: float) -> FermiProjection:
        """The spectral projection onto the eigenvalues below mu, as
        fermi_projection gives it from an eig_hermitian solve.

        Q is applied (zunmqr) to the columns of Z the run reads: the
        occupied frame, the eigenvector just above mu (the gap edge) and
        the one farthest from mu (||H - mu||, the default margin_min scale).
        Each formed column is checked as eig_hermitian checks its columns,
        its residual against the symmetrized CSR matrix and its inner
        products with every formed column, from one Gram matrix, whose
        frame block also gives fermi_projection's idempotency bound.
        GapUndefined if mu collides with an eigenvalue.
        """
        if self._tvecs is None:
            raise RuntimeError("this reduction was already projected")
        vals = self.eigenvalues
        gap = spectral_gap(vals, mu)
        m = vals.size
        rank = int((vals < mu).sum())
        far = int(np.argmax(np.abs(vals - mu))) if m else 0
        extra = [k for k in dict.fromkeys((rank, far)) if rank <= k < m]
        # V is row-major, so V^T is a Fortran array whose trailing columns
        # are contiguous: each panel of reflectors, which acts on the
        # trailing rows of V, is applied from the right in place, last
        # panel first, V^T := V^T Q^dag = (Q Z)^dag for the real Z, and
        # conjugation leaves V = Q Z.
        V = np.empty((m, rank + len(extra)), dtype=complex)
        V[:, :rank] = self._tvecs[:, :rank]
        for i, k in enumerate(extra):
            V[:, rank + i] = self._tvecs[:, k]
        self._tvecs = None
        unmqr = scipy.linalg.lapack.zunmqr
        # zunmqr's optimal workspace, NW * NB + TSIZE: NW the rows of V^T,
        # NB at most NBMAX = _PANEL, TSIZE = (NBMAX + 1) * NBMAX.
        lwork = max(1, V.shape[1]) * _PANEL + (_PANEL + 1) * _PANEL
        for a, tau in reversed(self._panels):
            c = V.T[:, m - a.shape[0]:]
            info = unmqr("R", "C", a, tau, c, lwork, overwrite_c=1)[2]
            assert info == 0, f"zunmqr info {info}"
        self._panels = None
        np.conjugate(V, out=V)

        lam = np.concatenate([vals[:rank], vals[extra]])
        scale = max(float(np.abs(vals).max(initial=0.0)), 1.0)
        resid = _max_residual(self._matrix, V, lam)
        assert resid <= 1e-9 * scale, f"eigen residual {resid:.3e} exceeds tolerance"
        # herk forms the upper triangle of V^T conj(V), the conjugate of the
        # Hermitian V^dag V, and leaves the lower one zero: with the diagonal
        # it covers every pair, and conjugation keeps every norm.
        E = scipy.linalg.blas.zherk(1.0, V.T) if V.size else np.zeros((0, 0))
        E[np.diag_indices(E.shape[0])] -= 1.0
        ortho = float(np.abs(E).max(initial=0.0))
        assert ortho <= 1e-9, f"orthonormality defect {ortho:.3e} exceeds tolerance"
        up, diag = np.linalg.norm(E[:rank, :rank]), np.linalg.norm(E.diagonal()[:rank])
        _assert_idempotent(float(np.sqrt(2.0 * up * up - diag * diag)))
        del E

        V.setflags(write=False)
        return FermiProjection(V[:, :rank], float(mu), (gap.below, gap.above), rank)


def reduce_hermitian(H) -> HermitianReduction:
    """The HermitianReduction of H, a BlockOperator or a dense or sparse
    matrix, read, checked Hermitian and symmetrized as eig_hermitian does.

    The symmetrized CSR matrix is densified once, into the buffer zhetrd
    (lower) overwrites.  Reflector j of Q = H_0 ... H_{m-2} then lies below
    the subdiagonal of column j; the reflectors are copied out in panels of
    _PANEL columns, half the buffer, which is freed before dstevd, so its
    m^2 workspace and T's eigenvectors take the buffer's place: the peak is
    about 1.56 m x m complex arrays (23^2 window), where the buffer kept
    through dstevd made it 2.56 and eig_hermitian holds 2.07.  The whole
    spectrum is checked in O(m): sum l = tr H and sum l^2 = ||H||_F^2, each
    within 1e-9 relative.
    """
    Hsp = _symmetrized(H).astype(complex, copy=False)
    m = Hsp.shape[0]
    vals, Z, panels = np.zeros(0), np.zeros((0, 0)), []
    if m:
        lapack = scipy.linalg.lapack
        buf = _fortran_buffer(Hsp)
        lwork = int(lapack.zhetrd_lwork(m, lower=1)[0].real)
        # [1:] drops zhetrd's returned alias of buf, which would keep it alive.
        d, e, tau, info = lapack.zhetrd(buf, lower=1, lwork=lwork, overwrite_a=1)[1:]
        assert info == 0, f"zhetrd info {info}"
        panels = [(np.array(buf[j + 1:, j:min(j + _PANEL, m - 1)], order="F"),
                   tau[j:j + _PANEL]) for j in range(0, m - 1, _PANEL)]
        del buf
        vals, Z, info = lapack.dstevd(d, e if m > 1 else np.zeros(1),
                                      overwrite_d=1, overwrite_e=1)
        assert info == 0, f"dstevd info {info}"

    trace = float(Hsp.diagonal().real.sum())
    frob2 = float(np.vdot(Hsp.data, Hsp.data).real)
    t1, t2 = float(vals.sum()), float(vals @ vals)
    assert abs(t1 - trace) <= 1e-9 * float(np.abs(vals).sum()), (
        f"trace identity: sum of eigenvalues {t1!r} against tr H {trace!r}")
    assert abs(t2 - frob2) <= 1e-9 * frob2, (
        f"trace identity: sum of squared eigenvalues {t2!r} against ||H||_F^2 {frob2!r}")
    vals.setflags(write=False)
    return HermitianReduction(vals, Hsp, panels, Z)


def write_spectrum_csv(path, eigenvalues) -> None:
    """Write eigenvalues as CSV with header ``index,eigenvalue``."""
    lines = ["index,eigenvalue"]
    for k, v in enumerate(np.asarray(eigenvalues, dtype=float)):
        lines.append(f"{k},{format_float(float(v))}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
