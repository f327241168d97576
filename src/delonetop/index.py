"""Position Dirac operators and integer index pairings.

The pairing of a gapped Hamiltonian with the position spectral triple is
computed as the half-signature of a finite-volume spectral localizer
(Loring & Schulz-Baldes, "Finite volume calculation of K-theory invariants",
NYJM 2017; "The spectral localizer for even index pairings", JNCG 2020),
cross-checked by independent oracles: the real-space three-sector projector
formula (aperiodic windows) and Bloch-side invariants (Fukui-Hatsugai-Suzuki
plaquette Chern number, winding of det A(k)) for periodic models.

The even (2D) localizer never forms its full spectrum: the signature is the
inertia of H - mu plus that of its Schur complement (Haynsworth,
"Determination of the inertia of a partitioned Hermitian matrix", LAA 1968),
and the margin is one shift-invert ARPACK eigenvalue of the sparse
localizer.  The position term is site-diagonal, so the complement is the
direct sum of the complements over the connected components of the nonzero
graph of H - mu and is formed one component at a time: a stack T (x) 1 along
|L| layers costs |L| chain-sized solves.  The odd (1D) localizer is small
and stays a dense eigvalsh.

Every LAPACK call on a matrix whose size grows with the window (eigvalsh,
the Schur solve) goes through scipy.linalg, the OpenBLAS copy that ARPACK
and SuperLU use too.  NumPy bundles a second OpenBLAS; at 2 BLAS threads a
call on one copy right after the other ran ~2x slower (m = 578: NumPy
eigvalsh 0.19-0.20 s inside a robustness trial against 0.076 s alone),
apparently because the pool that just ran keeps its threads spinning.

Complex symmetry classes only: class A in even dimension d = 2 and class
AIII in odd dimension d = 1: the parity of d picks the pairing
(kappa_stability), the odd one needing the chiral grading and mu = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg

from .clifford import CliffordRep, build_rep, verify_relations
from .errors import (GapUndefined, InvalidInput, LocalizerUnreliable,
                     SymmetryViolation)
from .geometry import DeloneSet, neighbor_pairs
from .groupoid import BlockOperator
from .spectral import FermiProjection, SpectralData, spectral_gap

__all__ = [
    "PositionDirac",
    "IndexResult",
    "position_dirac",
    "localizer_index_even",
    "localizer_index_odd",
    "kappa_stability",
    "angular_sectors",
    "kitaev_chern",
    "bloch_chern_fhs",
    "bloch_winding",
    "chiral_bloch_block",
]


@dataclass(frozen=True)
class PositionDirac:
    """D = sum_j (X_j - x0_j) (x) gamma^j in site (x) internal (x) spinor order.

    The matrix is assembled lazily; its Clifford square identity
    D^2 = sum_j (X_j - x0_j)^2 (x) 1 holds exactly, so the spectrum is
    {+-|x - x0|} with multiplicity block_dim * 2^(d-1) per site.
    """

    sites: DeloneSet
    x0: np.ndarray
    clifford: CliffordRep
    block_dim: int = 1

    @cached_property
    def matrix(self) -> np.ndarray:
        # D is site-diagonal with site block sum_j (x_j - x0_j) 1 (x) gamma^j,
        # whose square is |x - x0|^2 at every site because the gamma^j obey
        # the Clifford relations.  Their entries are integers, so the exact
        # check of the relations proves the identity without an m x m D @ D.
        res = verify_relations(self.clifford).max_residual
        assert res == 0.0, f"Clifford relation defect {res:.3e}"
        pts = self.sites.points
        d = self.sites.dim
        m = len(self.sites) * self.block_dim * self.clifford.dim
        D = np.zeros((m, m))
        eye_n = np.eye(self.block_dim)
        for j in range(d):
            gam = np.kron(eye_n, self.clifford.gamma[j])
            D += np.kron(np.diag(pts[:, j] - self.x0[j]), gam)
        assert np.array_equal(D, D.T), "position Dirac must be symmetric"
        D.setflags(write=False)
        return D


def position_dirac(sites: DeloneSet, x0, block_dim: int = 1) -> PositionDirac:
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (sites.dim,) or not np.all(np.isfinite(x0)):
        raise InvalidInput("x0 must be a finite point of the ambient dimension")
    if block_dim < 1:
        raise InvalidInput("block_dim must be positive")
    x0 = x0.copy()
    x0.setflags(write=False)
    return PositionDirac(sites, x0, build_rep(sites.dim, 0), block_dim)


@dataclass(frozen=True)
class IndexResult:
    """Outcome of one localizer evaluation.

    index is None unless the run is reliable: localizer margin above
    margin_min and half-signature within 0.01 of an integer.
    """

    index: int | None
    half_signature: float
    margin: float
    kappa: float
    x0: tuple
    mu: float
    status: str            # "ok" | "unreliable"
    oracles: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "half_signature": self.half_signature,
            "margin": self.margin,
            "kappa": self.kappa,
            "x0": list(self.x0),
            "mu": self.mu,
            "oracles": dict(self.oracles),
            "status": self.status,
        }


def _dense(H) -> np.ndarray:
    if isinstance(H, BlockOperator):
        return H.to_dense()
    return np.asarray(H, dtype=complex)


def _h_eigenvalues(Hd: np.ndarray, hdata) -> np.ndarray:
    if hdata is None:
        return scipy.linalg.eigvalsh(Hd) if Hd.size else np.zeros(0)
    if isinstance(hdata, SpectralData):
        return hdata.eigenvalues
    return np.asarray(hdata, dtype=float)


def _index_result(half_sig: float, margin: float, kappa: float, x0, mu: float,
                  margin_min: float) -> IndexResult:
    nearest = round(half_sig)
    ok = margin > margin_min and abs(half_sig - nearest) <= 0.01
    return IndexResult(
        index=int(nearest) if ok else None,
        half_signature=half_sig,
        margin=margin,
        kappa=float(kappa),
        x0=tuple(float(v) for v in np.atleast_1d(x0)),
        mu=float(mu),
        status="ok" if ok else "unreliable",
    )


def _signature(vals: np.ndarray) -> int:
    return int((vals > 0).sum() - (vals < 0).sum())


def _schur_eigenvalues(A: np.ndarray, kd: np.ndarray, nz, a) -> np.ndarray:
    """Spectrum of the Schur complement L/A = -A - (k D-)^dag A^-1 (k D-).

    A must be Fortran-ordered: LAPACK LU-factors it in place, so nz, a (its
    nonzero positions and values) supply A to the complement afterwards.
    np.diag(kd).T is the same diagonal matrix in Fortran order, so LAPACK
    also solves into it in place; the complement is then formed in that
    buffer and handed to eigvalsh to overwrite, so no m x m array is made
    beyond A and that buffer.  (SciPy returns the solution as a read-only
    view.)
    """
    S = np.diag(kd).T
    X = scipy.linalg.solve(A, S, overwrite_a=True, overwrite_b=True,
                           assume_a="gen")
    np.multiply(kd.conj()[:, None], X, out=S)
    S[nz] += a
    np.negative(S, out=S)
    return scipy.linalg.eigvalsh(S, overwrite_a=True)


def _component_schur_eigenvalues(A: np.ndarray, kd: np.ndarray, nz,
                                 a) -> np.ndarray:
    """Spectrum of L/A as the union of its per-component complements.

    A permutation makes A block-diagonal over the connected components of
    its nonzero graph, and D- is site-diagonal, so L/A is the direct sum of
    the complements of A's principal blocks: a stack T (x) 1 along a set L
    costs |L| chain-sized solves instead of one of |L| times the size.  A
    component spanning the whole window is A itself, factored in place with
    nz, a as they are, so a connected window allocates no m x m array
    beyond one complement's; the principal block of a smaller component is
    gathered into a Fortran-ordered copy, so A stays intact for the next.
    """
    # Imported here like scipy.sparse.linalg in _even_margin: it stays out
    # of CLI start-up.
    from scipy import sparse
    from scipy.sparse.csgraph import connected_components

    m = A.shape[0]
    rows, cols = nz
    n_comp, labels = connected_components(
        sparse.csr_matrix((np.ones(rows.size), nz), shape=(m, m)),
        directed=False)
    # Stable sorts by component: row indices ascend within each component,
    # and the nonzeros keep their order.
    members = np.split(np.argsort(labels, kind="stable"),
                       np.cumsum(np.bincount(labels))[:-1])
    comp = labels[rows]
    entries = np.split(np.argsort(comp, kind="stable"),
                       np.cumsum(np.bincount(comp, minlength=n_comp))[:-1])
    local = np.empty(m, dtype=np.intp)
    spectra = []
    for idx, e in zip(members, entries):
        if idx.size == m:
            spectra.append(_schur_eigenvalues(A, kd, nz, a))
            continue
        local[idx] = np.arange(idx.size)
        spectra.append(_schur_eigenvalues(
            np.asfortranarray(A[np.ix_(idx, idx)]), kd[idx],
            (local[rows[e]], local[cols[e]]), a[e]))
    return np.concatenate(spectra)


def _even_margin(m: int, nz, a: np.ndarray, kd: np.ndarray) -> float:
    """Smallest |eigenvalue| of L = [[A, k D-], [k D-^dag, -A]] by ARPACK
    shift-invert around 0 on the sparse L (one sparse LU, then solves);
    nz, a are the nonzero positions and values of the m x m A.

    The start vector is a fixed-seed random one: a constant vector can be
    orthogonal to the wanted eigenvector on a symmetric window.  tol = 1e-10
    stops the iteration short of machine precision: the smallest |eigenvalues|
    of L sit in a cluster, and at tol = 0 ARPACK took 36-59 % more
    shift-invert solves (16^2 periodic and 27^2 amorphous Chern windows) for
    margins that agreed to ~2e-15.  For m = 1
    the localizer is 2 x 2, below ARPACK's k < n - 1, and its spectrum is
    +-sqrt(a^2 + |k d|^2) (a is empty when A = 0).
    """
    if m == 1:
        return float(np.hypot(a.sum().real, abs(kd[0])))
    # Imported here: scipy.sparse.linalg adds ~35 modules to CLI start-up.
    from scipy import sparse
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh

    rows, cols = nz
    diag = np.arange(m)
    L = sparse.csc_matrix(
        (np.concatenate([a, -a, kd, kd.conj()]),
         (np.concatenate([rows, rows + m, diag, diag + m]),
          np.concatenate([cols, cols + m, diag + m, diag]))),
        shape=(2 * m, 2 * m))
    rng = np.random.default_rng(0)
    v0 = rng.standard_normal(2 * m) + 1.0j * rng.standard_normal(2 * m)
    try:
        lam = eigsh(L, k=1, sigma=0, v0=v0, tol=1e-10,
                    return_eigenvectors=False)
    except ArpackNoConvergence as err:
        raise LocalizerUnreliable(
            f"shift-invert margin solve did not converge: {err}") from err
    return float(np.abs(lam).min())


def localizer_index_even(H, mu: float, dirac: PositionDirac, kappa: float,
                         margin_min: float | None = None, hdata=None) -> IndexResult:
    """Half-signature index of L = [[H - mu, k D-], [k D-^dag, -(H - mu)]].

    D- = (X1 - x01) - i (X2 - x02) acts site-diagonally on the internal
    space.  The 2m x 2m spectrum of L is never formed:

    - signature: with A = H - mu, inertia is additive over the Schur
      complement (Haynsworth 1968), In(L) = In(A) + In(L/A) with
      L/A = -A - k^2 D-^dag A^-1 D-.  In(A) is read off the eigenvalues of
      H (hdata, which must be the spectrum of H; computed when None).
      D- is site-diagonal, so L/A is the direct sum of the complements of
      A's principal blocks over the connected components of its nonzero
      graph; In(L/A) comes from one solve and one eigvalsh per component
      (one m x m pair when the window is connected).
    - margin: the smallest |eigenvalue| of the whole sparse L, by ARPACK
      shift-invert at 0 (Loring & Schulz-Baldes, NYJM 2017).  LocalizerUnreliable
      is raised when that solve does not converge.

    (L/A)^-1 is the lower-right block of L^-1, so min|eig(L/A)| >= margin;
    this ties the two computations together and is asserted on the union
    of the component spectra.

    Reliability requires the margin to exceed margin_min, which defaults to
    1e-3 of the localizer's natural scale max(||H - mu||, kappa * max|x - x0|);
    the second term catches the absurd-kappa regime where the position part
    dwarfs the Hamiltonian.
    """
    if dirac.sites.dim != 2:
        raise InvalidInput("even localizer needs a 2-dimensional point set")
    Hd = _dense(H)
    m = Hd.shape[0]
    n = len(dirac.sites)
    if n and m % n:
        raise InvalidInput("H dimension is not a multiple of the site count")
    N = m // n if n else 0
    evs = _h_eigenvalues(Hd, hdata)
    spectral_gap(evs, mu)  # raises GapUndefined when mu hits the spectrum
    if margin_min is None:
        margin_min = 1e-3 * _localizer_scale(evs, mu, dirac, kappa)
    if m == 0:
        return _index_result(0.0, np.inf, kappa, dirac.x0, mu, margin_min)

    rel = dirac.sites.points - dirac.x0
    kd = kappa * np.repeat(rel[:, 0] - 1.0j * rel[:, 1], N)
    A = np.array(Hd, order="F")
    diag = np.arange(m)
    A[diag, diag] -= mu
    nz = np.nonzero(A)
    a = A[nz]
    schur = _component_schur_eigenvalues(A, kd, nz, a)
    margin = _even_margin(m, nz, a, kd)
    schur_min = float(np.abs(schur).min())
    assert schur_min >= margin * (1.0 - 1e-9), (
        f"Schur complement eigenvalue {schur_min:.17g} below the margin {margin:.17g}")
    half_sig = 0.5 * (_signature(evs - mu) + _signature(schur))
    return _index_result(half_sig, margin, kappa, dirac.x0, mu, margin_min)


def _localizer_scale(evs: np.ndarray, mu: float, dirac: PositionDirac,
                     kappa: float) -> float:
    """Natural scale of the localizer: the larger of ||H - mu|| and the
    position term kappa * max|x - x0|."""
    hscale = float(np.abs(evs - mu).max()) if evs.size else 0.0
    pts = dirac.sites.points
    dmax = float(np.linalg.norm(pts - dirac.x0, axis=1).max()) if len(pts) else 0.0
    return max(hscale, abs(kappa) * dmax)


def _chirality_residual(Hd: np.ndarray, g: np.ndarray) -> float:
    """max |G H G + H| for the diagonal grading G = diag(g), elementwise:
    g_p H_pq g_q is exact for g = +-1, so no dense G is formed."""
    return float(np.abs(g[:, None] * Hd * g[None, :] + Hd).max()) if Hd.size else 0.0


def _chiral_split(grading: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    grading = np.asarray(grading)
    N = grading.shape[0]
    diag = np.diag(grading)
    if not np.array_equal(grading, np.diag(diag)) or not np.all(np.abs(diag) == 1):
        raise InvalidInput("grading must be a diagonal +-1 matrix")
    plus = np.flatnonzero(diag > 0)
    minus = np.flatnonzero(diag < 0)
    if plus.size != minus.size:
        raise InvalidInput("grading must balance +1 and -1 orbitals")
    return plus, minus


def localizer_index_odd(H, dirac: PositionDirac, kappa: float,
                        grading: np.ndarray,
                        margin_min: float | None = None, hdata=None) -> IndexResult:
    """Winding index of a chiral 1D Hamiltonian via the odd localizer.

    In the chiral basis H = [[0, A], [A^dag, 0]] the localizer is
    [[k (X - x0), A], [A^dag, -k (X - x0)]] and the index is the rounded
    half-signature.  The grading is the on-site +-1 diagonal; GHG = -H must
    hold exactly.  The pairing is at mu = 0.
    """
    if dirac.sites.dim != 1:
        raise InvalidInput("odd localizer needs a 1-dimensional point set")
    Hd = _dense(H)
    m = Hd.shape[0]
    n = len(dirac.sites)
    if n == 0 or m % n:
        raise InvalidInput("H dimension is not a multiple of the site count")
    N = m // n
    plus, minus = _chiral_split(grading)
    chir_res = _chirality_residual(Hd, np.tile(np.diag(grading).astype(float), n))
    if chir_res > 1e-13:
        raise SymmetryViolation(f"GHG = -H fails: residual {chir_res:.3e}")

    # No spectral-collision abort here: an open chiral chain in a nontrivial
    # phase carries boundary modes pinned at 0 to machine precision, yet the
    # localizer stays invertible (the position term lifts them).  Reliability
    # is delegated to the margin test below.
    evs = _h_eigenvalues(Hd, hdata)
    if margin_min is None:
        margin_min = 1e-3 * _localizer_scale(evs, 0.0, dirac, kappa)

    plus_idx = (np.arange(n)[:, None] * N + plus[None, :]).ravel()
    minus_idx = (np.arange(n)[:, None] * N + minus[None, :]).ravel()
    A = Hd[np.ix_(plus_idx, minus_idx)]
    x = np.repeat(dirac.sites.points[:, 0] - dirac.x0[0], plus.size)
    h = plus_idx.size
    L = np.zeros((2 * h, 2 * h), dtype=complex, order="F")
    L[:h, :h] = kappa * np.diag(x)
    L[h:, h:] = -kappa * np.diag(x)
    L[:h, h:] = A
    L[h:, :h] = A.conj().T
    evl = scipy.linalg.eigvalsh(L, overwrite_a=True)
    margin = float(np.abs(evl).min()) if evl.size else np.inf
    return _index_result(0.5 * _signature(evl), margin, kappa, dirac.x0, 0.0,
                         margin_min)


def kappa_stability(H, mu: float, dirac: PositionDirac, kappa_list,
                    grading: np.ndarray | None = None,
                    margin_min: float | None = None,
                    hdata=None, *, even=None,
                    odd=None) -> tuple[list[IndexResult], bool]:
    """One localizer run per kappa; plateau iff all reliable runs agree.

    Even d = dirac.sites.dim runs the even localizer, odd d the odd one with
    the grading.  H is densified and its spectrum resolved once for the
    whole sweep.  even and odd stand in for localizer_index_even and
    localizer_index_odd (same signatures); the experiment drivers pass the
    names they import, so instrumentation that rebinds those names
    (perfbench/tracer.py) sees every evaluation.
    """
    kappa_list = list(kappa_list)
    if not kappa_list:
        raise InvalidInput("kappa_list must be nonempty")
    odd_d = dirac.sites.dim % 2
    if odd_d and grading is None:
        raise InvalidInput("the odd pairing needs the on-site chiral grading")
    if odd_d and mu != 0.0:
        raise InvalidInput("the chiral pairing is pinned to mu = 0")
    even = even or localizer_index_even
    odd = odd or localizer_index_odd
    Hd = _dense(H)
    evs = _h_eigenvalues(Hd, hdata)
    if odd_d:
        results = [odd(Hd, dirac, kappa, grading, margin_min=margin_min, hdata=evs)
                   for kappa in kappa_list]
    else:
        results = [even(Hd, mu, dirac, kappa, margin_min=margin_min, hdata=evs)
                   for kappa in kappa_list]
    valid = [r.index for r in results if r.status == "ok"]
    plateau = bool(valid) and len(set(valid)) == 1
    return results, plateau


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def angular_sectors(sites: DeloneSet, x0, radius: float,
                    block_dim: int = 1, theta0: float = 0.0):
    """Split the disk |x - x0| <= radius into three 120-degree sectors.

    Returns dense (site * block_dim + orbital) index arrays (A, B, C) in
    counterclockwise order starting at angle theta0.
    """
    if sites.dim != 2:
        raise InvalidInput("angular sectors are defined on planar sets")
    if radius <= 0:
        raise InvalidInput("radius must be positive")
    disk = neighbor_pairs(sites.points, np.reshape(x0, (1, -1)), radius)[0]
    rel = sites.points[disk] - np.asarray(x0, dtype=float)
    ang = np.mod(np.arctan2(rel[:, 1], rel[:, 0]) - theta0, 2.0 * np.pi)
    sector = np.minimum((ang / (2.0 * np.pi / 3.0)).astype(int), 2)
    out = []
    for s in range(3):
        sel = disk[sector == s]
        dense = (sel[:, None] * block_dim + np.arange(block_dim)[None, :]).ravel()
        out.append(dense)
    return tuple(out)


def kitaev_chern(P, sectors) -> float:
    """Real-space Chern number from the Fermi projection and three sectors:

        C = 12 pi i * sum_{j in A, k in B, l in C}
                (P_jk P_kl P_lj - P_jl P_lk P_kj).

    Antisymmetric under swapping two sectors; approaches the integer index
    when the sector disk sits deep in the bulk.  P is a FermiProjection or
    a dense matrix.  From a FermiProjection only the three blocks the sum
    reads are formed, P_ST = V_S V_T^dag on the sector rows of the occupied
    frame V; the m x m P never is.
    """
    A, B, C = sectors
    if isinstance(P, FermiProjection):
        VA, VB, VC = P.frame[A], P.frame[B], P.frame[C]
        PAB = VA @ VB.conj().T
        PBC = VB @ VC.conj().T
        PCA = VC @ VA.conj().T
    else:
        M = np.asarray(P, dtype=complex)
        PAB = M[np.ix_(A, B)]
        PBC = M[np.ix_(B, C)]
        PCA = M[np.ix_(C, A)]
    t1 = np.trace(PAB @ PBC @ PCA)
    t2 = np.trace(PAB.conj().T @ PCA.conj().T @ PBC.conj().T)
    val = 12.0 * np.pi * 1.0j * (t1 - t2)
    return float(val.real)


def bloch_chern_fhs(hk, mu: float, n: int = 16) -> int:
    """Plaquette field-strength Chern number of a periodic Bloch family.

    hk maps k in [0, 2pi)^2 to a Hermitian matrix; the occupied frames below
    mu define link determinants U_dir(k) = det(V_k^dag V_{k+e_dir}) and the
    integer is the winding-free sum of plaquette phases / 2pi.  Exactly
    integer for admissible grids (n >= 12 recommended).
    """
    if n < 2:
        raise InvalidInput("grid must have at least 2 points per direction")
    ks = 2.0 * np.pi * np.arange(n) / n
    frames = np.empty((n, n), dtype=object)
    occ_count = None
    for i in range(n):
        for j in range(n):
            vals, vecs = np.linalg.eigh(hk(np.array([ks[i], ks[j]])))
            if float(np.abs(vals - mu).min()) <= 1e-9:
                raise GapUndefined(f"gap closes at grid point ({i}, {j})")
            occ = vals < mu
            cnt = int(occ.sum())
            if occ_count is None:
                occ_count = cnt
            elif cnt != occ_count:
                raise GapUndefined("occupied band count varies across the grid")
            frames[i, j] = vecs[:, occ]

    def link(i, j, di, dj):
        u = np.linalg.det(frames[i, j].conj().T @ frames[(i + di) % n, (j + dj) % n])
        if abs(u) < 1e-12:
            raise GapUndefined("degenerate link variable on the grid")
        return u

    total = 0.0
    for i in range(n):
        for j in range(n):
            plaq = (link(i, j, 1, 0) * link((i + 1) % n, j, 0, 1)
                    / (link(i, (j + 1) % n, 1, 0) * link(i, j, 0, 1)))
            total += float(np.angle(plaq))
    c = total / (2.0 * np.pi)
    nearest = round(c)
    if abs(c - nearest) > 1e-6:
        raise GapUndefined(f"field-strength sum {c!r} is not integral; refine the grid")
    return int(nearest)


def chiral_bloch_block(hk, grading: np.ndarray):
    """Extract k -> A(k) from a chiral Bloch family, H(k) = [[0, A], [A^dag, 0]]
    in the grading's +- basis."""
    plus, minus = _chiral_split(grading)

    def ak(k):
        return hk(k)[np.ix_(plus, minus)]

    return ak


def bloch_winding(ak, n: int = 512) -> int:
    """Winding number of det A(k) around the origin over k in [0, 2pi).

    The chiral gap requires det A(k) != 0 everywhere; the winding is the
    accumulated phase / 2pi, an exact integer by periodicity.
    """
    if n < 8:
        raise InvalidInput("need at least 8 samples for the winding")
    ks = 2.0 * np.pi * np.arange(n) / n
    dets = np.array([np.linalg.det(np.atleast_2d(ak(k))) for k in ks], dtype=complex)
    if np.abs(dets).min() < 1e-12:
        raise GapUndefined("det A(k) vanishes on the sample grid")
    ratios = dets[np.r_[1:n, 0]] / dets
    w = float(np.angle(ratios).sum() / (2.0 * np.pi))
    nearest = round(w)
    if abs(w - nearest) > 1e-6:
        raise GapUndefined(f"winding {w!r} is not integral; refine the sampling")
    return int(nearest)
