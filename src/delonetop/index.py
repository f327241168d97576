"""Position Dirac operators and integer index pairings.

The pairing of a gapped Hamiltonian with the position spectral triple is
computed as the half-signature of a finite-volume spectral localizer
(Loring & Schulz-Baldes, "Finite volume calculation of K-theory invariants",
NYJM 2017; "The spectral localizer for even index pairings", JNCG 2020),
cross-checked by independent oracles: the real-space three-sector projector
formula (aperiodic windows) and Bloch-side invariants (Fukui-Hatsugai-Suzuki
plaquette Chern number, winding of det A(k)) for periodic models.

Every localizer reads H as one CSR matrix: a BlockOperator through
BlockOperator.to_sparse(), a dense or sparse matrix through one csr_array
call at entry.  Both localizers assemble L sparse and share one inertia
engine, forming no dense matrix: the margin is one Lanczos eigenvalue of
L^2 (products with L only), or one shift-invert ARPACK eigenvalue of L where
Lanczos stalls, and the signature the inertia of L -+ t (t = SIGNATURE_SHIFT
margin), read off the pivots of two symmetric sparse LU factorizations
(Sylvester) and certified by their backward error.  A localizer within b < t
of a certified one in norm has its signature by Weyl's inequality: given
that WeylPrior, only its margin is solved.  The even (2D) L is
[[H - mu, kappa D-], [kappa D-^dag, -(H - mu)]], the odd (1D) one
H + kappa (X - x0) G with G the on-site grading.

Complex symmetry classes only: class A in even dimension d = 2 and class
AIII in odd dimension d = 1: the parity of d picks the pairing
(kappa_stability), the odd one needing the chiral grading and mu = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import sparse

from .clifford import CliffordRep, build_rep, verify_relations
from .errors import (GapUndefined, InvalidInput, LocalizerUnreliable,
                     SymmetryViolation)
from .geometry import DeloneSet, neighbor_pairs
from .groupoid import _chiral_signs
from .spectral import (FermiProjection, SpectralData, _csr, _splu, eigenvalues,
                       spectral_gap)

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


# _lanczos_margin: ARPACK's Lanczos basis size, its restart cap and the true
# residual it may leave, relative to theta, before the margin falls back to
# shift-invert.  Over the test suite's 746 margins (536 tests), caps of 10,
# 15, 20, 30 and 60 restarts left 225, 54, 45, 41 and 27 to the fallback and
# cost about 18.1, 9.6, 8.8, 9.2 and 9.9 s of margin solves (shift-invert
# alone 17.4 s); the 27^2 amorphous windows need 16-20.  Every Lanczos
# margin accepted at 20 had a residual within 1.7e-12 theta; the two false
# convergences seen at larger caps left 2.3e-8 and 6.3e-6 theta.
_LANCZOS_NCV = 20
_LANCZOS_RESTARTS = 20
_LANCZOS_RESIDUAL = 1e-9

# The signature is read at L -+ t, t = SIGNATURE_SHIFT * margin
# (_shifted_signature): the radius every WeylPrior is measured against.
SIGNATURE_SHIFT = 0.9
# A solved margin below (t - b)(1 - _PRIOR_RTOL) contradicts its WeylPrior.
_PRIOR_RTOL = 1e-8
_UNIT_ROUNDOFF = np.finfo(float).eps / 2


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


@dataclass(frozen=True)
class WeylPrior:
    """What a certified localizer L fixes for a localizer L' near it.

    L has signature `signature` and no eigenvalue in [-t, t], t =
    SIGNATURE_SHIFT * margin(L) (the certificate of _shifted_signature), and
    ||L' - L||_2 <= b < t.  By Weyl's inequality (Bhatia, Matrix Analysis,
    Springer 1997, III.2) each eigenvalue of L' lies within b of the
    matching one of L, so L' has the same signature and margin(L') >= t - b.
    floor is that bound less a 1e-8 relative allowance for the margin solve:
    a solved margin below it contradicts the prior (_certified_result).
    """

    signature: int
    t: float
    b: float

    @property
    def floor(self) -> float:
        return (self.t - self.b) * (1.0 - _PRIOR_RTOL)


def weyl_prior(base: IndexResult, b: float, margin_min: float) -> WeylPrior | None:
    """The WeylPrior a reliable base reading gives a localizer of the same
    size within b of the base L in norm, or None unless it settles that
    localizer's record: b < t and floor > margin_min, the margin_min the
    record is judged by (or an upper bound of it), so the record is "ok"
    with the base's signature before any solve.  A reliable base was
    certified: _certified_result raises when a guard fails above margin_min."""
    if base.status != "ok":
        return None
    prior = WeylPrior(int(round(2.0 * base.half_signature)),
                      SIGNATURE_SHIFT * base.margin, float(b))
    return prior if prior.b < prior.t and prior.floor > margin_min else None


def perturbation_bound(V, H, diagonal: float) -> float:
    """A rigorous upper bound b on ||L' - L||_2, L the localizer (either
    pairing) of the CSR matrix H and L' that of H + V (the sparse sum), V
    Hermitian CSR; diagonal bounds the modulus of the diagonal term each
    localizer adds to its H (|mu|, plus kappa max|x - x0| for the odd one).

    The even L holds A = H - mu and -A on its diagonal blocks, so
    L' - L = diag(Delta, -Delta) with Delta = A' - A; the odd L = H +
    kappa (X - x0) G, so L' - L = Delta with A = L.  Either way
    ||L' - L||_2 = ||Delta||_2, and Delta is V plus the rounding of the
    assembly.  ||V||_2^2 = ||V^2||_2 <= ||V^2||_inf: V^2 is Hermitian, so its
    2-norm is its spectral radius, which no induced norm undercuts.  On the
    16^2 robustness window sqrt(||V^2||_inf) reads 0.24-0.26, against
    0.14-0.15 exact and 0.41-0.44 for the Schur test sqrt(||V||_1 ||V||_inf)
    (Higham, "Accuracy and Stability of Numerical Algorithms", SIAM 2002).
    Rounding, with u the unit roundoff and gamma = (n + 4) u / (1 - (n + 4) u):
    each computed entry of V @ V is within 2 gamma (|V|^2)_ij of the exact
    one and each computed row sum of moduli within gamma relative, so with
    s and r the computed ||V^2||_inf and ||V||_inf, ||V^2||_inf <=
    (1 + 2 gamma) s + 3 gamma r^2.  Each stored entry of H + V, and each
    diagonal entry after the shift, is within u of its modulus; these
    errors form a matrix whose moduli are dominated by a symmetric one, so
    their 2-norm is at most 4 u (||H||_inf + r + diagonal).
    """
    n = V.shape[0]
    if n == 0 or V.nnz == 0:
        return 0.0
    u = _UNIT_ROUNDOFF
    gamma = (n + 4) * u / (1.0 - (n + 4) * u)
    s = float(abs(V @ V).sum(axis=1).max())
    r = float(abs(V).sum(axis=1).max())
    h = float(abs(H).sum(axis=1).max()) if H.nnz else 0.0
    assembly = 4.0 * u * (h + r + diagonal)
    return (np.sqrt((1.0 + 2.0 * gamma) * s + 3.0 * gamma * r * r) + assembly) * (1.0 + gamma)


def translation_bound(H, dirac: PositionDirac, other: PositionDirac,
                      kappa: float) -> float:
    """A rigorous upper bound b on ||L' - L||_2 for the localizers (either
    pairing) of the CSR matrix H at one kappa and two centres on the same
    sites: L at dirac.x0, L' at other.x0.

    Moving x0 by d moves the position term kappa (X - x0) by the constant
    -kappa d, so ||L' - L||_2 = kappa |d| exactly.  As stored, the two
    localizers differ by the difference of their _position_term entries: in
    the even L they sit off the diagonal blocks, whose difference
    [[0, C], [C^dag, 0]] has 2-norm max|C_ii|, read off the entries up to
    the rounding of one subtraction and one modulus; the odd L adds them to
    the diagonal of H, each sum within u of its modulus.
    """
    m, n = H.shape[0], len(dirac.sites)
    if m == 0 or n == 0:
        return 0.0
    u = _UNIT_ROUNDOFF
    N = m // n
    p, q = _position_term(dirac, kappa, N), _position_term(other, kappa, N)
    h = float(np.abs(H.diagonal()).max())
    rounding = 2.0 * u * (h + float(np.abs(p).max()) + float(np.abs(q).max()))
    return float(np.abs(q - p).max()) * (1.0 + 4.0 * u) + rounding


def _position_term(dirac: PositionDirac, kappa: float, N: int) -> np.ndarray:
    """kappa (X - x0) as the localizers store it, one entry per orbital (N
    per site): kappa D- = kappa ((X1 - x01) - i (X2 - x02)) in 2D, kappa
    (X - x0) in 1D."""
    rel = dirac.sites.points - dirac.x0
    if dirac.sites.dim == 1:
        return kappa * np.repeat(rel[:, 0], N)
    return kappa * np.repeat(rel[:, 0] - 1.0j * rel[:, 1], N)


def _h_eigenvalues(H, hdata) -> np.ndarray:
    """The spectrum of the CSR matrix H: hdata's, or eigenvalues(H) when
    hdata is None.  hdata may be the whole spectrum or a slice of it such as
    spectral.near_spectrum's: the localizers read only the eigenvalues
    nearest mu and, for the default margin_min, the largest
    |eigenvalue - mu|; a slice without the farthest eigenvalue
    (near_spectrum(far=False)) serves a call that is given margin_min."""
    if hdata is None:
        return eigenvalues(H)
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


def _components(m: int, rows: np.ndarray,
                cols: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Connected components of the graph on range(m) with edges (rows, cols):
    each vertex's component label, numbered in the order of the components'
    smallest vertices, and each component's vertices in ascending order.
    Its one caller is run_stacking, which reads the edges off the stacked
    operator's CSR coordinates and splits its eigenvalue solve over the layers.

    Min-label propagation with pointer jumping: every vertex points at a
    vertex no larger than itself, and each round hooks the larger root of
    every edge under the smaller one, then jumps all pointers to their
    roots; it stops when no edge joins two roots.
    """
    root = np.arange(m)
    while True:
        a, b = root[rows], root[cols]
        if np.array_equal(a, b):
            break
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        up = root[root]
        while not np.array_equal(up, root):
            root, up = up, up[up]
    labels = (np.cumsum(root == np.arange(m)) - 1)[root]
    members = np.split(np.argsort(labels, kind="stable"),
                       np.cumsum(np.bincount(labels))[:-1])
    return labels, members


def _margin(L) -> float:
    """Smallest |eigenvalue| of the sparse Hermitian localizer L: first by
    _lanczos_margin, which neither forms L^2 nor factors L, and where that
    stalls (small margins, where L^2 is ill-conditioned) by
    _shift_invert_margin.  Both start from one fixed-seed random vector: a
    constant vector can be orthogonal to the wanted eigenvector on a
    symmetric window.  A 2 x 2 L (the even one of one orbital, the odd one
    of one site) is [[a, b], [conj(b), -a]], below ARPACK's k < n - 1; its
    spectrum is +-sqrt(a^2 + |b|^2).

    On the 16^2 periodic Chern window (1,156 rows, kappa = 0.1) a margin
    took 24-27 against 54-65 ms by shift-invert, on the 27^2 amorphous one
    (3,104 rows) 88-98 against 244-303 ms (2 BLAS threads).  The test
    suite's Lanczos margins of up to 1,400 rows lie within 8.6e-14 relative
    of a dense eigvalsh; the diagonal-pivot factor put shift-invert's up to
    3.5e-12 off on perturbed 16^2 windows.
    """
    if L.shape[0] == 2:
        (a, b), _ = L.toarray()
        return float(np.hypot(a.real, abs(b)))
    rng = np.random.default_rng(0)
    n = L.shape[0]
    v0 = rng.standard_normal(n) + 1.0j * rng.standard_normal(n)
    margin = _lanczos_margin(L.tocsr(), v0)
    return _shift_invert_margin(L, v0) if margin is None else margin


def _lanczos_margin(L, v0) -> float | None:
    """sqrt(theta), theta the smallest eigenvalue of L^2 by ARPACK's
    symmetric Lanczos (which="SA", tol = 1e-12), or None when ARPACK does
    not converge within _LANCZOS_RESTARTS restarts or the true residual
    ||L(Lz) - theta z|| of the unit Ritz vector z exceeds
    _LANCZOS_RESIDUAL theta.

    ARPACK runs on the real 2n x 2n form [[Re M, -Im M], [Im M, Re M]] of
    M = L^2, each step two products with the CSR matrix L of the vector
    read back as complex, from v0 split into its real and imaginary parts.
    The real form doubles every eigenvalue of M and leaves it unchanged; a
    complex eigsh goes through ARPACK's non-symmetric driver (znaupd), which
    took 21.6-22.9 against 18.5-19.7 ms on six 16^2 robustness trials for
    the same 282 products.  sqrt(theta) halves theta's relative error, and
    |theta - lambda| <= ||r|| for an eigenvalue lambda of M (Parlett, "The
    Symmetric Eigenvalue Problem", SIAM 1998, Thm 4.5.1).
    """
    # Imported here: scipy.sparse.linalg adds ~35 modules to CLI start-up.
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

    n = L.shape[0]

    def square(w):
        z = L @ (L @ (w[:n] + 1.0j * w[n:]))
        return np.concatenate([z.real, z.imag])

    try:
        theta, w = eigsh(LinearOperator((2 * n, 2 * n), matvec=square, dtype=float),
                         k=1, which="SA", ncv=min(_LANCZOS_NCV, 2 * n),
                         v0=np.concatenate([v0.real, v0.imag]), tol=1e-12,
                         maxiter=_LANCZOS_RESTARTS)
    except ArpackError:
        return None
    theta, z = float(theta[0]), w[:n, 0] + 1.0j * w[n:, 0]
    if not np.linalg.norm(L @ (L @ z) - theta * z) <= _LANCZOS_RESIDUAL * theta:
        return None
    return float(np.sqrt(theta))


def _shift_invert_margin(L, v0) -> float:
    """Smallest |eigenvalue| of the sparse localizer L by ARPACK shift-invert
    around 0: one _splu factor of L, handed to ARPACK as OPinv, then solves.
    With ARPACK's own factor (COLAMD, partial pivoting) a call took
    1.3-1.4x as long: 53 against 39 ms on the 16^2 periodic and 366 against
    285 ms on the 27^2 amorphous Chern window (kappa = 0.1, 2 BLAS threads).
    The factor is freed on return, before the signature's two.

    tol = 1e-10 stops the iteration short of machine precision: the smallest
    |eigenvalues| of L sit in a cluster, and at tol = 0 ARPACK took 36-59 %
    more shift-invert solves (16^2 periodic and 27^2 amorphous Chern
    windows) for margins that agreed to ~2e-15.
    """
    # Imported here: scipy.sparse.linalg adds ~35 modules to CLI start-up.
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    lu = _splu(L)
    try:
        lam = eigsh(L, k=1, sigma=0, v0=v0, tol=1e-10,
                    OPinv=LinearOperator(L.shape, matvec=lu.solve, dtype=L.dtype),
                    return_eigenvectors=False)
    except ArpackNoConvergence as err:
        raise LocalizerUnreliable(
            f"shift-invert margin solve did not converge: {err}") from err
    return float(np.abs(lam).min())


def _shifted_signature(L, margin: float) -> tuple[int, str | None]:
    """Signature of the sparse Hermitian L, and the first of its guards that
    failed (None when all hold).

    SuperLU factors L - t and L + t, t = SIGNATURE_SHIFT margin, with
    diagonal pivots in a symmetric ordering: P (L - s) P^T = L'U', U' =
    D L'^dag, so In(L - s) = In(D) (Sylvester) counts the signs of
    Re diag U'.  The shift also makes the zero diagonal of a chiral window
    nonzero.  Guards per LU:
    perm_r == perm_c; each pivot real to 1e-4 of its own real part (pivots
    span 6 orders of magnitude, so a bound on max|d| misjudges); the
    backward error |E| <= gamma_{n+2} |L'||U'| (Higham, "Accuracy and
    Stability of Numerical Algorithms", Thm 9.3 and Lemma 3.5), whose 2-norm
    is at most sqrt(||.||_1 ||.||_inf), below margin - t <= min|eig(L -+ t)|.
    Last, In(L - t) == In(L + t) bars every eigenvalue of L from (-t, t].
    """
    n = L.shape[0]
    t = SIGNATURE_SHIFT * margin
    u = np.finfo(float).eps / 2
    gamma = (n + 2) * u / (1.0 - (n + 2) * u)
    ones = np.ones(n)
    inertia, doubts = [], []
    for s in (t, -t):
        lu = _splu(L - s * sparse.identity(n, format="csc"))
        # Each factorization and its factor copies are freed before the next
        # one: alive across it they raised the robustness peak RSS by 5 MB.
        lo, up, diagonal_pivots = lu.L, lu.U, np.array_equal(lu.perm_r, lu.perm_c)
        del lu
        d = up.diagonal()
        inertia.append((int((d.real > 0).sum()), int((d.real < 0).sum())))
        lo.data, up.data = np.abs(lo.data), np.abs(up.data)
        err = gamma * np.sqrt((lo @ (up @ ones)).max() * (ones @ lo @ up).max())
        del lo, up
        doubts += [f"the LU of L - ({s:.3e}) {why}" for ok, why in [
            (diagonal_pivots, "pivoted off the diagonal"),
            (np.all(np.abs(d.imag) < 1e-4 * np.abs(d.real)), "has a complex pivot"),
            (err < margin - t, f"has a backward error bound {err:.3e}, not below "
                               f"margin - t = {margin - t:.3e}")] if not ok]
    if inertia[0] != inertia[1]:
        doubts.append(f"the inertias of L -+ {t:.3e} disagree: {inertia[0]}, {inertia[1]}")
    return inertia[0][0] - inertia[0][1], (doubts + [None])[0]


def _certified_result(L, kappa: float, x0, mu: float, margin_min: float,
                      prior: WeylPrior | None = None) -> IndexResult:
    """The IndexResult of the sparse Hermitian localizer L: its _margin and
    its certified signature (_shifted_signature).  LocalizerUnreliable is
    raised when the margin solve does not converge (Lanczos on L^2 stalled
    and its shift-invert fallback did not converge either) or a guard of
    the signature fails on a margin above margin_min; below it the record is
    unreliable anyway and keeps its uncertified half-signature.  Given a
    prior (weyl_prior), the signature is the prior's and no signature is
    factored; a margin below prior.floor contradicts the prior and raises
    LocalizerUnreliable instead of being trusted."""
    margin = _margin(L)
    if prior is not None:
        if margin < prior.floor:
            raise LocalizerUnreliable(
                f"Weyl prior contradicted: margin {margin:.6e} below (t - b)(1 - "
                f"{_PRIOR_RTOL:g}) = {prior.floor:.6e} (t = {prior.t:.6e}, b = {prior.b:.6e})")
        return _index_result(0.5 * prior.signature, margin, kappa, x0, mu, margin_min)
    sig, doubt = _shifted_signature(L, margin)
    if doubt is not None and margin > margin_min:
        raise LocalizerUnreliable(f"signature not certified: {doubt}")
    return _index_result(0.5 * sig, margin, kappa, x0, mu, margin_min)


def localizer_index_even(H, mu: float, dirac: PositionDirac, kappa: float,
                         margin_min: float | None = None, hdata=None,
                         prior: WeylPrior | None = None) -> IndexResult:
    """Half-signature index of L = [[H - mu, k D-], [k D-^dag, -(H - mu)]].

    D- = (X1 - x01) - i (X2 - x02) acts site-diagonally on the internal
    space.  H is read as one CSR matrix (a BlockOperator, or a dense or
    sparse matrix) and L is assembled sparse from the entries of H - mu;
    _certified_result takes its margin, the smallest |eigenvalue| (Loring &
    Schulz-Baldes, NYJM 2017), and its certified signature.  hdata is the
    spectrum of H (computed when None) or a slice of it holding the
    eigenvalues nearest mu and the one farthest from mu; it serves the gap
    check and margin_min.  Reliability requires the margin to exceed
    margin_min, which defaults to 1e-3 of the localizer's natural scale
    max(||H - mu||, kappa * max|x - x0|); the second term catches the
    absurd-kappa regime where the position part dwarfs the Hamiltonian.
    prior, a WeylPrior of a certified localizer near this one, replaces the
    signature solve (_certified_result).
    """
    if dirac.sites.dim != 2:
        raise InvalidInput("even localizer needs a 2-dimensional point set")
    H, N, _, evs, margin_min = _localizer_input(H, dirac, mu, kappa, margin_min, hdata)
    spectral_gap(evs, mu)  # raises GapUndefined when mu hits the spectrum
    m = H.shape[0]
    if m == 0:
        return _index_result(0.0, np.inf, kappa, dirac.x0, mu, margin_min)
    kd = _position_term(dirac, kappa, N)
    # A = H - mu stores no zero: the subtraction drops a diagonal entry it
    # cancels.  kd is stored in full, zero or not, so the pattern of L does
    # not depend on where x0 sits.
    A = (H - mu * sparse.identity(m, format="csr")).tocoo()
    diag = np.arange(m)
    L = sparse.csc_matrix(
        (np.concatenate([A.data, -A.data, kd, kd.conj()]),
         (np.concatenate([A.row, A.row + m, diag, diag + m]),
          np.concatenate([A.col, A.col + m, diag + m, diag]))),
        shape=(2 * m, 2 * m))
    return _certified_result(L, kappa, dirac.x0, mu, margin_min, prior)


def _localizer_input(H, dirac: PositionDirac, mu: float, kappa: float, margin_min,
                     hdata, grading=None):
    """What both localizers read first: H as one CSR matrix, the orbitals per
    site N, the grading's sign per orbital g (None without a grading), the
    spectrum of H and margin_min, by default default_margin_min.  The
    odd localizer's grading is checked, GHG = -H, before any eigensolve."""
    H = _csr(H, complex)
    m, n = H.shape[0], len(dirac.sites)
    if (n == 0 and grading is not None) or (n and m % n):
        raise InvalidInput("H dimension is not a multiple of the site count")
    N = m // n if n else 0
    g = None if grading is None else np.tile(_chiral_signs(grading, N), n)
    if g is not None and (chir_res := _chirality_residual(H, g)) > 1e-13:
        raise SymmetryViolation(f"GHG = -H fails: residual {chir_res:.3e}")
    evs = _h_eigenvalues(H, hdata)
    if margin_min is None:
        margin_min = default_margin_min(evs, mu, dirac, kappa)
    return H, N, g, evs, margin_min


def default_margin_min(evs: np.ndarray, mu: float, dirac: PositionDirac,
                       kappa: float, pad: float = 0.0) -> float:
    """1e-3 of the localizer's natural scale, the larger of ||H - mu||
    (from the eigenvalues evs, plus pad) and the position term
    kappa * max|x - x0|.  With pad >= ||V||_2 it bounds the default of
    H + V from above, read off the spectrum of H."""
    hscale = float(np.abs(evs - mu).max()) + pad if evs.size else pad
    return 1e-3 * max(hscale, abs(kappa) * _extent(dirac))


def _extent(dirac: PositionDirac) -> float:
    """max |x - x0| over the sites, 0 for none."""
    pts = dirac.sites.points
    return float(np.linalg.norm(pts - dirac.x0, axis=1).max()) if len(pts) else 0.0


def _chirality_residual(H, g: np.ndarray) -> float:
    """max |G H G + H| for the diagonal grading G = diag(g), over the
    nonzero entries of H (sparse or dense): g_p H_pq g_q is exact for
    g = +-1, so no G is formed."""
    H = sparse.coo_array(H)
    return float(np.abs(g[H.row] * H.data * g[H.col] + H.data).max(initial=0.0))


def localizer_index_odd(H, dirac: PositionDirac, kappa: float,
                        grading: np.ndarray,
                        margin_min: float | None = None, hdata=None,
                        prior: WeylPrior | None = None) -> IndexResult:
    """Winding index of a chiral 1D Hamiltonian via the odd localizer.

    L = H + k (X - x0) G with G the on-site grading (an N x N diagonal,
    balanced +-1 matrix).  Since GHG = -H must hold exactly, in the
    grading's +- basis (the +1 orbitals first) H = [[0, A], [A^dag, 0]] and
    L = [[k (X - x0), A], [A^dag, -k (X - x0)]]; the index is its rounded
    half-signature.  Inertia does not depend on the basis, so L is
    assembled sparse in site-major order, the CSR matrix H plus a diagonal,
    and read by _certified_result, the engine of localizer_index_even: the
    same margin, certified signature and LocalizerUnreliable.  The pairing
    is at mu = 0; hdata (the spectrum of H, or a slice of it), the default
    margin_min and prior are as in localizer_index_even.
    """
    if dirac.sites.dim != 1:
        raise InvalidInput("odd localizer needs a 1-dimensional point set")
    # No spectral-collision abort here: an open chiral chain in a nontrivial
    # phase carries boundary modes pinned at 0 to machine precision, yet the
    # localizer stays invertible (the position term lifts them).  Reliability
    # is delegated to the margin test below.
    H, N, g, _, margin_min = _localizer_input(H, dirac, 0.0, kappa, margin_min, hdata,
                                              grading)
    x = _position_term(dirac, kappa, N)
    L = sparse.csc_matrix(H + sparse.diags_array(g * x))
    return _certified_result(L, kappa, dirac.x0, 0.0, margin_min, prior)


def kappa_stability(H, mu: float, dirac: PositionDirac, kappa_list,
                    grading: np.ndarray | None = None,
                    margin_min: float | None = None,
                    hdata=None, *, even=None, odd=None,
                    prior: WeylPrior | None = None) -> tuple[list[IndexResult], bool]:
    """One localizer run per kappa; plateau iff all reliable runs agree.

    Even d = dirac.sites.dim runs the even localizer, odd d the odd one with
    the grading.  H, a BlockOperator or a dense or sparse matrix, is read as
    one CSR matrix and its spectrum resolved once for the whole sweep.  A
    prior (WeylPrior) settles the signature of a one-kappa sweep.
    even and odd stand in for localizer_index_even and localizer_index_odd
    (same signatures); the experiment drivers pass the names they import,
    so instrumentation that rebinds those names (perfbench/tracer.py) sees
    every evaluation.
    """
    kappa_list = list(kappa_list)
    if not kappa_list:
        raise InvalidInput("kappa_list must be nonempty")
    if prior is not None and len(kappa_list) != 1:
        raise InvalidInput("a Weyl prior settles a one-kappa sweep")
    odd_d = dirac.sites.dim % 2
    if odd_d and grading is None:
        raise InvalidInput("the odd pairing needs the on-site chiral grading")
    if odd_d and mu != 0.0:
        raise InvalidInput("the chiral pairing is pinned to mu = 0")
    even = even or localizer_index_even
    odd = odd or localizer_index_odd
    H = _csr(H, complex)
    evs = _h_eigenvalues(H, hdata)
    if odd_d:
        results = [odd(H, dirac, kappa, grading, margin_min=margin_min, hdata=evs,
                       prior=prior) for kappa in kappa_list]
    else:
        results = [even(H, mu, dirac, kappa, margin_min=margin_min, hdata=evs,
                        prior=prior) for kappa in kappa_list]
    valid = [r.index for r in results if r.status == "ok"]
    plateau = bool(valid) and len(set(valid)) == 1
    return results, plateau


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def angular_sectors(sites: DeloneSet, x0, radius: float, block_dim: int = 1):
    """Split the disk |x - x0| <= radius into three 120-degree sectors.

    Returns dense (site * block_dim + orbital) index arrays (A, B, C) in
    counterclockwise order starting at angle 0.
    """
    if sites.dim != 2:
        raise InvalidInput("angular sectors are defined on planar sets")
    if radius <= 0:
        raise InvalidInput("radius must be positive")
    disk = neighbor_pairs(sites.points, np.reshape(x0, (1, -1)), radius)[0]
    rel = sites.points[disk] - np.asarray(x0, dtype=float)
    ang = np.mod(np.arctan2(rel[:, 1], rel[:, 0]), 2.0 * np.pi)
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
    integer for admissible grids (n >= 12 recommended).  The grid's H(k)
    are solved by one batched eigh and the links and plaquettes formed
    grid-wide; the first failing grid point in row-major order names a gap
    closing or a varying band count, as a point-by-point scan would.
    """
    if n < 2:
        raise InvalidInput("grid must have at least 2 points per direction")
    ks = 2.0 * np.pi * np.arange(n) / n
    hks = np.array([[hk(np.array([ki, kj])) for kj in ks] for ki in ks])
    vals, vecs = np.linalg.eigh(hks)
    closed = (np.abs(vals - mu).min(axis=-1) <= 1e-9).ravel()
    counts = (vals < mu).sum(axis=-1).ravel()
    varies = counts != counts[0]
    first = int(np.argmax(closed | varies))
    if closed[first]:
        raise GapUndefined(f"gap closes at grid point {divmod(first, n)}")
    if varies[first]:
        raise GapUndefined("occupied band count varies across the grid")
    # Eigenvalues ascend, so each occupied frame is the leading columns.
    frames = vecs[..., :int(counts[0])]
    adj = frames.conj().swapaxes(-1, -2)
    # links[0][i, j] = U_1(i, j), links[1][i, j] = U_2(i, j).
    links = [np.linalg.det(adj @ np.roll(frames, -1, axis=ax)) for ax in (0, 1)]
    if any((np.abs(u) < 1e-12).any() for u in links):
        raise GapUndefined("degenerate link variable on the grid")
    u1, u2 = links
    plaq = u1 * np.roll(u2, -1, axis=0) / (np.roll(u1, -1, axis=1) * u2)
    c = float(np.angle(plaq).sum()) / (2.0 * np.pi)
    nearest = round(c)
    if abs(c - nearest) > 1e-6:
        raise GapUndefined(f"field-strength sum {c!r} is not integral; refine the grid")
    return int(nearest)


def chiral_bloch_block(hk, grading: np.ndarray):
    """Extract k -> A(k) from a chiral Bloch family, H(k) = [[0, A], [A^dag, 0]]
    in the grading's +- basis."""
    g = _chiral_signs(grading, len(hk(0.0)))
    plus, minus = np.flatnonzero(g > 0), np.flatnonzero(g < 0)

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
