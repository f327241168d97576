"""Pattern-equivariant hopping kernels and their localized representations.

A hopping function is a compactly supported kernel f(local pattern, a) valued
in N x N complex blocks.  Its localized representation on a point set omega
is the block operator with matrix elements

    <x| pi_omega(f) |y> = f(omega - x, y - x),

i.e. entry (i, j) is the kernel evaluated on the pattern seen from site i and
the displacement to site j.  Self-adjointness of the represented operator is
exactly the involution identity f(w, a) = f(w - a, -a)^dagger, which is
verified on every stored pair.

The stacking map sends an operator T on Lambda to the operator on the product
Lambda x L with entries T_{x,y} * delta_{a,b}: the original hopping repeated
identically along every layer of L, with no hopping between layers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np
from scipy import sparse

from .errors import InvalidInput, KernelNotSelfAdjoint
from .geometry import DeloneSet, LocalPattern, neighbor_pairs, product_delone, translate

__all__ = [
    "HoppingFunction",
    "BlockOperator",
    "BUILTIN_MODELS",
    "builtin_model",
    "represent",
    "covariance_check",
    "stack_operator",
    "bloch_hamiltonian",
    "PAULI",
]

_TOL = 1e-9

PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

_SIGMA_Z = np.diag([1.0, -1.0])
_SIGMA_Z.setflags(write=False)


@dataclass(frozen=True)
class HoppingFunction:
    """A finite-range groupoid kernel: (LocalPattern, displacement) -> block.

    The kernel must vanish for |a| > R_f and may inspect the pattern only
    within rho_f.  It must be a pure function of its arguments.  grading is
    the read-only on-site chiral grading (an N x N diagonal +-1 matrix with
    G f G = -f) of a chiral model, None for a model without chiral symmetry.
    """

    dim: int
    R_f: float
    rho_f: float
    N: int
    kernel: Callable[[LocalPattern, np.ndarray], np.ndarray]
    tag: str
    grading: np.ndarray | None = None


def _chiral_signs(grading, N: int) -> np.ndarray:
    """The read-only +-1 diagonal of an on-site chiral grading of N orbitals.

    Raises InvalidInput unless grading is an N x N diagonal +-1 matrix with
    as many +1 as -1 entries.
    """
    grading = np.asarray(grading)
    if grading.shape != (N, N):
        raise InvalidInput("grading shape does not match block_dim")
    d = np.diag(grading)
    if not np.array_equal(grading, np.diag(d)) or not np.all((d == 1) | (d == -1)):
        raise InvalidInput("grading must be a diagonal +-1 matrix")
    g = d.real.astype(float)
    if g.sum() != 0:
        raise InvalidInput("grading must balance +1 and -1 orbitals")
    g.setflags(write=False)
    return g


@dataclass(frozen=True)
class BlockOperator:
    """Sparse site-indexed block matrix on l^2(sites) (x) C^N.

    Block k, a nonzero blocks[k], sits at site pair (rows[k], cols[k]), no
    pair twice: integer arrays of length nnz and a read-only complex array
    of shape (nnz, N, N).  Dense index p = site * N + orbital.  .entries,
    (row, col) -> block in array order, and .block(i, j) are lazy views.
    """

    sites: DeloneSet
    block_dim: int
    rows: np.ndarray
    cols: np.ndarray
    blocks: np.ndarray

    def __post_init__(self):
        n, N = len(self.sites), self.block_dim
        rows, cols = np.array(self.rows, dtype=np.intp), np.array(self.cols, dtype=np.intp)
        blocks = np.array(self.blocks, dtype=complex)
        if (blocks.shape[1:] != (N, N) or not rows.shape == cols.shape == blocks.shape[:1]
                or not np.all(_nonzero(blocks))):
            raise InvalidInput(f"need (nnz,) rows and cols and nonzero (nnz, {N}, {N}) blocks")
        if (not (np.array_equal(rows, self.rows) and np.array_equal(cols, self.cols))
                or np.any((rows < 0) | (rows >= n) | (cols < 0) | (cols >= n))
                or np.unique(rows * n + cols).size != rows.size):
            raise InvalidInput(f"site pairs must be distinct integers in range({n})")
        for name, a in (("rows", rows), ("cols", cols), ("blocks", blocks)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def dense_dim(self) -> int:
        return len(self.sites) * self.block_dim

    @cached_property
    def entries(self) -> Mapping[tuple[int, int], np.ndarray]:
        return MappingProxyType(dict(zip(zip(self.rows.tolist(), self.cols.tolist()), self.blocks)))

    def block(self, i: int, j: int) -> np.ndarray:
        """Entry (i, j), a zero block if absent."""
        if not (0 <= i < len(self.sites) and 0 <= j < len(self.sites)):
            raise InvalidInput(f"site pair {(i, j)} is out of range")
        return self.entries.get((i, j), np.zeros((self.block_dim, self.block_dim), dtype=complex))

    def to_dense(self) -> np.ndarray:
        n, N = len(self.sites), self.block_dim
        out = np.zeros((n, N, n, N), dtype=complex)
        out[self.rows, :, self.cols, :] = self.blocks
        return out.reshape(n * N, n * N)

    def to_sparse(self) -> sparse.csr_array:
        """The dense_dim x dense_dim CSR matrix: each nonzero entry of
        to_dense(), bit for bit, and no stored zero."""
        n, N = len(self.sites), self.block_dim
        orb = np.arange(N)
        shape = self.blocks.shape
        rows = np.broadcast_to((self.rows[:, None] * N + orb)[:, :, None], shape).ravel()
        cols = np.broadcast_to((self.cols[:, None] * N + orb)[:, None, :], shape).ravel()
        data = self.blocks.ravel()
        keep = data != 0
        # Site pairs are distinct, so no entry is summed on conversion.
        return sparse.coo_array((data[keep], (rows[keep], cols[keep])),
                                shape=(n * N, n * N)).tocsr()

    def add(self, other: "BlockOperator") -> "BlockOperator":
        if other.block_dim != self.block_dim or len(other.sites) != len(self.sites):
            raise InvalidInput("operator shapes do not match")
        if not np.array_equal(other.sites.points, self.sites.points):
            raise InvalidInput("operators live on different site lists")
        # Both operators on the union of their pairs, zero where they store none.
        n, N = len(self.sites), self.block_dim
        keys, at = np.unique(np.concatenate([self.rows * n + self.cols,
                                             other.rows * n + other.cols]), return_inverse=True)
        mine, theirs = np.zeros((2, keys.size, N, N), dtype=complex)
        mine[at[:self.rows.size]] = self.blocks
        theirs[at[self.rows.size:]] = other.blocks
        total = mine + theirs
        keep = _nonzero(total)
        return BlockOperator(self.sites, N, *np.divmod(keys[keep], n), total[keep])

    @staticmethod
    def identity(sites: DeloneSet, block_dim: int) -> "BlockOperator":
        n = len(sites)
        eye = np.broadcast_to(np.eye(block_dim, dtype=complex), (n, block_dim, block_dim))
        return BlockOperator(sites, block_dim, np.arange(n), np.arange(n), eye)


def _nonzero(blocks: np.ndarray) -> np.ndarray:
    """Mask of the blocks (along axis 0) with an entry of nonzero modulus."""
    return np.abs(blocks).max(axis=tuple(range(1, blocks.ndim))) > 0


# ---------------------------------------------------------------------------
# Built-in models
# ---------------------------------------------------------------------------

def _nn_laplacian(dim: int, t: float = 1.0, distance: float = 1.0) -> HoppingFunction:
    def kernel(pattern, a):
        if abs(np.linalg.norm(a) - distance) <= _TOL:
            return np.array([[t]], dtype=complex)
        return np.zeros((1, 1), dtype=complex)

    return HoppingFunction(dim, distance + _TOL, distance + _TOL, 1, kernel, "nn_laplacian")


def _dimer_chain_1d(t1: float = 1.0) -> HoppingFunction:
    """Decoupled on-site dimers: the flat, trivial chiral reference."""
    onsite = t1 * PAULI["x"]

    def kernel(pattern, a):
        if np.linalg.norm(a) <= _TOL:
            return onsite.copy()
        return np.zeros((2, 2), dtype=complex)

    return HoppingFunction(1, 1e-6, 1e-6, 2, kernel, "dimer_chain_1d", _SIGMA_Z)


def _chiral_ssh_1d(t1: float = 0.5, t2: float = 1.0, max_gap: float = 2.0) -> HoppingFunction:
    """Two-orbital chain: intra-cell hopping t1 on site, inter-cell hopping t2
    along the successor bond.

    Each site carries an (A, B) orbital pair; t1 couples them on site and t2
    couples B to the A orbital of the next site along the chain.  The
    successor displacement is read off the local pattern (smallest positive
    gap), so the kernel is pattern-equivariant and works unchanged on
    aperiodic chains, where the bond lengths vary but the A-B-A-B structure
    along the sorted site order is the same.  Chiral grading: sigma_z per
    site.
    """
    lower = np.array([[0.0, 0.0], [t2, 0.0]], dtype=complex)  # a = +gap
    upper = lower.conj().T                                    # a = -gap
    onsite = t1 * PAULI["x"]

    def kernel(pattern, a):
        s = float(a[0])
        if abs(s) <= _TOL:
            return onsite.copy()
        coords = pattern.points[:, 0]
        if s > 0:
            pos = coords[coords > _TOL]
            if pos.size and abs(s - pos.min()) <= _TOL:
                return lower.copy()
        else:
            neg = coords[coords < -_TOL]
            if neg.size and abs(s - neg.max()) <= _TOL:
                return upper.copy()
        return np.zeros((2, 2), dtype=complex)

    return HoppingFunction(1, max_gap, max_gap, 2, kernel, "chiral_ssh_1d", _SIGMA_Z)


def _chern_2band_2d(M: float = 1.0, t: float = 1.0, range_cut: float = 2.2) -> HoppingFunction:
    """Two-band kernel carrying a Chern phase on arbitrary planar patterns.

    Hopping along displacement a combines a sigma_z part with an in-plane
    sigma part phased by the bond angle phi = arg(a_0 + i a_1), with a smooth
    radial envelope t * exp(1 - |a|) cut off at range_cut; the on-site block
    is the mass term M sigma_z.  On the unit square lattice the
    nearest-neighbor part reduces to the standard two-band Chern model with
    d(k) = (t sin k1, t sin k2, M - t cos k1 - t cos k2), and the orientation
    is chosen so that M = 1, t = 1 carries Chern number +1 (the longer bonds
    widen the topological mass window but keep that phase assignment).
    """
    sz, sx, sy = PAULI["z"], PAULI["x"], PAULI["y"]
    onsite = M * sz

    def kernel(pattern, a):
        r = float(np.linalg.norm(a))
        if r <= _TOL:
            return onsite.copy()
        if r > range_cut:
            return np.zeros((2, 2), dtype=complex)
        amp = t * math.exp(1.0 - r)
        phi = math.atan2(float(a[1]), float(a[0]))
        return -0.5 * amp * (sz + 1.0j * (math.cos(phi) * sx + math.sin(phi) * sy))

    return HoppingFunction(2, range_cut, 0.1, 2, kernel, "chern_2band_2d")


# name -> factory; a factory's int/float-annotated parameters are its config keys.
BUILTIN_MODELS = MappingProxyType({
    "nn_laplacian": _nn_laplacian,
    "dimer_chain_1d": _dimer_chain_1d,
    "chiral_ssh_1d": _chiral_ssh_1d,
    "chern_2band_2d": _chern_2band_2d,
})


def builtin_model(name: str, **params) -> HoppingFunction:
    """Construct one of the built-in hopping functions by name."""
    try:
        factory = BUILTIN_MODELS[name]
    except KeyError:
        raise InvalidInput(f"unknown model {name!r}; choices: {sorted(BUILTIN_MODELS)}")
    try:
        return factory(**params)
    except TypeError as err:
        raise InvalidInput(f"bad parameters for model {name!r}: {err}")


# ---------------------------------------------------------------------------
# Localized representation
# ---------------------------------------------------------------------------

def represent(f: HoppingFunction, omega: DeloneSet) -> BlockOperator:
    """Materialize pi_omega(f): entry (i, j) = f(pattern at i, x_j - x_i).

    Raises KernelNotSelfAdjoint when the involution identity fails on any
    stored pair (tolerance 1e-12).  Raises InvalidInput when a block is not
    N x N.
    """
    if f.dim != omega.dim:
        raise InvalidInput("kernel dimension does not match the point set")
    n = len(omega)
    if n == 0:
        return BlockOperator(omega, f.N, [], [], np.zeros((0, f.N, f.N)))
    pts = omega.points
    rows, cols = neighbor_pairs(pts, pts, max(f.R_f, 1e-9))
    # Every site is in its own ball, so the rho_f pairs split into n patterns.
    at, nbr = neighbor_pairs(pts, pts, f.rho_f) if f.rho_f > 0 else (np.arange(n),) * 2
    pats = np.split(nbr, np.searchsorted(at, np.arange(1, n)))
    patterns = [LocalPattern(omega.dim, f.rho_f, pts[p] - x) for p, x in zip(pats, pts)]
    raw = [f.kernel(patterns[i], pts[j] - pts[i]) for i, j in zip(rows.tolist(), cols.tolist())]
    try:
        blocks = np.array(raw, dtype=complex)
    except ValueError as err:
        raise InvalidInput(f"kernel {f.tag!r} returned blocks of different shapes") from err
    keep = _nonzero(blocks)
    H = BlockOperator(omega, f.N, rows[keep], cols[keep], blocks[keep])
    # Each stored (i, j) against the adjoint of (j, i), zero if not stored.
    keys, at = np.unique(np.concatenate([H.rows * n + H.cols, H.cols * n + H.rows]),
                         return_inverse=True)
    adjoint = np.zeros((keys.size, f.N, f.N), dtype=complex)
    adjoint[at[H.rows.size:]] = H.blocks.conj().transpose(0, 2, 1)
    res = np.abs(H.blocks - adjoint[at[:H.rows.size]]).max(axis=(1, 2))
    if res.max(initial=0.0) > 1e-12:
        k = int(np.argmax(res))
        raise KernelNotSelfAdjoint(f"involution identity fails at site pair "
                                   f"{(int(H.rows[k]), int(H.cols[k]))}: residual {res[k]:.3e}")
    return H


def covariance_check(f: HoppingFunction, omega: DeloneSet, v) -> float:
    """Max deviation of pi_{omega - v}(f) from pi_omega(f) on interior pairs.

    The site bijection x -> x - v identifies the two operators; sites within
    R_f + rho_f of the window boundary are excluded, since their patterns are
    truncated differently before and after the translation.
    """
    v = np.asarray(v, dtype=float)
    h1 = represent(f, omega)
    h2 = represent(f, translate(omega, v))
    lo, hi = omega.window
    margin = f.R_f + f.rho_f
    interior = np.all((omega.points - lo >= margin) & (hi - omega.points >= margin), axis=1)
    diff = h1.add(BlockOperator(omega, f.N, h2.rows, h2.cols, -h2.blocks))
    inside = interior[diff.rows] & interior[diff.cols]
    return float(np.abs(diff.blocks[inside]).max(initial=0.0))


def stack_operator(T: BlockOperator, L: DeloneSet) -> BlockOperator:
    """Stack T along L: entries ((x,a),(y,b)) = T_{x,y} delta_{a,b}.

    The result lives on the product point set, with product site (i, a) at
    index i * len(L) + a; its spectrum is the spectrum of T with every
    eigenvalue repeated len(L) times.
    """
    prod = product_delone(T.sites, L)
    nb = len(L)
    layers = np.arange(nb)
    return BlockOperator(prod, T.block_dim, (T.rows[:, None] * nb + layers).ravel(),
                         (T.cols[:, None] * nb + layers).ravel(),
                         np.repeat(T.blocks, nb, axis=0))


def bloch_hamiltonian(f: HoppingFunction, basis) -> Callable[[np.ndarray], np.ndarray]:
    """Periodic (Bloch) reduction of a kernel on the lattice spanned by basis.

    Returns k -> H(k) = sum_a f(pattern, a) exp(i k . a) over lattice
    displacements a with |a| <= R_f, with `pattern` the lattice pattern seen
    from any site.  Hermitian for every k because of the involution identity.
    """
    basis = np.asarray(basis, dtype=float)
    d = basis.shape[0]
    if f.dim != d:
        raise InvalidInput("kernel dimension does not match the lattice basis")
    reach = max(f.R_f, f.rho_f)
    shortest = min(np.linalg.norm(basis, axis=0))
    kmax = int(math.ceil(reach / shortest)) + 1
    rng = np.arange(-kmax, kmax + 1)
    ns = np.stack(np.meshgrid(*([rng] * d), indexing="ij"), axis=-1).reshape(-1, d)
    vecs = ns @ basis.T
    origin = np.zeros((1, d))

    pat_pts = vecs[neighbor_pairs(vecs, origin, f.rho_f + 1e-12)[0]]
    pat_pts = pat_pts[np.lexsort(pat_pts.T[::-1])]
    pattern = LocalPattern(d, max(f.rho_f, 1e-9), pat_pts)

    hops: list[tuple[np.ndarray, np.ndarray]] = []
    for a in vecs[neighbor_pairs(vecs, origin, f.R_f + 1e-12)[0]]:
        block = np.asarray(f.kernel(pattern, a), dtype=complex)
        if np.abs(block).max() > 0:
            hops.append((a, block))

    def hk(k) -> np.ndarray:
        k = np.atleast_1d(np.asarray(k, dtype=float))
        out = np.zeros((f.N, f.N), dtype=complex)
        for a, block in hops:
            out += block * np.exp(1.0j * float(k @ a))
        return out

    return hk
