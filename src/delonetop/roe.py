"""Coarse-geometric operator predicates and constructions.

An operator on a point set is *controlled* when its matrix support has
bounded spread (propagation), and Schur-bounded when its row/column sums of
block operator norms are finite; these are the finite-window shadows of the
Roe-algebra axioms.  The module also provides exact position commutators
[T, X_j], conjugation by covering isometries for subset inclusions, seeded
controlled random perturbations, and trace-summability profiles of the
confinement weight (1 + |x|^2)^(-s/2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .geometry import DeloneSet, _norms, neighbor_pairs
from .groupoid import BlockOperator, _nonzero

__all__ = [
    "SupportStats",
    "support_stats",
    "is_controlled",
    "position_commutator",
    "subset_injection",
    "covering_embed",
    "random_perturbation",
    "summability_profile",
]


@dataclass(frozen=True)
class SupportStats:
    """Support and size diagnostics of a block operator.

    propagation: max |x_i - x_j| over stored pairs; schur_row is
    sup_i sum_j of block operator norms, schur_col the column counterpart.
    """

    propagation: float
    nnz_blocks: int
    schur_row: float
    schur_col: float


def support_stats(T: BlockOperator) -> SupportStats:
    n = len(T.sites)
    nrm = np.linalg.svd(T.blocks, compute_uv=False)[:, 0]
    row = np.bincount(T.rows, weights=nrm, minlength=n)
    col = np.bincount(T.cols, weights=nrm, minlength=n)
    prop = float(_norms(T.sites.points[T.rows] - T.sites.points[T.cols]).max(initial=0.0))
    return SupportStats(prop, T.rows.size, float(row.max(initial=0.0)),
                        float(col.max(initial=0.0)))


def is_controlled(T: BlockOperator, R: float) -> bool:
    """True iff the propagation of T is at most R."""
    if R < 0:
        raise InvalidInput("R must be nonnegative")
    return support_stats(T).propagation <= R


def position_commutator(T: BlockOperator, axis: int) -> BlockOperator:
    """[T, X_axis]: entry (i, j) is (x_j[axis] - x_i[axis]) * T_{i,j}, exactly.

    Anti-Hermitian whenever T is Hermitian; diagonal blocks drop out.
    """
    if not 0 <= axis < T.sites.dim:
        raise InvalidInput(f"axis {axis} out of range for dim {T.sites.dim}")
    coords = T.sites.points[:, axis]
    w = coords[T.cols] - coords[T.rows]
    keep = w != 0.0
    return BlockOperator(T.sites, T.block_dim, T.rows[keep], T.cols[keep],
                         w[keep, None, None] * T.blocks[keep], hermitian=False)


def subset_injection(X: DeloneSet, Y: DeloneSet) -> np.ndarray:
    """Index map sending each X-site to the identical Y-site (distance 0).

    Raises InvalidInput when some X point is missing from Y or two X points
    collide onto one Y index.
    """
    if X.dim != Y.dim:
        raise InvalidInput("point sets have different dimensions")
    at, out = neighbor_pairs(X.points, Y.points, 1e-12)
    matches = np.bincount(at, minlength=len(X))
    if np.any(matches != 1):
        i = int(np.argmax(matches != 1))
        raise InvalidInput(f"X point {i} has {matches[i]} matches in Y")
    if np.unique(out).size != out.size:
        raise InvalidInput("injection is not injective")
    return out


def covering_embed(T: BlockOperator, Y: DeloneSet, injection: np.ndarray) -> BlockOperator:
    """Conjugate T by the covering isometry V|x> = |injection(x)>.

    Entries are copied verbatim under the index map; every other row and
    column of the result is zero, so propagation, Schur norms and the nonzero
    spectrum are preserved exactly.
    """
    injection = np.asarray(injection, dtype=int)
    if injection.shape != (len(T.sites),):
        raise InvalidInput("injection length does not match the domain")
    if np.unique(injection).size != injection.size:
        raise InvalidInput("injection is not injective")
    if injection.min(initial=0) < 0 or injection.max(initial=-1) >= len(Y):
        raise InvalidInput("injection runs out of the codomain index range")
    if _norms(Y.points[injection] - T.sites.points).max(initial=0.0) > 1e-12:
        raise InvalidInput("injection moves a site; only distance-0 embeddings are allowed")
    return BlockOperator(Y, T.block_dim, injection[T.rows], injection[T.cols], T.blocks,
                         hermitian=T.hermitian)


def random_perturbation(sites: DeloneSet, R: float, strength: float,
                        block_dim: int, symmetry: str = "none",
                        grading: np.ndarray | None = None,
                        seed: int = 0) -> BlockOperator:
    """Seeded Hermitian block noise with propagation <= R and per-block
    operator norm <= strength.

    Blocks are complex Gaussian, symmetrized, then clipped to the norm
    budget.  With symmetry="chiral" each block is projected onto the
    anticommutant of the supplied on-site grading, (B - G B G)/2, which
    anti-commutes with G exactly (G has +-1 diagonal).

    The pairs i <= j within R are drawn in one batch, in ascending (i, j)
    order; one rng.standard_normal((pairs, 2, N, N)) call is the same
    stream as a real and an imaginary (N, N) draw per pair.
    """
    if strength < 0:
        raise InvalidInput("strength must be nonnegative")
    if R < 0:
        raise InvalidInput("R must be nonnegative")
    if symmetry not in ("none", "chiral"):
        raise InvalidInput(f"unknown symmetry {symmetry!r}")
    if symmetry == "chiral":
        if grading is None:
            raise InvalidInput("chiral symmetry needs the on-site grading")
        grading = np.asarray(grading)
        if grading.shape != (block_dim, block_dim):
            raise InvalidInput("grading shape does not match block_dim")
        if (not np.array_equal(grading, np.diag(np.diag(grading)))
                or not np.all(np.abs(np.diag(grading)) == 1)):
            raise InvalidInput("grading must be a diagonal +-1 matrix")

    if strength == 0.0 or len(sites) == 0:
        return BlockOperator(sites, block_dim, [], [], np.zeros((0, block_dim, block_dim)),
                             hermitian=True)

    rows, cols = neighbor_pairs(sites.points, sites.points, R)
    upper = cols >= rows
    rows, cols = rows[upper], cols[upper]

    z = np.random.default_rng(seed).standard_normal(
        (rows.size, 2, block_dim, block_dim))
    B = z[:, 0] + 1.0j * z[:, 1]
    diag = rows == cols
    B[diag] = 0.5 * (B[diag] + B[diag].conj().transpose(0, 2, 1))
    if symmetry == "chiral":
        g = np.diag(grading).astype(float)
        B = 0.5 * (B - g[:, None] * B * g[None, :])
    nrm = np.linalg.svd(B, compute_uv=False)[:, 0]
    clip = nrm > strength
    B[clip] = B[clip] * (strength / nrm[clip])[:, None, None]
    # Each kept pair (i, j), then its adjoint at (j, i) unless i == j.
    keep = _nonzero(B)
    slots = np.column_stack([keep, keep & ~diag]).ravel()
    B = np.stack([B, B.conj().transpose(0, 2, 1)], axis=1).reshape(-1, block_dim, block_dim)
    return BlockOperator(sites, block_dim, np.column_stack([rows, cols]).ravel()[slots],
                         np.column_stack([cols, rows]).ravel()[slots], B[slots],
                         hermitian=True)


def summability_profile(sites: DeloneSet, s: float, radii,
                        center=None) -> np.ndarray:
    """Partial sums 2^d * sum_{|x-c| <= rho} (1 + |x-c|^2)^(-s/2) over radii.

    For s > d these grow monotonically with shrinking shell increments —
    the finite-window trace-summability trend of the confinement weight.
    """
    radii = np.asarray(radii, dtype=float)
    if radii.size == 0 or np.any(np.diff(radii) <= 0):
        raise InvalidInput("radii must be a nonempty increasing sequence")
    c = sites.window_center if center is None else np.asarray(center, dtype=float)
    r2 = np.sum((sites.points - c) ** 2, axis=1)
    weight = (1.0 + r2) ** (-0.5 * s)
    r = _norms(sites.points - c)
    factor = 2.0 ** sites.dim
    return np.array([factor * float(weight[r <= rho].sum()) for rho in radii])
