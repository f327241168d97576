"""Coarse-geometric operator diagnostics and constructions.

An operator on a point set is *controlled* when its matrix support has
bounded spread (propagation), and Schur-bounded when its row/column sums of
block operator norms are finite; these are the finite-window shadows of the
Roe-algebra axioms, and support_stats reports both.  The module also
provides exact position commutators [T, X_j], conjugation by covering
isometries for subset inclusions and seeded controlled random
perturbations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .geometry import DeloneSet, _norms, neighbor_pairs
from .groupoid import BlockOperator, _chiral_signs, _nonzero

__all__ = [
    "SupportStats",
    "support_stats",
    "position_commutator",
    "subset_injection",
    "covering_embed",
    "random_perturbation",
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
                         w[keep, None, None] * T.blocks[keep])


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
    return BlockOperator(Y, T.block_dim, injection[T.rows], injection[T.cols], T.blocks)


def random_perturbation(sites: DeloneSet, R: float, strength: float,
                        block_dim: int, grading: np.ndarray | None = None,
                        seed: int = 0) -> BlockOperator:
    """Seeded Hermitian block noise with propagation <= R and per-block
    operator norm <= strength.

    Blocks are complex Gaussian, symmetrized, then clipped to the norm
    budget.  Given an on-site chiral grading G (block_dim x block_dim,
    diagonal, balanced +-1), each block is first projected onto its
    anticommutant, (B - G B G)/2, which anti-commutes with G exactly; with
    grading None no projection is made.

    The pairs i <= j within R are drawn in one batch, in ascending (i, j)
    order; one rng.standard_normal((pairs, 2, N, N)) call is the same
    stream as a real and an imaginary (N, N) draw per pair.
    """
    if strength < 0:
        raise InvalidInput("strength must be nonnegative")
    if R < 0:
        raise InvalidInput("R must be nonnegative")
    g = None if grading is None else _chiral_signs(grading, block_dim)

    if strength == 0.0 or len(sites) == 0:
        return BlockOperator(sites, block_dim, [], [], np.zeros((0, block_dim, block_dim)))

    rows, cols = neighbor_pairs(sites.points, sites.points, R)
    upper = cols >= rows
    rows, cols = rows[upper], cols[upper]

    z = np.random.default_rng(seed).standard_normal(
        (rows.size, 2, block_dim, block_dim))
    B = z[:, 0] + 1.0j * z[:, 1]
    diag = rows == cols
    B[diag] = 0.5 * (B[diag] + B[diag].conj().transpose(0, 2, 1))
    if g is not None:
        B = 0.5 * (B - g[:, None] * B * g[None, :])
    nrm = np.linalg.svd(B, compute_uv=False)[:, 0]
    clip = nrm > strength
    B[clip] = B[clip] * (strength / nrm[clip])[:, None, None]
    # Each kept pair (i, j), then its adjoint at (j, i) unless i == j.
    keep = _nonzero(B)
    slots = np.column_stack([keep, keep & ~diag]).ravel()
    B = np.stack([B, B.conj().transpose(0, 2, 1)], axis=1).reshape(-1, block_dim, block_dim)
    return BlockOperator(sites, block_dim, np.column_stack([rows, cols]).ravel()[slots],
                         np.column_stack([cols, rows]).ravel()[slots], B[slots])

