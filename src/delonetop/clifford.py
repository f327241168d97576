"""Standard representation of the real Clifford algebra Cl_{p,q}.

Cl_{p,q} has p generators gamma^j with (gamma^j)^2 = +1 (symmetric) and q
generators rho^j with (rho^j)^2 = -1 (antisymmetric), all pairwise
anticommuting and odd with respect to the even/odd form grading.  The
representation acts on the exterior algebra of R^{p+q}: with lambda_j the
exterior multiplication by the j-th basis vector on the subset basis,

    gamma^j = lambda_j + lambda_j^T,      j = 1..p,
    rho^j   = lambda_{p+j} - lambda_{p+j}^T,  j = 1..q.

All matrices have entries in {-1, 0, 1}, so every relation holds exactly in
floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import InvalidInput

__all__ = ["CliffordRep", "build_rep", "verify_relations", "spanning_rank"]


def _subset_basis(n: int) -> list[tuple[int, ...]]:
    """Subsets of {1..n} in graded-lexicographic order."""
    basis: list[tuple[int, ...]] = []
    for size in range(n + 1):
        basis.extend(combinations(range(1, n + 1), size))
    return basis


def _exterior_mult(j: int, basis: list[tuple[int, ...]]) -> np.ndarray:
    """Matrix of e_j wedge (.) on the subset basis.

    e_j ^ e_S = 0 when j in S, else (-1)^{#elements of S below j} e_{S+{j}}.
    """
    pos = {s: i for i, s in enumerate(basis)}
    dim = len(basis)
    lam = np.zeros((dim, dim))
    for col, s in enumerate(basis):
        if j in s:
            continue
        sign = (-1) ** sum(1 for i in s if i < j)
        target = tuple(sorted(s + (j,)))
        lam[pos[target], col] = sign
    return lam


@dataclass(frozen=True)
class CliffordRep:
    p: int
    q: int
    dim: int
    basis: tuple[tuple[int, ...], ...]
    gamma: tuple[np.ndarray, ...]
    rho: tuple[np.ndarray, ...]
    grading: np.ndarray

    @property
    def generators(self) -> tuple[np.ndarray, ...]:
        return self.gamma + self.rho


def build_rep(p: int, q: int) -> CliffordRep:
    """Construct the standard representation of Cl_{p,q} on 2^{p+q} dimensions."""
    if p < 0 or q < 0 or p + q < 1:
        raise InvalidInput("need p, q >= 0 with p + q >= 1")
    if p + q > 12:
        raise InvalidInput("p + q > 12 exceeds the dimension guard")
    n = p + q
    basis = _subset_basis(n)
    lams = [_exterior_mult(j, basis) for j in range(1, n + 1)]
    gamma = tuple(lams[j] + lams[j].T for j in range(p))
    rho = tuple(lams[p + j] - lams[p + j].T for j in range(q))
    grading = np.diag([(-1.0) ** len(s) for s in basis])
    for g in gamma + rho:
        g.setflags(write=False)
    grading.setflags(write=False)
    return CliffordRep(p, q, len(basis), tuple(basis), gamma, rho, grading)


@dataclass(frozen=True)
class RelationReport:
    max_residual: float


def verify_relations(rep: CliffordRep) -> RelationReport:
    """Max entrywise residual over the full defining-relation suite.

    Checks squares, (anti)symmetry, pairwise anticommutation, and oddness
    against the grading.  Exact zero is expected: the matrices are integer.
    """
    eye = np.eye(rep.dim)
    res = 0.0

    def upd(m):
        nonlocal res
        res = max(res, float(np.abs(m).max()) if m.size else 0.0)

    for g in rep.gamma:
        upd(g @ g - eye)
        upd(g - g.T)
    for r in rep.rho:
        upd(r @ r + eye)
        upd(r + r.T)
    gens = rep.generators
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            upd(gens[i] @ gens[j] + gens[j] @ gens[i])
    for g in gens:
        upd(rep.grading @ g + g @ rep.grading)
    return RelationReport(res)


def spanning_rank(rep: CliffordRep) -> int:
    """Linear rank of the 2^{p+q} ordered generator products.

    For Cl_{d,d} this equals 4^d = dim M_{2^d}(R), witnessing that the
    generators span a full matrix algebra.
    """
    gens = rep.generators
    words = []
    for subset in _subset_basis(len(gens)):
        w = np.eye(rep.dim)
        for j in subset:
            w = w @ gens[j - 1]
        words.append(w.ravel())
    return int(np.linalg.matrix_rank(np.array(words)))
