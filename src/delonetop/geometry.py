"""Delone point patterns: generation, validation, queries, products.

A Delone set in R^d is uniformly discrete (every open ball of radius r
contains at most one point, equivalently pairwise distances are >= 2r) and
relatively dense (every ball of radius R contains at least one point).  The
toolkit works with finite rectangular windows cut from such patterns; the
covering condition is only meaningful away from the window boundary, so it is
validated on the R-eroded window.

Every fixed-radius query goes through neighbor_pairs, whose closed-ball rule
is per-vector ``np.linalg.norm(a - b) <= radius``.

Point identity is by list index throughout -- coordinates are never used as
dictionary keys.  All containers are immutable after construction and safe to
share across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np
from scipy.spatial import cKDTree

from .errors import GenerationFailed, InvalidInput
from .serialize import dumps17, format_float

__all__ = [
    "DeloneSet",
    "LocalPattern",
    "ValidationReport",
    "box",
    "validate_delone",
    "gen_periodic",
    "gen_perturbed_lattice",
    "gen_hardcore_random",
    "gen_cut_and_project",
    "product_delone",
    "neighbors",
    "neighbor_pairs",
    "local_pattern",
    "translate",
    "union_pointsets",
    "write_pointset",
    "read_pointset",
]

TAU = (1.0 + math.sqrt(5.0)) / 2.0


def box(lo: Iterable[float], hi: Iterable[float]) -> tuple[np.ndarray, np.ndarray]:
    """Normalize an axis-aligned window to a pair of float arrays (lo, hi)."""
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if lo.shape != hi.shape or lo.ndim != 1:
        raise InvalidInput("window lo/hi must be 1-d arrays of equal length")
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise InvalidInput("window bounds must be finite")
    if np.any(hi < lo):
        raise InvalidInput("window has hi < lo")
    a, b = lo.copy(), hi.copy()
    a.setflags(write=False)
    b.setflags(write=False)
    return a, b


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class DeloneSet:
    """A finite window of a Delone pattern with its (r, R) constants.

    points has shape (n, dim); r_pack is the packing radius (pairwise
    distances >= 2*r_pack), R_cov the covering radius (every center in the
    R_cov-eroded window has a point within R_cov).
    """

    dim: int
    points: np.ndarray
    r_pack: float
    R_cov: float
    window: tuple[np.ndarray, np.ndarray]
    metadata: Mapping = field(default_factory=dict)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise InvalidInput("points must have shape (n, dim)")
        if pts.size and not np.all(np.isfinite(pts)):
            raise InvalidInput("points must have finite coordinates")
        if not (self.r_pack > 0 and self.R_cov > 0):
            raise InvalidInput("r_pack and R_cov must be positive")
        if not self.r_pack < self.R_cov:
            raise InvalidInput("r_pack must be smaller than R_cov")
        lo, hi = self.window
        if pts.size and (np.any(pts < lo - 1e-9) or np.any(pts > hi + 1e-9)):
            raise InvalidInput("all points must lie in the window")
        object.__setattr__(self, "points", _frozen(pts))
        object.__setattr__(self, "window", (_frozen(lo), _frozen(hi)))

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def window_center(self) -> np.ndarray:
        lo, hi = self.window
        return (lo + hi) / 2.0

    @property
    def window_radius(self) -> float:
        lo, hi = self.window
        return float(np.linalg.norm(hi - lo) / 2.0)


@dataclass(frozen=True)
class LocalPattern:
    """The pattern seen from one site: neighbors within `radius`, site at 0."""

    dim: int
    radius: float
    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise InvalidInput("pattern points must have shape (m, dim)")
        if not np.any(np.all(np.abs(pts) < 1e-12, axis=1)):
            raise InvalidInput("local pattern must contain the origin")
        object.__setattr__(self, "points", _frozen(pts))


@dataclass(frozen=True)
class ValidationReport:
    min_pair_half: float
    max_cover_radius_estimate: float
    grid_step: float
    passed: bool


# cKDTree distances may differ from np.linalg.norm in the last bit, so trees
# are queried at the radius plus this pad and the norm rule decides.
_PAD = 1e-9


def _norms(d: np.ndarray) -> np.ndarray:
    """Length of each row of d by its own dot product: per-vector
    ``np.linalg.norm`` bit for bit, which the axis=1 form is not."""
    return np.sqrt(d[:, None, :] @ d[:, :, None])[:, 0, 0]


def neighbor_pairs(A: np.ndarray, B: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Every index pair (i, j) with ``np.linalg.norm(A[i] - B[j]) <= radius``,
    sorted lexicographically: the package's one fixed-radius neighbor
    engine."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    pairs = cKDTree(A).sparse_distance_matrix(cKDTree(B), radius + _PAD, output_type="ndarray")
    i, j = pairs["i"], pairs["j"]
    hit = _norms(A[i] - B[j]) <= radius
    i, j = i[hit], j[hit]
    order = np.argsort(i * len(B) + j)
    return i[order], j[order]


def validate_delone(ds: DeloneSet, grid_step: float) -> ValidationReport:
    """Check both Delone conditions on the finite window.

    Uniform discreteness is checked exactly on all pairs; relative density is
    estimated by brute force over a grid of centers (spacing `grid_step`)
    inside the R_cov-eroded window.  An empty eroded window makes the covering
    condition vacuous.
    """
    if len(ds) == 0:
        raise InvalidInput("cannot validate an empty point set")
    if grid_step > ds.r_pack / 2 + 1e-12:
        raise InvalidInput("grid_step must be <= r_pack/2")

    if len(ds) == 1:
        min_pair_half = math.inf
    else:
        tree = cKDTree(ds.points)
        dmin, _ = tree.query(ds.points, k=2)
        min_pair_half = float(np.min(dmin[:, 1])) / 2.0

    lo, hi = ds.window
    lo_e, hi_e = lo + ds.R_cov, hi - ds.R_cov
    if np.any(lo_e > hi_e):
        max_cover = 0.0
    else:
        axes = [np.arange(a, b + grid_step / 2, grid_step) for a, b in zip(lo_e, hi_e)]
        centers = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, ds.dim)
        tree = cKDTree(ds.points)
        dist, _ = tree.query(centers, k=1)
        max_cover = float(np.max(dist))

    passed = (min_pair_half >= ds.r_pack - 1e-12) and (max_cover <= ds.R_cov + 1e-12)
    return ValidationReport(min_pair_half, max_cover, float(grid_step), passed)


def _lex_sorted(points: np.ndarray) -> np.ndarray:
    if points.shape[0] == 0:
        return points
    order = np.lexsort(points.T[::-1])
    return points[order]


def gen_periodic(basis, window) -> DeloneSet:
    """All integer combinations of the basis columns inside the window.

    r_pack is half the shortest nonzero lattice vector (searched over a
    bounded index range); R_cov is a grid-scan covering estimate over one
    unit cell, padded by half a scan step.
    """
    basis = np.asarray(basis, dtype=float)
    d = basis.shape[0]
    if basis.shape != (d, d):
        raise InvalidInput("basis must be a square matrix")
    if abs(np.linalg.det(basis)) < 1e-12 * max(1.0, np.abs(basis).max()) ** d:
        raise InvalidInput("basis is singular")
    lo, hi = box(*window)
    if len(lo) != d:
        raise InvalidInput("window dimension does not match basis")

    inv = np.linalg.inv(basis)
    corners = np.stack(np.meshgrid(*zip(lo, hi), indexing="ij"), axis=-1).reshape(-1, d)
    frac = corners @ inv.T
    n_lo = np.floor(frac.min(axis=0)).astype(int) - 1
    n_hi = np.ceil(frac.max(axis=0)).astype(int) + 1
    axes = [np.arange(a, b + 1) for a, b in zip(n_lo, n_hi)]
    ns = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    pts = ns @ basis.T
    keep = np.all((pts >= lo - 1e-9) & (pts <= hi + 1e-9), axis=1)
    pts = _lex_sorted(pts[keep])

    # shortest lattice vector over a bounded index range
    rng = np.arange(-3, 4)
    ms = np.stack(np.meshgrid(*([rng] * d), indexing="ij"), axis=-1).reshape(-1, d)
    ms = ms[np.any(ms != 0, axis=1)]
    shortest = float(np.min(np.linalg.norm(ms @ basis.T, axis=1)))
    r_pack = shortest / 2.0

    # covering estimate on one fundamental cell against a lattice patch
    m = {1: 512, 2: 64}.get(d, 16)
    fr_axes = [np.arange(m) / m] * d
    fr = np.stack(np.meshgrid(*fr_axes, indexing="ij"), axis=-1).reshape(-1, d)
    cell_pts = fr @ basis.T
    patch_rng = np.arange(-2, 4)
    patch = np.stack(np.meshgrid(*([patch_rng] * d), indexing="ij"), axis=-1).reshape(-1, d) @ basis.T
    dist, _ = cKDTree(patch).query(cell_pts, k=1)
    h_half = float(np.max(np.linalg.norm(basis, axis=0))) / m * math.sqrt(d) / 2.0
    R_cov = float(np.max(dist)) + h_half

    meta = {"generator": "periodic", "basis": basis.tolist()}
    return DeloneSet(d, pts, r_pack, R_cov, (lo, hi), meta)


def gen_perturbed_lattice(basis, window, max_disp: float, seed: int) -> DeloneSet:
    """Lattice points independently displaced by uniform vectors in a ball.

    Displacements of size delta keep pairwise distances >= 2*(r_pack - delta),
    so delta is required to stay below half the lattice packing radius.
    Displaced points are clipped back into the window (a clipped point stays
    within delta of its lattice site, so both adjusted constants remain
    valid).
    """
    base = gen_periodic(basis, window)
    if max_disp < 0:
        raise InvalidInput("max_disp must be nonnegative")
    if max_disp >= base.r_pack / 2:
        raise InvalidInput("max_disp must be < half the lattice packing radius")
    rng = np.random.default_rng(seed)
    n, d = base.points.shape
    direction = rng.standard_normal((n, d))
    norms = np.linalg.norm(direction, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    radii = max_disp * rng.random((n, 1)) ** (1.0 / d)
    pts = base.points + direction / norms * radii
    lo, hi = base.window
    pts = np.clip(pts, lo, hi)
    meta = {
        "generator": "perturbed_lattice",
        "basis": np.asarray(basis, dtype=float).tolist(),
        "max_disp": max_disp,
        "seed": int(seed),
    }
    return DeloneSet(d, pts, base.r_pack - max_disp, base.R_cov + max_disp, (lo, hi), meta)


def _adsorb(placed: np.ndarray, chunks, r: float) -> np.ndarray:
    """`placed` followed by the chunks' rows that sequential adsorption
    accepts: those with no earlier point within the closed radius-r ball.
    Rows near a placed point are dropped at once; conflicts among a chunk's
    survivors are resolved greedily in row order."""
    for X in chunks:
        S = np.delete(X, neighbor_pairs(placed, X, r)[1], axis=0)
        i, j = neighbor_pairs(S, S, r)
        i, j = i[i < j], j[i < j]
        order = np.argsort(j, kind="stable")
        later, starts = np.unique(j[order], return_index=True)
        keep = np.ones(len(S), dtype=bool)
        for k, earlier in zip(later, np.split(i[order], starts[1:])):
            keep[k] = not keep[earlier].any()
        placed = np.vstack([placed, S[keep]])
    return placed


def _chunks(total: int):
    """Bounds (a, b) of consecutive chunks of range(total) that double from
    16 to 4096 rows: small chunks keep in-chunk conflicts few while the
    window is empty, large ones later are rejected at once."""
    a, size = 0, 16
    while a < total:
        yield a, min(a + size, total)
        a, size = a + size, min(2 * size, 4096)


def gen_hardcore_random(
    window,
    min_dist: float,
    target_R: float,
    seed: int,
    max_attempts: int = 100_000,
) -> DeloneSet:
    """Random sequential adsorption with a covering fill pass.

    Uniform proposals are accepted when no accepted point lies within
    min_dist (hard core).  A deterministic fill pass then inserts grid
    centers that have no point within (min_dist + target_R)/2 -- such centers
    are automatically >= min_dist from every point, and afterwards every
    window position has a point within target_R with margin to spare.  The
    result is validated before it is returned.

    Proposals and fill centers are handled in chunks, yet the points, their
    order and ``rsa_accepted``/``fill_inserted`` are those of the sequential
    loop (one ``rng.random(d)`` per proposal) for every seed.
    """
    if min_dist <= 0:
        raise InvalidInput("min_dist must be positive")
    if target_R <= min_dist:
        raise InvalidInput("target_R must exceed min_dist")
    lo, hi = box(*window)
    d = len(lo)
    rng = np.random.default_rng(seed)

    draws = (lo + (hi - lo) * rng.random((b - a, d)) for a, b in _chunks(int(max_attempts)))
    pts = _adsorb(np.empty((0, d)), draws, min_dist)
    accepted = len(pts)

    fill_R = (min_dist + target_R) / 2.0
    h = (target_R - min_dist) / (2.0 * math.sqrt(d))
    fill_axes = [np.arange(a + h / 2, b + 1e-12, h) for a, b in zip(lo, hi)]
    centers = np.stack(np.meshgrid(*fill_axes, indexing="ij"), axis=-1).reshape(-1, d)
    pts = _adsorb(pts, (centers[a:b] for a, b in _chunks(len(centers))), fill_R)
    filled = len(pts) - accepted

    if not len(pts):
        raise GenerationFailed(
            "attempt budget exhausted before any point was accepted")
    pts = _lex_sorted(pts)
    meta = {
        "generator": "hardcore_random",
        "min_dist": min_dist,
        "target_R": target_R,
        "seed": int(seed),
        "rsa_accepted": accepted,
        "fill_inserted": filled,
    }
    ds = DeloneSet(d, pts, min_dist / 2.0, target_R, (lo, hi), meta)
    report = validate_delone(ds, grid_step=min_dist / 4.0)
    if not report.passed:
        raise GenerationFailed(
            f"hard-core generation failed validation: {report}"
        )
    return ds


def _fibonacci_points(w0: float, w1: float) -> np.ndarray:
    """Strip projection of Z^2 with slope 1/tau, scaled so gaps are {1, tau}.

    A lattice point (n, m) is accepted when its internal coordinate
    q = m*tau - n falls in the half-open strip [-c, c) with c = (1+tau)/2,
    and projects to the physical coordinate x = n*tau + m.  The two lattice
    steps inside the strip give gaps of exactly tau and 1.
    """
    c = (1.0 + TAU) / 2.0
    xs = []
    n_lo = int(math.floor((w0 - 3.0) / math.sqrt(5.0))) - 2
    n_hi = int(math.ceil((w1 + 3.0) / math.sqrt(5.0))) + 2
    for n in range(n_lo, n_hi + 1):
        m_lo = int(math.floor((n - c) / TAU)) - 1
        m_hi = int(math.ceil((n + c) / TAU)) + 1
        for m in range(m_lo, m_hi + 1):
            q = m * TAU - n
            if -c <= q < c:
                x = n * TAU + m
                if w0 - 1e-9 <= x <= w1 + 1e-9:
                    xs.append(x)
    return np.array(sorted(xs), dtype=float).reshape(-1, 1)


_AB_STAR = np.array(
    [[math.cos(k * math.pi / 4.0) for k in range(4)],
     [math.sin(k * math.pi / 4.0) for k in range(4)],
     [math.cos(3 * k * math.pi / 4.0) for k in range(4)],
     [math.sin(3 * k * math.pi / 4.0) for k in range(4)]]
)


def _ammann_beenker_points(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Cut-and-project through Z^4 with the eightfold star and octagon window."""
    s = (1.0 + math.sqrt(2.0)) / 2.0  # octagon inradius
    circum = s / math.cos(math.pi / 8.0)
    z_lo = np.array([lo[0], lo[1], -circum, -circum])
    z_hi = np.array([hi[0], hi[1], circum, circum])
    corners = np.stack(np.meshgrid(*zip(z_lo, z_hi), indexing="ij"), axis=-1).reshape(-1, 4)
    n_proj = corners @ _AB_STAR / 2.0  # n = M^T z / 2 (columns of M have norm sqrt(2))
    n_lo = np.floor(n_proj.min(axis=0)).astype(int) - 1
    n_hi = np.ceil(n_proj.max(axis=0)).astype(int) + 1
    axes = [np.arange(a, b + 1) for a, b in zip(n_lo, n_hi)]
    ns = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 4)
    phys = ns @ _AB_STAR[:2].T
    intl = ns @ _AB_STAR[2:].T
    normals = np.array(
        [[math.cos(j * math.pi / 4.0), math.sin(j * math.pi / 4.0)] for j in range(4)]
    )
    in_octagon = np.all(np.abs(intl @ normals.T) <= s, axis=1)
    in_window = np.all((phys >= lo - 1e-9) & (phys <= hi + 1e-9), axis=1)
    return _lex_sorted(phys[in_octagon & in_window])


def gen_cut_and_project(model: str, window) -> DeloneSet:
    """Quasiperiodic point sets from the standard cut-and-project schemes.

    fibonacci_1d: strip projection of Z^2 with slope 1/tau, gaps in {1, tau};
    ammann_beenker_2d: projection of Z^4 through the eightfold star with the
    regular-octagon acceptance window (minimum vertex distance 2*sin(pi/8)).
    """
    lo, hi = box(*window)
    if model == "fibonacci_1d":
        if len(lo) != 1:
            raise InvalidInput("fibonacci_1d needs a 1-d window")
        pts = _fibonacci_points(float(lo[0]), float(hi[0]))
        meta = {"generator": "cut_and_project", "model": model, "tau": TAU}
        return DeloneSet(1, pts, 0.5, TAU / 2.0 + 1e-9, (lo, hi), meta)
    if model == "ammann_beenker_2d":
        if len(lo) != 2:
            raise InvalidInput("ammann_beenker_2d needs a 2-d window")
        pts = _ammann_beenker_points(lo, hi)
        meta = {"generator": "cut_and_project", "model": model}
        return DeloneSet(2, pts, math.sin(math.pi / 8.0), 0.95, (lo, hi), meta)
    raise InvalidInput(f"unsupported cut-and-project model: {model!r}")


def product_delone(a: DeloneSet, b: DeloneSet) -> DeloneSet:
    """The product pattern {(x, y)} with r = min(r_a, r_b), R = hypot(R_a, R_b).

    Point (i, j) of the factors appears at index i*len(b) + j.
    """
    na, nb = len(a), len(b)
    pts = np.empty((na * nb, a.dim + b.dim))
    pts[:, : a.dim] = np.repeat(a.points, nb, axis=0)
    pts[:, a.dim:] = np.tile(b.points, (na, 1))
    lo = np.concatenate([a.window[0], b.window[0]])
    hi = np.concatenate([a.window[1], b.window[1]])
    meta = {
        "generator": "product",
        "factors": [dict(a.metadata), dict(b.metadata)],
        "factor_sizes": [na, nb],
    }
    return DeloneSet(
        a.dim + b.dim,
        pts,
        min(a.r_pack, b.r_pack),
        math.hypot(a.R_cov, b.R_cov),
        (lo, hi),
        meta,
    )


def neighbors(ds: DeloneSet, x, radius: float) -> np.ndarray:
    """Ascending indices of all sites within the closed `radius` ball around x."""
    if radius <= 0:
        raise InvalidInput("radius must be positive")
    return neighbor_pairs(np.reshape(x, (1, -1)), ds.points, radius)[1]


def local_pattern(ds: DeloneSet, i: int, rho: float) -> LocalPattern:
    """The pattern around site i, translated so that site i is the origin."""
    if not 0 <= i < len(ds):
        raise InvalidInput("site index out of range")
    if rho <= 0:
        raise InvalidInput("pattern radius must be positive")
    idx = neighbors(ds, ds.points[i], rho)
    return LocalPattern(ds.dim, rho, ds.points[idx] - ds.points[i])


def translate(ds: DeloneSet, v) -> DeloneSet:
    """The translated set Lambda - v (site order preserved)."""
    v = np.asarray(v, dtype=float)
    lo, hi = ds.window
    meta = dict(ds.metadata)
    meta["translated_by"] = (-v).tolist()
    return DeloneSet(ds.dim, ds.points - v, ds.r_pack, ds.R_cov, (lo - v, hi - v), meta)


def union_pointsets(a: DeloneSet, b: DeloneSet) -> DeloneSet:
    """Union of two patterns (a's points first, exact duplicates dropped).

    The union stays relatively dense but uniform discreteness degrades, so
    r_pack is recomputed from the actual minimum pairwise distance; R_cov is
    the smaller of the two covering radii.
    """
    if a.dim != b.dim:
        raise InvalidInput("dimension mismatch in union")
    tree = cKDTree(a.points)
    d, _ = tree.query(b.points, k=1)
    keep_b = d > 1e-12
    pts = np.vstack([a.points, b.points[keep_b]])
    if pts.shape[0] > 1:
        dmin, _ = cKDTree(pts).query(pts, k=2)
        r_pack = float(np.min(dmin[:, 1])) / 2.0
    else:
        r_pack = a.r_pack
    lo = np.minimum(a.window[0], b.window[0])
    hi = np.maximum(a.window[1], b.window[1])
    meta = {"generator": "union", "factors": [dict(a.metadata), dict(b.metadata)]}
    return DeloneSet(a.dim, pts, r_pack, min(a.R_cov, b.R_cov), (lo, hi), meta)


def write_pointset(ds: DeloneSet, csv_path) -> Path:
    """Write the exchange pair: CSV of coordinates plus a JSON sidecar."""
    csv_path = Path(csv_path)
    header = ",".join(f"x{j}" for j in range(ds.dim))
    rows = [header]
    rows += [",".join(format_float(v) for v in p) for p in ds.points]
    csv_path.write_text("\n".join(rows) + "\n")
    sidecar = {
        "dim": ds.dim,
        "r_pack": ds.r_pack,
        "R_cov": ds.R_cov,
        "window": {"lo": ds.window[0].tolist(), "hi": ds.window[1].tolist()},
        "metadata": dict(ds.metadata),
    }
    csv_path.with_suffix(".json").write_text(dumps17(sidecar) + "\n")
    return csv_path


def read_pointset(csv_path) -> DeloneSet:
    """Read back a point set written by :func:`write_pointset`."""
    import json

    csv_path = Path(csv_path)
    lines = csv_path.read_text().strip().splitlines()
    dim = len(lines[0].split(","))
    pts = np.array(
        [[float(v) for v in line.split(",")] for line in lines[1:]], dtype=float
    ).reshape(-1, dim)
    side = json.loads(csv_path.with_suffix(".json").read_text())
    return DeloneSet(
        side["dim"],
        pts,
        side["r_pack"],
        side["R_cov"],
        box(side["window"]["lo"], side["window"]["hi"]),
        side["metadata"],
    )
