"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written with the dumbest workable algorithm
(brute-force scans, closed forms, direct geometric integration) and shares no
code with the package, so agreement is meaningful evidence.
"""

import math

import numpy as np
import scipy.linalg

TAU = (1.0 + math.sqrt(5.0)) / 2.0

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def brute_neighbors(points, x, radius):
    """All indices with |p - x| <= radius by a plain O(n) scan."""
    points = np.asarray(points, dtype=float)
    x = np.asarray(x, dtype=float)
    out = [i for i, p in enumerate(points) if np.linalg.norm(p - x) <= radius]
    return np.array(out, dtype=np.int64)


class ReferenceExhausted(Exception):
    """The reference generator accepted no point at all."""


def reference_hardcore_random(window, min_dist, target_R, seed, max_attempts=100_000):
    """Random sequential adsorption one proposal at a time, then the fill pass.

    Oracle of the batched gen_hardcore_random: the same draws and the same
    rule, a point is rejected when np.linalg.norm(p - x) <= radius for an
    earlier point p (found through uniform grid buckets).  Returns the
    lexicographically sorted points, the number of accepted proposals and
    the number of inserted fill centers.
    """
    lo = np.atleast_1d(np.asarray(window[0], dtype=float))
    hi = np.atleast_1d(np.asarray(window[1], dtype=float))
    d = len(lo)
    rng = np.random.default_rng(seed)

    accepted = []
    cell = max(min_dist, target_R)
    buckets = {}
    pts_buf = []

    def insert(i, p):
        key = tuple(np.floor(np.asarray(p, dtype=float) / cell).astype(np.int64))
        buckets.setdefault(key, []).append(i)

    def _near(x, radius):
        base = np.floor(x / cell).astype(np.int64)
        for off in np.ndindex(*(3,) * d):
            for i in buckets.get(tuple(base + np.asarray(off) - 1), ()):
                if np.linalg.norm(pts_buf[i] - x) <= radius:
                    return True
        return False

    for _ in range(int(max_attempts)):
        x = lo + (hi - lo) * rng.random(d)
        if not _near(x, min_dist):
            insert(len(pts_buf), x)
            pts_buf.append(x)
            accepted.append(x)

    fill_R = (min_dist + target_R) / 2.0
    h = (target_R - min_dist) / (2.0 * math.sqrt(d))
    fill_axes = [np.arange(a + h / 2, b + 1e-12, h) for a, b in zip(lo, hi)]
    if all(len(ax) for ax in fill_axes):
        centers = np.stack(np.meshgrid(*fill_axes, indexing="ij"), axis=-1).reshape(-1, d)
        filled = 0
        for c in centers:
            if not _near(c, fill_R):
                insert(len(pts_buf), c)
                pts_buf.append(c)
                filled += 1
    else:
        filled = 0

    if not pts_buf:
        raise ReferenceExhausted(
            "attempt budget exhausted before any point was accepted")
    pts = np.array(pts_buf, dtype=float).reshape(-1, d)
    pts = pts[np.lexsort(pts.T[::-1])]
    return pts, len(accepted), filled


def brute_min_pair(points):
    """Half the minimum pairwise distance, by the O(n^2) double loop."""
    points = np.asarray(points, dtype=float)
    best = math.inf
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            best = min(best, float(np.linalg.norm(points[i] - points[j])))
    return best / 2.0


def brute_cover_scan(points, lo, hi, erode, step):
    """Max over a grid of centers (eroded window) of the nearest-site distance."""
    points = np.asarray(points, dtype=float)
    lo = np.asarray(lo, dtype=float) + erode
    hi = np.asarray(hi, dtype=float) - erode
    axes = [np.arange(a, b + step / 2, step) for a, b in zip(lo, hi)]
    worst = 0.0
    for c in np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(lo)):
        worst = max(worst, float(np.linalg.norm(points - c, axis=1).min()))
    return worst


def fibonacci_word(min_length):
    """Prefix of the infinite Fibonacci substitution word L -> LS, S -> L."""
    word = "L"
    while len(word) < min_length:
        word = "".join("LS" if ch == "L" else "L" for ch in word)
    return word


def gap_word(points_1d, tol=1e-9):
    """Consecutive-gap letters of a sorted 1D point list: tau -> L, 1 -> S."""
    gaps = np.diff(np.asarray(points_1d, dtype=float).ravel())
    letters = []
    for g in gaps:
        if abs(g - TAU) <= tol:
            letters.append("L")
        elif abs(g - 1.0) <= tol:
            letters.append("S")
        else:
            raise AssertionError(f"gap {g!r} is neither 1 nor tau")
    return "".join(letters)


def path_graph_eigenvalues(n, t=1.0):
    """Spectrum of the n-site open chain with hopping t: 2 t cos(k pi / (n+1))."""
    k = np.arange(1, n + 1)
    return np.sort(2.0 * t * np.cos(k * np.pi / (n + 1)))


def _solid_angle(a, b, c):
    """Oriented solid angle of the spherical triangle (a, b, c)."""
    num = float(np.dot(a, np.cross(b, c)))
    den = 1.0 + float(a @ b) + float(b @ c) + float(c @ a)
    return 2.0 * math.atan2(num, den)


def dvector_chern_lower(hk, n=96):
    """Chern number of the band below 0 of a traceless 2-band Bloch family.

    Decomposes h(k) = d(k) . sigma and sums oriented solid angles of the
    d-hat image over the triangulated k-torus; the mapping degree equals
    minus the lower-band Chern number.  The sign is anchored by counting
    preimages of the north pole for d = (sin k1, sin k2, M - cos k1 - cos k2)
    by hand: at M inside the (0, 2) lobe the preimages (pi,0), (0,pi), (pi,pi)
    carry Jacobian signs -1, -1, +1, so the degree is -1 while the lower band
    has Chern +1.
    """
    ks = 2.0 * np.pi * np.arange(n) / n
    u = np.empty((n, n, 3))
    for i, k1 in enumerate(ks):
        for j, k2 in enumerate(ks):
            h = hk(np.array([k1, k2]))
            d = np.array([h[0, 1].real, -h[0, 1].imag,
                          (h[0, 0] - h[1, 1]).real / 2.0])
            u[i, j] = d / np.linalg.norm(d)
    total = 0.0
    for i in range(n):
        for j in range(n):
            a, b = u[i, j], u[(i + 1) % n, j]
            c, d = u[(i + 1) % n, (j + 1) % n], u[i, (j + 1) % n]
            total += _solid_angle(a, b, c) + _solid_angle(a, c, d)
    deg = total / (4.0 * np.pi)
    nearest = round(deg)
    assert abs(deg - nearest) < 1e-6, f"degree {deg} is not integral"
    return -nearest


def winding_unwrap(ak, n=4096):
    """Winding of det A(k) over [0, 2pi) via phase unwrapping of dense samples."""
    ks = 2.0 * np.pi * np.arange(n + 1) / n
    dets = np.array([np.linalg.det(np.atleast_2d(ak(k))) for k in ks])
    assert np.abs(dets).min() > 1e-12, "det A(k) vanishes on the sample grid"
    phases = np.unwrap(np.angle(dets))
    w = (phases[-1] - phases[0]) / (2.0 * np.pi)
    nearest = round(w)
    assert abs(w - nearest) < 1e-6, f"winding {w} is not integral"
    return nearest


def reference_fermi_projection(eigenvalues, eigenvectors, mu):
    """The full m x m Fermi projection P = V V^dag, V the eigenvectors with
    eigenvalue below mu, with elementwise idempotency and hermiticity
    asserts.

    Oracle of the frame-backed spectral.fermi_projection, and through
    kitaev_chern's dense-matrix input, of the sector blocks it forms from
    the frame.
    """
    occ = np.asarray(eigenvalues) < mu
    V = np.asarray(eigenvectors)[:, occ]
    P = V @ V.conj().T
    if P.size:
        assert np.abs(P @ P - P).max() <= 1e-9, "projection idempotency defect"
        assert np.abs(P - P.conj().T).max() <= 1e-9, "projection hermiticity defect"
    return P


def reference_localizer_even(H, mu, points, x0, block_dim, kappa):
    """Even localizer index from the full spectrum of the dense 2m x 2m matrix

        L = [[H - mu, kappa D-], [kappa D-^dag, -(H - mu)]],
        D- = (x1 - x01) - i (x2 - x02) on every orbital of a site.

    Oracle of the inertia/shift-invert localizer_index_even, at its default
    margin_min = 1e-3 * max(||H - mu||, |kappa| max|x - x0|).  Returns a dict
    with index, status, half_signature and margin.
    """
    H = np.asarray(H, dtype=complex)
    m = H.shape[0]
    rel = np.asarray(points, dtype=float) - np.asarray(x0, dtype=float)
    hscale = np.abs(np.linalg.eigvalsh(H) - mu).max()
    margin_min = 1e-3 * max(hscale, abs(kappa) * np.linalg.norm(rel, axis=1).max())
    dminus = np.repeat(rel[:, 0] - 1.0j * rel[:, 1], block_dim)
    A = H - mu * np.eye(m)
    L = np.zeros((2 * m, 2 * m), dtype=complex)
    L[:m, :m] = A
    L[m:, m:] = -A
    L[:m, m:] = kappa * np.diag(dminus)
    L[m:, :m] = kappa * np.diag(dminus.conj())
    evl = np.linalg.eigvalsh(L)
    margin = float(np.abs(evl).min())
    half_sig = 0.5 * float((evl > 0).sum() - (evl < 0).sum())
    nearest = round(half_sig)
    ok = margin > margin_min and abs(half_sig - nearest) <= 0.01
    return {"index": int(nearest) if ok else None,
            "status": "ok" if ok else "unreliable",
            "half_signature": half_sig,
            "margin": margin}


def reference_localizer_odd(H, points, x0, grading, kappa):
    """Odd localizer index from the chiral-basis assembly

        L = [[kappa (X - x0), A], [A^dag, -kappa (X - x0)]],  A = H[plus, minus],

    plus (minus) the +1 (-1) orbitals of the on-site grading, site-major.
    Oracle of localizer_index_odd, which assembles H + kappa (X - x0) G
    sparse in site-major order instead and reads its margin by shift-invert
    ARPACK and its signature off sparse LU pivots, at its default
    margin_min = 1e-3 * max(||H||, |kappa| max|x - x0|): index, status and
    half-signature must agree exactly, the margin to 1e-9 relative.
    Returns a dict with index, status, half_signature and margin.
    """
    H = np.asarray(H, dtype=complex)
    rel = np.asarray(points, dtype=float)[:, 0] - float(np.asarray(x0)[0])
    n = rel.size
    N = H.shape[0] // n
    diag = np.diag(grading)
    plus = np.flatnonzero(diag > 0)
    minus = np.flatnonzero(diag < 0)
    hscale = np.abs(scipy.linalg.eigvalsh(H)).max()
    margin_min = 1e-3 * max(hscale, abs(kappa) * np.abs(rel).max())

    plus_idx = (np.arange(n)[:, None] * N + plus[None, :]).ravel()
    minus_idx = (np.arange(n)[:, None] * N + minus[None, :]).ravel()
    A = H[np.ix_(plus_idx, minus_idx)]
    x = np.repeat(rel, plus.size)
    h = plus_idx.size
    L = np.zeros((2 * h, 2 * h), dtype=complex, order="F")
    L[:h, :h] = kappa * np.diag(x)
    L[h:, h:] = -kappa * np.diag(x)
    L[:h, h:] = A
    L[h:, :h] = A.conj().T
    evl = scipy.linalg.eigvalsh(L, overwrite_a=True)
    margin = float(np.abs(evl).min())
    half_sig = 0.5 * float((evl > 0).sum() - (evl < 0).sum())
    nearest = round(half_sig)
    ok = margin > margin_min and abs(half_sig - nearest) <= 0.01
    return {"index": int(nearest) if ok else None,
            "status": "ok" if ok else "unreliable",
            "half_signature": half_sig,
            "margin": margin}


def reference_random_perturbation(points, R, strength, block_dim,
                                  symmetry="none", grading=None, seed=0):
    """Entries of the seeded controlled perturbation, one pair at a time.

    Oracle of the batched roe.random_perturbation: for i ascending and each
    neighbour j >= i (|p_j - p_i| <= R by a plain scan, ascending j), draw
    a real and an imaginary (N, N) Gaussian block, Hermitise diagonal
    blocks, project onto the grading's anticommutant when chiral, clip to
    the norm budget and keep the block if it is nonzero, with its adjoint
    at (j, i).  Returns the entries dict in insertion order.
    """
    points = np.asarray(points, dtype=float)
    rng = np.random.default_rng(seed)
    entries = {}
    for i, x in enumerate(points):
        for j in np.flatnonzero(np.linalg.norm(points - x, axis=1) <= R):
            j = int(j)
            if j < i:
                continue
            B = rng.standard_normal((block_dim, block_dim)) \
                + 1.0j * rng.standard_normal((block_dim, block_dim))
            if j == i:
                B = 0.5 * (B + B.conj().T)
            if symmetry == "chiral":
                B = 0.5 * (B - grading @ B @ grading)
            nrm = float(np.linalg.svd(B, compute_uv=False)[0])
            if nrm > strength:
                B = B * (strength / nrm)
            if np.abs(B).max() > 0:
                entries[(i, j)] = B
                if j != i:
                    entries[(j, i)] = B.conj().T
    return entries
