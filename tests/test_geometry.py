import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delonetop.errors import GenerationFailed, InvalidInput
from delonetop.geometry import (DeloneSet, _nearest, _norms, box,
                                gen_cut_and_project, gen_hardcore_random,
                                gen_periodic, gen_perturbed_lattice,
                                local_pattern, neighbor_pairs, neighbors,
                                product_delone, read_pointset, translate,
                                union_pointsets, validate_delone, write_pointset)
from oracles import (TAU, ReferenceExhausted, brute_cover_scan, brute_min_pair,
                     brute_neighbors, fibonacci_word, gap_word,
                     reference_hardcore_random)


def z2(size=10.0):
    return gen_periodic(np.eye(2), ([0.0, 0.0], [size, size]))


# ---------------------------------------------------------------------------
# validate_delone
# ---------------------------------------------------------------------------

def test_validate_z2_passes_with_exact_constants():
    ds = z2()
    rep = validate_delone(ds, grid_step=0.01)
    assert rep.passed
    assert rep.min_pair_half == pytest.approx(0.5, abs=1e-12)
    assert rep.max_cover_radius_estimate == pytest.approx(math.sqrt(2) / 2, abs=0.01)


def test_validate_grid_scan_matches_brute_oracle():
    ds = z2(6.0)
    rep = validate_delone(ds, grid_step=0.25)
    oracle = brute_cover_scan(ds.points, ds.window[0], ds.window[1],
                              erode=ds.R_cov, step=0.25)
    assert rep.max_cover_radius_estimate == pytest.approx(oracle, abs=1e-12)


def test_validate_fails_when_site_removed():
    full = z2()
    keep = ~np.all(full.points == np.array([5.0, 5.0]), axis=1)
    holed = DeloneSet(2, full.points[keep], 0.5, 0.75, full.window)
    rep = validate_delone(holed, grid_step=0.05)
    assert not rep.passed
    assert rep.max_cover_radius_estimate == pytest.approx(1.0, abs=0.05)


def test_validate_empty_set_rejected():
    ds = DeloneSet(2, np.zeros((0, 2)), 0.5, 0.75, (np.zeros(2), np.ones(2)))
    with pytest.raises(InvalidInput):
        validate_delone(ds, grid_step=0.1)


# ---------------------------------------------------------------------------
# gen_periodic
# ---------------------------------------------------------------------------

def test_periodic_identity_counts():
    assert len(gen_periodic(np.eye(2), ([0.0, 0.0], [4.0, 4.0]))) == 25


def test_periodic_rectangular_counts():
    # enumeration: 5 columns x 3 rows for basis diag(1, 2) on [0,4]^2
    assert len(gen_periodic(np.diag([1.0, 2.0]), ([0.0, 0.0], [4.0, 4.0]))) == 15


def test_periodic_singular_basis_rejected():
    bad = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(InvalidInput):
        gen_periodic(bad, ([0.0, 0.0], [4.0, 4.0]))


# ---------------------------------------------------------------------------
# gen_perturbed_lattice
# ---------------------------------------------------------------------------

def test_perturbed_zero_displacement_is_periodic():
    a = gen_perturbed_lattice(np.eye(2), ([0.0, 0.0], [6.0, 6.0]), 0.0, seed=3)
    b = gen_periodic(np.eye(2), ([0.0, 0.0], [6.0, 6.0]))
    assert np.array_equal(a.points, b.points)


def test_perturbed_constants_and_validation():
    ds = gen_perturbed_lattice(np.eye(2), ([0.0, 0.0], [10.0, 10.0]), 0.2, seed=7)
    assert ds.r_pack == pytest.approx(0.3)
    assert ds.R_cov == pytest.approx(0.91, abs=0.02)
    assert validate_delone(ds, grid_step=0.1).passed


def test_perturbed_large_displacement_rejected():
    with pytest.raises(InvalidInput):
        gen_perturbed_lattice(np.eye(2), ([0.0, 0.0], [6.0, 6.0]), 0.6, seed=0)


def test_perturbed_seed_determinism():
    mk = lambda: gen_perturbed_lattice(np.eye(2), ([0.0, 0.0], [8.0, 8.0]), 0.15, seed=11)
    assert np.array_equal(mk().points, mk().points)


# ---------------------------------------------------------------------------
# gen_hardcore_random
# ---------------------------------------------------------------------------

def test_hardcore_validates_at_spec_constants():
    # the count is seed-dependent; the contract is that validation passes
    ds = gen_hardcore_random(([0.0, 0.0], [30.0, 30.0]), 0.8, 1.6, seed=5)
    assert 500 <= len(ds) <= 1200
    assert validate_delone(ds, grid_step=0.2).passed


def test_hardcore_tiny_window_single_point():
    ds = gen_hardcore_random(([0.0, 0.0], [0.5, 0.5]), 0.8, 1.6, seed=1)
    assert len(ds) == 1


def test_hardcore_inconsistent_radii_rejected():
    with pytest.raises(InvalidInput):
        gen_hardcore_random(([0.0, 0.0], [10.0, 10.0]), 0.8, 0.8, seed=0)


def test_hardcore_exhaustion_raises():
    # a zero proposal budget on a window too small for the fill grid cannot
    # produce any point at all
    with pytest.raises(GenerationFailed):
        gen_hardcore_random(([0.0, 0.0], [0.1, 0.1]), 0.8, 1.6, seed=0,
                            max_attempts=0)
    with pytest.raises(ReferenceExhausted):
        reference_hardcore_random(([0.0, 0.0], [0.1, 0.1]), 0.8, 1.6, 0,
                                  max_attempts=0)


# (window, min_dist, target_R, seed, max_attempts); the 300-attempt windows
# leave holes for the fill pass, the others run the full proposal budget
HARDCORE_REFERENCE_CASES = [
    (([0.0, 0.0], [27.0, 27.0]), 0.8, 1.2, 1, 100_000),
    (([0.0, 0.0], [10.0, 10.0]), 0.8, 1.2, 0, 300),
    (([0.0, 0.0], [10.0, 10.0]), 0.8, 1.2, 1, 300),
    (([0.0, 0.0], [10.0, 10.0]), 0.8, 1.2, 2, 300),
    (([0.0, 0.0], [12.0, 12.0]), 0.5, 1.5, 3, 100_000),
    (([0.0, 0.0], [6.0, 9.0]), 0.8, 1.2, 4, 100_000),
    (([0.0], [20.0]), 0.8, 1.2, 5, 100_000),
    (([0.0, 0.0], [0.5, 0.5]), 0.8, 1.6, 1, 100_000),
]


@pytest.mark.parametrize("window,min_dist,target_R,seed,max_attempts",
                         HARDCORE_REFERENCE_CASES)
def test_hardcore_matches_sequential_reference(window, min_dist, target_R, seed,
                                               max_attempts):
    ds = gen_hardcore_random(window, min_dist, target_R, seed=seed,
                             max_attempts=max_attempts)
    pts, accepted, filled = reference_hardcore_random(
        window, min_dist, target_R, seed, max_attempts=max_attempts)
    assert np.array_equal(ds.points, pts)
    assert ds.metadata["rsa_accepted"] == accepted
    assert ds.metadata["fill_inserted"] == filled
    if max_attempts == 300:
        assert filled > 0


# ---------------------------------------------------------------------------
# gen_cut_and_project
# ---------------------------------------------------------------------------

def test_fibonacci_gaps_and_substitution_word():
    ds = gen_cut_and_project("fibonacci_1d", ([0.0], [20.0]))
    word = gap_word(ds.points, tol=1e-9)  # asserts every gap is 1 or tau
    assert word in fibonacci_word(500)


def test_fibonacci_density():
    # mean gap 3 - tau, so the count on [0, L] is about L / (3 - tau)
    for L in (20.0, 50.0, 100.0):
        n = len(gen_cut_and_project("fibonacci_1d", ([0.0], [L])))
        assert abs(n - L / (3.0 - TAU)) <= 2.0


def test_fibonacci_window_sizes_frozen():
    assert len(gen_cut_and_project("fibonacci_1d", ([0.0], [20.0]))) == 15
    assert len(gen_cut_and_project("fibonacci_1d", ([0.0], [100.0]))) == 73


def test_ammann_beenker_validates():
    ds = gen_cut_and_project("ammann_beenker_2d", ([-8.0, -8.0], [8.0, 8.0]))
    assert len(ds) > 100
    assert ds.r_pack == pytest.approx(math.sin(math.pi / 8.0))
    assert brute_min_pair(ds.points) >= ds.r_pack - 1e-12
    assert validate_delone(ds, grid_step=ds.r_pack / 2).passed


def test_cut_and_project_empty_window():
    ds = gen_cut_and_project("fibonacci_1d", ([0.3], [0.9]))
    assert len(ds) == 0
    with pytest.raises(InvalidInput):
        validate_delone(ds, grid_step=0.1)


def test_cut_and_project_unknown_model():
    with pytest.raises(InvalidInput):
        gen_cut_and_project("penrose_5fold", ([0.0, 0.0], [4.0, 4.0]))


# ---------------------------------------------------------------------------
# product_delone
# ---------------------------------------------------------------------------

def test_product_z1_z1_matches_z2_constants():
    mk = lambda: DeloneSet(1, np.arange(7.0)[:, None], 0.5, 0.75,
                           (np.zeros(1), np.full(1, 6.0)))
    prod = product_delone(mk(), mk())
    assert prod.dim == 2
    assert prod.r_pack == pytest.approx(0.5)
    assert prod.R_cov == pytest.approx(math.hypot(0.75, 0.75))
    assert sorted(map(tuple, prod.points)) == sorted(
        map(tuple, gen_periodic(np.eye(2), ([0.0, 0.0], [6.0, 6.0])).points))


def test_product_counting_and_index_convention():
    a = DeloneSet(1, np.arange(5.0)[:, None], 0.4, 0.75, (np.zeros(1), np.full(1, 4.0)))
    b = DeloneSet(1, np.arange(3.0)[:, None], 0.4, 0.75, (np.zeros(1), np.full(1, 2.0)))
    prod = product_delone(a, b)
    assert len(prod) == 15
    for i in range(5):
        for j in range(3):
            assert tuple(prod.points[i * 3 + j]) == (float(i), float(j))


def test_product_passes_validator():
    a = gen_perturbed_lattice(np.eye(1), ([0.0], [8.0]), 0.1, seed=2)
    b = gen_periodic(np.eye(1), ([0.0], [8.0]))
    prod = product_delone(a, b)
    assert validate_delone(prod, grid_step=prod.r_pack / 2).passed


# ---------------------------------------------------------------------------
# neighbors / local_pattern
# ---------------------------------------------------------------------------

def test_neighbors_unit_radius_cross():
    ds = gen_periodic(np.eye(2), ([-3.0, -3.0], [3.0, 3.0]))
    idx = neighbors(ds, (0.0, 0.0), 1.0)
    got = sorted(map(tuple, ds.points[idx]))
    assert got == [(-1.0, 0.0), (0.0, -1.0), (0.0, 0.0), (0.0, 1.0), (1.0, 0.0)]


def test_neighbors_radius_15_count():
    ds = gen_periodic(np.eye(2), ([-3.0, -3.0], [3.0, 3.0]))
    assert len(neighbors(ds, (0.0, 0.0), 1.5)) == 9


@pytest.mark.parametrize("radius,count", [(1.0, 5), (2.0, 13)])
def test_neighbors_exact_ties_on_sphere(radius, count):
    # on Z^2 the sites at distance exactly `radius` belong to the closed ball
    ds = z2()
    for x in ((3.0, 3.0), (0.0, 0.0), (5.0, 9.0)):
        idx = neighbors(ds, x, radius)
        assert np.array_equal(idx, brute_neighbors(ds.points, x, radius))
        assert np.all(np.diff(idx) > 0)
    assert len(neighbors(ds, (3.0, 3.0), radius)) == count


def test_neighbors_negative_radius():
    with pytest.raises(InvalidInput):
        neighbors(z2(), (0.0, 0.0), -1.0)


def test_neighbors_match_brute_scan_on_random_queries():
    ds = gen_hardcore_random(([0.0, 0.0], [12.0, 12.0]), 0.8, 1.4, seed=9)
    rng = np.random.default_rng(0)
    queries = [(ds, rng.uniform(0.0, 12.0, size=2), rng.uniform(0.3, 2.5))
               for _ in range(100)]
    # A site exactly on the sphere |p - x| = r, where the axis=1 norm of
    # p - x exceeds r in the last bit while the per-vector norm does not.
    p = np.array([2.6414215220820934, 0.9822090689727103])
    x = np.array([3.0740679955850174, 0.846698970430042])
    tie = DeloneSet(2, p[None], 0.5, 1.0, box([0.0, 0.0], [4.0, 4.0]))
    queries.append((tie, x, 0.4533717655981237))
    for ds, x, r in queries:
        assert np.array_equal(neighbors(ds, x, r),
                              brute_neighbors(ds.points, x, r))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_engine_distance_is_per_vector_norm_bit_for_bit(d):
    rng = np.random.default_rng(d)
    diff = rng.uniform(0.0, 12.0, size=(20_000, d)) - rng.uniform(0.0, 12.0, size=(20_000, d))
    assert np.array_equal(_norms(diff), [np.linalg.norm(v) for v in diff])


def _brute_pairs(A, B, radius):
    hits = [(i, j) for i, a in enumerate(A) for j in brute_neighbors(B, a, radius)]
    return np.array(hits, dtype=np.intp).reshape(-1, 2).T


@pytest.mark.parametrize("d", [1, 2, 3])
def test_engine_matches_brute_scan(d):
    rng = np.random.default_rng(10 + d)
    A = rng.uniform(0.0, 5.0, size=(40, d))
    B = np.vstack([rng.uniform(0.0, 5.0, size=(50, d)), A[:10]])  # exact duplicates
    cases = [(A, B, 1.0), (A, B, 2.5), (B, B, 1.0), (A, B, 1e-12), (B, B, 1e-12),
             (np.round(A), np.round(B), 1.0),  # integer points: ties on the sphere
             (A + 1e6, B + 1e6, 1.0), (A + 1e6, B + 1e6, 1e-12),
             (A[:0], B, 1.0), (A, B[:0], 1.0)]
    for X, Y, r in cases:
        assert np.array_equal(np.stack(neighbor_pairs(X, Y, r)), _brute_pairs(X, Y, r))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_nearest_distances_match_brute_min(d):
    rng = np.random.default_rng(20 + d)
    B = rng.uniform(0.0, 5.0, size=(30, d))
    B[-1] = B[0]  # an exact duplicate is at distance 0 from its twin
    A = rng.uniform(-10.0, 15.0, size=(40, d))  # far rows take several doublings
    assert np.array_equal(_nearest(A, B, 0.1),
                          [min(np.linalg.norm(a - b) for b in B) for a in A])
    others = [min(np.linalg.norm(B[k] - b) for m, b in enumerate(B) if m != k)
              for k in range(len(B))]
    assert np.array_equal(_nearest(B, B, 0.1, skip_self=True), others)
    assert np.all(np.isinf(_nearest(A, B[:0], 1.0)))
    assert np.all(np.isinf(_nearest(B[:1], B[:1], 1.0, skip_self=True)))


def test_local_pattern_z2_cross():
    ds = z2()
    i = int(np.flatnonzero(np.all(ds.points == [3.0, 3.0], axis=1))[0])
    pat = local_pattern(ds, i, 1.0)
    assert sorted(map(tuple, pat.points)) == [(-1.0, 0.0), (0.0, -1.0),
                                              (0.0, 0.0), (0.0, 1.0), (1.0, 0.0)]


def test_local_pattern_contains_origin_and_interior_agreement():
    ds = z2()
    interior = [i for i, p in enumerate(ds.points)
                if np.all(p >= 2.0) and np.all(p <= 8.0)]
    pats = [local_pattern(ds, i, 1.5) for i in interior]
    for pat in pats:
        assert np.any(np.all(np.abs(pat.points) < 1e-12, axis=1))
        assert np.array_equal(np.sort(pat.points, axis=0),
                              np.sort(pats[0].points, axis=0))


def test_local_pattern_out_of_range():
    with pytest.raises(InvalidInput):
        local_pattern(z2(), 10_000, 1.0)


def test_local_pattern_translation_equivariance():
    ds = gen_hardcore_random(([0.0, 0.0], [8.0, 8.0]), 0.8, 1.4, seed=4)
    moved = translate(ds, np.array([2.7, -1.3]))
    for i in (0, len(ds) // 2, len(ds) - 1):
        a = local_pattern(ds, i, 2.0)
        b = local_pattern(moved, i, 2.0)
        assert np.allclose(np.sort(a.points, axis=0), np.sort(b.points, axis=0),
                           atol=1e-12)


# ---------------------------------------------------------------------------
# invariants (property-based)
# ---------------------------------------------------------------------------

@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_generated_sets_respect_packing_radius(seed):
    ds = gen_hardcore_random(([0.0, 0.0], [6.0, 6.0]), 0.8, 1.4, seed=seed,
                             max_attempts=5_000)
    assert brute_min_pair(ds.points) >= ds.r_pack - 1e-12


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), disp=st.floats(0.0, 0.24, exclude_max=True))
def test_perturbed_lattice_respects_packing_radius(seed, disp):
    ds = gen_perturbed_lattice(np.eye(2), ([0.0, 0.0], [5.0, 5.0]), disp, seed=seed)
    assert brute_min_pair(ds.points) >= ds.r_pack - 1e-12


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), radius=st.floats(0.3, 2.0))
def test_neighbors_query_matches_brute(seed, radius):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-5.0, 5.0, size=(60, 2))
    x = rng.uniform(-5.0, 5.0, size=2)
    ds = DeloneSet(2, pts, 1e-6, 1.0, box([-5.0, -5.0], [5.0, 5.0]))
    assert np.array_equal(neighbors(ds, x, radius), brute_neighbors(pts, x, radius))


# ---------------------------------------------------------------------------
# exchange format
# ---------------------------------------------------------------------------

def test_pointset_roundtrip(tmp_path):
    ds = gen_hardcore_random(([0.0, 0.0], [6.0, 6.0]), 0.8, 1.4, seed=13)
    path = write_pointset(ds, tmp_path / "pts.csv")
    back = read_pointset(path)
    assert back.dim == ds.dim
    assert np.array_equal(back.points, ds.points)
    assert back.r_pack == ds.r_pack and back.R_cov == ds.R_cov
    assert (tmp_path / "pts.json").exists()
    header = (tmp_path / "pts.csv").read_text().splitlines()[0]
    assert header == "x0,x1"


def test_union_drops_duplicates_and_recomputes_r():
    a = z2(4.0)
    shifted = DeloneSet(2, a.points + np.array([0.5, 0.5]), a.r_pack, a.R_cov,
                        (a.window[0] + 0.5, a.window[1] + 0.5))
    u = union_pointsets(a, shifted)
    assert len(u) == 2 * len(a)
    assert u.r_pack == pytest.approx(math.sqrt(2) / 4)
    v = union_pointsets(a, a)
    assert len(v) == len(a)


def test_union_with_an_empty_factor():
    a = z2(4.0)
    empty = DeloneSet(2, np.zeros((0, 2)), a.r_pack, a.R_cov, a.window)
    for u in (union_pointsets(a, empty), union_pointsets(empty, a)):
        assert np.array_equal(u.points, a.points)
        assert u.r_pack == 0.5
