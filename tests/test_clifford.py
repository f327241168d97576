import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delonetop.clifford import build_rep, spanning_rank, verify_relations
from delonetop.errors import InvalidInput


def test_relations_exact_zero_small():
    for p in range(0, 5):
        for q in range(0, 5 - p):
            if p + q == 0:
                continue
            assert verify_relations(build_rep(p, q)).max_residual == 0.0


def test_generator_matrices_are_integer_valued():
    rep = build_rep(2, 2)
    for g in rep.gamma + rep.rho:
        assert np.array_equal(g, np.round(g))


def test_squares_and_symmetry():
    rep = build_rep(3, 2)
    eye = np.eye(rep.dim)
    for g in rep.gamma:
        assert np.array_equal(g @ g, eye)
        assert np.array_equal(g, g.T)
    for r in rep.rho:
        assert np.array_equal(r @ r, -eye)
        assert np.array_equal(r, -r.T)


def test_pairwise_anticommutation():
    rep = build_rep(2, 3)
    gens = list(rep.gamma) + list(rep.rho)
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            assert np.array_equal(gens[i] @ gens[j], -gens[j] @ gens[i])


def test_grading_d1_and_d2():
    assert np.array_equal(build_rep(1, 0).grading, np.diag([1.0, -1.0]))
    assert np.array_equal(build_rep(2, 0).grading, np.diag([1.0, -1.0, -1.0, 1.0]))


def test_grading_anticommutes_with_generators():
    rep = build_rep(2, 1)
    G = rep.grading
    for g in list(rep.gamma) + list(rep.rho):
        assert np.array_equal(G @ g, -g @ G)


def test_negated_generator_still_satisfies_relations():
    rep = build_rep(1, 1)
    flipped = type(rep)(rep.p, rep.q, rep.dim, rep.basis,
                        (-rep.gamma[0],), rep.rho, rep.grading)
    assert verify_relations(flipped).max_residual == 0.0


def test_corrupted_entry_detected():
    rep = build_rep(1, 1)
    bad = rep.gamma[0].copy()
    bad[0, 0] += 0.5
    corrupted = type(rep)(rep.p, rep.q, rep.dim, rep.basis,
                          (bad,), rep.rho, rep.grading)
    assert verify_relations(corrupted).max_residual > 0.0


def test_spanning_rank_cl11_is_full_matrix_algebra():
    assert spanning_rank(build_rep(1, 1)) == 4


def test_spanning_rank_cl22():
    assert spanning_rank(build_rep(2, 2)) == 16


def test_degenerate_and_oversized_signatures_rejected():
    with pytest.raises(InvalidInput):
        build_rep(0, 0)
    with pytest.raises(InvalidInput):
        build_rep(13, 0)


@settings(max_examples=15, deadline=None)
@given(p=st.integers(0, 6), q=st.integers(0, 6))
def test_relations_exact_zero_random_signature(p, q):
    if 1 <= p + q <= 6:
        assert verify_relations(build_rep(p, q)).max_residual == 0.0
