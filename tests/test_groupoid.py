import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delonetop.errors import InvalidInput, KernelNotSelfAdjoint
from delonetop.geometry import (LocalPattern, gen_cut_and_project,
                                gen_hardcore_random, gen_periodic, local_pattern)
from delonetop.groupoid import (PAULI, BlockOperator, HoppingFunction,
                                bloch_hamiltonian, builtin_model,
                                covariance_check, represent, stack_operator)
from delonetop.index import chiral_bloch_block, localizer_index_odd, position_dirac
from delonetop.roe import random_perturbation
from oracles import brute_neighbors, path_graph_eigenvalues


def z1(n):
    return gen_periodic(np.eye(1), ([0.0], [float(n - 1)]))


def z2(size):
    return gen_periodic(np.eye(2), ([0.0, 0.0], [float(size), float(size)]))


MODEL_WINDOWS = {
    "nn_laplacian": lambda: (builtin_model("nn_laplacian", dim=2), z2(8)),
    "dimer_chain_1d": lambda: (builtin_model("dimer_chain_1d", t1=0.7), z1(40)),
    "chiral_ssh_1d": lambda: (builtin_model("chiral_ssh_1d", t1=0.5, t2=1.0),
                              gen_cut_and_project("fibonacci_1d", ([0.0], [40.0]))),
    "chern_2band_2d": lambda: (builtin_model("chern_2band_2d", M=1.0),
                               gen_hardcore_random(([0.0, 0.0], [10.0, 10.0]),
                                                   0.8, 1.2, seed=2)),
}


# ---------------------------------------------------------------------------
# builtin_model / HoppingFunction
# ---------------------------------------------------------------------------

def test_unknown_model_rejected():
    with pytest.raises(InvalidInput):
        builtin_model("kagome_flatband")


@pytest.mark.parametrize("name", sorted(MODEL_WINDOWS))
def test_model_grading_anticommutes_with_its_operator(name):
    # Exactly the chiral models carry a read-only grading G, with GHG = -H.
    f, omega = MODEL_WINDOWS[name]()
    if name in ("chern_2band_2d", "nn_laplacian"):
        assert f.grading is None
        return
    assert np.array_equal(f.grading, np.diag([1.0, -1.0]))
    assert not f.grading.flags.writeable
    G = np.kron(np.eye(len(omega)), f.grading)
    H = represent(f, omega).to_dense()
    assert np.array_equal(G @ H @ G, -H)


GRADING_RULES = {
    "size": "shape does not match block_dim",
    "off-diagonal": r"diagonal \+-1 matrix",
    "not +-1": r"diagonal \+-1 matrix",
    "unbalanced": r"balance \+1 and -1",
}


@st.composite
def invalid_gradings(draw):
    """(rule, G): a grading of a 2-orbital model that breaks one rule."""
    rule = draw(st.sampled_from(sorted(GRADING_RULES)))
    if rule == "size":
        # A balanced +-1 diagonal of the wrong size, the sign vector itself,
        # or a non-square matrix.
        k = draw(st.integers(2, 3))
        return rule, draw(st.sampled_from([
            np.diag(draw(st.permutations([1.0] * k + [-1.0] * k))),
            np.array([1.0, -1.0]),
            np.eye(2, 3)]))
    if rule == "unbalanced":
        return rule, draw(st.sampled_from([1.0, -1.0])) * np.eye(2)
    G = np.diag(draw(st.permutations([1.0, -1.0])))
    i = draw(st.integers(0, 1))
    value = draw(st.floats().filter(lambda v: v not in (0.0, 1.0, -1.0)))
    if rule == "off-diagonal":
        G[i, 1 - i] = value
    else:
        G[i, i] = draw(st.sampled_from([0.0, value]))
    return rule, G


@settings(max_examples=80, deadline=None)
@given(case=invalid_gradings())
def test_every_invalid_grading_is_invalid_input(case):
    # One validator behind the odd localizer, the chiral Bloch block and
    # chiral noise: a bad grading is an InvalidInput, never a NumPy error.
    rule, G = case
    f = builtin_model("chiral_ssh_1d")
    omega = z1(4)
    dirac = position_dirac(omega, omega.window_center, block_dim=2)
    with pytest.raises(InvalidInput, match=GRADING_RULES[rule]):
        localizer_index_odd(represent(f, omega), dirac, 0.1, G)
    with pytest.raises(InvalidInput, match=GRADING_RULES[rule]):
        chiral_bloch_block(bloch_hamiltonian(f, np.eye(1)), G)
    with pytest.raises(InvalidInput, match=GRADING_RULES[rule]):
        random_perturbation(omega, 2.0, 0.2, 2, grading=G)


def test_kernel_vanishes_beyond_range():
    for name, make in MODEL_WINDOWS.items():
        f, omega = make()
        pat = local_pattern(omega, len(omega) // 2, f.rho_f) if f.rho_f > 0 else None
        if pat is None:
            pat = local_pattern(omega, len(omega) // 2, 1e-9)
        far = np.full(f.dim, 2.0 * f.R_f + 1.0)
        assert np.abs(np.asarray(f.kernel(pat, far))).max() == 0.0, name


# ---------------------------------------------------------------------------
# represent
# ---------------------------------------------------------------------------

def test_delta_kernel_gives_identity():
    f = HoppingFunction(
        dim=2, R_f=1e-6, rho_f=1e-6, N=2,
        kernel=lambda pat, a: np.eye(2, dtype=complex)
        if np.linalg.norm(a) < 1e-9 else np.zeros((2, 2)),
        tag="delta")
    omega = z2(5)
    H = represent(f, omega)
    assert np.array_equal(H.to_dense(), np.eye(2 * len(omega)))


@pytest.mark.parametrize("name", sorted(MODEL_WINDOWS))
def test_represent_entries_follow_brute_neighbor_order(name):
    f, omega = MODEL_WINDOWS[name]()
    pts = omega.points
    want = {}
    for i, x in enumerate(pts):
        pat = brute_neighbors(pts, x, f.rho_f) if f.rho_f > 0 else [i]
        pattern = LocalPattern(omega.dim, f.rho_f, pts[pat] - x)
        for j in map(int, brute_neighbors(pts, x, max(f.R_f, 1e-9))):
            block = np.asarray(f.kernel(pattern, pts[j] - x), dtype=complex)
            if np.abs(block).max() > 0:
                want[(i, j)] = block
    H = represent(f, omega)
    assert list(H.entries) == list(want)
    for key, block in want.items():
        assert np.array_equal(H.entries[key], block)


def test_nn_chain_matches_path_graph_closed_form():
    f = builtin_model("nn_laplacian", dim=1)
    omega = z1(101)
    H = represent(f, omega).to_dense()
    assert np.array_equal(H, np.diag(np.ones(100), 1) + np.diag(np.ones(100), -1))
    evs = np.linalg.eigvalsh(H)
    assert np.abs(evs - path_graph_eigenvalues(101)).max() <= 1e-9
    assert evs[-1] == pytest.approx(2.0 * np.cos(np.pi / 102.0), abs=1e-12)


@pytest.mark.parametrize("name", sorted(MODEL_WINDOWS))
def test_matrix_element_law_200_probes(name):
    f, omega = MODEL_WINDOWS[name]()
    H = represent(f, omega)
    rng = np.random.default_rng(17)
    n = len(omega)
    for _ in range(200):
        i = int(rng.integers(n))
        j = int(rng.integers(n))
        a = omega.points[j] - omega.points[i]
        if np.linalg.norm(a) > f.R_f:
            expected = np.zeros((f.N, f.N))
        else:
            pat = local_pattern(omega, i, max(f.rho_f, 1e-9))
            expected = np.asarray(f.kernel(pat, a), dtype=complex)
        assert np.array_equal(H.block(i, j), expected.reshape(f.N, f.N)), name


def test_represent_is_hermitian_and_exact():
    for name, make in MODEL_WINDOWS.items():
        f, omega = make()
        H = represent(f, omega)
        dense = H.to_dense()
        assert np.abs(dense - dense.conj().T).max() <= 1e-12, name


def test_non_selfadjoint_kernel_reports_worst_pair():
    f = HoppingFunction(
        dim=1, R_f=1.001, rho_f=1e-9, N=1,
        kernel=lambda pat, a: np.array([[1.0]]) if 0.5 < a[0] <= 1.001
        else np.zeros((1, 1)),
        tag="one-way")
    with pytest.raises(KernelNotSelfAdjoint) as exc:
        represent(f, z1(6))
    assert "pair" in str(exc.value)
    assert "(0, 1)" in str(exc.value)
    assert "residual 1.000e+00" in str(exc.value)


def test_misshaped_kernel_block_on_some_pairs_is_invalid_input():
    # 3 x 3 on-site blocks at the two chain ends only (their pattern holds
    # one neighbour), 2 x 2 everywhere else.
    f = HoppingFunction(
        dim=1, R_f=1e-6, rho_f=1.5, N=2,
        kernel=lambda pat, a: np.eye(3 if len(pat.points) < 3 else 2),
        tag="ragged")
    with pytest.raises(InvalidInput):
        represent(f, z1(6))


def test_dimension_mismatch_rejected():
    with pytest.raises(InvalidInput):
        represent(builtin_model("nn_laplacian", dim=2), z1(10))


# ---------------------------------------------------------------------------
# covariance
# ---------------------------------------------------------------------------

def test_covariance_zero_vector_is_exact():
    f, omega = MODEL_WINDOWS["chern_2band_2d"]()
    assert covariance_check(f, omega, np.zeros(2)) == 0.0


def test_covariance_nn_unit_shift():
    f = builtin_model("nn_laplacian", dim=2)
    assert covariance_check(f, z2(8), np.array([1.0, 0.0])) == 0.0


def test_covariance_amorphous_site_shift():
    f, omega = MODEL_WINDOWS["chern_2band_2d"]()
    v = omega.points[len(omega) // 2]
    assert covariance_check(f, omega, v) == 0.0


# ---------------------------------------------------------------------------
# stacking
# ---------------------------------------------------------------------------

def test_stack_identity_is_identity():
    omega = z1(6)
    layers = z1(4)
    T = BlockOperator.identity(omega, 2)
    S = stack_operator(T, layers)
    assert np.array_equal(S.to_dense(), np.eye(2 * 6 * 4))


def test_stack_index_convention_and_spectrum():
    f = builtin_model("chiral_ssh_1d", t1=0.5, t2=1.0)
    omega = z1(8)
    layers = z1(3)
    T = represent(f, omega)
    S = stack_operator(T, layers)
    D = S.to_dense()
    assert np.abs(D - D.conj().T).max() <= 1e-12
    nb = len(layers)
    for (i, j), b in T.entries.items():
        for a in range(nb):
            assert np.array_equal(S.block(i * nb + a, j * nb + a), b)
    evs_T = np.linalg.eigvalsh(T.to_dense())
    evs_S = np.linalg.eigvalsh(S.to_dense())
    assert np.abs(evs_S - np.sort(np.repeat(evs_T, nb))).max() <= 1e-12


# ---------------------------------------------------------------------------
# Bloch reduction
# ---------------------------------------------------------------------------

def test_bloch_nn_closed_form():
    f = builtin_model("nn_laplacian", dim=2)
    hk = bloch_hamiltonian(f, np.eye(2))
    for k in ([0.0, 0.0], [0.3, 1.2], [np.pi, 0.5]):
        k = np.asarray(k)
        expected = 2.0 * (np.cos(k[0]) + np.cos(k[1]))
        assert complex(hk(k)[0, 0]) == pytest.approx(expected, abs=1e-12)


def test_bloch_ssh_block_closed_form():
    f = builtin_model("chiral_ssh_1d", t1=0.5, t2=1.0)
    hk = bloch_hamiltonian(f, np.eye(1))
    for k in (0.0, 0.7, np.pi, 4.4):
        h = hk(k)
        assert h[0, 0] == pytest.approx(0.0, abs=1e-15)
        assert h[1, 1] == pytest.approx(0.0, abs=1e-15)
        assert complex(h[0, 1]) == pytest.approx(0.5 + 1.0 * np.exp(-1.0j * k),
                                                 abs=1e-12)


def test_bloch_is_hermitian_for_all_models():
    rng = np.random.default_rng(3)
    for name, dim in (("nn_laplacian", 2), ("chern_2band_2d", 2),
                      ("chiral_ssh_1d", 1), ("dimer_chain_1d", 1)):
        params = {"dim": 2} if name == "nn_laplacian" else {}
        f = builtin_model(name, **params)
        hk = bloch_hamiltonian(f, np.eye(dim))
        for _ in range(10):
            k = rng.uniform(0.0, 2.0 * np.pi, size=dim)
            h = hk(k if dim > 1 else float(k[0]))
            assert np.abs(h - h.conj().T).max() <= 1e-12, name


# ---------------------------------------------------------------------------
# BlockOperator mechanics
# ---------------------------------------------------------------------------

def test_block_operator_rejects_zero_and_misshaped_blocks():
    omega = z1(3)
    with pytest.raises(InvalidInput):
        BlockOperator(omega, 1, [0], [0], np.zeros((1, 1, 1)))
    with pytest.raises(InvalidInput):
        BlockOperator(omega, 1, [0], [0], np.ones((1, 2, 2)))


def test_block_operator_rejects_out_of_range_and_repeated_pairs():
    omega = z1(3)
    for rows, cols in (([5], [5]), ([-1], [0]), ([0], [3]), ([0, 0], [1, 1]),
                       ([0.5], [0])):
        with pytest.raises(InvalidInput):
            BlockOperator(omega, 1, rows, cols, np.ones((len(rows), 1, 1)))
    A = BlockOperator.identity(omega, 1)
    for i, j in ((-1, 0), (7, 7), (0, 3)):
        with pytest.raises(InvalidInput):
            A.block(i, j)


def test_block_operator_add_and_blocks_are_readonly():
    omega = z1(3)
    A = BlockOperator.identity(omega, 1)
    B = BlockOperator(omega, 1, [0], [1], np.array([[[2.0]]]))
    C = A.add(B)
    assert np.array_equal(C.block(0, 1), np.array([[2.0]]))
    assert np.array_equal(C.block(0, 0), np.array([[1.0]]))
    assert np.array_equal(C.block(2, 1), np.array([[0.0]]))
    with pytest.raises(ValueError):
        A.entries[(0, 0)][0, 0] = 9.0


def test_block_operator_add_cancellation_drops_block():
    omega = z1(2)
    A = BlockOperator(omega, 1, [0], [1], np.array([[[1.0]]]))
    B = BlockOperator(omega, 1, [0], [1], np.array([[[-1.0]]]))
    C = A.add(B)
    assert (0, 1) not in C.entries


# ---------------------------------------------------------------------------
# to_sparse
# ---------------------------------------------------------------------------

POINT_SETS = {
    1: {"periodic": lambda: z1(30),
        "hardcore": lambda: gen_hardcore_random(([0.0], [30.0]), 0.8, 1.2, seed=1),
        "fibonacci": lambda: gen_cut_and_project("fibonacci_1d", ([0.0], [30.0]))},
    2: {"periodic": lambda: z2(8),
        "hardcore": lambda: gen_hardcore_random(([0.0, 0.0], [8.0, 8.0]), 0.8, 1.2, seed=1),
        "ammann_beenker": lambda: gen_cut_and_project("ammann_beenker_2d",
                                                      ([-4.0, -4.0], [4.0, 4.0]))},
}
# Every builtin model on every point set of its dimension; dimer_chain_1d
# with t1 < 0 stores -0.0 diagonal entries in its on-site blocks.
SPARSE_MODELS = {
    1: {"nn_laplacian": {"dim": 1}, "dimer_chain_1d": {"t1": -0.7},
        "chiral_ssh_1d": {"t1": 0.5, "t2": 1.0}},
    2: {"nn_laplacian": {"dim": 2}, "chern_2band_2d": {"M": 1.0}},
}
SPARSE_CASES = [(d, s, m) for d in POINT_SETS for s in POINT_SETS[d] for m in SPARSE_MODELS[d]]


def _assert_sparse_is_dense(T):
    """to_sparse() stores exactly the nonzero entries of to_dense(), each
    bit for bit, in canonical CSR order."""
    D = T.to_dense()
    S = T.to_sparse()
    assert S.format == "csr" and S.shape == D.shape and S.has_canonical_format
    coo = S.tocoo()
    assert np.all(coo.data != 0)
    assert S.nnz == np.count_nonzero(D)
    assert D[coo.row, coo.col].tobytes() == coo.data.tobytes()
    # toarray() adds the entries into zeros, so it matches in value (a -0.0
    # part reads 0.0) and bit for bit wherever no part is -0.0.
    assert np.array_equal(S.toarray(), D)


@pytest.mark.parametrize("dim,pointset,name", SPARSE_CASES,
                         ids=[f"{s}-{m}" for _, s, m in SPARSE_CASES])
def test_to_sparse_matches_to_dense(dim, pointset, name):
    sites = POINT_SETS[dim][pointset]()
    f = builtin_model(name, **SPARSE_MODELS[dim][name])
    H = represent(f, sites)
    _assert_sparse_is_dense(H)
    for grading in (None, f.grading if f.grading is not None else np.diag([1.0, -1.0])):
        V = random_perturbation(sites, 2.0, 0.3, 2, grading=grading, seed=dim)
        _assert_sparse_is_dense(V)
        if f.N == 2:
            _assert_sparse_is_dense(H.add(V))
    if dim == 1:
        _assert_sparse_is_dense(stack_operator(H, z1(4)))


def test_to_sparse_of_empty_operator():
    T = BlockOperator(z2(2), 2, [], [], np.zeros((0, 2, 2)))
    S = T.to_sparse()
    assert S.shape == (18, 18) and S.nnz == 0
    _assert_sparse_is_dense(T)


def test_to_sparse_keeps_signed_zero_parts():
    # A stored entry with a -0.0 part keeps it; an all-zero entry of a
    # nonzero block is not stored.
    block = np.array([[complex(-0.0, 1.0), complex(-0.0, -0.0)],
                      [complex(2.0, -0.0), 0.0]])
    T = BlockOperator(z1(2), 2, [0], [1], block[None])
    S = T.to_sparse()
    assert S.nnz == 2
    assert S.data.tobytes() == np.array([block[0, 0], block[1, 0]]).tobytes()
