"""Chain complex of the simplex and the homological code construction."""

import math
from itertools import combinations

import numpy as np
import pytest

from oracles import integer_det, rational_rank

from cvrep import codes, homology

# ---------------------------------------------------------------------------
# boundary matrices
# ---------------------------------------------------------------------------


def test_vertex_boundary_counts_points():
    np.testing.assert_array_equal(homology.boundary_matrix(4, 0), [[1, 1, 1, 1]])


def test_edge_boundary_columns():
    d1 = homology.boundary_matrix(4, 1)
    assert d1.shape == (4, 6)
    # column of edge (1,2): head minus tail
    np.testing.assert_array_equal(d1[:, 0], [-1, 1, 0, 0])
    # column of edge (3,4)
    np.testing.assert_array_equal(d1[:, 5], [0, 0, -1, 1])


def test_triangle_boundary_column():
    d2 = homology.boundary_matrix(4, 2)
    assert d2.shape == (6, 4)
    # triangle (1,2,3) over edges [12,13,14,23,24,34]
    np.testing.assert_array_equal(d2[:, 0], [1, -1, 0, 1, 0, 0])


@pytest.mark.parametrize("n", range(3, 9))
def test_boundary_of_boundary_vanishes_exactly(n):
    for k in (0, 1):
        d_low = homology.boundary_matrix(n, k)
        d_high = homology.boundary_matrix(n, k + 1)
        assert d_low.dtype == np.dtype(int) and d_high.dtype == np.dtype(int)
        product = d_low @ d_high
        assert not product.any()


def test_chain_complex_carries_all_three_boundaries():
    complex_ = homology.chain_complex(5)
    assert sorted(complex_.boundary) == [0, 1, 2]
    assert complex_.boundary[1].shape == (5, 10)
    assert complex_.boundary[2].shape == (10, 10)


def test_chain_complex_rejects_boundaries_that_do_not_compose_to_zero():
    boundary = {k: homology.boundary_matrix(5, k) for k in (0, 1, 2)}
    boundary[2] = np.abs(boundary[2])
    with pytest.raises(ValueError, match="d_1 d_2"):
        homology.ChainComplex(5, boundary)


def _loop_boundary(n, k):
    """d_k built face by face: the reference for the vectorized construction."""
    if k == 0:
        return np.ones((1, n), dtype=int)
    sources = list(combinations(range(1, n + 1), k + 1))
    targets = {c: i for i, c in enumerate(combinations(range(1, n + 1), k))}
    D = np.zeros((len(targets), len(sources)), dtype=int)
    for col, simplex in enumerate(sources):
        for m in range(k + 1):
            D[targets[simplex[:m] + simplex[m + 1 :]], col] += (-1) ** m
    return D


@pytest.mark.parametrize("n", range(3, 14))
def test_boundary_matrix_matches_the_face_by_face_construction(n):
    for k in (0, 1, 2):
        got = homology.boundary_matrix(n, k)
        assert got.dtype == np.dtype(int)
        np.testing.assert_array_equal(got, _loop_boundary(n, k))


def test_chain_complex_check_stays_exact_past_two_to_the_53():
    # the float64 product of these rows is 0, the exact one is 1
    boundary = {
        0: np.array([[2**53 + 1, -1]]),
        1: np.array([[1], [2**53]]),
        2: np.zeros((1, 1), dtype=int),
    }
    with pytest.raises(ValueError, match="d_0 d_1"):
        homology.ChainComplex(3, boundary)


def test_boundary_matrix_input_validation():
    with pytest.raises(ValueError):
        homology.boundary_matrix(2, 1)
    with pytest.raises(ValueError):
        homology.boundary_matrix(5, 3)


@pytest.mark.parametrize("n", range(4, 8))
def test_triangle_image_dimension_matches_the_graph_code(n):
    d2 = homology.boundary_matrix(n, 2)
    code = codes.build_general_code(n)
    want = math.comb(n - 1, 2)
    assert np.linalg.matrix_rank(d2.astype(float)) == want
    assert np.linalg.matrix_rank(code.x_rows) == want


# ---------------------------------------------------------------------------
# coboundary / boundary decomposition
# ---------------------------------------------------------------------------


def test_decompose_dimensions_four_vertices():
    # C_1 of the 4-vertex simplex: the coboundary image R_1 = Im d_1^T and
    # the boundary image L_1 = Im d_2 are both 3-dimensional in its 6 edges.
    d1, d2 = homology.boundary_matrix(4, 1), homology.boundary_matrix(4, 2)
    assert d1.shape[1] == d2.shape[0] == 6
    assert rational_rank(d1) == 3
    assert rational_rank(d2) == 3


def test_decompose_dimensions_five_vertices():
    d1, d2 = homology.boundary_matrix(5, 1), homology.boundary_matrix(5, 2)
    assert rational_rank(d1) == 4
    assert rational_rank(d2) == 6


@pytest.mark.parametrize("n", range(4, 8))
@pytest.mark.parametrize("k", [0, 1])
def test_decomposition_halves_are_orthogonal_and_fill_the_space(n, k):
    # C_k splits into the coboundary image Im d_k^T and the boundary image
    # Im d_{k+1}: orthogonal because d_k d_{k+1} = 0, and filling C_k because
    # the simplex's chain complex is exact there.  Ranks are exact rationals.
    d_low, d_high = homology.boundary_matrix(n, k), homology.boundary_matrix(n, k + 1)
    assert not (d_low @ d_high).any()
    rank_low = rational_rank(d_low)
    assert rank_low == math.comb(n - 1, k)
    assert rank_low + rational_rank(d_high) == math.comb(n, k + 1)


# ---------------------------------------------------------------------------
# butterfly matrix
# ---------------------------------------------------------------------------


def test_butterfly_pattern_four_vertices():
    M = homology.butterfly_matrix(4)
    np.testing.assert_array_equal(M, [[1, 1, 1, 1], [1, 1, 0, 0], [1, 0, 1, 0]])


def test_butterfly_needs_four_vertices():
    with pytest.raises(ValueError):
        homology.butterfly_matrix(3)


# frozen from the exact integer-determinant oracle
BUTTERFLY_MINOR_DETS = {
    4: [1, 1, -1, -1],
    5: [-1, -1, 1, -1, -2],
    6: [1, 1, -1, 1, -1, -3],
    7: [-1, -1, 1, -1, 1, -1, -4],
}


@pytest.mark.parametrize("n", sorted(BUTTERFLY_MINOR_DETS))
def test_every_column_deleted_butterfly_minor_is_invertible(n):
    M = homology.butterfly_matrix(n)
    dets = [integer_det(np.delete(M, j, axis=1)) for j in range(n)]
    assert dets == BUTTERFLY_MINOR_DETS[n]
    assert all(d != 0 for d in dets)
    assert all(abs(d) <= n - 3 or abs(d) == 1 for d in dets)


# ---------------------------------------------------------------------------
# homological code
# ---------------------------------------------------------------------------


def test_transposed_edge_boundary_gives_negated_stars():
    n = 5
    d1 = homology.boundary_matrix(n, 1)
    basis = codes.edge_basis(n)
    for j in range(1, n + 1):
        e = np.zeros(n)
        e[j - 1] = 1
        np.testing.assert_array_equal(-(d1.T @ e), codes.star_vector(basis, j))


def test_homological_p_rows_equal_the_graph_w_vectors():
    for n in range(4, 7):
        hom = homology.build_homological_code(n)
        graph = codes.build_general_code(n)
        np.testing.assert_array_equal(hom.p_rows, graph.p_rows)


def test_homological_x_rows_use_triangles_at_the_last_vertex():
    hom = homology.build_homological_code(4)
    assert hom.x_rows.shape == (3, 6)
    triangles = [t for t in combinations(range(1, 5), 3) if 4 in t]
    assert len(triangles) == 3
    basis = codes.edge_basis(4)
    for row, (i, j, k) in zip(hom.x_rows, triangles):
        np.testing.assert_array_equal(row, codes.directed_triangle(basis, i, j, k))


@pytest.mark.parametrize("n", range(4, 8))
def test_homological_and_graph_codes_have_equal_row_spaces(n):
    hom = homology.build_homological_code(n)
    graph = codes.build_general_code(n)
    assert homology.rowspaces_equal(hom.x_rows, graph.x_rows)
    assert homology.rowspaces_equal(hom.p_rows, graph.p_rows)
    # and the bases genuinely differ, so the comparison is non-trivial
    assert not np.array_equal(np.sort(hom.x_rows, axis=0), np.sort(graph.x_rows, axis=0))


def test_rowspaces_equal_detects_differences():
    A = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    B = np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0]])
    C = np.array([[1.0, 0.0, 1.0]])
    D = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert homology.rowspaces_equal(A, B)
    assert not homology.rowspaces_equal(A, C)
    # the decision does not depend on the scale of the rows
    assert homology.rowspaces_equal(1e6 * A, 1e6 * B)
    assert not homology.rowspaces_equal(1e-11 * A, 1e-11 * D)
    # all three ranks share the scale of the stacked matrix
    assert not homology.rowspaces_equal(1e6 * A, 1e-6 * D)


@pytest.mark.parametrize("n", [4, 6])
def test_homological_correctability_at_every_vertex(n):
    code = homology.build_homological_code(n)
    basis = codes.edge_basis(n)
    for vertex in range(1, n + 1):
        assert codes.check_correctable(code, codes.erasure_for_vertex(code, basis, vertex))


def test_truncating_the_butterfly_rows_breaks_correctability():
    # dropping one q row removes a P generator; some vertex pattern then
    # admits an unrecoverable erasure
    code = homology.build_homological_code(5)
    # P row i is -(q_i d_1), so keeping N-3 of the q rows keeps N-3 P rows
    truncated = codes.StabilizerCode(code.n_modes, code.x_rows, code.p_rows[: 5 - 3])
    basis = codes.edge_basis(5)
    results = [
        codes.check_correctable(truncated, codes.erasure_for_vertex(truncated, basis, vertex))
        for vertex in range(1, 6)
    ]
    assert not all(results)
