"""Chain complex of the simplex and the homological code construction."""

import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from oracles import directed_triangle, integer_det, rational_rank, star_vector

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


@pytest.mark.parametrize("n", range(3, 8))
def test_boundaries_hold_the_signed_faces_of_each_simplex(n):
    for k in (1, 2):
        faces = {f: i for i, f in enumerate(combinations(range(1, n + 1), k))}
        want = np.zeros((len(faces), math.comb(n, k + 1)), dtype=int)
        for col, simplex in enumerate(combinations(range(1, n + 1), k + 1)):
            for m in range(k + 1):
                want[faces[simplex[:m] + simplex[m + 1 :]], col] = (-1) ** m
        np.testing.assert_array_equal(homology.boundary_matrix(n, k), want)


def test_chain_complex_carries_all_three_boundaries():
    complex_ = homology.chain_complex(5)
    assert sorted(complex_.boundary) == [0, 1, 2]
    assert complex_.boundary[1].shape == (5, 10)
    assert complex_.boundary[2].shape == (10, 10)


def test_chain_complex_holds_face_tables_of_the_dense_boundaries():
    complex_ = homology.chain_complex(6)
    for k, table in complex_.boundary.items():
        assert isinstance(table, homology.FaceTable)
        assert table.faces.shape == table.signs.shape == (table.shape[1], k + 1)
        np.testing.assert_array_equal(table.dense(), homology.boundary_matrix(6, k))


def test_chain_complex_rejects_boundaries_that_do_not_compose_to_zero():
    # flip the sign of one face of one simplex
    flips = [(1, 0, 0, "d_0 d_1"), (2, 3, 1, "d_1 d_2"), (2, 19, 2, "d_1 d_2")]
    for k, column, entry, message in flips:
        boundary = dict(homology.chain_complex(6).boundary)
        table = boundary[k]
        signs = table.signs.copy()
        signs[column, entry] *= -1
        boundary[k] = homology.FaceTable(table.shape, table.faces, signs)
        with pytest.raises(ValueError, match=message):
            homology.ChainComplex(6, boundary)


def test_chain_complex_rejects_boundaries_whose_shapes_do_not_compose():
    boundary = dict(homology.chain_complex(5).boundary)
    boundary[2] = homology.chain_complex(6).boundary[2]
    with pytest.raises(ValueError, match=r"d_1 is 5 x 10 but d_2 has 15 rows"):
        homology.ChainComplex(5, boundary)


def test_face_table_rejects_faces_that_do_not_fit_its_shape():
    faces, signs = np.array([[0, 1]]), np.array([[1, -1]])
    with pytest.raises(ValueError, match="one equal row per column"):
        homology.FaceTable((2, 2), faces, signs)
    with pytest.raises(ValueError, match="one equal row per column"):
        homology.FaceTable((2, 1), faces, signs[:, :1])
    for bad in (-1, 2):
        with pytest.raises(ValueError, match=r"face ranks must lie in 0\.\.1"):
            homology.FaceTable((2, 1), np.array([[0, bad]]), signs)


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
    # d_0 = [[2**53 + 1, -1]] and d_1 = [[1], [2**53]]: the float64 sum of
    # d_0 d_1's two terms is 0, the exact one is 1
    boundary = {
        0: homology.FaceTable((1, 2), np.array([[0], [0]]), np.array([[2**53 + 1], [-1]])),
        1: homology.FaceTable((2, 1), np.array([[0, 1]]), np.array([[1, 2**53]])),
        2: homology.FaceTable((1, 0), np.zeros((0, 2), dtype=int), np.zeros((0, 2), dtype=int)),
    }
    assert float(2**53 + 1) - float(2**53) == 0.0
    with pytest.raises(ValueError, match="d_0 d_1"):
        homology.ChainComplex(3, boundary)
    # entries past int64 are multiplied and summed exactly as well
    boundary[0] = homology.FaceTable((1, 2), np.array([[0], [0]]), np.array([[1], [-1]]))
    huge = np.array([[2**70 + 1, 2**70]], dtype=object)
    boundary[1] = homology.FaceTable((2, 1), np.array([[0, 1]]), huge)
    with pytest.raises(ValueError, match="d_0 d_1"):
        homology.ChainComplex(3, boundary)


def _bincounts(monkeypatch):
    """The calls np.bincount takes from here on."""
    calls, honest = [], np.bincount

    def spy(*args, **kwargs):
        calls.append(args)
        return honest(*args, **kwargs)

    monkeypatch.setattr(np, "bincount", spy)
    return calls


def test_a_flipped_sign_of_d_2_breaks_d_1_d_2_on_the_float_path(monkeypatch):
    tables = {k: homology.face_table(6, k) for k in (0, 1, 2)}
    calls = _bincounts(monkeypatch)
    homology.ChainComplex(6, tables)
    assert len(calls) == 2
    d2 = tables[2]
    for column, entry in ((0, 0), (7, 1), (19, 2)):
        signs = d2.signs.copy()
        signs[column, entry] *= -1
        flipped = {**tables, 2: homology.FaceTable(d2.shape, d2.faces, signs)}
        with pytest.raises(ValueError, match="d_1 d_2"):
            homology.ChainComplex(6, flipped)
    assert len(calls) == 2 + 3 * 2


def _two_term_complex(top, bottom):
    """d_0 = [[top, -bottom]], d_1 = [[1], [1]]: d_0 d_1 has T = 2 terms, summing to top - bottom."""
    return {
        0: homology.FaceTable((1, 2), np.array([[0], [0]]), np.array([[top], [-bottom]])),
        1: homology.FaceTable((2, 1), np.array([[0, 1]]), np.array([[1, 1]])),
        2: homology.FaceTable((1, 0), np.zeros((0, 2), dtype=int), np.zeros((0, 2), dtype=int)),
    }


@pytest.mark.parametrize("size, on_float_path", [(2**52 - 1, True), (2**52, False)])
def test_the_float_sum_is_taken_only_while_it_is_exact(monkeypatch, size, on_float_path):
    # max|d_0| max|d_1| T = 2 size must stay below 2^53 for the bincount
    calls = _bincounts(monkeypatch)
    homology.ChainComplex(3, _two_term_complex(size, size))
    with pytest.raises(ValueError, match="d_0 d_1"):
        homology.ChainComplex(3, _two_term_complex(size, size - 1))
    assert len(calls) == (2 if on_float_path else 0)


def test_both_cases_past_two_to_the_53_take_the_exact_path(monkeypatch):
    # the tables of test_chain_complex_check_stays_exact_past_two_to_the_53
    calls = _bincounts(monkeypatch)
    empty = homology.FaceTable((1, 0), np.zeros((0, 2), dtype=int), np.zeros((0, 2), dtype=int))
    d0 = homology.FaceTable((1, 2), np.array([[0], [0]]), np.array([[2**53 + 1], [-1]]))
    d1 = homology.FaceTable((2, 1), np.array([[0, 1]]), np.array([[1, 2**53]]))
    with pytest.raises(ValueError, match="d_0 d_1"):
        homology.ChainComplex(3, {0: d0, 1: d1, 2: empty})
    d0 = homology.FaceTable((1, 2), np.array([[0], [0]]), np.array([[1], [-1]]))
    d1 = homology.FaceTable((2, 1), np.array([[0, 1]]), np.array([[2**70 + 1, 2**70]], dtype=object))
    with pytest.raises(ValueError, match="d_0 d_1"):
        homology.ChainComplex(3, {0: d0, 1: d1, 2: empty})
    assert calls == []


def test_chain_complex_and_homological_code_stay_small_at_forty_vertices():
    # the dense d_2 at N = 40 alone is a 780 x 9880 int64 array, 61.6 MB
    tracemalloc.start()
    try:
        complex_ = homology.chain_complex(40)
        code = homology.build_homological_code(40)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert complex_.boundary[2].shape == (780, 9880)
    assert code.x_rows.shape == (741, 780)
    assert peak < 8 * 2**20


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
        np.testing.assert_array_equal(-(d1.T @ e), star_vector(basis, j))


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
        np.testing.assert_array_equal(row, directed_triangle(basis, i, j, k))


@pytest.mark.parametrize("n", range(4, 10))
def test_homological_x_rows_are_the_d2_columns_of_the_triangles_through_vertex_n(n):
    d2 = homology.boundary_matrix(n, 2)
    cols = [i for i, t in enumerate(combinations(range(1, n + 1), 3)) if n in t]
    np.testing.assert_array_equal(homology.build_homological_code(n).x_rows, d2[:, cols].T)


@pytest.mark.parametrize("n", range(4, 8))
def test_homological_and_graph_codes_have_equal_row_spaces(n):
    hom = homology.build_homological_code(n)
    graph = codes.build_general_code(n)
    assert homology.rowspaces_equal(hom.x_rows, graph.x_rows)
    assert homology.rowspaces_equal(hom.p_rows, graph.p_rows)
    # the comparison of two codes reuses their singular values, with the same answers
    assert [a.same_span(b) for a, b in zip(hom._blocks, graph._blocks)] == [True, True]
    # and the bases genuinely differ, so the comparison is non-trivial
    assert not np.array_equal(np.sort(hom.x_rows, axis=0), np.sort(graph.x_rows, axis=0))


def test_code_rowspace_comparison_takes_one_svd_per_block(monkeypatch):
    # integer blocks compare exactly, with no SVD; the same blocks scaled by
    # 1/3 take the float path, whose singular values the construction's
    # independence check already took, so each comparison takes one SVD,
    # of the stacked blocks
    hom = homology.build_homological_code(6)
    graph = codes.build_general_code(6)
    truncated = codes.StabilizerCode(hom.n_modes, hom.x_rows, hom.p_rows[:2])
    thirds = [codes.StabilizerCode(c.n_modes, c.x_rows / 3, c.p_rows / 3) for c in (hom, graph, truncated)]
    svd, shapes = np.linalg.svd, []

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    for hom, graph, truncated in ((hom, graph, truncated), thirds):
        assert [a.same_span(b) for a, b in zip(hom._blocks, graph._blocks)] == [True, True]
        assert [a.same_span(b) for a, b in zip(truncated._blocks, graph._blocks)] == [True, False]
    assert shapes == [(20, 15), (8, 15), (20, 15), (6, 15)]


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


def test_integer_row_spaces_compare_exactly():
    # [[a, a+1], [a-1, a]] has determinant 1, so it spans the plane; its
    # smallest singular value, about 5e-9, falls under a float cutoff at the
    # scale of the stack
    a = 10**8
    assert homology.rowspaces_equal([[a, a + 1], [a - 1, a]], np.eye(2))
    assert not homology.rowspaces_equal([[a, a + 1], [2 * a, 2 * a + 2]], np.eye(2))


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
