import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srlnc import (
    Mat,
    Singular,
    Subspace,
    change_basis_to_targets,
    complete_basis,
    invert,
    kernel_columns,
    rank,
    rank_of_vectors,
    row_times,
    solve_columns,
    subspace_intersect,
    subspace_sum,
    times_col,
)

from helpers import GF2, GF3, GF5, mat_cols, sympy_invert, sympy_rank


@st.composite
def matrices(draw, max_dim=4):
    field = draw(st.sampled_from([GF2, GF3, GF5]))
    nrows = draw(st.integers(1, max_dim))
    ncols = draw(st.integers(1, max_dim))
    data = draw(st.lists(
        st.lists(st.integers(0, field.p - 1), min_size=ncols, max_size=ncols),
        min_size=nrows, max_size=nrows))
    return Mat(field, data)


@st.composite
def invertible_matrices(draw, max_dim=4):
    # L with unit diagonal times U with nonzero diagonal is always invertible
    field = draw(st.sampled_from([GF2, GF3, GF5]))
    n = draw(st.integers(1, max_dim))
    entry = st.integers(0, field.p - 1)
    lower = [[draw(entry) if j < i else (1 if i == j else 0) for j in range(n)]
             for i in range(n)]
    upper = [[draw(entry) if j > i else (draw(st.integers(1, field.p - 1)) if i == j else 0)
              for j in range(n)] for i in range(n)]
    return Mat(field, lower) @ Mat(field, upper)


# ---------------------------------------------------------------- Mat basics

def test_mat_shape_and_access():
    a = Mat(GF3, [[1, 2, 0], [0, 4, 2]])
    assert (a.rows, a.cols) == (2, 3)
    assert a.row(1) == (0, 1, 2)  # entries reduce mod p
    assert a.col(1) == (2, 1)
    assert a.transpose().to_lists() == [[1, 0], [2, 1], [0, 2]]


def test_mat_ragged_rejected():
    with pytest.raises(ValueError):
        Mat(GF3, [[1, 2], [1]])
    with pytest.raises(ValueError):
        Mat.from_cols(GF3, [(1, 0), (1, 0, 0)])


def test_from_cols_round_trip():
    cols = [(1, 1, 0), (0, 2, 1)]
    a = Mat.from_cols(GF3, cols)
    assert a.columns() == cols
    assert Mat.from_cols(GF3, [], nrows=3).cols == 0


def test_matmul_and_vector_products():
    a = Mat(GF3, [[1, 2], [0, 1]])
    b = Mat(GF3, [[1, 1], [1, 0]])
    assert (a @ b).to_lists() == [[0, 1], [1, 0]]
    assert row_times((1, 1), a) == (1, 0)
    assert times_col(a, (1, 1)) == (0, 1)
    assert (a @ Mat.identity(GF3, 2)) == a


def test_matmul_mismatch():
    a = Mat(GF3, [[1, 2], [0, 1]])
    with pytest.raises(ValueError):
        a @ Mat(GF3, [[1, 2, 3]])
    with pytest.raises(ValueError):
        a @ Mat(GF5, [[1, 2], [0, 1]])


# ---------------------------------------------------------------- rank / invert

def test_rank_examples():
    assert rank(Mat.identity(GF3, 3)) == 3
    assert rank(Mat.zeros(GF3, 3, 2)) == 0
    assert rank(mat_cols(GF3, (1, 1, 0), (1, 0, 1))) == 2
    assert rank_of_vectors(GF2, [(1, 1, 0), (1, 0, 0), (0, 1, 0)]) == 2
    assert rank_of_vectors(GF2, []) == 0


def test_invert_known_value():
    b_bar = mat_cols(GF3, (2, 1, 1), (1, 1, 0), (1, 1, 1))
    assert invert(b_bar).to_lists() == [[1, 2, 0], [0, 1, 2], [2, 1, 1]]
    assert invert(Mat.identity(GF5, 4)) == Mat.identity(GF5, 4)


def test_invert_rejects_singular():
    with pytest.raises(Singular):
        invert(Mat(GF3, [[1, 1], [0, 0]]))
    with pytest.raises(Singular):
        invert(Mat(GF3, [[1, 1, 0], [0, 1, 0]]))  # not square


def test_solve_columns():
    a = mat_cols(GF3, (1, 1, 0), (0, 0, 1))
    x = Mat(GF3, [[1, 1], [0, 1]])
    b = a @ x
    assert solve_columns(a, b) == x
    with pytest.raises(ValueError):
        solve_columns(a, Mat.from_cols(GF3, [(1, 0, 0)]))  # outside the span


def test_kernel_columns():
    a = Mat(GF3, [[1, 2, 0], [0, 0, 1]])
    ks = kernel_columns(a)
    assert len(ks) == a.cols - rank(a) == 1
    for k in ks:
        assert times_col(a, k) == (0, 0)
    assert kernel_columns(Mat.identity(GF3, 2)) == []


@given(matrices())
def test_rank_matches_transpose(a):
    assert rank(a) == rank(a.transpose())


@given(matrices())
def test_rank_matches_oracle(a):
    assert rank(a) == sympy_rank(a)


@given(invertible_matrices())
@settings(max_examples=60)
def test_invert_matches_oracle(a):
    inv = invert(a)
    assert inv == sympy_invert(a)
    assert a @ inv == Mat.identity(a.field, a.rows)
    assert inv @ a == Mat.identity(a.field, a.rows)


# ---------------------------------------------------------------- subspaces

def test_subspace_dim_and_membership():
    s = Subspace.from_columns(GF3, 3, [(1, 1, 0), (2, 2, 0), (0, 0, 1)])
    assert s.dim == 2
    assert s.contains((1, 1, 2))
    assert not s.contains((1, 0, 0))
    assert s.contains((0, 0, 0))
    z = Subspace.zero(GF3, 3)
    assert z.dim == 0 and not z.contains((1, 0, 0)) and z.contains((0, 0, 0))


def test_subspace_canonical_equality():
    a = Subspace.from_columns(GF3, 3, [(1, 1, 0), (0, 0, 1)])
    b = Subspace.from_columns(GF3, 3, [(2, 2, 0), (1, 1, 1)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != Subspace.from_columns(GF3, 3, [(1, 0, 0), (0, 0, 1)])


def test_subspace_vectors_enumeration():
    s = Subspace.from_columns(GF2, 3, [(1, 1, 0), (0, 0, 1)])
    assert sorted(s.vectors()) == [(0, 0, 1), (1, 1, 0), (1, 1, 1)]


def test_sum_and_intersection_examples():
    xy = Subspace.from_columns(GF3, 3, [(1, 0, 0), (0, 1, 0)])
    yz = Subspace.from_columns(GF3, 3, [(0, 1, 0), (0, 0, 1)])
    assert subspace_sum(xy, yz).dim == 3
    assert subspace_intersect(xy, yz) == Subspace.from_columns(GF3, 3, [(0, 1, 0)])
    z = Subspace.zero(GF3, 3)
    assert subspace_intersect(xy, z).dim == 0
    assert subspace_sum(xy, z) == xy


def test_intersections_of_the_three_planes():
    u1 = Subspace.from_columns(GF3, 3, [(1, 1, 0), (0, 0, 1)])
    u2 = Subspace.from_columns(GF3, 3, [(1, 0, 0), (0, 1, 1)])
    u3 = Subspace.from_columns(GF3, 3, [(1, 1, 0), (1, 0, 1)])
    line = lambda v: Subspace.from_columns(GF3, 3, [v])
    assert subspace_intersect(u1, u2) == line((1, 1, 1))
    assert subspace_intersect(u1, u3) == line((1, 1, 0))
    assert subspace_intersect(u2, u3) == line((2, 1, 1))


@st.composite
def subspace_pairs(draw, max_dim=4):
    field = draw(st.sampled_from([GF2, GF3]))
    n = draw(st.integers(1, max_dim))
    vecs = st.lists(st.tuples(*[st.integers(0, field.p - 1)] * n), min_size=0, max_size=n)
    return (Subspace.from_columns(field, n, draw(vecs)),
            Subspace.from_columns(field, n, draw(vecs)))


@given(subspace_pairs())
def test_dimension_formula(pair):
    u, w = pair
    lhs = subspace_sum(u, w).dim + subspace_intersect(u, w).dim
    assert lhs == u.dim + w.dim


@given(subspace_pairs())
def test_intersection_inside_both(pair):
    u, w = pair
    for v in subspace_intersect(u, w).basis.columns():
        assert u.contains(v) and w.contains(v)


@given(st.data())
def test_span_unchanged_by_generator_shuffling(data):
    field = data.draw(st.sampled_from([GF2, GF3]))
    n = data.draw(st.integers(1, 4))
    vecs = data.draw(st.lists(st.tuples(*[st.integers(0, field.p - 1)] * n),
                              min_size=1, max_size=4))
    perm = data.draw(st.permutations(vecs))
    scale = data.draw(st.integers(1, field.p - 1))
    scaled = [tuple(scale * x % field.p for x in perm[0])] + list(perm[1:])
    assert (Subspace.from_columns(field, n, vecs)
            == Subspace.from_columns(field, n, scaled))


# ---------------------------------------------------------------- bases

def test_complete_basis_examples():
    pad = complete_basis(Subspace.from_columns(GF2, 3, [(1, 1, 0)]))
    assert pad.columns() == [(1, 0, 0), (0, 0, 1)]
    assert complete_basis(Subspace.from_columns(GF3, 2, [(1, 0), (0, 1)])).cols == 0
    full = complete_basis(Subspace.zero(GF3, 2))
    assert full == Mat.identity(GF3, 2)


def test_change_basis_known_values():
    b1 = mat_cols(GF3, (1, 1, 0), (0, 0, 1))
    b2 = mat_cols(GF3, (1, 0, 0), (0, 1, 1))
    b3 = mat_cols(GF3, (1, 1, 0), (1, 0, 1))
    d1 = change_basis_to_targets(b1, mat_cols(GF3, (1, 1, 0), (1, 1, 1)))
    d2 = change_basis_to_targets(b2, mat_cols(GF3, (2, 1, 1), (1, 1, 1)))
    d3 = change_basis_to_targets(b3, mat_cols(GF3, (2, 1, 1), (1, 1, 0)))
    assert d1.to_lists() == [[1, 1], [0, 1]]
    assert d2.to_lists() == [[2, 1], [1, 1]]
    assert d3.to_lists() == [[1, 1], [1, 0]]
    for b, d, t in ((b1, d1, (1, 1, 0)), (b2, d2, (2, 1, 1)), (b3, d3, (2, 1, 1))):
        assert (b @ d).col(0) == t
        assert rank(d) == 2


def test_change_basis_identity_when_targets_match():
    b = mat_cols(GF3, (1, 1, 0), (0, 0, 1))
    assert change_basis_to_targets(b, b) == Mat.identity(GF3, 2)


def test_change_basis_rejects_bad_targets():
    b = mat_cols(GF3, (1, 1, 0), (0, 0, 1))
    with pytest.raises(ValueError):
        change_basis_to_targets(b, mat_cols(GF3, (1, 0, 0), (0, 0, 1)))
    with pytest.raises(ValueError):
        change_basis_to_targets(b, mat_cols(GF3, (1, 1, 0), (2, 2, 0)))
    with pytest.raises(ValueError):
        change_basis_to_targets(b, mat_cols(GF3, (1, 1, 0)))
