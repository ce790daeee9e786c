import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srlnc import (
    FieldSpec,
    Mat,
    Network,
    build_multicast,
    extract_gem,
    max_flow,
    rank,
    row_times,
    subspace_intersect,
    subspace_sum,
)
from srlnc.linalg import (
    Singular,
    Subspace,
    complete_basis,
    invert,
    rank_of_vectors,
    solve_columns,
)
from srlnc.multicast import CodeInvalidForSink, LinearCode

from helpers import (
    GF2,
    GF3,
    GF5,
    generalized_butterfly,
    mat_cols,
    reference_complete_basis,
    reference_gem_edges,
    sympy_invert,
    sympy_matmul,
    sympy_rank,
    zeros,
)


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
    assert a.columns() == [(1, 0), (2, 1), (0, 2)]


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
    assert (a @ Mat.from_cols(GF3, [(1, 1)])).col(0) == (0, 1)
    assert (a @ Mat.identity(GF3, 2)) == a


@pytest.mark.parametrize("m, k, n", [(2, 0, 3), (1, 0, 1), (0, 0, 2), (2, 3, 0), (3, 1, 0),
                                     (0, 2, 3), (0, 1, 0)])
def test_matmul_with_an_empty_dimension(m, k, n):
    rng = random.Random(m * 100 + k * 10 + n)
    a = Mat(GF5, [[rng.randrange(5) for _ in range(k)] for _ in range(m)], cols=k)
    b = Mat(GF5, [[rng.randrange(5) for _ in range(n)] for _ in range(k)], cols=n)
    prod = a @ b
    assert (prod.rows, prod.cols) == (m, n)
    assert prod == sympy_matmul(a, b) == zeros(GF5, m, n)


@given(matrices(), st.data())
def test_row_times_matches_a_one_row_product(a, data):
    v = data.draw(st.lists(st.integers(-7, 7), min_size=a.rows, max_size=a.rows))
    assert row_times(v, a) == (Mat(a.field, [v]) @ a).row(0)
    with pytest.raises(ValueError, match="length mismatch"):
        row_times(v + [1], a)


def test_row_times_with_no_rows():
    assert row_times((), Mat(GF3, [], cols=2)) == (0, 0)


def test_matmul_mismatch():
    a = Mat(GF3, [[1, 2], [0, 1]])
    with pytest.raises(ValueError):
        a @ Mat(GF3, [[1, 2, 3]])
    with pytest.raises(ValueError):
        a @ Mat(GF5, [[1, 2], [0, 1]])


# ---------------------------------------------------------------- rank / invert

def test_rank_examples():
    assert rank(Mat.identity(GF3, 3)) == 3
    assert rank(zeros(GF3, 3, 2)) == 0
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


@given(matrices())
def test_rank_matches_transpose(a):
    # a's rows as columns: its transpose
    assert rank(a) == rank(Mat.from_cols(a.field, a.data, nrows=a.cols))


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
    z = Subspace.from_columns(GF3, 3, [])
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
    z = Subspace.from_columns(GF3, 3, [])
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
    for v in subspace_intersect(u, w).basis:
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
    assert pad == [(1, 0, 0), (0, 0, 1)]
    assert complete_basis(Subspace.from_columns(GF3, 2, [(1, 0), (0, 1)])) == []
    full = complete_basis(Subspace.from_columns(GF3, 2, []))
    assert full == [(1, 0), (0, 1)]


@st.composite
def spans_and_vectors(draw, max_dim=4):
    """Spanning lists and a vector, entries from [-2p, 3p]: half the time
    the vector is a combination of the list, shifted by multiples of p."""
    field = draw(st.sampled_from([GF2, GF3, GF5]))
    p = field.p
    n = draw(st.integers(1, max_dim))
    entry = st.integers(-2 * p, 3 * p)
    vecs = draw(st.lists(st.tuples(*[entry] * n), max_size=n + 1))
    if vecs and draw(st.booleans()):
        coeffs = draw(st.tuples(*[entry] * len(vecs)))
        v = tuple(sum(c * u[i] for c, u in zip(coeffs, vecs)) + p * draw(entry)
                  for i in range(n))
    else:
        v = draw(st.tuples(*[entry] * n))
    return field, n, vecs, v


@given(spans_and_vectors())
def test_subspace_rows_are_reduced_echelon_and_contains_is_a_rank_test(case):
    field, n, vecs, v = case
    p = field.p
    S = Subspace.from_columns(field, n, vecs)
    assert S == Subspace.from_columns(field, n, [[x % p for x in u] for u in vecs])
    pivots = [piv for piv, _ in S.rows]
    assert pivots == sorted(set(pivots)) and S.dim == rank_of_vectors(field, vecs)
    for piv, row in S.rows:
        assert all(0 <= x < p for x in row) and not any(row[:piv])
        assert [row[q] for q in pivots] == [int(q == piv) for q in pivots]
    assert S.contains(v) == (rank_of_vectors(field, S.basis + [v]) == S.dim)


@given(spans_and_vectors())
def test_complete_basis_matches_the_rank_loop(case):
    field, n, vecs, _ = case
    S = Subspace.from_columns(field, n, vecs)
    pad = complete_basis(S)
    assert pad == reference_complete_basis(S)
    assert rank_of_vectors(field, S.basis + pad) == n


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from([7, 11]), r=st.integers(3, 4), weak=st.integers(0, 3),
       extra=st.booleans(), seed=st.integers(0, 3), noise=st.integers(0, 2 ** 32 - 1),
       redraw=st.booleans())
def test_extract_gem_keeps_the_edges_of_the_rank_scan(p, r, weak, extra, seed, noise, redraw):
    net = generalized_butterfly(FieldSpec(p), r, weak)
    if extra:
        # one more input per sink, last in id order: s_j hears a_j too, w_k hears B
        more = [(j + 1, s) for j, s in enumerate(net.sinks[:r])]
        more += [(r + 1, w) for w in net.sinks[r:]]
        net = Network(nodes=list(net.nodes), edges=list(net.edges) + more, source=0,
                      sinks=list(net.sinks), rate=r, field=net.field)
    code = build_multicast(net, list(net.sinks), seed=seed)
    rng = random.Random(noise)
    gek = dict(code.gek)
    if redraw:
        # kernels from a few vectors, so that inputs repeat or vanish and
        # the scan skips some of them
        pool = [(0,) * r] + [tuple(rng.randrange(p) for _ in range(r)) for _ in range(r)]
        gek.update({e: rng.choice(pool) for e in gek if e >= 0})
    shifted = LinearCode(rate=r, lek=code.lek, gek={
        e: tuple(x + p * rng.randrange(-2, 3) for x in v) for e, v in gek.items()})
    for t in net.sinks:
        want = reference_gem_edges(shifted, net, t)
        if len(want) < min(max_flow(net, t).value, r):
            with pytest.raises(CodeInvalidForSink):
                extract_gem(shifted, net, t)
            continue
        gem = extract_gem(shifted, net, t)
        assert gem.used_edges == want
        assert gem.matrix == Mat.from_cols(net.field, [gek[e] for e in want], nrows=r)
