"""Exact integer arithmetic: primitivization, SNF, indices, parallelepipeds."""

import hashlib
import math
import random
from fractions import Fraction
from itertools import product
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from equifan import lattice
from equifan.complexes import Complex
from equifan.fanio import fan_from_complex, write_certificate
from equifan.groups import trivial_group
from equifan.lattice import (
    _eliminate,
    _first_point,
    cone_index,
    det,
    integrality_congruences,
    is_unimodular,
    mat_mul,
    parallelepiped_points,
    primitive,
    rank,
    rational_nullspace,
    smith_normal_form,
    solve_in_basis,
)
from equifan.resolve import resolve_equivariant

from conftest import (
    box_parallelepiped_points,
    reference_det,
    reference_eliminate,
    reference_rational_nullspace,
    reference_solve_in_basis,
)


def diag_of(D):
    return [D[i][i] for i in range(min(len(D), len(D[0])))]


def test_primitive_examples():
    assert primitive((2, 4)) == (1, 2)
    assert primitive((1, 0, 0)) == (1, 0, 0)
    assert primitive((-6, 9)) == (-2, 3)
    with pytest.raises(ValueError, match="zero ray"):
        primitive((0, 0))


def test_primitive_properties():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 4)
        v = tuple(rng.randint(-9, 9) for _ in range(n))
        if all(c == 0 for c in v):
            continue
        p = primitive(v)
        assert primitive(p) == p
        lam = rng.randint(1, 7)
        assert primitive(tuple(lam * c for c in v)) == p


def test_snf_examples():
    D, U, V = smith_normal_form(((1, 0), (0, 1)))
    assert diag_of(D) == [1, 1]
    D, U, V = smith_normal_form(((1, 0), (1, 2)))
    assert diag_of(D) == [1, 2]
    D, U, V = smith_normal_form(((2, 0), (0, 3)))
    assert diag_of(D) == [1, 6]


def test_empty_matrix():
    # a 0 x 0 matrix is unimodular (its determinant is 1) and spans the
    # zero cone, of index 1 with no nonzero parallelepiped point
    assert smith_normal_form(()) == ((), (), ())
    assert is_unimodular(())
    assert cone_index(()) == 1
    assert parallelepiped_points(()) == []


def test_snf_contract_random():
    rng = random.Random(11)
    for _ in range(150):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        M = tuple(tuple(rng.randint(-8, 8) for _ in range(m)) for _ in range(n))
        D, U, V = smith_normal_form(M)
        assert mat_mul(mat_mul(U, M), V) == D
        assert is_unimodular(U) and is_unimodular(V)
        d = diag_of(D)
        for a, b in zip(d, d[1:]):
            assert (b % a == 0) if a != 0 else b == 0
        # off-diagonal must vanish
        for i, row in enumerate(D):
            for j, x in enumerate(row):
                assert x == 0 or i == j


@pytest.mark.parametrize(
    "M, dets",
    [
        (((1, 0), (1, 2)), 0),  # nonsingular square: one identity on the dual basis
        (((1, 2), (2, 4)), 2),  # singular square
        (((0, 0), (0, 3)), 2),
        (((1, 0, 2), (0, 3, 1)), 2),  # not square
        (((2,), (4,), (6,)), 2),
    ],
)
def test_snf_unimodular_check_falls_back_to_both_determinants(M, dets):
    """Only a nonsingular square matrix has its U and V checked by
    (prod d_i)^2 == det(M)^2; every other matrix takes det(U) and det(V)."""
    with mock.patch.object(lattice, "det", wraps=lattice.det) as spy:
        D, U, V = smith_normal_form(M)
    assert spy.call_count == dets
    assert mat_mul(mat_mul(U, M), V) == D
    assert is_unimodular(U) and is_unimodular(V)


RAGGED = [((1, 2), (3,)), ((2, 0), (0, 2, 5))]


@pytest.mark.parametrize(
    "entry",
    [
        smith_normal_form,
        cone_index,
        integrality_congruences,
        parallelepiped_points,
        lambda gens: solve_in_basis(gens, (1, 1)),
    ],
    ids=["smith_normal_form", "cone_index", "integrality_congruences", "parallelepiped_points", "solve_in_basis"],
)
def test_ragged_rows_are_refused(entry):
    with pytest.raises(ValueError, match="row 1 has 1 entries, row 0 has 2"):
        entry(RAGGED[0])
    with pytest.raises(ValueError, match="row 1 has 3 entries, row 0 has 2"):
        entry(RAGGED[1])


def test_cone_index_examples():
    assert cone_index([(1, 0), (0, 1)]) == 1
    assert cone_index([(1, 0), (1, 2)]) == 2
    assert cone_index([(1, 1, 0), (1, -1, 0)]) == 2
    assert cone_index([(1, 0, 0), (0, 1, 0), (1, 1, 2)]) == 2
    with pytest.raises(ValueError, match="not simplicial"):
        cone_index([(1, 0), (2, 0)])
    with pytest.raises(ValueError, match="not simplicial"):
        cone_index([(1, 0), (0, 1), (1, 1)])


def test_cone_index_unimodular_invariance():
    rng = random.Random(13)
    unimods = [
        ((1, 0, 0), (2, 1, 0), (0, 0, 1)),
        ((0, 1, 0), (1, 0, 0), (0, 0, 1)),
        ((1, 0, 0), (0, 1, 0), (-3, 1, 1)),
        ((1, 1, 0), (0, 1, 0), (0, 0, -1)),
    ]
    for _ in range(60):
        k = rng.randint(1, 3)
        gens = []
        while len(gens) < k:
            v = tuple(rng.randint(-5, 5) for _ in range(3))
            try:
                cone_index(gens + [v])
            except ValueError:
                continue
            gens.append(v)
        u = unimods[rng.randrange(len(unimods))]
        moved = [tuple(sum(u[i][j] * g[j] for j in range(3)) for i in range(3)) for g in gens]
        assert cone_index(moved) == cone_index(gens)


def test_is_smooth_cone():
    assert cone_index([(1, 0), (0, 1)]) == 1
    assert not cone_index([(1, 0), (1, 2)]) == 1
    assert cone_index([(1, 0, 0), (0, 1, 0)]) == 1


def test_parallelepiped_examples():
    assert parallelepiped_points([(1, 0), (0, 1)]) == []
    pts = parallelepiped_points([(1, 0), (1, 2)])
    assert pts == [((1, 1), (Fraction(1, 2), Fraction(1, 2)))]
    pts = parallelepiped_points([(1, 0, 0), (0, 1, 0), (1, 1, 2)])
    assert pts == [((1, 1, 1), (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)))]


def test_parallelepiped_against_box_oracle():
    cases = [
        [(1, 0), (1, 2)],
        [(1, 0), (1, 7)],
        [(2, 1), (1, 2)],
        [(3, 1), (1, 3)],
        [(1, 0, 0), (0, 1, 0), (1, 1, 2)],
        [(1, 0, 0), (1, 2, 0), (1, 1, 3)],
        [(1, 1, 0), (1, -1, 0)],
        [(2, 1, 1), (1, 2, 1), (1, 1, 2)],
    ]
    for gens in cases:
        fast = parallelepiped_points(gens)
        slow = box_parallelepiped_points(gens)
        assert fast == slow
        assert len(fast) == cone_index(gens) - 1


def test_first_point_matches_listing():
    """_first_point against the first entry of parallelepiped_points on
    1,500 derandomized simplicial cones in ranks 2-4, with k <= n
    generators; a cone of index 1 and the zero cone give None."""
    assert _first_point(()) is None
    assert _first_point(((1, 0, 0), (1, 1, 0))) is None
    rng = random.Random(20261019)
    cones = lower = singular = 0
    while cones < 1500:
        n = rng.randint(2, 4)
        k = rng.randint(1, n)
        gens = tuple(tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(k))
        try:
            idx = cone_index(gens)
        except ValueError:
            continue
        if idx > 60:
            continue
        points = parallelepiped_points(gens)
        assert _first_point(gens) == (points[0] if points else None), gens
        cones += 1
        lower += k < n
        singular += idx > 1
    # the draws reach lower-dimensional cones, and both answers often
    assert min(lower, singular, cones - singular) > 400, (lower, singular)


def _box_size(gens):
    """Lattice points in the bounding box `box_parallelepiped_points` scans."""
    corners = [[sum(e * g[j] for e, g in zip(eps, gens)) for j in range(len(gens[0]))]
               for eps in product((0, 1), repeat=len(gens))]
    return math.prod(max(c) - min(c) + 1 for c in zip(*corners))


def test_first_point_in_frame_order_matches_listing():
    """_first_point(gens, order), which reads the Smith form of gens in
    their own order, against the first entry of parallelepiped_points of
    the generators permuted into that order, on 2,000 derandomized
    simplicial cones in ranks 2-4 with a random frame order each; and
    against the bounding-box scan where the box is small."""
    rng = random.Random(20261020)
    cones = lower = singular = boxed = moved = 0
    while cones < 2000:
        n = rng.randint(2, 4)
        k = rng.randint(1, n)
        gens = tuple(tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(k))
        try:
            idx = cone_index(gens)
        except ValueError:
            continue
        if idx > 60:
            continue
        order = tuple(rng.sample(range(k), k))
        framed = tuple(gens[i] for i in order)
        points = parallelepiped_points(framed)
        first = points[0] if points else None
        assert _first_point(gens, order) == first, (gens, order)
        if _box_size(framed) <= 400:
            box = box_parallelepiped_points(framed)
            assert (box[0] if box else None) == first, (gens, order)
            boxed += 1
        cones += 1
        lower += k < n
        singular += idx > 1
        moved += idx > 1 and order != tuple(sorted(order))
    # the draws reach lower-dimensional cones, both answers, reordered
    # singular cones and the box oracle often
    assert min(lower, singular, cones - singular, moved, boxed) > 400, (lower, singular, moved, boxed)


def test_parallelepiped_count_random():
    rng = random.Random(17)
    done = 0
    while done < 40:
        k = rng.randint(1, 3)
        n = rng.randint(k, 3)
        gens = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(k)]
        try:
            idx = cone_index(gens)
        except ValueError:
            continue
        if idx > 50:
            continue
        pts = parallelepiped_points(gens)
        assert len(pts) == idx - 1
        assert len({p for p, _ in pts}) == len(pts)
        for point, coords in pts:
            assert all(0 <= a < 1 for a in coords)
            rebuilt = tuple(
                sum(a * g[j] for a, g in zip(coords, gens)) for j in range(n)
            )
            assert rebuilt == point
        done += 1


def test_det_matches_snf_volume():
    rng = random.Random(19)
    for _ in range(60):
        n = rng.randint(1, 4)
        M = tuple(tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(n))
        D, _, _ = smith_normal_form(M)
        prod = 1
        for x in diag_of(D):
            prod *= x
        assert abs(det(M)) == abs(prod)


@st.composite
def small_simplicial_cones(draw):
    """Generators of a simplicial cone of rank 2-4 in an ambient lattice of
    rank up to 4, with a bounding box small enough for the box oracle."""
    k = draw(st.integers(min_value=2, max_value=4))
    n = draw(st.integers(min_value=k, max_value=4))
    coord = st.integers(min_value=-2, max_value=2)
    gens = draw(st.lists(st.tuples(*[coord] * n), min_size=k, max_size=k))
    assume(rank(gens) == k)
    sides = [sum(abs(g[j]) for g in gens) + 1 for j in range(n)]
    assume(math.prod(sides) <= 3000)
    return [tuple(g) for g in gens]


@settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(
    small_simplicial_cones(),
    st.lists(st.integers(min_value=-6, max_value=6), min_size=4, max_size=4),
    st.lists(st.lists(st.integers(min_value=-9, max_value=9), min_size=4, max_size=4), max_size=6),
)
def test_integrality_congruences_match_box_oracle(gens, w, value_rows):
    points = box_parallelepiped_points(gens)
    rows = integrality_congruences(gens)
    assert math.prod(d for _, d in rows) == cone_index(gens)
    # values of a global integral linear form are integral everywhere
    value_rows = value_rows + [[sum(a * b for a, b in zip(w, g)) for g in gens]]
    for values in value_rows:
        v = values[: len(gens)]
        by_snf = all(sum(a * b for a, b in zip(u, v)) % d == 0 for u, d in rows)
        by_box = all(
            sum(c * x for c, x in zip(coords, v)).denominator == 1 for _, coords in points
        )
        assert by_snf == by_box
    assert by_snf


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.tuples(
            st.lists(st.tuples(*[st.integers(-3, 3)] * n), max_size=5),
            st.tuples(*[st.integers(-4, 4)] * n),
        )
    )
)
def test_elimination_matches_sympy(case):
    """rank, rational_nullspace and solve_in_basis share one elimination;
    sympy is the independent oracle for all three."""
    import sympy

    vectors, x = case
    n = len(x)
    m = sympy.Matrix(vectors) if vectors else sympy.zeros(0, n)
    r = m.rank()
    assert rank(vectors) == r
    basis = rational_nullspace(vectors, n=n)
    assert len(basis) == n - r
    if basis:
        assert sympy.Matrix(basis).rank() == len(basis)
    for u in basis:
        assert primitive(u) == u
        assert all(sum(a * b for a, b in zip(v, u)) == 0 for v in vectors)
    if r < len(vectors):
        with pytest.raises(ValueError, match="not simplicial"):
            solve_in_basis(vectors, x)
        return
    coeffs = solve_in_basis(vectors, x)
    in_span = sympy.Matrix(vectors + [x]).rank() == r
    if not in_span:
        assert coeffs is None
    else:
        assert all(isinstance(c, Fraction) for c in coeffs)
        assert tuple(sum(c * v[j] for c, v in zip(coeffs, vectors)) for j in range(n)) == x


@st.composite
def kernel_cases(draw):
    """Integer rows (up to 6, of length 1-5) with rank-deficient draws and
    zero columns, and a right-hand side with integer or Fraction entries."""
    n = draw(st.integers(min_value=1, max_value=5))
    entry = st.integers(min_value=-4, max_value=4)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=4))
    for _ in range(draw(st.integers(min_value=0, max_value=2)) if rows else 0):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        s, t = draw(entry), draw(entry)
        rows.append([s * x + t * y for x, y in zip(a, b)])  # a dependent row
    zero = draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n))
    rows = [[0 if j in zero else x for j, x in enumerate(r)] for r in rows]
    rhs = st.one_of(entry, st.fractions(min_value=-4, max_value=4, max_denominator=6))
    x = draw(st.lists(rhs, min_size=n, max_size=n))
    return rows, tuple(x)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(kernel_cases())
def test_kernel_matches_references(case):
    """The fraction-free elimination against the former Fraction one:
    same pivots, rows / D equal to the reduced rows, the same nullspace
    vectors in the same order and signs, the same solves, and a signed
    det equal to sympy's and to the former Bareiss det."""
    import sympy

    rows, x = case
    n = len(x)
    ints = [list(r) for r in rows]
    pivots, _ = _eliminate(ints, n)
    fracs = [[Fraction(c) for c in r] for r in rows]
    assert pivots == reference_eliminate(fracs, n)
    D = ints[0][pivots[0]] if pivots else 1
    for i, (mine, ref) in enumerate(zip(ints, fracs)):
        if i < len(pivots):
            assert mine[pivots[i]] == D
            assert [Fraction(c, D) for c in mine] == [c / ref[pivots[i]] for c in ref]
        else:
            assert not any(mine) and not any(ref)
    assert rank(rows) == len(pivots)
    assert rational_nullspace(rows, n=n) == reference_rational_nullspace(rows, n)
    try:
        expected = reference_solve_in_basis(rows, x)
    except ValueError as e:
        with pytest.raises(ValueError, match=str(e)):
            solve_in_basis(rows, x)
    else:
        assert solve_in_basis(rows, x) == expected
    k = min(len(rows), n)
    square = [r[:k] for r in rows[:k]]
    expected_det = sympy.Matrix(square).det() if k else 1
    assert det(square) == reference_det(square) == expected_det


@pytest.mark.parametrize(
    "rays, mode, sha256",
    [
        (((1, 0), (1, 40)), "plain",
         "472d5628b083e65dd79dd10b9c47d70f61a09b042187e42bb20f286089d0f56e"),
        (((1, 0, 0), (0, 1, 0), (1, 2, 13)), "canonical",
         "372adf68bd3a1e1ca6545b3a7f739d69811ed867bd577472a1f5ed11a925582b"),
        (((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 2, 5)), "canonical",
         "3937e3852b82904a377260d086e9e84fa6e055db6b1111ba547808bc0385a18e"),
    ],
)
def test_smith_heavy_certificates_are_pinned(rays, mode, sha256):
    """Cones that take many checked Smith forms resolve to pinned
    certificate bytes, written as `equifan resolve` writes them."""
    n = len(rays)
    cx = Complex.from_maximal_cones(n, rays, [list(range(n))])
    text = write_certificate(resolve_equivariant(cx, trivial_group(n), mode=mode), fan_from_complex(cx, ()))
    assert hashlib.sha256(text.encode()).hexdigest() == sha256
