"""One elimination per set of independent generators: the memoised dual
basis answers the solves, the simplicial dual, dimension and face lattice,
and the unimodular test.

Every answer is compared with the references in conftest (a solve by
rational elimination, the dual by facet enumeration, dimension and face
lattice from the dual's equations, a unimodular test by determinant) on
4,000 generator sets (2,000 seeds, two sets each) of rank 1-5 with 0 to n
generators, dependent sets among them, and on integer, rational and
outside-the-span points.
"""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equifan import complexes, lattice
from equifan.complexes import Complex, cone_dual
from equifan.lattice import _dual_basis, _simplicial_snf, cone_index, solve_in_basis

from conftest import (
    reference_cone_dual,
    reference_dim,
    reference_raw_faces,
    reference_simplicial_snf,
    reference_solve_in_basis,
)


def generator_sets(seed, count=2):
    """`count` draws of (gens, n, points) from the seed: k of 0 to n
    generators in rank n of 1-5 (larger n more often) with entries in
    [-4, 4], a quarter of the sets made dependent by replacing one
    generator with an integer combination of the others (zero when there
    are none); three points, each in the span with integer or rational
    coefficients or arbitrary (outside the span, mostly, when k < n)."""
    rng = random.Random(seed)

    def coeff():
        return rng.randint(-4, 4) if rng.random() < 0.5 else Fraction(rng.randint(-24, 24), rng.randint(1, 6))

    for _ in range(count):
        n = rng.choice((1, 2, 2, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 5))
        k = rng.randint(0, n)
        gens = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(k)]
        if gens and rng.random() < 0.25:
            i = rng.randrange(k)
            others = gens[:i] + gens[i + 1:] or [(0,) * n]
            a, b = rng.choice(others), rng.choice(others)
            s, t = rng.randint(-4, 4), rng.randint(-4, 4)
            gens[i] = tuple(s * x + t * y for x, y in zip(a, b))
        points = []
        for _ in range(3):
            if rng.random() < 0.5:
                c = [coeff() for _ in gens]
                points.append(tuple(sum(ci * g[j] for ci, g in zip(c, gens)) for j in range(n)))
            else:
                points.append(tuple(coeff() for _ in range(n)))
        yield tuple(gens), n, points


SEEDS = st.integers(min_value=0, max_value=2**32)


def _outcome(fn, *args):
    """fn's value, or the text of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as e:
        return f"ValueError: {e}"


@settings(max_examples=2000, deadline=None, derandomize=True, database=None)
@given(SEEDS)
def test_dual_basis_answers_match_the_references(seed):
    for gens, n, points in generator_sets(seed):
        for x in points:
            assert _outcome(solve_in_basis, gens, x) == _outcome(reference_solve_in_basis, gens, x)
        assert cone_dual(gens, n) == reference_cone_dual(gens, n)
        cone = frozenset(range(len(gens)))
        cx = Complex(n, gens, [cone])
        assert cx.dim(cone) == reference_dim(gens, n)
        assert cx.faces(cone) == reference_raw_faces(gens, n)
        assert _outcome(_simplicial_snf, gens) == _outcome(reference_simplicial_snf, gens)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(SEEDS)
def test_dual_basis_contract(seed):
    """u_j . g_i = D * [i == j] with D = det(G * G^T) > 0, each u_j in the
    span of the generators; None exactly for dependent generators."""
    import sympy

    (gens, n, _), = generator_sets(seed, count=1)
    basis = _dual_basis(gens)
    G = sympy.Matrix(gens) if gens else sympy.zeros(0, n)
    if G.rank() < len(gens):
        assert basis is None
        return
    D, us = basis
    assert D == (G * G.T).det() > 0
    for j, u in enumerate(us):
        assert [sum(a * b for a, b in zip(u, g)) for g in gens] == [D * (i == j) for i in range(len(gens))]
        assert sympy.Matrix(list(gens) + [u]).rank() == len(gens)


def test_solve_rejects_a_point_of_the_wrong_length():
    with pytest.raises(ValueError, match="point has 2 entries, generators have 3"):
        solve_in_basis(((1, 0, 0), (0, 1, 0)), (1, 1))
    with pytest.raises(ValueError, match="point has 3 entries, generators have 2"):
        solve_in_basis(((1, 0), (0, 1)), (1, 1, 1))
    assert solve_in_basis(((1, 0, 0), (0, 1, 0)), (1, 1, 0)) == (1, 1)
    assert solve_in_basis(((1, 0, 0), (0, 1, 0)), (1, 1, 1)) is None


def test_solve_names_an_entry_that_is_not_rational():
    """A float entry is named, as `integer_vector` names one; ints and
    Fractions are solved as before."""
    with pytest.raises(ValueError, match=r"^entry 0\.5 is not an int or a Fraction$"):
        solve_in_basis(((1, 0), (0, 2)), (0.5, 1))
    assert solve_in_basis(((1, 0), (0, 2)), (Fraction(1, 2), 1)) == (Fraction(1, 2), Fraction(1, 2))


def _fresh():
    lattice._dual_basis.cache_clear()
    lattice._simplicial_snf.cache_clear()
    complexes._cone_dual.cache_clear()


@pytest.mark.parametrize("last, index", [((3, 5, 1), 1), ((1, 2, 7), 7)])
def test_one_elimination_per_simplicial_cone(last, index):
    """A fresh full-dimensional simplicial cone answers its dual, dim,
    faces, three solves and the unimodular test from one elimination; a
    cone of index > 1 adds the checked SNF, whose unimodularity check is
    read off the same dual basis, so it too takes one."""
    cx = Complex(3, [(1, 0, 0), (0, 1, 0), last], [frozenset({0, 1, 2})])
    cone = frozenset({0, 1, 2})
    gens = cx.generators(cone)
    _fresh()
    with mock.patch.object(lattice, "_eliminate", wraps=lattice._eliminate) as spy:
        assert cx.dual(cone).equations == ()
        assert cx.dim(cone) == 3
        assert len(cx.faces(cone)) == 8
        for x in ((1, 0, 0), (1, 1, 1), (Fraction(1, 2), 0, 3)):
            assert solve_in_basis(gens, x) is not None
        assert cone_index(gens) == index
    assert spy.call_count == 1
