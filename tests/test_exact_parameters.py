"""The exact parameter solves against the brute-force loops they replace.

`fold`'s multiplier (as resolve and verify each choose it), the direct
barycentric (L, a) and its base values are each compared with the old
candidate-by-candidate loop, kept in conftest.py as a reference, and the
base values also with sympy's exact linear programming.  The solver
both parameter searches share, `orderfun._lex_first`, is compared with a
scan over (x, y) in the same order.
"""

import math
import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st
from sympy import Matrix, Rational
from sympy.solvers.simplex import linprog

import equifan.resolve as resolve
from equifan.complexes import Complex, is_simplicial, validate_complex
from equifan.fanio import fan_from_complex, parse_certificate, verify_certificate, write_certificate
from equifan.lattice import cone_index, primitive, rank
from equifan.orderfun import _lex_first, fold
from equifan.resolve import _consistent_base_values, direct_barycentric_order_function
from equifan.subdivide import _barycentric

from conftest import (
    ReferenceBudgetExceeded,
    _cone_relations,
    candidate_actions,
    corpus,
    reference_base_values,
    reference_direct_barycentric,
    reference_fold,
)

DERANDOMIZED = settings(
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)


def chosen_folds(cx, elements=None, mode="canonical"):
    """(outer, inner, fold result) of every fold that a resolution of cx
    and the verification of its certificate run; both choose every
    multiplier."""
    calls = []

    def spy(outer, inner):
        out = fold(outer, inner)
        calls.append((outer, inner, out))
        return out

    with mock.patch.object(resolve, "fold", spy):
        cert = resolve.resolve_equivariant(cx, elements, mode=mode)
        resolved = len(calls)
        fan = fan_from_complex(cx, cert.group)
        assert verify_certificate(parse_certificate(write_certificate(cert, fan)), fan) == []
    assert len(calls) == 2 * resolved
    return calls


def assert_folds_match_reference(cx, elements=None, mode="canonical"):
    for outer, inner, (composite, m) in chosen_folds(cx, elements, mode):
        ref, ref_m = reference_fold(outer, inner)
        assert (m, composite.ray_values) == (ref_m, ref.ray_values)


def corpus_runs():
    for name, cx in corpus():
        yield name, cx, None, "canonical"
        if is_simplicial(cx):
            yield f"{name}-plain", cx, None, "plain"
        for gname, elements in candidate_actions(cx):
            yield f"{name}-{gname}", cx, elements, "canonical"


CORPUS_RUNS = list(corpus_runs())


@pytest.mark.parametrize("name, cx, elements, mode", CORPUS_RUNS, ids=[r[0] for r in CORPUS_RUNS])
def test_corpus_folds_match_reference(name, cx, elements, mode):
    assert_folds_match_reference(cx, elements, mode)


@st.composite
def small_simplicial_cones(draw):
    """A single simplicial cone of rank 2 or 3 with index in 2..8."""
    n = draw(st.sampled_from([2, 3]))
    coord = st.integers(min_value=-4, max_value=4)
    vec = st.tuples(*[coord] * n).filter(any)
    gens = [primitive(v) for v in draw(st.lists(vec, min_size=n, max_size=n))]
    if rank(gens) < n or not 2 <= cone_index(gens) <= 8:
        reject()
    return Complex.from_maximal_cones(n, gens, [list(range(n))])


@settings(DERANDOMIZED, max_examples=15)
@given(small_simplicial_cones(), st.sampled_from(["canonical", "plain"]))
def test_random_folds_match_reference(cx, mode):
    assert_folds_match_reference(cx, mode=mode)


def non_simplicial(cx):
    return any(len(c) > cx.dim(c) for c in cx.maximal_cones)


@st.composite
def non_simplicial_cones(draw):
    """A valid complex of one pointed rank-3 cone with 4 or 5 extreme rays,
    over a centrally symmetric quadrilateral (where the dimension-graded
    dips always bend) or over any lattice polygon."""
    coord = st.integers(min_value=-3, max_value=3)
    height = st.integers(min_value=1, max_value=3)
    if draw(st.booleans()):
        (a, b), (d, e), c = draw(st.tuples(coord, coord)), draw(st.tuples(coord, coord)), draw(height)
        rays = [(a, b, c), (d, e, c), (-a, -b, c), (-d, -e, c)]
    else:
        rays = draw(st.lists(st.tuples(coord, coord, height), min_size=4, max_size=5))
    rays = [primitive(v) for v in rays]
    cx = Complex.from_maximal_cones(3, rays, [list(range(len(rays)))])
    if len(set(rays)) < len(rays) or not validate_complex(cx).ok:
        reject()
    return cx


# the reference verifies every candidate (a few ms each); a draw needing
# more is rejected
REFERENCE_BUDGET = 20


def direct_matches_reference(cx, max_candidates=None) -> bool:
    """Same (L, a) and values as the reference loop on the same base
    values, or no strict candidate for either; False when only the
    reference found nothing in its window or budget."""
    bcx, pieces, sources = _barycentric(cx)
    y = _consistent_base_values(cx)
    try:
        fn, scale, dip = direct_barycentric_order_function(cx, bcx, pieces, sources)
    except ValueError as e:
        # a flat or broken bend is one for every (L, a); the reference
        # finds no strict candidate near the start either
        assert "does not bend" in str(e)
        with pytest.raises(ReferenceBudgetExceeded):
            reference_direct_barycentric(cx, bcx, y, dip_cap=3, scale_steps=4)
        return True
    try:
        ref, ref_scale, ref_dip = reference_direct_barycentric(
            cx, bcx, y, max_candidates=max_candidates
        )
    except ReferenceBudgetExceeded:
        return False
    assert (scale, dip, fn.ray_values) == (ref_scale, ref_dip, ref.ray_values)
    return True


def assert_least_sum_base_values(cx):
    """Positive, linear on every cone, of least sum (sympy's exact LP), and
    the reference's whenever that is all ones."""
    y = _consistent_base_values(cx)
    relations = _cone_relations(cx)
    assert min(y) > 0 and all(sum(r * v for r, v in zip(row, y)) == 0 for row in relations)
    if relations:
        # least sum(z) over z = y - 1 >= 0 (linprog needs an inequality block)
        n = len(y)
        least_z, _ = linprog(
            Matrix([[1] * n]),
            A=Matrix([[0] * n]),
            b=Matrix([0]),
            A_eq=Matrix(relations),
            b_eq=Matrix([-sum(row) for row in relations]),
        )
        # the least-sum point has a coordinate 1, so it is y / min(y)
        assert Rational(sum(y), min(y)) == least_z + n
    else:
        assert set(y) == {1}
    try:
        ref = reference_base_values(cx)
    except ReferenceBudgetExceeded:
        return
    if set(ref) == {1}:
        assert y == ref


NON_SIMPLICIAL_CORPUS = [(name, cx) for name, cx in corpus() if non_simplicial(cx)]


@pytest.mark.parametrize("name, cx", NON_SIMPLICIAL_CORPUS, ids=[n for n, _ in NON_SIMPLICIAL_CORPUS])
def test_corpus_direct_matches_reference(name, cx):
    assert_least_sum_base_values(cx)
    assert direct_matches_reference(cx)


@settings(DERANDOMIZED, max_examples=20)
@given(non_simplicial_cones())
def test_random_direct_matches_reference(cx):
    assert_least_sum_base_values(cx)
    if not direct_matches_reference(cx, max_candidates=REFERENCE_BUDGET):
        reject()


def test_infeasible_base_values_name_the_condition():
    # three rays summing to zero: no positive values are linear on the cone
    cx = Complex.from_maximal_cones(2, [(1, 0), (0, 1), (-1, -1)], [[0, 1, 2]])
    with pytest.raises(ValueError, match="^no positive ray values are linear on every cone$"):
        _consistent_base_values(cx)


def test_square_cone_with_many_one_ray_cones():
    # once exponential in the number of one-ray cones (3^k coefficient tries)
    k = 11
    rays = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)] + [(i, 1, -7) for i in range(1, k + 1)]
    cx = Complex.from_maximal_cones(3, rays, [[0, 1, 2, 3]] + [[4 + i] for i in range(k)])
    assert _consistent_base_values(cx) == (1,) * len(rays)
    cert = resolve.resolve_equivariant(cx)
    assert cert.ok and cert.stages[0].kind == "barycentric-direct"
    fan = fan_from_complex(cx, ())
    assert verify_certificate(parse_certificate(write_certificate(cert, fan)), fan) == []


@st.composite
def lex_first_problems(draw):
    """Up to three SNF-like rows (P, Q, d) with moduli 2..12, often with
    Q = 0 mod d, bounds (a, b) with one lower bound b > 0 and others of
    any sign, b = 0 among them, and distinct positive xs in drawn order."""
    rows = []
    for _ in range(draw(st.integers(0, 3))):
        d = draw(st.integers(2, 12))
        q = draw(st.one_of(st.just(0), st.integers(0, d - 1)))
        rows.append((draw(st.integers(0, d - 1)), q, d))
    coef = st.integers(-6, 6)
    bounds = [(draw(coef), draw(st.integers(1, 4)))]
    bounds += draw(st.lists(st.tuples(coef, st.integers(-4, 4)), max_size=3))
    xs = draw(st.lists(st.integers(1, 10), min_size=1, max_size=6, unique=True))
    return rows, bounds, xs


def brute_lex_first(rows, bounds, xs):
    """The first (x, y) by scanning y upwards for each x in order.  Every
    bound has |a| <= 6 and the lower bounds b >= 1, so the least admitted
    y exceeds -6 * x and, rows repeating with period M, is at most
    6 * x + M when there is one."""
    period = math.lcm(*[d for _, _, d in rows])
    for x in xs:
        for y in range(-6 * x, 6 * x + period + 1):
            if all((x * p + y * q) % d == 0 for p, q, d in rows) and all(
                x * a + y * b > 0 for a, b in bounds
            ):
                return x, y
    return None


@settings(DERANDOMIZED, max_examples=400)
@given(lex_first_problems())
def test_lex_first_matches_a_scan(problem):
    assert _lex_first(*problem) == brute_lex_first(*problem)


def test_the_lcm_caps_nothing_without_an_upper_bound():
    """With no bound b < 0, x = lcm of the moduli is admitted (see
    `orderfun._solve`), so scanning x over 1..lcm finds what a scan over
    1..3 * lcm finds, None included: 2,000 derandomized problems, each up
    to three rows with moduli 2..6 and up to four bounds with b >= 0, the
    first b > 0."""
    rng = random.Random(0)
    for _ in range(2000):
        rows = []
        for _ in range(rng.randint(0, 3)):
            d = rng.randint(2, 6)
            rows.append((rng.randrange(d), rng.choice((0, rng.randrange(d))), d))
        bounds = [(rng.randint(-6, 6), rng.randint(1, 4))]
        bounds += [(rng.randint(-6, 6), rng.randint(0, 4)) for _ in range(rng.randint(0, 3))]
        lcm = math.lcm(*[d for _, _, d in rows])
        assert _lex_first(rows, bounds, range(1, lcm + 1)) == brute_lex_first(
            rows, bounds, range(1, 3 * lcm + 1)
        ), (rows, bounds)
