"""The carrier as the one point location, against the geometric references.

`Complex.minimal_cone_containing`, `star_subdivide` and
`orderfun.evaluate` are compared with the references in conftest on
every complex of the corpus, simplicial and not, at the rays, the
origin, an interior point of every cone, their negatives (outside the
support where the support is not the whole space) and derandomized sums
of those points.
"""

import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import equifan.orderfun
from equifan.complexes import Complex, is_simplicial
from equifan.fanio import fan_from_complex, parse_certificate, verify_certificate, write_certificate
from equifan.groups import generate_group
from equifan.lattice import primitive
from equifan.orderfun import (
    OrderFunction,
    _host_coordinates,
    centered_order_function,
    evaluate,
    search_centered_order_function,
)
from equifan.resolve import resolve_equivariant
from equifan.subdivide import barycentric_subdivision, star_subdivide

from conftest import (
    CYC3,
    SWAP2,
    corpus,
    orthant,
    singular_cone_2d,
    square_cone,
    interior_point,
    reference_evaluate,
    reference_minimal_cone_containing,
    reference_star_subdivide,
)

CORPUS = corpus()


def base_points(cx):
    """The rays, the origin and the generator sum of every nonzero cone."""
    points = [tuple(r) for r in cx.rays] + [(0,) * cx.ambient_rank]
    for c in sorted(cx.cones, key=sorted):
        if c:
            points.append(tuple(int(v) for v in interior_point(cx, c)))
    return points


def order_function(cx):
    """Some integer values on cx, or on its barycentric subdivision when cx
    is not simplicial."""
    sub = cx if is_simplicial(cx) else barycentric_subdivision(cx)
    return OrderFunction(cx, sub, [1 + (3 * i) % 7 for i in range(len(sub.rays))])


def outcome(f, *args):
    try:
        return f(*args)
    except ValueError as e:
        return ("ValueError", str(e))


def check_point(cx, ord_fn, x):
    """The carrier, the star and the value at x agree with the references."""
    assert outcome(cx.minimal_cone_containing, x) == outcome(
        reference_minimal_cone_containing, cx, x
    )
    if any(x):
        center = primitive(x)
        assert outcome(star_subdivide, cx, center) == outcome(reference_star_subdivide, cx, center)
    expected = outcome(reference_evaluate, ord_fn, x)
    solves = []
    real_solve = equifan.orderfun.solve_in_basis

    def spy(gens, y):
        solves.append(gens)
        return real_solve(gens, y)

    with mock.patch.object(equifan.orderfun, "solve_in_basis", spy):
        got = outcome(evaluate, ord_fn, x)
    if isinstance(expected, tuple) and expected[0] == "ValueError":
        assert got == expected
        assert solves == []
    else:
        piece, value = expected
        assert got == value
        # one solve, in the reference's piece
        assert solves == [ord_fn.subdivision.generators(piece)]


@pytest.mark.parametrize("name,cx", CORPUS, ids=[name for name, _ in CORPUS])
def test_carrier_star_and_evaluate_match_references(name, cx):
    ord_fn = order_function(cx)
    points = base_points(cx)
    for x in points + [tuple(-v for v in p) for p in points]:
        check_point(cx, ord_fn, x)


def test_corpus_points_leave_the_support():
    """The negated points reach the error path on the non-complete complexes."""
    outside = 0
    for _, cx in CORPUS:
        for p in base_points(cx):
            x = tuple(-v for v in p)
            try:
                cx.minimal_cone_containing(x)
            except ValueError as e:
                assert str(e) == "center not in support"
                outside += 1
    assert outside > 50


def test_point_of_the_wrong_length_rejected():
    """A point is never judged on truncated dot products."""
    cx = Complex.from_maximal_cones(3, [(1, 0, 0), (0, 1, 0), (1, 1, 3)], [[0, 1, 2]])
    ord_fn = order_function(cx)
    for x in ((1, 1), (1, 1, 1, 5)):
        message = rf"^point has {len(x)} entries, expected 3$"
        with pytest.raises(ValueError, match=message):
            cx.minimal_cone_containing(x)
        with pytest.raises(ValueError, match=message):
            cx.contains_point(frozenset({0, 1}), x)
        with pytest.raises(ValueError, match=message):
            evaluate(ord_fn, x)


@st.composite
def corpus_sums(draw):
    """A corpus complex and a sum a*p + b*q of two of its points, either
    possibly negated, so that it lies on a face, inside a cone or outside."""
    k = draw(st.integers(0, len(CORPUS) - 1))
    cx = CORPUS[k][1]
    points = base_points(cx)
    p = draw(st.sampled_from(points))
    q = draw(st.sampled_from(points))
    a = draw(st.integers(-2, 3))
    b = draw(st.integers(0, 3))
    return k, tuple(a * u + b * v for u, v in zip(p, q))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(corpus_sums())
def test_sums_of_points_match_references(case):
    k, x = case
    cx = CORPUS[k][1]
    check_point(cx, order_function(cx), x)


@pytest.mark.parametrize("name,cx", CORPUS, ids=[name for name, _ in CORPUS])
def test_host_coordinates_accept_exactly_the_carrier(name, cx):
    """A host passes the centered forms' test exactly when it is a nonzero
    simplicial cone and the reference carrier of the center."""
    points = base_points(cx)
    for x in points + [tuple(-v for v in p) for p in points]:
        try:
            carrier = reference_minimal_cone_containing(cx, x)
        except ValueError:
            carrier = None
        for host in cx.cones:
            coords = _host_coordinates(cx, x, tuple(sorted(host)))
            expected = host == carrier and bool(host) and cx.dim(host) == len(host)
            assert (coords is not None) == expected, (name, x, sorted(host))


HALF_PLANES = Complex.from_maximal_cones(2, [(1, 0), (0, 1), (-1, 0)], [[0, 1], [1, 2]])


@pytest.mark.parametrize("host", [(0,), (1,), (1, 2), (0, 2), (0, 1, 2), (7,), ()])
def test_centered_hosts_are_checked(host):
    """A host that is not its center's carrier raises ValueError naming
    both, in the replay and in the search."""
    message = "^" + re.escape(f"host {list(host)} is not the carrier of center (1, 1)") + "$"
    for call in (
        lambda: centered_order_function(HALF_PLANES, [((1, 1), host)], 2, 1),
        lambda: search_centered_order_function(HALF_PLANES, [((1, 1), host)]),
    ):
        with pytest.raises(ValueError, match=message):
            call()
    assert centered_order_function(HALF_PLANES, [((1, 1), (0, 1))], 2, 1) is not None


@pytest.mark.parametrize(
    "cx, gens, mode",
    [
        (singular_cone_2d(7), None, "plain"),
        (orthant(3), [CYC3], "canonical"),
        (square_cone(), None, "canonical"),
        (Complex.from_maximal_cones(2, [(1, 0), (1, -4), (0, 1), (-4, 1)], [[0, 1], [2, 3]]), [SWAP2], "canonical"),
    ],
    ids=["plain-2d", "orthant3-cycle", "square-direct", "two-cones-swap"],
)
def test_verify_locates_no_recorded_host(cx, gens, mode):
    """Verifying an untampered certificate takes every recorded host by
    the centered forms' test and locates none."""
    cert = resolve_equivariant(cx, generate_group(gens) if gens else None, mode=mode)
    fan = fan_from_complex(cx, gens or ())
    data = parse_certificate(write_certificate(cert, fan))
    with mock.patch.object(Complex, "minimal_cone_containing", side_effect=AssertionError("located")):
        assert verify_certificate(data, fan) == []
