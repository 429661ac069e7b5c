"""The centered (scale, dip) solve against the brute-force reference scan."""

import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from equifan.complexes import Complex
from equifan.lattice import cone_index, parallelepiped_points, primitive, rank
from equifan import orderfun
from equifan.orderfun import search_centered_order_function
from equifan.resolve import initial_frames_plain, resolve_equivariant, select_centers
from equifan.subdivide import _barycentric_cascade, barycentric_subdivision

from conftest import (
    ReferenceBudgetExceeded,
    orthant,
    reference_search_centered,
    singular_cone_2d,
)


def assert_same_winner(cx, centers_with_hosts, max_candidates=None):
    ref_fn, ref_scale, ref_dip = reference_search_centered(
        cx, centers_with_hosts, max_candidates=max_candidates
    )
    fn, scale, dip = search_centered_order_function(cx, centers_with_hosts)
    assert (scale, dip, fn.ray_values) == (ref_scale, ref_dip, ref_fn.ray_values)
    assert fn.subdivision == ref_fn.subdivision
    return fn


def plain_rounds(cx):
    """(complex, centers with hosts) of every round of a plain resolution."""
    cert = resolve_equivariant(cx, mode="plain")
    cur = cx
    for stage in cert.stages:
        (step,) = stage.steps
        centers = [(c, frozenset(h)) for c, h in step.centers]
        yield cur, centers
        cur = search_centered_order_function(cur, centers)[0].subdivision


@pytest.mark.parametrize("r", range(2, 17))
def test_ladder_rounds_match_reference(r):
    rounds = list(plain_rounds(singular_cone_2d(r)))
    assert rounds
    for cur, centers in rounds:
        assert_same_winner(cur, centers)


@pytest.mark.parametrize(
    "cx",
    [
        orthant(3),
        Complex.from_maximal_cones(3, [(1, 0, 0), (0, 1, 0), (1, 2, 4)], [[0, 1, 2]]),
    ],
    ids=["orthant-3", "cone-124"],
)
def test_barycentric_batches_match_reference(cx):
    batches = _barycentric_cascade(cx)
    assert batches
    base = cx
    for centers in batches:
        assert [(c, tuple(sorted(base.minimal_cone_containing(c)))) for c, _ in centers] == centers
        base = assert_same_winner(base, centers).subdivision
    assert base == barycentric_subdivision(cx)


# 3D cones where pieces carrying the new ray restrict the scale alone
# (SNF rows with no dip term), with an arbitrary parallelepiped point
@pytest.mark.parametrize(
    "gens, center",
    [
        (((0, 2, 1), (-3, 4, 2), (4, -3, 1)), (1, 0, 1)),
        (((1, 4, 4), (1, -1, 2), (2, 1, 1)), (2, 1, 2)),
        (((-1, 0, -1), (2, 0, -5), (-2, 2, 5)), (0, 1, 0)),
    ],
)
def test_scale_only_congruences_match_reference(gens, center):
    cx = Complex.from_maximal_cones(3, gens, [[0, 1, 2]])
    _, selected = select_centers(cx, initial_frames_plain(cx))
    for centers in ([center], sorted({primitive(p) for p, _ in selected})):
        assert_same_winner(cx, [(c, cx.minimal_cone_containing(c)) for c in centers])


@st.composite
def singular_simplicial_cones(draw):
    """A single simplicial cone of rank 2 or 3 with index in 2..40."""
    n = draw(st.sampled_from([2, 3]))
    coord = st.integers(min_value=-5, max_value=5)
    vec = st.tuples(*[coord] * n).filter(any)
    gens = [primitive(v) for v in draw(st.lists(vec, min_size=n, max_size=n))]
    if rank(gens) < n or not 2 <= cone_index(gens) <= 40:
        reject()
    return Complex.from_maximal_cones(n, gens, [list(range(n))])


# the reference verifies every candidate (about 1-6 ms each), and a drawn
# cone can need a scan of tens of thousands; such draws are rejected
REFERENCE_BUDGET = 100


@settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)
@given(singular_simplicial_cones(), st.integers(min_value=0))
def test_random_cones_match_reference(cx, pick):
    (mc,) = cx.maximal_cones
    points = parallelepiped_points(cx.generators(mc))
    arbitrary = primitive(points[pick % len(points)][0])
    _, selected = select_centers(cx, initial_frames_plain(cx))
    batches = [
        sorted({primitive(p) for p, _ in selected}),  # a plain resolution's first round
        [arbitrary],  # the star at an arbitrary parallelepiped point
    ]
    for centers in batches:
        try:
            assert_same_winner(
                cx,
                [(c, cx.minimal_cone_containing(c)) for c in centers],
                max_candidates=REFERENCE_BUDGET,
            )
        except ReferenceBudgetExceeded:
            reject()


def test_scale_cap_named_in_error(monkeypatch):
    sing = singular_cone_2d(4)
    centers = [((1, 3), frozenset({0, 1}))]
    f, scale, dip = search_centered_order_function(sing, centers)
    assert scale > 1
    cap = scale - 1
    monkeypatch.setattr(orderfun, "COMPOSITION_CAP", cap)
    with pytest.raises(ValueError, match=rf"^scale insufficient: .*composition_cap={cap}$"):
        search_centered_order_function(sing, centers)
