"""The star records against the geometry they stand for.

`subdivide.star_subdivide` records the pieces of every maximal cone it
touches and carries the dimensions of untouched cones over;
`orderfun._recorded_pieces` composes the records along a chain of
stars, and `complexes._subdivision_report` checks a stage on its
touched hosts only.  Each is compared here with the geometric original
(`complexes._host_pieces`, `is_subdivision`, a freshly built complex) on
every stage of the corpus resolutions and on derandomized star chains.
"""

import gc
import weakref
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equifan.complexes import (
    Complex,
    _cone_order,
    _host_pieces,
    _subdivision_report,
    is_subdivision,
)
from equifan.lattice import primitive
from equifan.orderfun import _recorded_pieces, _wall_forms, _wall_relation
from equifan.resolve import resolve_equivariant
from equifan.subdivide import _barycentric_cascade, _stars, barycentric_subdivision, star_subdivide

from conftest import complete_2d_fan, corpus, interior_point, orthant, reference_stars
from test_exact_parameters import CORPUS_RUNS


def geometric_pieces(base, sub):
    return _host_pieces(sub, base)


def stage_steps(base, stage):
    """The complexes a recorded stage builds from base, one per step (base
    itself for a stage without steps), each freshly starred so that its
    records are untouched."""
    if stage.kind == "barycentric-direct":
        return [barycentric_subdivision(base)]
    out, cur = [], base
    for step in stage.steps:
        cur = _stars(cur, step.centers)
        out.append(cur)
    return out or [base]


def corpus_stages():
    """(run name, input, stage base, stage kind, stage's records) of every
    stage of every corpus resolution."""
    for name, cx, elements, mode in CORPUS_RUNS:
        cert = resolve_equivariant(cx, elements, mode=mode)
        base = cx
        for stage in cert.stages:
            yield name, cx, base, stage
            base = stage_steps(base, stage)[-1]


CORPUS_STAGES = list(corpus_stages())


def test_corpus_has_stages_of_every_kind():
    kinds = {stage.kind for *_, stage in CORPUS_STAGES}
    assert kinds == {"barycentric", "barycentric-direct", "centered"}
    assert len(CORPUS_STAGES) >= 40


def test_composed_pieces_match_geometry_on_corpus_stages():
    for name, cx, base, stage in CORPUS_STAGES:
        steps = stage_steps(base, stage)
        # each step over the one before, as the step folds ask
        prev = base
        for sub in steps:
            pieces = _recorded_pieces(prev, sub)
            assert pieces is not None, name
            assert pieces == geometric_pieces(prev, sub), name
            prev = sub
        # the whole stage over its base, composed along every star
        sub = stage_steps(base, stage)[-1]
        assert _recorded_pieces(base, sub) == geometric_pieces(base, sub), name
        # and over the input, as the composite fold asks: sub's record now
        # leads to the stage base, whose records lead on to the input
        assert _recorded_pieces(cx, sub) == geometric_pieces(cx, sub), name


def test_local_check_matches_is_subdivision_on_corpus_stages():
    mutated = 0
    for name, _, base, stage in CORPUS_STAGES:
        sub = stage_steps(base, stage)[-1]
        pieces = _recorded_pieces(base, sub)
        local = _subdivision_report(sub, base, pieces)
        full = is_subdivision(sub, base)
        assert local.ok and full.ok, name
        assert local.pieces == full.pieces, name
        for bad, bad_pieces in mutations(sub, pieces):
            assert not is_subdivision(bad, base), name
            assert not _subdivision_report(bad, base, bad_pieces), name
            mutated += 1
    assert mutated >= 70


def mutations(sub, pieces):
    """The subdivision with a piece of its first host of two or more
    pieces dropped, and with one such piece laid in twice (over a copy of
    one of its rays), each with its pieces by host."""
    touched = [(k, ps) for k, (_, ps) in enumerate(pieces) if len(ps) > 1]
    if not touched:
        return
    k, ps = touched[0]
    sigma, p = pieces[k][0], ps[-1]
    maximal = [c for c in sub.maximal_cones if c != p]
    dropped = Complex.from_maximal_cones(sub.ambient_rank, sub.rays, maximal)
    yield dropped, pieces[:k] + [(sigma, ps[:-1])] + pieces[k + 1:]
    r = max(p)
    twin = p - {r} | {len(sub.rays)}
    doubled = Complex.from_maximal_cones(
        sub.ambient_rank, sub.rays + (sub.rays[r],), list(sub.maximal_cones) + [twin]
    )
    yield doubled, pieces[:k] + [(sigma, sorted(ps + [twin], key=_cone_order))] + pieces[k + 1:]


def test_local_check_names_a_wrong_pieces_map(orthant2):
    sub = star_subdivide(orthant2, (1, 1))
    pieces = _recorded_pieces(orthant2, sub)
    assert _subdivision_report(sub, orthant2, pieces)
    (sigma, ps), = pieces
    report = _subdivision_report(sub, orthant2, [(sigma, ps[:1])])
    assert not report
    assert report.witnesses == ["the pieces by host are not the maximal cones of the fine complex, each once"]


def test_local_check_names_a_piece_outside_its_host():
    # two half-planes, each listed as the other's only piece
    cx = Complex.from_maximal_cones(2, [(1, 0), (0, 1), (-1, 0)], [[0, 1], [1, 2]])
    (a, pa), (b, pb) = _host_pieces(cx, cx)
    report = _subdivision_report(cx, cx, [(a, pb), (b, pa)])
    assert report.witnesses == [f"cone {sorted(b)} of the fine complex is not a piece of host {sorted(a)}"]
    # the orthant and a stray 1-D cone inside it, listed as a second piece
    fine = Complex.from_maximal_cones(2, [(1, 0), (0, 1), (1, 1)], [[0, 1], [2]])
    sigma = frozenset({0, 1})
    report = _subdivision_report(fine, orthant(2), [(sigma, [frozenset({2}), sigma])])
    assert report.witnesses == ["cone [2] of the fine complex is not a piece of host [0, 1]"]


def test_carried_caches_match_a_fresh_complex():
    for name, _, base, stage in CORPUS_STAGES:
        for sub in stage_steps(base, stage):
            fresh = Complex(sub.ambient_rank, sub.rays, sub.cones)
            assert sub.maximal_cones == fresh.maximal_cones, name
            for cone, d in sub._dim_cache.items():
                assert d == fresh.dim(cone), name


def test_a_subdivided_carrier_is_located_again(orthant2):
    # both centers lie in the cone {0, 1}; after the first star that cone
    # is gone, so the second center's recorded carrier no longer is one
    batch = [((1, 1), (0, 1)), ((1, 2), (0, 1))]
    expected = star_subdivide(star_subdivide(orthant2, (1, 1)), (1, 2))
    with mock.patch.object(
        Complex, "minimal_cone_containing", autospec=True, side_effect=Complex.minimal_cone_containing
    ) as locate:
        sub = _stars(orthant2, batch)
    assert [call.args[1] for call in locate.call_args_list] == [(1, 2)]
    assert sub == expected
    assert _recorded_pieces(orthant2, sub) == geometric_pieces(orthant2, sub)


def test_a_recorded_carrier_that_is_still_a_cone_is_not_located(orthant2):
    cx = star_subdivide(orthant2, (1, 1))
    with mock.patch.object(
        Complex, "minimal_cone_containing", autospec=True, side_effect=Complex.minimal_cone_containing
    ) as locate:
        sub = _stars(cx, [((2, 1), (0, 2)), ((1, 2), (1, 2))])
    assert locate.call_count == 0
    assert sub == star_subdivide(star_subdivide(cx, (2, 1)), (1, 2))


def test_records_free_the_complexes_in_between():
    base = orthant(3)
    mid = star_subdivide(base, (1, 1, 1))
    sub = star_subdivide(mid, (1, 1, 2))
    mid_ref = weakref.ref(mid)
    # as in a stage: sub over mid (the search), then over base (the composite fold)
    assert _recorded_pieces(mid, sub) == geometric_pieces(mid, sub)
    del mid
    assert _recorded_pieces(base, sub) == geometric_pieces(base, sub)
    gc.collect()
    assert mid_ref() is None
    assert sub._subdivides[0] is base


def test_unrelated_complexes_fall_back_to_geometry():
    base = orthant(2)
    other = Complex.from_maximal_cones(2, [(1, 0), (0, 1), (1, 1)], [[0, 2], [2, 1]])
    assert _recorded_pieces(base, other) is None


CORPUS = corpus()


@st.composite
def star_chains(draw):
    """A corpus complex and one to four stars of it at sums of its rays and
    cone interior points, each located (`star_subdivide`) or given to
    `_stars` with the center's carrier in some complex of the chain so far,
    which may no longer be a cone."""
    k = draw(st.integers(0, len(CORPUS) - 1))
    chain = [CORPUS[k][1]]
    for _ in range(draw(st.integers(1, 4))):
        cur = chain[-1]
        cones = sorted((c for c in cur.cones if c), key=sorted)
        if not cones:
            break
        c = draw(st.sampled_from(cones))
        weights = draw(st.lists(st.integers(1, 3), min_size=len(c), max_size=len(c)))
        center = primitive(interior_point(cur, c, weights))
        carrier = draw(st.sampled_from([None] + chain))
        if carrier is None:
            out = star_subdivide(cur, center)
        else:
            out = _stars(cur, [(center, carrier.minimal_cone_containing(center))])
        assert out == star_subdivide(cur, center)
        chain.append(out)
    return chain


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(star_chains(), st.data())
def test_random_star_chains_match_geometry(chain, data):
    base = chain[data.draw(st.integers(0, len(chain) - 1))]
    sub = chain[-1]
    pieces = _recorded_pieces(base, sub)
    assert pieces == geometric_pieces(base, sub)
    assert _subdivision_report(sub, base, pieces).ok
    assert is_subdivision(sub, base).ok
    for _, (_, c1, _, _, r2), _ in _wall_forms(sub, pieces):
        key = (sub.generators(c1), sub.rays[r2])
        assert _wall_relation(*key) == _wall_relation.__wrapped__(*key)


# the corpus and the barycentric subdivisions of its smaller complexes,
# whose many maximal cones leave room for runs of several stars
BATCH_BASES = [cx for _, cx in CORPUS] + [barycentric_subdivision(cx) for _, cx in CORPUS if len(cx.cones) < 20]


@st.composite
def star_batches(draw):
    """A batch base and one to three batches of one to six stars, each
    given to `_stars` on the complex the batches before it built, as
    (batch base, batch, result).  A center is a point inside a cone (so
    two centers often share a maximal cone and an earlier star splits a
    later carrier), a ray of a cone, or a center repeated from the batch;
    its carrier is the one in the batch base or in an earlier complex,
    which may no longer be a cone."""
    chain = [draw(st.sampled_from(BATCH_BASES))]
    steps = []
    for _ in range(draw(st.integers(1, 3))):
        cur = chain[-1]
        cones = sorted((c for c in cur.cones if c), key=sorted)
        batch = []
        for _ in range(draw(st.integers(1, 6))):
            kind = draw(st.sampled_from(["point", "point", "point", "ray", "repeat"]))
            if kind == "repeat" and batch:
                batch.append(draw(st.sampled_from(batch)))
                continue
            c = draw(st.sampled_from(cones))
            if kind == "ray":
                center = cur.rays[min(c)]
            else:
                weights = draw(st.lists(st.integers(1, 3), min_size=len(c), max_size=len(c)))
                center = primitive(interior_point(cur, c, weights))
            where = draw(st.sampled_from(chain))
            batch.append((center, tuple(sorted(where.minimal_cone_containing(center)))))
        steps.append((cur, batch, _stars(cur, batch)))
        chain.append(steps[-1][2])
    return steps


def assert_stars_match_reference(base, batch, out, earlier):
    """out, `_stars(base, batch)`, equals the stars taken one at a time,
    its carried caches equal a fresh complex's, and its records compose to
    the geometric pieces over base and every earlier complex (nearest
    first, as the folds ask)."""
    assert out == reference_stars(base, batch)
    fresh = Complex(out.ambient_rank, out.rays, out.cones)
    assert out.maximal_cones == fresh.maximal_cones
    assert out._dim_cache == {cone: fresh.dim(cone) for cone in out._dim_cache}
    for prev in reversed(earlier + [base]):
        assert _recorded_pieces(prev, out) == geometric_pieces(prev, out)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(star_batches())
def test_batched_stars_match_the_stars_one_at_a_time(steps):
    for j, (base, batch, out) in enumerate(steps):
        assert_stars_match_reference(base, batch, out, [b for b, _, _ in steps[:j]])


@pytest.mark.parametrize("name, cx", CORPUS, ids=[name for name, _ in CORPUS])
def test_the_barycentric_cascade_matches_the_stars_one_at_a_time(name, cx):
    batch = [star for level in _barycentric_cascade(cx) for star in level]
    assert_stars_match_reference(cx, batch, _stars(cx, batch), [])


def count_constructions(cx, batch):
    with mock.patch.object(Complex, "__init__", autospec=True, side_effect=Complex.__init__) as init:
        out = _stars(cx, batch)
    assert out == reference_stars(cx, batch)
    return init.call_count


def test_a_simultaneous_batch_constructs_one_complex(orthant3):
    cx = barycentric_subdivision(orthant3)
    inside = [(primitive(interior_point(cx, c)), tuple(sorted(c))) for c in cx.maximal_cones]
    for k in range(1, len(inside) + 1):
        assert count_constructions(cx, inside[:k]) == 1
    # the second level of the cascade: each face of the orthant lies in one
    # maximal cone of its star at (1, 1, 1)
    cx = star_subdivide(orthant3, (1, 1, 1))
    faces = [((1, 1, 0), (0, 1)), ((0, 1, 1), (1, 2)), ((1, 0, 1), (0, 2))]
    assert count_constructions(cx, faces) == 1


def test_a_batch_sharing_a_maximal_cone_constructs_twice(orthant2):
    assert count_constructions(orthant2, [((1, 1), (0, 1)), ((1, 2), (0, 1))]) == 2
    # the second center is the first one's ray: the run closes, and the
    # ray leaves the complex unchanged
    assert count_constructions(orthant2, [((1, 1), (0, 1)), ((1, 1), (0, 1))]) == 1


def test_a_repeated_center_is_a_ray_whatever_its_carrier():
    # a recorded carrier is taken unchecked: here the repeated center's
    # second one, the opposite quadrant, shares no maximal cone with the
    # first, but once the first star is taken the center is a ray
    cx = complete_2d_fan()
    batch = [((1, 1), (0, 1)), ((1, 1), (2, 3))]
    for stars in (_stars, reference_stars):
        with pytest.raises(ValueError, match=r"^center \(1, 1\) is ray 4, which is in no cone$"):
            stars(cx, batch)
