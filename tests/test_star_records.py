"""The pieces maps that travel with the order functions, against the
geometry they stand for.

`subdivide._stars` returns, with a subdivision, its pieces over the
complex it started from (`_barycentric` too) and carries the dimensions
of untouched cones over; `orderfun.fold` composes two functions' maps
(`subdivide._compose`), and `complexes._subdivision_report` checks a
stage on its touched hosts only.  Each is compared here with the
geometric original (`complexes._host_pieces`, `is_subdivision`, a freshly
built complex) on every stage of the corpus resolutions and on
derandomized star chains.
"""

import gc
import weakref
from functools import reduce
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
from equifan.orderfun import OrderFunction, _pieces_by_base_cone, _wall_forms, _wall_relation, star_order_function
from equifan.resolve import Replay, resolve_equivariant
from equifan.subdivide import _barycentric, _barycentric_cascade, _compose, _stars, barycentric_subdivision

from conftest import complete_2d_fan, corpus, interior_point, orthant, reference_stars
from test_exact_parameters import CORPUS_RUNS


def geometric_pieces(base, sub):
    return _host_pieces(sub, base)


def corpus_stages():
    """(run name, input, stage kind, step functions, stage function,
    composite) of every stage of every corpus resolution, as its replay
    folded them: the step functions built on `_stars` or `_barycentric`,
    the stage function and the composite by `fold`."""
    out = []
    stage = Replay.stage

    def spy(self, kind, steps, step_ords):
        step_ords = list(step_ords)
        record, stage_ord = stage(self, kind, steps, step_ords)
        out.append((name, cx, kind, step_ords, stage_ord, self.composite))
        return record, stage_ord

    with mock.patch.object(Replay, "stage", spy):
        for name, cx, elements, mode in CORPUS_RUNS:
            resolve_equivariant(cx, elements, mode=mode)
    return out


CORPUS_STAGES = corpus_stages()


def test_corpus_has_stages_of_every_kind():
    kinds = {kind for _, _, kind, *_ in CORPUS_STAGES}
    assert kinds == {"barycentric", "barycentric-direct", "centered"}
    assert len(CORPUS_STAGES) >= 40
    assert sum(len(step_ords) > 1 for _, _, _, step_ords, _, _ in CORPUS_STAGES) >= 5


def test_composed_pieces_match_geometry_on_corpus_stages():
    for name, cx, _, step_ords, stage_ord, composite in CORPUS_STAGES:
        # each step over the one before, as the step folds ask; the stage
        # over its base, folded along every step; the composite over the
        # input, as the next composite fold asks
        for f in step_ords + [stage_ord, composite]:
            assert f._pieces is not None, name
            assert f._pieces == geometric_pieces(f.base, f.subdivision), name
        assert composite.base is cx, name


def test_local_check_matches_is_subdivision_on_corpus_stages():
    mutated = 0
    for name, _, _, _, stage_ord, _ in CORPUS_STAGES:
        base, sub, pieces = stage_ord.base, stage_ord.subdivision, stage_ord._pieces
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
    sub, pieces = _stars(orthant2, [((1, 1), None)])
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
    for name, _, _, step_ords, _, _ in CORPUS_STAGES:
        for f in step_ords:
            sub = f.subdivision
            fresh = Complex(sub.ambient_rank, sub.rays, sub.cones)
            assert sub.maximal_cones == fresh.maximal_cones, name
            for cone, d in sub._dim_cache.items():
                assert d == fresh.dim(cone), name


def test_a_subdivided_carrier_is_located_again(orthant2):
    # both centers lie in the cone {0, 1}; after the first star that cone
    # is gone, so the second center's recorded carrier no longer is one
    batch = [((1, 1), (0, 1)), ((1, 2), (0, 1))]
    expected = reference_stars(orthant2, batch)
    with mock.patch.object(
        Complex, "minimal_cone_containing", autospec=True, side_effect=Complex.minimal_cone_containing
    ) as locate:
        sub, pieces = _stars(orthant2, batch)
    assert [call.args[1] for call in locate.call_args_list] == [(1, 2)]
    assert sub == expected
    assert pieces == geometric_pieces(orthant2, sub)


def test_a_recorded_carrier_that_is_still_a_cone_is_not_located(orthant2):
    cx, _ = _stars(orthant2, [((1, 1), None)])
    batch = [((2, 1), (0, 2)), ((1, 2), (1, 2))]
    with mock.patch.object(
        Complex, "minimal_cone_containing", autospec=True, side_effect=Complex.minimal_cone_containing
    ) as locate:
        sub, _ = _stars(cx, batch)
    assert locate.call_count == 0
    assert sub == reference_stars(cx, batch)


def test_no_stage_complex_outlives_the_resolve():
    # the maps hold cones, not complexes: once the resolve returns, every
    # complex it built but the final one is freed, and no complex refers
    # to another; both constructors, `__init__` and `_derived`, are watched
    built = []
    init, derived = Complex.__init__, Complex._derived.__func__

    def spy(self, *args):
        init(self, *args)
        built.append(weakref.ref(self))

    def derived_spy(cls, *args):
        out = derived(cls, *args)
        built.append(weakref.ref(out))
        return out

    cx = Complex.from_maximal_cones(3, [(1, 0, 0), (0, 1, 0), (1, 2, 5)], [[0, 1, 2]])
    with mock.patch.object(Complex, "__init__", spy), mock.patch.object(Complex, "_derived", classmethod(derived_spy)):
        cert = resolve_equivariant(cx)
    gc.collect()
    assert len(cert.stages) >= 10 and len(cert.stages[0].steps) == 2
    assert [ref() for ref in built if ref() is not None] == [cert.final]
    for c in (cx, cert.final):
        assert not any(isinstance(v, Complex) for v in flattened(vars(c))), sorted(vars(c))


def flattened(value):
    """The value and everything inside its containers, recursively."""
    yield value
    if isinstance(value, dict):
        value = [*value.keys(), *value.values()]
    if isinstance(value, (list, tuple, set, frozenset)):
        for v in value:
            yield from flattened(v)


def test_unrelated_complexes_fall_back_to_geometry():
    # a function made by hand on them has no map: its pieces are found
    # geometrically, and only for it
    base = orthant(2)
    other = Complex.from_maximal_cones(2, [(1, 0), (0, 1), (1, 1)], [[0, 2], [2, 1]])
    by_hand = OrderFunction(base, other, [2, 2, 3])
    built = star_order_function(base, (1, 1), 2)
    assert by_hand == built and by_hand._pieces is None
    with mock.patch("equifan.orderfun._host_pieces", side_effect=_host_pieces) as host_pieces:
        assert _pieces_by_base_cone(built) == geometric_pieces(base, other)
        assert host_pieces.call_count == 0
        assert _pieces_by_base_cone(by_hand) == geometric_pieces(base, other)
        assert host_pieces.call_count == 1


CORPUS = corpus()


@st.composite
def star_chains(draw):
    """A corpus complex and one to four stars of it at sums of its rays and
    cone interior points, as [(complex, its pieces over the one before)],
    each center located or given to `_stars` with its carrier in some
    complex of the chain so far, which may no longer be a cone."""
    k = draw(st.integers(0, len(CORPUS) - 1))
    chain = [(CORPUS[k][1], None)]
    for _ in range(draw(st.integers(1, 4))):
        cur = chain[-1][0]
        cones = sorted((c for c in cur.cones if c), key=sorted)
        if not cones:
            break
        c = draw(st.sampled_from(cones))
        weights = draw(st.lists(st.integers(1, 3), min_size=len(c), max_size=len(c)))
        center = primitive(interior_point(cur, c, weights))
        where = draw(st.sampled_from([None] + [cx for cx, _ in chain]))
        carrier = None if where is None else where.minimal_cone_containing(center)
        out = _stars(cur, [(center, carrier)])
        assert out[0] == reference_stars(cur, [(center, cur.minimal_cone_containing(center))])
        chain.append(out)
    return chain


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(star_chains(), st.data())
def test_random_star_chains_match_geometry(chain, data):
    j = data.draw(st.integers(0, len(chain) - 1))
    base, sub = chain[j][0], chain[-1][0]
    identity = [(sigma, [sigma]) for sigma in base.maximal_cones]
    pieces = reduce(_compose, [made for _, made in chain[j + 1:]], identity)
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
    (batch base, batch, result, its pieces over the batch base).  A center
    is a point inside a cone (so two centers often share a maximal cone and
    an earlier star splits a later carrier), a ray of a cone, or a center
    repeated from the batch; its carrier is the one in the batch base or in
    an earlier complex, which may no longer be a cone."""
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
        steps.append((cur, batch, *_stars(cur, batch)))
        chain.append(steps[-1][2])
    return steps


def assert_stars_match_reference(base, batch, out, pieces, earlier):
    """out, `_stars(base, batch)`, equals the stars taken one at a time and
    its carried caches equal a fresh complex's; its pieces over base, and
    composed with earlier's (each (complex, its pieces over the one
    before), nearest last), over every earlier complex, are the geometric
    ones."""
    assert out == reference_stars(base, batch)
    fresh = Complex(out.ambient_rank, out.rays, out.cones)
    assert out.maximal_cones == fresh.maximal_cones
    assert out._dim_cache == {cone: fresh.dim(cone) for cone in out._dim_cache}
    assert out._gens == {cone: fresh.generators(cone) for cone in out._gens}
    assert pieces == geometric_pieces(base, out)
    for prev, made in reversed(earlier):
        pieces = _compose(made, pieces)
        assert pieces == geometric_pieces(prev, out)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(star_batches())
def test_batched_stars_match_the_stars_one_at_a_time(steps):
    for j, (base, batch, out, pieces) in enumerate(steps):
        earlier = [(b, made) for b, _, _, made in steps[:j]]
        assert_stars_match_reference(base, batch, out, pieces, earlier)


@pytest.mark.parametrize("name, cx", CORPUS, ids=[name for name, _ in CORPUS])
def test_the_barycentric_cascade_matches_the_stars_one_at_a_time(name, cx):
    batch = [star for level in _barycentric_cascade(cx) for star in level]
    bcx, pieces, _ = _barycentric(cx)
    assert (bcx, pieces) == _stars(cx, batch)
    assert_stars_match_reference(cx, batch, bcx, pieces, [])


def count_constructions(cx, batch):
    """How many complexes `_stars` builds for the batch: each by the
    derived constructor, none by `__init__`."""
    with mock.patch.object(Complex, "__init__", autospec=True, side_effect=Complex.__init__) as init, \
            mock.patch.object(Complex, "_derived", side_effect=Complex._derived) as derived:
        out, _ = _stars(cx, batch)
    assert out == reference_stars(cx, batch)
    assert init.call_count == 0
    return derived.call_count


def test_a_simultaneous_batch_constructs_one_complex(orthant3):
    cx = barycentric_subdivision(orthant3)
    inside = [(primitive(interior_point(cx, c)), tuple(sorted(c))) for c in cx.maximal_cones]
    for k in range(1, len(inside) + 1):
        assert count_constructions(cx, inside[:k]) == 1
    # the second level of the cascade: each face of the orthant lies in one
    # maximal cone of its star at (1, 1, 1)
    cx, _ = _stars(orthant3, [((1, 1, 1), None)])
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
