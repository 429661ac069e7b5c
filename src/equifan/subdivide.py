"""Centered (star) and barycentric subdivision.

Stars are taken by one loop (`_stars`), with one construction per run of
simultaneous stars: consecutive stars whose stars, the maximal cones
containing their carriers, are disjoint are built at once, as the
simultaneous star of KKMS (*Toroidal Embeddings I*, LNM 339).

The loop returns, with the subdivision, its pieces over the complex it
started from (`_compose` composes the runs' maps); the map travels with
the order function built on it, and no complex records it.

The barycentric subdivision is the top-down cascade of centered
subdivisions, by decreasing dimension of the original cones.
"""

from __future__ import annotations

import warnings
from itertools import chain

from .complexes import Complex, _cone_order, same_complex
from .lattice import Vec, integer_vector, primitive


def barycenter(gens) -> Vec:
    """Primitive generator of the barycenter ray: sum of the edge generators."""
    gens = [primitive(g) for g in gens]
    if not gens:
        raise ValueError("zero cone has no barycenter")
    total = tuple(sum(col) for col in zip(*gens))
    return primitive(total)


def star_subdivide(cx: Complex, center) -> Complex:
    """Subdivision of the complex centered at the ray through `center`:
    the center is located (its carrier tau) and starred as a run of one
    (`_stars`), so one complex is constructed.

    Every cone containing the center is replaced by the joins of the
    center with its faces disjoint from the center ray; all other cones
    are untouched.  A center whose carrier is its own ray leaves the
    complex unchanged; one equal to a ray that no cone uses raises
    ValueError.  New rays get fresh ids appended; old ids never change.
    Past locating, the star is face lattice algebra, valid on a valid
    complex: a cone contains the center exactly when it contains tau.
    """
    return _stars(cx, [(center, None)])[0]


def _stars(cx: Complex, centers_with_carriers):
    """(cx starred at each (center, carrier) in turn, its pieces over cx),
    with one construction per run of simultaneous stars
    (`_simultaneous_stars`), whose maps are composed (`_compose`).

    A carrier (ray ids) is the center's carrier in a complex that the
    current one subdivides, as the barycentric cascade and a batch of
    centers record it, or None, and then the center is located.  A star
    joins the current run when its center is not already a ray, its
    carrier is a cone of the run's base and its star, the maximal cones
    containing the carrier, is disjoint from the stars already in the
    run.  Any other star closes the run, which is built, and is taken on
    the result: a carrier that is no cone there (a star split it) is
    located again; a center that is a ray there leaves the complex
    unchanged when the ray is its carrier, else ValueError names it; any
    other center opens the next run.  This is the one place that finds a
    carrier's star, so it is the one judge of simultaneity: a batch whose
    stars are pairwise disjoint is one run, and the returned pieces name
    the touched maximal cones (those whose pieces are not themselves).

    A run equals the stars taken one at a time, on any input, a recorded
    carrier being taken unchecked either way: a cone containing tau_a is a
    face only of maximal cones containing tau_a, so stars with disjoint
    stars remove disjoint sets of cones, and neither creates a cone
    containing the other's carrier (a join f + c_a holding tau_b would put
    tau_b in f, a face of a maximal cone in both stars).  So each carrier
    is still a cone, with the same star, after the other's star.
    """
    base, run, taken = cx, {}, set()  # run: center -> (tau, its star)
    pieces = [(sigma, [sigma]) for sigma in cx.maximal_cones]
    for center, carrier in centers_with_carriers:
        c = integer_vector(center)
        center = primitive(c)
        if center != c:
            warnings.warn(f"star center {c} normalized to primitive {center}")
        tau = None if carrier is None else frozenset(carrier)
        star = None
        if tau in base.cones and center not in run and center not in base.rays:
            star = [sigma for sigma in base.maximal_cones if tau <= sigma]
            if not taken.isdisjoint(star):
                star = None
        if star is None:
            base, made = _simultaneous_stars(base, run)
            pieces, run, taken = _compose(pieces, made), {}, set()
            if tau not in base.cones:
                tau = base.minimal_cone_containing(center)  # raises outside the support
            if center in base.rays:
                rid = base.rays.index(center)
                if tau != {rid}:
                    raise ValueError(f"center {center} is ray {rid}, which is in no cone")
                continue
            star = [sigma for sigma in base.maximal_cones if tau <= sigma]
        run[center] = tau, star
        taken.update(star)
    sub, made = _simultaneous_stars(base, run)
    return sub, _compose(pieces, made)


def _compose(outer, inner):
    """The pieces map of a subdivision of a subdivision (the format of
    `_host_pieces`): each sigma of outer gets the pieces inner gives its
    pieces q, sorted as the fine complex sorts its maximal cones."""
    made = {q: ps for q, ps in inner if ps != [q]}
    return [
        (sigma, sorted(chain.from_iterable(made.get(q, (q,)) for q in qs), key=_cone_order)
         if any(q in made for q in qs) else qs)
        for sigma, qs in outer
    ]


def _simultaneous_stars(cx: Complex, run):
    """(cx starred at every center of a run ({center: (tau, its star)},
    the stars pairwise disjoint, see `_stars`), as one construction, its
    pieces over cx); cx itself for an empty run.  The centers get new ray
    ids in order.

    Each touched maximal cone sigma, one containing its center's tau,
    becomes the pieces f + center for the facets f of sigma not containing
    tau, and these with the untouched maximal cones are the new maximal
    cones.  A new cone f + center has dimension dim f + 1: the center lies
    in sigma but not in its face f, so not in the span of f.  A face of a
    simplicial sigma has its size as dimension, so no face of one is
    ranked.

    The result is derived from cx (`Complex._derived`), which checks only
    the new rays.  That is sound because a star changes only its
    carrier's star: every cone outside the touched maximal cones' faces is
    kept with its ray ids, and old ray ids never change (the centers are
    appended), so a kept cone keeps its dimension and generators; the
    added cones hold kept ids and new ones.
    """
    if not run:
        return cx, [(sigma, [sigma]) for sigma in cx.maximal_cones]
    removed, added, pieces, join_dims = set(), set(), {}, {}
    for new_id, (tau, star) in enumerate(run.values(), start=len(cx.rays)):
        for sigma in star:
            faces = cx.faces(sigma)
            joins = {f: f | {new_id} for f in faces if not tau <= f}
            removed.update(faces - joins.keys())
            added.update(joins.values())
            d = cx.dim(sigma)
            for f, join in joins.items():
                join_dims[join] = (len(f) if d == len(sigma) else cx.dim(f)) + 1
            pieces[sigma] = [join for join in joins.values() if join_dims[join] == d]
    maximal = tuple(sorted(
        [m for m in cx.maximal_cones if m not in pieces] + [q for ps in pieces.values() for q in ps],
        key=_cone_order,
    ))
    out = Complex._derived(cx, tuple(run), removed, added, maximal, join_dims)
    return out, [(sigma, pieces.get(sigma, [sigma])) for sigma in cx.maximal_cones]


def barycentric_subdivision(cx: Complex) -> Complex:
    """Barycentric subdivision via the cascade of centered subdivisions.

    Centers are the barycenters of the original cones, processed by
    decreasing dimension; within one dimension level the order is fixed
    (ascending sorted ray ids of the host cone) for determinism, though
    it does not affect the result.
    """
    return _stars(cx, chain.from_iterable(_barycentric_cascade(cx)))[0]


def _barycentric_cascade(cx: Complex):
    """The cascade's centers: one batch per dimension level, highest first.

    A batch holds (barycenter, source cone as sorted ray ids) for each cone
    of the level; in order, the centers are the new rays.  A ray is its own
    barycenter, so the cones of dimension 1 have no level.  The higher
    levels leave the source cone whole, so it is the minimal host of its
    barycenter in the batch's base.  The group of a symmetric complex
    permutes each batch, which the order functions rely on.
    """
    by_dim: dict[int, list] = {}
    for c in cx.cones:
        d = cx.dim(c)
        if d >= 2:
            by_dim.setdefault(d, []).append(tuple(sorted(c)))
    return [
        [(barycenter(cx.generators(c)), c) for c in sorted(by_dim[d])]
        for d in sorted(by_dim, reverse=True)
    ]


def _barycentric_sources(cx: Complex, bcx: Complex, cascade) -> list:
    """The source of each ray of bcx, B(cx) as cx's `cascade` builds it:
    the cone of cx whose relative interior holds it.  ValueError on other
    rays."""
    pairs = [(r, (i,)) for i, r in enumerate(cx.rays)]
    pairs += chain.from_iterable(cascade)
    if tuple(r for r, _ in pairs) != bcx.rays:
        raise ValueError("not the barycentric subdivision of the base complex")
    return [source for _, source in pairs]


def _barycentric(cx: Complex):
    """(B(cx), its pieces over cx, the source of each of its rays), from
    one cascade."""
    cascade = _barycentric_cascade(cx)
    bcx, pieces = _stars(cx, chain.from_iterable(cascade))
    return bcx, pieces, _barycentric_sources(cx, bcx, cascade)


def barycentric_edge_bijection(cx: Complex, bcx: Complex) -> dict:
    """Map each ray of the barycentric subdivision to its source cone.

    Returns {ray id in bcx -> cone of cx whose relative interior contains
    that ray} for the rays some cone uses, read off the cascade's sources
    by generator; this is a bijection onto the positive-dimensional cones
    of cx, with inverse given by taking barycenters.
    """
    b, _, sources = _barycentric(cx)
    if not same_complex(bcx, b):
        raise ValueError("not the barycentric subdivision of the base complex")
    source = dict(zip(b.rays, sources))
    return {rid: frozenset(source[bcx.rays[rid]]) for rid in sorted({i for c in bcx.cones for i in c})}
