"""Centered (star) and barycentric subdivision.

Both of the classical barycentric constructions are implemented: the
top-down cascade of centered subdivisions (by decreasing dimension of
the original cones) and the bottom-up inductive construction over the
face lattice.  They must produce the same complex; tests exploit that
as a cross-check.
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


def star_subdivide(cx: Complex, center, *, _carrier=None) -> Complex:
    """Subdivision of the complex centered at the ray through `center`.

    Every cone containing the center is replaced by the joins of the
    center with its faces disjoint from the center ray; all other cones
    are untouched.  A center whose carrier is its own ray leaves the
    complex unchanged; one equal to a ray that no cone uses raises
    ValueError.  New rays get fresh ids appended; old ids never change.

    The center is located once, by its carrier tau; the rest is face
    lattice algebra, valid on a valid complex: a cone contains the center
    exactly when it contains tau.  `_carrier` is private to `_stars`,
    which passes a tau read off its records, unchecked; every other
    caller has the center located.

    The result records what the star did (`Complex._subdivides`): each
    touched maximal cone sigma, one containing tau, becomes the pieces
    f + center for the facets f of sigma not containing tau, and these
    with the untouched maximal cones are the new maximal cones.
    Dimensions of untouched cones carry over.  A new cone f + center has
    dimension dim f + 1: the center lies in sigma but not in its face f,
    so not in the span of f.  A face of a simplicial sigma has its size
    as dimension, so no face of one is ranked.
    """
    c = integer_vector(center)
    p = primitive(c)
    if p != c:
        warnings.warn(f"star center {c} normalized to primitive {p}")
    center = p
    tau = cx.minimal_cone_containing(center) if _carrier is None else _carrier  # raises outside the support
    if center in cx.rays:
        rid = cx.rays.index(center)
        if tau != {rid}:
            raise ValueError(f"center {center} is ray {rid}, which is in no cone")
        return cx

    new_id = len(cx.rays)
    removed, added, pieces, join_dims = set(), set(), {}, {}
    for sigma in cx.maximal_cones:
        if tau <= sigma:
            faces = cx.faces(sigma)
            joins = {f: f | {new_id} for f in faces if not tau <= f}
            removed.update(faces - joins.keys())
            added.update(joins.values())
            d = cx.dim(sigma)
            for f, join in joins.items():
                join_dims[join] = (len(f) if d == len(sigma) else cx.dim(f)) + 1
            pieces[sigma] = [join for join in joins.values() if join_dims[join] == d]
    out = Complex(cx.ambient_rank, cx.rays + (center,), (cx.cones - removed) | added)
    out._maximal = tuple(sorted(
        [m for m in cx.maximal_cones if m not in pieces] + [q for ps in pieces.values() for q in ps],
        key=_cone_order,
    ))
    out._dim_cache = {f: d for f, d in cx._dim_cache.items() if not tau <= f}
    out._dim_cache.update(join_dims)
    out._subdivides = (cx, pieces)
    return out


def _stars(cx: Complex, centers_with_carriers) -> Complex:
    """cx starred at each (center, carrier) in turn (`star_subdivide`).

    A carrier (ray ids) is the center's carrier in a complex that the
    current one subdivides, as the barycentric cascade and a batch of
    centers record it.  While it is still a cone here (ids keep their
    rays) it is the carrier here too, and the center is not located
    again; once a star has split it, the center is located.
    """
    for center, carrier in centers_with_carriers:
        tau = frozenset(carrier)
        cx = star_subdivide(cx, center, _carrier=tau if tau in cx.cones else None)
    return cx


def barycentric_subdivision(cx: Complex) -> Complex:
    """Barycentric subdivision via the cascade of centered subdivisions.

    Centers are the barycenters of the original cones, processed by
    decreasing dimension; within one dimension level the order is fixed
    (ascending sorted ray ids of the host cone) for determinism, though
    it does not affect the result.
    """
    return _stars(cx, chain.from_iterable(_barycentric_cascade(cx)))


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
    """(B(cx), the source of each of its rays), from one cascade."""
    cascade = _barycentric_cascade(cx)
    bcx = _stars(cx, chain.from_iterable(cascade))
    return bcx, _barycentric_sources(cx, bcx, cascade)


def barycentric_subdivision_inductive(cx: Complex) -> Complex:
    """Barycentric subdivision built bottom-up over the face lattice.

    The subdivision of a cone is the subdivision of its boundary plus
    the joins of the boundary pieces with the cone's own barycenter.
    Serves as an independent oracle for the cascade construction.
    """
    memo: dict[frozenset, frozenset] = {}

    def bary_cones(cone) -> frozenset:
        cone = frozenset(cone)
        if cone in memo:
            return memo[cone]
        if cx.dim(cone) == 0:
            out = frozenset({frozenset()})
        else:
            boundary = frozenset()
            for f in cx.faces(cone):
                if f != cone:
                    boundary |= bary_cones(f)
            b = barycenter(cx.generators(cone))
            out = boundary | frozenset(s | {b} for s in boundary)
        memo[cone] = out
        return out

    all_cones: set[frozenset] = set()
    for c in sorted(cx.cones, key=lambda c: (cx.dim(c), sorted(c))):
        all_cones |= bary_cones(c)

    # cone members are generator vectors here; keep original ray ids and
    # append new barycenters in order of first appearance (dim ascending)
    rays = list(cx.rays)
    index = {r: i for i, r in enumerate(rays)}
    for c in sorted(cx.cones, key=lambda c: (cx.dim(c), sorted(c))):
        if cx.dim(c) >= 1:
            b = barycenter(cx.generators(c))
            if b not in index:
                index[b] = len(rays)
                rays.append(b)
    id_cones = {frozenset(index[v] for v in s) for s in all_cones}
    return Complex(cx.ambient_rank, tuple(rays), id_cones)


def barycentric_edge_bijection(cx: Complex, bcx: Complex) -> dict:
    """Map each ray of the barycentric subdivision to its source cone.

    Returns {ray id in bcx -> cone of cx whose relative interior contains
    that ray} for the rays some cone uses, read off the cascade's sources
    by generator; this is a bijection onto the positive-dimensional cones
    of cx, with inverse given by taking barycenters.
    """
    b, sources = _barycentric(cx)
    if not same_complex(bcx, b):
        raise ValueError("not the barycentric subdivision of the base complex")
    source = dict(zip(b.rays, sources))
    return {rid: frozenset(source[bcx.rays[rid]]) for rid in sorted({i for c in bcx.cones for i in c})}
