"""Conical polyhedral complexes with integral structure.

A complex is a finite, face-closed collection of pointed rational cones
in one ambient lattice, any two of which intersect in a common face.
Cones are stored as frozensets of ray ids; the complex owns the ray
table, so subdivisions and group actions are pure index manipulations.
`Complex.faces` is the one derivation of a cone's face lattice: a complex
built from its maximal cones is the union of theirs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .lattice import CACHE_SIZE, Vec, _dot, _dual_basis, cone_index, integer_vector, primitive, rank, rational_nullspace

ConeIds = frozenset


@dataclass(frozen=True)
class DualDescription:
    """H-representation of a cone: span equations and facet inequalities.

    A point x belongs to the cone iff every equation vanishes on x and
    every inequality is >= 0 on x.
    """

    equations: tuple[Vec, ...]
    inequalities: tuple[Vec, ...]

    def contains(self, x) -> bool:
        return all(_dot(e, x) == 0 for e in self.equations) and all(
            _dot(u, x) >= 0 for u in self.inequalities
        )


def cone_dual(gens, ambient_rank: int) -> DualDescription:
    """Dual description of the cone spanned by gens (no pointedness check).

    Memoised by the generator tuple and the rank: the dual is a pure
    function of them, so every complex holding the cone shares it.
    """
    return _cone_dual(tuple(tuple(g) for g in gens), _integer_rank(ambient_rank))


def _integer_rank(ambient_rank) -> int:
    """The ambient rank as an int; ValueError naming it unless it is
    equal to an integer (2.0 is 2, 2.5 raises)."""
    n = int(ambient_rank)
    if n != ambient_rank:
        raise ValueError(f"ambient rank {ambient_rank!r} is not an integer")
    return n


@lru_cache(maxsize=CACHE_SIZE)
def _cone_dual(gens: tuple, ambient_rank: int) -> DualDescription:
    """The equations are the nullspace of gens.  Independent generators
    span a simplicial cone, which has exactly one facet without each
    generator: its normals are their memoised dual basis
    (`_simplicial_normals`), and the nullspace is taken only when they
    span less than the ambient space.  Any other cone enumerates its
    facets."""
    basis = _dual_basis(gens)
    if basis is not None:
        equations = tuple(rational_nullspace(gens, n=ambient_rank)) if len(gens) < ambient_rank else ()
        return DualDescription(equations, _simplicial_normals(basis[1]))
    equations = tuple(rational_nullspace(gens, n=ambient_rank))
    d = ambient_rank - len(equations)
    seen = set()
    normals = []
    # every facet is spanned by d-1 independent generators lying on it; the
    # equations span the orthogonal complement of the cone's span, so sub and
    # the equations leave exactly one normal direction (up to sign) exactly
    # when sub has rank d-1
    for subset in combinations(range(len(gens)), d - 1) if d >= 1 else []:
        sub = [gens[i] for i in subset]
        candidates = rational_nullspace(sub + list(equations), n=ambient_rank)
        if len(candidates) != 1:
            continue
        u = candidates[0]
        vals = [_dot(u, g) for g in gens]
        if all(v >= 0 for v in vals) and any(v > 0 for v in vals):
            pass
        elif all(v <= 0 for v in vals) and any(v < 0 for v in vals):
            u = tuple(-c for c in u)
            vals = [-v for v in vals]
        else:
            continue
        zero_set = frozenset(i for i, v in enumerate(vals) if v == 0)
        if zero_set not in seen:
            seen.add(zero_set)
            normals.append(primitive(u))
    normals.sort()
    return DualDescription(equations, tuple(normals))


def _simplicial_normals(dual_rows) -> tuple[Vec, ...]:
    """Sorted facet normals of the cone over independent generators g_j,
    from the rows u_j of their dual basis (`lattice._dual_basis`).

    u_j lies in the span of the cone and u_j . g_i = D * [i == j] with
    D > 0: it vanishes on the facet that drops g_j, which spans the rest
    of the span, and is positive on g_j, so its primitive multiple is
    that facet's normal.
    """
    return tuple(sorted(primitive(u) for u in dual_rows))


def _extreme(gens, ambient_rank: int) -> tuple[int, ...]:
    """Indices of the extreme generators of a pointed cone, read off its
    dual: generator i is extreme exactly when the facets holding it hold no
    other generator.  (A generator in the cone of the others lies in the
    relative interior of a face that other generators span.)"""
    ineqs = cone_dual(gens, ambient_rank).inequalities
    zeros = [frozenset(k for k, u in enumerate(ineqs) if _dot(u, g) == 0) for g in gens]
    return tuple(
        i for i, z in enumerate(zeros)
        if not any(z <= w for j, w in enumerate(zeros) if j != i)
    )


def _require_length(x, ambient_rank: int):
    """ValueError unless the point x has the ambient rank's length."""
    if len(x) != ambient_rank:
        raise ValueError(f"point has {len(x)} entries, expected {ambient_rank}")


class Complex:
    """Immutable conical polyhedral complex in a fixed ambient lattice."""

    def __init__(self, ambient_rank: int, rays, cones):
        self.ambient_rank = _integer_rank(ambient_rank)
        self.rays: tuple[Vec, ...] = tuple(integer_vector(r) for r in rays)
        if any(len(r) != self.ambient_rank for r in self.rays):
            raise ValueError("ray length does not match ambient rank")
        cones = [frozenset(c) for c in cones]
        # the first unknown id in the given order of the cones is named
        unknown = next((i for c in cones for i in c if not 0 <= i < len(self.rays)), None)
        if unknown is not None:
            raise ValueError(f"cone references unknown ray id {unknown}")
        self.cones: frozenset[ConeIds] = frozenset(cones)
        self._dim_cache: dict[ConeIds, int] = {}
        self._gens: dict[ConeIds, tuple[Vec, ...]] = {}
        self._simplicial: bool | None = None
        self._maximal: tuple[ConeIds, ...] | None = None

    @classmethod
    def _derived(cls, parent, new_rays, removed, added, maximal, dims):
        """The complex made from `parent` by appending `new_rays` and
        replacing the cones `removed` by `added`, with `maximal` as its
        maximal cones in `_cone_order` and `dims` the dimensions of added
        cones; for complexes the package derives, never for outside input.

        Only the new rays are checked, as `__init__` checks rays: integer
        entries, the ambient length.  The parent's rank, rays and cone ids
        were checked when it was built, old ray ids never change, and an
        added cone holds old ids and ids of the new rays; so a kept cone
        keeps its dimension and its generator tuple, which are carried
        over from the parent's memos, and only the removed cones' are
        dropped.
        """
        new_rays = tuple(integer_vector(r) for r in new_rays)
        if any(len(r) != parent.ambient_rank for r in new_rays):
            raise ValueError("ray length does not match ambient rank")
        out = cls.__new__(cls)
        out.ambient_rank = parent.ambient_rank
        out.rays = parent.rays + new_rays
        out.cones = (parent.cones - removed) | added
        out._maximal, out._simplicial = maximal, None
        out._dim_cache, out._gens = dict(parent._dim_cache), dict(parent._gens)
        for cone in removed:
            out._dim_cache.pop(cone, None)
            out._gens.pop(cone, None)
        out._dim_cache.update(dims)
        return out

    # -- construction -------------------------------------------------

    @classmethod
    def from_maximal_cones(cls, ambient_rank, rays, maximal):
        """Build a complex from ray generators and maximal cones: the given
        cones, checked by `__init__` as a complex of their own, and every
        face of each (`faces`)."""
        given = cls(ambient_rank, rays, maximal)
        if any(not any(r) for r in given.rays):
            raise ValueError("zero ray")
        return cls(given.ambient_rank, given.rays, frozenset({frozenset()}).union(*map(given.faces, given.cones)))

    # -- basic queries -------------------------------------------------

    def generators(self, cone) -> tuple[Vec, ...]:
        """The rays of a cone in ascending id order, memoised per complex
        (and carried to a derived one, `_derived`)."""
        cone = frozenset(cone)
        gens = self._gens.get(cone)
        if gens is None:
            gens = self._gens[cone] = tuple(self.rays[i] for i in sorted(cone))
        return gens

    def dim(self, cone) -> int:
        """The dimension of a cone's span: the generator count when the
        generators are independent (they have a memoised dual basis,
        `lattice._dual_basis`), with no dual; else the ambient rank less
        the equations of the memoised dual.  Both memos are shared by
        every complex holding the cone."""
        cone = frozenset(cone)
        if cone not in self._dim_cache:
            gens = self.generators(cone)
            self._dim_cache[cone] = (
                len(gens) if _dual_basis(gens) is not None
                else self.ambient_rank - len(cone_dual(gens, self.ambient_rank).equations)
            )
        return self._dim_cache[cone]

    def dual(self, cone) -> DualDescription:
        return cone_dual(self.generators(cone), self.ambient_rank)

    def contains_point(self, cone, x) -> bool:
        _require_length(x, self.ambient_rank)
        return self.dual(cone).contains(x)

    @property
    def maximal_cones(self) -> tuple[ConeIds, ...]:
        """The cones that are no proper subset of another, in `_cone_order`.
        A proper superset of a nonzero cone holds each of its rays, so it
        is sought among the cones holding whichever of those rays the
        fewest cones hold (a ray -> cones index); the zero cone is maximal
        only when it is alone."""
        if self._maximal is None:
            at_ray: dict[int, list[ConeIds]] = {}
            for d in self.cones:
                for i in d:
                    at_ray.setdefault(i, []).append(d)

            def maximal(c):
                if not c:
                    return len(self.cones) == 1
                return not any(c < d for d in min((at_ray[i] for i in c), key=len))

            self._maximal = tuple(sorted(filter(maximal, self.cones), key=_cone_order))
        return self._maximal

    def faces(self, cone) -> frozenset[ConeIds]:
        """All faces of a cone, including itself and the zero face.  Not
        memoised, as a complex seldom asks twice.  A cone whose dimension
        is its size is simplicial, and every subset of its rays spans a
        face, so its faces are the subsets of its ray ids, read off the
        (often carried) dimension; other cones are peeled by memoised
        duals (`_peeled_faces`)."""
        order = sorted(cone)
        if self.dim(cone) == len(order):
            return frozenset(frozenset(s) for j in range(len(order) + 1) for s in combinations(order, j))
        raw = _peeled_faces(self.generators(order), self.ambient_rank)
        return frozenset(frozenset(order[i] for i in f) for f in raw)

    def facets(self, cone) -> tuple[ConeIds, ...]:
        """The faces of a cone one dimension below it, sorted by ray ids.

        Every subset of a simplicial cone's rays spans a face of its own
        size as dimension, so its facets are the cone minus one ray each
        (the zero cone has none), with no dual and no rank of a face.
        Other cones filter their face lattice by dimension.
        """
        cone = frozenset(cone)
        d = self.dim(cone)
        if d == len(cone):
            facets = (cone - {i} for i in cone)
        else:
            facets = (f for f in self.faces(cone) if self.dim(f) == d - 1)
        return tuple(sorted(facets, key=sorted))

    def minimal_cone_containing(self, x) -> ConeIds:
        """The carrier of x: the cone whose relative interior contains x.

        The first maximal cone whose dual holds x, cut down to the face where
        the facet inequalities vanishing at x vanish.  On a valid complex x
        lies in a cone exactly when its carrier is a face of it.
        """
        _require_length(x, self.ambient_rank)
        for sigma in self.maximal_cones:
            dd = self.dual(sigma)
            if dd.contains(x):
                tight = [u for u in dd.inequalities if _dot(u, x) == 0]
                return frozenset(
                    i for i in sigma if all(_dot(u, self.rays[i]) == 0 for u in tight)
                )
        raise ValueError("center not in support")

    # -- equality ------------------------------------------------------

    def _key(self):
        return (self.ambient_rank, self.rays, self.cones)

    def __eq__(self, other):
        return isinstance(other, Complex) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (
            f"Complex(rank={self.ambient_rank}, rays={len(self.rays)}, "
            f"cones={len(self.cones)}, maximal={len(self.maximal_cones)})"
        )


def _cone_order(cone):
    """The order of `Complex.maximal_cones`: by size, then by sorted ray ids."""
    return (len(cone), sorted(cone))


def _peeled_faces(gens, ambient_rank):
    """Face lattice by recursively peeling facets off via the dual
    description; each face of a finitely generated cone is spanned by the
    generators lying on it."""
    memo: dict[frozenset, None] = {}

    def walk(idxs: frozenset):
        if idxs in memo:
            return
        memo[idxs] = None
        if idxs:
            order = sorted(idxs)
            ineqs = cone_dual(tuple(gens[i] for i in order), ambient_rank).inequalities
            # a cone with no facets is its own span: only the zero face below
            for facet in [frozenset(i for i in order if _dot(u, gens[i]) == 0) for u in ineqs] or [frozenset()]:
                walk(facet)

    walk(frozenset(range(len(gens))))
    return frozenset(memo)


def same_complex(a: Complex, b: Complex) -> bool:
    """Geometric equality: same rank and the same cones (id-independent).

    Ray tables are bookkeeping and may carry unused entries (for id
    stability across derived complexes); only the cone geometry counts.
    """
    if a.ambient_rank != b.ambient_rank:
        return False
    ca = {frozenset(a.rays[i] for i in c) for c in a.cones}
    cb = {frozenset(b.rays[i] for i in c) for c in b.cones}
    return ca == cb


# ---------------------------------------------------------------------------
# validation


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self):
        if self.ok:
            return "valid"
        return "\n".join(self.violations)


def validate_complex(cx: Complex) -> ValidationReport:
    """Check the complex axioms and report every violation found.

    Checks, in order:

    - the rays are nonzero, primitive and distinct;
    - each maximal cone is pointed and its generators are extreme rays.
      That covers every cone: a subset of a pointed cone's generators
      spans a pointed cone, in which they stay extreme;
    - face closure, as one comparison: the cones must be the union of the
      maximal cones' face lattices, so a face missing from the complex and
      a cone that is a face of no maximal cone are both violations;
    - any two maximal cones meet in a common face.

    A pair sigma, tau with shared rays F passes when a separating form
    u = n_sigma - lambda * n_tau exists (`_separated`), where n is the sum
    of a cone's facet normals that vanish on F.  Such a u is > 0 on
    sigma's other rays, < 0 on tau's and 0 on F, so it is >= 0 on sigma
    and vanishes there only on the cone over F, since a point of sigma
    with u = 0 has no weight on any other ray; the same holds on tau with
    u <= 0.  So sigma & tau lies in sigma & ker u, which is the cone over
    F, a face of both (Fulton's separation lemma, *Introduction to Toric
    Varieties*, 1.2).  Only a pair with no such lambda is decided by the
    exact intersection (`_intersect_cones`).
    """
    report = ValidationReport()
    seen = {}
    for i, r in enumerate(cx.rays):
        if all(c == 0 for c in r):
            report.violations.append(f"ray {i} is zero")
            return report
        if primitive(r) != r:
            report.violations.append(f"ray {i} = {r} is not primitive")
        if r in seen:
            report.violations.append(f"rays {seen[r]} and {i} have equal generators {r}")
        seen[r] = i
    if report.violations:
        return report

    maximal = sorted(cx.maximal_cones, key=sorted)
    for c in maximal:
        if not c:
            continue
        dd = cx.dual(c)
        if rank(list(dd.equations) + list(dd.inequalities)) < cx.ambient_rank:
            report.violations.append(f"cone {sorted(c)} is not pointed")
            continue
        extreme = _extreme(cx.generators(c), cx.ambient_rank)
        for k, i in enumerate(sorted(c)):
            if k not in extreme:
                report.violations.append(
                    f"cone {sorted(c)}: generator {i} is not an extreme ray"
                )
    if report.violations:
        return report

    faces_of = {c: cx.faces(c) for c in maximal}  # read again by the pair test
    faces = frozenset().union(*faces_of.values())
    if faces != cx.cones:
        for c in maximal:
            for f in faces_of[c]:
                if f not in cx.cones:
                    report.violations.append(
                        f"face {sorted(f)} of cone {sorted(c)} missing from the complex"
                    )
        for c in sorted(cx.cones - faces, key=sorted):
            report.violations.append(f"cone {sorted(c)} is not a face of any maximal cone")

    for c1, c2 in combinations(cx.maximal_cones, 2):
        shared = c1 & c2
        if not (
            _separated(cx, c1, c2, shared)
            or (
                shared in faces_of[c1]
                and shared in faces_of[c2]
                and _intersect_cones(cx, c1, c2) == frozenset(cx.rays[i] for i in shared)
            )
        ):
            report.violations.append(
                f"cones {sorted(c1)} and {sorted(c2)} do not intersect in a common face"
            )
    return report


def _normal_sum(cx: Complex, cone, shared) -> tuple:
    """The sum of the cone's facet normals that vanish on the shared rays
    (the empty tuple, which dots to 0, when none does)."""
    normals = [u for u in cx.dual(cone).inequalities if all(_dot(u, cx.rays[i]) == 0 for i in shared)]
    return tuple(map(sum, zip(*normals)))


def _separated(cx: Complex, c1, c2, shared) -> bool:
    """Whether some lambda makes u = n1 - lambda * n2 positive on c1's rays
    outside the shared rays and negative on c2's (see `validate_complex`).

    n1 and n2 are `_normal_sum`s, so u vanishes on the shared rays.  A ray
    r of c1 with (a, b) = (n1 . r, n2 . r) asks a - lambda * b > 0, and a
    ray of c2 asks the same of (-a, -b): for b = 0 that is a > 0, else a
    bound a / b on lambda, from above when b > 0 and from below when b < 0.
    """
    n1, n2 = _normal_sum(cx, c1, shared), _normal_sum(cx, c2, shared)
    below, above = [], []
    for cone, sign in ((c1, 1), (c2, -1)):
        for i in cone - shared:
            a, b = sign * _dot(n1, cx.rays[i]), sign * _dot(n2, cx.rays[i])
            if b == 0 and a <= 0:
                return False
            if b:
                (above if b > 0 else below).append(Fraction(a, b))
    return not below or not above or max(below) < min(above)


def require_valid(cx: Complex) -> Complex:
    """cx itself; ValueError naming the first violation when it is invalid."""
    report = validate_complex(cx)
    if not report.ok:
        raise ValueError(f"invalid input complex: {report.violations[0]}")
    return cx


def _intersect_cones(cx: Complex, c1, c2) -> frozenset[Vec]:
    """Extreme rays (as primitive generators) of the exact intersection.

    The intersection C lies in the pointed cone c1, so it is pointed: its
    dual, which both cones' facet normals generate modulo the span of
    their equations, is full-dimensional, and its facets are C's extreme
    rays.  C = {0} gives no facet, and a ray gives one half-space.  C lies
    in the common nullspace W of the equations, so the dual is enumerated
    in W, in the coordinates y of a basis B of W (x = y . B): a facet
    normal u restricts to (u . B_j)_j, and each facet found there maps
    back through B.  W = {0} gives C = {0}; without equations B is the
    standard basis.
    """
    d1, d2 = cx.dual(c1), cx.dual(c2)
    normals = d1.inequalities + d2.inequalities
    basis = rational_nullspace(d1.equations + d2.equations, n=cx.ambient_rank)
    zero = (0,) * len(basis)
    restricted = sorted({tuple(_dot(u, b) for b in basis) for u in normals} - {zero})
    return frozenset(
        primitive([_dot(y, col) for col in zip(*basis)])
        for y in cone_dual(restricted, len(basis)).inequalities
    )


# ---------------------------------------------------------------------------
# subdivision check


@dataclass
class SubdivisionReport:
    ok: bool
    witnesses: list[str] = field(default_factory=list)
    # on success: (maximal cone of the coarse complex, its pieces), in order
    pieces: list = field(default_factory=list)

    def __bool__(self):
        return self.ok

    def __str__(self):
        return "subdivision" if self.ok else "; ".join(self.witnesses)


def _host_pieces(fine: Complex, coarse: Complex):
    """(sigma, pieces) for every maximal cone sigma of `coarse`, in order:
    the maximal cones of `fine` of sigma's dimension whose rays lie in
    sigma, in `fine.maximal_cones` order (geometric, so sound on any input)."""
    out = []
    for sigma in coarse.maximal_cones:
        d, dual = coarse.dim(sigma), coarse.dual(sigma)
        inside = frozenset(i for i, r in enumerate(fine.rays) if dual.contains(r))
        out.append((sigma, [c for c in fine.maximal_cones if fine.dim(c) == d and c <= inside]))
    return out


def is_subdivision(fine: Complex, coarse: Complex) -> SubdivisionReport:
    """Decide whether `fine` subdivides `coarse` (same support, refined
    cones): `_subdivision_report` on the pieces found geometrically."""
    return _subdivision_report(fine, coarse, _host_pieces(fine, coarse))


def _tiling_witnesses(fine: Complex, coarse: Complex, sigma, pieces) -> list[str]:
    """Why the given pieces, cones of `fine` inside sigma of its dimension,
    fail to tile sigma; [] if they do.  Every facet of a piece that lies in
    a facet of sigma must belong to one piece and every other facet to
    exactly two, and the generator sum of the first piece, a point of its
    relative interior, must lie in no other piece.  The last two conditions
    reject a multiple cover, whose pieces pair up across walls as well as
    a tiling's do.

    A facet of a piece lies in a facet of sigma exactly when that facet's
    inequality vanishes on all its rays, so the sets of sigma's facets
    through each ray are computed once and a piece's facet is on the
    boundary when its rays' sets intersect; the zero facet, with no rays,
    is on it when sigma has a facet.
    """
    if not pieces:
        return [f"cone {sorted(sigma)} is not covered"]
    witnesses = []
    ineqs = coarse.dual(sigma).inequalities
    every = frozenset(range(len(ineqs)))
    through = {
        i: frozenset(k for k, u in enumerate(ineqs) if _dot(u, fine.rays[i]) == 0)
        for i in set().union(*pieces)
    }
    facet_count: dict[frozenset, list] = {}  # facet -> [count, on the boundary]
    for p in pieces:
        for f in fine.facets(p):
            if f not in facet_count:
                facet_count[f] = [0, bool(every.intersection(*(through[i] for i in f)))]
            facet_count[f][0] += 1
    for f, (cnt, on_boundary) in sorted(facet_count.items(), key=lambda kv: sorted(kv[0])):
        where, expected = ("boundary", 1) if on_boundary else ("interior", 2)
        if cnt != expected:
            witnesses.append(
                f"{where} facet {sorted(f)} of host {sorted(sigma)} met {cnt} time(s), "
                f"expected {expected}"
            )
    point = tuple(map(sum, zip(*fine.generators(pieces[0]))))
    for q in pieces[1:]:
        if fine.contains_point(q, point):
            witnesses.append(
                f"interior point {point} of piece {sorted(pieces[0])} also lies in "
                f"piece {sorted(q)} of host {sorted(sigma)}"
            )
    return witnesses


def _subdivision_report(fine: Complex, coarse: Complex, pieces) -> SubdivisionReport:
    """Whether `fine` subdivides `coarse`, given which pieces fill which host.

    `pieces` lists (maximal cone of coarse, its pieces) for every maximal
    cone of coarse in order, as `_host_pieces` or the stars give them, and
    together the pieces must be the maximal cones of fine, each once; so a
    stray maximal cone of fine of lower dimension than its host is
    rejected.  An untouched host, its own only piece with the same
    generators, needs no test; every other host must hold its pieces, of
    its dimension, and be tiled by them (`_tiling_witnesses`).  So given
    the stars' pieces the geometry costs only the touched hosts.

    Sound on a valid coarse complex: pieces in different hosts meet only
    inside common faces of those hosts, so a piece lies in no host of its
    dimension but its own.
    """
    if fine.ambient_rank != coarse.ambient_rank:
        raise ValueError("ambient rank mismatch")
    listed = [p for _, ps in pieces for p in ps]
    if [s for s, _ in pieces] != list(coarse.maximal_cones) or not (
        len(listed) == len(fine.maximal_cones) and set(listed) == set(fine.maximal_cones)
    ):
        return SubdivisionReport(False, ["the pieces by host are not the maximal cones of the fine complex, each once"])
    for sigma, ps in pieces:
        if ps == [sigma] and fine.generators(sigma) == coarse.generators(sigma):
            continue
        d, dual = coarse.dim(sigma), coarse.dual(sigma)
        outside = {i for i in set().union(*ps) if not dual.contains(fine.rays[i])}
        for p in ps:
            if fine.dim(p) != d or p & outside:
                return SubdivisionReport(
                    False, [f"cone {sorted(p)} of the fine complex is not a piece of host {sorted(sigma)}"]
                )
        witnesses = _tiling_witnesses(fine, coarse, sigma, ps)
        if witnesses:
            return SubdivisionReport(False, witnesses)
    return SubdivisionReport(True, [], list(pieces))


def is_simplicial(cx: Complex) -> bool:
    """Every cone's generator count equals its dimension; memoised on the
    complex, which is immutable."""
    if cx._simplicial is None:
        cx._simplicial = all(len(c) == cx.dim(c) for c in cx.maximal_cones)
    return cx._simplicial


def is_smooth(cx: Complex) -> bool:
    """Simplicial and every maximal cone has lattice index 1."""
    if not is_simplicial(cx):
        return False
    return all(cone_index(cx.generators(c)) == 1 for c in cx.maximal_cones if c)
