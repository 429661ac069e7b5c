"""Piecewise-linear order functions as projectivity certificates.

An order function is stored as integer values on the rays of a
simplicial subdivision and interpolated linearly on each cone.  With
that representation positive homogeneity and continuity hold by
construction; what remains to check is lattice integrality and
convexity within each cone of the base complex.

Convexity is decided by exact bend arithmetic on interior walls: for a
wall F between pieces F+r1 and F+r2 there is a unique relation
(-a)*r1 + r2 = sum b_f * f with a < 0, and the bend quantity is

    D = (-a) * v(r1) + v(r2) - sum b_f * v(f)

The function is convex across the wall iff D >= 0 and bends strictly
iff D > 0.  Each wall's form is kept times the positive common
denominator of its relation, so every bend is an integer dot product
with D's sign.  (A centered subdivision's function dips the new ray below
the linear extension of the host values, which makes D positive.)

Integrality is decided by SNF congruences, one per elementary divisor
> 1 of each maximal cone, without listing lattice points.

Every parameterised order function has one representation: integer
forms (a_i, b_i), ray i valued x * a_i + y * b_i (`_place`).  A centered
subdivision takes x = scale / L and y = dip, the direct barycentric
function x = a and y = L / denom, and a fold m * outer + inner
x = m / d and y = 1.  One solver (`_solve`) builds the congruences and
the wall table (`_wall_forms`, one bend form per wall) once on a single
subdivision, computes the first admitted pair (`_lex_first`) and
verifies only the winner on that table, through the one strictness
predicate (`_strict_failure`).  The multiplier of a fold is read off the
same bend forms, affine in x.  Every check builds its wall table once;
a centered subdivision's hosts are checked (`_host_coordinates`).

Walls are found among the pieces of each base cone: the map a function
is built with (`_pieces`), which the stars return and a fold composes
(`subdivide._compose`); only a function made by hand has them found
geometrically.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import chain

from .complexes import (
    Complex,
    _extreme,
    _host_pieces,
    _subdivision_report,
    is_simplicial,
)
from .lattice import (
    CACHE_SIZE,
    _integer_solve,
    integer_vector,
    integrality_congruences,
    primitive,
    solve_in_basis,
)
from .subdivide import _compose, _stars

COMPOSITION_CAP = 2**20


class OrderFunction:
    """Integer ray values on a simplicial subdivision of a base complex."""

    _pieces = None  # its pieces by base cone when built here (`_pieces_by_base_cone`)

    def __init__(self, base: Complex, subdivision: Complex, ray_values):
        if not is_simplicial(subdivision):
            raise ValueError("not simplicial")
        if isinstance(ray_values, dict):
            if set(ray_values) != set(range(len(subdivision.rays))):
                raise ValueError("ray values must cover exactly the subdivision rays")
            vals = tuple(ray_values[i] for i in range(len(subdivision.rays)))
        else:
            vals = tuple(ray_values)
            if len(vals) != len(subdivision.rays):
                raise ValueError("ray values must cover exactly the subdivision rays")
        for v in vals:
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f"ray value {v!r} is not an integer")
        self.base = base
        self.subdivision = subdivision
        self.ray_values: tuple[int, ...] = vals

    def __eq__(self, other):
        return (
            isinstance(other, OrderFunction)
            and self.base == other.base
            and self.subdivision == other.subdivision
            and self.ray_values == other.ray_values
        )

    def __repr__(self):
        return f"OrderFunction(rays={len(self.ray_values)}, values={self.ray_values})"


def evaluate(ord_fn: OrderFunction, x):
    """Value at a rational point of the support (exact): one solve in the
    first maximal cone whose dual holds x."""
    x = tuple(Fraction(c) for c in x)
    sub = ord_fn.subdivision
    for c in sub.maximal_cones:
        if c and sub.contains_point(c, x):
            coeffs = solve_in_basis(sub.generators(c), x)
            return sum(a * ord_fn.ray_values[i] for a, i in zip(coeffs, sorted(c)))
    raise ValueError("point not in support")


@dataclass
class AxiomReport:
    """Outcome of checking the order-function axioms.

    Homogeneity and continuity hold by representation (values on rays,
    interpolated linearly on each cone), so they are not recorded;
    integrality and convexity are computed.  `strict` and `positive` are
    extra quality flags, not axioms.
    """

    integral: bool = True
    convex: bool = True
    strict: bool = True
    positive: bool = True
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.integral and self.convex

    def __bool__(self):
        return self.ok


def _pieces_by_base_cone(ord_fn: OrderFunction):
    """Maximal cones of the function's subdivision grouped by their base
    host cone: (sigma, its pieces in `subdivision.maximal_cones` order)
    for every maximal cone sigma of the base, in order: the map it was
    built with, or for a function made by hand `_host_pieces`."""
    return _host_pieces(ord_fn.subdivision, ord_fn.base) if ord_fn._pieces is None else ord_fn._pieces


def _carrying(ord_fn: OrderFunction, pieces) -> OrderFunction:
    """The function, built with the given pieces map over its base."""
    ord_fn._pieces = pieces
    return ord_fn


def _bend_form(sub: Complex, wall) -> dict:
    """The bend D across a wall times the positive denominator of the
    wall's relation, as an integer linear form {ray id: coefficient}.
    r2's coefficient is that denominator, so the form has D's sign and
    D is the form's value over form[r2]."""
    f, c1, r1, c2, r2 = wall
    basis_ids = sorted(c1)
    relation = _wall_relation(sub.generators(c1), sub.rays[r2])
    if relation is None:
        raise ValueError(f"wall {sorted(f)}: pieces do not span the same space")
    coeffs, den = relation
    alpha = coeffs[basis_ids.index(r1)]
    if not alpha < 0:
        raise ValueError(f"wall {sorted(f)}: pieces do not lie on opposite sides")
    form = {i: -a for a, i in zip(coeffs, basis_ids)}  # -alpha > 0 at r1
    form[r2] = den
    return form


@lru_cache(maxsize=CACHE_SIZE)
def _wall_relation(gens: tuple, other: tuple):
    """The coordinates of the other piece's ray in one piece's generators,
    as (integer numerators, their least positive common denominator), or
    None when the ray is outside their span.

    The integer solve gives the coordinates n_j / D; with
    g = gcd(D, n_1, ..., n_k) they are (n_j / g) / (D / g), and D / g is
    the lcm of their reduced denominators D / gcd(D, n_j).
    """
    solved = _integer_solve(gens, other)
    if solved is None:
        return None
    nums, D = solved
    g = math.gcd(D, *nums)
    return tuple(n // g for n in nums), D // g


def _wall_forms(sub: Complex, pieces):
    """The wall table: (base cone, wall, bend form) of every interior wall
    of the subdivision inside a base cone, from its pieces by base cone.
    A wall (f, c1, r1, c2, r2) is a codim-1 face f shared by exactly two
    pieces c1 = f + r1 and c2 = f + r2 of one base cone."""
    table = []
    for sigma, ps in pieces:
        if len(ps) < 2:  # a single piece has no interior wall
            continue
        by_facet: dict[frozenset, list] = {}
        for c in ps:
            for r in sorted(c):
                by_facet.setdefault(c - {r}, []).append((c, r))
        for f, owners in sorted(by_facet.items(), key=lambda kv: sorted(kv[0])):
            if len(owners) == 2:
                wall = (f, *owners[0], *owners[1])
                table.append((sigma, wall, _bend_form(sub, wall)))
    return table


def _apply(form: dict, values):
    """A linear form {ray id: coefficient} at the given ray values."""
    return sum(a * values[i] for i, a in form.items())


def _checked_walls(ord_fn: OrderFunction):
    """The wall table of the function's subdivision over its base, once
    `_subdivision_report` shows that the subdivision subdivides the base
    on its pieces by base cone; ValueError otherwise.  With the map it was
    built with, only the touched hosts are tested."""
    pieces = _pieces_by_base_cone(ord_fn)
    report = _subdivision_report(ord_fn.subdivision, ord_fn.base, pieces)
    if not report:
        raise ValueError(f"subdivision invariant violated: {report}")
    return _wall_forms(ord_fn.subdivision, pieces)


def verify_order_axioms(ord_fn: OrderFunction) -> AxiomReport:
    """Check integrality and per-base-cone convexity; report strictness.
    ValueError when the subdivision does not subdivide the base."""
    return _axiom_report(ord_fn, _checked_walls(ord_fn))


def _strict_failure(ord_fn: OrderFunction, walls):
    """None when the function is verified strict and positive across the
    given wall table (`_wall_forms`), its axiom report otherwise."""
    rep = _axiom_report(ord_fn, walls)
    return None if rep.ok and rep.strict and rep.positive else rep


def _axiom_report(ord_fn: OrderFunction, walls) -> AxiomReport:
    """The axioms of a function whose subdivision has the given wall table
    (`_wall_forms` of its pieces by base cone).

    Integrality is decided by the SNF rows (u, d) of every maximal cone
    (`integrality_congruences`): a function linear on the cone with
    integer values v at its generators is integral at every lattice point
    of the cone exactly when d divides u . v for every row.  A failing
    row names the fundamental-parallelepiped point with coordinates
    u / d mod 1, whose value is not an integer.
    """
    report = AxiomReport()
    sub = ord_fn.subdivision
    report.positive = all(v > 0 for v in ord_fn.ray_values)
    if not report.positive:
        report.violations.append("non-positive ray value")

    for c in sub.maximal_cones:
        gens = sub.generators(c)
        for u, d in integrality_congruences(gens) if c else ():
            t = [x % d for x in u]  # the parallelepiped point with coordinates t / d
            s = sum(a * ord_fn.ray_values[i] for a, i in zip(t, sorted(c)))
            if s % d:
                point = tuple(sum(a * g[j] for a, g in zip(t, gens)) // d for j in range(sub.ambient_rank))
                report.integral = False
                report.violations.append(
                    f"integrality fails at lattice point {point}: value {Fraction(s, d)}"
                )

    for sigma, wall, form in walls:
        d = _apply(form, ord_fn.ray_values)
        if d < 0:
            report.convex = False
            report.strict = False
            report.violations.append(
                f"convexity fails across wall {sorted(wall[0])} in cone {sorted(sigma)}: "
                f"bend {Fraction(d, form[wall[4]])}"
            )
        elif d == 0:
            report.strict = False
    return report


def linearity_domains(ord_fn: OrderFunction) -> Complex:
    """Coarsest subdivision of the base on which the function is linear.

    Pieces are merged across the flat walls of the wall table the axiom
    report read; with all bends strict the result equals the subdivision.
    On a convex function each merged class is the convex set where the
    function equals one linear form: the cone over its extreme rays.
    """
    walls = _checked_walls(ord_fn)
    report = _axiom_report(ord_fn, walls)
    if not report.ok:
        raise ValueError("order function axioms fail: " + "; ".join(report.violations))
    sub = ord_fn.subdivision
    parent = {c: c for c in sub.maximal_cones}

    def find(c):
        while parent[c] != c:
            parent[c] = c = parent[parent[c]]
        return c

    for _, (_, c1, _, c2, _), form in walls:
        if _apply(form, ord_fn.ray_values) == 0:
            parent[find(c1)] = find(c2)
    classes: dict[frozenset, set] = {}
    for c in sub.maximal_cones:
        classes.setdefault(find(c), set()).update(c)
    merged = [
        [ids[k] for k in _extreme(sub.generators(ids), sub.ambient_rank)]
        for ids in map(sorted, classes.values())
    ]
    return Complex.from_maximal_cones(sub.ambient_rank, sub.rays, merged)


def _place(forms, x: int, y: int) -> list:
    """The ray values x * a_i + y * b_i of the integer forms (a_i, b_i)."""
    return [x * a + y * b for a, b in forms]


def _pair(form: dict, forms):
    """A linear form {ray id: coefficient} at the values placed on the
    forms, as the (a, b) of its value x * a + y * b."""
    return sum(c * forms[i][0] for i, c in form.items()), sum(c * forms[i][1] for i, c in form.items())


def _affine_conditions(sub: Complex, forms, walls):
    """The order-function axioms for the values placed on the forms.

    Returns (rows, bends): integrality on every maximal cone is
    d | x * P + y * Q for each distinct SNF row (P, Q, d), with P and Q
    reduced mod d, and the bend across each wall of the given wall table
    (`_wall_forms`) is x * a + y * b for its (a, b).
    """
    rows = set()
    for c in sub.maximal_cones:
        for u, d in integrality_congruences(sub.generators(c)) if c else ():
            P, Q = _pair(dict(zip(sorted(c), u)), forms)
            rows.add((P % d, Q % d, d))
    return sorted(rows), [_pair(form, forms) for _, _, form in walls]


def _lex_first(rows, bounds, xs):
    """The first (x, y), x in the order of xs and then the least y, with
    d | x * P + y * Q for every row (P, Q, d) and x * a + y * b > 0 for
    every bound (a, b); None when there is none.  The xs are positive and
    some bound has b > 0.

    The bounds confine y / x to an open interval (lo, hi), or to nothing
    (a bound with b = 0 and a <= 0).  For each x the rows admit one
    residue class of y, or none, built row by row; its least member above
    x * lo is the answer when it lies below x * hi, both compared in
    integers through the bounds' numerators and denominators.
    """
    lo = max(Fraction(-a, b) for a, b in bounds if b > 0)
    hi = min((Fraction(a, -b) for a, b in bounds if b < 0), default=None)
    if any(b == 0 and a <= 0 for a, b in bounds) or (hi is not None and lo >= hi):
        return None
    for x in xs:
        r, m = 0, 1  # the admitted y are r mod m
        for P, Q, d in rows:
            # y = r + m * j: solve j * m * Q = -(x * P + r * Q) (mod d)
            g = math.gcd(m * Q, d)
            rhs = -(x * P + r * Q)
            if rhs % g:
                break
            j = rhs // g * pow(m * Q // g, -1, d // g)
            r, m = (r + m * j) % (m * d // g), m * d // g
        else:
            y = x * lo.numerator // lo.denominator + 1
            y += (r - y) % m
            if hi is None or y * hi.denominator < x * hi.numerator:
                return x, y
    return None


def _solve(base: Complex, sub: Complex, pieces, forms, bounds, x_cap, failure: str, chose):
    """(f, x, y) for the first (x, y) whose values x * a_i + y * b_i on the
    forms make a strict order function f on sub over base, whose pieces
    by base cone are given.

    `_lex_first` reads the pair off `_affine_conditions` and the extra
    bounds, x running up to x_cap; only the winner is placed and verified,
    against the same wall table.  x_cap None stands for the lcm of the
    rows' moduli, which caps nothing when no bound has b < 0, as in the
    direct barycentric solve (its bends are (a, 0), its bounds have
    b > 0): at x = lcm every row holds with y = 0, so the rows admit y in
    the residue class of 0, which has members above any x * lo.  The scan
    over 1..lcm is then exhaustive, and None comes only from
    `_lex_first`'s early exit (a bound with b = 0 and a <= 0).
    ValueError(failure) when no pair is admitted; RuntimeError naming
    chose(x, y) when it fails.
    """
    walls = _wall_forms(sub, pieces)
    rows, bends = _affine_conditions(sub, forms, walls)
    if x_cap is None:
        x_cap = math.lcm(*[d for _, _, d in rows])
    found = _lex_first(rows, bends + bounds, range(1, x_cap + 1))
    if found is None:
        raise ValueError(failure)
    winner = _carrying(OrderFunction(base, sub, _place(forms, *found)), pieces)
    rep = _strict_failure(winner, walls)
    if rep is not None:
        raise RuntimeError(f"{chose(*found)}, which fails verification: " + "; ".join(rep.violations))
    return winner, *found


def _host_coordinates(cx: Complex, center, host):
    """The center's coordinates in the generators of its host, when the
    host is a nonzero simplicial cone of cx whose relative interior holds
    the center (so the host is the center's carrier); None otherwise."""
    host = frozenset(host)
    if not host or host not in cx.cones or cx.dim(host) != len(host):
        return None
    coords = solve_in_basis(cx.generators(host), center)
    return coords if coords is not None and all(c > 0 for c in coords) else None


def _centered_forms(cx: Complex, centers_with_hosts):
    """(subdivision, its pieces over cx, value forms, L, L * q of each
    center).

    q is a center's coordinate sum in its minimal host, L the common
    denominator of every q.  At x = scale / L and y = dip an old ray's
    form (L, 0) values it at scale and a new center's (L * q, -1) at
    scale * q - dip; a center that was already a ray is not valued anew.
    A host that is not its center's carrier raises ValueError.
    """
    sums = []
    for center, host in centers_with_hosts:
        coords = _host_coordinates(cx, center, host)
        if coords is None:
            raise ValueError(f"host {list(host)} is not the carrier of center {tuple(center)}")
        sums.append(sum(coords))
    sub, pieces = _stars(cx, centers_with_hosts)
    L = math.lcm(*[q.denominator for q in sums])
    lq = [int(L * q) for q in sums]
    forms = [(L, 0)] * len(sub.rays)
    for (center, _), a in zip(centers_with_hosts, lq):
        rid = sub.rays.index(center)
        if rid >= len(cx.rays):
            forms[rid] = (a, -1)
    return sub, pieces, forms, L, lq


def centered_order_function(cx: Complex, centers_with_hosts, scale: int, dip: int):
    """Order function for the simultaneous centered subdivision.

    Old rays get the value `scale`; each new center ray gets
    scale * (coordinate sum in its minimal host) - dip.  Returns None
    when some value fails to be a positive integer: L does not divide
    the scale, or a new ray's value is not positive.
    """
    sub, pieces, forms, L, _ = _centered_forms(cx, centers_with_hosts)
    if scale % L:
        return None
    values = _place(forms, scale // L, dip)
    if any(v <= 0 for v, (_, b) in zip(values, forms) if b):
        return None
    return _carrying(OrderFunction(cx, sub, values), pieces)


def search_centered_order_function(cx: Complex, centers_with_hosts):
    """Smallest verified (scale, dip) for a simultaneous centered subdivision.

    The winner is the strict (scale, dip) that is first in the order of
    scales and then dips, which keeps certificates small and reproducible.
    It is solved (`_solve`) in x = scale / L and y = dip on the forms of
    `_centered_forms`, with scale <= COMPOSITION_CAP and the positive values
    as the bounds dip >= 1 and dip < scale * min q (no upper bound for
    an empty batch, which is solved like any other).
    """
    sub, pieces, forms, L, lq = _centered_forms(cx, centers_with_hosts)
    bounds = [(0, 1)] + ([(min(lq), -1)] if lq else [])
    winner, x, dip = _solve(
        cx, sub, pieces, forms, bounds, COMPOSITION_CAP // L,
        f"scale insufficient: no strict (scale, dip) with scale <= composition_cap={COMPOSITION_CAP}",
        lambda x, y: f"centered solve chose (scale={L * x}, dip={y})",
    )
    return winner, L * x, dip


def star_order_function(cx: Complex, center, scale: int) -> OrderFunction:
    """Order function certifying the subdivision centered at one ray.

    Old rays are valued at `scale`; the center ray one below the linear
    extension of those values at the center.  The construction is
    verified rather than trusted: any axiom failure (non-integral value,
    non-positive value, flat or broken bend) raises.
    """
    if not is_simplicial(cx):
        raise ValueError("not simplicial")
    c = integer_vector(center)
    p = primitive(c)
    if p != c:
        warnings.warn(f"star center {c} normalized to primitive {p}")
    center = p
    host = cx.minimal_cone_containing(center)  # raises outside the support
    # a center that is a ray stars nothing (`star_subdivide`): all at scale
    ord_fn = centered_order_function(cx, [(center, host)], scale, 1)
    if ord_fn is None:
        raise ValueError("scale insufficient")
    rep = _strict_failure(ord_fn, _wall_forms(ord_fn.subdivision, _pieces_by_base_cone(ord_fn)))
    if rep is not None:
        raise ValueError("scale insufficient: " + "; ".join(rep.violations))
    return ord_fn


def compose_order_functions(outer: OrderFunction, inner: OrderFunction) -> OrderFunction:
    """Chain two verified strict order functions into one on the composite
    subdivision: the fold m * outer + inner, with m chosen by `fold`."""
    composite, _ = compose_with_multiplier(outer, inner)
    return composite


def compose_with_multiplier(outer: OrderFunction, inner: OrderFunction):
    """compose_order_functions, also returning the multiplier M.  Each
    function's subdivision must subdivide its base (`_checked_walls`)."""
    if outer.subdivision != inner.base:
        raise ValueError("composition mismatch: outer subdivision is not the inner base")
    for name, f in (("outer", outer), ("inner", inner)):
        if _strict_failure(f, _checked_walls(f)) is not None:
            raise ValueError(f"{name} order function is not verified strict")
    return fold(outer, inner)


def fold(outer: OrderFunction, inner: OrderFunction):
    """The order function m * outer + inner on inner's subdivision, and m.

    Inner lives on outer's subdivision, and the fold's pieces over outer's
    base are outer's composed with inner's (`_compose`).  Outer's value at
    a ray of its own subdivision is the stored value; at each other ray of
    inner's it is solved once in the maximal cone of outer's subdivision
    whose pieces hold the ray.  The fold's values are integers exactly
    when m is a multiple of d, the common denominator of outer at inner's
    rays.  Outer and inner must be verified integral, positive and
    strictly convex; then the fold is integral and positive for every
    such m, and its bend across each wall is m * B_outer + B_inner, the
    wall's bend form at outer's and at inner's values.  m is the first of
    d, 2d, 4d, ... that makes every bend positive, so nothing is verified
    again.
    """
    mid, sub = outer.subdivision, inner.subdivision
    stored = dict(zip(mid.rays, outer.ray_values))
    host = {}  # each other ray of sub -> a maximal cone of mid holding it
    inner_pieces = _pieces_by_base_cone(inner)
    pieces = _compose(_pieces_by_base_cone(outer), inner_pieces)
    for sigma, ps in inner_pieces:
        if ps != [sigma]:
            for r in chain.from_iterable(ps):
                if sub.rays[r] not in stored:
                    host.setdefault(r, sigma)
    evals = []
    for r, g in enumerate(sub.rays):
        if g in stored:
            evals.append(stored[g])
        elif r in host:
            coeffs = solve_in_basis(mid.generators(host[r]), g)
            evals.append(sum(a * outer.ray_values[i] for a, i in zip(coeffs, sorted(host[r]))))
        else:  # a ray in no cone
            evals.append(evaluate(outer, g))
    d = math.lcm(*[e.denominator for e in evals])
    forms = [(int(d * e), v) for e, v in zip(evals, inner.ray_values)]
    # each wall's (d * B_outer, B_inner), both times its positive denominator
    bends = [_pair(form, forms) for _, _, form in _wall_forms(sub, pieces)]
    t = 1
    while t * d <= COMPOSITION_CAP:
        if all(t * b_outer + b_inner > 0 for b_outer, b_inner in bends):
            return _carrying(OrderFunction(outer.base, sub, _place(forms, t, 1)), pieces), t * d
        t *= 2
    raise ValueError(
        f"composition cap exceeded: no strict multiplier m <= composition_cap={COMPOSITION_CAP}"
    )
