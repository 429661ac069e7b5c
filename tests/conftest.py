"""Shared builders and independent oracles for the test suite."""

import importlib.util
import math
import sys
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path
from unittest import mock

import pytest

from equifan.complexes import Complex
from equifan.lattice import solve_in_basis

# permutation / sign matrices used as candidate group generators
SWAP2 = ((0, 1), (1, 0))
ROT2 = ((0, -1), (1, 0))
NEG2 = ((-1, 0), (0, -1))
CYC3 = ((0, 0, 1), (1, 0, 0), (0, 1, 0))
SWAP3_01 = ((0, 1, 0), (1, 0, 0), (0, 0, 1))
SWAP3_12 = ((1, 0, 0), (0, 0, 1), (0, 1, 0))
REFLECT_X = ((-1, 0), (0, 1))


def orthant(d):
    rays = [tuple(1 if i == j else 0 for j in range(d)) for i in range(d)]
    return Complex.from_maximal_cones(d, rays, [list(range(d))])


def p2_fan():
    return Complex.from_maximal_cones(2, [(1, 0), (0, 1), (-1, -1)], [[0, 1], [1, 2], [2, 0]])


def complete_2d_fan():
    return Complex.from_maximal_cones(
        2, [(1, 0), (0, 1), (-1, 0), (0, -1)], [[0, 1], [1, 2], [2, 3], [3, 0]]
    )


def singular_cone_2d(r):
    return Complex.from_maximal_cones(2, [(1, 0), (1, r)], [[0, 1]])


def quadrant_and_ray():
    """The quadrant and the opposite ray: REFLECT_X permutes the rays but
    carries the quadrant onto no cone."""
    return Complex.from_maximal_cones(2, [(1, 0), (0, 1), (-1, 0)], [[0, 1], [2]])


def square_cone():
    return Complex.from_maximal_cones(
        3, [(1, 1, 1), (-1, 1, 1), (-1, -1, 1), (1, -1, 1)], [[0, 1, 2, 3]]
    )


def skew_quad_cone():
    return Complex.from_maximal_cones(
        3, [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 2)], [[0, 1, 2, 3]]
    )


def pentagon_cone():
    return Complex.from_maximal_cones(
        3,
        [(1, 0, 1), (0, 1, 1), (-1, 1, 1), (-1, -1, 1), (1, -1, 1)],
        [[0, 1, 2, 3, 4]],
    )


def corpus():
    """The 20-complex corpus used by the cross-construction criteria."""
    from equifan.subdivide import barycentric_subdivision

    cases = [
        ("ray-1d", Complex.from_maximal_cones(1, [(1,)], [[0]])),
        ("orthant-2", orthant(2)),
        ("orthant-3", orthant(3)),
        ("orthant-4", orthant(4)),
        ("p2-fan", p2_fan()),
        ("complete-2d", complete_2d_fan()),
        ("singular-r2", singular_cone_2d(2)),
        ("singular-r3", singular_cone_2d(3)),
        ("singular-r5", singular_cone_2d(5)),
        (
            "two-cones-shared-ray",
            Complex.from_maximal_cones(2, [(1, 0), (1, 2), (0, 1)], [[0, 1], [1, 2]]),
        ),
        ("square-cone", square_cone()),
        ("skew-quad-cone", skew_quad_cone()),
        (
            "singular-3d",
            Complex.from_maximal_cones(3, [(1, 0, 0), (0, 1, 0), (1, 1, 2)], [[0, 1, 2]]),
        ),
        (
            "two-3-cones",
            Complex.from_maximal_cones(
                3,
                [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)],
                [[0, 1, 2], [0, 1, 3]],
            ),
        ),
        (
            "weighted-p112",
            Complex.from_maximal_cones(2, [(1, 0), (0, 1), (-1, -2)], [[0, 1], [1, 2], [2, 0]]),
        ),
        (
            "mixed-dim",
            Complex.from_maximal_cones(2, [(1, 0), (0, 1), (-1, -3)], [[0, 1], [2]]),
        ),
        (
            "opposite-cones",
            Complex.from_maximal_cones(2, [(1, 0), (0, 1), (-1, 0), (0, -1)], [[0, 1], [2, 3]]),
        ),
        (
            "cone-plus-flap",
            Complex.from_maximal_cones(
                3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0)], [[0, 1, 2], [0, 3]]
            ),
        ),
        ("pentagon-cone", pentagon_cone()),
        ("subdivided-orthant", barycentric_subdivision(orthant(2))),
    ]
    assert len(cases) == 20
    return cases


def perfbench_workloads():
    """The benchmark's corpus module, loaded from `perfbench/workloads.py`
    (the benchmark directory is not a package)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    with mock.patch.dict(sys.modules, {spec.name: workloads}):  # for its dataclass
        spec.loader.exec_module(workloads)
    return workloads


def candidate_actions(cx):
    """Candidate symmetry groups whose action on cx actually verifies."""
    from equifan.groups import generate_group, verify_action

    if cx.ambient_rank == 2:
        candidates = [("swap", [SWAP2])]
    elif cx.ambient_rank == 3:
        candidates = [("3-cycle", [CYC3]), ("s3", [CYC3, SWAP3_01])]
    else:
        candidates = []
    out = []
    for name, gens in candidates:
        elements = generate_group(gens)
        if verify_action(cx, elements).ok:
            out.append((name, elements))
    return out


# ---------------------------------------------------------------------------
# independent oracles


def random_action_pairs(rng, count, require_strict=False):
    """Deterministic stream of (complex, verified action) pairs.

    With require_strict the stream yields only pairs whose action passes
    the strictness check; a barycentric step guarantees a steady supply.
    """
    from equifan.groups import check_G_strict, generate_group, verify_action
    from equifan.lattice import primitive
    from equifan.subdivide import barycentric_subdivision

    pairs = []
    attempts = 0
    while len(pairs) < count and attempts < 40 * count:
        attempts += 1
        rank = rng.choice([2, 3])
        if rank == 2:
            base = rng.choice([orthant(2), complete_2d_fan()])
            gens = rng.choice([[SWAP2], [ROT2], [NEG2], [SWAP2, NEG2]])
        else:
            base = orthant(3)
            gens = rng.choice([[CYC3], [SWAP3_01], [SWAP3_12], [CYC3, SWAP3_01]])
        elements = generate_group(gens)
        if not verify_action(base, elements).ok:
            continue
        cx = base
        steps = ["barycentric"] if rng.random() < 0.7 else []
        steps += [rng.choice(["none", "barycentric", "orbit-star"]) for _ in range(rng.randint(0, 2))]
        for step in steps:
            if step == "barycentric":
                if len(cx.maximal_cones) > 12:
                    continue  # keep the corpus at desk scale
                cx = barycentric_subdivision(cx)
            elif step == "orbit-star":
                mcs = sorted(cx.maximal_cones, key=sorted)
                mc = mcs[rng.randrange(len(mcs))]
                weights = [rng.randint(1, 3) for _ in mc]
                pt = primitive(
                    tuple(
                        sum(w * g[j] for w, g in zip(weights, cx.generators(mc)))
                        for j in range(cx.ambient_rank)
                    )
                )
                try:
                    cx = orbit_star_subdivide(cx, pt, elements)
                except ValueError:
                    continue
        if not verify_action(cx, elements).ok:
            continue
        if require_strict and not check_G_strict(cx, elements).ok:
            continue
        pairs.append((cx, elements))
    return pairs


def point_orbit(point, elements):
    """Orbit of a lattice point under the matrices, sorted."""
    from equifan.lattice import mat_vec

    return tuple(sorted({mat_vec(m, tuple(point)) for m in elements}))


def simultaneous_star(cx, centers):
    """Star subdivision at several centers, no two of which share a cone
    (ValueError "orbit not simultaneous-safe" from
    `reference_check_simultaneous` otherwise), in sorted order."""
    from equifan.subdivide import star_subdivide

    centers = sorted({tuple(int(v) for v in c) for c in centers})
    reference_check_simultaneous(cx, [cx.minimal_cone_containing(c) for c in centers])
    for c in centers:
        cx = star_subdivide(cx, c)
    return cx


def orbit_star_subdivide(cx, center, elements):
    """Star subdivision at the whole orbit of a center, simultaneously."""
    from equifan.groups import group_action

    group_action(cx, elements)  # raises when the action is invalid
    return simultaneous_star(cx, point_orbit(center, elements))


def box_parallelepiped_points(gens):
    """Brute-force oracle: scan integer points of the bounding box.

    Enumerates the half-open parallelepiped {sum a_i g_i : 0 <= a_i < 1}
    by exact membership tests on every lattice point of the box spanned
    by the 0/1-corner sums.
    """
    gens = [tuple(g) for g in gens]
    n = len(gens[0])
    corners = [
        tuple(sum(eps[i] * gens[i][j] for i in range(len(gens))) for j in range(n))
        for eps in product((0, 1), repeat=len(gens))
    ]
    lo = [min(c[j] for c in corners) for j in range(n)]
    hi = [max(c[j] for c in corners) for j in range(n)]
    found = []
    for point in product(*[range(lo[j], hi[j] + 1) for j in range(n)]):
        coeffs = solve_in_basis(tuple(gens), point)
        if coeffs is None:
            continue
        if all(0 <= a < 1 for a in coeffs) and any(a > 0 for a in coeffs):
            found.append((tuple(point), tuple(coeffs)))
    found.sort(key=lambda pc: pc[1])
    return found


def reference_eliminate(rows, ncols):
    """The former elimination: Gauss-Jordan on Fraction rows in place, over
    the first ncols columns; returns the pivot columns, pivot j sitting in
    row j.  Pivot rows keep their pivot entry (they are not scaled to 1)."""
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col] / rows[r][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
    return pivots


def reference_rational_nullspace(vectors, n):
    """The former rational_nullspace, on reference_eliminate."""
    rows = [[Fraction(c) for c in v] for v in vectors]
    pivots = reference_eliminate(rows, n)
    basis = []
    for fc in sorted(set(range(n)) - set(pivots)):
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for row, col in enumerate(pivots):
            vec[col] = -rows[row][fc] / rows[row][col]
        denom = math.lcm(*[f.denominator for f in vec])
        ints = [int(f * denom) for f in vec]
        g = math.gcd(*ints)
        basis.append(tuple(c // g for c in ints))
    return basis


def reference_solve_in_basis(gens, x):
    """The former solve_in_basis, on reference_eliminate."""
    k = len(gens)
    rows = [[Fraction(g[j]) for g in gens] + [Fraction(xj)] for j, xj in enumerate(x)]
    if len(reference_eliminate(rows, k)) < k:
        raise ValueError("not simplicial")
    if any(row[k] != 0 for row in rows[k:]):
        return None
    return tuple(rows[j][k] / rows[j][j] for j in range(k))


def reference_wall_relation(gens, other):
    """The former `orderfun._wall_relation`: a Fraction solve (here on
    reference_eliminate), then the lcm of the reduced denominators."""
    coeffs = reference_solve_in_basis(gens, other)
    if coeffs is None:
        return None
    den = math.lcm(*[c.denominator for c in coeffs])
    return tuple(int(c * den) for c in coeffs), den


def reference_det(m):
    """The former det: Bareiss elimination of a square integer matrix."""
    a = [list(r) for r in m]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


# references for the dual-basis kernel, as it was before independent
# generators were eliminated once: a dimension from the dual's equations,
# a face lattice on it, and a unimodular test by determinant


def reference_dim(gens, ambient_rank):
    """A cone's dimension: the ambient rank less its dual's equations."""
    return ambient_rank - len(reference_cone_dual(gens, ambient_rank).equations)


def reference_raw_faces(gens, ambient_rank):
    """The power set when the dimension is the generator count, else peeled."""
    from equifan.complexes import _peeled_faces

    k = len(gens)
    if reference_dim(gens, ambient_rank) == k:
        return frozenset(frozenset(s) for j in range(k + 1) for s in combinations(range(k), j))
    return _peeled_faces(gens, ambient_rank)


def reference_from_maximal_cones(ambient_rank, rays, maximal):
    """`Complex.from_maximal_cones` as it was before it built through
    `Complex.faces`: its own checks of the rank, the rays and the ids, then
    the face lattice of each given cone that is not already a face of an
    earlier one, the power set when its generators have a dual basis and
    else peeled."""
    from equifan.complexes import _integer_rank, _peeled_faces
    from equifan.lattice import _dual_basis, integer_vector

    ambient_rank = _integer_rank(ambient_rank)
    rays = tuple(integer_vector(r) for r in rays)
    maximal = [frozenset(c) for c in maximal]
    if any(len(r) != ambient_rank for r in rays):
        raise ValueError("ray length does not match ambient rank")
    for c in maximal:
        for i in c:
            if not (0 <= i < len(rays)):
                raise ValueError(f"cone references unknown ray id {i}")
    for r in rays:
        if all(c == 0 for c in r):
            raise ValueError("zero ray")
    cones = {frozenset()}
    for c in maximal:
        if c in cones:
            continue
        order = sorted(c)
        gens = tuple(rays[i] for i in order)
        k = len(gens)
        if _dual_basis(gens) is not None:
            raw = frozenset(frozenset(s) for j in range(k + 1) for s in combinations(range(k), j))
        else:
            raw = _peeled_faces(gens, ambient_rank)
        cones.update(frozenset(order[i] for i in f) for f in raw)
    return Complex(ambient_rank, rays, cones)


def reference_maximal_cones(cx):
    """`Complex.maximal_cones` as it was before it used a ray -> cones
    index: every cone tested against every other, in `_cone_order`."""
    from equifan.complexes import _cone_order

    return tuple(sorted((c for c in cx.cones if not any(c < d for d in cx.cones)), key=_cone_order))


def reference_simplicial_snf(gens):
    """_simplicial_snf with the unimodular test det(G) = +-1, else the
    checked SNF, whose divisors must all be nonzero."""
    from equifan.lattice import identity_matrix, smith_normal_form

    k = len(gens)
    n = len(gens[0]) if gens else 0
    if k > n:
        raise ValueError("not simplicial")
    if k == n and reference_det(gens) in (1, -1):
        return (1,) * k, identity_matrix(k)
    D, U, _ = smith_normal_form(gens)
    divs = tuple(D[i][i] for i in range(k)) if k <= min(len(D), n) else ()
    if len(divs) < k or any(d == 0 for d in divs):
        raise ValueError("not simplicial")
    return divs, U


class ReferenceBudgetExceeded(Exception):
    """The reference scan was stopped after its candidate budget."""


def reference_search_centered(cx, centers_with_hosts, scale_cap=2**20, max_candidates=None):
    """Brute-force oracle for search_centered_order_function.

    Builds and fully verifies every candidate: scales in increasing order
    and, for each, dips in increasing order; the first candidate passing
    the axiom check with strict bends wins.  With max_candidates set, a
    scan that would verify more candidates raises ReferenceBudgetExceeded.
    """
    from equifan.orderfun import centered_order_function, verify_order_axioms

    tried = 0

    if not centers_with_hosts:
        return centered_order_function(cx, [], 1, 1), 1, 1
    coord_sums = [
        sum(solve_in_basis(cx.generators(host), center))
        for center, host in centers_with_hosts
    ]
    for scale in range(1, scale_cap + 1):
        qs = [scale * q for q in coord_sums]
        if any(q.denominator != 1 for q in qs):
            continue
        for dip in range(1, int(min(qs))):
            tried += 1
            if max_candidates is not None and tried > max_candidates:
                raise ReferenceBudgetExceeded(f"no winner among {max_candidates} candidates")
            cand = centered_order_function(cx, centers_with_hosts, scale, dip)
            if cand is None:
                continue
            rep = verify_order_axioms(cand)
            if rep.ok and rep.strict and rep.positive:
                return cand, scale, dip
    raise ValueError("scale insufficient")


def reference_fold(outer, inner, cap=2**20):
    """Brute-force oracle for fold's multiplier: each of d, 2d, 4d, ... is
    folded and fully verified until one passes with strict bends."""
    from equifan.orderfun import OrderFunction, evaluate, verify_order_axioms

    sub = inner.subdivision
    evals = [evaluate(outer, g) for g in sub.rays]
    m = math.lcm(*[e.denominator for e in evals])
    while m <= cap:
        values = [int(m * e) + v for e, v in zip(evals, inner.ray_values)]
        cand = OrderFunction(outer.base, sub, values)
        rep = verify_order_axioms(cand)
        if rep.ok and rep.strict and rep.positive:
            return cand, m
        m *= 2
    raise ValueError("composition cap exceeded")


def _cone_relations(cx):
    """Linear relations among the rays of each non-simplicial maximal cone,
    as rows over all ray ids."""
    from equifan.lattice import rational_nullspace, transpose

    rows = []
    for c in cx.maximal_cones:
        ids = sorted(c)
        if len(ids) == cx.dim(c):
            continue
        for z in rational_nullspace(transpose(cx.generators(c)), n=len(ids)):
            row = [0] * len(cx.rays)
            for zi, rid in zip(z, ids):
                row[rid] = zi
            rows.append(tuple(row))
    return rows


def reference_base_values(cx, bound_cap=5):
    """Brute-force oracle for the direct construction's base values: the
    first positive vector of the space linear on every cone, trying basis
    coefficients in [-b, b] for b = 1..bound_cap."""
    from equifan.lattice import rational_nullspace

    nrays = len(cx.rays)
    relations = _cone_relations(cx)
    if not relations:
        return tuple(1 for _ in range(nrays))
    basis = rational_nullspace(relations, n=nrays)
    for bound in range(1, bound_cap + 1):
        for combo in product(range(-bound, bound + 1), repeat=len(basis)):
            y = [sum(c * b[i] for c, b in zip(combo, basis)) for i in range(nrays)]
            if all(v > 0 for v in y):
                return tuple(y)
    raise ReferenceBudgetExceeded(f"no positive base values with coefficients <= {bound_cap}")


def reference_direct_barycentric(cx, bcx, y, dip_cap=64, scale_steps=64, max_candidates=None):
    """Brute-force oracle for direct_barycentric_order_function on base
    values y: for a = 1, 2, ... < dip_cap, the scale_steps admissible scales
    L from the least positive one are each built and fully verified; the
    first to pass with strict bends wins.  A scan that would verify more
    than max_candidates candidates raises ReferenceBudgetExceeded."""
    from equifan.orderfun import OrderFunction, verify_order_axioms
    from equifan.subdivide import _barycentric_cascade, _barycentric_sources

    base_val, dims = [], []
    for host in _barycentric_sources(cx, bcx, _barycentric_cascade(cx)):
        total = tuple(sum(col) for col in zip(*cx.generators(host)))
        base_val.append(Fraction(sum(y[i] for i in host), math.gcd(*map(abs, total))))
        dims.append(cx.dim(host))
    denom = math.lcm(*[v.denominator for v in base_val])
    tried = 0
    for a in range(1, dip_cap):
        lmin = max((a * (2**dim - 1) + 1) / v for v, dim in zip(base_val, dims))
        lstart = denom * math.ceil(lmin / denom)
        for scale in range(lstart, lstart + scale_steps * denom, denom):
            tried += 1
            if max_candidates is not None and tried > max_candidates:
                raise ReferenceBudgetExceeded(f"no winner among {max_candidates} candidates")
            values = [int(scale * v) - a * (2**dim - 1) for v, dim in zip(base_val, dims)]
            cand = OrderFunction(cx, bcx, values)
            rep = verify_order_axioms(cand)
            if rep.ok and rep.strict and rep.positive:
                return cand, scale, a
    raise ReferenceBudgetExceeded("no strict (L, a) in the reference window")


def reference_linearity_matches_final(input_cx, final, composite):
    """The certificate flag `ord_linearity_matches_final` derived the long
    way: verify the axioms on the geometric pieces, merge the pieces
    across every flat wall into linearity domains (each merged region
    must be a cone on which the function is linear), rebuild the domains
    as a complex and compare it with final."""
    from equifan.complexes import _extreme, is_subdivision, same_complex
    from equifan.orderfun import _apply, _axiom_report, _wall_forms

    pieces = is_subdivision(final, input_cx).pieces
    walls = _wall_forms(final, pieces)
    if not _axiom_report(composite, walls).ok:
        return False
    parent = {}

    def find(c):
        while parent.get(c, c) != c:
            parent[c] = parent.get(parent[c], parent[c])
            c = parent[c]
        return c

    for _, wall, form in walls:
        if _apply(form, composite.ray_values) == 0:
            ra, rb = find(wall[1]), find(wall[3])
            if ra != rb:
                parent[max(ra, rb, key=sorted)] = min(ra, rb, key=sorted)
    groups = {}
    for p in (p for _, ps in pieces for p in ps):
        groups.setdefault(find(p), []).append(p)
    merged = []
    for comp in groups.values():
        if len(comp) == 1:
            merged.append(sorted(comp[0]))
            continue
        ray_ids = sorted(set().union(*comp))
        basis_ids = sorted(comp[0])
        for i in ray_ids:
            coeffs = solve_in_basis(final.generators(comp[0]), final.rays[i])
            if coeffs is None or sum(
                a * composite.ray_values[j] for a, j in zip(coeffs, basis_ids)
            ) != composite.ray_values[i]:
                raise ValueError("non-convex linearity domain")
        merged.append([ray_ids[k] for k in _extreme(final.generators(ray_ids), final.ambient_rank)])
    domains = Complex.from_maximal_cones(final.ambient_rank, final.rays, merged)
    return same_complex(domains, final)


def subset_faces_oracle(cx, cone):
    """Faces of a simplicial cone are exactly the subsets of its rays."""
    cone = sorted(cone)
    return {frozenset(sub) for k in range(len(cone) + 1) for sub in combinations(cone, k)}


def interior_point(cx, cone, weights=None):
    """A rational point in the relative interior of a cone."""
    ids = sorted(cone)
    if weights is None:
        weights = [1] * len(ids)
    gens = cx.generators(cone)
    return tuple(
        sum(Fraction(w) * g[j] for w, g in zip(weights, gens))
        for j in range(cx.ambient_rank)
    )


# ---------------------------------------------------------------------------
# geometric references for the carrier rule: every containment decided by
# a cone's dual or by trial solves, as before the carrier was the one
# point location


def reference_minimal_cone_containing(cx, x):
    """The first cone, by (dimension, sorted ray ids), whose dual holds x."""
    for c in sorted(cx.cones, key=lambda c: (cx.dim(c), sorted(c))):
        if cx.contains_point(c, x):
            return c
    raise ValueError("center not in support")


def reference_star_subdivide(cx, center):
    """star_subdivide testing the center against every cone's dual."""
    from equifan.lattice import primitive

    center = primitive(center)
    if not any(cx.contains_point(c, center) for c in cx.maximal_cones):
        raise ValueError("center not in support")
    if center in cx.rays:
        return cx
    new_id = len(cx.rays)
    cones = {c for c in cx.cones if not cx.contains_point(c, center)}
    for sigma in cx.maximal_cones:
        if cx.contains_point(sigma, center):
            for f in cx.faces(sigma):
                if not cx.contains_point(f, center):
                    cones.add(f | {new_id})
    return Complex(cx.ambient_rank, cx.rays + (center,), cones)


def reference_stars(cx, centers_with_carriers):
    """The stars of `subdivide._stars` taken one at a time, each built as a
    new complex from its cones: a carrier that is still a cone is taken
    unchecked, any other is located again, and a center that is a ray
    must be its own carrier."""
    from equifan.lattice import primitive

    for center, carrier in centers_with_carriers:
        center = primitive(center)
        tau = frozenset(carrier)
        if tau not in cx.cones:
            tau = cx.minimal_cone_containing(center)
        if center in cx.rays:
            rid = cx.rays.index(center)
            if tau != {rid}:
                raise ValueError(f"center {center} is ray {rid}, which is in no cone")
            continue
        new_id = len(cx.rays)
        cones = {c for c in cx.cones if not tau <= c}
        for sigma in cx.maximal_cones:
            if tau <= sigma:
                cones.update(f | {new_id} for f in cx.faces(sigma) if not tau <= f)
        cx = Complex(cx.ambient_rank, cx.rays + (center,), cones)
    return cx


def reference_barycentric_subdivision(cx):
    """barycentric_subdivision built bottom-up over the face lattice, the
    other classical construction: the subdivision of a cone is the
    subdivision of its boundary plus the joins of the boundary pieces with
    the cone's own barycenter.  It numbers the new rays in another order."""
    from equifan.subdivide import barycenter

    memo = {}

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

    all_cones = set()
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


def reference_check_simultaneous(cx, carriers):
    """ValueError when two carriers lie in one maximal cone, testing every
    pair of carriers against every maximal cone."""
    for i, a in enumerate(carriers):
        for b in carriers[i + 1:]:
            if any(a | b <= c for c in cx.maximal_cones):
                raise ValueError("orbit not simultaneous-safe")


def reference_evaluate(ord_fn, x):
    """(piece, value): the first maximal cone whose trial solve gives
    non-negative coefficients, and the value there."""
    x = tuple(Fraction(c) for c in x)
    sub = ord_fn.subdivision
    for c in sub.maximal_cones:
        if not c:
            continue
        coeffs = solve_in_basis(sub.generators(c), x)
        if coeffs is None or any(a < 0 for a in coeffs):
            continue
        return c, sum(a * ord_fn.ray_values[i] for a, i in zip(coeffs, sorted(c)))
    raise ValueError("point not in support")


# ---------------------------------------------------------------------------
# cone geometry references, as before every cone question was read off the
# cone's cached dual: facet enumeration with a rank test per generator
# subset, a throwaway dual per generator for extreme rays, and vertex
# enumeration of an intersection


def reference_cone_dual(gens, ambient_rank):
    """The DualDescription of cone(gens): one facet normal per set of d-1
    generators of rank d-1 whose normal keeps one sign on gens."""
    from equifan.complexes import DualDescription
    from equifan.lattice import primitive, rank, rational_nullspace

    gens = tuple(tuple(g) for g in gens)
    if not gens:
        unit = [tuple(int(i == j) for j in range(ambient_rank)) for i in range(ambient_rank)]
        return DualDescription(tuple(unit), ())
    equations = tuple(rational_nullspace(gens, n=ambient_rank))
    d = ambient_rank - len(equations)
    seen, normals = set(), []
    for subset in combinations(range(len(gens)), d - 1) if d >= 1 else []:
        sub = [gens[i] for i in subset]
        if rank(sub) != d - 1:
            continue
        candidates = rational_nullspace(sub + list(equations), n=ambient_rank)
        if len(candidates) != 1:
            continue
        u = candidates[0]
        vals = [sum(a * b for a, b in zip(u, g)) for g in gens]
        if all(v >= 0 for v in vals) and any(v > 0 for v in vals):
            pass
        elif all(v <= 0 for v in vals) and any(v < 0 for v in vals):
            u, vals = tuple(-c for c in u), [-v for v in vals]
        else:
            continue
        zero_set = frozenset(i for i, v in enumerate(vals) if v == 0)
        if zero_set not in seen:
            seen.add(zero_set)
            normals.append(primitive(u))
    return DualDescription(equations, tuple(sorted(normals)))


def reference_extreme(gens, ambient_rank):
    """Indices of the generators that lie outside the cone of the others."""
    return tuple(
        i for i in range(len(gens))
        if len(gens) == 1
        or not reference_cone_dual(gens[:i] + gens[i + 1:], ambient_rank).contains(gens[i])
    )


def reference_intersect_cones(cx, c1, c2):
    """Extreme rays of c1 & c2 by vertex enumeration: every direction cut
    out by d-1 of both cones' facet inequalities within the intersection
    of their spans that satisfies them all."""
    from equifan.lattice import primitive, rational_nullspace

    d1 = reference_cone_dual(cx.generators(c1), cx.ambient_rank)
    d2 = reference_cone_dual(cx.generators(c2), cx.ambient_rank)
    equations = list(d1.equations) + list(d2.equations)
    normals = list(d1.inequalities) + list(d2.inequalities)
    n = cx.ambient_rank
    span = rational_nullspace(equations, n=n) if equations else [
        tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
    ]
    d = len(span)
    if d == 0:
        return frozenset()

    def dot(u, v):
        return sum(a * b for a, b in zip(u, v))

    rays = set()
    for subset in combinations(range(len(normals)), d - 1):
        dirs = rational_nullspace([normals[i] for i in subset] + equations, n=n)
        if len(dirs) != 1:
            continue
        for cand in (dirs[0], tuple(-c for c in dirs[0])):
            if all(dot(u, cand) >= 0 for u in normals) and all(dot(e, cand) == 0 for e in equations):
                rays.add(primitive(cand))
                break
    if d == 1:
        for cand in (span[0], tuple(-c for c in span[0])):
            if all(dot(u, cand) >= 0 for u in normals):
                rays.add(primitive(cand))
    return frozenset(rays)


def reference_validate_complex(cx):
    """The complex axioms checked on every cone and every pair of maximal
    cones by their exact intersection, as `validate_complex` decided them
    before the separating forms, plus the check that every cone is a face
    of a maximal cone.  Returns the violations."""
    from equifan.complexes import _extreme, _intersect_cones
    from equifan.lattice import primitive, rank

    violations, seen = [], {}
    for i, r in enumerate(cx.rays):
        if all(c == 0 for c in r):
            return [f"ray {i} is zero"]
        if primitive(r) != r:
            violations.append(f"ray {i} = {r} is not primitive")
        if r in seen:
            violations.append(f"rays {seen[r]} and {i} have equal generators {r}")
        seen[r] = i
    if violations:
        return violations
    for c in sorted(cx.cones, key=sorted):
        if not c:
            continue
        dd = cx.dual(c)
        if rank(list(dd.equations) + list(dd.inequalities)) < cx.ambient_rank:
            violations.append(f"cone {sorted(c)} is not pointed")
            continue
        extreme = _extreme(cx.generators(c), cx.ambient_rank)
        violations += [f"cone {sorted(c)}: generator {i} is not an extreme ray"
                       for k, i in enumerate(sorted(c)) if k not in extreme]
    if violations:
        return violations
    for c in sorted(cx.cones, key=sorted):
        violations += [f"face {sorted(f)} of cone {sorted(c)} missing from the complex"
                       for f in cx.faces(c) if f not in cx.cones]
        if not any(c in cx.faces(m) for m in cx.maximal_cones):
            violations.append(f"cone {sorted(c)} is not a face of any maximal cone")
    for c1, c2 in combinations(cx.maximal_cones, 2):
        shared = c1 & c2
        if not (
            _intersect_cones(cx, c1, c2) == frozenset(cx.rays[i] for i in shared)
            and shared in cx.faces(c1)
            and shared in cx.faces(c2)
        ):
            violations.append(f"cones {sorted(c1)} and {sorted(c2)} do not intersect in a common face")
    return violations


# ---------------------------------------------------------------------------
# group questions from per-element cone tables, as asked before an action
# was held as its ray permutations alone


class ReferenceAction:
    """The action of matrices on a complex held as one ray permutation and
    one cone map per element; every verdict and orbit is read off the
    cone maps.  `violations` lists why the matrices do not act."""

    def __init__(self, cx, elements):
        from equifan.lattice import is_unimodular, mat_vec

        self.cx = cx
        self.violations = []
        self.perms, self.cone_maps = [], []
        n = cx.ambient_rank
        ray_index = {r: i for i, r in enumerate(cx.rays)}
        for k, m in enumerate(elements):
            if len(m) != n or any(len(row) != n for row in m):
                self.violations.append(f"element {k} is not a {n}x{n} matrix")
                continue
            if not is_unimodular(m):
                self.violations.append(f"element {k} is not unimodular")
                continue
            images = [mat_vec(m, r) for r in cx.rays]
            missing = [i for i, img in enumerate(images) if img not in ray_index]
            if missing:
                i = missing[0]
                self.violations.append(f"element {k} maps ray {i} = {cx.rays[i]} to {images[i]}, not a ray")
                continue
            perm = tuple(ray_index[img] for img in images)
            cmap = {c: frozenset(perm[i] for i in c) for c in cx.cones}
            bad = [c for c in cx.cones if cmap[c] not in cx.cones]
            if bad:
                self.violations.append(
                    f"element {k} maps cone {sorted(bad[0])} to {sorted(cmap[bad[0]])}, not a cone"
                )
                continue
            self.perms.append(perm)
            self.cone_maps.append(cmap)

    def ray_orbits(self):
        orbits = {tuple(sorted({perm[i] for perm in self.perms})) for i in range(len(self.cx.rays))}
        return tuple(sorted(orbits))

    def cone_orbits(self, maximal_only=False):
        cones = self.cx.maximal_cones if maximal_only else self.cx.cones
        orbits = {tuple(sorted({cmap[c] for cmap in self.cone_maps}, key=sorted)) for c in cones}
        return tuple(sorted(orbits, key=lambda o: (len(o[0]), sorted(o[0]))))

    def fixed_cone_identity(self):
        return [
            f"element {k} fixes cone {sorted(c)} but permutes its edges"
            for k, (perm, cmap) in enumerate(zip(self.perms, self.cone_maps))
            for c in sorted(self.cx.cones, key=sorted)
            if cmap[c] == c and any(perm[i] != i for i in c)
        ]

    def strictness(self):
        orbit_of = {i: orbit for orbit in self.ray_orbits() for i in orbit}
        return [
            f"cone {sorted(c)} has edges {sorted(members)} in one orbit"
            for c in sorted(self.cx.cones, key=sorted)
            for orbit in sorted({orbit_of[i] for i in c})
            for members in [[i for i in c if orbit_of[i] == orbit]]
            if len(members) > 1
        ]

    def quotient(self):
        """The QuotientStructure, or the message naming the failed check."""
        from equifan.groups import QuotientStructure

        if self.fixed_cone_identity():
            return "fixed-cone-identity check failed: " + "; ".join(self.fixed_cone_identity())
        if self.strictness():
            return "strictness check failed: " + "; ".join(self.strictness())
        ray_orbits, cone_orbits = self.ray_orbits(), self.cone_orbits()
        rep_of = {c: orbit[0] for orbit in cone_orbits for c in orbit}
        elem_to_rep = {
            c: next(k for k, cmap in enumerate(self.cone_maps) if cmap[c] == rep_of[c])
            for c in rep_of
        }
        face_relations = {
            tuple(sorted(orbit[0])): tuple(sorted(
                (tuple(sorted(f)), tuple(sorted(rep_of[f])), elem_to_rep[f])
                for f in self.cx.faces(orbit[0])
            ))
            for orbit in cone_orbits
        }
        maximal = tuple(sorted(
            (o[0] for o in cone_orbits if o[0] in set(self.cx.maximal_cones)), key=sorted
        ))
        return QuotientStructure(
            ray_orbits, cone_orbits, tuple(o[0] for o in ray_orbits),
            tuple(o[0] for o in cone_orbits), face_relations, maximal,
        )


@pytest.fixture
def orthant2():
    return orthant(2)


@pytest.fixture
def orthant3():
    return orthant(3)
