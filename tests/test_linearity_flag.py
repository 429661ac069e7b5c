"""`ord_linearity_matches_final` read off the axiom report, against the
long derivation.

For a function whose subdivision subdivides the input, the linearity
domains are exactly the subdivision when the axioms hold and every bend
is strict, so `certificate_flags` reads the flag as `rep.ok and
rep.strict`.  `reference_linearity_matches_final` in conftest merges the
pieces across flat walls, rebuilds the domains as a complex and compares
it with the subdivision.  The two are compared on derandomized values:
the certificates' composites and one-step order functions on subdivisions
that are not smooth, scaled, perturbed, all ones, linear, and linear with
one ray bumped, so strict, flat-bend, non-convex and non-integral
functions all occur.
"""

import random
from collections import Counter

from equifan.complexes import Complex
from equifan.groups import generate_group, trivial_group
from equifan.orderfun import OrderFunction, search_centered_order_function, verify_order_axioms
from equifan.resolve import certificate_flags, direct_barycentric_order_function, resolve_equivariant
from equifan.subdivide import _barycentric, _barycentric_cascade

from conftest import (
    CYC3,
    SWAP2,
    orthant,
    p2_fan,
    reference_linearity_matches_final,
    singular_cone_2d,
    square_cone,
)

VARIANTS_PER_BASE = 100


def cone_3d(v):
    return Complex.from_maximal_cones(3, [(1, 0, 0), (0, 1, 0), v], [[0, 1, 2]])


def bases():
    """(name, input, subdivision, strict ray values on it)."""
    out = []
    for name, cx, gens, mode in [
        ("plain-2d-r5", singular_cone_2d(5), None, "plain"),
        ("plain-2d-r9", singular_cone_2d(9), None, "plain"),
        ("plain-3d-125", cone_3d((1, 2, 5)), None, "plain"),
        ("canonical-3d-123", cone_3d((1, 2, 3)), None, "canonical"),
        ("orthant2-swap", orthant(2), [SWAP2], "canonical"),
        ("orthant3-cycle", orthant(3), [CYC3], "canonical"),
        ("p2-fan", p2_fan(), None, "canonical"),
        ("square-direct", square_cone(), None, "canonical"),
    ]:
        cert = resolve_equivariant(cx, generate_group(gens) if gens else None, mode=mode)
        out.append((name, cx, cert.final, cert.composite.ray_values))
    for name, cx, center in [
        ("star-2d-r7", singular_cone_2d(7), ((1, 1), (0, 1))),
        ("star-2d-r12", singular_cone_2d(12), ((1, 2), (0, 1))),
    ]:
        f, _, _ = search_centered_order_function(cx, [center])
        out.append((name, cx, f.subdivision, f.ray_values))
    cx = cone_3d((1, 2, 7))
    f, _, _ = search_centered_order_function(cx, _barycentric_cascade(cx)[0])
    out.append(("barycenter-3d-127", cx, f.subdivision, f.ray_values))
    cx = square_cone()
    f, _, _ = direct_barycentric_order_function(cx, *_barycentric(cx))
    bcx = f.subdivision
    out.append(("direct-square", cx, bcx, f.ray_values))
    return out


def variants(name, sub, values):
    """Derandomized ray values on sub, cycling through six kinds."""
    rng = random.Random(name)
    n, rank = len(sub.rays), sub.ambient_rank
    for j in range(VARIANTS_PER_BASE):
        kind = j % 6
        m = rng.randint(1, 4)
        form = [rng.randint(-3, 3) for _ in range(rank)]
        linear = [sum(a * x for a, x in zip(form, r)) for r in sub.rays]
        if kind == 0:  # scaled
            yield [m * v for v in values]
        elif kind == 1:  # scaled and perturbed
            yield [m * v + rng.randint(-1, 1) for v in values]
        elif kind == 2:  # all ones, or a constant
            yield [m] * n
        elif kind == 3:  # linear: flat across every wall
            yield linear
        elif kind == 4:  # linear with one ray bumped
            i = rng.randrange(n)
            yield [v + (rng.choice((-1, 1)) if k == i else 0) for k, v in enumerate(linear)]
        else:  # scaled plus linear: the bends are the scaled ones
            yield [m * v + x for v, x in zip(values, linear)]


def test_flag_matches_the_long_derivation():
    seen = Counter()
    for name, cx, sub, values in bases():
        elements = trivial_group(cx.ambient_rank)
        for vals in variants(name, sub, values):
            f = OrderFunction(cx, sub, vals)
            flag = certificate_flags(cx, elements, sub, f)["ord_linearity_matches_final"]
            assert flag == reference_linearity_matches_final(cx, sub, f), (name, vals)
            rep = verify_order_axioms(f)
            seen["cases"] += 1
            seen["strict" if flag else "flat" if rep.ok else "failing"] += 1
            seen["non-integral"] += not rep.integral
            seen["non-convex"] += not rep.convex
    assert seen["cases"] >= 1000
    for kind in ("strict", "flat", "failing", "non-integral", "non-convex"):
        assert seen[kind] >= 50, seen
