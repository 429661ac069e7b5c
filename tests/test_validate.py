"""`validate_complex` against the exact reference on random complexes.

The validator checks the cone axioms on the maximal cones only, face
closure as one comparison with their face lattices, and each pair of
maximal cones by a separating form, falling back to the exact
intersection only when none is found.  `conftest.reference_validate_complex`
checks every cone and intersects every pair exactly.
"""

import random
from collections import Counter
from itertools import combinations, product
from unittest import mock

import equifan.complexes as complexes
from equifan.complexes import Complex, validate_complex
from equifan.fanio import parse_fan
from equifan.lattice import primitive
from equifan.subdivide import star_subdivide

from conftest import perfbench_workloads, reference_validate_complex


def _vector(rng, n, size=2):
    while True:
        v = tuple(rng.randint(-size, size) for _ in range(n))
        if any(v):
            return primitive(v)


def _sheared(rng, n, rays):
    """The rays under a random unimodular lower triangular matrix."""
    t = [[1 if i == j else rng.choice((-1, 0, 1)) * (j < i) for j in range(n)] for i in range(n)]
    return [tuple(sum(a * b for a, b in zip(row, r)) for row in t) for r in rays]


def _valid(rng, n):
    """Two or three maximal cones of the coordinate orthant fan, sheared,
    then starred at up to two points (so the support need not be convex)."""
    rays = [tuple(s if j == i else 0 for j in range(n)) for s in (1, -1) for i in range(n)]
    cones = rng.sample(list(product(*[(i, i + n) for i in range(n)])), rng.randint(2, 3))
    cx = Complex.from_maximal_cones(n, _sheared(rng, n, rays), cones)
    for _ in range(rng.randint(0, 2 if n < 4 else 1)):
        sigma = sorted(rng.choice(cx.maximal_cones))
        weights = [rng.randint(0, 2) for _ in sigma]
        if any(weights):
            gens = cx.generators(sigma)
            cx = star_subdivide(cx, primitive([sum(w * g[k] for w, g in zip(weights, gens)) for k in range(n)]))
    return cx


def _random(rng, n):
    """Two or three cones over random subsets of a few random rays:
    overlapping, crossing, lower dimensional, not pointed, with redundant
    generators, or now and then a complex."""
    rays = [_vector(rng, n) for _ in range(rng.randint(n, n + 3))]
    cones = [rng.sample(range(len(rays)), rng.randint(1, min(n + 1, len(rays))))
             for _ in range(rng.randint(2, 3))]
    return Complex.from_maximal_cones(n, rays, cones)


def _perturbed(rng, n):
    """A valid complex with one ray moved, keeping every cone's ray ids."""
    cx = _valid(rng, n)
    rays = list(cx.rays)
    rays[rng.randrange(len(rays))] = _vector(rng, n)
    return Complex(n, rays, cx.cones)


def _merged(rng, n):
    """A valid complex with two maximal cones that share a facet replaced
    by one cone on their rays: not simplicial, and convex or not."""
    cx = _valid(rng, n)
    maximal = list(cx.maximal_cones)
    pairs = [(a, b) for a, b in combinations(maximal, 2) if len(a & b) == len(a) - 1]
    if not pairs:
        return cx
    a, b = rng.choice(pairs)
    return Complex.from_maximal_cones(n, cx.rays, [c for c in maximal if c not in (a, b)] + [a | b])


def _lower(rng, n):
    """Some cones of a valid complex, of any dimension, as maximal cones,
    and one more cone over one or two new random rays."""
    cx = _valid(rng, n)
    kept = rng.sample(sorted(cx.cones - {frozenset()}, key=sorted), rng.randint(1, 3))
    rays = list(cx.rays)
    extra = []
    for _ in range(rng.randint(1, 2)):
        v = _vector(rng, n)
        if v not in rays:
            rays.append(v)
            extra.append(len(rays) - 1)
    return Complex.from_maximal_cones(n, rays, kept + [extra])


def _with_subset(rng, n):
    """A cone over a sheared cube (or a merged complex in rank 2) with one
    more cone: a subset of a maximal cone's rays, a face of it or not."""
    if n == 2:
        cx = _merged(rng, n)
    else:
        cube = [v + (1,) for v in product((1, -1), repeat=n - 1)]
        cx = Complex.from_maximal_cones(n, _sheared(rng, n, cube), [range(len(cube))])
    sigma = sorted(rng.choice(cx.maximal_cones))
    subset = frozenset(rng.sample(sigma, rng.randint(1, len(sigma))))
    return Complex(n, cx.rays, cx.cones | {subset})


DRAWS = (_valid, _random, _perturbed, _merged, _lower, _with_subset)


def test_verdicts_match_the_reference():
    """2,400 derandomized complexes in ranks 2-4: the same verdict as the
    reference, with both verdicts common, and pairs both separated by a
    form and left to the exact test."""
    rng = random.Random(20261019)
    verdicts, forms = Counter(), Counter()
    separated = complexes._separated

    def recorded(*args):
        result = separated(*args)
        forms[result] += 1
        return result

    with mock.patch.object(complexes, "_separated", side_effect=recorded):
        for k in range(2400):
            draw = DRAWS[k % len(DRAWS)]
            cx = draw(rng, rng.randint(2, 4))
            ok = validate_complex(cx).ok
            reference = reference_validate_complex(cx)
            assert ok == (not reference), (draw.__name__, cx.rays, sorted(map(sorted, cx.cones)))
            verdicts[ok] += 1
            verdicts["not a face"] += any("is not a face" in v for v in reference)
    assert min(verdicts[True], verdicts[False]) > 600, verdicts
    assert verdicts["not a face"] > 20, verdicts
    assert forms[True] > 2000 and forms[False] > 200, forms


def test_separating_forms_decide_the_symmetric_workload():
    """The six input fans of the benchmark's `symmetric` workload validate
    with no exact intersection: one form separates each of their 72 pairs
    of maximal cones."""
    workloads = perfbench_workloads()
    cases = workloads.make_cases("symmetric", 0)
    pairs = 0
    with mock.patch.object(complexes, "_intersect_cones", side_effect=AssertionError("exact test")):
        for case in cases:
            cx = parse_fan(workloads.fan_text(case)).to_complex()
            assert validate_complex(cx).ok, case.name
            m = len(cx.maximal_cones)
            pairs += m * (m - 1) // 2
    assert (len(cases), pairs) == (6, 72)
