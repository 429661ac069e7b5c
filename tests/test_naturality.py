"""Naturality: resolving commutes with lattice isomorphisms.

The paper takes equivariance from canonicity: the resolution is a
function of the input, natural for isomorphisms of conical complexes.
So for T in GL_n(Z), resolving T.X with the group T.G.T^-1 gives the
image under T of the resolution of X with G: the same final complex as
a set of sets of ray vectors, the same composite as a map from ray
vector to value, the same number of stages and the same measure trace.
Canonical mode's frames follow source dimensions, so its input's ray ids
are shuffled too; plain mode's frames follow the ray ids, so it gets T
alone.

Each T is five elementary row operations, a row permutation and one row
sign, drawn from a generator seeded by the case.
"""

import random

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from sympy import Matrix

from equifan.complexes import Complex
from equifan.groups import generate_group
from equifan.lattice import cone_index, primitive, rank
from equifan.resolve import resolve_equivariant

from conftest import perfbench_workloads
from test_exact_parameters import CORPUS_RUNS, DERANDOMIZED


def mat_vec(m, v):
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m)


def mat_mul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def random_unimodular(rng, n):
    """(T, T^-1): five elementary operations, a row permutation, a sign."""
    t = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(5):
        if n > 1:
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-2, -1, 1, 2))
            t[j] = [a + c * b for a, b in zip(t[j], t[i])]
    rng.shuffle(t)
    k = rng.randrange(n)
    t[k] = [-a for a in t[k]]
    inverse = Matrix(t).inv()
    return tuple(map(tuple, t)), tuple(tuple(int(x) for x in inverse.row(i)) for i in range(n))


def image(cx, elements, t, t_inv, relabel):
    """T.X with its ray ids permuted by `relabel` (new id of each old id),
    and T.G.T^-1."""
    rays = [None] * len(cx.rays)
    for i, r in enumerate(cx.rays):
        rays[relabel[i]] = mat_vec(t, r)
    cones = [[relabel[i] for i in c] for c in cx.maximal_cones if c]
    group = elements and [mat_mul(mat_mul(t, g), t_inv) for g in elements]
    return Complex.from_maximal_cones(cx.ambient_rank, rays, cones), group


def fingerprint(cert, t):
    """The resolution read through T: final cones as sets of ray vectors,
    the composite by ray vector, the stage count and the measure trace."""
    rays = [mat_vec(t, r) for r in cert.final.rays]
    cones = {frozenset(rays[i] for i in c) for c in cert.final.maximal_cones}
    values = dict(zip(rays, cert.composite.ray_values))
    return cones, values, len(cert.stages), cert.trace


def assert_natural(name, cx, elements, mode, draws=2):
    rng = random.Random(f"naturality:{name}:{mode}")
    identity = tuple(tuple(int(i == j) for j in range(cx.ambient_rank)) for i in range(cx.ambient_rank))
    expected = resolve_equivariant(cx, elements, mode=mode)
    for _ in range(draws):
        t, t_inv = random_unimodular(rng, cx.ambient_rank)
        relabel = list(range(len(cx.rays)))
        if mode == "canonical":
            rng.shuffle(relabel)
        tx, group = image(cx, elements, t, t_inv, relabel)
        got = resolve_equivariant(tx, group, mode=mode)
        assert fingerprint(got, identity) == fingerprint(expected, t), (name, mode, t, relabel)


def benchmark_runs():
    workloads = perfbench_workloads()
    for workload in workloads.WORKLOADS:
        for case in workloads.make_cases(workload, 0):
            cx = Complex.from_maximal_cones(case.rank, case.rays, case.cones)
            elements = generate_group(case.generators) if case.generators else None
            yield case.name, cx, elements, case.mode
            if case.mode == "canonical" and elements is None:
                yield f"{case.name}-plain", cx, None, "plain"


# `resolve._consistent_base_values` takes the least-sum point by Bland's
# rule, which breaks ties by ray id: the skew quadrilateral has two such
# points, (1, 1, 2, 1) and (1, 2, 1, 1) on its rays, and a relabeling
# picks the other one
ID_DEPENDENT = pytest.mark.xfail(strict=True, reason="the direct base values depend on the ray ids")
RUNS = [
    pytest.param(*run, id=run[0], marks=ID_DEPENDENT if run[0] == "skew-quad-cone" else ())
    for run in CORPUS_RUNS + list(benchmark_runs())
]


@pytest.mark.parametrize("name, cx, elements, mode", RUNS)
def test_resolution_commutes_with_lattice_isomorphisms(name, cx, elements, mode):
    assert_natural(name, cx, elements, mode)


@st.composite
def small_fans(draw):
    """A simplicial cone of rank 2 or 3 with index 2..8, or a 2D fan of
    two to four cones over rays in the upper half-plane."""
    coord = st.integers(min_value=-5, max_value=5)
    if draw(st.booleans()):
        n = draw(st.sampled_from([2, 3]))
        vec = st.tuples(*[coord] * n).filter(any)
        gens = [primitive(v) for v in draw(st.lists(vec, min_size=n, max_size=n))]
        if rank(gens) < n or not 2 <= cone_index(gens) <= 8:
            reject()
        return Complex.from_maximal_cones(n, gens, [list(range(n))])
    upper = st.tuples(coord, st.integers(min_value=0, max_value=5)).filter(lambda v: v[1] > 0 or v[0] > 0)
    rays = sorted(
        {primitive(v) for v in draw(st.lists(upper, min_size=3, max_size=5))},
        key=lambda v: -v[0] / (abs(v[0]) + v[1]),  # increases with the angle
    )
    if len(rays) < 3:
        reject()
    return Complex.from_maximal_cones(2, rays, [[i, i + 1] for i in range(len(rays) - 1)])


@settings(DERANDOMIZED, max_examples=40)
@given(small_fans(), st.sampled_from(["canonical", "plain"]))
def test_drawn_resolutions_commute_with_lattice_isomorphisms(cx, mode):
    assert_natural(repr(cx.rays), cx, None, mode)
