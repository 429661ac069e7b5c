"""Cone geometry memoised by generator matrix: duals, dual bases,
simplicial SNFs, first parallelepiped points.

The caches hold pure functions of the matrix only, so a memoised answer
must equal a fresh computation, and a resolve must write the same bytes
whether the caches start warm or cold.
"""

from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from equifan import complexes, lattice
from equifan.complexes import Complex, DualDescription, _peeled_faces, cone_dual
from equifan.fanio import fan_from_complex, parse_certificate, parse_fan, verify_certificate, write_certificate
from equifan.groups import generate_group
from equifan.lattice import rank
from equifan.resolve import resolve_equivariant

from conftest import SWAP2, perfbench_workloads, singular_cone_2d, square_cone

CACHE_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)


@st.composite
def cones(draw):
    """Nonzero generators in an ambient lattice of rank 2-4: as many as the
    rank or fewer (mostly simplicial) or more (never simplicial)."""
    n = draw(st.integers(min_value=2, max_value=4))
    k = draw(st.integers(min_value=1, max_value=n + 2))
    coord = st.integers(min_value=-3, max_value=3)
    gen = st.tuples(*[coord] * n).filter(any)
    return tuple(draw(st.lists(gen, min_size=k, max_size=k))), n


@st.composite
def simplicial_cones(draw):
    """Independent generators, 1 to n of them, in an ambient rank n of 2-4."""
    n = draw(st.integers(min_value=2, max_value=4))
    k = draw(st.integers(min_value=1, max_value=n))
    coord = st.integers(min_value=-3, max_value=3)
    gens = tuple(draw(st.lists(st.tuples(*[coord] * n), min_size=k, max_size=k)))
    assume(rank(gens) == k)
    return gens, n


@CACHE_SETTINGS
@given(cones())
def test_memoised_dual_equals_fresh(cone):
    gens, n = cone
    cached = cone_dual(gens, n)
    assert cached == complexes._cone_dual.__wrapped__(gens, n)
    assert cone_dual([list(g) for g in gens], n) is cached  # keyed by value
    assert isinstance(cached, DualDescription)
    assert isinstance(cached.equations, tuple) and isinstance(cached.inequalities, tuple)


@CACHE_SETTINGS
@given(cones())
def test_memoised_dual_basis_equals_fresh(cone):
    gens, _ = cone
    assert lattice._dual_basis(gens) == lattice._dual_basis.__wrapped__(gens)


@CACHE_SETTINGS
@given(simplicial_cones())
def test_simplicial_faces_are_the_power_set_of_peeling(cone):
    gens, n = cone
    cone = frozenset(range(len(gens)))
    faces = Complex(n, gens, [cone]).faces(cone)
    assert faces == _peeled_faces(gens, n)
    assert len(faces) == 2 ** len(gens)


def test_snf_contract_failure_is_not_cached(monkeypatch):
    """A reduction that doubles the first row of D and of U keeps
    U*M*V = D but makes (prod d_i)^2 four times det(M)^2: the Smith form
    is refused and the cone's divisors are not memoised."""
    reduce = lattice._snf_reduce

    def doubled(M):
        D, U, V = reduce(M)
        return (tuple(2 * x for x in D[0]), *D[1:]), (tuple(2 * x for x in U[0]), *U[1:]), V

    monkeypatch.setattr(lattice, "_snf_reduce", doubled)
    lattice._simplicial_snf.cache_clear()
    with pytest.raises(RuntimeError, match="SNF contract violated: U or V is not unimodular"):
        lattice.cone_index(((1, 0), (1, 2)))
    assert lattice._simplicial_snf.cache_info().currsize == 0


def _clear():
    complexes._cone_dual.cache_clear()
    lattice._dual_basis.cache_clear()
    lattice._simplicial_snf.cache_clear()
    lattice._first_point.cache_clear()


@pytest.mark.parametrize(
    "cx, gens, mode",
    [
        (singular_cone_2d(5), (), "plain"),
        (Complex.from_maximal_cones(3, [(1, 0, 0), (0, 1, 0), (1, 1, 3)], [[0, 1, 2]]), (), "canonical"),
        (square_cone(), [((0, 1, 0), (1, 0, 0), (0, 0, 1))], "canonical"),
        (Complex.from_maximal_cones(2, [(1, 0), (1, -4), (0, 1), (-4, 1)], [[0, 1], [2, 3]]),
         [SWAP2], "canonical"),
    ],
)
def test_same_certificate_bytes_warm_and_cold(cx, gens, mode):
    fan = fan_from_complex(cx, gens)
    elements = generate_group(gens, rank=cx.ambient_rank)

    def run():
        text = write_certificate(resolve_equivariant(cx, elements, mode=mode), fan)
        assert verify_certificate(parse_certificate(text), fan) == []
        return text

    _clear()
    cold = run()
    duals, snfs = complexes._cone_dual.cache_info(), lattice._simplicial_snf.cache_info()
    bases = lattice._dual_basis.cache_info()
    warm = run()
    assert warm == cold
    # the warm run computed no geometry: every dual, SNF and dual basis was a hit
    assert complexes._cone_dual.cache_info().misses == duals.misses
    assert lattice._simplicial_snf.cache_info().misses == snfs.misses
    assert lattice._dual_basis.cache_info().misses == bases.misses
    _clear()
    assert run() == cold


WORKLOADS = perfbench_workloads()


@pytest.mark.parametrize(
    "case",
    [case for w in WORKLOADS.WORKLOADS for case in WORKLOADS.make_cases(w, 0)],
    ids=lambda case: case.name,
)
def test_resolve_factors_each_cone_once(case, monkeypatch):
    """From cold memos, a resolve of each seed-0 benchmark case runs the
    Smith form and the dual basis at most once per set of generators:
    center selection reads a cone's first point in frame order off the
    Smith form of its id-sorted generators instead of factoring the
    frame-ordered tuple again."""
    runs = {"smith_normal_form": Counter(), "_dual_basis": Counter()}
    snf, basis = lattice.smith_normal_form, lattice._dual_basis.__wrapped__

    def counted_snf(m):
        runs["smith_normal_form"][frozenset(map(tuple, m))] += 1
        return snf(m)

    def counted_basis(gens):
        runs["_dual_basis"][frozenset(gens)] += 1
        return basis(gens)

    spy_basis = lru_cache(maxsize=lattice.CACHE_SIZE)(counted_basis)
    monkeypatch.setattr(lattice, "smith_normal_form", counted_snf)
    monkeypatch.setattr(lattice, "_dual_basis", spy_basis)
    monkeypatch.setattr(complexes, "_dual_basis", spy_basis)
    _clear()
    fan = parse_fan(WORKLOADS.fan_text(case))
    elements = generate_group(fan.group_generators, rank=fan.ambient_rank)
    resolve_equivariant(fan.to_complex(), elements, mode=case.mode, generators=fan.group_generators or None)
    repeated = {name: max(counts.values()) for name, counts in runs.items() if counts and max(counts.values()) > 1}
    assert repeated == {}
    assert sum(runs["_dual_basis"].values()) > 0
