"""resolve's certificates against the reference resolution.

`conftest.reference_resolution` derives a resolution without resolve's
driver: it lists parallelepiped points by box enumeration, reads each
carrier off the geometry, scans every (scale, dip) and multiplier by
full verification and rebuilds the frames by the slot rule each round.
A resolution has one certificate text, so the two texts must agree byte
for byte (differential testing: McKeeman, "Differential Testing for
Software", Digital Technical Journal 10, 1998).  This is the oracle for
what verify no longer checks independently since it runs resolve's own
stage loop: the carrier read off the frame, frame inheritance, the tie
set of centers, the stopping rule and the trace.
"""

import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from equifan.complexes import Complex
from equifan.fanio import fan_from_complex, parse_fan, write_certificate
from equifan.groups import generate_group
from equifan.lattice import cone_index, primitive, rank
from equifan.resolve import resolve_equivariant

from conftest import ReferenceBudgetExceeded, perfbench_workloads, reference_resolution
from test_exact_parameters import CORPUS_RUNS


def assert_matches_reference(cx, mode, gens=()):
    fan = fan_from_complex(cx, gens)
    elements = generate_group(gens, rank=cx.ambient_rank) if gens else None
    cert = resolve_equivariant(cx, elements, mode=mode, generators=gens or None)
    assert reference_resolution(cx, mode, gens) == write_certificate(cert, fan)


@pytest.mark.parametrize("name, cx, elements, mode", CORPUS_RUNS, ids=[r[0] for r in CORPUS_RUNS])
def test_corpus_matches_the_reference_resolution(name, cx, elements, mode):
    assert_matches_reference(cx, mode, tuple(elements or ()))


WORKLOADS = perfbench_workloads()


@pytest.mark.parametrize(
    "case",
    [case for w in WORKLOADS.WORKLOADS for case in WORKLOADS.make_cases(w, 0)],
    ids=lambda case: case.name,
)
def test_benchmark_cases_match_the_reference_resolution(case):
    fan = parse_fan(WORKLOADS.fan_text(case))
    assert_matches_reference(fan.to_complex(), case.mode, fan.group_generators)


@st.composite
def small_fans(draw):
    """A simplicial cone of rank 2 or 3, alone or with a second cone across
    one of its facets, every maximal cone of index at most 30."""
    n = draw(st.sampled_from([2, 3]))
    coord = st.integers(-6, 6) if n == 2 else st.integers(-3, 3)
    vec = st.tuples(*[coord] * n).filter(any).map(primitive)
    gens = draw(st.lists(vec, min_size=n, max_size=n, unique=True))
    if rank(gens) < n:
        reject()
    cones = [list(range(n))]
    if draw(st.booleans()):
        # a ray across the facet opposite gens[0]: -gens[0] plus a
        # sum of some of the facet's rays
        weights = draw(st.lists(st.integers(0, 1), min_size=n - 1, max_size=n - 1))
        other = [-x for x in gens[0]]
        for w, g in zip(weights, gens[1:]):
            other = [x + w * y for x, y in zip(other, g)]
        gens = gens + [primitive(tuple(other))]
        cones.append(list(range(1, n + 1)))
    if any(cone_index([gens[i] for i in c]) > 30 for c in cones):
        reject()
    return Complex.from_maximal_cones(n, gens, cones)


# the reference verifies every (scale, dip) candidate of a round's scan,
# and a drawn input can need a scan of thousands; such draws are rejected
REFERENCE_BUDGET = 200


@settings(
    max_examples=210, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
)
@given(small_fans(), st.sampled_from(["plain", "canonical"]))
def test_random_fans_match_the_reference_resolution(cx, mode):
    try:
        text = write_certificate(resolve_equivariant(cx, mode=mode), fan_from_complex(cx))
    except ValueError as e:
        # resolve refuses a few valid 3D inputs at its named composition cap,
        # so the reference must not resolve them within its budget either
        assert "composition_cap" in str(e)
        with pytest.raises((ValueError, ReferenceBudgetExceeded)):
            reference_resolution(cx, mode, max_candidates=REFERENCE_BUDGET)
        return
    try:
        assert reference_resolution(cx, mode, max_candidates=REFERENCE_BUDGET) == text
    except ReferenceBudgetExceeded:
        reject()
