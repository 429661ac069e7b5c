"""Order functions: evaluation, axioms, bends, construction, composition."""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from equifan.complexes import Complex, same_complex
from equifan.lattice import cone_index, parallelepiped_points, primitive, rank, solve_in_basis
from equifan.orderfun import (
    OrderFunction,
    _wall_relation,
    compose_order_functions,
    compose_with_multiplier,
    evaluate,
    linearity_domains,
    centered_order_function,
    search_centered_order_function,
    star_order_function,
    verify_order_axioms,
)
from equifan.subdivide import barycentric_subdivision, star_subdivide

from conftest import orthant, reference_wall_relation, singular_cone_2d


@pytest.fixture
def starred(orthant2):
    return star_subdivide(orthant2, (1, 1))


class TestEvaluate:
    def test_linearity(self, orthant2):
        f = OrderFunction(orthant2, orthant2, {0: 1, 1: 1})
        assert evaluate(f, (2, 3)) == 5

    def test_ray_values(self, orthant2, starred):
        f = OrderFunction(orthant2, starred, {0: 2, 1: 2, 2: 3})
        for rid, gen in enumerate(starred.rays):
            assert evaluate(f, gen) == f.ray_values[rid]

    def test_continuity_across_shared_facet(self, orthant2, starred):
        f = OrderFunction(orthant2, starred, {0: 2, 1: 2, 2: 3})
        x = (Fraction(3), Fraction(3))  # on the wall through (1,1)
        c1, c2 = sorted(starred.maximal_cones, key=sorted)
        vals = []
        for c in (c1, c2):
            ids = sorted(c)
            coeffs = solve_in_basis(starred.generators(c), x)
            vals.append(sum(a * f.ray_values[i] for a, i in zip(coeffs, ids)))
        assert vals[0] == vals[1] == evaluate(f, x)

    def test_outside_support(self, orthant2):
        f = OrderFunction(orthant2, orthant2, {0: 1, 1: 1})
        with pytest.raises(ValueError, match="not in support"):
            evaluate(f, (-1, 0))


class TestAxioms:
    def test_strictly_convex(self, orthant2, starred):
        f = OrderFunction(orthant2, starred, {0: 2, 1: 2, 2: 3})
        rep = verify_order_axioms(f)
        assert rep.ok and rep.strict and rep.positive
        assert rep.integral and rep.convex  # homogeneity and continuity hold by representation

    def test_flat_bend(self, orthant2, starred):
        # the restriction of the global linear form x + y: convex, not strictly
        f = OrderFunction(orthant2, starred, {0: 1, 1: 1, 2: 2})
        rep = verify_order_axioms(f)
        assert rep.ok and not rep.strict

    def test_broken_convexity(self, orthant2, starred):
        # value above the linear extension bends the wrong way
        f = OrderFunction(orthant2, starred, {0: 1, 1: 1, 2: 3})
        rep = verify_order_axioms(f)
        assert not rep.convex and not rep.ok
        assert any("convexity" in v for v in rep.violations)

    def test_convexity_failure_names_the_exact_bend(self):
        # the wall's relation (1,5) = -3/2 (1,0) + 5/2 (1,2) has denominator
        # 2; the text gives the bend itself, not the bend times 2
        cone = Complex.from_maximal_cones(2, [(1, 0), (1, 5)], [[0, 1]])
        sub = star_subdivide(cone, (1, 2))
        assert _wall_relation(((1, 0), (1, 2)), (1, 5)) == ((-3, 5), 2)
        rep = verify_order_axioms(OrderFunction(cone, sub, (1, 1, 2)))
        assert rep.violations == [
            "integrality fails at lattice point (1, 1): value 3/2",
            "integrality fails at lattice point (1, 3): value 5/3",
            "convexity fails across wall [2] in cone [0, 1]: bend -5/2",
        ]
        rep = verify_order_axioms(OrderFunction(cone, sub, (3, 1, 4)))
        assert rep.violations[-1] == "convexity fails across wall [2] in cone [0, 1]: bend -9/2"

    def test_no_interior_facets(self, orthant2):
        f = OrderFunction(orthant2, orthant2, {0: 1, 1: 1})
        rep = verify_order_axioms(f)
        assert rep.ok and rep.strict

    def test_positivity_flag(self, orthant2, starred):
        f = OrderFunction(orthant2, starred, {0: 2, 1: 2, 2: 0})
        rep = verify_order_axioms(f)
        assert not rep.positive

    def test_integrality_flag(self):
        # a singular piece with a half-integral value at its lattice point
        sing = singular_cone_2d(2)
        f = OrderFunction(sing, sing, {0: 1, 1: 0})
        rep = verify_order_axioms(f)
        # value at (1,1) = (1 + 0)/2, not an integer
        assert not rep.integral
        assert any("integrality" in v for v in rep.violations)

    def test_integral_on_random_lattice_points(self, orthant2):
        rng = random.Random(31)
        f = star_order_function(orthant2, (1, 1), 2)
        sub = f.subdivision
        for _ in range(50):
            x = (rng.randint(0, 9), rng.randint(0, 9))
            if x == (0, 0):
                continue
            assert Fraction(evaluate(f, x)).denominator == 1

    def test_convexity_checked_only_within_base_cones(self):
        # a concave kink across a base-cone boundary must not be flagged
        two = Complex.from_maximal_cones(2, [(1, 0), (0, 1), (-1, 0)], [[0, 1], [1, 2]])
        f = OrderFunction(two, two, {0: 3, 1: 1, 2: 3})
        assert verify_order_axioms(f).ok

    def test_non_simplicial_rejected(self):
        sq = Complex.from_maximal_cones(
            3, [(1, 1, 1), (-1, 1, 1), (-1, -1, 1), (1, -1, 1)], [[0, 1, 2, 3]]
        )
        with pytest.raises(ValueError, match="not simplicial"):
            OrderFunction(sq, sq, {i: 1 for i in range(4)})


class TestLinearityDomains:
    def test_strict_keeps_subdivision(self, orthant2, starred):
        f = OrderFunction(orthant2, starred, {0: 2, 1: 2, 2: 3})
        assert linearity_domains(f) == starred

    def test_flat_merges_back(self, orthant2, starred):
        f = OrderFunction(orthant2, starred, {0: 1, 1: 1, 2: 2})
        assert same_complex(linearity_domains(f), orthant2)

    def test_globally_linear(self, orthant2):
        f = OrderFunction(orthant2, orthant2, {0: 1, 1: 2})
        assert same_complex(linearity_domains(f), orthant2)

    def test_partial_merge(self, orthant2):
        # wall at (1,1) flat (2 + 4 = 2*3), wall at (1,2) strict (2 + 3 > 4):
        # the two pieces below the flat wall merge into <e1,(1,2)>
        st1 = star_subdivide(orthant2, (1, 1))
        st2 = star_subdivide(st1, (1, 2))
        f = OrderFunction(orthant2, st2, {0: 2, 1: 2, 2: 3, 3: 4})
        rep = verify_order_axioms(f)
        assert rep.ok and not rep.strict
        assert same_complex(linearity_domains(f), star_subdivide(orthant2, (1, 2)))


class TestStarOrderFunction:
    def test_scale_two(self, orthant2, starred):
        f = star_order_function(orthant2, (1, 1), 2)
        assert f.ray_values == (2, 2, 3)
        rep = verify_order_axioms(f)
        assert rep.ok and rep.strict and rep.positive
        assert linearity_domains(f) == f.subdivision

    def test_scale_one_works_here(self, orthant2):
        f = star_order_function(orthant2, (1, 1), 1)
        assert f.ray_values == (1, 1, 1)
        assert verify_order_axioms(f).strict

    def test_center_on_shared_facet(self, orthant3):
        # two 3-cones sharing the facet containing the center
        cx = Complex.from_maximal_cones(
            3,
            [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)],
            [[0, 1, 2], [0, 1, 3]],
        )
        f = star_order_function(cx, (1, 1, 0), 2)
        rep = verify_order_axioms(f)
        assert rep.ok and rep.strict and rep.positive

    def test_existing_ray_gives_identity(self, orthant2):
        f = star_order_function(orthant2, (1, 0), 3)
        assert f.subdivision is orthant2
        assert f.ray_values == (3, 3)

    def test_ray_in_no_cone_named(self):
        # (1, 1) lies in the cone [0, 1] and equals ray 2, which no cone uses
        cx = Complex.from_maximal_cones(2, [(1, 0), (1, 3), (1, 1)], [[0, 1]])
        with pytest.raises(ValueError, match=r"^center \(1, 1\) is ray 2, which is in no cone$"):
            star_order_function(cx, (1, 1), 3)

    def test_insufficient_scale(self):
        sing = singular_cone_2d(4)
        # dip 1 at (1,3) makes the value M - 1/3 at (1,1): never integral
        with pytest.raises(ValueError, match="scale insufficient"):
            star_order_function(sing, (1, 3), 1)

    def test_non_simplicial_rejected(self):
        sq = Complex.from_maximal_cones(
            3, [(1, 1, 1), (-1, 1, 1), (-1, -1, 1), (1, -1, 1)], [[0, 1, 2, 3]]
        )
        with pytest.raises(ValueError, match="not simplicial"):
            star_order_function(sq, (0, 0, 1), 2)


class TestSearchCentered:
    def test_singular_needs_bigger_dip(self):
        sing = singular_cone_2d(4)
        host = frozenset({0, 1})
        f, scale, dip = search_centered_order_function(sing, [((1, 3), host)])
        rep = verify_order_axioms(f)
        assert rep.ok and rep.strict and rep.positive
        # dip must clear the denominator 3 of the remaining piece
        assert dip % 3 == 0

    def test_trivial_batch(self, orthant2):
        f, scale, dip = search_centered_order_function(orthant2, [])
        assert f.subdivision == orthant2
        assert f.ray_values == (1, 1)


class TestCenteredEdges:
    """The public centered constructors at their edges: a center that is
    already a ray, a negative scale, a scale L does not divide, no center."""

    RAY = ((1, 0), (0,))
    DIAGONAL = ((1, 1), (0, 1))

    def test_ray_center_is_not_valued_anew(self, orthant2):
        f, scale, dip = search_centered_order_function(orthant2, [self.RAY])
        assert (f.ray_values, scale, dip) == ((2, 2), 2, 1)

    def test_ray_center_beside_a_new_center(self, orthant2):
        f, scale, dip = search_centered_order_function(orthant2, [self.RAY, self.DIAGONAL])
        assert (f.ray_values, scale, dip) == ((2, 2, 3), 2, 1)

    def test_replay_places_old_rays_at_any_scale(self, orthant2):
        f = centered_order_function(orthant2, [self.RAY], -1, 1)
        assert f.subdivision is orthant2
        assert f.ray_values == (-1, -1)

    def test_replay_rejects_a_non_positive_new_value(self, orthant2):
        assert centered_order_function(orthant2, [self.RAY, self.DIAGONAL], -1, 1) is None

    def test_replay_rejects_a_scale_off_the_common_denominator(self):
        # (1, 1) = (3, 1) / 4 + (1, 3) / 4: coordinate sum 1/2, so L = 2
        cx = Complex.from_maximal_cones(2, [(3, 1), (1, 3)], [[0, 1]])
        assert centered_order_function(cx, [((1, 1), (0, 1))], 1, 1) is None
        assert centered_order_function(cx, [((1, 1), (0, 1))], 4, 1).ray_values == (4, 4, 1)

    def test_no_center_is_the_constant_one(self, orthant2):
        f, scale, dip = search_centered_order_function(orthant2, [])
        assert f.subdivision is orthant2
        assert (f.ray_values, scale, dip) == ((1, 1), 1, 1)

    def test_no_center_is_solved_like_any_batch(self):
        # the constant 1 is 5/4 at (2, 3) = 3/8 (3, 1) + 7/8 (1, 3), so the
        # least integral scale is 4
        cx = Complex.from_maximal_cones(2, [(3, 1), (1, 3)], [[0, 1]])
        f, scale, dip = search_centered_order_function(cx, [])
        assert (f.ray_values, scale, dip) == ((4, 4), 4, 1)
        assert verify_order_axioms(f).ok


class TestCompose:
    def test_identity_inner(self, orthant2, starred):
        outer = star_order_function(orthant2, (1, 1), 2)
        inner = OrderFunction(starred, starred, {0: 1, 1: 1, 2: 1})
        comp = compose_order_functions(outer, inner)
        assert same_complex(linearity_domains(comp), starred)

    def test_two_stars(self, orthant2, starred):
        outer = star_order_function(orthant2, (1, 1), 2)
        inner = star_order_function(starred, (2, 1), 2)
        comp, mult = compose_with_multiplier(outer, inner)
        rep = verify_order_axioms(comp)
        assert rep.ok and rep.strict and rep.positive
        assert comp.base == orthant2
        assert same_complex(linearity_domains(comp), inner.subdivision)
        assert mult >= 1

    def test_composition_cap_names_itself(self, orthant2, starred, monkeypatch):
        import equifan.orderfun as orderfun

        outer = star_order_function(orthant2, (1, 1), 2)
        inner = star_order_function(starred, (2, 1), 2)
        monkeypatch.setattr(orderfun, "COMPOSITION_CAP", 0)
        with pytest.raises(ValueError, match=r"^composition cap exceeded: .*composition_cap=0$"):
            compose_with_multiplier(outer, inner)

    def test_barycentric_of_orthant3_as_iterated_stars(self, orthant3):
        from equifan.subdivide import _barycentric_cascade

        full = barycentric_subdivision(orthant3)
        comp = None
        for centers in _barycentric_cascade(orthant3):
            base = orthant3 if comp is None else comp.subdivision
            f, scale, dip = search_centered_order_function(base, centers)
            comp = f if comp is None else compose_order_functions(comp, f)
        rep = verify_order_axioms(comp)
        assert rep.ok and rep.strict and rep.positive
        assert comp.subdivision == full
        assert len(full.maximal_cones) == 6
        assert same_complex(linearity_domains(comp), full)

    def test_inner_subdivision_must_subdivide_its_base(self):
        # the inner function's one cone (1,0),(1,1) covers part of its base
        base = singular_cone_2d(3)
        outer = OrderFunction(base, base, [3, 3])
        part = Complex.from_maximal_cones(2, [(1, 0), (1, 3), (1, 1)], [[0, 2]])
        inner = OrderFunction(base, part, [3, 3, 2])
        message = r"^subdivision invariant violated: interior facet \[2\] of host \[0, 1\] met 1 time\(s\), expected 2$"
        with pytest.raises(ValueError, match=message):
            compose_with_multiplier(outer, inner)
        with pytest.raises(ValueError, match=message):
            compose_order_functions(outer, inner)

    def test_mismatched_chain(self, orthant2, starred):
        outer = star_order_function(orthant2, (1, 1), 2)
        with pytest.raises(ValueError, match="composition mismatch"):
            compose_order_functions(outer, outer)

    def test_composition_preserves_positivity_and_strictness(self, orthant2):
        rng = random.Random(37)
        cur = orthant2
        comp = None
        for center in [(1, 1), (2, 1), (1, 3)]:
            f, scale, dip = search_centered_order_function(
                cur, [(center, cur.minimal_cone_containing(center))]
            )
            comp = f if comp is None else compose_order_functions(comp, f)
            cur = f.subdivision
        rep = verify_order_axioms(comp)
        assert rep.ok and rep.strict and rep.positive


class TestOrderFunctionType:
    def test_values_must_cover_rays(self, orthant2):
        with pytest.raises(ValueError, match="cover"):
            OrderFunction(orthant2, orthant2, {0: 1})

    def test_values_must_be_integers(self, orthant2):
        with pytest.raises(ValueError, match="not an integer"):
            OrderFunction(orthant2, orthant2, {0: 1, 1: Fraction(1, 2)})


@st.composite
def cones_with_values(draw):
    """One singular simplicial cone of rank 2-3 in a lattice of rank up to
    4, with index at most 30, and integer values at its generators.
    Half the cones are e_0, e_0 + c_1 e_1, ..., whose quotient
    Z/c_1 x ... is often not cyclic and has more than one SNF row."""
    k = draw(st.integers(min_value=2, max_value=3))
    n = draw(st.integers(min_value=k, max_value=4))
    if draw(st.booleans()):
        mult = st.integers(min_value=1, max_value=6)
        cs = [1] + draw(st.lists(mult, min_size=k - 1, max_size=k - 1))
        gens = [tuple(int(j == 0) + c * (j == i > 0) for j in range(n)) for i, c in enumerate(cs)]
    else:
        vec = st.tuples(*[st.integers(min_value=-4, max_value=4)] * n).filter(any)
        gens = [primitive(v) for v in draw(st.lists(vec, min_size=k, max_size=k))]
    if rank(gens) < k or not 2 <= cone_index(gens) <= 30:
        reject()
    values = draw(st.lists(st.integers(min_value=-12, max_value=12), min_size=k, max_size=k))
    return Complex.from_maximal_cones(n, gens, [list(range(k))]), values


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(cones_with_values())
def test_integrality_verdict_matches_enumeration(case):
    """The SNF verdict equals the verdict of listing every parallelepiped
    point, and each named point is one of them with a non-integral value."""
    cx, values = case
    rep = verify_order_axioms(OrderFunction(cx, cx, values))
    values_at = {
        point: sum(a * v for a, v in zip(coords, values))
        for point, coords in parallelepiped_points(cx.generators(cx.maximal_cones[0]))
    }
    assert rep.integral == all(v.denominator == 1 for v in values_at.values())
    named = [v for v in rep.violations if v.startswith("integrality fails")]
    assert bool(named) != rep.integral
    pattern = r"integrality fails at lattice point \((.*)\): value (\S+)"
    for text in named:
        point, value = re.fullmatch(pattern, text).groups()
        point = tuple(int(c) for c in point.rstrip(",").split(","))
        assert values_at[point] == Fraction(value)
        assert Fraction(value).denominator != 1


def test_wall_relation_matches_the_fraction_reference():
    """The integer solve reduced by one gcd against a Fraction solve and
    the lcm of its denominators, on 2,400 generator sets of ranks 1-5
    (about one in five dependent) with integer points in their span and
    outside it: equal relations, equal Nones and equal errors."""
    rng = random.Random(24)
    outcomes = {"relation": 0, "outside": 0, "not simplicial": 0}
    for _ in range(2400):
        n = rng.randint(1, 5)
        k = rng.randint(1, n)
        gens = [tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(k)]
        if rng.random() < 0.2:  # a dependent set: the last generator a combination of the others
            coeffs = [rng.randint(-2, 2) for _ in gens[:-1]]
            gens[-1] = tuple(sum(a * g[j] for a, g in zip(coeffs, gens)) for j in range(n))
        if rng.random() < 0.5:  # a point in the span, often with fractional coordinates
            point = tuple(sum(rng.randint(-5, 5) * g[j] for g in gens) for j in range(n))
            point = primitive(point) if any(point) else point
        else:
            point = tuple(rng.randint(-7, 7) for _ in range(n))
        gens = tuple(gens)
        try:
            expected = reference_wall_relation(gens, point)
        except ValueError as e:
            with pytest.raises(ValueError, match=str(e)):
                _wall_relation.__wrapped__(gens, point)
            outcomes[str(e)] += 1
            continue
        assert _wall_relation.__wrapped__(gens, point) == expected
        outcomes["relation" if expected is not None else "outside"] += 1
    assert min(outcomes.values()) > 200, outcomes
