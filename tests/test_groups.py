"""Group actions: generation, verification, strictness, orbits, quotients."""

import random
import re
from fractions import Fraction

import pytest

from equifan.complexes import Complex, is_subdivision, same_complex
from equifan.groups import (
    GroupAction,
    check_G_strict,
    check_fixed_cone_identity,
    generate_group,
    group_action,
    quotient_structure,
    trivial_group,
    verify_action,
)
from equifan.lattice import mat_vec
from equifan.orderfun import OrderFunction, evaluate, verify_order_axioms
from equifan.subdivide import barycentric_subdivision, star_subdivide

from conftest import (
    CYC3,
    NEG2,
    REFLECT_X,
    ROT2,
    SWAP2,
    SWAP3_01,
    SWAP3_12,
    ReferenceAction,
    complete_2d_fan,
    corpus,
    orbit_star_subdivide,
    orthant,
    point_orbit,
    quadrant_and_ray,
    random_action_pairs,
    simultaneous_star,
    singular_cone_2d,
)

CYC4 = tuple(tuple(int(j == (i - 1) % 4) for j in range(4)) for i in range(4))
SWAP4_01 = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
NEG4_0 = ((-1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
CANDIDATE_GENERATORS = {
    1: [[((-1,),)]],
    2: [[SWAP2], [ROT2], [NEG2], [SWAP2, NEG2], [REFLECT_X]],
    3: [[CYC3], [SWAP3_01], [SWAP3_12], [CYC3, SWAP3_01]],
    4: [[CYC4], [SWAP4_01], [SWAP4_01, CYC4], [NEG4_0]],
}


def is_equivariant_subdivision(fine, coarse, elements):
    """`fine` subdivides `coarse` and the group permutes its cones."""
    return bool(is_subdivision(fine, coarse)) and verify_action(fine, elements).ok


class TestGenerateGroup:
    def test_empty_is_identity(self):
        from equifan.lattice import identity_matrix

        assert generate_group([], rank=2) == (identity_matrix(2),)
        with pytest.raises(ValueError, match="rank"):
            generate_group([])

    def test_swap(self):
        assert len(generate_group([SWAP2])) == 2

    def test_three_cycle(self):
        assert len(generate_group([CYC3])) == 3

    def test_s3(self):
        assert len(generate_group([CYC3, SWAP3_01])) == 6

    def test_non_unimodular_rejected(self):
        with pytest.raises(ValueError, match="unimodular"):
            generate_group([((2, 0), (0, 1))])

    def test_cap(self):
        with pytest.raises(ValueError, match="cap"):
            generate_group([CYC3, SWAP3_01], cap=3)


class TestVerifyAction:
    def test_swap_on_orthant(self, orthant2):
        report = verify_action(orthant2, generate_group([SWAP2]))
        assert report.ok
        swap_perm = next(p for p in report.ray_permutations if p != (0, 1))
        assert swap_perm == (1, 0)

    def test_swap_on_slanted_cone_fails(self):
        report = verify_action(singular_cone_2d(2), generate_group([SWAP2]))
        assert not report.ok
        assert any("not a ray" in v for v in report.violations)

    def test_failing_action_is_a_falsy_record(self):
        action = verify_action(singular_cone_2d(2), generate_group([SWAP2]))
        assert isinstance(action, GroupAction) and not action and not action.ok
        assert action.violations == ("element 0 maps ray 0 = (1, 0) to (0, 1), not a ray",)
        assert action.ray_permutations == ()
        message = r"^group does not act on the complex: element 0 maps ray 0 = \(1, 0\)"
        with pytest.raises(ValueError, match=message):
            action.ray_orbits()
        with pytest.raises(ValueError, match=message):
            action.cone_orbits()

    @pytest.mark.parametrize("element", [((0, 1), (1, 0)), ((1, 0, 0), (0, 1), (0, 0, 1))])
    def test_element_of_the_wrong_size_is_a_violation(self, element):
        cx = orthant(3)
        elements = [((1, 0, 0), (0, 1, 0), (0, 0, 1)), element]
        assert verify_action(cx, elements).violations == ("element 1 is not a 3x3 matrix",)
        with pytest.raises(ValueError, match=r"^group does not act on the complex: element 1 is not a 3x3 matrix$"):
            group_action(cx, elements)

    def test_cone_not_mapped_to_a_cone_is_a_violation(self):
        elements = generate_group([REFLECT_X])
        assert elements[0] == REFLECT_X
        action = verify_action(quadrant_and_ray(), elements)
        assert action.violations == ("element 0 maps cone [0, 1] to [1, 2], not a cone",)
        assert action.ray_permutations == ()

    def test_identity_group_always_acts(self):
        for cx in (orthant(2), singular_cone_2d(3), complete_2d_fan()):
            assert verify_action(cx, trivial_group(cx.ambient_rank)).ok


class TestFixedConeIdentity:
    def test_orthant_violates(self, orthant2):
        report = check_fixed_cone_identity(orthant2, generate_group([SWAP2]))
        assert not report.ok
        assert any("permutes its edges" in v for v in report.violations)

    def test_star_passes(self, orthant2):
        st = star_subdivide(orthant2, (1, 1))
        assert check_fixed_cone_identity(st, generate_group([SWAP2])).ok

    def test_barycentric_orthant3_passes(self, orthant3):
        b = barycentric_subdivision(orthant3)
        assert check_fixed_cone_identity(b, generate_group([CYC3])).ok


class TestGStrict:
    def test_orthant_fails(self, orthant2):
        report = check_G_strict(orthant2, generate_group([SWAP2]))
        assert not report.ok
        assert any("in one orbit" in v for v in report.violations)

    def test_star_passes(self, orthant2):
        st = star_subdivide(orthant2, (1, 1))
        assert check_G_strict(st, generate_group([SWAP2])).ok

    def test_trivial_group_always_passes(self):
        for cx in (orthant(2), orthant(3), complete_2d_fan()):
            assert check_G_strict(cx, trivial_group(cx.ambient_rank)).ok

    def test_strict_implies_fixed_cone_identity_randomized(self):
        # randomized search for a counterexample to the implication; none exists
        rng = random.Random(41)
        pairs = random_action_pairs(rng, 20, require_strict=True)
        assert len(pairs) == 20
        for cx, elements in pairs:
            assert check_fixed_cone_identity(cx, elements).ok


class TestEquivariantSubdivision:
    def test_barycentric_is_equivariant(self, orthant3):
        b = barycentric_subdivision(orthant3)
        assert is_equivariant_subdivision(b, orthant3, generate_group([CYC3]))
        assert is_equivariant_subdivision(b, orthant3, generate_group([CYC3, SWAP3_01]))

    def test_fixed_center_star(self, orthant2):
        st = star_subdivide(orthant2, (1, 1))
        assert is_equivariant_subdivision(st, orthant2, generate_group([SWAP2]))

    def test_one_sided_star_is_not(self, orthant2):
        st = star_subdivide(orthant2, (2, 1))
        assert not is_equivariant_subdivision(st, orthant2, generate_group([SWAP2]))


class TestEquivariantStar:
    def test_orbit_of_two(self, orthant2):
        g = generate_group([SWAP2])
        st = star_subdivide(orthant2, (1, 1))
        out = orbit_star_subdivide(st, (2, 1), g)
        assert (2, 1) in out.rays and (1, 2) in out.rays
        assert is_equivariant_subdivision(out, orthant2, g)
        # group maps the new cone set to itself
        assert verify_action(out, g).ok

    def test_fixed_center(self, orthant2):
        g = generate_group([SWAP2])
        out = orbit_star_subdivide(orthant2, (1, 1), g)
        assert len(out.maximal_cones) == 2

    def test_orbit_collision_rejected(self, orthant2):
        g = generate_group([SWAP2])
        # (2,1) and (1,2) both lie in the undivided orthant
        with pytest.raises(ValueError, match="orbit not simultaneous-safe"):
            orbit_star_subdivide(orthant2, (2, 1), g)

    def test_orbit_sizes_divide_group_order(self, orthant3):
        from equifan.groups import group_action

        g = generate_group([CYC3, SWAP3_01])
        b = barycentric_subdivision(orthant3)
        action = group_action(b, g)
        for orbit in action.ray_orbits():
            assert len(g) % len(orbit) == 0
        for orbit in action.cone_orbits():
            assert len(g) % len(orbit) == 0


class TestQuotient:
    def test_trivial_group(self, orthant2):
        q = quotient_structure(orthant2, trivial_group(2))
        assert len(q.ray_orbits) == 2
        assert len(q.cone_orbits) == len(orthant2.cones)

    def test_swap_on_star(self, orthant2):
        st = star_subdivide(orthant2, (1, 1))
        q = quotient_structure(st, generate_group([SWAP2]))
        assert q.ray_orbits == ((0, 1), (2,))
        maximal = q.maximal_representatives
        assert len(maximal) == 1

    def test_cycle_on_barycentric(self, orthant3):
        b = barycentric_subdivision(orthant3)
        q = quotient_structure(b, generate_group([CYC3]))
        top = [o for o in q.cone_orbits if len(o[0]) == 3]
        assert len(top) == 2
        assert all(len(o) == 3 for o in top)

    def test_precondition_failure_names_check(self, orthant2):
        # both preconditions fail on the raw orthant; the error must name one
        with pytest.raises(ValueError, match="check failed"):
            quotient_structure(orthant2, generate_group([SWAP2]))

    def test_face_relations_reference_representatives(self, orthant2):
        st = star_subdivide(orthant2, (1, 1))
        q = quotient_structure(st, generate_group([SWAP2]))
        reps = {tuple(sorted(c)) for c in q.cone_representatives}
        for rep, rels in q.face_relations.items():
            assert rep in reps
            for face, face_rep, elem in rels:
                assert face_rep in reps


class TestInvariantOrderFunction:
    """Values constant on the ray orbits of an equivariant subdivision."""

    def test_swap_extension(self, orthant2):
        st = star_subdivide(orthant2, (1, 1))
        g = generate_group([SWAP2])
        assert group_action(st, g).ray_orbits() == ((0, 1), (2,))
        f = OrderFunction(orthant2, st, (2, 2, 3))
        rep = verify_order_axioms(f)
        assert rep.ok and rep.strict and rep.positive
        assert evaluate(f, (3, 1)) == evaluate(f, (1, 3))

    def test_trivial_group_identity_extension(self, orthant2):
        assert group_action(orthant2, trivial_group(2)).ray_orbits() == ((0,), (1,))
        f = OrderFunction(orthant2, orthant2, (5, 7))
        assert verify_order_axioms(f).ok

    def test_cycle_on_barycentric_verifies(self, orthant3):
        b = barycentric_subdivision(orthant3)
        g = generate_group([CYC3])
        # one value per orbit (e_i; the edge and face barycenters)
        action = group_action(b, g)
        values = [0] * len(b.rays)
        for orbit in action.ray_orbits():
            for rid in orbit:
                ones = sum(1 for v in b.rays[rid] if v != 0)
                values[rid] = {1: 4, 2: 7, 3: 9}[ones]
        f = OrderFunction(orthant3, b, values)
        rep = verify_order_axioms(f)
        assert rep.ok and rep.positive
        # invariance under evaluation at random support points
        rng = random.Random(43)
        for m in g:
            for _ in range(20):
                w = [rng.randint(0, 5) for _ in range(3)]
                if not any(w):
                    continue
                x = tuple(Fraction(v, 2) for v in w)
                assert evaluate(f, x) == evaluate(f, mat_vec(m, x))


class TestSimultaneousStar:
    def test_disjoint_centers(self, orthant2):
        st = star_subdivide(orthant2, (1, 1))
        out = simultaneous_star(st, [(2, 1), (1, 2)])
        assert (2, 1) in out.rays and (1, 2) in out.rays

    def test_shared_cone_rejected(self, orthant2):
        with pytest.raises(ValueError, match="orbit not simultaneous-safe"):
            simultaneous_star(orthant2, [(2, 1), (1, 2)])

    def test_orbit_helper(self):
        g = generate_group([SWAP2])
        assert point_orbit((2, 1), g) == ((1, 2), (2, 1))


def _reference_cases():
    """(complex, elements) pairs: random verified actions, every corpus fan
    under every candidate group of its rank (most of which do not act),
    and elements that are not unimodular or of the wrong size."""
    cases = random_action_pairs(random.Random(11), 25)
    for _, cx in corpus():
        for gens in CANDIDATE_GENERATORS[cx.ambient_rank]:
            cases.append((cx, generate_group(gens)))
    cases.append((quadrant_and_ray(), generate_group([REFLECT_X])))
    cases.append((orthant(2), [((1, 0), (0, 1)), ((2, 0), (0, 1))]))
    cases.append((orthant(2), [((1, 0), (0, 1)), ((0, 1, 0), (1, 0, 0), (0, 0, 1))]))
    return cases


def test_action_questions_match_cone_table_reference():
    """Every group question read off the ray permutations agrees with the
    per-element cone tables, on actions that act and ones that do not."""
    seen = {"acts": 0, "not a ray": 0, "not a cone": 0, "not unimodular": 0, "matrix": 0,
            "quotient": 0, "fixed-cone": 0, "strictness": 0}
    for cx, elements in _reference_cases():
        action = verify_action(cx, elements)
        ref = ReferenceAction(cx, elements)
        assert action.violations == tuple(ref.violations)
        for v in ref.violations:
            seen.update({key: seen[key] + 1 for key in seen if key in v})
        if ref.violations:
            message = "^group does not act on the complex: " + re.escape("; ".join(ref.violations)) + "$"
            for check in (check_fixed_cone_identity, check_G_strict, quotient_structure):
                with pytest.raises(ValueError, match=message):
                    check(cx, elements)
            continue
        seen["acts"] += 1
        assert action.ray_permutations == tuple(ref.perms)
        assert action.ray_orbits() == ref.ray_orbits()
        assert action.cone_orbits() == ref.cone_orbits()
        assert action.cone_orbits(maximal_only=True) == ref.cone_orbits(maximal_only=True)
        assert check_fixed_cone_identity(cx, elements).violations == ref.fixed_cone_identity()
        assert check_G_strict(cx, elements).violations == ref.strictness()
        expected = ref.quotient()
        if isinstance(expected, str):
            seen["fixed-cone" if expected.startswith("fixed") else "strictness"] += 1
            with pytest.raises(ValueError, match="^" + re.escape(expected) + "$"):
                quotient_structure(cx, elements)
        else:
            seen["quotient"] += 1
            assert quotient_structure(cx, elements) == expected
    assert min(seen.values()) >= 1, seen
