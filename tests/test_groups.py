"""Group actions: generation, verification, strictness, orbits, quotients."""

import random
import re
from fractions import Fraction

import pytest

from equifan.complexes import Complex, is_simplicial, is_subdivision, same_complex
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
from equifan.resolve import _inherit_frames, initial_frames_plain
from equifan.subdivide import _stars, barycenter, barycentric_subdivision, star_subdivide

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
    reference_check_simultaneous,
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

    def test_orbits_of_matrices_without_the_identity(self, orthant2):
        # the orbit of a ray is closed under SWAP2 from the ray itself
        action = verify_action(orthant2, [SWAP2])
        assert action.ray_orbits() == ((0, 1),)
        assert action.cone_orbits() == (
            (frozenset(),), (frozenset({0}), frozenset({1})), (frozenset({0, 1}),)
        )
        assert check_G_strict(orthant2, [SWAP2]).violations == ["cone [0, 1] has edges [0, 1] in one orbit"]

    def test_orbits_close_under_one_generator(self, orthant3):
        assert verify_action(orthant3, [CYC3]).ray_orbits() == ((0, 1, 2),)

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

    def test_generating_set_is_rejected(self):
        # the 3D orthant fan under the rotation group of the cube, given by
        # two generators: no single generator carries every cone of its
        # barycentric subdivision onto its orbit representative
        rot_z = ((0, -1, 0), (1, 0, 0), (0, 0, 1))
        rays = [tuple(s if j == i else 0 for j in range(3)) for s in (1, -1) for i in range(3)]
        cones = [[a, b, c] for a in (0, 3) for b in (1, 4) for c in (2, 5)]
        b = barycentric_subdivision(Complex.from_maximal_cones(3, rays, cones))
        with pytest.raises(ValueError, match="the elements must be the whole group"):
            quotient_structure(b, [rot_z, CYC3])
        q = quotient_structure(b, generate_group([rot_z, CYC3]))
        assert len(q.maximal_representatives) == 2

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

    def test_one_center_per_touched_host_matches_the_pairwise_reference(self):
        # batches of distinct carriers of two or more rays (a round's center
        # is a parallelepiped point, never a ray) from the simplicial corpus
        # complexes and their barycentric subdivisions, each starred at its
        # barycenter by the one star loop, as a resolve round stars its batch
        complexes = [cx for _, cx in corpus() if is_simplicial(cx)]
        complexes += [barycentric_subdivision(cx) for cx in complexes if len(cx.cones) < 20]
        complexes = [cx for cx in complexes if any(len(c) >= 2 for c in cx.cones)]
        rng = random.Random(23)
        outcomes = []
        for _ in range(1200):
            cx = rng.choice(complexes)
            cones = sorted((c for c in cx.cones if len(c) >= 2), key=sorted)
            carriers = rng.sample(cones, rng.randint(1, min(5, len(cones))))
            _, pieces = _stars(cx, [(barycenter(cx.generators(c)), sorted(c)) for c in carriers])
            touched = [(sigma, ps) for sigma, ps in pieces if ps != [sigma]]
            # the touched hosts are the carriers' stars, shared or not
            assert {sigma for sigma, _ in touched} == {
                sigma for sigma in cx.maximal_cones if any(c <= sigma for c in carriers)
            }
            one_center_each = all(len(frozenset().union(*ps) - sigma) == 1 for sigma, ps in touched)
            try:
                reference_check_simultaneous(cx, carriers)
                safe = True
            except ValueError:
                safe = False
            assert one_center_each == safe, (cx, carriers)
            # and the round's guard says the same
            try:
                _inherit_frames(initial_frames_plain(cx), pieces)
                guarded = True
            except RuntimeError as e:
                assert str(e).startswith("centers not simultaneous-safe: piece ")
                guarded = False
            assert guarded == safe, (cx, carriers)
            outcomes.append(safe)
        assert outcomes.count(True) >= 200
        assert outcomes.count(False) >= 200

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


# ---------------------------------------------------------------------------
# group questions asked of a generating set


def _generating_sets(rng, elements, count):
    """`count` generating sets of a group: the elements in a random order,
    each kept when the ones kept so far do not generate it; half of the
    sets get one redundant element (the identity, say) somewhere too."""
    rank = len(elements[0])
    out = []
    for _ in range(count):
        pool = list(elements)
        rng.shuffle(pool)
        gens = []
        for m in pool:
            if m not in generate_group(gens, rank=rank):
                gens.append(m)
        if rng.random() < 0.5:
            gens.insert(rng.randrange(len(gens) + 1), rng.choice(elements))
        out.append(gens)
    return out


def _is_group(matrices) -> bool:
    try:
        return tuple(matrices) == generate_group(matrices)
    except ValueError:  # not unimodular, or of unequal sizes
        return False


def _frames(rng, cx, ref):
    """Frames on the maximal cones: by ray id, shuffled, and sorted by ray
    orbit (equivariant whenever no cone has two edges in one orbit)."""
    orbit_of = {i: k for k, orbit in enumerate(ref.ray_orbits()) for i in orbit}
    shuffled = {}
    for mc in cx.maximal_cones:
        frame = sorted(mc)
        rng.shuffle(frame)
        shuffled[mc] = tuple(frame)
    return [
        {mc: tuple(sorted(mc)) for mc in cx.maximal_cones},
        shuffled,
        {mc: tuple(sorted(mc, key=lambda i: (orbit_of[i], i))) for mc in cx.maximal_cones},
    ]


def _invariant_values(rng, cx, ref):
    """Positive ray values constant on the ray orbits, and the same values
    with one ray of a larger orbit raised (no longer invariant)."""
    orbits = ref.ray_orbits()
    values = [0] * len(cx.rays)
    for k, orbit in enumerate(orbits):
        for i in orbit:
            values[i] = k + 1
    out = [tuple(values)]
    moved = [orbit for orbit in orbits if len(orbit) > 1]
    if moved:
        values[rng.choice(rng.choice(moved))] += 1
        out.append(tuple(values))
    return out


def _symmetric_singular_cases():
    """Non-smooth complexes with a group acting, for the center stability
    question: orbit stars at points of weight > 1 and mirrored cones."""
    mirrored = Complex.from_maximal_cones(2, [(1, 0), (1, -2), (0, 1), (-2, 1)], [[0, 1], [2, 3]])
    swap, rot = generate_group([SWAP2]), generate_group([ROT2])
    s3, c3 = generate_group([CYC3, SWAP3_01]), generate_group([CYC3])
    return [
        (mirrored, swap),
        (Complex.from_maximal_cones(2, [(1, 3), (3, 1)], [[0, 1]]), swap),
        (orbit_star_subdivide(star_subdivide(orthant(2), (1, 1)), (1, 3), swap), swap),
        (orbit_star_subdivide(complete_2d_fan(), (1, 2), rot), rot),
        (orbit_star_subdivide(barycentric_subdivision(orthant(3)), (1, 2, 4), s3), s3),
        (orbit_star_subdivide(barycentric_subdivision(orthant(3)), (1, 1, 3), c3), c3),
    ]


def test_generator_questions_match_the_whole_group():
    """Every group question asked of a random generating set agrees with
    the per-element cone tables of the whole group: whether it acts, the
    orbits, strictness, frame equivariance, center stability and the
    invariance of ray values, on actions that act and ones that do not."""
    from equifan.complexes import is_simplicial, is_smooth
    from equifan.resolve import certificate_flags, frames_equivariant, select_centers

    rng = random.Random(5)
    seen = {"acts": 0, "fails": 0, "strict": 0, "not strict": 0, "frames": 0, "no frames": 0,
            "stable": 0, "unstable": 0, "invariant": 0, "not invariant": 0}
    cases = [(cx, e) for cx, e in _reference_cases() if _is_group(e)]
    cases += random_action_pairs(random.Random(17), 15)
    cases += _symmetric_singular_cases()
    for cx, elements in cases:
        ref = ReferenceAction(cx, elements)
        for gens in _generating_sets(rng, elements, 2):
            assert generate_group(gens, rank=cx.ambient_rank) == elements
            action = verify_action(cx, gens)
            assert action.ok == (not ref.violations)
            if ref.violations:
                seen["fails"] += 1
                with pytest.raises(ValueError, match="^group does not act on the complex"):
                    check_G_strict(cx, gens)
                continue
            seen["acts"] += 1
            assert action.ray_orbits() == ref.ray_orbits()
            assert action.cone_orbits() == ref.cone_orbits()
            assert action.cone_orbits(maximal_only=True) == ref.cone_orbits(maximal_only=True)
            assert check_G_strict(cx, gens).violations == ref.strictness()
            seen["not strict" if ref.strictness() else "strict"] += 1

            for frames in _frames(rng, cx, ref):
                expected = all(
                    tuple(perm[i] for i in frames[mc]) == frames[cmap[mc]]
                    for perm, cmap in zip(ref.perms, ref.cone_maps)
                    for mc in frames
                )
                assert frames_equivariant(frames, action) == expected
                seen["frames" if expected else "no frames"] += 1
                if not is_simplicial(cx) or is_smooth(cx):
                    continue
                coords, chosen = select_centers(cx, frames)
                points = {p for p, _ in chosen}
                stable = all({mat_vec(m, p) for p in points} == points for m in elements)
                seen["stable" if stable else "unstable"] += 1
                if stable:
                    assert select_centers(cx, frames, gens) == (coords, chosen)
                else:
                    with pytest.raises(RuntimeError, match="not stable under the group"):
                        select_centers(cx, frames, gens)

            if not is_simplicial(cx):
                continue
            for values in _invariant_values(rng, cx, ref):
                composite = OrderFunction(cx, cx, values)
                flags = certificate_flags(cx, gens, cx, composite)
                expected = all(values[perm[i]] == values[i] for perm in ref.perms for i in range(len(values)))
                assert flags["ord_g_invariant"] == expected
                assert flags["equivariant"] and flags["g_strict"] == (not ref.strictness())
                seen["invariant" if expected else "not invariant"] += 1
    assert min(seen.values()) >= 1, seen
