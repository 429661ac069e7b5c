"""Complex representation, dual descriptions, validation, subdivision checks."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from equifan.complexes import (
    Complex,
    _extreme,
    _host_pieces,
    _intersect_cones,
    _peeled_faces,
    cone_dual,
    is_simplicial,
    is_smooth,
    is_subdivision,
    same_complex,
    validate_complex,
)
from equifan.lattice import (
    _first_point,
    cone_index,
    det,
    integrality_congruences,
    primitive,
    rank,
    smith_normal_form,
)
from equifan.subdivide import barycentric_subdivision, star_subdivide

from conftest import (
    complete_2d_fan,
    corpus,
    interior_point,
    orthant,
    p2_fan,
    reference_cone_dual,
    reference_extreme,
    reference_from_maximal_cones,
    reference_intersect_cones,
    reference_maximal_cones,
    square_cone,
    subset_faces_oracle,
)


def normalize_normals(normals):
    return {primitive(u) for u in normals}


class TestDualDescription:
    def test_orthant(self):
        dd = cone_dual(((1, 0), (0, 1)), 2)
        assert dd.equations == ()
        assert normalize_normals(dd.inequalities) == {(1, 0), (0, 1)}

    def test_slanted(self):
        dd = cone_dual(((1, 0), (1, 2)), 2)
        assert normalize_normals(dd.inequalities) == {(0, 1), (2, -1)}

    def test_single_ray_rank3(self):
        dd = cone_dual(((1, 0, 0),), 3)
        # span constraints y = 0, z = 0 plus the inequality x >= 0
        assert len(dd.equations) == 2
        eqs = {tuple(e) for e in dd.equations}
        assert eqs == {(0, 1, 0), (0, 0, 1)}
        assert normalize_normals(dd.inequalities) == {(1, 0, 0)}

    def test_not_pointed(self):
        # pointedness is a validation check, not a property of the dual
        for rays in ([(1, 0), (-1, 0)], [(1, 0), (-1, 1), (-1, -1)]):
            cx = Complex.from_maximal_cones(2, rays, [list(range(len(rays)))])
            assert "is not pointed" in validate_complex(cx).violations[0]

    def test_membership(self):
        dd = cone_dual(((1, 0), (1, 2)), 2)
        assert dd.contains((1, 1))
        assert dd.contains((1, 0))
        assert not dd.contains((0, -1))
        assert not dd.contains((-1, 0))


class TestFaces:
    def test_simplicial_counts(self, orthant2, orthant3):
        assert len(orthant2.faces(frozenset({0, 1}))) == 4
        assert len(orthant3.faces(frozenset({0, 1, 2}))) == 8

    def test_square_cone_count(self):
        sq = square_cone()
        faces = sq.faces(frozenset({0, 1, 2, 3}))
        # 1 zero + 4 edges + 4 facets + itself
        assert len(faces) == 10

    def test_subset_oracle_on_simplicial(self):
        for name, cx in corpus():
            if not is_simplicial(cx):
                continue
            for c in cx.maximal_cones:
                assert cx.faces(c) == subset_faces_oracle(cx, c), name

    def test_every_cone_matches_peeling(self):
        # a simplicial cone's faces are read off its dimension, carried over
        # in a starred complex, and any other cone is peeled
        for name, cx in corpus():
            for sub in (cx, barycentric_subdivision(cx)):
                for c in sub.cones:
                    order = sorted(c)
                    peeled = _peeled_faces(sub.generators(order), sub.ambient_rank)
                    assert sub.faces(c) == {frozenset(order[i] for i in f) for f in peeled}, name


class TestValidation:
    def test_p2_fan_valid(self):
        assert validate_complex(p2_fan()).ok

    def test_overlapping_cones_invalid(self):
        cx = Complex.from_maximal_cones(2, [(1, 0), (1, 2), (1, 1), (0, 1)], [[0, 1], [2, 3]])
        report = validate_complex(cx)
        assert not report.ok
        assert any("common face" in v for v in report.violations)

    def test_non_primitive_ray(self):
        cx = Complex.from_maximal_cones(2, [(2, 0), (0, 1)], [[0, 1]])
        report = validate_complex(cx)
        assert not report.ok
        assert any("not primitive" in v for v in report.violations)

    def test_duplicate_ray(self):
        cx = Complex(2, [(1, 0), (1, 0)], [frozenset(), frozenset({0}), frozenset({1})])
        report = validate_complex(cx)
        assert any("equal generators" in v for v in report.violations)

    def test_redundant_generator(self):
        cx = Complex.from_maximal_cones(2, [(1, 0), (0, 1), (1, 1)], [[0, 1, 2]])
        report = validate_complex(cx)
        assert any("extreme ray" in v for v in report.violations)

    @pytest.mark.parametrize(
        "rays, cones, message",
        [
            ([(1, 0)], [(0, 1)], "cone references unknown ray id 1"),
            ([(1, 0), (0, 1)], [(0, -1)], "cone references unknown ray id -1"),
            ([(1,)], [(0,)], "ray length does not match ambient rank"),
        ],
    )
    def test_from_maximal_cones_rejects_bad_tables(self, rays, cones, message):
        with pytest.raises(ValueError, match=rf"^{message}$"):
            Complex.from_maximal_cones(2, rays, cones)
        with pytest.raises(ValueError, match=rf"^{message}$"):
            Complex(2, rays, cones)

    def test_missing_face(self):
        cx = Complex(2, [(1, 0), (0, 1)], [frozenset({0, 1}), frozenset()])
        report = validate_complex(cx)
        assert any("missing" in v for v in report.violations)

    def test_corpus_valid(self):
        for name, cx in corpus():
            assert validate_complex(cx).ok, name


class TestSubdivision:
    def test_identity(self, orthant2):
        assert is_subdivision(orthant2, orthant2)

    def test_star(self, orthant2):
        st = star_subdivide(orthant2, (1, 1))
        assert is_subdivision(st, orthant2)

    def test_missing_piece_detected(self, orthant2):
        st = star_subdivide(orthant2, (1, 1))
        # drop the upper piece: the facet at the center ray becomes unpaired
        broken = Complex.from_maximal_cones(2, st.rays, [[0, 2]])
        report = is_subdivision(broken, orthant2)
        assert not report
        assert report.witnesses

    def test_double_cover_rejected(self, orthant2):
        # two subdivisions of the orthant laid over each other: every
        # interior wall still meets exactly two pieces
        fine = Complex.from_maximal_cones(
            2, [(1, 0), (0, 1), (1, 1), (1, 2)], [[0, 2], [2, 1], [0, 3], [3, 1]]
        )
        report = is_subdivision(fine, orthant2)
        assert not report
        assert any(w.startswith("boundary facet [0]") for w in report.witnesses)
        assert any(w.startswith("interior point") for w in report.witnesses)

    @pytest.mark.parametrize(
        "rank_, coarse_rays, fine_rays, fine_cones, expected",
        [
            # two subdivisions of the quadrant laid over each other: each
            # boundary facet met twice, an interior point in two pieces
            (2, [(1, 0), (0, 1)], [(1, 0), (0, 1), (1, 1), (1, 2)],
             [[0, 2], [2, 1], [0, 3], [3, 1]],
             ["boundary facet [0] of host [0, 1] met 2 time(s), expected 1",
              "boundary facet [1] of host [0, 1] met 2 time(s), expected 1",
              "interior point (2, 1) of piece [0, 2] also lies in piece [0, 3] of host [0, 1]"]),
            # the star of the quadrant at (1, 1) without its upper piece: the
            # interior facet through the center is met once
            (2, [(1, 0), (0, 1)], [(1, 0), (0, 1), (1, 1)], [[0, 2]],
             ["interior facet [2] of host [0, 1] met 1 time(s), expected 2"]),
            # the octant and its star at (1, 1, 1) laid over each other
            (3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],
             [[0, 1, 3], [1, 2, 3], [0, 2, 3], [0, 1, 2]],
             ["boundary facet [0, 1] of host [0, 1, 2] met 2 time(s), expected 1",
              "boundary facet [0, 2] of host [0, 1, 2] met 2 time(s), expected 1",
              "boundary facet [1, 2] of host [0, 1, 2] met 2 time(s), expected 1",
              "interior point (1, 1, 1) of piece [0, 1, 2] also lies in piece [0, 1, 3] of host [0, 1, 2]",
              "interior point (1, 1, 1) of piece [0, 1, 2] also lies in piece [0, 2, 3] of host [0, 1, 2]",
              "interior point (1, 1, 1) of piece [0, 1, 2] also lies in piece [1, 2, 3] of host [0, 1, 2]"]),
            # a ray covered twice: the zero facet lies on its boundary
            (2, [(1, 0)], [(1, 0), (2, 0)], [[0], [1]],
             ["boundary facet [] of host [0] met 2 time(s), expected 1",
              "interior point (1, 0) of piece [0] also lies in piece [1] of host [0]"]),
        ],
    )
    def test_tiling_witness_texts(self, rank_, coarse_rays, fine_rays, fine_cones, expected):
        coarse = Complex.from_maximal_cones(rank_, coarse_rays, [range(len(coarse_rays))])
        fine = Complex.from_maximal_cones(rank_, fine_rays, fine_cones)
        assert is_subdivision(fine, coarse).witnesses == expected

    def test_stray_lower_dimensional_cone_rejected(self, orthant2):
        # the orthant with the 1-D cone through (1, 1) as an extra maximal
        # cone: it lies in the orthant but is no piece of it
        fine = Complex.from_maximal_cones(2, [(1, 0), (0, 1), (1, 1)], [[0, 1], [2]])
        assert frozenset({2}) in fine.maximal_cones
        report = is_subdivision(fine, orthant2)
        assert not report
        assert report.witnesses == [
            "the pieces by host are not the maximal cones of the fine complex, each once"
        ]

    def test_pieces_found_geometrically(self, orthant2):
        st = star_subdivide(orthant2, (1, 1))
        (sigma, pieces), = _host_pieces(st, orthant2)
        assert sigma == frozenset({0, 1})
        assert pieces == list(st.maximal_cones)
        assert is_subdivision(st, orthant2).pieces == [(sigma, pieces)]

    def test_rank_mismatch(self, orthant2, orthant3):
        with pytest.raises(ValueError, match="rank"):
            is_subdivision(orthant3, orthant2)

    def test_unrelated_complex(self, orthant2):
        other = Complex.from_maximal_cones(2, [(-1, 0), (0, -1)], [[0, 1]])
        assert not is_subdivision(other, orthant2)

    def test_reflexive_transitive_on_chain(self, orthant2):
        c1 = star_subdivide(orthant2, (1, 1))
        c2 = star_subdivide(c1, (2, 1))
        c3 = star_subdivide(c2, (1, 2))
        chain = [orthant2, c1, c2, c3]
        for c in chain:
            assert is_subdivision(c, c)
        for i, fine in enumerate(chain):
            for coarse in chain[: i + 1]:
                assert is_subdivision(fine, coarse)

    def test_interior_points_in_exactly_one_piece(self):
        rng = random.Random(23)
        for cx in (orthant(2), p2_fan(), complete_2d_fan(), orthant(3)):
            fine = barycentric_subdivision(cx)
            assert is_subdivision(fine, cx)
            for sigma in cx.maximal_cones:
                for _ in range(5):
                    weights = [rng.randint(1, 9) for _ in sigma]
                    x = interior_point(cx, sigma, weights)
                    owners = [
                        c
                        for c in fine.maximal_cones
                        if fine.dim(c) == cx.dim(sigma) and fine.contains_point(c, x)
                    ]
                    assert len(owners) >= 1
                    # interior points (off the new walls) lie in exactly one piece
                    strict_owners = [
                        c
                        for c in owners
                        if not any(
                            fine.contains_point(f, x) for f in fine.facets(c)
                        )
                    ]
                    if strict_owners:
                        assert len(owners) == 1


class TestPredicates:
    def test_simplicial_and_smooth(self, orthant2):
        assert is_simplicial(orthant2) and is_smooth(orthant2)
        sing = Complex.from_maximal_cones(2, [(1, 0), (1, 2)], [[0, 1]])
        assert is_simplicial(sing) and not is_smooth(sing)
        assert not is_simplicial(square_cone())

    def test_same_complex_ignores_ray_order(self):
        a = Complex.from_maximal_cones(2, [(1, 0), (0, 1)], [[0, 1]])
        b = Complex.from_maximal_cones(2, [(0, 1), (1, 0)], [[0, 1]])
        assert same_complex(a, b)
        assert a != b


def _random_cone(rng, n):
    """1 to n + 3 nonzero generators with coordinates in [-3, 3], so lower
    dimensional cones, redundant and repeated generators all occur."""
    k, gens = rng.randint(1, n + 3), []
    while len(gens) < k:
        g = tuple(rng.randint(-3, 3) for _ in range(n))
        if any(g):
            gens.append(g)
    return tuple(gens)


def _pointed(dual, n):
    return rank(list(dual.equations) + list(dual.inequalities)) == n


FAULTS = ("repeated id", "equal rays", "zero ray", "unknown id", "short ray", "fractional entry", "rank")


def _construction_input(rng, fans):
    """(fault, rank, rays, cones) for `from_maximal_cones`.  The cones are
    the maximal cones of a corpus fan, or of a star of one at a point of a
    maximal cone, or one to three cones over random generators (so not
    simplicial, not pointed or lower dimensional), in random order; now
    and then a face of a given cone or a given cone again joins them.  Half
    the draws then carry one of the FAULTS (an unknown id in up to two
    cones, so the first one must be named)."""
    if rng.random() < 0.5:
        cx = rng.choice(fans)
        if rng.random() < 0.5:
            sigma = sorted(rng.choice(cx.maximal_cones))
            weights = [rng.randint(0, 2) for _ in sigma]
            if any(weights):
                gens = cx.generators(sigma)
                cx = star_subdivide(cx, primitive([sum(w * g[k] for w, g in zip(weights, gens)) for k in range(cx.ambient_rank)]))
        n, rays = cx.ambient_rank, list(cx.rays)
        cones = [sorted(c) for c in cx.maximal_cones]
        extras = [sorted(c) for c in sorted(cx.cones, key=sorted)]
    else:
        n = rng.randint(1, 4)
        rays = list(_random_cone(rng, n))
        cones = [rng.sample(range(len(rays)), rng.randint(1, len(rays))) for _ in range(rng.randint(1, 3))]
        extras = [rng.sample(c, rng.randint(0, len(c))) for c in cones]
    cones += [list(c) for c in rng.sample(extras, min(len(extras), rng.randint(0, 2)))]
    rng.shuffle(cones)
    fault = rng.choice(FAULTS) if rng.random() < 0.5 else None
    i = rng.randrange(len(rays))
    if fault == "repeated id":
        cone = rng.choice(cones)
        cone.append(rng.choice(cone or [i]))
    elif fault == "equal rays":
        rays.append(rays[i])
        cones.append([i, len(rays) - 1])
    elif fault == "zero ray":
        rays[i] = (0,) * n
    elif fault == "unknown id":  # in one or two cones, anywhere in the list
        for _ in range(rng.randint(1, 2)):
            bad = rng.sample(range(len(rays)), rng.randint(0, 1)) + [rng.choice((-1, len(rays), len(rays) + 2))]
            cones.insert(rng.randint(0, len(cones)), bad)
    elif fault == "short ray":
        rays[i] = rays[i][:-1] if rng.random() < 0.5 else rays[i] + (1,)
    elif fault == "fractional entry":
        rays[i] = (Fraction(1, 2),) + rays[i][1:]
    elif fault == "rank":
        n += 0.5
    return fault, n, rays, cones


def _construction(build, n, rays, cones):
    """(rank, rays, cones) of the complex built, or the error raised."""
    try:
        cx = build(n, rays, cones)
    except Exception as e:
        return type(e), str(e)
    return cx.ambient_rank, cx.rays, cx.cones


def test_from_maximal_cones_matches_the_reference():
    """`from_maximal_cones`, which builds through `Complex.faces`, against
    the walk it replaced (`conftest.reference_from_maximal_cones`) on 1,200
    derandomized draws: the same complex or the same error on every one."""
    fans = [cx for _, cx in corpus()]
    seen = Counter()
    for seed in range(1200):
        fault, n, rays, cones = _construction_input(random.Random(seed), fans)
        got = _construction(Complex.from_maximal_cones, n, rays, cones)
        assert got == _construction(reference_from_maximal_cones, n, rays, cones), (seed, fault)
        seen[fault] += 1
        if isinstance(got[0], int):
            cx = Complex(*got)
            seen["not simplicial"] += not is_simplicial(cx)
            seen["not pointed"] += any(not _pointed(cx.dual(c), cx.ambient_rank) for c in cx.maximal_cones if c)
        else:
            seen[got[1].split(" ")[0]] += 1
    assert min(seen[k] for k in FAULTS + ("not simplicial", "not pointed")) > 50, seen
    assert min(seen[k] for k in ("zero", "cone", "ray", "entry", "ambient")) > 50, seen


def test_dual_questions_match_references():
    """cone_dual, _extreme and _intersect_cones against the pre-dual
    references on 2,000 derandomized pairs of pointed cones in ranks 2-4;
    cone_dual is also compared on every drawn cone that is not pointed."""
    rng = random.Random(20261018)
    pairs = flats = lower = redundant = 0
    while pairs < 2000:
        n = rng.randint(2, 4)
        cones = []
        for _ in range(2):
            gens = _random_cone(rng, n)
            ref = reference_cone_dual(gens, n)
            assert cone_dual(gens, n) == ref, gens
            if not _pointed(ref, n):
                flats += 1
                break
            extreme = _extreme(gens, n)
            assert extreme == reference_extreme(gens, n), gens
            lower += bool(ref.equations)
            redundant += len(extreme) < len(gens)
            cones.append(gens)
        if len(cones) < 2:
            continue
        g1, g2 = cones
        cx = Complex(n, g1 + g2, [range(len(g1)), range(len(g1), len(g1) + len(g2))])
        c1, c2 = frozenset(range(len(g1))), frozenset(range(len(g1), len(cx.rays)))
        assert _intersect_cones(cx, c1, c2) == reference_intersect_cones(cx, c1, c2), (g1, g2)
        pairs += 1
    # the draws reach lower-dimensional cones, redundant generators and
    # cones that are not pointed
    assert min(lower, redundant, flats) > 500, (lower, redundant, flats)


def _simplicial_draw(rng):
    """k independent generators in rank n (2-4, 1 <= k <= n): two draws in
    five take k rows of a random unimodular matrix, a row negated or not, so
    square cones of determinant +1 and -1 are common; the others have
    coordinates in [-4, 4].  None when the draw is dependent."""
    n = rng.randint(2, 4)
    k = rng.randint(1, n)
    if rng.random() < 0.4:
        m = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(6):
            i, j = rng.sample(range(n), 2)
            c = rng.randint(-2, 2)
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        if rng.random() < 0.5:
            m[0] = [-a for a in m[0]]
        gens = tuple(tuple(r) for r in rng.sample(m, n)[:k])
    else:
        gens = tuple(tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(k))
    return (gens, n) if rank(gens) == k else None


def _snf_facts(gens):
    """(index, integrality rows, first parallelepiped point) read off the
    Smith normal form U*G*V = D: the product of the divisors, the rows
    (U_j, d_j) with d_j > 1, and the lexicographically least nonzero
    reduction of sum_j (t_j / d_j) * U_j with its lattice point."""
    D, U, _ = smith_normal_form(gens)
    divs = [D[j][j] for j in range(len(gens))]
    rows = tuple((U[j], d) for j, d in enumerate(divs) if d > 1)
    first = None
    for t in itertools.product(*[range(d) for d in divs]):
        a = [sum(Fraction(tj, d) * u[i] for tj, d, u in zip(t, divs, U)) % 1 for i in range(len(gens))]
        if any(a) and (first is None or a < first):
            first = a
    if first is not None:
        point = tuple(int(sum(ai * g[j] for ai, g in zip(first, gens))) for j in range(len(gens[0])))
        first = (point, tuple(first))
    return math.prod(divs), rows, first


def test_simplicial_facts_match_references():
    """The simplicial shortcuts against the general answers on 1,500
    derandomized simplicial cones in ranks 2-4: cone_dual (facet normals
    from one elimination) against the facet enumeration of
    `reference_cone_dual`, `Complex.facets` of every face against the
    dimension filter of `faces`, and cone_index, integrality_congruences
    and _first_point (divisors 1 read off det = +-1) against the Smith
    normal form."""
    rng = random.Random(20261020)
    seen = Counter()
    while sum(seen.values()) < 1500:
        draw = _simplicial_draw(rng)
        if draw is None:
            continue
        gens, n = draw
        k = len(gens)
        if cone_index(gens) > 60:  # keeps the reference's listing short
            continue
        if k == n:
            d = det(gens)
            kind = ("square", abs(d) > 1, d > 0)
        else:
            kind = ("lower", cone_index(gens) > 1)
        assert cone_dual(gens, n) == reference_cone_dual(gens, n), gens
        cx = Complex.from_maximal_cones(n, gens, [range(k)])
        for f in cx.cones:
            by_dim = sorted((g for g in cx.faces(f) if cx.dim(g) == cx.dim(f) - 1), key=sorted)
            assert cx.facets(f) == tuple(by_dim), (gens, f)
        index, rows, first = _snf_facts(gens)
        assert cone_index(gens) == index, gens
        assert integrality_congruences(gens) == rows, gens
        assert _first_point(gens) == first, gens
        seen[kind] += 1
    # k < n at index 1 and beyond, and k = n at |det| = 1 and beyond, both signs
    assert min(seen.values()) >= 100 and len(seen) == 6, seen


def test_maximal_cones_match_the_reference_scan():
    """`Complex.maximal_cones`, found through a ray -> cones index, against
    the all-pairs scan it replaced (`conftest.reference_maximal_cones`) on
    the corpus, its barycentric subdivisions and 600 derandomized cone
    families (any sets of ray ids, the zero cone now and then, not closed
    under faces)."""
    complexes = [cx for _, cx in corpus()]
    for cx in complexes + [barycentric_subdivision(cx) for cx in complexes]:
        fresh = Complex(cx.ambient_rank, cx.rays, cx.cones)  # nothing carried
        assert fresh.maximal_cones == reference_maximal_cones(fresh)
    for seed in range(600):
        rng = random.Random(seed)
        nrays = rng.randint(0, 6)
        cones = [rng.sample(range(nrays), rng.randint(0, nrays)) for _ in range(rng.randint(0, 8))]
        cx = Complex(1, [(1,)] * nrays, cones)
        assert cx.maximal_cones == reference_maximal_cones(cx), seed
