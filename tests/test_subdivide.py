"""Star subdivision and the barycentric subdivision, against the
bottom-up construction of the tests (`reference_barycentric_subdivision`)."""

import math

import pytest

from equifan.complexes import (
    is_simplicial,
    is_subdivision,
    same_complex,
    validate_complex,
)
from equifan.subdivide import (
    _stars,
    barycenter,
    barycentric_edge_bijection,
    barycentric_subdivision,
    star_subdivide,
)

from conftest import corpus, orthant, p2_fan, reference_barycentric_subdivision, square_cone


class TestStarSubdivide:
    def test_orthant_center(self, orthant2):
        st = star_subdivide(orthant2, (1, 1))
        maximal = {frozenset(st.rays[i] for i in c) for c in st.maximal_cones}
        assert maximal == {
            frozenset({(1, 0), (1, 1)}),
            frozenset({(0, 1), (1, 1)}),
        }

    def test_existing_ray_is_identity(self, orthant2):
        assert star_subdivide(orthant2, (1, 0)) is orthant2

    def test_ray_in_no_cone_named(self):
        # the barycenter (1, 1) of the cone [0, 1] is ray 2, which no cone uses
        from equifan.complexes import Complex

        cx = Complex.from_maximal_cones(2, [(1, 0), (0, 1), (1, 1)], [[0, 1]])
        message = r"^center \(1, 1\) is ray 2, which is in no cone$"
        with pytest.raises(ValueError, match=message):
            star_subdivide(cx, (1, 1))
        with pytest.raises(ValueError, match=message):
            _stars(cx, [((1, 1), (0, 1))])  # with its recorded carrier
        with pytest.raises(ValueError, match=message):
            barycentric_subdivision(cx)

    def test_center_is_always_located(self):
        # the carrier of (1, 1) is [0, 1]; a carrier could once be passed,
        # and starred over the wrong one, [1, 2], the half-planes gave the
        # overlapping cones [0, 1] and [1, 3]
        from equifan.complexes import Complex

        cx = Complex.from_maximal_cones(2, [(1, 0), (0, 1), (-1, 0)], [[0, 1], [1, 2]])
        with pytest.raises(TypeError):
            star_subdivide(cx, (1, 1), (1, 2))
        st = star_subdivide(cx, (1, 1))
        assert validate_complex(st).ok
        assert is_subdivision(st, cx)

    def test_orthant3_center(self, orthant3):
        st = star_subdivide(orthant3, (1, 1, 1))
        assert len(st.maximal_cones) == 3
        for c in st.maximal_cones:
            gens = {st.rays[i] for i in c}
            assert (1, 1, 1) in gens
            assert len(gens) == 3
        assert is_subdivision(st, orthant3)

    def test_outside_support(self, orthant2):
        with pytest.raises(ValueError, match="center not in support"):
            star_subdivide(orthant2, (-1, 0))

    def test_non_primitive_normalized_with_warning(self, orthant2):
        with pytest.warns(UserWarning, match="normalized"):
            st = star_subdivide(orthant2, (2, 2))
        assert (1, 1) in st.rays

    def test_output_valid_and_subdivides(self):
        for name, cx in corpus():
            if cx.ambient_rank != 2 or not cx.maximal_cones:
                continue
            big = max(cx.maximal_cones, key=lambda c: cx.dim(c))
            if cx.dim(big) < 2:
                continue
            gens = cx.generators(big)
            center = barycenter(gens)
            st = star_subdivide(cx, center)
            assert validate_complex(st).ok, name
            assert is_subdivision(st, cx), name

    def test_ray_ids_stable(self, orthant2):
        st = star_subdivide(orthant2, (1, 1))
        assert st.rays[:2] == orthant2.rays
        assert st.rays[2] == (1, 1)

    def test_commutes_with_ray_relabeling(self):
        from equifan.complexes import Complex

        a = Complex.from_maximal_cones(2, [(1, 0), (1, 2), (0, 1)], [[0, 1], [1, 2]])
        b = Complex.from_maximal_cones(2, [(0, 1), (1, 2), (1, 0)], [[2, 1], [1, 0]])
        assert same_complex(a, b)
        assert same_complex(star_subdivide(a, (1, 1)), star_subdivide(b, (1, 1)))


class TestBarycenter:
    def test_examples(self):
        assert barycenter([(1, 0), (0, 1)]) == (1, 1)
        assert barycenter([(1, 0), (1, 2)]) == (1, 1)
        assert barycenter([(0, 1)]) == (0, 1)

    def test_uses_primitive_edges(self):
        # generators are primitivized before summation
        assert barycenter([(2, 0), (0, 3)]) == (1, 1)


class TestBarycentric:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_orthant_counts(self, d):
        b = barycentric_subdivision(orthant(d))
        assert len(b.maximal_cones) == math.factorial(d)
        used = {i for c in b.cones for i in c}
        assert len(used) == 2**d - 1

    def test_p2_fan(self):
        b = barycentric_subdivision(p2_fan())
        assert len(b.maximal_cones) == 6
        used = {i for c in b.cones for i in c}
        # one ray per positive-dimensional cone: 3 edges + 3 maximal cones
        assert len(used) == 6

    def test_simplicial_even_for_nonsimplicial_input(self):
        b = barycentric_subdivision(square_cone())
        assert is_simplicial(b)
        assert len(b.maximal_cones) == 8

    def test_constructions_agree_on_corpus(self):
        for name, cx in corpus():
            cascade = barycentric_subdivision(cx)
            inductive = reference_barycentric_subdivision(cx)
            assert same_complex(cascade, inductive), name

    def test_is_subdivision_on_corpus(self):
        for name, cx in corpus():
            b = barycentric_subdivision(cx)
            assert is_subdivision(b, cx), name
            assert is_simplicial(b), name


class TestEdgeBijection:
    def test_orthant2(self, orthant2):
        b = barycentric_subdivision(orthant2)
        bij = barycentric_edge_bijection(orthant2, b)
        by_gen = {b.rays[rid]: host for rid, host in bij.items()}
        assert by_gen[(1, 1)] == frozenset({0, 1})
        assert by_gen[(1, 0)] == frozenset({0})

    def test_orthant3_counts(self, orthant3):
        b = barycentric_subdivision(orthant3)
        bij = barycentric_edge_bijection(orthant3, b)
        assert len(bij) == 7
        hosts = set(map(frozenset, bij.values()))
        positive = {c for c in orthant3.cones if orthant3.dim(c) >= 1}
        assert hosts == positive

    def test_counts_on_corpus(self):
        for name, cx in corpus():
            b = barycentric_subdivision(cx)
            bij = barycentric_edge_bijection(cx, b)
            positive = {c for c in cx.cones if cx.dim(c) >= 1}
            assert len(bij) == len(positive), name
            # inverse is the barycenter map
            for rid, host in bij.items():
                assert barycenter(cx.generators(host)) == b.rays[rid], name

    def test_rays_looked_up_by_generator(self):
        # the bottom-up construction numbers the new rays in another order
        for name, cx in corpus():
            b = barycentric_subdivision(cx)
            by_gen = {b.rays[rid]: host for rid, host in barycentric_edge_bijection(cx, b).items()}
            other = reference_barycentric_subdivision(cx)
            bij = barycentric_edge_bijection(cx, other)
            assert {other.rays[rid]: host for rid, host in bij.items()} == by_gen, name

    def test_wrong_complex_rejected(self, orthant2, orthant3):
        with pytest.raises(ValueError, match="not the barycentric subdivision"):
            barycentric_edge_bijection(orthant2, star_subdivide(orthant2, (2, 1)))

    def test_distinct_dimensions_within_cones(self):
        # two distinct edges of a barycentric cone come from cones of
        # different dimensions
        for name, cx in corpus():
            b = barycentric_subdivision(cx)
            bij = barycentric_edge_bijection(cx, b)
            for c in b.maximal_cones:
                dims = [cx.dim(bij[rid]) for rid in c]
                assert len(set(dims)) == len(dims), name
