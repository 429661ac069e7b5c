"""Every entry point that coerces lattice data to integers rejects an entry
that is not equal to an integer, naming it, and keeps accepting one that
is (2.0 is 2)."""

import pytest

from equifan.complexes import Complex, cone_dual
from equifan.groups import generate_group, verify_action
from equifan.lattice import primitive, smith_normal_form
from equifan.orderfun import star_order_function
from equifan.resolve import resolve_equivariant
from equifan.subdivide import star_subdivide

from conftest import SWAP2


def rejects(entry):
    return pytest.raises(ValueError, match=rf"^entry {entry} is not an integer$")


def test_complex_constructor():
    with rejects(1.5):
        Complex(2, [(1.5, 0), (0, 1)], [[], [0], [1], [0, 1]])
    assert Complex(2, [(1.0, 0), (0, 1)], [[], [0], [1], [0, 1]]).rays == ((1, 0), (0, 1))


@pytest.mark.parametrize(
    "build",
    [
        lambda n: Complex(n, [(1, 0), (0, 1)], [[], [0], [1], [0, 1]]),
        lambda n: Complex.from_maximal_cones(n, [(1, 0), (0, 1)], [[0, 1]]),
        lambda n: cone_dual([(1, 0), (0, 1)], n),
    ],
    ids=["Complex", "from_maximal_cones", "cone_dual"],
)
def test_ambient_rank(build):
    with pytest.raises(ValueError, match=r"^ambient rank 2.5 is not an integer$"):
        build(2.5)
    assert build(2.0) == build(2)


def test_from_maximal_cones():
    with rejects(1.5):
        Complex.from_maximal_cones(2, [(1.5, 0), (0, 1)], [[0, 1]])
    assert Complex.from_maximal_cones(2, [(1.0, 0), (0, 1)], [[0, 1]]).rays == ((1, 0), (0, 1))


def test_primitive():
    with rejects(2.7):
        primitive((2.7, 4))
    assert primitive((2.0, 4)) == (1, 2)


def test_smith_normal_form():
    with rejects(0.5):
        smith_normal_form([[2, 0.5], [0, 1]])
    assert smith_normal_form([[2.0, 0], [0, 1]])[0] == ((1, 0), (0, 2))


def test_generate_group():
    with rejects(0.5):
        generate_group([((0, 1), (1, 0.5))])
    assert len(generate_group([((0, 1.0), (1, 0))])) == 2


def test_verify_action(orthant2):
    with rejects(1.9):
        verify_action(orthant2, [((0, 1.9), (1, 0))])
    assert verify_action(orthant2, [((0, 1.0), (1, 0))]).ok


def test_resolve_group_matrices(orthant2):
    with rejects(1.5):
        resolve_equivariant(orthant2, [((1.5, 0), (0, 1))])
    with rejects(0.5):
        resolve_equivariant(orthant2, generate_group([SWAP2]), generators=[((0, 1), (1, 0.5))])
    elements = [((1.0, 0), (0, 1)), ((0, 1.0), (1, 0))]
    assert resolve_equivariant(orthant2, elements).group == (((1, 0), (0, 1)), ((0, 1), (1, 0)))


def test_resolve_rays():
    with rejects(1.9):
        resolve_equivariant(Complex.from_maximal_cones(2, [(1, 0), (1.9, 3.9)], [[0, 1]]))


def test_star_subdivide(orthant2):
    with rejects(0.5):
        star_subdivide(orthant2, (1, 0.5))
    assert star_subdivide(orthant2, (1.0, 1)) == star_subdivide(orthant2, (1, 1))


def test_star_order_function(orthant2):
    with rejects(0.5):
        star_order_function(orthant2, (1, 0.5), 2)
    assert star_order_function(orthant2, (1.0, 1), 2).ray_values == (2, 2, 3)
