"""The equivariant refinement pipeline and its certificates."""

from fractions import Fraction

import pytest

from equifan.complexes import Complex, is_simplicial, is_smooth, is_subdivision, same_complex
from equifan.groups import generate_group, trivial_group
from equifan.lattice import cone_index, det, primitive, solve_in_basis
from equifan.orderfun import evaluate, linearity_domains, verify_order_axioms
from equifan.resolve import (
    _inherit_frames,
    initial_frames_barycentric,
    initial_frames_plain,
    max_index,
    resolve_equivariant,
    select_centers,
    total_index,
)
from equifan.subdivide import _barycentric, barycentric_subdivision, star_subdivide

from conftest import (
    CYC3,
    NEG2,
    SWAP2,
    SWAP3_01,
    complete_2d_fan,
    orthant,
    singular_cone_2d,
    square_cone,
)


class TestCanonicalCoordinates:
    """Coordinates of a point in an ordered simplicial frame."""

    def test_generator_position(self, orthant2):
        assert solve_in_basis(((1, 0), (1, 1)), (1, 0)) == (1, 0)

    def test_basis_expansion(self):
        # w = 1*e1 + 2*(1,1) in the frame [e1, (1,1)]
        assert solve_in_basis(((1, 0), (1, 1)), (3, 2)) == (1, 2)

    def test_parallelepiped_point(self):
        coords = solve_in_basis(((1, 0), (1, 2)), (1, 1))
        assert coords == (Fraction(1, 2), Fraction(1, 2))
        assert all(0 <= c < 1 for c in coords)

    def test_outside_host(self):
        assert any(c < 0 for c in solve_in_basis(((1, 0), (1, 1)), (-1, 0)))


def frames_coherent(frames: dict) -> bool:
    """Shared rays of two framed cones appear in the same relative order.

    Holds for the initial frames (dimension labels are intrinsic per
    ray).  Slot inheritance cannot keep it between siblings of one star
    in rank >= 3 — the new ray takes the dropped slot, which differs per
    sibling — so later rounds only guarantee the per-host frames and
    their equivariance, which is all the selection needs.
    """
    items = sorted(frames.items(), key=lambda kv: sorted(kv[0]))
    for i, (c1, f1) in enumerate(items):
        for c2, f2 in items[i + 1:]:
            shared = c1 & c2
            if len(shared) < 2:
                continue
            o1 = [r for r in f1 if r in shared]
            o2 = [r for r in f2 if r in shared]
            if o1 != o2:
                return False
    return True


class TestFrames:
    def test_plain_frames(self):
        sing = singular_cone_2d(2)
        frames = initial_frames_plain(sing)
        assert frames == {frozenset({0, 1}): (0, 1)}

    def test_barycentric_frames_ordered_by_dimension(self, orthant2):
        b, _, sources = _barycentric(orthant2)
        frames = initial_frames_barycentric(orthant2, b, sources)
        for mc, frame in frames.items():
            # first slot: an original ray (dim-1 source), last: the barycenter
            assert b.rays[frame[-1]] == (1, 1)
        assert frames_coherent(frames)

    def test_barycentric_frames_coherent_orthant3(self, orthant3):
        b, _, sources = _barycentric(orthant3)
        frames = initial_frames_barycentric(orthant3, b, sources)
        assert frames_coherent(frames)
        for mc, frame in frames.items():
            assert len(frame) == 3


class TestSelectCenters:
    def test_single_singular_cone(self):
        sing = singular_cone_2d(2)
        coords, chosen = select_centers(sing, initial_frames_plain(sing))
        assert coords == (Fraction(1, 2), Fraction(1, 2))
        assert chosen == (((1, 1), frozenset({0, 1})),)

    def test_lex_minimal_of_several(self):
        sing = singular_cone_2d(4)
        coords, chosen = select_centers(sing, initial_frames_plain(sing))
        # candidates (3/4,1/4), (1/2,1/2), (1/4,3/4): the last is lex-minimal
        assert coords == (Fraction(1, 4), Fraction(3, 4))
        assert chosen[0][0] == (1, 3)

    def test_mirrored_cones_under_swap(self):
        from equifan.complexes import validate_complex

        cx = Complex.from_maximal_cones(
            2, [(1, 0), (1, -2), (0, 1), (-2, 1)], [[0, 1], [2, 3]]
        )
        assert validate_complex(cx).ok
        g = generate_group([SWAP2])
        frames = initial_frames_plain(cx)
        coords, chosen = select_centers(cx, frames, g)
        assert coords == (Fraction(1, 2), Fraction(1, 2))
        assert len(chosen) == 2
        assert {p for p, _ in chosen} == {(1, -1), (-1, 1)}
        assert {tuple(sorted(h)) for _, h in chosen} == {(0, 1), (2, 3)}

    def test_smooth_complex_rejected(self, orthant2):
        with pytest.raises(ValueError, match="nothing to select"):
            select_centers(orthant2, initial_frames_plain(orthant2))


class TestIndices:
    def test_examples(self, orthant2):
        assert total_index(orthant2) == 1 and max_index(orthant2) == 1
        sing = singular_cone_2d(2)
        assert total_index(sing) == 2 and max_index(sing) == 2
        st = star_subdivide(sing, (1, 1))
        assert total_index(st) == 2 and max_index(st) == 1

    def test_non_simplicial_rejected(self):
        with pytest.raises(ValueError, match="not simplicial"):
            total_index(square_cone())
        with pytest.raises(ValueError, match="not simplicial"):
            max_index(square_cone())


class TestResolvePlain:
    def test_classic_r2(self):
        sing = singular_cone_2d(2)
        cert = resolve_equivariant(sing, mode="plain")
        maximal = {frozenset(cert.final.rays[i] for i in c) for c in cert.final.maximal_cones}
        assert maximal == {
            frozenset({(1, 0), (1, 1)}),
            frozenset({(1, 1), (1, 2)}),
        }
        assert cert.ok

    @pytest.mark.parametrize("r", range(2, 8))
    def test_chain_terminates_and_verifies(self, r):
        sing = singular_cone_2d(r)
        cert = resolve_equivariant(sing, mode="plain")
        final = cert.final
        # smoothness against the determinant oracle, independent of SNF
        for c in final.maximal_cones:
            assert abs(det(final.generators(c))) == 1
        assert is_subdivision(final, sing)
        for rid in range(len(sing.rays), len(final.rays)):
            assert primitive(final.rays[rid]) == final.rays[rid]
        assert len(cert.stages) <= total_index(sing)

    def test_nontrivial_group_rejected(self, orthant2):
        with pytest.raises(ValueError, match="trivial group"):
            resolve_equivariant(orthant2, generate_group([SWAP2]), mode="plain")

    def test_one_matrix_other_than_the_identity_rejected(self, orthant2):
        with pytest.raises(ValueError, match="^plain mode requires the trivial group$"):
            resolve_equivariant(orthant2, [SWAP2], mode="plain")

    def test_non_simplicial_rejected(self):
        with pytest.raises(ValueError, match="not simplicial"):
            resolve_equivariant(square_cone(), mode="plain")

    def test_invalid_input_rejected(self):
        # overlapping cones: the input is not a complex
        cx = Complex.from_maximal_cones(2, [(1, 0), (1, 3), (1, 1), (0, 1)], [[0, 1], [2, 3]])
        with pytest.raises(
            ValueError,
            match=r"^invalid input complex: cones \[0, 1\] and \[2, 3\] do not intersect",
        ):
            resolve_equivariant(cx, mode="plain")

    def test_element_of_the_wrong_size_rejected(self):
        with pytest.raises(ValueError, match=r"element 0 is not a 3x3 matrix"):
            resolve_equivariant(orthant(3), [((1, 0), (0, 1))])

    def test_already_smooth(self, orthant2):
        cert = resolve_equivariant(orthant2, mode="plain")
        assert cert.final == orthant2
        assert len(cert.stages) == 0
        assert cert.ok

    def test_measure_trace_decreases(self):
        sing = singular_cone_2d(7)
        cert = resolve_equivariant(sing, mode="plain")
        maxima = [row[1] for row in cert.trace]
        assert all(a >= b for a, b in zip(maxima, maxima[1:]))
        assert maxima[-1] == 1


    def test_round_cap_named_in_error(self, monkeypatch):
        import equifan.resolve

        monkeypatch.setattr(equifan.resolve, "ROUND_CAP", 1)  # (1,0),(1,3) needs 2 rounds
        with pytest.raises(RuntimeError, match=r"^resolution did not terminate within round_cap=1$"):
            resolve_equivariant(singular_cone_2d(3), mode="plain")


# the swap carries each cone of one half onto a cone of the other
TWO_CONES = Complex.from_maximal_cones(2, [(1, 0), (1, -4), (0, 1), (-4, 1)], [[0, 1], [2, 3]])


def one_frame_reversed(frames, pieces):
    """`_inherit_frames` with the frame of the least new cone reversed."""
    frames = _inherit_frames(frames, pieces)
    first = min(frames, key=sorted)
    frames[first] = frames[first][::-1]
    return frames


class TestRoundGuards:
    """Each guard of a resolve round, reached by breaking one input of it."""

    def test_two_centers_in_one_cone_raise_the_simultaneity_guard(self, monkeypatch):
        import equifan.resolve

        # both points of (1,0),(1,3) in one batch: the second star is taken
        # on the first, so the host's piece [2, 3] holds both centers
        cx = singular_cone_2d(3)
        (mc,) = cx.maximal_cones
        best, _ = select_centers(cx, initial_frames_plain(cx))
        monkeypatch.setattr(
            equifan.resolve, "select_centers", lambda cur, frames, gens: (best, (((1, 1), mc), ((1, 2), mc)))
        )
        with pytest.raises(
            RuntimeError,
            match=r"^centers not simultaneous-safe: piece \[2, 3\] of host \[0, 1\] "
            r"is not the host with one ray replaced by a center$",
        ):
            resolve_equivariant(cx, mode="plain")

    def test_a_frame_the_group_does_not_carry_raises(self, monkeypatch):
        import equifan.resolve

        monkeypatch.setattr(equifan.resolve, "_inherit_frames", one_frame_reversed)
        with pytest.raises(
            RuntimeError, match=r"^frame equivariance: the group does not carry frames onto frames$"
        ):
            resolve_equivariant(TWO_CONES, generate_group([SWAP2]))

    def test_a_measure_that_does_not_drop_raises(self, monkeypatch):
        import equifan.resolve

        monkeypatch.setattr(equifan.resolve, "cone_index", lambda gens: 2)
        with pytest.raises(
            RuntimeError, match=r"^termination measure failed to decrease on cone \[0, 1\]$"
        ):
            resolve_equivariant(singular_cone_2d(3), mode="plain")


class TestElementsMustListAGroup:
    """Closure is the caller's word; a missing identity or a repeated
    element is refused before a certificate with a wrong order is made."""

    I2 = ((1, 0), (0, 1))

    @pytest.mark.parametrize(
        "elements, fault",
        [
            ([], "the identity is missing"),
            ([I2, I2], "element 1 is listed twice"),
            ([SWAP2], "the identity is missing"),
            ([I2, SWAP2, SWAP2], "element 2 is listed twice"),
        ],
        ids=["empty", "identity-twice", "swap-alone", "swap-twice"],
    )
    def test_refused_by_name(self, orthant2, elements, fault):
        with pytest.raises(ValueError, match=f"^the elements are not a group: {fault}$"):
            resolve_equivariant(orthant2, elements)


@pytest.mark.parametrize(
    "cx, gens, mode",
    [
        (singular_cone_2d(7), None, "plain"),
        (orthant(3), [CYC3], "canonical"),
        (square_cone(), [SWAP3_01], "canonical"),
        (TWO_CONES, [SWAP2], "canonical"),
    ],
    ids=["plain-2d", "orthant3-cycle", "square-swap", "two-cones-swap"],
)
def test_rounds_read_carriers_and_smoothness_once(cx, gens, mode, monkeypatch):
    """The round loop reads each center's carrier off its host's frame and
    the complex's smoothness off the measure trace: no center is located
    in the complex, and the final complex is asked its simpliciality
    once, by `is_smooth` in the flags, whose yes decides simpliciality
    too; its trace row reads the indices the replay carries."""
    import equifan.complexes
    import equifan.resolve

    def locate(self, x):
        raise AssertionError(f"center {x} located by a scan of the complex")

    simplicial_calls = []

    def counted_is_simplicial(c):
        simplicial_calls.append(c)
        return is_simplicial(c)

    elements = generate_group(gens) if gens else None
    expected = resolve_equivariant(cx, elements, mode=mode)
    monkeypatch.setattr(Complex, "minimal_cone_containing", locate)
    for module in (equifan.complexes, equifan.resolve):
        monkeypatch.setattr(module, "is_simplicial", counted_is_simplicial)
    cert = resolve_equivariant(cx, elements, mode=mode)
    assert simplicial_calls.count(cert.final) == 1
    assert cert.stages == expected.stages and cert.ok


@pytest.mark.parametrize("cx", [square_cone(), orthant(3)], ids=["square-direct", "orthant3-cascade"])
def test_barycentric_cascade_built_once(cx, monkeypatch):
    """A canonical resolve builds the barycentric cascade's centers once,
    for the stage and the frames (and, on a non-simplicial input, the
    direct order function); verification, which builds the first stage
    with the same builder, builds them once too."""
    import equifan.resolve
    import equifan.subdivide
    from equifan.fanio import fan_from_complex, parse_certificate, verify_certificate, write_certificate

    calls = []
    cascade = equifan.subdivide._barycentric_cascade

    def counted(c):
        calls.append(c)
        return cascade(c)

    monkeypatch.setattr(equifan.subdivide, "_barycentric_cascade", counted)
    monkeypatch.setattr(equifan.resolve, "_barycentric_cascade", counted)
    cert = resolve_equivariant(cx, mode="canonical")
    assert calls == [cx]
    fan = fan_from_complex(cx)
    calls.clear()
    assert verify_certificate(parse_certificate(write_certificate(cert, fan)), fan) == []
    assert calls == [cx]


class TestResolveFromGenerators:
    """Group questions asked of a generating set give the same certificate."""

    CASES = [
        (orthant(2), [SWAP2]),
        (complete_2d_fan(), [SWAP2, NEG2]),
        (orthant(3), [CYC3]),
        (orthant(3), [SWAP3_01, CYC3]),
        (barycentric_subdivision(orthant(3)), [CYC3, SWAP3_01]),
    ]

    @pytest.mark.parametrize("cx, gens", CASES)
    def test_same_certificate_as_the_whole_group(self, cx, gens):
        from equifan.fanio import fan_from_complex, write_certificate

        elements = generate_group(gens)
        fan = fan_from_complex(cx, gens)
        from_gens = resolve_equivariant(cx, elements, generators=gens)
        assert from_gens.group == elements
        assert write_certificate(from_gens, fan) == write_certificate(resolve_equivariant(cx, elements), fan)

    def test_matrices_without_the_identity(self, orthant2):
        # [SWAP2] alone generates the group of order 2: as the generating set
        # its orbits close, but as the group recorded it lacks the identity
        group = generate_group([SWAP2])
        alone = resolve_equivariant(orthant2, group, mode="canonical", generators=[SWAP2])
        whole = resolve_equivariant(orthant2, group, mode="canonical")
        assert alone.ok
        assert (alone.stages, alone.final, alone.flags) == (whole.stages, whole.final, whole.flags)
        with pytest.raises(ValueError, match="^the elements are not a group: the identity is missing$"):
            resolve_equivariant(orthant2, [SWAP2], mode="canonical")

    def test_generator_outside_the_group_rejected(self, orthant2):
        with pytest.raises(ValueError, match="^a generator is not an element of the group$"):
            resolve_equivariant(orthant2, generate_group([SWAP2]), generators=[NEG2])

    def test_failing_generator_named_by_its_index(self, orthant2):
        message = r"^group does not act on the complex: element 1 maps ray 0 = \(1, 0\) to \(-1, 0\), not a ray$"
        with pytest.raises(ValueError, match=message):
            resolve_equivariant(orthant2, generate_group([SWAP2, NEG2]), generators=[SWAP2, NEG2])


class TestResolveCanonical:
    def test_swap_on_orthant(self, orthant2):
        g = generate_group([SWAP2])
        cert = resolve_equivariant(orthant2, g, mode="canonical")
        assert cert.ok
        assert len(cert.final.maximal_cones) == 2
        assert (1, 1) in cert.final.rays
        assert cert.stages[0].kind == "barycentric"

    def test_cycle_on_orthant3(self, orthant3):
        g = generate_group([CYC3])
        cert = resolve_equivariant(orthant3, g, mode="canonical")
        assert cert.ok
        assert len(cert.final.maximal_cones) == 6
        rep = verify_order_axioms(cert.composite)
        assert rep.ok and rep.strict and rep.positive
        assert same_complex(linearity_domains(cert.composite), cert.final)

    def test_singular_simplicial_canonical(self):
        sing = singular_cone_2d(4)
        cert = resolve_equivariant(sing, mode="canonical")
        assert cert.ok
        assert is_smooth(cert.final)
        assert cert.stages[0].kind == "barycentric"

    def test_square_cone_with_symmetry(self):
        sq = square_cone()
        swap_xy = ((0, 1, 0), (1, 0, 0), (0, 0, 1))
        cert = resolve_equivariant(sq, generate_group([swap_xy]), mode="canonical")
        assert cert.ok
        assert cert.stages[0].kind == "barycentric-direct"
        assert len(cert.final.maximal_cones) == 8

    def test_singular_3d_with_cycle(self):
        cx = Complex.from_maximal_cones(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],
                                        [[0, 1, 3], [1, 2, 3], [0, 2, 3]])
        g = generate_group([CYC3])
        cert = resolve_equivariant(cx, g, mode="canonical")
        assert cert.ok

    def test_mirrored_singular_cones_resolve_together(self):
        # two swap-related index-4 cones; the loop must subdivide whole
        # orbits of centers simultaneously
        cx = Complex.from_maximal_cones(
            2, [(1, 0), (1, -4), (0, 1), (-4, 1)], [[0, 1], [2, 3]]
        )
        g = generate_group([SWAP2])
        cert = resolve_equivariant(cx, g, mode="canonical")
        assert cert.ok
        centered = [s for s in cert.stages if s.kind == "centered"]
        assert centered
        assert all(len(s.steps[0].centers) >= 2 for s in centered)

    def test_rotation_group_through_the_loop(self):
        # complete fan of index-4 cones, rotation by 90 degrees: after the
        # barycentric stage one round subdivides two tied orbits of four
        rot = ((0, -1), (1, 0))
        rays = [(1, 0), (1, 4), (0, 1), (-4, 1), (-1, 0), (-1, -4), (0, -1), (4, -1)]
        cones = [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [6, 7], [7, 0]]
        cx = Complex.from_maximal_cones(2, rays, cones)
        cert = resolve_equivariant(cx, generate_group([rot]), mode="canonical")
        assert cert.ok
        centered = [s for s in cert.stages if s.kind == "centered"]
        assert len(centered) == 1
        assert len(centered[0].steps[0].centers) == 8

    def test_full_symmetry_complete_3d_fan(self):
        rays = [tuple(1 if i == j else 0 for j in range(3)) for i in range(3)]
        rays += [tuple(-1 if i == j else 0 for j in range(3)) for i in range(3)]
        cones = [[sx, sy, sz] for sx in (0, 3) for sy in (1, 4) for sz in (2, 5)]
        cx = Complex.from_maximal_cones(3, rays, cones)
        flip = ((-1, 0, 0), (0, 1, 0), (0, 0, 1))
        g = generate_group([CYC3, flip])
        assert len(g) == 24
        cert = resolve_equivariant(cx, g, mode="canonical")
        assert cert.ok
        assert len(cert.final.maximal_cones) == 48

    def test_interior_center_in_rank3(self):
        # the loop in rank 3 places the new ray at a different frame slot
        # in each sibling piece; the pipeline must still verify
        cx = Complex.from_maximal_cones(3, [(1, 0, 0), (0, 1, 0), (1, 2, 5)], [[0, 1, 2]])
        for mode in ("plain", "canonical"):
            cert = resolve_equivariant(cx, mode=mode)
            assert cert.ok

    def test_adjacent_singular_cones(self):
        cx = Complex.from_maximal_cones(
            3, [(1, 0, 0), (0, 1, 0), (1, 1, 3), (1, 1, -3)], [[0, 1, 2], [0, 1, 3]]
        )
        cert = resolve_equivariant(cx, mode="plain")
        assert cert.ok
        assert is_smooth(cert.final)

    def test_rays_only_complex(self):
        cx = Complex.from_maximal_cones(2, [(1, 0), (0, 1), (-1, -1)], [[0], [1], [2]])
        cert = resolve_equivariant(cx, mode="canonical")
        assert cert.ok
        assert same_complex(cert.final, cx)

    def test_mixed_dimension_plain(self):
        cx = Complex.from_maximal_cones(2, [(1, 0), (1, 2), (-1, -3)], [[0, 1], [2]])
        cert = resolve_equivariant(cx, mode="plain")
        assert cert.ok
        assert is_smooth(cert.final)
        assert (-1, -3) in cert.final.rays

    def test_composite_invariant_at_random_points(self, orthant3):
        import random

        g = generate_group([CYC3])
        cert = resolve_equivariant(orthant3, g, mode="canonical")
        rng = random.Random(47)
        from equifan.lattice import mat_vec

        final = cert.final
        mcs = sorted(final.maximal_cones, key=sorted)
        for m in g:
            for _ in range(25):
                mc = mcs[rng.randrange(len(mcs))]
                weights = [Fraction(rng.randint(0, 6), rng.randint(1, 3)) for _ in mc]
                if not any(weights):
                    continue
                x = tuple(
                    sum(w * gen[j] for w, gen in zip(weights, final.generators(mc)))
                    for j in range(3)
                )
                assert evaluate(cert.composite, x) == evaluate(cert.composite, mat_vec(m, x))

    def test_determinism(self, orthant3):
        g = generate_group([CYC3])
        c1 = resolve_equivariant(orthant3, g, mode="canonical")
        c2 = resolve_equivariant(orthant3, g, mode="canonical")
        assert c1.final == c2.final
        assert c1.composite.ray_values == c2.composite.ray_values
        assert c1.stages == c2.stages
        assert c1.trace == c2.trace


class TestCertificateContents:
    def test_stage_hashes_chain(self):
        sing = singular_cone_2d(3)
        cert = resolve_equivariant(sing, mode="plain")
        from equifan.fanio import complex_hash

        assert cert.stages[0].input_hash == complex_hash(sing)
        for a, b in zip(cert.stages, cert.stages[1:]):
            assert a.output_hash == b.input_hash
        assert cert.stages[-1].output_hash == complex_hash(cert.final)

    def test_flags_complete(self, orthant2):
        from equifan.resolve import FLAG_NAMES

        cert = resolve_equivariant(orthant2, mode="plain")
        # in the certificate's order, so `equifan resolve` prints them as the certificate lists them
        assert tuple(cert.flags) == FLAG_NAMES
        assert cert.ok


# certificates of the 2D cone (1,0),(1,8) in plain mode, of the orthant-3
# barycentric cascade, of two swap-related index-4 cones under the swap
# (a canonical run through the loop with a group) and of the square cone
# (the direct barycentric stage), printed as JSON
CERTIFICATE_SCRIPT = """
import json, sys
from equifan.complexes import Complex
from equifan.fanio import fan_from_complex, write_certificate
from equifan.groups import generate_group
from equifan.resolve import resolve_equivariant

cases = [
    (Complex.from_maximal_cones(2, [(1, 0), (1, 8)], [[0, 1]]), (), "plain"),
    (Complex.from_maximal_cones(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [[0, 1, 2]]), (), "canonical"),
    (
        Complex.from_maximal_cones(2, [(1, 0), (1, -4), (0, 1), (-4, 1)], [[0, 1], [2, 3]]),
        (((0, 1), (1, 0)),),
        "canonical",
    ),
    (
        Complex.from_maximal_cones(3, [(1, 1, 1), (-1, 1, 1), (-1, -1, 1), (1, -1, 1)], [[0, 1, 2, 3]]),
        (),
        "canonical",
    ),
]
texts = [
    write_certificate(
        resolve_equivariant(cx, generate_group(gens) if gens else None, mode=mode),
        fan_from_complex(cx, gens),
    )
    for cx, gens, mode in cases
]
print(json.dumps({"optimize": sys.flags.optimize, "certificates": texts}))
"""


def test_certificates_unchanged_without_asserts():
    """Contracts checked by `assert` vanish under -O; the pipeline must not
    depend on one, and the certificates must stay byte-identical."""
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    import equifan

    src = str(Path(equifan.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    runs = []
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", CERTIFICATE_SCRIPT],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout))
    normal, optimized = runs
    assert (normal["optimize"], optimized["optimize"]) == (0, 1)
    assert optimized["certificates"] == normal["certificates"]
