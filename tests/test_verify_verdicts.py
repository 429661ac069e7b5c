"""Hand-built certificates for the `verify_certificate` verdicts that no
single-field mutation reaches.

Each test starts from a certificate that `resolve_equivariant` wrote,
changes the fields one verdict needs, and pins the violation list.
Verify derives every stage, multiplier included, with resolve's own
stage loop (`Replay.resolution`), so a certificate whose stages differ
from resolve's in any field, or in number, is named; the forgeries below
are consistent in every other field.  The flag check that follows the
stages ("final verification failed") is reached by breaking the flag
derivation itself, since no certificate whose stages all agree with
resolve's ends on a complex that fails a flag.
"""

import re
from dataclasses import replace
from itertools import islice

import pytest

from equifan.cli import main
from equifan.complexes import Complex
from equifan.fanio import (
    BatchStep,
    ParseError,
    StageRecord,
    complex_hash,
    fan_from_complex,
    fan_hash,
    parse_certificate,
    parse_fan,
    verify_certificate,
    write_certificate,
    write_fan,
)
from equifan.groups import generate_group, trivial_group
import equifan.resolve
from equifan.lattice import parallelepiped_points
from equifan.orderfun import OrderFunction, _carrying, search_centered_order_function
from equifan.resolve import (
    FLAG_NAMES,
    Replay,
    ResolutionCertificate,
    certificate_flags,
    initial_frames_plain,
    resolve_equivariant,
    select_centers,
)

from conftest import SWAP2, orthant, singular_cone_2d, square_cone
from test_resolve import TWO_CONES, one_frame_reversed


def certificate(cx, mode="plain", gens=None):
    """(parsed certificate, fan) of cx resolved in the given mode."""
    fan = fan_from_complex(cx, gens or ())
    cert = resolve_equivariant(cx, gens and generate_group(gens), mode=mode)
    return parse_certificate(write_certificate(cert, fan)), fan


def with_stage(data, k, **fields):
    """data with stage k (1-based) changed in the given fields."""
    stages = list(data.stages)
    stages[k - 1] = replace(stages[k - 1], **fields)
    return replace(data, stages=tuple(stages))


def with_step(data, k, j, **fields):
    """data with step j of stage k (both 1-based) changed in the given fields."""
    steps = list(data.stages[k - 1].steps)
    steps[j - 1] = replace(steps[j - 1], **fields)
    return with_stage(data, k, steps=tuple(steps))


def test_rank_differs():
    data, fan = certificate(singular_cone_2d(2))
    assert verify_certificate(replace(data, rank=3), fan) == ["certificate/input mismatch: rank differs"]


def test_group_generation_failed():
    data, fan = certificate(orthant(2), "canonical", [SWAP2])
    assert verify_certificate(data, fan) == []
    assert verify_certificate(data, fan, group_cap=1) == ["group generation failed: group size cap 1 exceeded"]


def test_group_does_not_act_on_the_input():
    # the swap carries ray (1, 2) to (2, 1), which is no ray of the cone
    cx = singular_cone_2d(2)
    data, _ = certificate(cx)
    fan = fan_from_complex(cx, [SWAP2])
    data = replace(data, input_sha256=fan_hash(fan), group_order=2)
    assert verify_certificate(data, fan) == ["group does not act on the input complex"]


def test_direct_stage_needs_one_step_without_centers():
    # the stage is built from the input and compared field by field
    data, fan = certificate(square_cone(), "canonical")
    assert data.stages[0].kind == "barycentric-direct"
    assert verify_certificate(with_stage(data, 1, steps=()), fan) == [
        "stage 1: step count mismatch (recorded 0, derived 1)"
    ]
    step = data.stages[0].steps[0]
    two = with_stage(data, 1, steps=(step, replace(step, multiplier=2)))
    assert verify_certificate(two, fan) == ["stage 1: step count mismatch (recorded 2, derived 1)"]
    centers = (((0, 0, 1), (0, 1, 2, 3)),)
    assert verify_certificate(with_step(data, 1, 1, centers=centers), fan) == [
        f"stage 1: step 1 centers mismatch (recorded {centers}, derived ())"
    ]
    assert verify_certificate(with_stage(data, 1, kind="barycentric"), fan) == [
        "stage 1: kind mismatch (recorded barycentric, derived barycentric-direct)"
    ]


def test_center_outside_the_support_is_invalid():
    # verify selects each round's centers itself, so a recorded center
    # outside the support differs from the derived one
    data, fan = certificate(singular_cone_2d(2))
    bad = with_step(data, 1, 1, centers=(((-1, 0), (0, 1)),))
    assert verify_certificate(bad, fan) == [
        "stage 1: step 1 centers mismatch (recorded (((-1, 0), (0, 1)),), derived (((1, 1), (0, 1)),))"
    ]


def test_step_replay_failed_on_a_ray_in_no_cone():
    # the smooth cone (1,0),(0,1) with the unused ray (1,1): a stage that
    # stars at that ray comes after resolve has stopped, on a smooth complex
    cx = Complex.from_maximal_cones(2, [(1, 0), (0, 1), (1, 1)], [[0, 1]])
    data, fan = certificate(cx)
    assert data.stages == ()
    h = complex_hash(cx)
    stage = StageRecord("centered", (BatchStep((((1, 1), (0, 1)),), 1, 1, 1),), 1, (1, 1, 1), (), h, h)
    assert verify_certificate(replace(data, stages=(stage,)), fan) == [
        "stage count mismatch (recorded 1, derived 0)"
    ]


def test_step_composition_that_is_not_integral():
    # the barycentric cascade of the cone (1,0,0),(3,4,0),(0,0,1) has two
    # steps; at scale 3 the first step's function is 3/2 at the second
    # step's center (1,1,0), so the recorded step multiplier 1 would leave
    # non-integral values; the cascade is re-solved, which names the scale,
    # and every step multiplier is derived by the fold
    cx = Complex.from_maximal_cones(3, [(1, 0, 0), (3, 4, 0), (0, 0, 1)], [[0, 1, 2]])
    data, fan = certificate(cx, "canonical")
    assert [s.multiplier for s in data.stages[0].steps] == [1, 1]
    assert data.stages[0].steps[1].centers[0] == ((1, 1, 0), (0, 1))
    bad = with_step(data, 1, 1, scale=3)
    assert verify_certificate(bad, fan) == ["stage 1: step 1 scale/dip mismatch (recorded (3, 4), derived (2, 4))"]
    for j in (1, 2):
        bad = with_step(data, 1, j, multiplier=2)
        assert verify_certificate(bad, fan) == [f"stage 1: step {j} multiplier mismatch (recorded 2, derived 1)"]


def test_stage_function_that_is_not_integral():
    # (1,0),(1,3) starred at (1,2) with (scale, dip) = (3, 1) values the
    # rays 3, 3, 2, so the lattice point (1,1) of the piece (1,0),(1,2)
    # gets 5/2; every other field is consistent with those values, and
    # the solver's (scale, dip) is named
    data, fan = certificate(singular_cone_2d(3))
    assert data.stages[0].steps[0].centers == (((1, 2), (0, 1)),)
    assert (data.stages[0].steps[0].scale, data.stages[0].values) == (3, (3, 3, 1))
    bad = with_stage(with_step(data, 1, 1, dip=1), 1, values=(3, 3, 2))
    assert verify_certificate(bad, fan) == ["stage 1: step 1 scale/dip mismatch (recorded (3, 1), derived (3, 2))"]


def test_final_verification_failed(monkeypatch):
    # every stage agrees with resolve's, so the flags are derived on a
    # smooth complex; a flag derivation that finds it not smooth, with the
    # file saying so too, reaches the check that every derived flag holds
    data, fan = certificate(singular_cone_2d(2))
    assert verify_certificate(data, fan) == []
    certificate_flags = equifan.resolve.certificate_flags

    def not_smooth(*args):
        return {**certificate_flags(*args), "smooth": False}

    monkeypatch.setattr(equifan.resolve, "certificate_flags", not_smooth)
    bad = replace(data, flags={**data.flags, "smooth": False})
    assert verify_certificate(bad, fan) == ["final verification failed: smooth"]
    assert verify_certificate(data, fan) == ["flag mismatch: smooth", "final verification failed: smooth"]


def test_a_step_with_two_centers_in_one_maximal_cone():
    # the second center lies in the maximal cone the first one stars;
    # the round selects one center there, so the step is refused
    cx = singular_cone_2d(5)
    data, fan = certificate(cx)
    (step,) = data.stages[0].steps
    assert step.centers == (((1, 4), (0, 1)),)
    centers = step.centers + (((1, 2), (0, 1)),)
    mismatch = f"stage 1: step 1 centers mismatch (recorded {centers}, derived {step.centers})"
    assert verify_certificate(with_step(data, 1, 1, centers=centers), fan) == [mismatch]
    # recorded as a resolve would build those stars, with every field of
    # the stage consistent with them, it is refused the same way
    ord_k, scale, dip = search_centered_order_function(cx, centers)
    record, _ = Replay(cx).stage("centered", [BatchStep(centers, scale, dip, 1)], [ord_k])
    fields = {f: getattr(record, f) for f in ("steps", "values", "new_rays", "output_hash")}
    assert verify_certificate(with_stage(data, 1, **fields), fan) == [mismatch]
    # a repeated center would be a ray when its second star comes, so the
    # step would certify what the step listing it once does; it is refused
    data, fan = certificate(singular_cone_2d(3))
    (step,) = data.stages[0].steps
    twice = step.centers * 2
    assert verify_certificate(with_step(data, 1, 1, centers=twice), fan) == [
        f"stage 1: step 1 centers mismatch (recorded {twice}, derived {step.centers})"
    ]


# ---------------------------------------------------------------------------
# forged certificates: consistent in every field, and not resolve's


def run_rounds(replay, mode="plain", stop=None):
    """Resolve's stages (`Replay.resolution`; plain mode's are its rounds
    until the replay is smooth), or the first `stop` of them; returns
    their number."""
    return len(list(islice(replay.resolution(mode), stop)))


def replayed_certificate(cx, mode, replay, ok=True):
    """(parsed certificate, fan) of the replay's stages, with the flags
    re-derived (all true exactly when `ok`), written as
    `resolve_equivariant` writes one."""
    group = trivial_group(cx.ambient_rank)
    composite = replay.final_composite()
    cert = ResolutionCertificate(
        mode=mode,
        input_complex=cx,
        group=group,
        stages=tuple(replay.stages),
        composite=composite,
        final=replay.cur,
        flags=certificate_flags(cx, group, replay.cur, composite),
        trace=tuple(replay.trace),
    )
    assert cert.ok == ok
    fan = fan_from_complex(cx)
    return parse_certificate(write_certificate(cert, fan)), fan


def test_a_round_at_a_larger_scale_is_named(monkeypatch):
    # every round's solve takes the first admitted scale at least twice
    # the least one: a strict, integral chain that resolve does not write
    import equifan.orderfun

    lex_first = equifan.orderfun._lex_first

    def doubled(rows, bounds, xs):
        found = lex_first(rows, bounds, xs)
        return found and lex_first(rows, bounds, range(2 * found[0], xs.stop))

    cx = singular_cone_2d(7)
    expected, fan = certificate(cx)
    monkeypatch.setattr(equifan.orderfun, "_lex_first", doubled)
    data, _ = certificate(cx)
    monkeypatch.undo()
    assert [s.steps[0].centers for s in data.stages] == [s.steps[0].centers for s in expected.stages]
    ((want,), (got,)) = (expected.stages[0].steps, data.stages[0].steps)
    assert verify_certificate(data, fan) == [
        f"stage 1: step 1 scale/dip mismatch (recorded ({got.scale}, {got.dip}), "
        f"derived ({want.scale}, {want.dip}))"
    ]


def test_a_barycentric_stage_of_the_top_barycenter_alone_is_named():
    # the first stage stars only the barycenter of the 3-cone, where the
    # cascade also stars its facets' barycenters; the rounds then run
    # from plain frames until the complex is smooth
    cx = Complex.from_maximal_cones(3, [(1, 0, 0), (0, 1, 0), (1, 2, 5)], [[0, 1, 2]])
    centers = (((2, 3, 5), (0, 1, 2)),)
    replay = Replay(cx)
    ord_b, scale, dip = search_centered_order_function(cx, centers)
    replay.stage("barycentric", [BatchStep(centers, scale, dip, None)], [ord_b])
    replay.frames = initial_frames_plain(replay.cur)
    run_rounds(replay)
    data, fan = replayed_certificate(cx, "canonical", replay)
    assert verify_certificate(data, fan) == ["stage 1: step count mismatch (recorded 1, derived 2)"]


@pytest.mark.parametrize("steps", [0, 1], ids=["no-step", "no-center"])
def test_a_round_that_stars_nothing_is_named(steps):
    # a smooth resolution of (1,0),(1,3) with one more round appended that
    # subdivides nothing and folds the constant 1 into the composite
    cx = singular_cone_2d(3)
    replay = Replay(cx)
    assert run_rounds(replay) == 2
    if steps:
        ord_k, scale, dip = search_centered_order_function(replay.cur, ())
        replay.stage("centered", [BatchStep((), scale, dip, None)], [ord_k])
    else:
        replay.stage("centered", [], [])
    data, fan = replayed_certificate(cx, "plain", replay)
    # resolve stops on the smooth complex, so verify derives one stage less
    assert verify_certificate(data, fan) == ["stage count mismatch (recorded 3, derived 2)"]


def test_a_certificate_with_a_round_appended_is_named():
    # a smooth resolution of (1,0),(1,3) with one more round appended that
    # stars the sum of the rays of a smooth cone: a strict, integral chain
    # one stage longer than resolve's
    cx = singular_cone_2d(3)
    replay = Replay(cx)
    rounds = run_rounds(replay)
    a, b = min(sorted(mc) for mc in replay.cur.maximal_cones)
    centers = ((tuple(x + y for x, y in zip(replay.cur.rays[a], replay.cur.rays[b])), (a, b)),)
    ord_k, scale, dip = search_centered_order_function(replay.cur, centers)
    replay.stage("centered", [BatchStep(centers, scale, dip, None)], [ord_k])
    data, fan = replayed_certificate(cx, "plain", replay)
    assert len(replay.cur.rays) == len(cx.rays) + rounds + 1
    assert verify_certificate(data, fan) == [f"stage count mismatch (recorded {rounds + 1}, derived {rounds})"]


@pytest.mark.parametrize(
    "n, mode", [(2, "plain"), (7, "plain"), (7, "canonical")], ids=["one-round", "plain", "canonical"]
)
def test_a_certificate_with_its_last_round_dropped_is_named(n, mode):
    # resolve's stages less the last, every field re-derived, so the
    # final complex is not smooth and its flag says so; verify runs the
    # stages until smooth and names the count.  (1,0),(1,2) has one round,
    # so its certificate has no stage at all
    cx = singular_cone_2d(n)
    stages = run_rounds(Replay(cx), mode)
    replay = Replay(cx)
    run_rounds(replay, mode, stages - 1)
    data, fan = replayed_certificate(cx, mode, replay, ok=False)
    assert not data.flags["smooth"] and len(data.stages) == stages - 1
    assert verify_certificate(data, fan) == [f"stage count mismatch (recorded {stages - 1}, derived {stages})"]


@pytest.mark.parametrize("k", range(2, 7))
def test_a_doubled_stage_multiplier_is_named(k, monkeypatch):
    # stage k is folded into the composite at twice its multiplier,
    # 2m * outer + inner = 2F - inner for the fold F, and every later
    # stage on that composite: a strict, integral chain of resolve's
    # stages, composite consistent, that resolve does not write
    fold = equifan.resolve.fold
    folds = []

    def doubled(outer, inner):
        composite, m = fold(outer, inner)
        folds.append(m)
        if len(folds) != k - 1:  # stage 1 has no fold, each round one
            return composite, m
        values = [2 * f - v for f, v in zip(composite.ray_values, inner.ray_values)]
        return _carrying(OrderFunction(composite.base, composite.subdivision, values), composite._pieces), 2 * m

    cx = singular_cone_2d(7)
    expected, fan = certificate(cx)
    assert [s.multiplier for s in expected.stages] == [1] * 6
    monkeypatch.setattr(equifan.resolve, "fold", doubled)
    data, _ = certificate(cx)
    monkeypatch.undo()
    assert data.stages[k - 1].multiplier == 2
    assert data.composite != expected.composite
    assert verify_certificate(data, fan) == [f"stage {k}: multiplier mismatch (recorded 2, derived 1)"]


def test_a_round_that_stars_another_valid_point_is_named(monkeypatch):
    # every round stars the last parallelepiped point of the selected cone
    # in its frame, not the lex-first one: a smooth, verified resolution
    # that resolve does not write, which verify's own selection refuses
    def last_point(cx, frames, elements):
        _, ((_, mc), *_) = select_centers(cx, frames, elements)
        point, coords = parallelepiped_points([cx.rays[i] for i in frames[mc]])[-1]
        return coords, ((point, mc),)

    cx = singular_cone_2d(7)
    monkeypatch.setattr(equifan.resolve, "select_centers", last_point)
    data, fan = certificate(cx)
    monkeypatch.undo()
    assert verify_certificate(data, fan) == [
        "stage 1: step 1 centers mismatch (recorded (((1, 1), (0, 1)),), derived (((1, 6), (0, 1)),))"
    ]


@pytest.mark.parametrize(
    "cx, gens, mode, patch, violation",
    [
        (
            TWO_CONES, [SWAP2], "canonical", ("_inherit_frames", one_frame_reversed),
            "stage 2: frame equivariance: the group does not carry frames onto frames",
        ),
        (
            singular_cone_2d(3), None, "plain", ("ROUND_CAP", 1),
            "stage 2: resolution did not terminate within round_cap=1",
        ),
    ],
    ids=["frame-equivariance", "round-cap"],
)
def test_a_round_that_fails_inside_verify_is_named(cx, gens, mode, patch, violation, monkeypatch, tmp_path, capsys):
    # a sound certificate, verified with one guard of the round broken:
    # the round's error is one named violation, and `equifan verify`
    # exits 1 on it with no traceback
    fan = fan_from_complex(cx, gens or ())
    text = write_certificate(resolve_equivariant(cx, gens and generate_group(gens), mode=mode), fan)
    cert_path, fan_path = tmp_path / "in.cert", tmp_path / "in.fan"
    cert_path.write_text(text)
    fan_path.write_text(write_fan(fan))
    monkeypatch.setattr(equifan.resolve, *patch)
    assert verify_certificate(parse_certificate(text), fan) == [violation]
    assert main(["verify", str(cert_path), str(fan_path)]) == 1
    out, err = capsys.readouterr()
    assert out == f"violation: {violation}\n"
    assert "Traceback" not in out + err


def swapped(text, first):
    """The text with its first line equal to `first` and the line after it
    swapped."""
    lines = text.splitlines()
    i = lines.index(first)
    lines[i], lines[i + 1] = lines[i + 1], lines[i]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("section", ["values", "composite"])
def test_value_lines_out_of_order_are_a_parse_error(section):
    # resolve writes one text of a value table, its ray ids in order; the
    # same values in another order name the line
    cx = singular_cone_2d(3)
    fan = fan_from_complex(cx)
    text = write_certificate(resolve_equivariant(cx, mode="plain"), fan)
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(f"{section} "))
    with pytest.raises(ParseError, match=rf"^line {start + 2}: {section} line for ray 0 expected, found ray id 1$"):
        parse_certificate(swapped(text, lines[start + 1]))


def test_flag_lines_out_of_order_are_named():
    cx = singular_cone_2d(3)
    fan = fan_from_complex(cx)
    text = write_certificate(resolve_equivariant(cx, mode="plain"), fan)
    data = parse_certificate(swapped(text, "equivariant true"))
    assert list(data.flags) != list(FLAG_NAMES)
    assert verify_certificate(data, fan) == ["flag out of order: g_strict is listed where equivariant belongs"]


def _reordered_final_cones(swap_lines):
    """A plain certificate of (1,0),(1,3) with its first two final-cones
    lines swapped, or its first line's ray ids reversed, and the parse
    error that names that line."""
    cx = singular_cone_2d(3)
    fan = fan_from_complex(cx)
    lines = write_certificate(resolve_equivariant(cx, mode="plain"), fan).splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("final-cones "))
    first, second = (list(map(int, line.split())) for line in lines[start + 1:start + 3])
    if swap_lines:
        lines[start + 1:start + 3] = lines[start + 2], lines[start + 1]
        error = f"line {start + 3}: final-cones lines must ascend: {first} follows {second}"
    else:
        lines[start + 1] = " ".join(map(str, first[::-1]))
        error = f"line {start + 2}: final-cones ray ids must ascend, found {first[::-1]}"
    return fan, "\n".join(lines) + "\n", error


@pytest.mark.parametrize("swap_lines", [True, False], ids=["line-swap", "id-swap"])
def test_final_cones_out_of_order_are_a_parse_error(swap_lines, tmp_path, capsys):
    # resolve writes one text of the final complex: ids ascending in each
    # line, the lines ascending; the same cones in another order name the
    # line, and `equifan verify` exits 2 on it
    fan, text, error = _reordered_final_cones(swap_lines)
    with pytest.raises(ParseError, match=f"^{re.escape(error)}$"):
        parse_certificate(text)
    cert_path, fan_path = tmp_path / "in.cert", tmp_path / "in.fan"
    cert_path.write_text(text)
    fan_path.write_text(write_fan(fan))
    assert main(["verify", str(cert_path), str(fan_path)]) == 2
    assert capsys.readouterr().err == f"parse error: {error}\n"


def test_input_fan_cones_stay_in_any_order():
    # an input fan's cone lines are taken in any order, ids and lines
    fan = parse_fan("rank 2\nrays 3\n1 0\n0 1\n-1 -1\ncones 2\n2 1\n1 0\n")
    assert fan.cones == ((1, 2), (0, 1))
