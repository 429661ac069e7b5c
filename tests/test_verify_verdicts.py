"""Hand-built certificates for the `verify_certificate` verdicts that no
single-field mutation reaches.

Each forgery starts from a certificate that `resolve_equivariant` built,
changes the fields one verdict needs (`dataclasses.replace`), is written
by `write_certificate` and pins the violation list.  Verify resolves the
input again and compares the text it writes with the file's, so a
certificate whose stages differ from resolve's in any field, or in
number, is named by its first differing line; the forgeries below are
consistent in every other field.  An error of the resolution itself (a
round's guard, the final flags) is the one violation.
"""

from dataclasses import replace
from unittest import mock

import pytest

from equifan.cli import main
from equifan.complexes import Complex
from equifan.fanio import (
    complex_hash,
    fan_from_complex,
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
    BatchStep,
    Replay,
    ResolutionCertificate,
    StageRecord,
    _unit,
    certificate_flags,
    initial_frames_plain,
    resolve_equivariant,
    select_centers,
)

from conftest import SWAP2, orthant, singular_cone_2d, square_cone
from test_resolve import TWO_CONES, one_frame_reversed


def certificate(cx, mode="plain", gens=None):
    """(resolve's certificate, fan) of cx resolved in the given mode."""
    fan = fan_from_complex(cx, gens or ())
    return resolve_equivariant(cx, gens and generate_group(gens), mode=mode), fan


def verdict(cert, fan, **kwargs):
    """verify's violations on the certificate as `write_certificate` writes it."""
    return verify_certificate(parse_certificate(write_certificate(cert, fan)), fan, **kwargs)


def differs(line, recorded, derived, stage=None):
    """The one violation naming a differing line (of the given stage)."""
    where = "" if stage is None else f"stage {stage}, "
    return [f"{where}line {line}: recorded {recorded!r}, derived {derived!r}"]


def with_stage(cert, k, **fields):
    """cert with stage k (1-based) changed in the given fields."""
    stages = list(cert.stages)
    stages[k - 1] = replace(stages[k - 1], **fields)
    return replace(cert, stages=tuple(stages))


def with_step(cert, k, j, **fields):
    """cert with step j of stage k (both 1-based) changed in the given fields."""
    steps = list(cert.stages[k - 1].steps)
    steps[j - 1] = replace(steps[j - 1], **fields)
    return with_stage(cert, k, steps=tuple(steps))


def test_rank_differs():
    # the header is compared before any resolution, so a wrong rank costs
    # no resolve
    cert, fan = certificate(singular_cone_2d(2))
    text = write_certificate(cert, fan).replace("\nrank 2\n", "\nrank 3\n", 1)
    with mock.patch.object(equifan.resolve, "resolve_equivariant", side_effect=AssertionError("resolved")):
        assert verify_certificate(parse_certificate(text), fan) == differs(5, "rank 3\n", "rank 2\n")


def test_group_generation_failed():
    cert, fan = certificate(orthant(2), "canonical", [SWAP2])
    assert verdict(cert, fan) == []
    assert verdict(cert, fan, group_cap=1) == ["group generation failed: group size cap 1 exceeded"]


def test_group_does_not_act_on_the_input():
    # the swap carries ray (1, 0) to (0, 1), which is no ray of the cone;
    # the header names the fan with the swap and its group of order 2, so
    # resolve is asked and refuses the action
    cx = singular_cone_2d(2)
    cert, _ = certificate(cx)
    fan = fan_from_complex(cx, [SWAP2])
    assert verdict(replace(cert, group=generate_group([SWAP2])), fan) == [
        "group does not act on the complex: element 0 maps ray 0 = (1, 0) to (0, 1), not a ray"
    ]


def test_direct_stage_needs_one_step_without_centers():
    # the stage is derived from the input and its text compared line by line
    cert, fan = certificate(square_cone(), "canonical")
    assert cert.stages[0].kind == "barycentric-direct"
    assert verdict(with_stage(cert, 1, steps=()), fan) == differs(24, "steps 0\n", "steps 1\n", 1)
    step = cert.stages[0].steps[0]
    two = with_stage(cert, 1, steps=(step, replace(step, multiplier=2)))
    assert verdict(two, fan) == differs(24, "steps 2\n", "steps 1\n", 1)
    centers = (((0, 0, 1), (0, 1, 2, 3)),)
    assert verdict(with_step(cert, 1, 1, centers=centers), fan) == differs(
        25, "step centers 1 scale 8 dip 1 mult 1\n", "step centers 0 scale 8 dip 1 mult 1\n", 1
    )
    assert verdict(with_stage(cert, 1, kind="barycentric"), fan) == differs(
        21, "stage 1 barycentric\n", "stage 1 barycentric-direct\n", 1
    )


def test_center_outside_the_support_is_invalid():
    # verify selects each round's centers itself, so a recorded center
    # outside the support differs from the derived one
    cert, fan = certificate(singular_cone_2d(2))
    bad = with_step(cert, 1, 1, centers=(((-1, 0), (0, 1)),))
    assert verdict(bad, fan) == differs(26, "center -1 0 host 0 1\n", "center 1 1 host 0 1\n", 1)


def test_step_replay_failed_on_a_ray_in_no_cone():
    # the smooth cone (1,0),(0,1) with the unused ray (1,1): a stage that
    # stars at that ray comes after resolve has stopped, on a smooth complex
    cx = Complex.from_maximal_cones(2, [(1, 0), (0, 1), (1, 1)], [[0, 1]])
    cert, fan = certificate(cx)
    assert cert.stages == ()
    h = complex_hash(cx)
    stage = StageRecord("centered", (BatchStep((((1, 1), (0, 1)),), 1, 1, 1),), 1, (1, 1, 1), (), h, h)
    assert verdict(replace(cert, stages=(stage,)), fan) == differs(19, "stages 1\n", "stages 0\n")


def test_step_composition_that_is_not_integral():
    # the barycentric cascade of the cone (1,0,0),(3,4,0),(0,0,1) has two
    # steps; at scale 3 the first step's function is 3/2 at the second
    # step's center (1,1,0), so the recorded step multiplier 1 would leave
    # non-integral values; the cascade is re-solved, which names the scale,
    # and every step multiplier is derived by the fold
    cx = Complex.from_maximal_cones(3, [(1, 0, 0), (3, 4, 0), (0, 0, 1)], [[0, 1, 2]])
    cert, fan = certificate(cx, "canonical")
    assert [s.multiplier for s in cert.stages[0].steps] == [1, 1]
    assert cert.stages[0].steps[1].centers[0] == ((1, 1, 0), (0, 1))
    text = write_certificate(cert, fan).splitlines()
    first, second = [i + 1 for i, line in enumerate(text) if line.startswith("step ")][:2]
    assert verdict(with_step(cert, 1, 1, scale=3), fan) == differs(
        first, text[first - 1].replace("scale 2", "scale 3") + "\n", text[first - 1] + "\n", 1
    )
    for j, line in ((1, first), (2, second)):
        bad = with_step(cert, 1, j, multiplier=2)
        assert verdict(bad, fan) == differs(
            line, text[line - 1].replace("mult 1", "mult 2") + "\n", text[line - 1] + "\n", 1
        )


def test_stage_function_that_is_not_integral():
    # (1,0),(1,3) starred at (1,2) with (scale, dip) = (3, 1) values the
    # rays 3, 3, 2, so the lattice point (1,1) of the piece (1,0),(1,2)
    # gets 5/2; every other field is consistent with those values, and
    # the solver's (scale, dip) is named
    cert, fan = certificate(singular_cone_2d(3))
    assert cert.stages[0].steps[0].centers == (((1, 2), (0, 1)),)
    assert (cert.stages[0].steps[0].scale, cert.stages[0].values) == (3, (3, 3, 1))
    bad = with_stage(with_step(cert, 1, 1, dip=1), 1, values=(3, 3, 2))
    assert verdict(bad, fan) == differs(
        26, "step centers 1 scale 3 dip 1 mult 1\n", "step centers 1 scale 3 dip 2 mult 1\n", 1
    )


def test_final_verification_failed(monkeypatch):
    # verify resolves as resolve does, and resolve refuses a resolution
    # whose flags do not all hold: a flag derivation that finds the
    # smooth complex not smooth makes that refusal the one violation,
    # whatever the file's flags say
    cert, fan = certificate(singular_cone_2d(2))
    assert verdict(cert, fan) == []
    flags = equifan.resolve.certificate_flags

    def not_smooth(*args):
        return {**flags(*args), "smooth": False}

    monkeypatch.setattr(equifan.resolve, "certificate_flags", not_smooth)
    refused = ["resolution verification failed: ['smooth']"]
    assert verdict(replace(cert, flags={**cert.flags, "smooth": False}), fan) == refused
    assert verdict(cert, fan) == refused


def test_a_step_with_two_centers_in_one_maximal_cone():
    # the second center lies in the maximal cone the first one stars;
    # the round selects one center there, so the step is refused
    cx = singular_cone_2d(5)
    cert, fan = certificate(cx)
    (step,) = cert.stages[0].steps
    assert step.centers == (((1, 4), (0, 1)),)
    centers = step.centers + (((1, 2), (0, 1)),)
    line = write_certificate(cert, fan).splitlines().index("step centers 1 scale 5 dip 4 mult 1") + 1
    mismatch = differs(
        line, "step centers 2 scale 5 dip 4 mult 1\n", "step centers 1 scale 5 dip 4 mult 1\n", 1
    )
    assert verdict(with_step(cert, 1, 1, centers=centers), fan) == mismatch
    # recorded as a resolve would build those stars, with every field of
    # the stage consistent with them, it is refused at the stage's output
    # hash, two lines above its step
    ord_k, scale, dip = search_centered_order_function(cx, centers)
    record, _ = Replay(cx).stage("centered", [(centers, scale, dip, ord_k)])
    fields = {f: getattr(record, f) for f in ("steps", "values", "new_rays", "output_hash")}
    assert verdict(with_stage(cert, 1, **fields), fan) == differs(
        line - 2, f"output-hash {record.output_hash}\n", f"output-hash {cert.stages[0].output_hash}\n", 1
    )
    # a repeated center would be a ray when its second star comes, so the
    # step would certify what the step listing it once does; it is refused
    cert, fan = certificate(singular_cone_2d(3))
    (step,) = cert.stages[0].steps
    assert verdict(with_step(cert, 1, 1, centers=step.centers * 2), fan) == differs(
        26, "step centers 2 scale 3 dip 2 mult 1\n", "step centers 1 scale 3 dip 2 mult 1\n", 1
    )


# ---------------------------------------------------------------------------
# forged certificates: consistent in every field, and not resolve's


def run_rounds(replay, mode="plain", stop=None):
    """Resolve's stages as `resolve_equivariant` steps them (canonical
    mode's `barycentric`, then each `round` until the replay is smooth),
    or the first `stop` of them; returns their number."""
    count = 0
    if mode == "canonical" and stop != 0:
        replay.barycentric()
        count = 1
    while replay.trace[-1][1] != 1 and (stop is None or count < stop):
        replay.round()
        count += 1
    return count


def replayed_certificate(cx, mode, replay, ok=True):
    """(certificate, fan) of the replay's stages, with the flags re-derived
    (all true exactly when `ok`), as `resolve_equivariant` builds one."""
    group = trivial_group(cx.ambient_rank)
    composite = _unit(cx) if replay.composite is None else replay.composite
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
    return cert, fan_from_complex(cx)


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
    cert, _ = certificate(cx)
    monkeypatch.undo()
    assert [s.steps[0].centers for s in cert.stages] == [s.steps[0].centers for s in expected.stages]
    ((want,), (got,)) = (expected.stages[0].steps, cert.stages[0].steps)
    # the trace's rows are the same, so the first step line is the first to differ
    step_line = f"step centers 1 scale {want.scale} dip {want.dip} mult 1"
    line = write_certificate(expected, fan).splitlines().index(step_line)
    assert verdict(cert, fan) == differs(
        line + 1, f"step centers 1 scale {got.scale} dip {got.dip} mult 1\n", step_line + "\n", 1
    )


def test_a_barycentric_stage_of_the_top_barycenter_alone_is_named():
    # the first stage stars only the barycenter of the 3-cone, where the
    # cascade also stars its facets' barycenters; the rounds then run
    # from plain frames until the complex is smooth
    cx = Complex.from_maximal_cones(3, [(1, 0, 0), (0, 1, 0), (1, 2, 5)], [[0, 1, 2]])
    centers = (((2, 3, 5), (0, 1, 2)),)
    replay = Replay(cx)
    ord_b, scale, dip = search_centered_order_function(cx, centers)
    replay.stage("barycentric", [(centers, scale, dip, ord_b)])
    replay.frames = initial_frames_plain(replay.cur)
    run_rounds(replay)
    cert, fan = replayed_certificate(cx, "canonical", replay)
    # the rounds that follow differ in number, and the trace counts them
    assert verdict(cert, fan) == differs(17, "trace 10\n", "trace 16\n")


@pytest.mark.parametrize("steps", [0, 1], ids=["no-step", "no-center"])
def test_a_round_that_stars_nothing_is_named(steps):
    # a smooth resolution of (1,0),(1,3) with one more round appended that
    # subdivides nothing and folds the constant 1 into the composite
    cx = singular_cone_2d(3)
    replay = Replay(cx)
    assert run_rounds(replay) == 2
    if steps:
        ord_k, scale, dip = search_centered_order_function(replay.cur, ())
        replay.stage("centered", [((), scale, dip, ord_k)])
    else:
        replay.stage("centered", [])
    cert, fan = replayed_certificate(cx, "plain", replay)
    # resolve stops on the smooth complex, so its trace has no third round
    assert verdict(cert, fan) == differs(17, "trace 4\n", "trace 3\n")


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
    replay.stage("centered", [(centers, scale, dip, ord_k)])
    cert, fan = replayed_certificate(cx, "plain", replay)
    assert len(replay.cur.rays) == len(cx.rays) + rounds + 1
    assert verdict(cert, fan) == differs(17, f"trace {rounds + 2}\n", f"trace {rounds + 1}\n")


@pytest.mark.parametrize(
    "n, mode", [(2, "plain"), (7, "plain"), (7, "canonical")], ids=["one-round", "plain", "canonical"]
)
def test_a_certificate_with_its_last_round_dropped_is_named(n, mode):
    # resolve's stages less the last, every field re-derived, so the
    # final complex is not smooth and its flag says so, the first line
    # that differs.  (1,0),(1,2) has one round, so its certificate has no
    # stage at all
    cx = singular_cone_2d(n)
    stages = run_rounds(Replay(cx), mode)
    replay = Replay(cx)
    run_rounds(replay, mode, stages - 1)
    cert, fan = replayed_certificate(cx, mode, replay, ok=False)
    assert not cert.flags["smooth"] and len(cert.stages) == stages - 1
    assert verdict(cert, fan) == differs(7, "smooth false\n", "smooth true\n")


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
    cert, _ = certificate(cx)
    monkeypatch.undo()
    assert cert.stages[k - 1].multiplier == 2
    assert cert.composite.ray_values != expected.composite.ray_values
    lines = write_certificate(expected, fan).splitlines()
    line = [i for i, text in enumerate(lines) if text.startswith("multiplier ")][k - 1] + 1
    assert verdict(cert, fan) == differs(line, "multiplier 2\n", "multiplier 1\n", k)


def test_a_round_that_stars_another_valid_point_is_named(monkeypatch):
    # every round stars the last parallelepiped point of the selected cone
    # in its frame, not the lex-first one: a smooth, verified resolution
    # that resolve does not write, which verify's own selection refuses
    def last_point(cx, frames, elements):
        _, ((_, mc), *_) = select_centers(cx, frames, elements)
        point, coords = parallelepiped_points([cx.rays[i] for i in frames[mc]])[-1]
        return coords, ((point, mc),)

    cx = singular_cone_2d(7)
    expected, fan = certificate(cx)
    monkeypatch.setattr(equifan.resolve, "select_centers", last_point)
    cert, _ = certificate(cx)
    monkeypatch.undo()
    # the trace rows agree, so the first stage's output hash, three lines
    # above its center, is the first line to differ
    assert [s.steps[0].centers for s in (cert.stages[0], expected.stages[0])] == [
        (((1, 1), (0, 1)),), (((1, 6), (0, 1)),)
    ]
    line = write_certificate(expected, fan).splitlines().index("center 1 6 host 0 1") + 1
    assert verdict(cert, fan) == differs(
        line - 3,
        f"output-hash {cert.stages[0].output_hash}\n",
        f"output-hash {expected.stages[0].output_hash}\n",
        1,
    )


@pytest.mark.parametrize(
    "cx, gens, mode, patch, violation",
    [
        (
            TWO_CONES, [SWAP2], "canonical", ("_inherit_frames", one_frame_reversed),
            "frame equivariance: the group does not carry frames onto frames",
        ),
        (
            singular_cone_2d(3), None, "plain", ("ROUND_CAP", 1),
            "resolution did not terminate within round_cap=1",
        ),
    ],
    ids=["frame-equivariance", "round-cap"],
)
def test_a_round_that_fails_inside_verify_is_named(cx, gens, mode, patch, violation, monkeypatch, tmp_path, capsys):
    # a sound certificate, verified with one guard of the round broken:
    # the round's error is one named violation, and `equifan verify`
    # exits 1 on it with no traceback
    cert, fan = certificate(cx, mode, gens)
    text = write_certificate(cert, fan)
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
    swapped, and the number of that line."""
    lines = text.splitlines()
    i = lines.index(first)
    lines[i], lines[i + 1] = lines[i + 1], lines[i]
    return "\n".join(lines) + "\n", i + 1


@pytest.mark.parametrize("section", ["values", "composite"])
def test_value_lines_out_of_order_are_named(section):
    # resolve writes one text of a value table, its ray ids in order; the
    # same values in another order name the first line out of place
    cert, fan = certificate(singular_cone_2d(3))
    text = write_certificate(cert, fan)
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(f"{section} "))
    forged, n = swapped(text, lines[start + 1])
    stage = 1 if section == "values" else None
    assert verify_certificate(parse_certificate(forged), fan) == differs(
        n, lines[start + 2] + "\n", lines[start + 1] + "\n", stage
    )


def test_flag_lines_out_of_order_are_named():
    cert, fan = certificate(singular_cone_2d(3))
    forged, n = swapped(write_certificate(cert, fan), "equivariant true")
    assert verify_certificate(parse_certificate(forged), fan) == differs(
        n, "g_strict true\n", "equivariant true\n"
    )


def _reordered_final_cones(swap_lines):
    """A plain certificate of (1,0),(1,3) with its first two final-cones
    lines swapped, or its first line's ray ids reversed, and the violation
    that names that line."""
    cert, fan = certificate(singular_cone_2d(3))
    lines = write_certificate(cert, fan).splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("final-cones "))
    first, second = lines[start + 1:start + 3]
    if swap_lines:
        lines[start + 1:start + 3] = second, first
        violation = differs(start + 2, second + "\n", first + "\n")
    else:
        lines[start + 1] = " ".join(first.split()[::-1])
        violation = differs(start + 2, lines[start + 1] + "\n", first + "\n")
    return fan, "\n".join(lines) + "\n", violation


@pytest.mark.parametrize("swap_lines", [True, False], ids=["line-swap", "id-swap"])
def test_final_cones_out_of_order_are_named(swap_lines, tmp_path, capsys):
    # resolve writes one text of the final complex: ids ascending in each
    # line, the lines ascending; the same cones in another order name the
    # line, and `equifan verify` exits 1 on it
    fan, text, violation = _reordered_final_cones(swap_lines)
    assert verify_certificate(parse_certificate(text), fan) == violation
    cert_path, fan_path = tmp_path / "in.cert", tmp_path / "in.fan"
    cert_path.write_text(text)
    fan_path.write_text(write_fan(fan))
    assert main(["verify", str(cert_path), str(fan_path)]) == 1
    assert capsys.readouterr().out == f"violation: {violation[0]}\n"


def test_input_fan_cones_stay_in_any_order():
    # an input fan's cone lines are taken in any order, ids and lines
    fan = parse_fan("rank 2\nrays 3\n1 0\n0 1\n-1 -1\ncones 2\n2 1\n1 0\n")
    assert fan.cones == ((1, 2), (0, 1))
