"""File formats, hashing, replay verification, and the command line."""

import functools
import hashlib
import itertools
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import equifan

from equifan.cli import main
from equifan.complexes import Complex
from equifan.fanio import (
    FanFile,
    ParseError,
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
from equifan.orderfun import centered_order_function
from equifan.resolve import FLAG_NAMES, Replay, ResolutionCertificate, resolve_equivariant
from equifan.subdivide import barycentric_subdivision, star_subdivide

from conftest import (
    CYC3,
    NEG2,
    REFLECT_X,
    ROT2,
    SWAP2,
    SWAP3_01,
    candidate_actions,
    complete_2d_fan,
    corpus,
    orthant,
    perfbench_workloads,
    quadrant_and_ray,
    singular_cone_2d,
)



class TestFanFormat:
    def test_round_trip(self):
        for name, cx in corpus():
            fan = fan_from_complex(cx)
            text = write_fan(fan)
            again = parse_fan(text)
            assert write_fan(again) == text, name
            assert again.to_complex() == cx, name

    def test_round_trip_with_group(self, orthant2):
        fan = fan_from_complex(orthant2, [SWAP2])
        again = parse_fan(write_fan(fan))
        assert again.group_generators == (SWAP2,)

    def test_comments_and_blank_lines(self):
        text = "# a fan\nrank 2\n\nrays 2\n1 0\n0 1   # basis\ncones 1\n0 1\n"
        fan = parse_fan(text)
        assert fan.ambient_rank == 2

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ParseError) as err:
            parse_fan("rank 2\nrays 1\n1 0 0\ncones 0\n")
        assert "line 3" in str(err.value)
        with pytest.raises(ParseError, match="out of range"):
            parse_fan("rank 2\nrays 1\n1 0\ncones 1\n0 3\n")
        with pytest.raises(ParseError, match="expected"):
            parse_fan("rays 2\n1 0\n0 1\n")

    @pytest.mark.parametrize(
        "text,line",
        [
            ("rank 2\nrays -1\ncones 0\n", 2),
            ("rank 2\nrays 1\n1 0\ncones -1\n", 4),
            ("rank 2\nrays 1\n1 0\ncones 1\n0\ngenerators -1\n", 6),
        ],
        ids=["rays", "cones", "generators"],
    )
    def test_negative_counts_are_parse_errors(self, text, line):
        with pytest.raises(ParseError, match=rf"line {line}: .* count must not be negative, found -1"):
            parse_fan(text)

    def test_hash_is_semantic(self):
        a = "rank 2\nrays 2\n1 0\n0 1\ncones 1\n0 1\n"
        b = "# comment\nrank 2\nrays 2\n1 0\n0 1\n\ncones 1\n1 0\n"
        assert fan_hash(parse_fan(a)) == fan_hash(parse_fan(b))

    def test_determinism(self):
        sing = singular_cone_2d(3)
        fan = fan_from_complex(sing)
        assert write_fan(fan) == write_fan(fan_from_complex(sing))


class TestCertificateFormat:
    def test_round_trip(self):
        sing = singular_cone_2d(3)
        cert = resolve_equivariant(sing, mode="plain")
        fan = fan_from_complex(sing)
        text = write_certificate(cert, fan)
        data = parse_certificate(text)
        assert (data.mode, data.text) == ("plain", text)
        assert verify_certificate(data, fan) == []

    def test_verify_accepts_fresh_certificates(self):
        cases = [
            (singular_cone_2d(2), None, "plain"),
            (singular_cone_2d(5), None, "plain"),
            (orthant(2), [SWAP2], "canonical"),
            (orthant(3), [CYC3], "canonical"),
            (singular_cone_2d(4), None, "canonical"),
        ]
        for cx, gens, mode in cases:
            elements = generate_group(gens) if gens else None
            cert = resolve_equivariant(cx, elements, mode=mode)
            fan = fan_from_complex(cx, gens or ())
            text = write_certificate(cert, fan)
            violations = verify_certificate(parse_certificate(text), fan)
            assert violations == [], (mode, violations)

    def test_wrong_input_rejected(self):
        sing = singular_cone_2d(2)
        cert = resolve_equivariant(sing, mode="plain")
        fan = fan_from_complex(sing)
        text = write_certificate(cert, fan)
        other = fan_from_complex(singular_cone_2d(3))
        # the header names another fan, so nothing is resolved
        with mock.patch.object(equifan.resolve, "resolve_equivariant", side_effect=AssertionError("resolved")):
            violations = verify_certificate(parse_certificate(text), other)
        assert violations == [
            f"line 2: recorded 'input-sha256 {fan_hash(fan)}\\n', derived 'input-sha256 {fan_hash(other)}\\n'"
        ]

    def test_byte_determinism(self):
        sing = singular_cone_2d(3)
        fan = fan_from_complex(sing)
        t1 = write_certificate(resolve_equivariant(sing, mode="plain"), fan)
        t2 = write_certificate(resolve_equivariant(sing, mode="plain"), fan)
        assert t1 == t2
        g = generate_group([CYC3])
        fan3 = fan_from_complex(orthant(3), [CYC3])
        c1 = write_certificate(resolve_equivariant(orthant(3), g), fan3)
        c2 = write_certificate(resolve_equivariant(orthant(3), g), fan3)
        assert c1 == c2

    def test_rational_values_rejected(self):
        sing = singular_cone_2d(2)
        cert = resolve_equivariant(sing, mode="plain")
        fan = fan_from_complex(sing)
        lines = write_certificate(cert, fan).splitlines()
        idx = next(i for i, l in enumerate(lines) if lines[i - 1].startswith("composite"))
        rid, val = lines[idx].split()
        lines[idx] = f"{rid} {val}/2"
        violations = verify_certificate(parse_certificate("\n".join(lines) + "\n"), fan)
        assert violations == [f"line {idx + 1}: recorded '{rid} {val}/2\\n', derived '{rid} {val}\\n'"]

    def test_tampered_value_named(self):
        sing = singular_cone_2d(2)
        cert = resolve_equivariant(sing, mode="plain")
        fan = fan_from_complex(sing)
        lines = write_certificate(cert, fan).splitlines()
        # bump one composite value
        idx = next(i for i, l in enumerate(lines) if lines[i - 1].startswith("composite"))
        rid, val = lines[idx].split()
        lines[idx] = f"{rid} {int(val) + 1}"
        data = parse_certificate("\n".join(lines) + "\n")
        violations = verify_certificate(data, fan)
        assert violations == [f"line {idx + 1}: recorded '{rid} {int(val) + 1}\\n', derived '{rid} {val}\\n'"]


def plain_certificate_lines():
    """The plain certificate of singular_cone_2d(2) as lines, with its fan."""
    sing = singular_cone_2d(2)
    fan = fan_from_complex(sing)
    return write_certificate(resolve_equivariant(sing, mode="plain"), fan).splitlines(), fan


def with_extra_flag(lines, flag_line):
    """The certificate lines with one more flag line and the count raised."""
    i = next(k for k, l in enumerate(lines) if l.startswith("flags "))
    count = int(lines[i].split()[1])
    return lines[:i] + [f"flags {count + 1}", lines[i + 1], flag_line] + lines[i + 2:], i


def test_repeated_flag_is_named():
    # the raised flag count is the first line that differs
    lines, fan = plain_certificate_lines()
    mutated, i = with_extra_flag(lines, "smooth true")
    assert mutated[i + 1] == "smooth true"
    data = parse_certificate("\n".join(mutated) + "\n")
    assert verify_certificate(data, fan) == [f"line {i + 1}: recorded 'flags 11\\n', derived 'flags 10\\n'"]


def test_unknown_flag_is_a_named_violation():
    lines, fan = plain_certificate_lines()
    mutated, i = with_extra_flag(lines, "bogus_flag false")
    data = parse_certificate("\n".join(mutated) + "\n")
    assert verify_certificate(data, fan) == [f"line {i + 1}: recorded 'flags 11\\n', derived 'flags 10\\n'"]


NONFACE_FAN = "rank 3\nrays 4\n0 0 1\n0 1 1\n1 -1 1\n1 0 -2\ncones 2\n0 1 2\n0 1 2 3\n"
OVERLAP_FAN = "rank 2\nrays 4\n1 0\n1 2\n1 1\n0 1\ncones 2\n0 1\n2 3\n"
OVERLAP_VIOLATION = "invalid input complex: cones [0, 1] and [2, 3] do not intersect in a common face"


def test_verify_rejects_an_invalid_input():
    """A certificate naming an overlapping fan by its hash is not verified."""
    lines, _ = plain_certificate_lines()
    bad = parse_fan(OVERLAP_FAN)
    lines[1] = f"input-sha256 {fan_hash(bad)}"
    data = parse_certificate("\n".join(lines) + "\n")
    assert verify_certificate(data, bad) == [OVERLAP_VIOLATION]


def replayed_plain_certificate(scale, dip):
    """A self-consistent plain certificate of the cone (1,0),(1,2) starred
    at (1,1) with the given (scale, dip), built through `Replay` as resolve
    builds one, whether or not the stage function is an order function."""
    cx = singular_cone_2d(2)
    centers = (((1, 1), (0, 1)),)
    replay = Replay(cx)
    step_ord = centered_order_function(cx, centers, scale, dip)
    replay.stage("centered", [(centers, scale, dip, step_ord)])
    cert = ResolutionCertificate(
        mode="plain",
        input_complex=cx,
        group=trivial_group(2),
        stages=tuple(replay.stages),
        composite=replay.composite,
        final=replay.cur,
        flags=dict.fromkeys(FLAG_NAMES, True),
        trace=tuple(replay.trace),
    )
    fan = fan_from_complex(cx)
    return parse_certificate(write_certificate(cert, fan)), fan


def step_line_differs(scale, dip):
    """The violation naming the step line of stage 1 (line 25) recorded
    with (scale, dip), where resolve derives (2, 1)."""
    return [
        f"stage 1, line 25: recorded 'step centers 1 scale {scale} dip {dip} mult 1\\n', "
        "derived 'step centers 1 scale 2 dip 1 mult 1\\n'"
    ]


@pytest.mark.parametrize(
    "scale, dip, expected",
    [
        (2, 1, []),
        (1, 0, step_line_differs(1, 0)),
        (1, -1, step_line_differs(1, -1)),
        (0, -1, step_line_differs(0, -1)),
    ],
    ids=["sound", "flat", "concave", "concave-and-zero"],
)
def test_stage_axiom_violations_are_named(scale, dip, expected):
    """Recorded parameters that replay consistently but give no strictly
    convex, positive order function (a flat bend, a concave one, a zero
    value) are not resolve's: verify solves the round and names the step
    line, with the (scale, dip) it derives."""
    cert, fan = replayed_plain_certificate(scale, dip)
    assert verify_certificate(cert, fan) == expected


def run_cli(*args):
    return main(list(args))


def run_module_cli(*args, flags=()):
    """`python -m equifan.cli ARGS` in a fresh interpreter, output captured."""
    srcdir = str(Path(equifan.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([srcdir, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, *flags, "-m", "equifan.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def verify_cli(text, fan, tmp_path):
    """`equifan verify` on the certificate text and the fan, as files."""
    cert_path = tmp_path / "out.cert"
    fan_path = tmp_path / "in.fan"
    cert_path.write_bytes(text.encode())
    fan_path.write_text(write_fan(fan))
    return run_cli("verify", str(cert_path), str(fan_path))


@pytest.mark.parametrize("keyword", ["input-hash", "output-hash"])
def test_truncated_hash_line_is_named(keyword, tmp_path, capsys):
    sing = singular_cone_2d(2)
    fan = fan_from_complex(sing)
    lines = write_certificate(resolve_equivariant(sing, mode="plain"), fan).splitlines()
    idx = lines.index(next(l for l in lines if l.startswith(keyword + " ")))
    violation = f"stage 1, line {idx + 1}: recorded '{keyword}\\n', derived '{lines[idx]}\\n'"
    lines[idx] = keyword
    text = "\n".join(lines) + "\n"
    assert verify_certificate(parse_certificate(text), fan) == [violation]
    assert verify_cli(text, fan, tmp_path) == 1
    assert capsys.readouterr().out == f"violation: {violation}\n"


@pytest.mark.parametrize("tail", ["0", "end", "x y"])
def test_content_after_end_is_named(tail, tmp_path, capsys):
    sing = singular_cone_2d(2)
    fan = fan_from_complex(sing)
    text = write_certificate(resolve_equivariant(sing, mode="plain"), fan)
    assert text.endswith("\nend\n")
    text = text[: -len("end\n")] + f"end {tail}\n"
    violation = f"line {len(text.splitlines())}: recorded 'end {tail}\\n', derived 'end\\n'"
    assert verify_certificate(parse_certificate(text), fan) == [violation]
    assert verify_cli(text, fan, tmp_path) == 1
    assert capsys.readouterr().out == f"violation: {violation}\n"


def reformatted_copies():
    """The plain certificate of (1,0),(1,7), its fan, and nine copies of
    it that differ in format alone: {label: (copy, its first line that
    differs)}."""
    cx = singular_cone_2d(7)
    fan = fan_from_complex(cx)
    text = write_certificate(resolve_equivariant(cx, mode="plain"), fan)
    lines = text.splitlines()
    step = next(i for i, line in enumerate(lines) if line.startswith("step "))
    mult = next(i for i, line in enumerate(lines) if line.startswith("multiplier "))
    value = next(i for i, line in enumerate(lines) if line.startswith("values ")) + 1

    def joined(ls):
        return "\n".join(ls) + "\n"

    def at(i, line):
        return joined(lines[:i] + [line] + lines[i + 1:])

    copies = {
        "doubled-space": (at(step, lines[step].replace(" ", "  ", 1)), step + 1),
        "trailing-space": (at(step, lines[step] + " "), step + 1),
        "tab": (at(value, lines[value].replace(" ", "\t")), value + 1),
        "blank-line": (joined(lines[:step] + [""] + lines[step:]), step + 1),
        "crlf": (text.replace("\n", "\r\n"), 1),
        "plus-sign": (at(mult, "multiplier +1"), mult + 1),
        "leading-zero": (at(mult, "multiplier 01"), mult + 1),
        "no-final-newline": (text[:-1], len(lines)),
        "comment": (joined(lines[:step] + ["# a comment"] + lines[step:]), step + 1),
    }
    assert lines[mult] == "multiplier 1"
    return text, fan, copies


@pytest.mark.parametrize("label", list(reformatted_copies()[2]))
def test_reformatted_certificates_are_refused(label, tmp_path, capsys):
    """A resolution has one certificate text: each copy that differs from
    it in format alone names its first differing line, in process and
    through `equifan verify`, while the text itself verifies."""
    text, fan, copies = reformatted_copies()
    copy, line = copies[label]
    assert verify_certificate(parse_certificate(text), fan) == []
    (violation,) = verify_certificate(parse_certificate(copy), fan)
    recorded, derived = (t.splitlines(keepends=True)[line - 1] for t in (copy, text))
    assert violation.endswith(f"line {line}: recorded {recorded!r}, derived {derived!r}")
    assert verify_cli(copy, fan, tmp_path) == 1
    assert capsys.readouterr().out == f"violation: {violation}\n"


@functools.cache
def fuzz_bases():
    """Two small certificates (plain, and canonical with a group) as lines."""
    bases = []
    for cx, gens, mode in ((singular_cone_2d(3), (), "plain"), (orthant(2), (SWAP2,), "canonical")):
        fan = fan_from_complex(cx, gens)
        cert = resolve_equivariant(cx, generate_group(gens) if gens else None, mode=mode)
        bases.append((write_certificate(cert, fan).splitlines(), fan))
    return bases


def _is_int(token):
    return token.lstrip("-").isdigit()


def _same_token(a, b):
    return int(a) == int(b) if _is_int(a) and _is_int(b) else a == b


@st.composite
def single_line_mutations(draw):
    """A certificate with one line deleted, duplicated, cut short or changed in one token."""
    lines, fan = fuzz_bases()[draw(st.integers(0, 1))]
    i = draw(st.integers(0, len(lines) - 1))
    tokens = lines[i].split()
    op = draw(st.sampled_from(["replace", "nudge", "delete", "duplicate", "cut"]))
    if op == "nudge":  # a small change to one integer keeps most lines parseable
        j = draw(st.sampled_from([k for k, t in enumerate(tokens) if _is_int(t)] or [0]))
        delta = draw(st.integers(-3, 3).filter(bool))
        tokens[j] = str(int(tokens[j]) + delta) if _is_int(tokens[j]) else "x"
        mutated = lines[:i] + [" ".join(tokens)] + lines[i + 1:]
    elif op == "delete":
        mutated = lines[:i] + lines[i + 1:]
    elif op == "duplicate":
        mutated = lines[: i + 1] + lines[i:]
    elif op == "cut":
        mutated = lines[:i] + [" ".join(tokens[:-1])] + lines[i + 1:]
    else:
        j = draw(st.integers(0, len(tokens) - 1))
        token = draw(
            st.integers(-3, 40).map(str) | st.sampled_from(["x", "na", "true", "false", "host"])
        )
        if _same_token(token, tokens[j]):
            token = str(int(token) + 1) if _is_int(token) else token + "x"
        tokens[j] = token
        mutated = lines[:i] + [" ".join(tokens)] + lines[i + 1:]
    return "\n".join(mutated) + "\n", fan


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(single_line_mutations())
def test_single_line_mutations_are_rejected(mutation):
    text, fan = mutation
    try:
        data = parse_certificate(text)
    except ParseError:
        return
    assert verify_certificate(data, fan)


class TestGroupQuestionsFromGenerators:
    """Resolve and verify ask the fan's generators; the element count comes
    from the group they generate."""

    def test_resolve_names_the_failing_generator(self, tmp_path, capsys):
        src = tmp_path / "in.fan"
        src.write_text(write_fan(fan_from_complex(orthant(2), [SWAP2, NEG2])))
        assert run_cli("resolve", str(src), "-o", str(tmp_path / "out.cert")) == 1
        assert capsys.readouterr().err == (
            "error: group does not act on the complex: "
            "element 1 maps ray 0 = (1, 0) to (-1, 0), not a ray\n"
        )
        # validate still lists the violations of every element of the group
        assert run_cli("validate", str(src)) == 1
        assert capsys.readouterr().out == (
            "violation: element 0 maps ray 0 = (1, 0) to (-1, 0), not a ray\n"
            "violation: element 1 maps ray 0 = (1, 0) to (0, -1), not a ray\n"
        )

    @pytest.mark.parametrize("gens", [[CYC3, SWAP3_01], []], ids=["s3", "trivial"])
    def test_verify_asks_the_generators(self, gens):
        import equifan.resolve

        cx = barycentric_subdivision(orthant(3))
        fan = fan_from_complex(cx, gens)
        elements = generate_group(gens, rank=3)
        cert = parse_certificate(write_certificate(resolve_equivariant(cx, elements), fan))
        asked = []

        def spy(name):
            check = getattr(equifan.resolve, name)

            def asks(cx, matrices):
                asked.append((name, tuple(matrices)))
                return check(cx, matrices)

            return asks

        with mock.patch.object(equifan.resolve, "verify_action", spy("verify_action")), \
                mock.patch.object(equifan.resolve, "group_action", spy("group_action")):
            assert verify_certificate(cert, fan) == []
        # the input's action, then the final complex's for the flags
        want = tuple(gens) or trivial_group(3)
        assert asked == [("group_action", want), ("verify_action", want)]


def b4_orthant_fan():
    """The fan of all 16 orthants of Z^4 with the signed permutations
    (order 384), given by a transposition, a 4-cycle and a sign change."""
    rays = [tuple(s * (i == j) for j in range(4)) for i in range(4) for s in (1, -1)]
    cones = [[2 * i + b for i, b in enumerate(bits)] for bits in itertools.product((0, 1), repeat=4)]
    gens = [
        ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
        ((0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)),
        ((-1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
    ]
    return Complex.from_maximal_cones(4, rays, cones), gens


CANDIDATE_GENERATORS = {"swap": [SWAP2], "3-cycle": [CYC3], "s3": [CYC3, SWAP3_01]}


def orbit_fans():
    for name, cx in corpus():
        for group, _ in candidate_actions(cx):
            yield pytest.param(cx, CANDIDATE_GENERATORS[group], id=f"{name}-{group}")
    yield pytest.param(*b4_orthant_fan(), id="b4-orthant")


@pytest.mark.parametrize("cx, gens", orbit_fans())
def test_orbits_from_the_generators_print_the_whole_group_output(cx, gens, tmp_path, capsys):
    import equifan.cli

    src = tmp_path / "in.fan"
    src.write_text(write_fan(fan_from_complex(cx, gens)))
    asked = []
    group_action = equifan.cli.group_action

    def spy(cx, matrices):
        asked.append(tuple(matrices))
        return group_action(cx, matrices)

    with mock.patch.object(equifan.cli, "group_action", spy):
        assert run_cli("orbits", str(src)) == 0
    from_generators = capsys.readouterr().out
    assert asked == [tuple(gens)]
    elements = generate_group(gens)
    with mock.patch.object(equifan.cli, "group_action", lambda cx, _: group_action(cx, elements)):
        assert run_cli("orbits", str(src)) == 0
    assert from_generators == capsys.readouterr().out
    assert from_generators.startswith(f"group order {len(elements)}\n")


class TestCli:
    def test_validate_ok(self, tmp_path, capsys):
        fan = fan_from_complex(orthant(2), [SWAP2])
        path = tmp_path / "orth.fan"
        path.write_text(write_fan(fan))
        assert run_cli("validate", str(path)) == 0
        assert "valid" in capsys.readouterr().out

    def test_validate_overlap_fails(self, tmp_path, capsys):
        path = tmp_path / "bad.fan"
        path.write_text("rank 2\nrays 4\n1 0\n1 2\n1 1\n0 1\ncones 2\n0 1\n2 3\n")
        assert run_cli("validate", str(path)) == 1
        assert "violation" in capsys.readouterr().out

    def test_validate_parse_error(self, tmp_path, capsys):
        path = tmp_path / "junk.fan"
        path.write_text("rank two\n")
        assert run_cli("validate", str(path)) == 2

    def test_barycentric_writes_complex(self, tmp_path):
        src = tmp_path / "in.fan"
        dst = tmp_path / "out.fan"
        src.write_text(write_fan(fan_from_complex(orthant(3))))
        assert run_cli("barycentric", str(src), "-o", str(dst)) == 0
        out = parse_fan(dst.read_text())
        assert len(out.cones) == 6

    def test_star_center_outside(self, tmp_path, capsys):
        src = tmp_path / "in.fan"
        src.write_text(write_fan(fan_from_complex(orthant(2))))
        assert run_cli("star", str(src), "--center=-1,0") == 1
        assert "center not in support" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rays, args",
        [
            ("1 0\n0 1\n1 1", ["barycentric"]),
            ("1 0\n0 1\n1 1", ["resolve", "-o", "out.cert"]),
            ("1 0\n1 3\n1 1", ["star", "--center", "1,1"]),
            ("1 0\n1 3\n1 1", ["resolve", "--mode", "canonical", "-o", "out.cert"]),
            ("1 0\n1 3\n1 1", ["resolve", "--mode", "plain", "-o", "out.cert"]),
        ],
        ids=["barycentric", "resolve", "star", "resolve-canonical", "resolve-plain"],
    )
    def test_center_on_a_ray_in_no_cone_is_named(self, rays, args, tmp_path, capsys, monkeypatch):
        # the cone [0, 1] holds (1, 1), which is also ray 2 of the table but
        # in no cone: it is a new center, and one equal to a listed ray
        monkeypatch.chdir(tmp_path)
        (tmp_path / "in.fan").write_text(f"rank 2\nrays 3\n{rays}\ncones 1\n0 1\n")
        assert run_cli(args[0], "in.fan", *args[1:]) == 1
        assert capsys.readouterr().err == "error: center (1, 1) is ray 2, which is in no cone\n"

    @pytest.mark.parametrize("center", ["a,b", "1,", "1.5,2", ""])
    def test_star_malformed_center_is_a_parse_error(self, center, tmp_path, capsys):
        src = tmp_path / "in.fan"
        src.write_text(write_fan(fan_from_complex(orthant(2))))
        with pytest.raises(SystemExit) as exit_info:
            run_cli("star", str(src), f"--center={center}")
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --center: expected comma-separated integers" in err
        assert "Traceback" not in err

    def test_star_non_primitive_center_prints_one_note(self, tmp_path):
        src = tmp_path / "in.fan"
        dst = tmp_path / "out.fan"
        src.write_text(write_fan(fan_from_complex(orthant(2))))
        proc = run_module_cli("star", str(src), "--center=2,10", "-o", str(dst))
        assert proc.returncode == 0
        assert proc.stderr == "note: center (2, 10) normalized to primitive (1, 5)\n"
        assert ".py" not in proc.stderr and "Warning" not in proc.stderr
        assert parse_fan(dst.read_text()).rays == ((1, 0), (0, 1), (1, 5))

    def test_one_parser_serves_every_call_as_a_fresh_run_would(self, tmp_path, capsys):
        # the parser is built once per process; in-process calls after it
        # with other commands, an argparse refusal among them, exit and
        # print as fresh interpreters do
        from equifan.cli import build_parser

        src, out = tmp_path / "in.fan", tmp_path / "out.fan"
        src.write_text(write_fan(fan_from_complex(singular_cone_2d(3))))
        commands = [
            ("report", str(src)),
            ("star", str(src), "--center=1,1", "-o", str(out)),
            ("star", str(src)),
            ("validate", str(src)),
            ("orbits", str(src)),
        ]
        for args in commands:
            try:
                code = run_cli(*args)
            except SystemExit as e:
                code = e.code
            got = capsys.readouterr()
            fresh = run_module_cli(*args)
            assert (code, got.out, got.err) == (fresh.returncode, fresh.stdout, fresh.stderr), args
        assert build_parser() is build_parser()

    def test_canonical_quadrilateral_fails_by_name(self, tmp_path):
        # a known limitation of the direct barycentric construction: its
        # dips depend only on the source dimension, so no wall bends here
        src = tmp_path / "quad.fan"
        src.write_text("rank 3\nrays 4\n0 2 1\n-3 1 1\n-2 3 1\n0 0 1\ncones 1\n0 1 2 3\n")
        start = time.perf_counter()
        proc = run_module_cli("resolve", str(src), "--mode", "canonical", "-o", str(tmp_path / "q.cert"))
        assert time.perf_counter() - start < 30
        assert proc.returncode == 1
        assert proc.stderr == "error: scale insufficient: a wall of the barycentric subdivision does not bend\n"

    def test_resolve_verify_cycle(self, tmp_path, capsys):
        src = tmp_path / "in.fan"
        cert_path = tmp_path / "out.cert"
        src.write_text(write_fan(fan_from_complex(singular_cone_2d(2))))
        assert run_cli("resolve", str(src), "--mode", "plain", "-o", str(cert_path)) == 0
        out = capsys.readouterr().out
        assert "measure trace" in out and "flags" in out
        assert run_cli("verify", str(cert_path), str(src)) == 0
        # tamper: verify against a different fan
        other = tmp_path / "other.fan"
        other.write_text(write_fan(fan_from_complex(singular_cone_2d(3))))
        assert run_cli("verify", str(cert_path), str(other)) == 1

    def test_resolve_canonical_with_group(self, tmp_path):
        src = tmp_path / "in.fan"
        cert_path = tmp_path / "out.cert"
        src.write_text(write_fan(fan_from_complex(orthant(2), [SWAP2])))
        assert run_cli("resolve", str(src), "-o", str(cert_path)) == 0
        assert run_cli("verify", str(cert_path), str(src)) == 0

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts", "optimized"])
    def test_resolve_invalid_input_exits_1(self, tmp_path, flags):
        # overlapping cones: the input is not a complex
        src = tmp_path / "overlap.fan"
        src.write_text("rank 2\nrays 4\n1 0\n1 3\n1 1\n0 1\ncones 2\n0 1\n2 3\n")
        proc = run_module_cli("resolve", str(src), "-o", str(tmp_path / "out.cert"), flags=flags)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "error: invalid input complex: cones [0, 1] and [2, 3]" in proc.stderr

    @pytest.mark.parametrize(
        "args", [["star", "--center", "2,3"], ["barycentric"]], ids=["star", "barycentric"]
    )
    def test_subdivision_of_invalid_input_exits_1(self, tmp_path, capsys, args):
        src = tmp_path / "overlap.fan"
        dst = tmp_path / "out.fan"
        src.write_text(OVERLAP_FAN)
        assert run_cli(args[0], str(src), *args[1:], "-o", str(dst)) == 1
        assert capsys.readouterr().err == f"error: {OVERLAP_VIOLATION}\n"
        assert not dst.exists()

    def test_orbits(self, tmp_path, capsys):
        src = tmp_path / "in.fan"
        src.write_text(write_fan(fan_from_complex(orthant(3), [CYC3])))
        assert run_cli("orbits", str(src)) == 0
        out = capsys.readouterr().out
        assert "group order 3" in out

    def test_orbits_of_invalid_input_exits_1(self, tmp_path, capsys):
        src = tmp_path / "line.fan"
        src.write_text("rank 2\nrays 2\n1 0\n-1 0\ncones 1\n0 1\n")
        assert run_cli("orbits", str(src)) == 1
        assert "is not pointed" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["canonical", "plain"])
    def test_empty_complex_round_trips(self, mode, tmp_path):
        src = tmp_path / "empty.fan"
        cert_path = tmp_path / "out.cert"
        src.write_text("rank 2\nrays 0\ncones 0\n")
        assert run_cli("resolve", str(src), "--mode", mode, "-o", str(cert_path)) == 0
        assert "final-cones 0\ncomposite 0\n" in cert_path.read_text()
        assert run_cli("verify", str(cert_path), str(src)) == 0

    def test_barycentric_of_empty_complex_parses(self, tmp_path):
        src = tmp_path / "empty.fan"
        dst = tmp_path / "out.fan"
        src.write_text("rank 2\nrays 0\ncones 0\n")
        assert run_cli("barycentric", str(src), "-o", str(dst)) == 0
        assert parse_fan(dst.read_text()) == parse_fan(src.read_text())

    def test_report(self, tmp_path, capsys):
        src = tmp_path / "in.fan"
        src.write_text(write_fan(fan_from_complex(singular_cone_2d(2))))
        assert run_cli("report", str(src)) == 0
        out = capsys.readouterr().out
        assert "smooth: no" in out

    def test_entry_point_subprocess(self, tmp_path):
        src = tmp_path / "in.fan"
        src.write_text(write_fan(fan_from_complex(orthant(2))))
        proc = subprocess.run(
            [sys.executable, "-m", "equifan.cli", "validate", str(src)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "valid" in proc.stdout

    def test_group_cap_env(self, tmp_path, capsys, monkeypatch):
        src = tmp_path / "in.fan"
        src.write_text(write_fan(fan_from_complex(orthant(3), [CYC3, ((0, 1, 0), (1, 0, 0), (0, 0, 1))])))
        monkeypatch.setenv("EQUIFAN_GROUP_CAP", "3")
        assert run_cli("orbits", str(src)) == 1
        assert "cap" in capsys.readouterr().err

    def test_validate_names_a_cone_not_mapped_to_a_cone(self, tmp_path, capsys):
        # diag(-1, 1) permutes the rays but carries [0, 1] onto [1, 2]
        src = tmp_path / "flap.fan"
        src.write_text(write_fan(fan_from_complex(quadrant_and_ray(), [REFLECT_X])))
        assert run_cli("validate", str(src)) == 1
        assert capsys.readouterr().out == (
            "violation: element 0 maps cone [0, 1] to [1, 2], not a cone\n"
        )

    def test_validate_names_a_cone_that_is_no_face(self, tmp_path, capsys):
        # [0, 1, 2] lies in [0, 1, 2, 3] but is not a face of it, and it is
        # not a maximal cone, so no pair of maximal cones meets it
        src = tmp_path / "nonface.fan"
        src.write_text(NONFACE_FAN)
        assert run_cli("validate", str(src)) == 1
        assert capsys.readouterr().out == (
            "violation: cone [0, 1, 2] is not a face of any maximal cone\n"
            "violation: cone [1, 2] is not a face of any maximal cone\n"
        )
        assert run_cli("resolve", str(src), "-o", str(tmp_path / "out.cert")) == 1
        assert capsys.readouterr().err == (
            "error: invalid input complex: cone [0, 1, 2] is not a face of any maximal cone\n"
        )

    @pytest.mark.parametrize("strict", [True, False], ids=["strict", "not-strict"])
    def test_report_asks_each_element_only_when_not_strict(self, strict, tmp_path, capsys):
        # strictness implies the fixed-cone identity, so its per-element
        # check runs only when strictness fails; the output is pinned below
        cx = star_subdivide(orthant(2), (1, 1)) if strict else orthant(2)
        src = tmp_path / "in.fan"
        src.write_text(write_fan(fan_from_complex(cx, [SWAP2])))
        with mock.patch("equifan.cli._fixed_cone_identity", wraps=equifan.cli._fixed_cone_identity) as fci:
            assert run_cli("report", str(src)) == 0
        assert fci.call_count == (0 if strict else 1)
        verdict = "pass" if strict else "FAIL"
        assert capsys.readouterr().out.endswith(
            f"fixed-cone identity: {verdict}\nstrict action: {verdict}\n"
        )

    @pytest.mark.parametrize(
        "cx, gens, expected",
        [
            (
                orthant(2),
                [SWAP2],
                "rank 2, rays 2, cones 4, maximal 1\nvalid: yes\nsimplicial: yes\n"
                "smooth: yes\n  cone [0, 1]: index 1\ngroup: order 2, acts: yes\n"
                "fixed-cone identity: FAIL\nstrict action: FAIL\n",
            ),
            (
                star_subdivide(orthant(2), (1, 1)),
                [SWAP2],
                "rank 2, rays 3, cones 6, maximal 2\nvalid: yes\nsimplicial: yes\n"
                "smooth: yes\n  cone [0, 2]: index 1\n  cone [1, 2]: index 1\n"
                "group: order 2, acts: yes\nfixed-cone identity: pass\nstrict action: pass\n",
            ),
            (
                quadrant_and_ray(),
                [REFLECT_X],
                "rank 2, rays 3, cones 5, maximal 2\nvalid: yes\nsimplicial: yes\n"
                "smooth: yes\n  cone [0, 1]: index 1\n  cone [2]: index 1\n"
                "group: order 2, acts: no\n",
            ),
            (
                barycentric_subdivision(orthant(3)),
                [CYC3, SWAP3_01],
                "rank 3, rays 7, cones 26, maximal 6\nvalid: yes\nsimplicial: yes\n"
                "smooth: yes\n  cone [0, 3, 4]: index 1\n  cone [0, 3, 5]: index 1\n"
                "  cone [1, 3, 4]: index 1\n  cone [1, 3, 6]: index 1\n"
                "  cone [2, 3, 5]: index 1\n  cone [2, 3, 6]: index 1\n"
                "group: order 6, acts: yes\nfixed-cone identity: pass\nstrict action: pass\n",
            ),
            (
                orthant(3),
                [CYC3, SWAP3_01],
                "rank 3, rays 3, cones 8, maximal 1\nvalid: yes\nsimplicial: yes\n"
                "smooth: yes\n  cone [0, 1, 2]: index 1\n"
                "group: order 6, acts: yes\nfixed-cone identity: FAIL\nstrict action: FAIL\n",
            ),
            (
                complete_2d_fan(),
                [ROT2],
                "rank 2, rays 4, cones 9, maximal 4\nvalid: yes\nsimplicial: yes\n"
                "smooth: yes\n  cone [0, 1]: index 1\n  cone [0, 3]: index 1\n"
                "  cone [1, 2]: index 1\n  cone [2, 3]: index 1\n"
                "group: order 4, acts: yes\nfixed-cone identity: pass\nstrict action: FAIL\n",
            ),
        ],
        ids=["orthant-swap", "star-swap", "flap-reflection", "barycentric-s3", "orthant-s3", "square-fan-c4"],
    )
    def test_report_with_group(self, cx, gens, expected, tmp_path, capsys):
        # the action and strictness are asked of the generators; only the
        # fixed-cone identity, when strictness fails, of the whole group
        src = tmp_path / "in.fan"
        src.write_text(write_fan(fan_from_complex(cx, gens)))
        with mock.patch("equifan.cli.verify_action", wraps=equifan.cli.verify_action) as va, \
                mock.patch("equifan.cli.group_action", wraps=equifan.cli.group_action) as ga:
            assert run_cli("report", str(src)) == 0
        assert capsys.readouterr().out == expected
        assert [len(call.args[1]) for call in va.call_args_list] == [len(gens)]
        whole_group = expected.endswith("strict action: FAIL\n")
        assert [len(call.args[1]) for call in ga.call_args_list] == (
            [len(generate_group(gens))] if whole_group else []
        )

    @pytest.mark.parametrize(
        "cx, gens, expected",
        [
            (
                star_subdivide(orthant(2), (1, 1)),
                [SWAP2],
                "group order 2\nray orbits:\n  [0, 1]: (1, 0), (0, 1)\n  [2]: (1, 1)\n"
                "maximal cone orbits:\n  size 2: [[0, 2], [1, 2]]\n",
            ),
            (
                barycentric_subdivision(orthant(3)),
                [CYC3, SWAP3_01],
                "group order 6\nray orbits:\n"
                "  [0, 1, 2]: (1, 0, 0), (0, 1, 0), (0, 0, 1)\n"
                "  [3]: (1, 1, 1)\n"
                "  [4, 5, 6]: (1, 1, 0), (1, 0, 1), (0, 1, 1)\n"
                "maximal cone orbits:\n"
                "  size 6: [[0, 3, 4], [0, 3, 5], [1, 3, 4], [1, 3, 6], [2, 3, 5], [2, 3, 6]]\n",
            ),
        ],
        ids=["star-swap", "barycentric-s3"],
    )
    def test_orbits_with_group(self, cx, gens, expected, tmp_path, capsys):
        src = tmp_path / "in.fan"
        src.write_text(write_fan(fan_from_complex(cx, gens)))
        assert run_cli("orbits", str(src)) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize(
        "args, gens",
        [
            (["resolve", "-o", "out.cert"], []),
            (["orbits"], []),
            (["resolve", "-o", "out.cert"], [SWAP2]),
            (["barycentric", "-o", "out.fan"], [SWAP2]),
            (["star", "--center", "1,1", "-o", "out.fan"], [SWAP2]),
            (["validate"], [SWAP2]),
            (["report"], [SWAP2]),
        ],
        ids=["resolve", "orbits", "resolve-swap", "barycentric-swap", "star-swap",
             "validate-swap", "report-swap"],
    )
    def test_every_group_reads_the_cap(self, args, gens, tmp_path, capsys, monkeypatch):
        src = tmp_path / "in.fan"
        src.write_text(write_fan(fan_from_complex(orthant(2), gens)))
        args = [str(tmp_path / a) if a.startswith("out.") else a for a in args]
        monkeypatch.setenv("EQUIFAN_GROUP_CAP", "abc")
        assert run_cli(args[0], str(src), *args[1:]) == 1
        assert capsys.readouterr().err == (
            "error: EQUIFAN_GROUP_CAP must be a positive integer, got 'abc'\n"
        )
        assert not any(p.name.startswith("out.") for p in tmp_path.iterdir())

    def test_verify_reads_the_cap_without_generators(self, tmp_path, capsys, monkeypatch):
        src = tmp_path / "in.fan"
        cert_path = tmp_path / "out.cert"
        src.write_text(write_fan(fan_from_complex(singular_cone_2d(2))))
        assert run_cli("resolve", str(src), "--mode", "plain", "-o", str(cert_path)) == 0
        capsys.readouterr()
        monkeypatch.setenv("EQUIFAN_GROUP_CAP", "abc")
        assert run_cli("verify", str(cert_path), str(src)) == 1
        assert capsys.readouterr().err == (
            "error: EQUIFAN_GROUP_CAP must be a positive integer, got 'abc'\n"
        )

    @pytest.mark.parametrize("raw", ["abc", "0", "-3"])
    def test_bad_group_cap_env_names_itself(self, raw, tmp_path, capsys, monkeypatch):
        src = tmp_path / "in.fan"
        src.write_text(write_fan(fan_from_complex(orthant(3), [CYC3])))
        monkeypatch.setenv("EQUIFAN_GROUP_CAP", raw)
        assert run_cli("orbits", str(src)) == 1
        assert capsys.readouterr().err == (
            f"error: EQUIFAN_GROUP_CAP must be a positive integer, got {raw!r}\n"
        )

    @pytest.mark.parametrize(
        "args",
        [
            ("validate", "{dir}"),
            ("report", "{missing}"),
            ("verify", "{dir}", "{fan}"),
            ("verify", "{cert}", "{dir}"),
            ("resolve", "{fan}", "-o", "{dir}"),
            ("resolve", "{fan}", "-o", "{missing}/out.cert"),
        ],
    )
    def test_unusable_paths_exit_2_with_one_error_line(self, args, tmp_path, capsys):
        fan = fan_from_complex(orthant(2))
        paths = {"dir": tmp_path / "d", "missing": tmp_path / "missing",
                 "fan": tmp_path / "in.fan", "cert": tmp_path / "out.cert"}
        paths["dir"].mkdir()
        paths["fan"].write_text(write_fan(fan))
        paths["cert"].write_text(write_certificate(resolve_equivariant(orthant(2)), fan))
        assert run_cli(*[a.format(**paths) for a in args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["validate", "verify-cert", "verify-fan"])
    def test_bytes_that_are_not_utf8_are_a_parse_error(self, command, tmp_path, capsys):
        fan = fan_from_complex(orthant(2))
        good_fan, good_cert, bad = tmp_path / "in.fan", tmp_path / "out.cert", tmp_path / "bad"
        good_fan.write_text(write_fan(fan))
        good_cert.write_text(write_certificate(resolve_equivariant(orthant(2)), fan))
        bad.write_bytes(b"rank 2\n\xff\n")
        args = {"validate": ("validate", bad),
                "verify-cert": ("verify", bad, good_fan),
                "verify-fan": ("verify", good_cert, bad)}[command]
        assert run_cli(*map(str, args)) == 2
        assert capsys.readouterr().err == f"parse error: {bad} is not UTF-8 text (byte 7)\n"


WORKLOADS = perfbench_workloads()


@pytest.mark.parametrize(
    "workload, case",
    [(w, case) for w in WORKLOADS.WORKLOADS for case in WORKLOADS.make_cases(w, 0)],
    ids=lambda v: getattr(v, "name", v),
)
def test_benchmark_certificates_match_their_pinned_hashes(workload, case):
    """Each seed-0 case of the benchmark corpus, resolved in-process as
    `equifan resolve` resolves it, writes the certificate whose sha256
    the benchmark pins, and that certificate verifies."""
    fan = parse_fan(WORKLOADS.fan_text(case))
    elements = generate_group(fan.group_generators, rank=fan.ambient_rank)
    cert = resolve_equivariant(fan.to_complex(), elements, mode=case.mode, generators=fan.group_generators or None)
    text = write_certificate(cert, fan)
    assert hashlib.sha256(text.encode()).hexdigest() == WORKLOADS.PINNED_SHA256[workload][case.name]
    assert verify_certificate(parse_certificate(text), fan) == []
