"""Command-line surface.

Exit codes: 0 success, 1 semantic failure, 2 parse failure (bytes that are
not UTF-8 included) or a file that cannot be read or written.  For
`verify`, exit 2 means the file is not a certificate; any other difference
from the certificate verify derives is exit 1, with the first differing
line named.  There is no randomness anywhere, so identical inputs always
produce byte-identical outputs.  The group size cap can be overridden
through the environment variable EQUIFAN_GROUP_CAP.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .complexes import is_simplicial, require_valid, validate_complex
from .fanio import (
    FanFile,
    ParseError,
    fan_from_complex,
    parse_certificate,
    parse_fan,
    verify_certificate,
    write_certificate,
    write_fan,
)
from .groups import GROUP_CAP_DEFAULT, generate_group, group_action, verify_action
from .groups import _fixed_cone_identity, _strictness
from .lattice import cone_index, primitive
from .resolve import resolve_equivariant
from .subdivide import barycentric_subdivision, star_subdivide


def _group_cap() -> int:
    raw = os.environ.get("EQUIFAN_GROUP_CAP")
    if not raw:
        return GROUP_CAP_DEFAULT
    if not (raw.isdigit() and int(raw) > 0):
        raise ValueError(f"EQUIFAN_GROUP_CAP must be a positive integer, got {raw!r}")
    return int(raw)


def _read(path) -> str:
    """A file's text as written, its line ends untranslated; bytes that
    are not UTF-8 are a parse failure."""
    with open(path, encoding="utf-8", newline="") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as e:
            raise ParseError(f"{path} is not UTF-8 text (byte {e.start})")


def _load_fan(path) -> FanFile:
    return parse_fan(_read(path))


def _elements(fan: FanFile):
    """The fan's group, the trivial one without generators; every command
    builds its group here, so each reads the size cap."""
    return generate_group(fan.group_generators, cap=_group_cap(), rank=fan.ambient_rank)


def _acting_generators(fan: FanFile, cx) -> tuple:
    """The fan's generators when they act on cx, else none.  The group is
    still generated, so bad generators and the size cap fail as in every
    other command, but the action is checked on the generators alone."""
    if fan.group_generators:
        _elements(fan)
        if verify_action(cx, fan.group_generators).ok:
            return fan.group_generators
    return ()


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_validate(args) -> int:
    fan = _load_fan(args.fan)
    cx = fan.to_complex()
    report = validate_complex(cx)
    for v in report.violations:
        print(f"violation: {v}")
    if fan.group_generators:
        elements = _elements(fan)
        action = verify_action(cx, elements)
        for v in action.violations:
            print(f"violation: {v}")
        if report.ok and action.ok:
            print(f"valid complex with a group of order {len(elements)}")
            return 0
        return 1
    if report.ok:
        print("valid complex")
        return 0
    return 1


def cmd_barycentric(args) -> int:
    fan = _load_fan(args.fan)
    cx = require_valid(fan.to_complex())
    out = barycentric_subdivision(cx)
    gens = _acting_generators(fan, out)
    _emit(write_fan(fan_from_complex(out, gens)), args.output)
    return 0


def _center(text: str) -> tuple:
    """The --center value: comma-separated integers."""
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, found {text!r}")


def cmd_star(args) -> int:
    fan = _load_fan(args.fan)
    cx = require_valid(fan.to_complex())
    center = args.center
    if len(center) != cx.ambient_rank:
        raise ValueError(f"center has {len(center)} entries, expected {cx.ambient_rank}")
    if primitive(center) != center:
        print(f"note: center {center} normalized to primitive {primitive(center)}", file=sys.stderr)
        center = primitive(center)
    out = star_subdivide(cx, center)
    gens = _acting_generators(fan, out)
    _emit(write_fan(fan_from_complex(out, gens)), args.output)
    return 0


def cmd_resolve(args) -> int:
    fan = _load_fan(args.fan)
    cx = fan.to_complex()
    cert = resolve_equivariant(
        cx, _elements(fan), mode=args.mode, generators=fan.group_generators or None
    )
    with open(args.output, "w") as fh:
        fh.write(write_certificate(cert, fan))
    print("measure trace (label, max index, total index):")
    for label, mx, tot in cert.trace:
        mx_s = "na" if mx is None else str(mx)
        tot_s = "na" if tot is None else str(tot)
        print(f"  {label}: max {mx_s} total {tot_s}")
    print("flags:")
    for name, value in cert.flags.items():
        print(f"  {name}: {'ok' if value else 'FAIL'}")
    print(f"certificate written to {args.output}")
    return 0


def cmd_verify(args) -> int:
    cert = parse_certificate(_read(args.certificate))
    fan = _load_fan(args.fan)
    violations = verify_certificate(cert, fan, group_cap=_group_cap())
    if violations:
        for v in violations:
            print(f"violation: {v}")
        return 1
    print("certificate verified")
    return 0


def cmd_orbits(args) -> int:
    fan = _load_fan(args.fan)
    cx = require_valid(fan.to_complex())
    elements = _elements(fan)
    # a generating set closes the same orbits as the whole group
    action = group_action(cx, fan.group_generators or elements)
    print(f"group order {len(elements)}")
    print("ray orbits:")
    for orbit in action.ray_orbits():
        gens = ", ".join(str(cx.rays[i]) for i in orbit)
        print(f"  {list(orbit)}: {gens}")
    print("maximal cone orbits:")
    for orbit in action.cone_orbits(maximal_only=True):
        print(f"  size {len(orbit)}: {[sorted(c) for c in orbit]}")
    return 0


def cmd_report(args) -> int:
    fan = _load_fan(args.fan)
    cx = fan.to_complex()
    report = validate_complex(cx)
    print(f"rank {cx.ambient_rank}, rays {len(cx.rays)}, "
          f"cones {len(cx.cones)}, maximal {len(cx.maximal_cones)}")
    print(f"valid: {'yes' if report.ok else 'no'}")
    for v in report.violations:
        print(f"  violation: {v}")
    if not report.ok:
        return 1
    simp = is_simplicial(cx)
    print(f"simplicial: {'yes' if simp else 'no'}")
    if simp:
        idx = {tuple(sorted(c)): cone_index(cx.generators(c)) for c in cx.maximal_cones if c}
        print(f"smooth: {'yes' if all(v == 1 for v in idx.values()) else 'no'}")
        for c, v in sorted(idx.items()):
            print(f"  cone {list(c)}: index {v}")
    if fan.group_generators:
        elements = _elements(fan)
        # the group acts, and is strict, exactly when its generators are
        action = verify_action(cx, fan.group_generators)
        print(f"group: order {len(elements)}, acts: {'yes' if action.ok else 'no'}")
        if action.ok:
            strict = _strictness(action).ok
            # strictness implies the fixed-cone identity (`_fixed_cone_identity`)
            fixed = strict or _fixed_cone_identity(group_action(cx, elements)).ok
            print(f"fixed-cone identity: {'pass' if fixed else 'FAIL'}")
            print(f"strict action: {'pass' if strict else 'FAIL'}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused by every
    later `main` in the process (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="equifan",
        description="Exact subdivisions, order functions, group actions and "
        "equivariant smooth refinement of conical polyhedral complexes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a fan file (and its group, if any)")
    p.add_argument("fan")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("barycentric", help="write the barycentric subdivision")
    p.add_argument("fan")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_barycentric)

    p = sub.add_parser("star", help="write the subdivision centered at a ray")
    p.add_argument("fan")
    p.add_argument("--center", required=True, type=_center, help="comma-separated integers, e.g. 1,1")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_star)

    p = sub.add_parser("resolve", help="equivariant smooth refinement with certificate")
    p.add_argument("fan")
    p.add_argument("--mode", choices=("canonical", "plain"), default="canonical")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("verify", help="re-verify a certificate against its input")
    p.add_argument("certificate")
    p.add_argument("fan")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("orbits", help="print ray and cone orbits of the group")
    p.add_argument("fan")
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("report", help="summarize a fan file")
    p.add_argument("fan")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
