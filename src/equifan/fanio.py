"""Text file formats: fan files and resolution certificates.

Both formats are line-based, integer-exact and deterministic: writing
the same object twice produces byte-identical text, and every complex
is hashed through its canonical serialization.  Fan files are parsed
into a `FanFile`, with comments, blank lines and cone ids in any order
allowed.

A certificate is the canonical serialization of a resolution: every
field (centers, hosts, scales, multipliers, per-stage values, hashes,
flags, measure trace, final complex, composite) is derived from the
input fan and the mode, so a resolution has exactly one certificate
text.  Verification resolves the input again and compares the text it
writes with the file's, naming the first line that differs; the parser
only tells a certificate from any other file.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import zip_longest

from .complexes import Complex
from .groups import GROUP_CAP_DEFAULT, generate_group


class ParseError(Exception):
    def __init__(self, message, line=None):
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")


@dataclass
class FanFile:
    ambient_rank: int
    rays: tuple
    cones: tuple  # tuples of ray indices (maximal cones)
    group_generators: tuple = ()

    def to_complex(self) -> Complex:
        return Complex.from_maximal_cones(self.ambient_rank, self.rays, self.cones)


# ---------------------------------------------------------------------------
# low-level line reader


class _Lines:
    def __init__(self, text):
        self.items = []
        for n, raw in enumerate(text.splitlines(), start=1):
            stripped = raw.split("#", 1)[0].strip()
            if stripped:
                self.items.append((n, stripped))
        self.pos = 0

    def next(self, what="line"):
        if self.pos >= len(self.items):
            raise ParseError(f"unexpected end of file, expected {what}")
        item = self.items[self.pos]
        self.pos += 1
        return item

    def expect_keyword(self, keyword):
        n, line = self.next(keyword)
        parts = line.split()
        if parts[0] != keyword:
            raise ParseError(f"expected {keyword!r}, found {parts[0]!r}", n)
        return n, parts[1:]

    def done(self):
        return self.pos >= len(self.items)


def _ints(parts, n, what):
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise ParseError(f"{what}: expected integers, found {parts!r}", n)


def _one_int(parts, n, what):
    vals = _ints(parts, n, what)
    if len(vals) != 1:
        raise ParseError(f"{what}: expected one integer", n)
    return vals[0]


def _count(parts, n, what):
    """A count: one integer, which must not be negative."""
    count = _one_int(parts, n, what)
    if count < 0:
        raise ParseError(f"{what} must not be negative, found {count}", n)
    return count


def _rays(lines, keyword, rank):
    """A `keyword N` line and N lines of `rank` integers each."""
    n, parts = lines.expect_keyword(keyword)
    rays = []
    for _ in range(_count(parts, n, f"{keyword} count")):
        n, line = lines.next(f"{keyword} line")
        row = _ints(line.split(), n, "ray")
        if len(row) != rank:
            raise ParseError(f"ray has {len(row)} entries, expected {rank}", n)
        rays.append(tuple(row))
    return tuple(rays)


def _cones(lines, keyword, nrays):
    """A `keyword N` line and N lines of distinct ray ids below nrays
    each, the ids of a line in any order."""
    n, parts = lines.expect_keyword(keyword)
    cones = []
    for _ in range(_count(parts, n, f"{keyword} count")):
        n, line = lines.next(f"{keyword} line")
        idxs = _ints(line.split(), n, "cone")
        for i in idxs:
            if not (0 <= i < nrays):
                raise ParseError(f"ray index {i} out of range", n)
        if len(set(idxs)) != len(idxs):
            raise ParseError("repeated ray index in cone", n)
        cones.append(tuple(sorted(idxs)))
    return tuple(cones)


# ---------------------------------------------------------------------------
# fan files


def parse_fan(text: str) -> FanFile:
    lines = _Lines(text)
    n, parts = lines.expect_keyword("rank")
    rank = _one_int(parts, n, "rank")
    if rank < 1:
        raise ParseError("rank must be positive", n)

    rays = _rays(lines, "rays", rank)
    cones = _cones(lines, "cones", len(rays))

    generators = []
    if not lines.done():
        n, parts = lines.expect_keyword("generators")
        ngen = _count(parts, n, "generator count")
        for _ in range(ngen):
            mat = []
            for _ in range(rank):
                n, line = lines.next("matrix row")
                row = _ints(line.split(), n, "matrix row")
                if len(row) != rank:
                    raise ParseError(f"matrix row has {len(row)} entries, expected {rank}", n)
                mat.append(tuple(row))
            generators.append(tuple(mat))
    if not lines.done():
        n, line = lines.next()
        raise ParseError(f"unexpected trailing content {line!r}", n)
    return FanFile(rank, rays, cones, tuple(generators))


def _row(row) -> str:
    """One row of a section: its entries, space-separated."""
    return " ".join(map(str, row))


def _section(keyword, rows) -> list[str]:
    """A `keyword N` line and N rows (`_row`), as `_rays` and `_cones`
    read them."""
    rows = list(rows)
    return [f"{keyword} {len(rows)}", *map(_row, rows)]


def _fan_layout(rank: int, ray_lines, cone_lines) -> list[str]:
    """A fan text's rank line, rays and cones, from its formatted ray and
    cone lines (`_row`), the cones ascending: the layout `parse_fan` reads,
    which `write_fan` and `_FanLines` both write."""
    return [f"rank {rank}", f"rays {len(ray_lines)}", *ray_lines, f"cones {len(cone_lines)}", *cone_lines]


def write_fan(fan: FanFile) -> str:
    cones = sorted(tuple(sorted(c)) for c in fan.cones)
    out = _fan_layout(fan.ambient_rank, [*map(_row, fan.rays)], [*map(_row, cones)])
    if fan.group_generators:
        out.append(f"generators {len(fan.group_generators)}")
        for m in fan.group_generators:
            for row in m:
                out.append(" ".join(str(c) for c in row))
    return "\n".join(out) + "\n"


def fan_from_complex(cx: Complex, group_generators=()) -> FanFile:
    maximal = tuple(tuple(sorted(c)) for c in cx.maximal_cones if c)  # no line for the zero cone
    return FanFile(cx.ambient_rank, cx.rays, maximal, tuple(group_generators))


def fan_hash(fan: FanFile) -> str:
    return hashlib.sha256(write_fan(fan).encode()).hexdigest()


def complex_hash(cx: Complex) -> str:
    """The sha256 of the complex's fan text, recomputed in full: the
    reference that the stage hash `resolve.Replay` carries (`_FanLines`)
    is tested against."""
    return hashlib.sha256(write_fan(fan_from_complex(cx)).encode()).hexdigest()


class _FanLines:
    """The text `write_fan` writes for a complex without generators, kept
    as lines that a subdivision changes in place: ray lines are appended,
    and each nonzero maximal cone has one line, keyed by its sorted ray
    ids.  `sha256` is `complex_hash` of the complex the lines describe."""

    def __init__(self, cx: Complex):
        self.rank = cx.ambient_rank
        self.ray_lines: list[str] = []
        self.cone_lines: dict[tuple, str] = {}
        self.update(cx.rays, (), cx.maximal_cones)

    def update(self, new_rays, removed, added):
        """Append the new rays' lines, and replace the removed maximal
        cones' lines by the added ones'."""
        self.ray_lines += map(_row, new_rays)
        for c in removed:
            del self.cone_lines[tuple(sorted(c))]
        for c in added:
            if c:  # no line for the zero cone, as in `fan_from_complex`
                key = tuple(sorted(c))
                self.cone_lines[key] = _row(key)

    def sha256(self) -> str:
        cones = [self.cone_lines[k] for k in sorted(self.cone_lines)]
        text = "\n".join(_fan_layout(self.rank, self.ray_lines, cones)) + "\n"
        return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# certificate files

CERT_MAGIC = "equifan-certificate 1"


def _header(input_fan: FanFile, mode: str, group_order: int, rank: int) -> list[str]:
    """A certificate's first five lines, which need no resolution: the
    magic line, the input fan's hash, the mode, the group order and the
    rank."""
    return [
        CERT_MAGIC,
        f"input-sha256 {fan_hash(input_fan)}",
        f"mode {mode}",
        f"group-order {group_order}",
        f"rank {rank}",
    ]


def write_certificate(cert, input_fan: FanFile) -> str:
    from .resolve import FLAG_NAMES

    out = _header(input_fan, cert.mode, len(cert.group), cert.input_complex.ambient_rank)
    out += _section("flags", ((name, "true" if cert.flags[name] else "false") for name in FLAG_NAMES))
    out += _section("trace", ((label, *("na" if v is None else v for v in vals)) for label, *vals in cert.trace))
    out.append(f"stages {len(cert.stages)}")
    for k, stage in enumerate(cert.stages, start=1):
        out.append(f"stage {k} {stage.kind}")
        out.append(f"input-hash {stage.input_hash}")
        out.append(f"output-hash {stage.output_hash}")
        out.append(f"steps {len(stage.steps)}")
        for step in stage.steps:
            out.append(
                f"step centers {len(step.centers)} scale {step.scale} "
                f"dip {step.dip} mult {step.multiplier}"
            )
            for center, host in step.centers:
                cs = " ".join(str(c) for c in center)
                hs = " ".join(str(i) for i in host)
                out.append(f"center {cs} host {hs}")
        out.append(f"new-rays {len(stage.new_rays)}")
        for rid, gen in stage.new_rays:
            out.append(f"{rid} : " + " ".join(str(c) for c in gen))
        out.append(f"multiplier {stage.multiplier}")
        out += _section("values", enumerate(stage.values))
    out += _section("final-rays", cert.final.rays)
    out += _section("final-cones", sorted(fan_from_complex(cert.final).cones))
    out += _section("composite", enumerate(cert.composite.ray_values))
    out.append("end")
    return "\n".join(out) + "\n"


@dataclass(frozen=True)
class CertificateData:
    """A file that passed the certificate gate: its mode and its whole text."""

    mode: str
    text: str


def parse_certificate(text: str) -> CertificateData:
    """The gate between a certificate and any other file: the first line
    must be `CERT_MAGIC` and the third `mode canonical` or `mode plain`.
    Every other line is checked by comparison with the text that
    `verify_certificate` derives, so nothing more is read here."""
    first, _, mode = (text.splitlines()[:3] + [""] * 3)[:3]
    if first != CERT_MAGIC:
        raise ParseError(f"not a certificate file (header {first!r})", 1)
    if mode not in ("mode canonical", "mode plain"):
        raise ParseError(f"expected 'mode canonical' or 'mode plain', found {mode!r}", 3)
    return CertificateData(mode.split()[1], text)


# ---------------------------------------------------------------------------
# verification


def _first_difference(recorded: str, derived: str) -> list[str]:
    """[] when the texts are equal, else one violation naming the first
    line where they differ: `stage k, line L: recorded '...', derived
    '...'`, with k read off the derived text's last `stage k` line above
    line L (no stage in the header or after `final-rays`).  Lines keep
    their line ends, so a changed line end is a difference too; a line
    past the end of either text reads as end of file."""
    if recorded == derived:
        return []
    got, want = recorded.splitlines(keepends=True), derived.splitlines(keepends=True)
    n = next(i for i, (a, b) in enumerate(zip_longest(got, want)) if a != b)
    stage = ""
    for line in want[:n + 1]:
        key = line.split(" ", 1)[0]
        if key in ("stage", "final-rays"):
            stage = f"stage {line.split()[1]}, " if key == "stage" else ""

    def show(lines):
        return repr(lines[n]) if n < len(lines) else "end of file"

    return [f"{stage}line {n + 1}: recorded {show(got)}, derived {show(want)}"]


def verify_certificate(cert: CertificateData, fan: FanFile, group_cap: int | None = None) -> list[str]:
    """Resolve the fan as `equifan resolve` does and compare the
    certificate it writes with the file's text.

    Every field of a certificate is derived from the input fan and the
    mode, so a resolution has one certificate text, and the file verifies
    exactly when it is that text (`_first_difference` names the first
    line that is not).  The header (`_header`) needs no resolution and is
    compared first, so a certificate of another fan, rank or group order
    is rejected without resolving.  An error of the group generation or of
    the resolution (an invalid input, a group that does not act, a round
    that fails) is the one violation.
    """
    # resolve imports this module, so its names are imported at the call
    from .resolve import resolve_equivariant

    try:
        cap = GROUP_CAP_DEFAULT if group_cap is None else group_cap
        elements = generate_group(fan.group_generators, cap=cap, rank=fan.ambient_rank)
    except ValueError as e:
        return [f"group generation failed: {e}"]
    header = "\n".join(_header(fan, cert.mode, len(elements), fan.ambient_rank)) + "\n"
    if not cert.text.startswith(header):
        return _first_difference(cert.text, header)
    try:
        resolution = resolve_equivariant(
            fan.to_complex(), elements, mode=cert.mode, generators=fan.group_generators or None
        )
    except (ValueError, RuntimeError) as e:
        return [str(e)]
    return _first_difference(cert.text, write_certificate(resolution, fan))
