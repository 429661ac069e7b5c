"""Text file formats: fan files and resolution certificates.

Both formats are line-based, integer-exact and deterministic: writing
the same object twice produces byte-identical text, and every complex
is hashed through its canonical serialization.  Certificates embed
enough redundancy (centers, hosts, scales, per-stage values, hashes,
flags, measure trace) that replay verification re-derives everything
and any single-field tampering is caught with a named violation.  Each
`keyword N` section of N rows is written by one writer (`_section`) and
read by its own reader.

Verification runs resolve's own stages (`resolve.Replay.resolution`):
canonical stage 1 from the input, then rounds that select their own
centers and choose their own multipliers until the complex is smooth.
Each derived stage record is compared with the file field by field, and
the stage counts with each other.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .complexes import Complex, require_valid
from .groups import GROUP_CAP_DEFAULT, generate_group, trivial_group, verify_action


class ParseError(Exception):
    def __init__(self, message, line=None):
        self.line = line
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


def _one_hash(parts, n, what):
    if len(parts) != 1:
        raise ParseError(f"{what}: expected one hash", n)
    return parts[0]


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


def _cones(lines, keyword, nrays, ordered=False):
    """A `keyword N` line and N lines of distinct ray ids below nrays each.

    With `ordered`, each line's ids and the lines themselves must ascend,
    as `write_certificate` writes them, so one complex has one text;
    otherwise (an input fan) each line is taken in any order."""
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
        cone = tuple(sorted(idxs))
        if ordered and list(cone) != idxs:
            raise ParseError(f"{keyword} ray ids must ascend, found {idxs}", n)
        if ordered and cones and cone <= cones[-1]:
            raise ParseError(f"{keyword} lines must ascend: {idxs} follows {list(cones[-1])}", n)
        cones.append(cone)
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
    """A `keyword N` line and N rows (`_row`): the text `_rays`, `_cones`,
    `_ray_values` and the flag and trace readers read."""
    rows = list(rows)
    return [f"{keyword} {len(rows)}", *map(_row, rows)]


def write_fan(fan: FanFile) -> str:
    out = [f"rank {fan.ambient_rank}"]
    out += _section("rays", fan.rays)
    out += _section("cones", sorted(tuple(sorted(c)) for c in fan.cones))
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
        rays = self.ray_lines
        text = "\n".join([f"rank {self.rank}", f"rays {len(rays)}", *rays, f"cones {len(cones)}", *cones])
        return hashlib.sha256((text + "\n").encode()).hexdigest()


# ---------------------------------------------------------------------------
# certificate files

CERT_MAGIC = "equifan-certificate 1"


def write_certificate(cert, input_fan: FanFile) -> str:
    from .resolve import FLAG_NAMES

    out = [CERT_MAGIC]
    out.append(f"input-sha256 {fan_hash(input_fan)}")
    out.append(f"mode {cert.mode}")
    out.append(f"group-order {len(cert.group)}")
    out.append(f"rank {cert.input_complex.ambient_rank}")
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
class BatchStep:
    """One simultaneous centered subdivision with its order-function data."""

    centers: tuple  # ((vector, host cone ray ids), ...) in application order
    scale: int
    dip: int
    multiplier: int  # composition multiplier folding this step into the stage (set by `Replay.stage`)


@dataclass(frozen=True)
class StageRecord:
    kind: str  # "barycentric" | "barycentric-direct" | "centered"
    steps: tuple
    multiplier: int  # composition multiplier folding this stage into the total
    values: tuple[int, ...]  # stage order-function values on subdivision rays
    new_rays: tuple  # ((ray id, generator), ...)
    input_hash: str
    output_hash: str


@dataclass
class CertificateData:
    input_sha256: str
    mode: str
    group_order: int
    rank: int
    flags: dict
    trace: tuple
    stages: tuple
    final_rays: tuple
    final_cones: tuple
    composite: tuple


def _ray_values(lines, keyword, what):
    """A `keyword N` line and N lines 'ray_id value', with the ray ids
    0..N-1 in order, as `_section` writes them: one text per value table."""
    n, parts = lines.expect_keyword(keyword)
    count = _count(parts, n, f"{keyword} count")
    if count > len(lines.items) - lines.pos:
        raise ParseError(f"{keyword} count {count} exceeds the lines left", n)
    values = []
    for rid in range(count):
        n, line = lines.next(what)
        pair = _ints(line.split(), n, what)
        if len(pair) != 2:
            raise ParseError(f"{keyword} line must be 'ray_id value'", n)
        if pair[0] != rid:
            raise ParseError(f"{keyword} line for ray {rid} expected, found ray id {pair[0]}", n)
        values.append(pair[1])
    return tuple(values)


def parse_certificate(text: str) -> CertificateData:
    lines = _Lines(text)
    n, first = lines.next("certificate header")
    if first != CERT_MAGIC:
        raise ParseError(f"not a certificate file (header {first!r})", n)

    n, parts = lines.expect_keyword("input-sha256")
    if len(parts) != 1 or len(parts[0]) != 64:
        raise ParseError("input-sha256 must be one 64-character hex digest", n)
    input_sha = parts[0]

    n, parts = lines.expect_keyword("mode")
    if parts != ["canonical"] and parts != ["plain"]:
        raise ParseError(f"unknown mode {parts!r}", n)
    mode = parts[0]

    n, parts = lines.expect_keyword("group-order")
    group_order = _one_int(parts, n, "group-order")

    n, parts = lines.expect_keyword("rank")
    rank = _one_int(parts, n, "rank")

    n, parts = lines.expect_keyword("flags")
    nflags = _count(parts, n, "flag count")
    flags = {}
    for _ in range(nflags):
        n, line = lines.next("flag line")
        name, _, val = line.partition(" ")
        if val not in ("true", "false"):
            raise ParseError(f"flag value must be true/false, found {val!r}", n)
        if name in flags:
            raise ParseError(f"repeated flag {name!r}", n)
        flags[name] = val == "true"

    n, parts = lines.expect_keyword("trace")
    nrows = _count(parts, n, "trace count")
    trace = []
    for _ in range(nrows):
        n, line = lines.next("trace row")
        parts = line.split()
        if len(parts) != 3:
            raise ParseError("trace row must be: label max total", n)
        label = parts[0]
        mx = None if parts[1] == "na" else _one_int([parts[1]], n, "trace max")
        tot = None if parts[2] == "na" else _one_int([parts[2]], n, "trace total")
        trace.append((label, mx, tot))

    n, parts = lines.expect_keyword("stages")
    nstages = _count(parts, n, "stage count")
    stages = []
    for k in range(1, nstages + 1):
        n, parts = lines.expect_keyword("stage")
        if len(parts) != 2 or parts[0] != str(k):
            raise ParseError(f"expected stage {k}", n)
        kind = parts[1]
        if kind not in ("barycentric", "barycentric-direct", "centered"):
            raise ParseError(f"unknown stage kind {kind!r}", n)
        n, parts = lines.expect_keyword("input-hash")
        ih = _one_hash(parts, n, "input-hash")
        n, parts = lines.expect_keyword("output-hash")
        oh = _one_hash(parts, n, "output-hash")
        n, parts = lines.expect_keyword("steps")
        nsteps = _count(parts, n, "step count")
        steps = []
        for _ in range(nsteps):
            n, parts = lines.expect_keyword("step")
            if len(parts) != 8 or parts[::2] != ["centers", "scale", "dip", "mult"]:
                raise ParseError("step line must be: step centers N scale S dip D mult M", n)
            ncenters = _count(parts[1:2], n, "step center count")
            scale, dip, mult = _ints(parts[3::2], n, "step")
            centers = []
            for _ in range(ncenters):
                n, line = lines.next("center line")
                if not line.startswith("center "):
                    raise ParseError("expected a center line", n)
                body = line[len("center "):]
                cpart, sep, hpart = body.partition(" host ")
                if not sep:
                    raise ParseError("center line must contain ' host '", n)
                center = tuple(_ints(cpart.split(), n, "center"))
                host = tuple(_ints(hpart.split(), n, "host"))
                if len(center) != rank:
                    raise ParseError(f"center has {len(center)} entries, expected {rank}", n)
                centers.append((center, host))
            steps.append(BatchStep(tuple(centers), scale, dip, mult))
        n, parts = lines.expect_keyword("new-rays")
        nnew = _count(parts, n, "new ray count")
        new_rays = []
        for _ in range(nnew):
            n, line = lines.next("new ray line")
            idpart, sep, genpart = line.partition(" : ")
            if not sep:
                raise ParseError("new ray line must be 'id : coords'", n)
            rid = _one_int([idpart], n, "ray id")
            gen = tuple(_ints(genpart.split(), n, "ray"))
            if len(gen) != rank:
                raise ParseError(f"ray has {len(gen)} entries, expected {rank}", n)
            new_rays.append((rid, gen))
        n, parts = lines.expect_keyword("multiplier")
        mult = _one_int(parts, n, "multiplier")
        values = _ray_values(lines, "values", "ray value")
        stages.append(StageRecord(kind, tuple(steps), mult, values, tuple(new_rays), ih, oh))

    final_rays = _rays(lines, "final-rays", rank)
    final_cones = _cones(lines, "final-cones", len(final_rays), ordered=True)
    composite = _ray_values(lines, "composite", "composite value")
    n, parts = lines.expect_keyword("end")
    if parts:
        raise ParseError(f"unexpected content after 'end': {' '.join(parts)!r}", n)
    if not lines.done():
        n, line = lines.next()
        raise ParseError(f"unexpected trailing content {line!r}", n)
    return CertificateData(
        input_sha256=input_sha,
        mode=mode,
        group_order=group_order,
        rank=rank,
        flags=flags,
        trace=tuple(trace),
        stages=tuple(stages),
        final_rays=final_rays,
        final_cones=final_cones,
        composite=composite,
    )


# ---------------------------------------------------------------------------
# replay verification


def _record_mismatch(record: StageRecord, stage: StageRecord):
    """The first field in which a derived stage record differs from the
    recorded one: input hash, kind, steps (each one's centers, scale/dip,
    multiplier), multiplier, output hash, new rays, values; None when they
    agree."""
    if record.input_hash != stage.input_hash:
        return "input hash mismatch"
    fields = [("kind", stage.kind, record.kind), ("step count", len(stage.steps), len(record.steps))]
    for j, (want, got) in enumerate(zip(stage.steps, record.steps), start=1):
        fields += [
            (f"step {j} centers", want.centers, got.centers),
            (f"step {j} scale/dip", (want.scale, want.dip), (got.scale, got.dip)),
            (f"step {j} multiplier", want.multiplier, got.multiplier),
        ]
    fields.append(("multiplier", stage.multiplier, record.multiplier))
    for name, want, got in fields:
        if want != got:
            return f"{name} mismatch (recorded {want}, derived {got})"
    named = (("output_hash", "output hash"), ("new_rays", "new ray table"), ("values", "order function values"))
    for field, name in named:
        if getattr(record, field) != getattr(stage, field):
            return f"{name} mismatch"
    return None


def verify_certificate(cert: CertificateData, fan: FanFile, group_cap: int | None = None) -> list[str]:
    """Build every stage as resolve does and re-derive every field.

    The stages come from resolve's own generator (`Replay.resolution`),
    which selects each round's centers, solves it and chooses its
    multipliers; a stage's error is the violation `stage k: ...`, and a
    file with more or fewer stages than the resolution is a stage count
    mismatch.  Returns the list of named violations (empty means the
    certificate is sound for this input); an invalid input is one.
    """
    # resolve imports this module, so its names are imported at the call
    from .resolve import FLAG_NAMES, Replay, certificate_flags

    violations: list[str] = []
    if fan_hash(fan) != cert.input_sha256:
        return ["certificate/input mismatch: input hash differs"]
    if fan.ambient_rank != cert.rank:
        return ["certificate/input mismatch: rank differs"]
    try:
        cx0 = require_valid(fan.to_complex())
    except ValueError as e:
        return [str(e)]
    try:
        cap = group_cap if group_cap is not None else GROUP_CAP_DEFAULT
        elements = generate_group(fan.group_generators, cap=cap, rank=fan.ambient_rank)
    except ValueError as e:
        return [f"group generation failed: {e}"]
    # the order checked and the group checked come from the fan's
    # generators; every group question is asked of them
    generators = fan.group_generators or trivial_group(fan.ambient_rank)
    if len(elements) != cert.group_order:
        violations.append(
            f"group order mismatch: file gives {len(elements)}, certificate says {cert.group_order}"
        )
    if not verify_action(cx0, generators).ok:
        violations.append("group does not act on the input complex")
    if violations:
        return violations

    if cert.mode == "plain" and cert.group_order != 1:
        return ["mode mismatch: plain certificate requires the trivial group"]

    replay = Replay(cx0, generators)
    k = 0  # the stages derived so far
    try:
        for k, record in enumerate(replay.resolution(cert.mode), start=1):
            mismatch = k <= len(cert.stages) and _record_mismatch(record, cert.stages[k - 1])
            if mismatch:
                return [f"stage {k}: {mismatch}"]
    except (ValueError, RuntimeError) as e:
        return [f"stage {k + 1}: {e}"]
    if k != len(cert.stages):
        return [f"stage count mismatch (recorded {len(cert.stages)}, derived {k})"]

    # final complex must match the replayed one exactly
    cur, composite_ord = replay.cur, replay.final_composite()
    final_cones = tuple(sorted(fan_from_complex(cur).cones))
    if tuple(cur.rays) != cert.final_rays or final_cones != cert.final_cones:
        return ["final complex mismatch"]
    if composite_ord.ray_values != cert.composite:
        return ["composite order function mismatch"]

    # re-derive the flags; the measure trace came with the replay
    flags = certificate_flags(cx0, generators, cur, composite_ord)
    for name in FLAG_NAMES:
        if name not in cert.flags:
            violations.append(f"flag missing: {name}")
        elif cert.flags[name] != flags[name]:
            violations.append(f"flag mismatch: {name}")
    for name in cert.flags:
        if name not in FLAG_NAMES:
            violations.append(f"unknown flag: {name}")
    # resolve writes the flags in FLAG_NAMES order, the one text of them
    listed = [name for name in cert.flags if name in FLAG_NAMES]
    expected = [name for name in FLAG_NAMES if name in cert.flags]
    misplaced = next(((a, b) for a, b in zip(listed, expected) if a != b), None)
    if misplaced:
        violations.append(f"flag out of order: {misplaced[0]} is listed where {misplaced[1]} belongs")
    for name, value in flags.items():
        if not value:
            violations.append(f"final verification failed: {name}")
    if tuple(replay.trace) != cert.trace:
        violations.append("measure trace mismatch")
    return violations
