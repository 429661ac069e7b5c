"""Text file formats: fan files and resolution certificates.

Both formats are line-based, integer-exact and deterministic: writing
the same object twice produces byte-identical text, and every complex
is hashed through its canonical serialization.  Certificates embed
enough redundancy (centers, hosts, scales, per-stage values, hashes,
flags, measure trace) that replay verification re-derives everything
and any single-field tampering is caught with a named violation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .complexes import Complex


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

    def peek(self):
        return self.items[self.pos] if self.pos < len(self.items) else (None, None)

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


def _one_hash(parts, n, what):
    if len(parts) != 1:
        raise ParseError(f"{what}: expected one hash", n)
    return parts[0]


# ---------------------------------------------------------------------------
# fan files


def parse_fan(text: str) -> FanFile:
    lines = _Lines(text)
    n, parts = lines.expect_keyword("rank")
    rank = _one_int(parts, n, "rank")
    if rank < 1:
        raise ParseError("rank must be positive", n)

    n, parts = lines.expect_keyword("rays")
    nrays = _one_int(parts, n, "ray count")
    rays = []
    for _ in range(nrays):
        n, line = lines.next("ray line")
        row = _ints(line.split(), n, "ray")
        if len(row) != rank:
            raise ParseError(f"ray has {len(row)} entries, expected {rank}", n)
        rays.append(tuple(row))

    n, parts = lines.expect_keyword("cones")
    ncones = _one_int(parts, n, "cone count")
    cones = []
    for _ in range(ncones):
        n, line = lines.next("cone line")
        idxs = _ints(line.split(), n, "cone")
        for i in idxs:
            if not (0 <= i < nrays):
                raise ParseError(f"ray index {i} out of range", n)
        if len(set(idxs)) != len(idxs):
            raise ParseError("repeated ray index in cone", n)
        cones.append(tuple(sorted(idxs)))

    generators = []
    if not lines.done():
        n, parts = lines.expect_keyword("generators")
        ngen = _one_int(parts, n, "generator count")
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
    return FanFile(rank, tuple(rays), tuple(cones), tuple(generators))


def write_fan(fan: FanFile) -> str:
    out = [f"rank {fan.ambient_rank}"]
    out.append(f"rays {len(fan.rays)}")
    for r in fan.rays:
        out.append(" ".join(str(c) for c in r))
    cones = sorted(tuple(sorted(c)) for c in fan.cones)
    out.append(f"cones {len(cones)}")
    for c in cones:
        out.append(" ".join(str(i) for i in c))
    if fan.group_generators:
        out.append(f"generators {len(fan.group_generators)}")
        for m in fan.group_generators:
            for row in m:
                out.append(" ".join(str(c) for c in row))
    return "\n".join(out) + "\n"


def fan_from_complex(cx: Complex, group_generators=()) -> FanFile:
    maximal = tuple(tuple(sorted(c)) for c in cx.maximal_cones)
    return FanFile(cx.ambient_rank, cx.rays, maximal, tuple(group_generators))


def fan_hash(fan: FanFile) -> str:
    return hashlib.sha256(write_fan(fan).encode()).hexdigest()


def complex_hash(cx: Complex) -> str:
    return hashlib.sha256(write_fan(fan_from_complex(cx)).encode()).hexdigest()


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
    out.append(f"flags {len(FLAG_NAMES)}")
    for name in FLAG_NAMES:
        out.append(f"{name} {'true' if cert.flags[name] else 'false'}")
    out.append(f"trace {len(cert.trace)}")
    for label, mx, tot in cert.trace:
        mx_s = "na" if mx is None else str(mx)
        tot_s = "na" if tot is None else str(tot)
        out.append(f"{label} {mx_s} {tot_s}")
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
        out.append(f"values {len(stage.values)}")
        for i, v in enumerate(stage.values):
            out.append(f"{i} {v}")
    out.append(f"final-rays {len(cert.final.rays)}")
    for r in cert.final.rays:
        out.append(" ".join(str(c) for c in r))
    final_cones = sorted(tuple(sorted(c)) for c in cert.final.maximal_cones)
    out.append(f"final-cones {len(final_cones)}")
    for c in final_cones:
        out.append(" ".join(str(i) for i in c))
    out.append(f"composite {len(cert.composite.ray_values)}")
    for i, v in enumerate(cert.composite.ray_values):
        out.append(f"{i} {v}")
    out.append("end")
    return "\n".join(out) + "\n"


@dataclass
class CertStep:
    centers: tuple
    scale: int
    dip: int
    multiplier: int


@dataclass
class CertStage:
    kind: str
    input_hash: str
    output_hash: str
    steps: tuple
    new_rays: tuple
    multiplier: int
    values: tuple


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
    nflags = _one_int(parts, n, "flag count")
    flags = {}
    for _ in range(nflags):
        n, line = lines.next("flag line")
        name, _, val = line.partition(" ")
        if val not in ("true", "false"):
            raise ParseError(f"flag value must be true/false, found {val!r}", n)
        flags[name] = val == "true"

    n, parts = lines.expect_keyword("trace")
    nrows = _one_int(parts, n, "trace count")
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
    nstages = _one_int(parts, n, "stage count")
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
        nsteps = _one_int(parts, n, "step count")
        steps = []
        for _ in range(nsteps):
            n, parts = lines.expect_keyword("step")
            if (
                len(parts) != 8
                or parts[0] != "centers"
                or parts[2] != "scale"
                or parts[4] != "dip"
                or parts[6] != "mult"
            ):
                raise ParseError("step line must be: step centers N scale S dip D mult M", n)
            ncenters = _one_int([parts[1]], n, "center count")
            scale = _one_int([parts[3]], n, "scale")
            dip = _one_int([parts[5]], n, "dip")
            mult = _one_int([parts[7]], n, "mult")
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
            steps.append(CertStep(tuple(centers), scale, dip, mult))
        n, parts = lines.expect_keyword("new-rays")
        nnew = _one_int(parts, n, "new ray count")
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
        n, parts = lines.expect_keyword("values")
        nvals = _one_int(parts, n, "value count")
        values = [None] * nvals
        for _ in range(nvals):
            n, line = lines.next("value line")
            pair = _ints(line.split(), n, "value")
            if len(pair) != 2 or not (0 <= pair[0] < nvals):
                raise ParseError("value line must be 'ray_id value'", n)
            values[pair[0]] = pair[1]
        if any(v is None for v in values):
            raise ParseError("missing ray value", n)
        stages.append(CertStage(kind, ih, oh, tuple(steps), tuple(new_rays), mult, tuple(values)))

    n, parts = lines.expect_keyword("final-rays")
    nrays = _one_int(parts, n, "final ray count")
    final_rays = []
    for _ in range(nrays):
        n, line = lines.next("final ray")
        row = _ints(line.split(), n, "final ray")
        if len(row) != rank:
            raise ParseError(f"ray has {len(row)} entries, expected {rank}", n)
        final_rays.append(tuple(row))
    n, parts = lines.expect_keyword("final-cones")
    ncones = _one_int(parts, n, "final cone count")
    final_cones = []
    for _ in range(ncones):
        n, line = lines.next("final cone")
        idxs = _ints(line.split(), n, "final cone")
        for i in idxs:
            if not (0 <= i < nrays):
                raise ParseError(f"ray index {i} out of range", n)
        final_cones.append(tuple(sorted(idxs)))
    n, parts = lines.expect_keyword("composite")
    nvals = _one_int(parts, n, "composite count")
    composite = [None] * nvals
    for _ in range(nvals):
        n, line = lines.next("composite value")
        pair = _ints(line.split(), n, "composite value")
        if len(pair) != 2 or not (0 <= pair[0] < nvals):
            raise ParseError("composite line must be 'ray_id value'", n)
        composite[pair[0]] = pair[1]
    if any(v is None for v in composite):
        raise ParseError("missing composite value", n)
    n, _ = lines.expect_keyword("end")
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
        final_rays=tuple(final_rays),
        final_cones=tuple(final_cones),
        composite=tuple(composite),
    )


# ---------------------------------------------------------------------------
# replay verification


def verify_certificate(cert: CertificateData, fan: FanFile, group_cap: int | None = None) -> list[str]:
    """Replay every recorded step and re-derive every field; trust nothing.

    Returns the list of named violations (empty means the certificate is
    sound for this input).
    """
    from fractions import Fraction

    from .groups import GROUP_CAP_DEFAULT, generate_group, trivial_group, verify_action
    from .lattice import primitive
    from .orderfun import (
        OrderFunction,
        centered_order_function,
        evaluate,
        verify_order_axioms,
    )
    from .resolve import FLAG_NAMES, certificate_flags
    from .subdivide import barycentric_subdivision, star_subdivide

    violations: list[str] = []
    if fan_hash(fan) != cert.input_sha256:
        return ["certificate/input mismatch: input hash differs"]
    if fan.ambient_rank != cert.rank:
        return ["certificate/input mismatch: rank differs"]
    cx0 = fan.to_complex()
    try:
        cap = group_cap if group_cap is not None else GROUP_CAP_DEFAULT
        if fan.group_generators:
            elements = generate_group(fan.group_generators, cap=cap)
        else:
            elements = trivial_group(fan.ambient_rank)
    except ValueError as e:
        return [f"group generation failed: {e}"]
    if len(elements) != cert.group_order:
        violations.append(
            f"group order mismatch: file gives {len(elements)}, certificate says {cert.group_order}"
        )
    if not verify_action(cx0, elements).ok:
        violations.append("group does not act on the input complex")
    if violations:
        return violations

    if cert.mode == "canonical":
        if not cert.stages or not cert.stages[0].kind.startswith("barycentric"):
            violations.append("mode mismatch: canonical certificate must start with a barycentric stage")
    else:
        if any(s.kind != "centered" for s in cert.stages):
            violations.append("mode mismatch: plain certificate must contain only centered stages")
        if cert.group_order != 1:
            violations.append("mode mismatch: plain certificate requires the trivial group")
    if violations:
        return violations

    cur = cx0
    composite_ord = None
    for k, stage in enumerate(cert.stages, start=1):
        if complex_hash(cur) != stage.input_hash:
            violations.append(f"stage {k}: input hash mismatch")
            return violations
        # leading multipliers are unused in the folds and fixed at 1
        if k == 1 and stage.multiplier != 1:
            violations.append("stage 1: leading stage multiplier must be 1")
            return violations
        if stage.steps and stage.steps[0].multiplier != 1:
            violations.append(f"stage {k}: leading step multiplier must be 1")
            return violations
        stage_base = cur
        # replay the subdivision steps
        step_ords = []
        for step in stage.steps:
            batch_base = cur
            for center, host in step.centers:
                try:
                    if primitive(center) != tuple(center):
                        violations.append(f"stage {k}: center {center} is not primitive")
                        return violations
                    actual_host = tuple(sorted(batch_base.minimal_cone_containing(center)))
                except ValueError as e:
                    violations.append(f"stage {k}: center {center} invalid: {e}")
                    return violations
                if actual_host != tuple(host):
                    violations.append(
                        f"stage {k}: center {center} host mismatch "
                        f"(recorded {list(host)}, actual {list(actual_host)})"
                    )
                    return violations
                cur = star_subdivide(cur, center)
            if stage.kind != "barycentric-direct":
                try:
                    ord_step = centered_order_function(
                        batch_base,
                        [(c, frozenset(h)) for c, h in step.centers],
                        step.scale,
                        step.dip,
                    )
                except ValueError as e:
                    violations.append(f"stage {k}: step replay failed: {e}")
                    return violations
                if ord_step is None:
                    violations.append(f"stage {k}: recorded scale/dip give no valid order function")
                    return violations
                step_ords.append((ord_step, step.multiplier))
        if stage.kind == "barycentric-direct":
            from .resolve import direct_barycentric_order_function

            cur = barycentric_subdivision(stage_base)
            ord_stage, scale, dip = direct_barycentric_order_function(stage_base, cur)
            st = stage.steps[0]
            if (scale, dip) != (st.scale, st.dip):
                violations.append(f"stage {k}: direct construction scale/dip mismatch")
        else:
            ord_stage = None
            for ord_step, mult in step_ords:
                if ord_stage is None:
                    ord_stage = ord_step
                else:
                    evals = [
                        evaluate(ord_stage, g) for g in ord_step.subdivision.rays
                    ]
                    vals = {}
                    for i, e in enumerate(evals):
                        total = mult * e + ord_step.ray_values[i]
                        if Fraction(total).denominator != 1:
                            violations.append(
                                f"stage {k}: step composition is not integral"
                            )
                            return violations
                        vals[i] = int(total)
                    ord_stage = OrderFunction(ord_stage.base, ord_step.subdivision, vals)
            if ord_stage is None:
                ord_stage = OrderFunction(
                    stage_base, stage_base, {i: 1 for i in range(len(stage_base.rays))}
                )
        if complex_hash(cur) != stage.output_hash:
            violations.append(f"stage {k}: output hash mismatch")
            return violations
        actual_new = tuple(
            (i, cur.rays[i]) for i in range(len(stage_base.rays), len(cur.rays))
        )
        if actual_new != stage.new_rays:
            violations.append(f"stage {k}: new ray table mismatch")
            return violations
        if ord_stage.ray_values != stage.values:
            violations.append(f"stage {k}: order function values mismatch")
            return violations
        rep = verify_order_axioms(ord_stage, check_subdivision=True)
        if not rep.integral:
            violations.append(f"stage {k}: order function violates integrality")
        if not rep.convex:
            violations.append(f"stage {k}: order function violates convexity")
        elif not rep.strict:
            violations.append(f"stage {k}: order function has a flat bend")
        if not rep.positive:
            violations.append(f"stage {k}: order function violates positivity")
        if violations:
            return violations
        # fold into the running composite
        if composite_ord is None:
            composite_ord = ord_stage
        else:
            evals = [evaluate(composite_ord, g) for g in cur.rays]
            vals = {}
            for i, e in enumerate(evals):
                total = stage.multiplier * e + ord_stage.ray_values[i]
                if Fraction(total).denominator != 1:
                    violations.append(f"stage {k}: composite re-derivation is not integral")
                    return violations
                vals[i] = int(total)
            composite_ord = OrderFunction(cx0, cur, vals)

    if composite_ord is None:
        composite_ord = OrderFunction(cx0, cx0, {i: 1 for i in range(len(cx0.rays))})

    # final complex must match the replayed one exactly
    if tuple(cur.rays) != cert.final_rays or sorted(
        tuple(sorted(c)) for c in cur.maximal_cones
    ) != sorted(cert.final_cones):
        violations.append("final complex mismatch")
        return violations
    if composite_ord.ray_values != cert.composite:
        violations.append("composite order function mismatch")
        return violations

    # re-derive the flags and the measure trace
    flags = certificate_flags(cx0, elements, cur, composite_ord)
    for name in FLAG_NAMES:
        if name not in cert.flags:
            violations.append(f"flag missing: {name}")
        elif cert.flags[name] != flags[name]:
            violations.append(f"flag mismatch: {name}")
    for name, value in flags.items():
        if not value:
            violations.append(f"final verification failed: {name}")

    expected_trace = _replay_trace(cert, cx0)
    if expected_trace != cert.trace:
        violations.append("measure trace mismatch")
    return violations


def _replay_trace(cert: CertificateData, cx0: Complex):
    from .complexes import is_simplicial
    from .resolve import max_index, total_index
    from .subdivide import star_subdivide

    rows = []

    def row(label, c):
        if is_simplicial(c):
            rows.append((label, max_index(c), total_index(c)))
        else:
            rows.append((label, None, None))

    row("input", cx0)
    cur = cx0
    centered_round = 0
    for stage in cert.stages:
        for step in stage.steps:
            for center, _ in step.centers:
                cur = star_subdivide(cur, center)
        if stage.kind == "barycentric-direct":
            from .subdivide import barycentric_subdivision

            cur = barycentric_subdivision(cur)
        if stage.kind.startswith("barycentric"):
            row("stage1", cur)
        else:
            centered_round += 1
            row(f"round{centered_round}", cur)
    return tuple(rows)
