"""Per-layer metrics from one traced pass, and the end-to-end metric each should move.

A layer is an equifan module.  Each entry of LAYERS names the metrics of
one part of a layer and predicts which end-to-end metric a change there
moves, on which workload, and on which workload the prediction is no
change.  Counts and times sum the traced resolve and verify processes of
one pass; ratios give their base in the printed summary.
"""

from __future__ import annotations

LAYERS = [
    ("lattice", [
        "lattice.smith_normal_form.calls", "lattice.smith_normal_form.self_s",
        "lattice.smith_normal_form.repeat_ratio", "lattice.parallelepiped_points.calls",
        "lattice.parallelepiped_points.self_s", "lattice.parallelepiped_points.points",
    ], "resolve_ref on plain-ladder (light on symmetric)"),
    ("lattice", [
        "lattice.rational_nullspace.calls", "lattice.rational_nullspace.self_s",
        "lattice.solve_in_basis.calls", "lattice.solve_in_basis.self_s",
        "lattice.rank.calls", "lattice.rank.self_s", "lattice.self_s",
    ], "resolve_ref, verify_ref on canonical-nd (light on plain-ladder)"),
    ("complexes", [
        "complexes.cone_dual.calls", "complexes.cone_dual.incl_s",
        "complexes.cone_dual.repeat_ratio", "complexes.Complex.faces.calls",
        "complexes.Complex.faces.incl_s", "complexes.is_subdivision.calls",
        "complexes.is_subdivision.incl_s", "complexes.Complex.constructed", "complexes.self_s",
    ], "resolve_ref, verify_ref, peak_rss_mib on canonical-nd (light on plain-ladder)"),
    ("subdivide", [
        "subdivide.star_subdivide.calls", "subdivide.star_subdivide.incl_s",
        "subdivide.star_subdivide.repeat_ratio", "subdivide.barycentric_subdivision.calls",
        "subdivide.barycentric_subdivision.incl_s", "subdivide.self_s",
    ], "resolve_ref on canonical-nd; barycentric on symmetric (light on plain-ladder)"),
    ("orderfun", [
        "orderfun.search_centered_order_function.calls",
        "orderfun.search_centered_order_function.incl_s", "orderfun.search.candidates",
        "orderfun.search.accept_ratio", "orderfun.verify_order_axioms.calls",
        "orderfun.verify_order_axioms.self_s", "orderfun.verify_order_axioms.incl_s",
    ], "resolve_ref on plain-ladder; verify_ref should not move on any workload"),
    ("orderfun", [
        "orderfun.compose_with_multiplier.calls", "orderfun.compose_with_multiplier.incl_s",
        "orderfun.compose.attempts", "orderfun.evaluate.calls", "orderfun.evaluate.self_s",
        "orderfun.linearity_domains.incl_s", "orderfun.composite_bits", "orderfun.self_s",
    ], "resolve_ref, verify_ref on canonical-nd (light on symmetric)"),
    ("groups", [
        "groups.verify_action.calls", "groups.verify_action.self_s", "groups.group_action.calls",
        "groups.check_G_strict.calls", "groups.action_checks_per_stage", "groups.self_s",
    ], "resolve_ref on symmetric (plain-ladder has only the trivial group); "
       "a dedup here shows in the counts before it shows end to end"),
    ("resolve", [
        "resolve.rounds", "resolve.final_cones", "resolve.select_centers.calls",
        "resolve.select_centers.incl_s", "resolve.certificate_flags.calls",
        "resolve.certificate_flags.incl_s", "resolve.direct_barycentric_order_function.calls",
        "resolve.direct_barycentric_order_function.incl_s", "resolve.star_factor",
        "resolve.resolve_equivariant.self_s",
    ], "resolve_ref on canonical-nd; direct barycentric on symmetric"),
    ("fanio", [
        "fanio.verify_certificate.incl_s", "fanio.verify_certificate.self_s",
        "fanio.replay_factor", "fanio.write_certificate.incl_s",
        "fanio.parse_certificate.incl_s", "fanio.complex_hash.calls",
        "fanio.complex_hash.self_s", "fanio.cert_bytes",
    ], "verify_ref on canonical-nd (light on plain-ladder)"),
    ("cli", [
        "cli.main.calls", "cli.main.self_s", "cli.exit_nonzero",
    ], "resolve_ref, verify_ref and failed ops on symmetric only"),
    ("trace", [
        "trace.resolve_overhead", "trace.verify_overhead",
    ], "traced over untraced work of the same pass in ref units, minus 1; no end-to-end effect"),
    ("wall", [
        "wall.resolve_s", "wall.verify_s",
    ], "raw wall time of the untraced pass, not gated; resolve_ref and verify_ref "
       "measure the same work in reference-loop units"),
]

HIGHER_IS_BETTER = {"orderfun.search.accept_ratio"}


def unit_of(name: str) -> str:
    last = name.rsplit(".", 1)[1]
    if last.endswith("_s"):
        return "s"
    if last.endswith(("ratio", "factor", "overhead", "per_stage")):
        return "ratio"
    return {"composite_bits": "bits", "cert_bytes": "bytes"}.get(last, "count")


def per_layer_spec() -> list[dict]:
    """The per_layer entries of BENCHMARK.json."""
    return [
        {"name": n, "unit": unit_of(n), "better": "higher" if n in HIGHER_IS_BETTER else "lower"}
        for _, names, _ in LAYERS
        for n in names
    ]


def _certificate_counts(texts) -> dict:
    rounds = centers = stages = final_cones = bits = size = 0
    for text in texts:
        size += len(text.encode())
        lines = text.splitlines()
        for i, line in enumerate(lines):
            if line.startswith("stage ") and line.endswith(" centered"):
                rounds += 1
            if line.startswith("stage "):
                stages += 1
            elif line.startswith("center "):
                centers += 1
            elif line.startswith("final-cones "):
                final_cones += int(line.split()[1])
            elif line.startswith("composite "):
                count = int(line.split()[1])
                for row in lines[i + 1:i + 1 + count]:
                    bits = max(bits, abs(int(row.split()[1])).bit_length())
    return {"rounds": rounds, "centers": centers, "stages": stages,
            "final_cones": final_cones, "composite_bits": bits, "cert_bytes": size}


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(resolve_trace: dict, verify_trace: dict, cert_texts, overhead: dict,
                  wall: dict) -> dict:
    """Every per-layer metric of one traced pass, by name."""
    stats: dict[str, dict] = {}
    for tr in (resolve_trace, verify_trace):
        for name, s in tr["stats"].items():
            acc = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
            for k in acc:
                acc[k] += s[k]
    counts: dict[str, int] = {}
    for tr in (resolve_trace, verify_trace):
        for k, v in tr["counts"].items():
            counts[k] = counts.get(k, 0) + v
    cert = _certificate_counts(cert_texts)

    def stat(name, field):
        return stats.get(name, {}).get(field, 0)

    def layer_self(prefix):
        return sum(s["self_s"] for n, s in stats.items() if n.startswith(prefix + "."))

    def resolve_calls(name):
        return resolve_trace["stats"].get(name, {}).get("calls", 0)

    def verify_calls(name):
        return verify_trace["stats"].get(name, {}).get("calls", 0)

    star = "subdivide.star_subdivide"
    derived = {
        "lattice.smith_normal_form.repeat_ratio": _ratio(
            counts.get("lattice.smith_normal_form.repeats", 0),
            stat("lattice.smith_normal_form", "calls")),
        "lattice.parallelepiped_points.points": counts.get("lattice.parallelepiped_points.points", 0),
        "lattice.self_s": layer_self("lattice"),
        "complexes.cone_dual.repeat_ratio": _ratio(
            counts.get("complexes.cone_dual.repeats", 0), stat("complexes.cone_dual", "calls")),
        "complexes.Complex.constructed": counts.get("complexes.Complex.constructed", 0),
        "complexes.self_s": layer_self("complexes"),
        "subdivide.star_subdivide.repeat_ratio": _ratio(
            counts.get(star + ".repeats", 0), stat(star, "calls")),
        "subdivide.self_s": layer_self("subdivide"),
        "orderfun.search.candidates": counts.get("orderfun.search.candidates", 0),
        "orderfun.search.accept_ratio": _ratio(
            stat("orderfun.search_centered_order_function", "calls"),
            counts.get("orderfun.search.candidates", 0)),
        "orderfun.compose.attempts": counts.get("orderfun.compose.attempts", 0),
        "orderfun.composite_bits": cert["composite_bits"],
        "orderfun.self_s": layer_self("orderfun"),
        "groups.action_checks_per_stage": _ratio(
            resolve_calls("groups.verify_action"), cert["stages"]),
        "groups.self_s": layer_self("groups"),
        "resolve.rounds": cert["rounds"],
        "resolve.final_cones": cert["final_cones"],
        "resolve.star_factor": _ratio(resolve_calls(star), cert["centers"]),
        "fanio.replay_factor": _ratio(verify_calls(star), cert["centers"]),
        "fanio.cert_bytes": cert["cert_bytes"],
        "cli.exit_nonzero": counts.get("cli.exit_nonzero", 0),
        "trace.resolve_overhead": overhead["resolve"],
        "trace.verify_overhead": overhead["verify"],
        "wall.resolve_s": wall["resolve"],
        "wall.verify_s": wall["verify"],
    }
    out = {}
    for spec in per_layer_spec():
        name = spec["name"]
        if name in derived:
            out[name] = derived[name]
        else:
            func, field = name.rsplit(".", 1)
            out[name] = stat(func, field)
    return out


# the numerator and denominator behind each ratio, for the printed summary
RATIO_BASES = {
    "orderfun.search.accept_ratio": "searches / orderfun.search.candidates",
    "groups.action_checks_per_stage": "verify_action calls in resolve / certificate stages",
    "resolve.star_factor": "star_subdivide calls in resolve / certificate centers",
    "fanio.replay_factor": "star_subdivide calls in verify / certificate centers",
    "lattice.smith_normal_form.repeat_ratio": "repeated-argument calls / calls, per op",
    "complexes.cone_dual.repeat_ratio": "repeated-argument calls / calls, per op",
    "subdivide.star_subdivide.repeat_ratio": "repeated (complex, center) calls / calls, per op",
}
