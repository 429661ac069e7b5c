"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Every expected value here is exact; there are no tolerances to tune.
"""

import math
import random
from fractions import Fraction

from equifan.complexes import (
    Complex,
    is_simplicial,
    is_smooth,
    is_subdivision,
    same_complex,
)
from equifan.fanio import (
    fan_from_complex,
    parse_certificate,
    verify_certificate,
    write_certificate,
)
from equifan.groups import (
    check_G_strict,
    check_fixed_cone_identity,
    generate_group,
    group_action,
    verify_action,
)
from equifan.lattice import cone_index, mat_vec, primitive, smith_normal_form
from equifan.orderfun import (
    evaluate,
    linearity_domains,
    verify_order_axioms,
)
from equifan.resolve import resolve_equivariant, total_index
from equifan.subdivide import (
    barycentric_edge_bijection,
    barycentric_subdivision,
    star_subdivide,
)

from conftest import (
    CYC3,
    SWAP2,
    SWAP3_01,
    candidate_actions,
    corpus,
    orthant,
    random_action_pairs,
    reference_barycentric_subdivision,
    singular_cone_2d,
    square_cone,
)


def _report(number, name, ok):
    print(f"[criterion {number}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def snf_index(gens):
    """Index oracle straight from the Smith normal form diagonal."""
    D, _, _ = smith_normal_form(gens)
    prod = 1
    for i in range(min(len(D), len(D[0]))):
        prod *= D[i][i]
    return abs(prod)


def test_criterion_1_barycentric_counts():
    ok = True
    for d in (2, 3, 4):
        b = barycentric_subdivision(orthant(d))
        used = {i for c in b.cones for i in c}
        ok = ok and len(b.maximal_cones) == math.factorial(d)
        ok = ok and len(used) == 2**d - 1
    _report(1, "barycentric counts for the d-orthant", ok)


def test_criterion_2_cross_construction_equality():
    cases = corpus()
    assert len(cases) == 20
    ok = True
    for name, cx in cases:
        cascade = barycentric_subdivision(cx)
        inductive = reference_barycentric_subdivision(cx)
        if not same_complex(cascade, inductive):
            ok = False
            print(f"  cross-construction mismatch on {name}")
    _report(2, "both barycentric constructions agree on the corpus", ok)


def test_criterion_3_barycentric_structure_suite():
    ok = True
    for name, cx in corpus():
        b = barycentric_subdivision(cx)
        bij = barycentric_edge_bijection(cx, b)
        positive = {c for c in cx.cones if cx.dim(c) >= 1}
        if set(map(frozenset, bij.values())) != positive or len(bij) != len(positive):
            ok = False
            print(f"  edge bijection failed on {name}")
        for c in b.maximal_cones:
            dims = [cx.dim(bij[r]) for r in c]
            if len(set(dims)) != len(dims):
                ok = False
                print(f"  repeated source dimension in a cone of B({name})")
        for action_name, elements in candidate_actions(cx):
            if not check_G_strict(b, elements).ok:
                ok = False
                print(f"  strictness failed on B({name}) with {action_name}")
    _report(3, "edge bijection, distinct dimensions, strict barycentric action", ok)


def test_criterion_4_plain_resolution_chain():
    ok = True
    for r in range(2, 8):
        sing = singular_cone_2d(r)
        cert = resolve_equivariant(sing, mode="plain")
        final = cert.final
        for c in final.maximal_cones:
            if snf_index(final.generators(c)) != 1:
                ok = False
                print(f"  r={r}: a final cone is singular by the SNF oracle")
        if not is_subdivision(final, sing):
            ok = False
            print(f"  r={r}: final complex does not subdivide the input")
        for rid in range(len(sing.rays), len(final.rays)):
            if primitive(final.rays[rid]) != final.rays[rid]:
                ok = False
                print(f"  r={r}: non-primitive new ray {final.rays[rid]}")
        if r == 2:
            maximal = {
                frozenset(final.rays[i] for i in c) for c in final.maximal_cones
            }
            expected = {
                frozenset({(1, 0), (1, 1)}),
                frozenset({(1, 1), (1, 2)}),
            }
            if maximal != expected:
                ok = False
                print("  r=2: final complex differs from the classic resolution")
    _report(4, "plain resolution of <(1,0),(1,r)> for r=2..7", ok)


def test_criterion_5_equivariant_resolution():
    rng = random.Random(59)
    ok = True
    cases = [
        ("swap on the 2-orthant", orthant(2), [SWAP2]),
        ("3-cycle on the 3-orthant", orthant(3), [CYC3]),
    ]
    for label, cx, gens in cases:
        elements = generate_group(gens)
        cert = resolve_equivariant(cx, elements, mode="canonical")
        final = cert.final
        checks = {
            "smooth": is_smooth(final),
            "equivariant (cones permuted)": verify_action(final, elements).ok
            and bool(is_subdivision(final, cx)),
            "g-strict": check_G_strict(final, elements).ok,
        }
        rep = verify_order_axioms(cert.composite)
        checks["ord positive"] = rep.positive
        checks["ord integral on parallelepiped points"] = rep.integral
        checks["ord strictly convex per base cone"] = rep.ok and rep.strict
        checks["linearity domains = final"] = same_complex(
            linearity_domains(cert.composite), final
        )
        # invariance of the evaluation at 100 random support points per element
        mcs = sorted(final.maximal_cones, key=sorted)
        invariant = True
        for m in elements:
            count = 0
            while count < 100:
                mc = mcs[rng.randrange(len(mcs))]
                weights = [
                    Fraction(rng.randint(0, 8), rng.randint(1, 4)) for _ in mc
                ]
                if not any(weights):
                    continue
                x = tuple(
                    sum(w * g[j] for w, g in zip(weights, final.generators(mc)))
                    for j in range(final.ambient_rank)
                )
                if evaluate(cert.composite, x) != evaluate(cert.composite, mat_vec(m, x)):
                    invariant = False
                    break
                count += 1
        checks["evaluate(g x) = evaluate(x) on 100 points per g"] = invariant
        for cname, value in checks.items():
            if not value:
                ok = False
                print(f"  {label}: {cname} failed")
    _report(5, "equivariant canonical certificates fully verify", ok)


def _resolution_corpus():
    swap_xy3 = ((0, 1, 0), (1, 0, 0), (0, 0, 1))
    cases = [(singular_cone_2d(r), None, "plain") for r in range(2, 8)]
    cases += [
        (orthant(2), [SWAP2], "canonical"),
        (orthant(3), [CYC3], "canonical"),
        (singular_cone_2d(4), None, "canonical"),
        (
            Complex.from_maximal_cones(
                3,
                [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],
                [[0, 1, 3], [1, 2, 3], [0, 2, 3]],
            ),
            [CYC3],
            "canonical",
        ),
        (square_cone(), [swap_xy3], "canonical"),
    ]
    return cases


def test_criterion_6_termination_measure():
    ok = True
    for cx, gens, mode in _resolution_corpus():
        elements = generate_group(gens) if gens else None
        cert = resolve_equivariant(cx, elements, mode=mode)
        # replay the stages to check the per-round descendant measure
        cur = cx
        rounds = 0
        for stage in cert.stages:
            before = cur
            for step in stage.steps:
                for center, _ in step.centers:
                    cur = star_subdivide(cur, center)
            if stage.kind == "barycentric-direct":
                cur = barycentric_subdivision(before)
            if stage.kind != "centered":
                continue
            rounds += 1
            centers = [c for step in stage.steps for c, _ in step.centers]
            for mc in before.maximal_cones:
                if not any(before.contains_point(mc, c) for c in centers):
                    continue
                host_idx = cone_index(before.generators(mc))
                desc = [
                    d
                    for d in cur.maximal_cones
                    if cur.dim(d) == before.dim(mc)
                    and all(before.contains_point(mc, g) for g in cur.generators(d))
                ]
                if max(cone_index(cur.generators(d)) for d in desc) >= host_idx:
                    ok = False
                    print("  a subdivided cone's descendant index did not decrease")
        if cur != cert.final:
            ok = False
            print("  stage replay does not reproduce the final complex")
        start = cx if is_simplicial(cx) else barycentric_subdivision(cx)
        if rounds > total_index(start):
            ok = False
            print("  round count exceeds the initial total index")
    _report(6, "termination measure decreases and bounds the round count", ok)


def test_criterion_7_strictness_implication():
    rng = random.Random(61)
    pairs = random_action_pairs(rng, 50, require_strict=True)
    ok = len(pairs) == 50
    counterexamples = 0
    for cx, elements in pairs:
        if not check_fixed_cone_identity(cx, elements).ok:
            counterexamples += 1
    if counterexamples:
        ok = False
        print(f"  {counterexamples} counterexample(s) found")
    _report(7, "strict actions satisfy the fixed-cone identity (50 cases)", ok)


def _mutations(text):
    """Deterministic single-field mutations of a certificate text."""
    lines = text.splitlines()
    muts = []

    def patched(i, newline, label):
        out = lines.copy()
        out[i] = newline
        muts.append(("\n".join(out) + "\n", label))

    for i, line in enumerate(lines):
        parts = line.split()
        if not parts:
            continue
        key = parts[0]
        if key in ("input-sha256", "input-hash", "output-hash"):
            h = parts[1]
            ch = "f" if h[5] != "f" else "0"
            patched(i, f"{key} {h[:5]}{ch}{h[6:]}", f"{key} tamper")
        elif line.endswith(" true") or line.endswith(" false"):
            flip = "false" if parts[-1] == "true" else "true"
            patched(i, " ".join(parts[:-1] + [flip]), f"flag {parts[0]} flip")
        elif key == "mode":
            flip = "plain" if parts[1] == "canonical" else "canonical"
            patched(i, f"mode {flip}", "mode flip")
        elif key == "group-order":
            patched(i, f"group-order {int(parts[1]) + 1}", "group order bump")
        elif key == "step":
            for field_idx, field in ((4, "scale"), (6, "dip"), (8, "mult")):
                bumped = parts.copy()
                bumped[field_idx] = str(int(parts[field_idx]) + 1)
                patched(i, " ".join(bumped), f"step {field} bump")
        elif key == "center":
            bumped = parts.copy()
            bumped[1] = str(int(parts[1]) + 1)
            patched(i, " ".join(bumped), "center coordinate bump")
            hpos = parts.index("host")
            bumped = parts.copy()
            bumped[hpos + 1] = str(int(parts[hpos + 1]) + 1)
            patched(i, " ".join(bumped), "center host bump")
        elif key == "multiplier":
            patched(i, f"multiplier {int(parts[1]) + 1}", "stage multiplier bump")
        elif (
            len(parts) == 2
            and parts[0].isdigit()
            and parts[1].lstrip("-").isdigit()
            and ":" not in line
        ):
            patched(i, f"{parts[0]} {int(parts[1]) + 1}", "ray value bump")
        elif " : " in line:
            idpart, _, genpart = line.partition(" : ")
            coords = genpart.split()
            coords[0] = str(int(coords[0]) + 1)
            patched(i, f"{idpart} : {' '.join(coords)}", "new ray bump")
        elif key not in (
            "equifan-certificate",
            "rank",
            "flags",
            "trace",
            "stages",
            "stage",
            "steps",
            "new-rays",
            "values",
            "final-rays",
            "final-cones",
            "composite",
            "end",
        ) and all(p.lstrip("-").isdigit() for p in parts):
            # trace rows, final rays, final cones
            bumped = parts.copy()
            bumped[-1] = str(int(parts[-1]) + 1)
            patched(i, " ".join(bumped), "numeric row bump")
    return muts


def test_criterion_8_certificate_tamper_suite():
    from equifan.fanio import ParseError

    bases = []
    for cx, gens, mode in [
        (singular_cone_2d(3), None, "plain"),
        (orthant(3), [CYC3], "canonical"),
        (orthant(2), [SWAP2], "canonical"),
    ]:
        elements = generate_group(gens) if gens else None
        cert = resolve_equivariant(cx, elements, mode=mode)
        fan = fan_from_complex(cx, gens or ())
        bases.append((write_certificate(cert, fan), fan))

    mutations = []
    for text, fan in bases:
        for mutated, label in _mutations(text):
            mutations.append((mutated, fan, label))
    assert len(mutations) >= 100
    mutations = mutations[:100]

    rejected = 0
    for mutated, fan, label in mutations:
        try:
            data = parse_certificate(mutated)
        except ParseError:
            rejected += 1  # named structural violation
            continue
        violations = verify_certificate(data, fan)
        if violations and all(v.strip() for v in violations):
            rejected += 1
        else:
            print(f"  mutation not rejected: {label}")
    _report(8, "100 single-field certificate mutations all rejected", rejected == 100)
