"""Pinned `verify_certificate` verdicts of every single-field mutation.

Five base certificates and every `_mutations` case of each are checked
against tests/data/tamper_verdicts.json: a refactor of the verifier must
return the same violation list (or the same parse error) on every case.
Whatever the file says, every mutated case must be rejected and every
unmutated one verified.  After a deliberate change of the verdicts,
rewrite the file with

    PYTHONPATH=src python tests/test_tamper_verdicts.py
"""

import json
from pathlib import Path

from equifan.complexes import Complex
from equifan.fanio import (
    ParseError,
    fan_from_complex,
    parse_certificate,
    verify_certificate,
    write_certificate,
)
from equifan.groups import generate_group
from equifan.resolve import resolve_equivariant

from conftest import CYC3, SWAP2, SWAP3_01, orthant, singular_cone_2d, square_cone
from test_acceptance import _mutations

PINNED = Path(__file__).parent / "data" / "tamper_verdicts.json"


def _bases():
    """(input complex, group generators, mode) of the five base certificates:
    the tamper suite's three, the square cone with a swap, and one
    canonical index-3 cone."""
    return [
        (singular_cone_2d(3), None, "plain"),
        (orthant(3), [CYC3], "canonical"),
        (orthant(2), [SWAP2], "canonical"),
        (square_cone(), [SWAP3_01], "canonical"),
        (
            Complex.from_maximal_cones(3, [(1, 0, 0), (0, 1, 0), (1, 1, 3)], [[0, 1, 2]]),
            None,
            "canonical",
        ),
    ]


def tamper_verdicts():
    """[{"base", "label", "verdict"}] for every base and each of its mutations;
    the verdict is the violation list, or "parse error: ..." as a string."""
    cases = []
    for b, (cx, gens, mode) in enumerate(_bases()):
        elements = generate_group(gens) if gens else None
        fan = fan_from_complex(cx, gens or ())
        text = write_certificate(resolve_equivariant(cx, elements, mode=mode), fan)
        for mutated, label in [(text, "unmutated")] + _mutations(text):
            try:
                verdict = verify_certificate(parse_certificate(mutated), fan)
            except ParseError as e:
                verdict = f"parse error: {e}"
            cases.append({"base": b, "label": label, "verdict": verdict})
    return cases


def test_tamper_verdicts_match_pinned():
    pinned = json.loads(PINNED.read_text())
    cases = tamper_verdicts()
    # apart from the pinned file, so that no rewrite of it pins an acceptance
    for case in cases:
        assert bool(case["verdict"]) == (case["label"] != "unmutated"), case
    for i, (want, got) in enumerate(zip(pinned, cases)):
        assert got == want, f"case {i} (base {want['base']}, {want['label']}) differs: {got['verdict']!r}"
    assert len(cases) == len(pinned) == 375


if __name__ == "__main__":
    PINNED.parent.mkdir(exist_ok=True)
    PINNED.write_text(json.dumps(tamper_verdicts(), indent=1) + "\n")
