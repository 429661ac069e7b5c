"""Independent check of a certificate's final complex, using sympy, not equifan.

It reads the final rays, final cones and group order straight from the
certificate text, closes the case's group generators itself, and checks:

- every final maximal cone is simplicial with index 1: its generators are
  independent and the gcd of their maximal minors is 1;
- every group element permutes the final rays and the final maximal cones;
- the group order recorded in the certificate is the order of that group.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd


def _section(lines, keyword):
    """The rows after the line `keyword N`, as tuples of ints."""
    for i, line in enumerate(lines):
        parts = line.split()
        if parts and parts[0] == keyword:
            count = int(parts[1])
            return [tuple(int(x) for x in row.split()) for row in lines[i + 1:i + 1 + count]]
    raise ValueError(f"certificate has no {keyword!r} section")


def _group(generators, rank):
    identity = tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank))
    elements, frontier = {identity}, [identity]
    while frontier:
        new = []
        for g in generators:
            for h in frontier:
                gh = tuple(tuple(sum(g[i][k] * h[k][j] for k in range(rank)) for j in range(rank))
                           for i in range(rank))
                if gh not in elements:
                    elements.add(gh)
                    new.append(gh)
        frontier = new
    return elements


def check_certificate(text: str, case) -> list[str]:
    """Oracle failures for one certificate of one case (empty when it passes)."""
    from sympy import Matrix

    lines = [line.split("#", 1)[0].strip() for line in text.splitlines()]
    lines = [line for line in lines if line]
    rays = _section(lines, "final-rays")
    cones = _section(lines, "final-cones")
    order = int(next(line.split()[1] for line in lines if line.startswith("group-order ")))
    failures = []
    for cone in cones:
        gens = Matrix([rays[i] for i in cone])
        k, n = gens.shape
        if k > n or gens.rank() != k:
            failures.append(f"cone {list(cone)} is not simplicial")
            continue
        minors = 0
        for cols in combinations(range(n), k):
            minors = gcd(minors, int(gens.extract(list(range(k)), list(cols)).det()))
        if minors != 1:
            failures.append(f"cone {list(cone)} has index {minors}, not 1")
    elements = _group(case.generators, case.rank) if case.generators else {None}
    if len(elements) != order:
        failures.append(f"group order {len(elements)}, certificate says {order}")
    ray_set = set(rays)
    cone_sets = {frozenset(rays[i] for i in c) for c in cones}
    for g in elements - {None}:
        m = Matrix(g)
        image = {r: tuple(int(x) for x in m * Matrix(r)) for r in rays}
        if set(image.values()) != ray_set:
            failures.append(f"element {g} does not permute the final rays")
            continue
        for c in cone_sets:
            if frozenset(image[r] for r in c) not in cone_sets:
                failures.append(f"element {g} maps a final cone to a non-cone")
                break
    return failures
