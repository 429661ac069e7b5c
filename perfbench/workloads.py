"""The benchmark corpus: three workloads, each a list of cases built from a seed.

Seed 0 is the pinned corpus, whose certificates must hash to the values in
PINNED_SHA256.  Any other seed maps every case of the pinned corpus through
a seeded elementary shear T (the identity plus one entry +-1 below the
diagonal) and conjugates its group by T.  The image is a new input of the
same family: `(1,0),(1,r)` becomes `(1,+-1),(1,r+-1)`, and every cone keeps
its lattice index.  T also keeps the lexicographic order of any two
vectors, and the pipeline's choices depend only on that order, on ray ids
and on coordinates in cone frames, which T does not change.  So an unseen
seed makes the same rounds, searches and calls as seed 0, on numbers a
little larger, and its cost stays within a few per cent of seed 0's.  Its
certificates are checked by replay verification and the independent
oracle instead of pinned hashes.

This module imports nothing from equifan, so the set-up time it adds is
the same at every commit.
"""

from __future__ import annotations

import random
from itertools import product
from dataclasses import dataclass

WORKLOADS = ("plain-ladder", "canonical-nd", "symmetric")

WHY = {
    "plain-ladder": "plain mode, trivial group, 2D index ladder r=8..20 and a 3D cone: "
    "search-bound (SNF and parallelepiped points inside each candidate check)",
    "canonical-nd": "canonical mode, trivial group, 3D and 4D cones: geometry-bound "
    "(cone duals, nullspaces) with many stages for the certificate replay",
    "symmetric": "canonical mode with groups of order 3-24 and non-simplicial fans, "
    "driven through the equifan command: group checks, direct barycentric search, CLI",
}


@dataclass(frozen=True)
class Case:
    """One input: a fan (rays, maximal cones, group generators) and a mode."""

    name: str
    rank: int
    rays: tuple
    cones: tuple
    generators: tuple
    mode: str


def _unit(d, i, sign=1):
    return tuple(sign if j == i else 0 for j in range(d))


ROT_Z = ((0, -1, 0), (1, 0, 0), (0, 0, 1))
CYC3 = ((0, 0, 1), (1, 0, 0), (0, 1, 0))
ROT4 = ((0, -1), (1, 0))
SWAP2 = ((0, 1), (1, 0))
HEX_ROT = ((1, -1, 0), (1, 0, 0), (0, 0, 1))


def _pinned(workload: str) -> list[Case]:
    if workload == "plain-ladder":
        cases = [
            Case(f"2d-r{r}", 2, ((1, 0), (1, r)), ((0, 1),), (), "plain")
            for r in (8, 12, 16, 20)
        ]
        cases.append(
            Case("3d-127", 3, ((1, 0, 0), (0, 1, 0), (1, 2, 7)), ((0, 1, 2),), (), "plain")
        )
        return cases
    if workload == "canonical-nd":
        return [
            Case("3d-134", 3, ((1, 0, 0), (0, 1, 0), (1, 3, 4)), ((0, 1, 2),), (), "canonical"),
            Case("3d-124", 3, ((1, 0, 0), (0, 1, 0), (1, 2, 4)), ((0, 1, 2),), (), "canonical"),
            Case(
                "4d-0112",
                4,
                (_unit(4, 0), _unit(4, 1), _unit(4, 2), (0, 1, 1, 2)),
                ((0, 1, 2, 3),),
                (),
                "canonical",
            ),
        ]
    if workload == "symmetric":
        orth_rays = tuple(_unit(3, i, s) for s in (1, -1) for i in range(3))
        orth_cones = tuple(product((0, 3), (1, 4), (2, 5)))
        cube_rays = tuple((x, y, z) for x in (1, -1) for y in (1, -1) for z in (1, -1))
        cube_cones = tuple(
            tuple(k for k, r in enumerate(cube_rays) if r[axis] == sign)
            for axis in range(3)
            for sign in (1, -1)
        )
        hexagon = ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1))
        d4_rays = ((4, 1), (1, 4), (-1, 4), (-4, 1), (-4, -1), (-1, -4), (1, -4), (4, -1))
        return [
            Case("orthant-fan-o24", 3, orth_rays, orth_cones, (ROT_Z, CYC3), "canonical"),
            Case("cube-fan-o24", 3, cube_rays, cube_cones, (ROT_Z, CYC3), "canonical"),
            Case(
                "hexagon-c6",
                3,
                tuple(h + (1,) for h in hexagon),
                (tuple(range(6)),),
                (HEX_ROT,),
                "canonical",
            ),
            Case(
                "octagon-d4",
                2,
                d4_rays,
                tuple((k, (k + 1) % 8) for k in range(8)),
                (ROT4, SWAP2),
                "canonical",
            ),
            Case(
                "cone-210-c3",
                3,
                ((2, 1, 0), (0, 2, 1), (1, 0, 2)),
                ((0, 1, 2),),
                (CYC3,),
                "canonical",
            ),
            Case(
                "swap-index4",
                2,
                ((1, 0), (1, -4), (0, 1), (-4, 1)),
                ((0, 1), (2, 3)),
                (SWAP2,),
                "canonical",
            ),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _mat_vec(m, v):
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m)


def _mat_mul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def elementary_shear(rng: random.Random, d: int):
    """I plus one entry +-1 at a random place below the diagonal."""
    i = rng.randrange(1, d)
    j = rng.randrange(i)
    sign = rng.choice((1, -1))
    return tuple(tuple(int(r == c) + (sign if (r, c) == (i, j) else 0) for c in range(d))
                 for r in range(d))


def transform(case: Case, t) -> Case:
    """The image of a case under an elementary shear t (group conjugated).

    The inverse of t = I + s*E is I - s*E = 2I - t.
    """
    t_inv = tuple(tuple(2 * int(r == c) - t[r][c] for c in range(len(t))) for r in range(len(t)))
    return Case(
        case.name,
        case.rank,
        tuple(_mat_vec(t, r) for r in case.rays),
        case.cones,
        tuple(_mat_mul(_mat_mul(t, g), t_inv) for g in case.generators),
        case.mode,
    )


def make_cases(workload: str, seed: int) -> list[Case]:
    """The workload's cases for a seed; seed 0 is the pinned corpus."""
    cases = _pinned(workload)
    if seed == 0:
        return cases
    rng = random.Random(f"{workload}:{seed}")
    return [transform(c, elementary_shear(rng, c.rank)) for c in cases]


def fan_text(case: Case) -> str:
    """The case in the fan-file format read by `equifan`."""
    out = [f"rank {case.rank}", f"rays {len(case.rays)}"]
    out += [" ".join(map(str, r)) for r in case.rays]
    out.append(f"cones {len(case.cones)}")
    out += [" ".join(map(str, sorted(c))) for c in sorted(tuple(sorted(c)) for c in case.cones)]
    if case.generators:
        out.append(f"generators {len(case.generators)}")
        for g in case.generators:
            out += [" ".join(map(str, row)) for row in g]
    return "\n".join(out) + "\n"


# sha256 of each seed-0 certificate as written by equifan 0.1.0 (the seed
# commit).  A change that alters any of these bytes fails the benchmark.
PINNED_SHA256: dict[str, dict[str, str]] = {
    "plain-ladder": {
        "2d-r8": "586a64c836ddaf08c86427ea70d90e7c9ff15ded80beccf0f4292f47dca9fdd3",
        "2d-r12": "8c79cd7788aa8ed54b262a869e5a800f38d2244ae123e73788b963105549ca81",
        "2d-r16": "ebe0a6aeaf8b16e6239ee4789c3150dda8b1bdc0cec2024940fb3da17fba32e2",
        "2d-r20": "a7697475d63c534dc332c6a4d2ca3548acf03eb75931e63037d61ec43b07dfdf",
        "3d-127": "58965059d3f9785e984dd4a5d6e0111d1adedc65e14c3f6c75b6ef3a209e3e56",
    },
    "canonical-nd": {
        "3d-134": "63999a52f906e2b8be761a729643bc760631e772a62d5d6c9b3ab5ecc12943b9",
        "3d-124": "675c44fca1eaeaea0532c247cd1da1be63e99893fd5e8e00142cb50a8a73ff27",
        "4d-0112": "83fab256171707945b6d8d2488f5bd6af435a6cada0140e3f15c3e99ca09c166",
    },
    "symmetric": {
        "orthant-fan-o24": "8bd6741c44796705cc9552a3e6581a53a8f5d1aba37d312bef1620fc9b5a0fd9",
        "cube-fan-o24": "f3a30a2f209db491b08a76d574677f87594f2c0af33cdafaefd929cf18f9426c",
        "hexagon-c6": "c8b3e154b244a5bcb0f47ed8636e5adcd1f5f9eb36887c725740d64656dc3fae",
        "octagon-d4": "f0e4ff6ad3cda360aac8ac1e4780311c6a857c14b81f69fdd6a88add6143ba0c",
        "cone-210-c3": "3f49350a209c9c02b882e94828f14b1e4d5a3dfbc00dee978ee1bbcf204c8cf2",
        "swap-index4": "7bb4dbf0d93c5e69a668e1ce4a312f296f85606a42b0c71deb5e7be5d8b9bab4",
    },
}
