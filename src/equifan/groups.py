"""Finite group actions on complexes.

A group is a finite set of unimodular integer matrices acting on the
ambient lattice.  `verify_action` checks that every given matrix permutes
the ray generators and the cones and returns one record, a `GroupAction`:
the induced ray permutations, or the violations when the matrices do not
act.  A cone is a set of ray ids, so its image under a matrix is read off
that matrix's ray permutation (`cone_image`); no cone table is kept.
Orbits, the fixed-cone-identity and strictness checks and quotients all
read that record, so an action is verified once.

A finite group preserves a set exactly when its generators do, and its
orbits are the closure of a point under the generators' permutations
(A. Seress, Permutation Group Algorithms, ch. 2).  So the action, its
orbits and strictness may be asked of a generating set: |S| matrices, not
|G|.  Only `check_fixed_cone_identity` and `quotient_structure` ask about
each element, and need the whole group.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import Complex, ValidationReport
from .lattice import Mat, identity_matrix, integer_vector, is_unimodular, mat_mul, mat_vec

GROUP_CAP_DEFAULT = 10_000


def generate_group(generators, cap: int = GROUP_CAP_DEFAULT, rank: int | None = None) -> tuple[Mat, ...]:
    """Close a set of unimodular matrices under multiplication.

    Always contains the identity; raises when a generator is not
    unimodular or the group would exceed `cap` elements.  Without
    generators the ambient rank must be given to form the identity.
    """
    gens = [tuple(integer_vector(row) for row in m) for m in generators]
    if not gens:
        if rank is None:
            raise ValueError("empty generating set needs an explicit rank")
        return trivial_group(rank)
    n = len(gens[0])
    for m in gens:
        if not is_unimodular(m):
            raise ValueError(f"generator {m} is not unimodular")
        if len(m) != n or any(len(r) != n for r in m):
            raise ValueError("generators must be square matrices of equal size")
    ident = identity_matrix(n)
    elements = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for a in gens:
            for b in frontier:
                c = mat_mul(a, b)
                if c not in elements:
                    elements.add(c)
                    nxt.append(c)
                    if len(elements) > cap:
                        raise ValueError(f"group size cap {cap} exceeded")
        frontier = nxt
    return tuple(sorted(elements))


def trivial_group(rank: int) -> tuple[Mat, ...]:
    return (identity_matrix(rank),)


def cone_image(perm, cone) -> frozenset:
    """The image of a cone (a set of ray ids) under a ray permutation."""
    return frozenset(perm[i] for i in cone)


@dataclass(frozen=True)
class GroupAction:
    """The verified action of matrices on a complex: for each matrix, the
    permutation of ray ids it induces, which also carries every cone onto
    a cone.  The matrices may be a whole group or a generating set of it;
    the orbits are the same.  When the matrices do not act, `violations`
    says why, the table is empty and the orbit queries raise ValueError."""

    complex: Complex
    ray_permutations: tuple[tuple[int, ...], ...] = ()
    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self):
        return self.ok

    def _require_ok(self) -> GroupAction:
        if self.violations:
            raise ValueError("group does not act on the complex: " + "; ".join(self.violations))
        return self

    def _orbits(self, items, image, key=None) -> tuple[tuple, ...]:
        """The orbits of the items, in order of their first member, each
        sorted by key; `image(perm, item)` applies one permutation.  An
        orbit is the closure of its first member under the permutations,
        so the identity need not be among them."""
        self._require_ok()
        seen = set()
        orbits = []
        for x in items:
            if x in seen:
                continue
            orbit, frontier = {x}, [x]
            while frontier:
                z = frontier.pop()
                for perm in self.ray_permutations:
                    y = image(perm, z)
                    if y not in orbit:
                        orbit.add(y)
                        frontier.append(y)
            seen |= orbit
            orbits.append(tuple(sorted(orbit, key=key)))
        return tuple(orbits)

    def ray_orbits(self) -> tuple[tuple[int, ...], ...]:
        return self._orbits(range(len(self.complex.rays)), lambda perm, i: perm[i])

    def cone_orbits(self, maximal_only: bool = False) -> tuple[tuple, ...]:
        cones = self.complex.maximal_cones if maximal_only else sorted(
            self.complex.cones, key=lambda c: (len(c), sorted(c))
        )
        return self._orbits(map(frozenset, cones), cone_image, key=sorted)


def verify_action(cx: Complex, elements) -> GroupAction:
    """Check every matrix permutes rays and cones; the action record, with
    the ray permutations when they all do and the violations otherwise.

    A group acts exactly when a generating set does, so `elements` may be
    either; a violation names the index of the matrix as given."""
    violations = []
    elements = tuple(tuple(integer_vector(row) for row in m) for m in elements)
    n = cx.ambient_rank
    ray_index = {r: i for i, r in enumerate(cx.rays)}
    perms = []
    for k, m in enumerate(elements):
        if len(m) != n or any(len(row) != n for row in m):
            violations.append(f"element {k} is not a {n}x{n} matrix")
            continue
        if not is_unimodular(m):
            violations.append(f"element {k} is not unimodular")
            continue
        perm = []
        for i, r in enumerate(cx.rays):
            img = mat_vec(m, r)
            j = ray_index.get(img)
            if j is None:
                violations.append(f"element {k} maps ray {i} = {r} to {img}, not a ray")
                break
            perm.append(j)
        else:
            for c in cx.cones:
                img = cone_image(perm, c)
                if img not in cx.cones:
                    violations.append(
                        f"element {k} maps cone {sorted(c)} to {sorted(img)}, not a cone"
                    )
                    break
            else:
                perms.append(tuple(perm))
    if violations:
        return GroupAction(cx, violations=tuple(violations))
    return GroupAction(cx, tuple(perms))


def group_action(cx: Complex, elements) -> GroupAction:
    """Verified action of the given matrices on the complex (raises if invalid)."""
    return verify_action(cx, elements)._require_ok()


def check_fixed_cone_identity(cx: Complex, elements) -> ValidationReport:
    """Every element fixing a cone setwise must fix its rays pointwise.

    The question is asked of each element, so `elements` must be the whole
    group (`generate_group`'s output), not a generating set."""
    return _fixed_cone_identity(group_action(cx, elements))


def check_G_strict(cx: Complex, elements) -> ValidationReport:
    """No cone may have two distinct edges in one ray orbit; `elements` may
    be the group or a generating set."""
    return _strictness(group_action(cx, elements))


def _fixed_cone_identity(action: GroupAction) -> ValidationReport:
    """check_fixed_cone_identity on an action already verified for the
    whole group: a generating set would miss the elements it lacks.

    Strictness implies it: an element that fixes a cone and moves one of
    its edges puts two of its edges in one orbit.  So a caller holding a
    strict action need not ask it."""
    cx = action.complex
    report = ValidationReport()
    for k, perm in enumerate(action.ray_permutations):
        for c in sorted(cx.cones, key=sorted):
            if any(perm[i] != i for i in c) and cone_image(perm, c) == c:
                report.violations.append(
                    f"element {k} fixes cone {sorted(c)} but permutes its edges"
                )
    return report


def _strictness(action: GroupAction) -> ValidationReport:
    """check_G_strict on an action already verified."""
    cx = action.complex
    report = ValidationReport()
    orbit_of = {}
    for orbit in action.ray_orbits():
        for i in orbit:
            orbit_of[i] = orbit
    for c in sorted(cx.cones, key=sorted):
        by_orbit: dict[tuple, list] = {}
        for i in c:
            by_orbit.setdefault(orbit_of[i], []).append(i)
        for orbit, members in sorted(by_orbit.items()):
            if len(members) > 1:
                report.violations.append(
                    f"cone {sorted(c)} has edges {sorted(members)} in one orbit"
                )
    return report


@dataclass
class QuotientStructure:
    """Orbit/representative form of the quotient of a complex by a group.

    Well-defined only when the fixed-cone-identity and strictness checks
    pass; then orbit representatives with their induced face relations
    form a conical-complex-shaped incidence structure.
    """

    ray_orbits: tuple[tuple[int, ...], ...]
    cone_orbits: tuple[tuple, ...]
    ray_representatives: tuple[int, ...]
    cone_representatives: tuple
    face_relations: dict
    maximal_representatives: tuple = ()


def quotient_structure(cx: Complex, elements) -> QuotientStructure:
    """Quotient orbit structure of a strict action (raises when not strict).

    The fixed-cone-identity check and the element carrying each cone onto
    its representative range over every element, so `elements` must be the
    whole group (`generate_group`'s output), not a generating set.  The
    per-element scan runs only when strictness fails (`_fixed_cone_identity`
    says why), to name the failure."""
    action = group_action(cx, elements)
    gs = _strictness(action)
    if not gs.ok:
        fci = _fixed_cone_identity(action)
        if not fci.ok:
            raise ValueError("fixed-cone-identity check failed: " + "; ".join(fci.violations))
        raise ValueError("strictness check failed: " + "; ".join(gs.violations))
    ray_orbits = action.ray_orbits()
    cone_orbits = action.cone_orbits()
    ray_reps = tuple(o[0] for o in ray_orbits)
    cone_reps = tuple(o[0] for o in cone_orbits)
    rep_of = {c: orbit[0] for orbit in cone_orbits for c in orbit}
    # one element carrying each cone onto its representative
    elem_to_rep = {
        c: next((k for k, perm in enumerate(action.ray_permutations) if cone_image(perm, c) == rep), None)
        for c, rep in rep_of.items()
    }
    if None in elem_to_rep.values():  # a generating set may have none
        raise ValueError("no element carries some cone onto its orbit representative: "
                         "the elements must be the whole group")
    face_relations = {
        tuple(sorted(rep)): tuple(sorted(
            (tuple(sorted(f)), tuple(sorted(rep_of[f])), elem_to_rep[f]) for f in cx.faces(rep)
        ))
        for rep in cone_reps
    }
    # an orbit is maximal in the quotient iff its members are maximal cones
    maximal_cones = set(cx.maximal_cones)
    maximal = tuple(sorted((rep for rep in cone_reps if rep in maximal_cones), key=sorted))
    return QuotientStructure(
        ray_orbits, cone_orbits, ray_reps, cone_reps, face_relations, maximal
    )
