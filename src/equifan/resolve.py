"""Equivariant smooth refinement with a full audit trail.

The pipeline subdivides a complex until every maximal cone has lattice
index 1, keeping the action of a finite group intact throughout:

  stage 1 (canonical mode): barycentric subdivision, which makes the
  action strict; later stages: simultaneous centered subdivisions at the
  lattice points selected by the lexicographic order of their canonical
  coordinates.

Each stage carries a verified strict positive order function; stages
compose into a single certificate function whose linearity domains are
exactly the final complex.  Everything is re-verified from scratch
before a certificate is issued.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .complexes import Complex, is_simplicial, is_smooth, is_subdivision, require_valid
from .fanio import BatchStep, StageRecord, _FanLines
from .groups import _strictness, cone_image, group_action, trivial_group, verify_action
from .lattice import (
    _eliminate,
    _first_point,
    cone_index,
    integer_vector,
    mat_vec,
    primitive,
    rational_nullspace,
    transpose,
)
from .orderfun import (
    OrderFunction,
    _axiom_report,
    _carrying,
    _pieces_by_base_cone,
    _solve,
    _wall_forms,
    fold,
    search_centered_order_function,
)
from .subdivide import _barycentric, _barycentric_cascade, _barycentric_sources

ROUND_CAP = 10_000


def _index_measure(cx: Complex):
    """(largest, total) cone_index over the maximal cones, from one pass
    over the whole complex; ValueError on a non-simplicial complex.  The
    full recomputation that `Replay`'s carried trace rows are tested
    against."""
    if not is_simplicial(cx):
        raise ValueError("not simplicial")
    indices = [cone_index(cx.generators(c)) for c in cx.maximal_cones if c]
    return max(indices, default=1), sum(indices)


def total_index(cx: Complex) -> int:
    """Sum of cone_index over the maximal cones, recomputed in full
    (`_index_measure`)."""
    return _index_measure(cx)[1]


def max_index(cx: Complex) -> int:
    """Largest cone_index among the maximal cones, recomputed in full
    (`_index_measure`)."""
    return _index_measure(cx)[0]


def _indices(cx: Complex, cones):
    """{cone: cone_index} over the given nonzero cones of cx, or None when
    one of them is not simplicial."""
    table = {}
    for c in cones:
        if c:
            if len(c) != cx.dim(c):
                return None
            table[c] = cone_index(cx.generators(c))
    return table


# ---------------------------------------------------------------------------
# canonical frames


def initial_frames_plain(cx: Complex) -> dict:
    """Plain-mode frames: input generator order (ascending ray id)."""
    return {c: tuple(sorted(c)) for c in cx.maximal_cones}


def initial_frames_barycentric(cx: Complex, bcx: Complex, sources) -> dict:
    """Frames on the barycentric subdivision, ordered by source-cone
    dimension; `sources` gives each ray's source cone (`_barycentric_sources`)."""
    dim_of = [cx.dim(source) for source in sources]
    frames = {}
    for mc in bcx.maximal_cones:
        if len({dim_of[i] for i in mc}) != len(mc):
            raise ValueError("barycentric cone with repeated source dimensions")
        frames[mc] = tuple(sorted(mc, key=lambda i: dim_of[i]))
    return frames


def frames_equivariant(frames: dict, action) -> bool:
    """The group must carry the frame of a cone onto the image's frame.

    A product of matrices that carry frames onto frames does too, so an
    action verified for a generating set decides it for the group."""
    for perm in action.ray_permutations:
        for mc, frame in frames.items():
            if tuple(perm[i] for i in frame) != frames[cone_image(perm, mc)]:
                return False
    return True


def _inherit_frames(frames: dict, pieces) -> dict:
    """Frames on a centered subdivision, from its pieces by host
    (`_pieces_by_base_cone`); the round's simultaneity guard.

    An untouched host keeps its frame.  When no two centers share a
    maximal cone, a piece of the star of a center is its simplicial host
    with one ray replaced by the center, and takes the host's frame with
    the center in that ray's slot.  When two centers share a host, the
    second star is taken on the first (`subdivide._stars`), so some piece
    of that host holds both centers: a piece that is not its host with one
    ray replaced raises RuntimeError naming the host and the piece, so
    every frame written lists exactly its piece's rays.
    """
    new_frames = {}
    for sigma, ps in pieces:
        for p in ps:
            new = p - sigma
            if len(new) > 1 or len(sigma - p) != len(new):
                raise RuntimeError(
                    f"centers not simultaneous-safe: piece {sorted(p)} of host {sorted(sigma)} "
                    "is not the host with one ray replaced by a center"
                )
            new_frames[p] = tuple(i if i in p else min(new) for i in frames[sigma])
    return new_frames


# ---------------------------------------------------------------------------
# center selection


def select_centers(cx: Complex, frames: dict, elements=None):
    """Lexicographically minimal parallelepiped points over non-smooth cones.

    Returns (coordinate tuple, ((point, host maximal cone), ...)); every
    witness realizing the minimal canonical coordinate tuple is returned.
    A cone's least point in its frame's coordinates comes from the
    Hermite normal form of its lattice (`lattice._first_point`), asked of
    the cone's id-sorted generators (`Complex.generators`, the key of its
    one memoised Smith form) with the frame as positions into them, and
    memoised by both, so no point is listed, no cone is factored again in
    frame order and a cone left untouched by a round costs one lookup; the
    ties are across cones.  Only the cones in `frames` are asked, in any
    order (`Replay.round` leaves the smooth ones out); no point, as on a
    smooth complex, raises ValueError.
    With `elements` (matrices acting on cx: a group or a generating set,
    since a group preserves a set exactly when its generators do) the
    selected points must be stable under them.
    """
    if not is_simplicial(cx):
        raise ValueError("not simplicial")
    best = None
    chosen = []
    for mc, frame in frames.items():
        ids = sorted(mc)
        first = _first_point(cx.generators(mc), tuple(map(ids.index, frame)))
        if first is None:
            continue
        point, coords = first
        if best is None or coords < best:
            best = coords
            chosen = [(point, mc)]
        elif coords == best:
            chosen.append((point, mc))
    if best is None:  # every cone has index 1
        raise ValueError("the complex is already smooth: nothing to select")
    chosen = tuple(sorted(set(chosen), key=lambda pc: (pc[0], sorted(pc[1]))))
    if elements is not None:
        pts = {p for p, _ in chosen}
        for m in elements:
            if {tuple(mat_vec(m, p)) for p in pts} != pts:
                raise RuntimeError("selected centers are not stable under the group")
    return best, chosen


# ---------------------------------------------------------------------------
# certificate data


@dataclass
class ResolutionCertificate:
    mode: str
    input_complex: Complex
    group: tuple
    stages: tuple
    composite: OrderFunction
    final: Complex
    flags: dict
    trace: tuple  # ((label, max_index or None, total_index or None), ...)

    @property
    def ok(self) -> bool:
        return all(self.flags.values())


FLAG_NAMES = (
    "smooth",
    "simplicial",
    "subdivision_of_input",
    "equivariant",
    "g_strict",
    "ord_positive",
    "ord_integral",
    "ord_strictly_convex",
    "ord_linearity_matches_final",
    "ord_g_invariant",
)


def certificate_flags(input_cx, elements, final, composite) -> dict:
    """Re-derive every certificate flag from scratch (nothing trusted).

    `elements` is the group or a generating set of it: the action, its
    strictness (from the orbits) and the invariance of the composite hold
    for the group exactly when they hold for its generators.

    The composite must live on final over input_cx.  Each fact is decided
    once: the subdivision of the input (which the composite's axiom check
    needs too), the action (strictness reads its orbits) and the axioms,
    from one wall table; a smooth complex (`is_smooth`) is simplicial.
    The composite's pieces by input cone are the geometric ones of
    is_subdivision, never the map it was built with.

    With the pieces final's maximal cones, each once, the linearity
    domains are final exactly when the axioms hold and every bend is
    strict: then nothing merges; a flat wall merges two pieces into a
    cone that is no cone of final; and on a convex function each class
    of pieces joined by flat walls is the convex set where it equals one
    linear form, so the merge cannot fail.
    """
    flags = {}
    action = verify_action(final, elements)
    flags["smooth"] = is_smooth(final)
    flags["simplicial"] = flags["smooth"] or is_simplicial(final)
    sub_rep = is_subdivision(final, input_cx)
    flags["subdivision_of_input"] = bool(sub_rep)
    flags["equivariant"] = flags["subdivision_of_input"] and action.ok
    flags["g_strict"] = action.ok and _strictness(action).ok
    if not sub_rep or composite.base != input_cx or composite.subdivision != final:
        raise ValueError(f"subdivision invariant violated: {sub_rep}")
    rep = _axiom_report(composite, _wall_forms(final, sub_rep.pieces))
    flags["ord_positive"] = rep.positive
    flags["ord_integral"] = rep.integral
    flags["ord_strictly_convex"] = rep.convex and rep.strict
    flags["ord_linearity_matches_final"] = rep.ok and rep.strict
    inv = action.ok
    for perm in action.ray_permutations:
        inv = inv and all(
            composite.ray_values[perm[i]] == composite.ray_values[i]
            for i in range(len(final.rays))
        )
    flags["ord_g_invariant"] = inv
    return flags


# ---------------------------------------------------------------------------
# direct barycentric order function (non-simplicial inputs)


def _pivot(tab, basis, i, j):
    """Make column j basic in row i of a simplex tableau."""
    tab[i] = [x / tab[i][j] for x in tab[i]]
    for k, row in enumerate(tab):
        if k != i and row[j]:
            tab[k] = [x - row[j] * y for x, y in zip(row, tab[i])]
    basis[i] = j


def _simplex(tab, basis, ncols: int, costed):
    """Minimize the sum of the variables in `costed` over a feasible tableau
    (columns, then the right-hand side) by Bland's rule, entering only
    columns < ncols: the lowest column of negative reduced cost enters and
    the lowest basic variable among the tied ratios leaves, so no basis
    repeats.  Both sums minimized here are bounded below by 0."""
    while True:
        costed_rows = [row for b, row in zip(basis, tab) if b in costed]
        j = next((j for j in range(ncols) if (j in costed) < sum(r[j] for r in costed_rows)), None)
        if j is None:
            return
        _, _, i = min((row[-1] / row[j], basis[i], i) for i, row in enumerate(tab) if row[j] > 0)
        _pivot(tab, basis, i, j)


def _least_sum_point(relations, n: int):
    """The rational y >= 1 with relations . y = 0 of least coordinate sum.

    With y = 1 + z it is the least sum(z) over z >= 0 with
    relations . z = -relations . 1, found by the two-phase simplex method
    on Fractions.  All-ones is the unique such point whenever it is
    feasible.
    """
    rows = [list(r) for r in relations]
    pivots, _ = _eliminate(rows, n)  # rows / D below: the independent rows, reduced
    rows = [[Fraction(x, row[c]) for x in row] for row, c in zip(rows, pivots)]
    m = len(rows)
    tab = []
    for i, r in enumerate(rows):
        sign = 1 if sum(r) <= 0 else -1  # keep the right-hand side >= 0
        tab.append([sign * x for x in r] + [Fraction(int(i == k)) for k in range(m)] + [-sign * sum(r)])
    basis = list(range(n, n + m))
    _simplex(tab, basis, n + m, range(n, n + m))  # phase 1: drive the artificials to 0
    if any(row[-1] for b, row in zip(basis, tab) if b >= n):
        raise ValueError("no positive ray values are linear on every cone")
    for i, b in enumerate(basis):
        if b >= n:  # a degenerate artificial; independent rows leave a pivot
            _pivot(tab, basis, i, next(j for j in range(n) if tab[i][j]))
    _simplex(tab, basis, n, range(n))  # phase 2; the artificials stay at 0
    y = [Fraction(1)] * n
    for b, row in zip(basis, tab):
        y[b] += row[-1]
    return y


def _consistent_base_values(cx: Complex):
    """Positive integer ray values extending linearly over every cone: the
    least-sum rational point y >= 1 that does, scaled to integers."""
    nrays = len(cx.rays)
    relations = []
    for c in cx.maximal_cones:
        ids = sorted(c)
        if len(ids) == cx.dim(c):
            continue
        for z in rational_nullspace(transpose(cx.generators(c)), n=len(ids)):
            row = [0] * nrays
            for zi, rid in zip(z, ids):
                row[rid] = zi
            relations.append(row)
    y = _least_sum_point(relations, nrays)
    scale = math.lcm(*[v.denominator for v in y])
    return tuple(int(v * scale) for v in y)


def direct_barycentric_order_function(cx: Complex, bcx: Complex, pieces, sources):
    """Order function for B(cx) built directly from dimension-graded dips,
    given bcx = B(cx), its pieces over cx and its rays' sources (`_barycentric`).

    Used when the input has non-simplicial cones, where the cascade of
    centered order functions is not representable.  Values take the form
    L * base(ray) - a * (2^dim - 1), where base is linear on every cone of
    cx and dim is the dimension of the ray's source cone.  Every wall of
    B(cx) lies in one such cone, so its bend is a times one constant of the
    geometry: strictness holds for every (L, a) or for none.  Where some
    wall's constant is not positive, as on most non-simplicial cones,
    canonical mode fails.  The cause is not that the dips depend on the
    source dimension alone; it is the fixed ratio a * (2^k - 1) between
    the levels' dips, and free per-level dips would bend such walls.
    Positivity bounds L from below for each a, and integrality is a set of
    SNF congruences in (L, a).  `_solve` takes x = a and y = L / denom;
    the a admitting some L form a subgroup of Z that holds the lcm P of
    the moduli ((L, a) = (0, P) solves every row), so a runs up to P.
    """
    y = _consistent_base_values(cx)
    # the base function is linear on the host, so its value at the
    # barycenter is the edge-value sum divided by the primitivization
    # factor of the generator sum
    base_val = [
        Fraction(sum(y[i] for i in h), math.gcd(*[sum(col) for col in zip(*cx.generators(h))]))
        for h in sources
    ]
    denom = math.lcm(*[v.denominator for v in base_val])
    # with L = denom * k ray r is valued a * forms[r][0] + k * forms[r][1],
    # and positive when forms[r], as a bound, holds
    forms = [(1 - 2 ** cx.dim(h), int(denom * v)) for v, h in zip(base_val, sources)]
    winner, a, k = _solve(
        cx, bcx, pieces, forms, forms, None,
        "scale insufficient: a wall of the barycentric subdivision does not bend",
        lambda a, k: f"direct barycentric solve chose (L={denom * k}, a={a})",
    )
    return winner, denom * k, a


# ---------------------------------------------------------------------------
# the stage replay, shared by resolve and verify


def _unit(cx: Complex) -> OrderFunction:
    """The constant 1 on cx, as its own subdivision."""
    return _carrying(OrderFunction(cx, cx, [1] * len(cx.rays)), [(s, [s]) for s in cx.maximal_cones])


def _barycentric_stage(cx: Complex):
    """Canonical mode's first stage, as resolve and verify both build it:
    (kind, steps, step functions, sources of B(cx)'s rays), by the cascade
    on a simplicial cx and by the direct function otherwise."""
    if not is_simplicial(cx):
        bcx, pieces, sources = _barycentric(cx)
        ord_b, scale, dip = direct_barycentric_order_function(cx, bcx, pieces, sources)
        return "barycentric-direct", [BatchStep((), scale, dip, None)], [ord_b], sources
    steps, ords, cur = [], [], cx
    cascade = _barycentric_cascade(cx)
    for batch in cascade:
        ord_k, scale, dip = search_centered_order_function(cur, batch)
        steps.append(BatchStep(tuple(batch), scale, dip, None))
        ords.append(ord_k)
        cur = ord_k.subdivision
    return "barycentric", steps, ords, _barycentric_sources(cx, cur, cascade)


class Replay:
    """A resolution's chain of stages, built and folded one stage at a time.

    `resolve_equivariant` runs its stages through one generator
    (`resolution`: canonical mode's barycentric stage, then each `round`
    until smooth), which chooses every center, parameter and multiplier,
    so a certificate names one resolution: resolve writes the records,
    composite and measure trace of this one fold, and
    `fanio.verify_certificate` resolves again and compares the text it
    writes with the file's.  The frames start plain; a round asks its
    group questions of `generators` (the identity by default).

    A round costs what it touches.  The replay carries the cone indices of
    the current maximal cones (`indices`, None while the complex is not
    simplicial), which give each trace row its largest and total index,
    the cones that center selection asks and the termination measure, and
    the formatted lines of the current fan text (ray lines and
    {sorted cone ids: cone line}), which give each stage hash.  A stage
    updates both from its function's pieces map: a star changes only its
    carrier's star, and old ray ids never change, so the maximal cones
    whose pieces are not themselves (the touched hosts) are the only ones
    that leave, their pieces the only ones that come, and the only new
    rays are appended.  `tests/test_carried_state.py` compares the rows
    with `_index_measure` and the hashes with `fanio.complex_hash`, the
    full recomputations, at every stage.
    """

    def __init__(self, cx: Complex, generators=None):
        self.cur = cx  # the subdivision reached so far
        identity = trivial_group(cx.ambient_rank)
        self.generators = identity if generators is None else generators
        # the identity alone carries every frame onto itself
        self.trivial = all(m == identity[0] for m in self.generators)
        self.frames = initial_frames_plain(cx)
        self.indices = _indices(cx, cx.maximal_cones)
        self._lines = _FanLines(cx)
        self.cur_hash = self._lines.sha256()
        self.composite = None
        self.stages = []
        self.trace = [("input", *self._measure())]
        self.rounds = 0

    def _measure(self):
        """(largest, total) index of the current complex, or (None, None)."""
        if self.indices is None:
            return None, None
        return max(self.indices.values(), default=1), sum(self.indices.values())

    def _advance(self, sub: Complex, pieces):
        """Carry the indices and lines from cur to sub, given sub's pieces
        over cur (see the class docstring)."""
        touched = [sigma for sigma, ps in pieces if ps != [sigma]]
        added = [p for sigma, ps in pieces if ps != [sigma] for p in ps]
        self._lines.update(sub.rays[len(self.cur.rays):], touched, added)
        new = None if self.indices is None else _indices(sub, added)
        if new is None:  # cur or a piece is not simplicial
            self.indices = _indices(sub, sub.maximal_cones)
        else:
            for sigma in touched:
                del self.indices[sigma]
            self.indices.update(new)
        self.cur = sub

    def stage(self, kind: str, steps, step_ords):
        """Fold the step functions of a stage (each on the previous one's
        subdivision, the first on `cur`) into the stage function, fold
        that into the composite, and record the stage.

        `orderfun.fold` chooses every step multiplier and every stage
        multiplier but the first stage's, which records 1.  Returns
        (record, stage function).
        """
        base = self.cur
        stage_ord, recorded = None, []
        for step, ord_k in zip(steps, step_ords):
            stage_ord, mult = (ord_k, 1) if stage_ord is None else fold(stage_ord, ord_k)
            recorded.append(replace(step, multiplier=mult))
        if stage_ord is None:
            stage_ord = _unit(base)
        sub = stage_ord.subdivision
        if not self.stages:
            composite, multiplier = stage_ord, 1
        else:
            composite, multiplier = fold(self.composite, stage_ord)
        self._advance(sub, _pieces_by_base_cone(stage_ord))
        record = StageRecord(
            kind=kind,
            steps=tuple(recorded),
            multiplier=multiplier,
            values=stage_ord.ray_values,
            new_rays=tuple((i, sub.rays[i]) for i in range(len(base.rays), len(sub.rays))),
            input_hash=self.cur_hash,
            output_hash=self._lines.sha256(),
        )
        self.stages.append(record)
        self.composite, self.cur_hash = composite, record.output_hash
        if kind == "centered":
            self.rounds += 1
            self.trace.append((f"round{self.rounds}", *self._measure()))
        else:
            self.trace.append(("stage1", *self._measure()))
        return record, stage_ord

    def round(self):
        """Select the centers on the frames of the cones of index above 1,
        read each carrier off its host's frame (the frame rays of its
        nonzero coordinates), solve, pass the frames to the pieces and
        fold; returns the record.  RuntimeError names ROUND_CAP, a frame
        the group does not carry or a measure that does not drop; a smooth
        complex raises ValueError."""
        if self.rounds >= ROUND_CAP:
            raise RuntimeError(f"resolution did not terminate within round_cap={ROUND_CAP}")
        cur, indices = self.cur, self.indices or {}  # None: select_centers names it
        singular = {mc: self.frames[mc] for mc, idx in indices.items() if idx > 1}
        best, selected = select_centers(cur, singular, self.generators)
        carrier_of = {}
        for p, mc in selected:
            carrier_of.setdefault(primitive(p), tuple(sorted(i for i, a in zip(self.frames[mc], best) if a)))
        centers = tuple(sorted(carrier_of.items()))
        ord_k, scale, dip = search_centered_order_function(cur, centers)
        pieces = _pieces_by_base_cone(ord_k)
        frames = _inherit_frames(self.frames, pieces)
        if not self.trivial and not frames_equivariant(frames, group_action(ord_k.subdivision, self.generators)):
            raise RuntimeError("frame equivariance: the group does not carry frames onto frames")
        # the measure must drop on every touched host's pieces; a host is
        # touched exactly when it holds a carrier, as no center is a ray
        touched = [(mc, ps, indices[mc]) for mc, ps in pieces if ps != [mc]]
        record, _ = self.stage("centered", [BatchStep(centers, scale, dip, None)], [ord_k])
        for mc, ps, idx in touched:
            if max((self.indices[d] for d in ps), default=idx) >= idx:
                raise RuntimeError(f"termination measure failed to decrease on cone {sorted(mc)}")
        self.frames = frames
        return record

    def resolution(self, mode: str):
        """Resolve's stages, each record as it is made: canonical mode's
        barycentric stage first (`_barycentric_stage`, then the frames on
        its subdivision), then rounds until the last trace row's largest
        index is 1 (None while the complex is not simplicial, when the
        round names it).  `resolve_equivariant` runs it to the end."""
        if mode == "canonical":
            base = self.cur
            kind, steps, ords, sources = _barycentric_stage(base)
            record, _ = self.stage(kind, steps, ords)
            self.frames = initial_frames_barycentric(base, self.cur, sources)
            yield record
        while self.trace[-1][1] != 1:
            yield self.round()

    def final_composite(self) -> OrderFunction:
        """The composite, or the constant 1 on the input when no stage ran."""
        return self.composite if self.stages else _unit(self.cur)


# ---------------------------------------------------------------------------
# the pipeline


def _matrices(ms) -> tuple:
    return tuple(tuple(integer_vector(row) for row in m) for m in ms)


def resolve_equivariant(
    cx: Complex, elements=None, mode: str = "canonical", generators=None
) -> ResolutionCertificate:
    """Refine the complex until smooth, equivariantly, with a certificate.

    Canonical mode starts with the barycentric subdivision and then
    repeatedly takes simultaneous centered subdivisions at the selected
    lattice points; plain mode (trivial group, simplicial input only)
    runs just the loop with the input generator order as frame.  An input
    that is not a valid complex raises ValueError naming its first
    violation.

    `elements` is the group, recorded in the certificate.  Every group
    question (the action, center stability, frame equivariance and the
    flags) is asked of `generators`, a generating set of it, which
    defaults to `elements`; each must belong to `elements` (ValueError
    otherwise), and that they generate it is the caller's word;
    `fanio.verify_certificate` generates the group from the fan's
    generators.  So is closure
    under products; a list without the identity, or with an element
    listed twice, is no group and raises ValueError after every other
    check of the input.
    """
    if elements is None:
        elements = trivial_group(cx.ambient_rank)
    elements = _matrices(elements)
    generators = elements if generators is None else _matrices(generators)
    if not set(generators) <= set(elements):
        raise ValueError("a generator is not an element of the group")
    if mode not in ("canonical", "plain"):
        raise ValueError(f"unknown mode {mode!r}")
    require_valid(cx)
    group_action(cx, generators)  # raises when the action is invalid
    identity = trivial_group(cx.ambient_rank)[0]
    if mode == "plain" and any(m != identity for m in elements):
        raise ValueError("plain mode requires the trivial group")
    if mode == "plain" and not is_simplicial(cx):
        raise ValueError("not simplicial")
    if identity not in elements:
        raise ValueError("the elements are not a group: the identity is missing")
    if len(set(elements)) != len(elements):
        k = next(k for k, m in enumerate(elements) if m in elements[:k])
        raise ValueError(f"the elements are not a group: element {k} is listed twice")

    replay = Replay(cx, generators)
    for _ in replay.resolution(mode):
        pass

    composite = replay.final_composite()
    flags = certificate_flags(cx, generators, replay.cur, composite)
    if not all(flags.values()):
        bad = [k for k, v in flags.items() if not v]
        raise RuntimeError(f"resolution verification failed: {bad}")
    return ResolutionCertificate(
        mode=mode,
        input_complex=cx,
        group=elements,
        stages=tuple(replay.stages),
        composite=composite,
        final=replay.cur,
        flags=flags,
        trace=tuple(replay.trace),
    )
