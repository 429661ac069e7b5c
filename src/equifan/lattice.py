"""Exact integer lattice arithmetic.

Everything here works over arbitrary-precision integers, eliminating
with one fraction-free loop; there is no floating point anywhere.
Vectors are tuples of ints, matrices are tuples of row tuples.

Independent generators are eliminated once: `_dual_basis`, memoised by
the generator tuple, gives D > 0 and rows u_j with u_j . g_i = D * [i == j]
in the span of the generators.  The solves in that basis, the facet
normals and dimension of a simplicial cone (`complexes`), the unimodular
test of a square one (D == 1) and the unimodularity check of a square
cone's Smith form (D == det(G)^2) are read off it.  A solve is integer
throughout (`_integer_solve`); only `solve_in_basis` makes Fractions.

The rows given to the Smith form, the cone index, the congruences, the
parallelepiped points and the solve pass `_rows`, which rejects ragged
input with a ValueError naming the row, so the products behind them pair
entries without checking lengths again.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from itertools import product

Vec = tuple[int, ...]
Mat = tuple[tuple[int, ...], ...]

# Entries kept per process by each memo of the package, all keyed by
# generator tuples: here the dual basis, the simplicial SNF and the first
# parallelepiped point (by the id-sorted tuple and a frame order, so a cone
# is factored once in any order), and the cone duals (`complexes`) and
# wall relations (`orderfun`), so a cone or wall that a subdivision leaves
# untouched keeps its facts
CACHE_SIZE = 4096


def integer_vector(v) -> Vec:
    """The entries of v as ints; ValueError naming the first entry that is
    not equal to an integer (2.0 is 2, 2.5 raises)."""
    v = tuple(v)
    ints = tuple(int(c) for c in v)
    if ints != v:
        raise ValueError(f"entry {next(c for c, i in zip(v, ints) if c != i)!r} is not an integer")
    return ints


def primitive(v) -> Vec:
    """Primitive lattice point on the ray through v (divide out the gcd)."""
    v = integer_vector(v)
    g = math.gcd(*v)
    if g == 0:
        raise ValueError("zero ray")
    return tuple(c // g for c in v)


def _rows(m) -> tuple:
    """m as a tuple of row tuples; ValueError naming the first row whose
    length is not row 0's."""
    rows = tuple(map(tuple, m))
    if len(set(map(len, rows))) > 1:
        i = next(i for i, r in enumerate(rows) if len(r) != len(rows[0]))
        raise ValueError(f"row {i} has {len(rows[i])} entries, row 0 has {len(rows[0])}")
    return rows


def identity_matrix(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m) -> Mat:
    return tuple(zip(*[tuple(r) for r in m])) if m else ()


def mat_vec(m, v) -> Vec:
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in m)


def mat_mul(a, b) -> Mat:
    """a * b, for matrices whose shapes its callers have checked."""
    bt = list(zip(*b))
    return tuple(tuple(sum(map(operator.mul, ra, cb)) for cb in bt) for ra in a)


def det(m) -> int:
    """Exact determinant of a square integer matrix."""
    rows = [list(r) for r in m]
    pivots, sign = _eliminate(rows, len(rows))
    if len(pivots) < len(rows):
        return 0
    return sign * rows[-1][-1] if rows else 1


def is_unimodular(m) -> bool:
    rows = tuple(tuple(r) for r in m)
    return all(len(r) == len(rows) for r in rows) and det(rows) in (1, -1)


# ---------------------------------------------------------------------------
# fraction-free elimination

def _eliminate(rows, ncols):
    """Fraction-free Gauss-Jordan elimination (Bareiss) of integer rows in
    place, over the first ncols columns: every other row is multiplied by
    the pivot and divided exactly by the previous one, so at the end every
    pivot entry is one integer D and rows / D is the reduced row echelon
    form.  Returns the pivot columns (pivot j in row j) and the sign of
    the row permutation."""
    pivots = []
    sign = prev = 1
    for col in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        sign *= -1 if piv != r else 1
        top, p = rows[r], rows[r][col]
        for i, row in enumerate(rows):
            if i != r:
                f = row[col]
                rows[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
        pivots.append(col)
    return pivots, sign


def rank(vectors) -> int:
    """Rank over Q of a list of integer vectors."""
    rows = [list(v) for v in vectors]
    return len(_eliminate(rows, len(rows[0]) if rows else 0)[0])


def _dot(u, v):
    return sum(map(operator.mul, u, v))


@lru_cache(maxsize=CACHE_SIZE)
def _dual_basis(gens: tuple):
    """(D, rows u_j) of independent generators g_i, or None when they are
    dependent; memoised by the generator tuple.

    Fraction-free elimination of [G*G^T | G] ends in D * [I | (G*G^T)^-1 * G],
    so row j of its right block is u_j = G^T * a_j, a_j column j of
    D * (G*G^T)^-1: u_j lies in the span of the generators and
    u_j . g_i = D * [i == j].  D > 0 because G*G^T is positive definite:
    its leading minors, the pivots, are positive, so no row is swapped and
    D = det(G*G^T).  Dependent generators make G*G^T singular, so the
    elimination finds fewer than k pivots.
    """
    k = len(gens)
    rows = [[_dot(g, h) for h in gens] + list(g) for g in gens]
    if len(_eliminate(rows, k)[0]) < k:
        return None
    return (rows[0][0] if rows else 1), tuple(tuple(row[k:]) for row in rows)


def _integer_solve(gens: tuple, p):
    """(numerators n_j, D) with p = sum (n_j / D) * gens_j for an integer
    point p, or None when p is not in the span of gens.  Raises
    ValueError when gens are dependent ("not simplicial") or p's length
    is not theirs.

    The numerators are read off the memoised dual basis (`_dual_basis`):
    n_j = u_j . p.  When gens span less than the ambient space, p is in
    their span exactly when sum n_j * gens_j = D * p.
    """
    if gens and len(p) != len(gens[0]):
        raise ValueError(f"point has {len(p)} entries, generators have {len(gens[0])}")
    basis = _dual_basis(gens)
    if basis is None:
        raise ValueError("not simplicial")
    D, us = basis
    dots = [_dot(u, p) for u in us]
    if len(gens) < len(p) and any(
        sum(d * g[i] for d, g in zip(dots, gens)) != D * c for i, c in enumerate(p)
    ):
        return None
    return dots, D


def solve_in_basis(gens, x):
    """Solve x = sum c_j * gens_j exactly.

    Returns the tuple of Fraction coefficients, or None when x (integer
    or rational) is not in the span of gens.  Raises ValueError when gens
    are dependent ("not simplicial"), ragged, or x's length is not theirs,
    and naming the first entry of x that is neither an int nor a Fraction.
    The integer point den * x, den the lcm of x's denominators, is solved
    by `_integer_solve`: c_j = n_j / (D * den).
    """
    try:
        den = math.lcm(*[c.denominator for c in x])
    except AttributeError:
        bad = next(c for c in x if not hasattr(c, "denominator"))
        raise ValueError(f"entry {bad!r} is not an int or a Fraction") from None
    solved = _integer_solve(_rows(gens), [int(c * den) for c in x])
    if solved is None:
        return None
    dots, D = solved
    return tuple(Fraction(c, D * den) for c in dots)


def rational_nullspace(vectors, n=None):
    """Primitive integer basis of {u : v . u = 0 for all v in vectors}."""
    if not vectors and n is None:
        raise ValueError("ambient dimension required for empty input")
    ncols = n if n is not None else len(vectors[0])
    rows = [list(v) for v in vectors]
    pivots, _ = _eliminate(rows, ncols)
    D = rows[0][pivots[0]] if pivots else 1
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        vec = [0] * ncols
        vec[fc] = D
        for row, col in enumerate(pivots):
            vec[col] = -rows[row][fc]
        basis.append(primitive(c if D > 0 else -c for c in vec))
    return basis


# ---------------------------------------------------------------------------
# Smith normal form

def _swap_rows(a, u, i, j):
    a[i], a[j] = a[j], a[i]
    u[i], u[j] = u[j], u[i]


def _swap_cols(a, v, i, j):
    for row in a:
        row[i], row[j] = row[j], row[i]
    for row in v:
        row[i], row[j] = row[j], row[i]


def _add_row(a, u, dst, src, q):
    # row_dst += q * row_src
    a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
    u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]


def _add_col(a, v, dst, src, q):
    for row in a:
        row[dst] += q * row[src]
    for row in v:
        row[dst] += q * row[src]


def smith_normal_form(m):
    """Smith normal form of an integer matrix.

    Returns (D, U, V) with U*M*V = D, D diagonal with d_i | d_{i+1} and
    U, V unimodular.  The contract is checked on every call: U*M*V = D by
    exact multiplication, D diagonal, its diagonal a divisor chain, and
    U and V unimodular.  Ragged rows raise ValueError.  Not memoised: its
    one caller, `_simplicial_snf`, is.

    Unimodularity of a nonsingular square M takes no determinant.  With
    D diagonal, det(U) * det(M) * det(V) = prod d_i, and the dual basis
    of M's rows (`_dual_basis`, memoised, so already taken by
    `_simplicial_snf`) holds det(M * M^T) = det(M)^2.  So
    (prod d_i)^2 == det(M)^2 != 0 is det(U)^2 * det(V)^2 = 1, and U and V,
    being integer matrices, have determinants +-1.  A singular square M
    (prod d_i = 0 says nothing about U and V) and a non-square M take
    both determinants.
    """
    M = _rows(integer_vector(row) for row in m)
    D, U, V = _snf_reduce(M)
    if mat_mul(mat_mul(U, M), V) != D:
        raise RuntimeError("SNF contract violated: U*M*V != D")
    if any(x for i, row in enumerate(D) for j, x in enumerate(row) if i != j):
        raise RuntimeError("SNF contract violated: D is not diagonal")
    nrows, ncols = len(M), len(M[0]) if M else 0
    diag = [D[i][i] for i in range(min(nrows, ncols))]
    volume = math.prod(diag) if nrows == ncols else 0
    if volume:  # M is square and nonsingular
        unimodular = volume * volume == _dual_basis(M)[0]
    else:
        unimodular = is_unimodular(U) and is_unimodular(V)
    if not unimodular:
        raise RuntimeError("SNF contract violated: U or V is not unimodular")
    for x, y in zip(diag, diag[1:]):
        if not (y % x == 0 if x != 0 else y == 0):
            raise RuntimeError("SNF contract violated: diagonal is not a divisor chain")
    return D, U, V


def _snf_reduce(M: Mat):
    """(D, U, V) with U*M*V = D diagonal, d_i | d_{i+1} and U, V
    unimodular, by row and column operations on a rectangular M;
    `smith_normal_form` checks the result."""
    nrows = len(M)
    ncols = len(M[0]) if nrows else 0
    a = [list(r) for r in M]
    u = [list(r) for r in identity_matrix(nrows)]
    v = [list(r) for r in identity_matrix(ncols)]

    t = 0
    while t < min(nrows, ncols):
        # choose the nonzero entry of smallest magnitude as pivot
        pivot = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if a[i][j] != 0 and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        while True:
            i, j = pivot
            if i != t:
                _swap_rows(a, u, t, i)
            if j != t:
                _swap_cols(a, v, t, j)
            p = a[t][t]
            dirty = False
            for i in range(t + 1, nrows):
                if a[i][t] != 0:
                    _add_row(a, u, i, t, -(a[i][t] // p))
                    if a[i][t] != 0:
                        dirty = True
            for j in range(t + 1, ncols):
                if a[t][j] != 0:
                    _add_col(a, v, j, t, -(a[t][j] // p))
                    if a[t][j] != 0:
                        dirty = True
            if not dirty:
                # pivot must divide the remaining block for the divisor chain
                culprit = None
                for i in range(t + 1, nrows):
                    for j in range(t + 1, ncols):
                        if a[i][j] % p != 0:
                            culprit = i
                            break
                    if culprit is not None:
                        break
                if culprit is None:
                    break
                _add_row(a, u, t, culprit, 1)
            pivot = min(
                ((i, j) for i in range(t, nrows) for j in range(t, ncols) if a[i][j] != 0),
                key=lambda ij: abs(a[ij[0]][ij[1]]),
            )
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1

    return tuple(tuple(r) for r in a), tuple(tuple(r) for r in u), tuple(tuple(r) for r in v)


def cone_index(gens) -> int:
    """Lattice index of a simplicial cone: the product of its elementary
    divisors.

    The index of the subgroup generated by gens inside the saturation of
    their span; 1 exactly when the generators extend to a basis of the
    ambient lattice intersected with the span.
    """
    divs, _ = _simplicial_snf(_rows(gens))
    return math.prod(divs)


@lru_cache(maxsize=CACHE_SIZE)
def _simplicial_snf(gens: tuple):
    """(divisors d_j, rows of U) of a Smith form U*G*V = D of independent
    gens, memoised by the generator tuple; ValueError ("not simplicial")
    when the memoised dual basis finds them dependent.

    A square G with det(G) = +-1 is unimodular, so U = I, V = G^-1 and
    D = I is a Smith form of it.  The dual basis's D is det(G*G^T) =
    det(G)^2, so D == 1 gives the divisors (1, ...) with no further
    elimination and without the checked SNF, which every other cone takes.
    """
    k = len(gens)
    n = len(gens[0]) if gens else 0
    basis = _dual_basis(gens)
    if basis is None:
        raise ValueError("not simplicial")
    if k == n and basis[0] == 1:
        return (1,) * k, identity_matrix(k)
    D, U, _ = smith_normal_form(gens)
    return tuple(D[i][i] for i in range(k)), U


def integrality_congruences(gens):
    """The SNF integrality test of a simplicial cone: rows (u, d) with d > 1.

    A function linear on the cone with integer values v at the generators
    is integral at every lattice point of the cone exactly when d divides
    u . v for every row.  With U*G*V = D the parallelepiped points are the
    reductions of sum_j (t_j / d_j) * (U*G)_j, whose values are
    sum_j t_j * (U*v)_j / d_j.
    """
    divs, U = _simplicial_snf(_rows(gens))
    return tuple((U[j], d) for j, d in enumerate(divs) if d > 1)


def parallelepiped_points(gens):
    """Nonzero lattice points in the half-open fundamental parallelepiped.

    Returns [(point, coords), ...] where point = sum a_i * gens_i with
    all a_i in [0, 1), sorted lexicographically by the coordinate tuple.
    The list has exactly cone_index(gens) - 1 entries.

    Enumeration goes through the SNF quotient group rather than a
    bounding-box scan, so the cost is proportional to the index.  This is
    the public listing and the oracle of `_first_point`, which finds the
    first entry without listing the others.
    """
    gens = _rows(gens)
    k = len(gens)
    n = len(gens[0]) if gens else 0
    divs, U = _simplicial_snf(gens)
    points = []
    for t in product(*[range(d) for d in divs]):
        if all(ti == 0 for ti in t):
            continue
        # coset representative in generator coordinates: a = (t_i/d_i) . U
        s = [Fraction(ti, di) for ti, di in zip(t, divs)]
        a = [sum(s[i] * U[i][j] for i in range(k)) for j in range(k)]
        coords = tuple(x - (x.numerator // x.denominator) for x in a)
        w = []
        for j in range(n):
            c = sum(coords[i] * gens[i][j] for i in range(k))
            if c.denominator != 1:
                raise RuntimeError(
                    f"parallelepiped contract violated: {coords} gives a non-lattice point"
                )
            w.append(int(c))
        points.append((tuple(w), coords))
    points.sort(key=lambda pc: pc[1])
    if len(points) != cone_index(gens) - 1:
        raise RuntimeError("parallelepiped contract violated: point count is not index - 1")
    return points


def _xgcd(a, b):
    """(g, x, y) with g = gcd(a, b) = x * a + y * b, for a > 0 and b >= 0."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


@lru_cache(maxsize=CACHE_SIZE)
def _first_point(gens: tuple, order: tuple | None = None):
    """parallelepiped_points(gens taken in `order`)[0], or None when the
    index is 1, without listing the points; `order` lists positions into
    gens (gens' own order when None).  Memoised by gens and order.

    The coordinates a with sum a_i * gens_i integral form a lattice with
    basis rows (1 / d_j) * U_j (U*G*V = D).  Scaled by L = lcm(d) it is an
    integer lattice holding L * Z^k, put here in upper-triangular echelon
    (Hermite) form modulo L: at each column the pivot row carries the gcd
    g of the column's entries and L, the other rows are cleared by it, and
    (L / g) times it joins them.  A nonzero point mod 1 with a_i = 0 for
    i < p exists exactly when a pivot from column p on is below L.  So the
    first point is zero before the last column p whose pivot is below L,
    and, every later pivot being L, it is that pivot row / L mod 1.

    The Smith form is the one memoised for gens (`_simplicial_snf`), so a
    cone is factored once whatever order its points are asked in.  With P
    the permutation putting the generators in `order`, (U*P^-1)*(P*G)*V = D
    is a Smith form of the reordered generators: U's columns and the
    generators are permuted into `order`, and so is each point's
    coordinate tuple.  The lex-first nonzero point belongs to the lattice
    of coordinate vectors, not to the U that spans it, so the answer is
    parallelepiped_points(P*G)[0] whichever valid U was used.
    """
    divs, U = _simplicial_snf(gens)
    if order is not None:
        U = tuple(tuple(u[i] for i in order) for u in U)
        gens = tuple(gens[i] for i in order)
    L = divs[-1] if divs else 1
    k = len(gens)
    rows = [[L // d * x % L for x in u] for u, d in zip(U, divs) if d > 1]
    first = None
    for col in range(k):
        piv, g = [0] * k, L  # L * e_col, which is 0 mod L off col
        for row in rows:
            if row[col]:
                g, x, y = _xgcd(g, row[col])
                piv = [(x * a + y * b) % L for a, b in zip(piv, row)]
        if g == L:
            continue
        first = piv  # zero before col, as every row is
        rows = [[(a - row[col] // g * b) % L for a, b in zip(row, piv)] for row in rows]
        rows = [row for row in rows + [[L // g * b % L for b in piv]] if any(row)]
    if first is None:
        return None
    w = [sum(a * gen[j] for a, gen in zip(first, gens)) for j in range(len(gens[0]))]
    if any(c % L for c in w):
        raise RuntimeError(f"parallelepiped contract violated: {first} / {L} gives a non-lattice point")
    return tuple(c // L for c in w), tuple(Fraction(a, L) for a in first)
