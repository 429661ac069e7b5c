"""Tour of complexes and subdivisions.

Builds a few classic fans, validates them, and walks through star and
barycentric subdivision, including the edge <-> cone correspondence.
Run directly: python demos/01_complexes_and_subdivisions.py
"""

from equifan import (
    Complex,
    barycentric_edge_bijection,
    barycentric_subdivision,
    is_simplicial,
    is_smooth,
    is_subdivision,
    star_subdivide,
    validate_complex,
)

# The fan of the projective plane: three rays, three 2-cones.
p2 = Complex.from_maximal_cones(2, [(1, 0), (0, 1), (-1, -1)], [[0, 1], [1, 2], [2, 0]])
print("P2 fan:", p2)
print("valid:", validate_complex(p2).ok)
print("simplicial:", is_simplicial(p2), " smooth:", is_smooth(p2))

# Star subdivision at (1,1) splits the first quadrant in two.
st = star_subdivide(p2, (1, 1))
print("\nafter star at (1,1):", st)
print("is a subdivision of the fan:", bool(is_subdivision(st, p2)))

# Barycentric subdivision doubles every 2-cone.
b = barycentric_subdivision(p2)
print("\nbarycentric subdivision:", b)
print("maximal cones:", len(b.maximal_cones), " (expected 6)")

# Each new ray is the barycenter of exactly one positive-dimensional cone.
bij = barycentric_edge_bijection(p2, b)
print("\nedge <-> cone correspondence:")
for rid in sorted(bij):
    host = sorted(bij[rid])
    print(f"  ray {b.rays[rid]}  <->  cone spanned by rays {host} (dim {p2.dim(bij[rid])})")

# Barycentric subdivision also simplicializes; the cone over a square is
# the smallest non-simplicial example.
square = Complex.from_maximal_cones(
    3, [(1, 1, 1), (-1, 1, 1), (-1, -1, 1), (1, -1, 1)], [[0, 1, 2, 3]]
)
bs = barycentric_subdivision(square)
print("\ncone over a square:", square)
print("its barycentric subdivision is simplicial:", is_simplicial(bs))
print("pieces:", len(bs.maximal_cones), " rays:", len({i for c in bs.cones for i in c}))
