"""Almost-unit triangles exist in both color classes of the strip coloring.

The strip coloring avoids exact unit triangles, but squeeze the tolerance
and both colors give in: for every eps > 0, each class contains a triangle
with all three side lengths within eps of 1. The search takes two points
of opposite color eps/8 apart, one on either side of a boundary line, and
walks the unit circle around each; any same-colored sample pair at the
right chord length closes such a triangle with the nearby off-circle point.
"""

from monotri.colorings import StripColoring
from monotri.geom import distance
from monotri.scan import find_almost_unit

strips = StripColoring(1.0)


def sides(tri):
    return (distance(tri[0], tri[1]), distance(tri[1], tri[2]), distance(tri[2], tri[0]))


for eps in (0.2, 0.1, 0.05, 0.02):
    pair = find_almost_unit(strips, eps, tries=10 ** 5, seed=17)
    assert pair is not None
    bs = sides(pair.black_triangle)
    ws = sides(pair.white_triangle)
    print(f"eps = {eps}:")
    print(f"  black sides: {[round(s, 4) for s in bs]}")
    print(f"  white sides: {[round(s, 4) for s in ws]}")

# On an all-black plane the white class has nothing to offer.
from monotri.colorings import all_black_coloring

print("all-black plane:", find_almost_unit(all_black_coloring(), 0.1,
                                           tries=2000, seed=1))
