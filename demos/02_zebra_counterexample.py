"""A zebra coloring whose boundary is genuinely bent, yet avoids the unit triangle.

Zebra colorings generalize the strip coloring: the boundary is a family of
congruent 1-periodic curves, consecutive curves offset by half a unit along
the period direction and sqrt(3)/2 across it, with bands alternating in
color. The structural conditions (a)-(d) -- periodicity, the translation
law, alternation, and the distance/angle law "|AB| > 1 iff the angle of AB
with the period direction is under pi/3" -- guarantee that the boundary
recoloring which paints even curves black yields a coloring with no
monochromatic unit triangle at all.

The zigzag profile below bends the boundary (it is not a union of straight
lines, so this is not a strip coloring in disguise), passes all four
conditions, and a million-placement scan finds nothing monochromatic.
A taller sawtooth violates condition (d) and the checker exhibits the
offending pair of boundary points.
"""

import os

from monotri import Region, TriangleSpec
from monotri.colorings import ZebraColoring, ZebraProfile, check_zebra_conditions
from monotri.scan import ScanGrid, avoidance_scan
from monotri.render import RenderSpec, render_svg

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

zigzag = ZebraColoring(ZebraProfile(((0.0, 0.0), (0.5, 0.1), (1.0, 0.0))),
                       parity_rule="even-black", boundary_parity="even-black")

report = check_zebra_conditions(zigzag)
print("zigzag conditions:", {k: v for k, v in report.to_dict().items()
                             if k in "abcd"})
print(f"  ({report.pairs_checked} piece pairs, "
      f"{report.candidates_checked} lens candidates checked)")

grid = ScanGrid(Region(0, 0, 10, 10), position_step=0.1, angle_count=24)
scan = avoidance_scan(zigzag, TriangleSpec(1, 1, 1), grid)
print(f"unit-triangle scan: {scan.monochromatic_count} monochromatic of "
      f"{scan.placements_tested} placements")

# The twin that recolors boundary curves the other way behaves identically
# off the boundary.
twin = zigzag.twin("even-white")
print("twin differs only on the curves; conditions still:",
      check_zebra_conditions(twin).d_ok)

# A sawtooth of amplitude 0.8 breaks the distance/angle law.
sawtooth = ZebraColoring(ZebraProfile(((0.0, 0.0), (0.5, 0.8), (1.0, 0.0))))
bad = check_zebra_conditions(sawtooth)
w = bad.witness
print(f"sawtooth condition (d): {'pass' if bad.d_ok else 'fail'} -- "
      f"witness pair at distance {w.dist:.3f} with angle {w.theta:.3f} rad")

svg = render_svg(RenderSpec(zigzag, Region(0, 0, 5, 5), pixels_per_unit=70))
path = os.path.join(OUT, "zebra_zigzag.svg")
with open(path, "w") as fh:
    fh.write(svg)
print("wrote", os.path.relpath(path, os.path.dirname(OUT)))
