"""Strip colorings and the unit triangle.

The alternating half-open strip coloring with strips of height sqrt(3)/2
never places all three corners of a unit equilateral triangle in one color
class: a unit triangle is exactly as tall as one strip, so some corner
always lands across a boundary. This script queries the coloring, runs a
placement scan that fails to find a monochromatic copy, finds a copy of a
smaller triangle that does fit inside a strip, and renders the picture.
"""

import os

from monotri import Point, Region, TriangleSpec
from monotri.colorings import StripColoring
from monotri.scan import ScanGrid, avoidance_scan, find_monochromatic_copy
from monotri.render import RenderSpec, render_svg

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

strips = StripColoring(scale=1.0, boundary_rule="upper-closed")

# Point queries: black strips are open below and closed above.
for p in (Point(0.0, 0.2), Point(5.3, 1.0), Point(0.0, 0.0)):
    print(f"color at ({p.x}, {p.y}): {strips.color_at(p).value}")

# Scan a million-ish placements of the unit triangle: none is monochromatic.
grid = ScanGrid(Region(0, 0, 10, 10), position_step=0.1, angle_count=24)
report = avoidance_scan(strips, TriangleSpec(1, 1, 1), grid)
print(f"unit triangle: {report.monochromatic_count} monochromatic placements "
      f"out of {report.placements_tested}")

# A smaller equilateral triangle fits strictly inside one black strip.
small = TriangleSpec(0.8, 0.8, 0.8)
witness = find_monochromatic_copy(strips, small, grid, min_margin=0.01)
print(f"(0.8)^3 witness: color={witness.color.value}, margin={witness.margin:.3f}")
print("vertices:", [(round(v.x, 3), round(v.y, 3)) for v in witness.vertices])

svg = render_svg(RenderSpec(strips, Region(0, 0, 4, 4), pixels_per_unit=80,
                            witness=witness.to_dict(small)))
path = os.path.join(OUT, "strip_coloring.svg")
with open(path, "w") as fh:
    fh.write(svg)
print("wrote", os.path.relpath(path, os.path.dirname(OUT)))
