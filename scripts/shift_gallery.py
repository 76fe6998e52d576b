"""Render the rank-k ranges of shift matrices as SVG files.

Writes one figure per (n, k) with the closed-form disc overlaid as a
dashed circle, so approximation quality is visible at a glance.

Usage: python scripts/shift_gallery.py [outdir]
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from hrnr.fileio import region_svg
from hrnr.ranges import rank_k_range
from hrnr.shifts import shift_matrix, shift_radius

CASES = [(3, 1), (5, 1), (5, 2), (8, 2), (8, 3), (12, 4)]
ANGLES = 720


def main():
    outdir = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "gallery")
    outdir.mkdir(parents=True, exist_ok=True)
    for n, k in CASES:
        report = rank_k_range(shift_matrix(n), k, ANGLES)
        radius = shift_radius(n, k)
        closed = "empty" if radius is None else "disc" if radius else "point"
        path = outdir / f"shift_n{n}_k{k}.svg"
        path.write_text(region_svg(report.region, ref_radius=radius or None), encoding="utf-8")
        print(f"{path}  tag={report.region.kind:8s} closed-form={closed}"
              + (f" radius={radius:.6f}" if radius else ""))


if __name__ == "__main__":
    main()
