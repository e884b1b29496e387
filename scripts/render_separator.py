#!/usr/bin/env python3
"""Build a separation-gadget scene around two squares and render it to
SVG, then verify the gadget constraints hold in the plane semantics."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from topoconn.constructions import k5m, k5m_separator
from topoconn.parser import parse
from topoconn.plane import PlaneScene, build_arrangement, plane_eval, rect
from topoconn.render import to_svg


def main():
    out_path = sys.argv[1] if len(sys.argv) > 1 else "separator.svg"
    scene = PlaneScene.make({"b1": [rect(0, 0, 1, 1)], "b2": [rect(4, 0, 5, 1)]})
    curve = [(-1, -1), (2, -1), (2, 2), (-1, 2)]
    extended = k5m_separator(scene, "b1", "b2", curve)
    arr = build_arrangement(extended)
    gadget = k5m(["a1", "a2", "a3", "a4", "a5"])
    print("gadget holds:", plane_eval(arr, gadget))
    print("separated:", plane_eval(arr, parse("!C(a1, a2)")))
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(to_svg(extended))
    print(f"wrote {out_path}")


if __name__ == "__main__":
    main()
