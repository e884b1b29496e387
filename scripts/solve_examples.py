#!/usr/bin/env python3
"""Run the bounded solver on the three running example formulas and
print the certificates: where each is satisfiable over regular closed
sets (dimension >= 3) and over polyhedra, and where the search refutes
it up to the default bounds."""

import json
import sys
import time

sys.path.insert(0, "src")

from topoconn.constructions import eq1vs2, eq2vs3, wiggly
from topoconn.quasisaw import model_to_json
from topoconn.solver import Bounds, Sat, solve_rc3, solve_rcp3
from topoconn.syntax import to_source


def report(name, formula, bounds_rc, bounds_rcp):
    print(f"== {name}: {to_source(formula)}")
    for label, runner, bounds in (
        ("regular closed sets, dim >= 3", solve_rc3, bounds_rc),
        ("regular closed polyhedra, dim >= 3", solve_rcp3, bounds_rcp),
    ):
        start = time.time()
        result = runner(formula, bounds)
        elapsed = time.time() - start
        if isinstance(result, Sat):
            model = model_to_json(result.model)
            print(f"  {label}: satisfiable ({elapsed:.2f}s)")
            print(f"    model: {json.dumps(model)}")
        else:
            print(
                f"  {label}: no model up to (w0 <= {bounds.max_w0}, "
                f"w1 <= {bounds.max_w1}), {result.frames_examined} work units "
                f"({elapsed:.2f}s)"
            )
    print()


def main():
    report("eq1 (three mutual neighbours)", eq1vs2(), Bounds(3, 3), Bounds(3, 3))
    report("eq2 (five mutual neighbours)", eq2vs3(), Bounds(5, 10), Bounds(5, 10))
    report("eq3 (pinched sums)", wiggly(), Bounds(3, 1), Bounds(6, 8))


if __name__ == "__main__":
    main()
