"""Command-line front end.

Exit status conveys the logical verdict: 0 for satisfiable/true, 1 for
unsatisfiable-up-to-bounds/false, 2 for usage or input errors, 3 when a
resource limit stops the search.  Verdicts go to stdout (JSON with
``--json``), diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import constructions
from .parser import ParseError, parse
from .plane import (
    SceneError,
    UnboundRegionError,
    load_scene,
    plane_check,
    rcc8,
)
from .quasisaw import (
    FrameClass,
    FrameError,
    OracleCapExceeded,
    UnboundVariableError,
    check,
    model_from_json,
    model_to_json,
    oracle_check,
)
from .render import to_svg
from .solver import (
    Bounds,
    ResourceExhausted,
    Sat,
    solve,
    solve_rc3,
    solve_rcp3,
)
from .syntax import Formula, language_of, to_source

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3

_CLASSES = {
    "all": FrameClass.ALL_QS,
    "con": FrameClass.CON_QS,
    "con2": FrameClass.CON_2QS,
}

_GENERATORS = {
    "phi-inf": constructions.phi_inf,
    "phi-inf-i": constructions.phi_inf_i,
    "phi-inf-c": constructions.phi_inf_c,
    "phi-inf-star": constructions.phi_inf_star,
    "eq1": constructions.eq1vs2,
    "eq2": constructions.eq2vs3,
    "eq3": constructions.wiggly,
}


class InputError(Exception):
    pass


def _read_formula(path: str) -> Formula:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror}") from exc
    try:
        return parse(text)
    except ParseError as exc:
        raise InputError(f"{path}:{exc}") from exc


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON") from exc


def _emit(payload: dict, as_json: bool, text: str) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def _verdict_exit(value: bool) -> int:
    return EXIT_TRUE if value else EXIT_FALSE


def _cmd_parse(args) -> int:
    f = _read_formula(args.file)
    lang = language_of(f)
    _emit(
        {"formula": to_source(f), "language": lang.value},
        args.json,
        f"{to_source(f)}\n# language: {lang.value}",
    )
    return EXIT_TRUE


def _solve_common(args, f: Formula, runner) -> int:
    bounds = Bounds(args.max_w0, args.max_w1)
    result = runner(f, bounds)
    if isinstance(result, Sat):
        payload = {
            "verdict": "sat",
            "class": result.witness_class.value,
            "model": model_to_json(result.model),
        }
        _emit(payload, args.json, json.dumps(model_to_json(result.model), indent=2))
        return EXIT_TRUE
    payload = {
        "verdict": "unsat-up-to",
        "max_w0": result.bounds.max_w0,
        "max_w1": result.bounds.max_w1,
        "frames_examined": result.frames_examined,
    }
    _emit(
        payload,
        args.json,
        f"unsat up to bounds (w0 <= {result.bounds.max_w0}, "
        f"w1 <= {result.bounds.max_w1}); {result.frames_examined} work units spent",
    )
    return EXIT_FALSE


def _cmd_solve(args) -> int:
    f = _read_formula(args.file)
    cls = _CLASSES[args.frame_class]
    return _solve_common(
        args, f, lambda g, b: solve(g, cls, b, work_limit=args.work_limit)
    )


def _cmd_solve_rc3(args) -> int:
    f = _read_formula(args.file)
    return _solve_common(
        args, f, lambda g, b: solve_rc3(g, b, work_limit=args.work_limit)
    )


def _cmd_solve_rcp3(args) -> int:
    f = _read_formula(args.file)
    return _solve_common(
        args, f, lambda g, b: solve_rcp3(g, b, work_limit=args.work_limit)
    )


def _cmd_eval(args) -> int:
    f = _read_formula(args.file)
    if (args.model is None) == (args.scene is None):
        raise InputError("eval needs exactly one of --model or --scene")
    if args.model is not None:
        model = model_from_json(_read_json(args.model))
        value = check(model, f)
    else:
        scene = load_scene_checked(args.scene)
        value = plane_check(scene, f)
    _emit({"verdict": value}, args.json, "true" if value else "false")
    return _verdict_exit(value)


def _cmd_oracle(args) -> int:
    f = _read_formula(args.file)
    model = model_from_json(_read_json(args.model))
    value = oracle_check(model, f, cap=args.cap)
    _emit({"verdict": value}, args.json, "true" if value else "false")
    return _verdict_exit(value)


def load_scene_checked(path: str):
    try:
        return load_scene(path)
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror}") from exc
    except (SceneError, json.JSONDecodeError, ValueError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def _cmd_gen(args) -> int:
    if args.what == "pcp":
        if args.instance is None:
            raise InputError("gen pcp needs --instance FILE")
        inst = constructions.pcp_from_json(_read_json(args.instance))
        f = constructions.phi_pcp(inst)
    else:
        if args.instance is not None:
            raise InputError("--instance only applies to gen pcp")
        f = _GENERATORS[args.what]()
    _emit(
        {"formula": to_source(f), "language": language_of(f).value},
        args.json,
        to_source(f),
    )
    return EXIT_TRUE


def _cmd_rcc8(args) -> int:
    scene = load_scene_checked(args.scene)
    rel = rcc8(scene, args.a, args.b)
    _emit({"relation": rel.value}, args.json, rel.value)
    return EXIT_TRUE


def _cmd_render(args) -> int:
    scene = load_scene_checked(args.scene)
    svg = to_svg(scene)
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(svg)
    except OSError as exc:
        raise InputError(f"{args.output}: {exc.strerror}") from exc
    print(f"wrote {args.output}", file=sys.stderr)
    return EXIT_TRUE


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="topoconn",
        description="Reasoning tools for topological constraint formulas "
        "with connectedness predicates.",
    )
    top.add_argument("--json", action="store_true", help="machine-readable verdicts")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a formula, echo canonical form")
    p.add_argument("file")
    p.set_defaults(func=_cmd_parse)

    def add_solver_args(sp):
        sp.add_argument("--max-w0", type=int, default=5, dest="max_w0")
        sp.add_argument("--max-w1", type=int, default=10, dest="max_w1")
        sp.add_argument(
            "--work-limit", type=int, default=10_000_000, dest="work_limit"
        )
        sp.add_argument("file")

    p = sub.add_parser("solve", help="bounded model search")
    p.add_argument(
        "--class",
        dest="frame_class",
        choices=sorted(_CLASSES),
        default="all",
    )
    add_solver_args(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser(
        "solve-rc3",
        help="satisfiability over regular closed sets in dimension >= 3",
    )
    add_solver_args(p)
    p.set_defaults(func=_cmd_solve_rc3)

    p = sub.add_parser(
        "solve-rcp3",
        help="satisfiability over regular closed polyhedra in dimension >= 3",
    )
    add_solver_args(p)
    p.set_defaults(func=_cmd_solve_rcp3)

    p = sub.add_parser("eval", help="evaluate against a model or a scene")
    p.add_argument("--model")
    p.add_argument("--scene")
    p.add_argument("file")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("oracle", help="brute-force semantics on a model")
    p.add_argument("--model", required=True)
    p.add_argument("--cap", type=int, default=14)
    p.add_argument("file")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("gen", help="emit a built-in formula family")
    p.add_argument("what", choices=sorted(list(_GENERATORS) + ["pcp"]))
    p.add_argument("--instance")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("rcc8", help="relation between two scene regions")
    p.add_argument("--scene", required=True)
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=_cmd_rcc8)

    p = sub.add_parser("render", help="render a scene to SVG")
    p.add_argument("--scene", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_render)

    return top


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceExhausted as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (UnboundVariableError, UnboundRegionError) as exc:
        print(f"error: {exc.name} is not bound", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, FrameError, SceneError, OracleCapExceeded, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        print("error: formula nested too deeply", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
