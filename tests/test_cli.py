import hashlib
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import topoconn.cli as cli_module
import topoconn.plane as plane_module
from topoconn.cli import main

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_command(capsys):
    code, out, _ = run(capsys, "parse", str(DATA / "eq1.fml"))
    assert code == 0
    assert "language: Bci" in out


def test_parse_error_exit(capsys, tmp_path):
    bad = tmp_path / "bad.fml"
    bad.write_text("c(r1) &")
    code, _, err = run(capsys, "parse", str(bad))
    assert code == 2
    assert "expected" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "eval", "--model", str(DATA / "eq3_model.json"), "/no/such.fml")
    assert code == 2
    assert "such.fml" in err


def test_eval_model(capsys):
    code, out, _ = run(
        capsys, "eval", "--model", str(DATA / "eq3_model.json"), str(DATA / "eq3.fml")
    )
    assert code == 0 and out.strip() == "true"


def test_eval_scene(capsys):
    code, out, _ = run(
        capsys, "eval", "--scene", str(DATA / "three_squares.json"), str(DATA / "eq1.fml")
    )
    assert code == 0 and out.strip() == "true"


def test_eval_scene_false_exit(capsys, tmp_path):
    f = tmp_path / "no.fml"
    f.write_text("r1 = r2")
    code, out, _ = run(capsys, "eval", "--scene", str(DATA / "three_squares.json"), str(f))
    assert code == 1 and out.strip() == "false"


def test_eval_needs_exactly_one_input(capsys):
    code, _, err = run(capsys, "eval", str(DATA / "eq1.fml"))
    assert code == 2


def test_oracle(capsys):
    code, out, _ = run(
        capsys, "oracle", "--model", str(DATA / "eq3_model.json"), str(DATA / "eq3.fml")
    )
    assert code == 0 and out.strip() == "true"


def test_solve_finds_hub_model(capsys):
    code, out, _ = run(
        capsys,
        "solve",
        "--class",
        "con",
        "--max-w0",
        "3",
        "--max-w1",
        "1",
        str(DATA / "eq3.fml"),
    )
    assert code == 0
    model = json.loads(out)
    assert len(model["w0"]) == 3
    assert len(model["w1"]) == 1
    assert sorted(model["w1"][0]["succ"]) == sorted(model["w0"])


def test_solve_rcp3_unsat_reports_bounds(capsys):
    code, out, _ = run(
        capsys, "solve-rcp3", "--max-w0", "4", "--max-w1", "4", str(DATA / "eq3.fml")
    )
    assert code == 1
    assert "w0 <= 4" in out and "w1 <= 4" in out


def test_solve_json_flag(capsys):
    code, out, _ = run(
        capsys,
        "--json",
        "solve-rc3",
        "--max-w0",
        "3",
        "--max-w1",
        "3",
        str(DATA / "eq1.fml"),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "sat"
    assert payload["class"] == "con"


def test_gen_outputs_are_stable(capsys):
    code, out1, _ = run(capsys, "gen", "eq3")
    code2, out2, _ = run(capsys, "gen", "eq3")
    assert code == code2 == 0
    assert out1 == out2
    assert out1.strip() == (DATA / "eq3.fml").read_text().strip()


def test_gen_pcp(capsys):
    code, out, _ = run(
        capsys, "gen", "pcp", "--instance", str(DATA / "pcp_small.json")
    )
    assert code == 0
    assert "p1_g_1" in out


def test_gen_all_families(capsys):
    for what in ("phi-inf", "phi-inf-i", "phi-inf-c", "phi-inf-star", "eq1", "eq2"):
        code, out, _ = run(capsys, "gen", what)
        assert code == 0 and out.strip()


# sha256 of what `topoconn gen` prints for each built-in family
GEN_SHA256 = {
    "phi-inf": "32cb8652fa583025472517392c2ceef78ab0eca841473952cd5e77aebdcf2656",
    "phi-inf-i": "a9095be0bd98a1dbd10442bbe85847add8af05f587217e0025d58a7ceb586754",
    "phi-inf-c": "647fef90c11a13b0046eb6c6497a6513a635789617d43f6b576d0cae7bcb1180",
    "phi-inf-star": "ae973dd816454c293b0648b14defb3b3bf20ff3bad7355b6a9388586f648d6e0",
    "eq1": "991245aa9aff36acec39e65b157b5d15b5668f57ff78d2418106742ecfca1c42",
    "eq2": "83d174a41dfaa21f39378912fb02f75a02004df28592532d3db1d4318b1b533a",
    "eq3": "23311c77cfa96e3713c1adb0fd26c5932ad513e81216caf6f4dcfec72025e4b5",
}


def test_gen_output_is_pinned(capsys):
    for what, digest in GEN_SHA256.items():
        code, out, _ = run(capsys, "gen", what)
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest, what


def test_rcc8_command(capsys):
    code, out, _ = run(
        capsys, "rcc8", "--scene", str(DATA / "three_squares.json"), "r1", "r2"
    )
    assert code == 0 and out.strip() == "EC"


def test_rcc8_unknown_region(capsys):
    code, _, err = run(
        capsys, "rcc8", "--scene", str(DATA / "three_squares.json"), "r1", "zz"
    )
    assert code == 2


def test_render(capsys, tmp_path):
    out_file = tmp_path / "scene.svg"
    code, _, err = run(
        capsys, "render", "--scene", str(DATA / "three_squares.json"), "-o", str(out_file)
    )
    assert code == 0
    text = out_file.read_text()
    assert text.startswith("<?xml") and "</svg>" in text


def test_resource_limit_exit(capsys):
    code, _, err = run(
        capsys,
        "solve-rc3",
        "--work-limit",
        "5",
        str(DATA / "eq2.fml"),
    )
    assert code == 3
    assert "limit" in err


def test_gen_pcp_too_deep_is_a_usage_error(capsys, tmp_path):
    # 7 tiles over 2 letters: a conjunction deeper than the interpreter's
    # recursion limit
    tiles = [f"g{i}" for i in range(1, 8)]
    words = ["u", "v", "uv", "vu", "uu", "vv", "u"]
    instance = tmp_path / "pcp7.json"
    instance.write_text(
        json.dumps(
            {
                "tiles": tiles,
                "letters": ["u", "v"],
                "w1": dict(zip(tiles, words)),
                "w2": dict(zip(tiles, reversed(words))),
            }
        )
    )
    code, out, err = run(capsys, "gen", "pcp", "--instance", str(instance))
    assert code == 2
    assert out == ""
    assert err == "error: formula nested too deeply\n"


@pytest.mark.parametrize(
    "gen_args",
    [("phi-inf-star",), ("pcp", "--instance", str(DATA / "pcp_small.json"))],
    ids=["phi-inf-star", "pcp_small"],
)
def test_work_limit_is_honoured_on_many_variables(capsys, tmp_path, gen_args):
    code, out, _ = run(capsys, "gen", *gen_args)
    assert code == 0
    formula = tmp_path / "f.fml"
    formula.write_text(out)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "topoconn.cli", "solve", "--work-limit", "1000",
         str(formula)],
        capture_output=True, text=True, env=env, timeout=10,
    )
    assert proc.returncode == 3, proc.stderr
    assert "work units" in proc.stderr


def test_work_limit_bounds_the_successor_set_list(tmp_path):
    # every level lists 2^max_w0 successor sets; uncharged, this run
    # would double its time and memory per level up to 2^40, so the
    # child gets an address-space cap to fail fast should that return
    formula = tmp_path / "f.fml"
    formula.write_text("a = 0 & !(a = 0)")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    cap = 1 << 30

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(
        [sys.executable, "-m", "topoconn.cli", "solve", "--max-w0", "40",
         "--work-limit", "1000", str(formula)],
        capture_output=True, text=True, env=env, timeout=10, preexec_fn=limit_memory,
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == "resource limit: work limit of 1000 work units exceeded\n"
    cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    assert cpu < 1.0


def test_work_limit_is_honoured_on_disjunctions(tmp_path):
    # 2^20 cubes over 40 variables
    clauses = [f"(c(a{i}) | !c(b{i}))" for i in range(20)]
    formula = tmp_path / "f.fml"
    formula.write_text(" & ".join(clauses + ["a0 != a0"]))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "topoconn.cli", "solve", "--work-limit", "1000",
         str(formula)],
        capture_output=True, text=True, env=env, timeout=5,
    )
    assert proc.returncode == 3, proc.stderr
    assert "work units" in proc.stderr


def test_negative_work_limit_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["solve", "--work-limit", "-5", str(DATA / "eq1.fml")])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert "argument --work-limit: not a nonnegative integer: '-5'" in err


@pytest.mark.parametrize("reader", ["formula", "model", "scene"])
def test_input_that_is_not_utf8_is_a_usage_error(capsys, tmp_path, reader):
    bad = tmp_path / "latin1"
    good = tmp_path / "f.fml"
    good.write_text("c(a)")
    if reader == "formula":
        bad.write_bytes("c(a) # caf\xe9".encode("latin-1"))
        argv = ["parse", str(bad)]
    else:
        bad.write_bytes(b'{"w0": ["x\xff"], "w1": [], "valuation": {}}')
        argv = ["eval", f"--{reader}", str(bad), str(good)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {bad}: not UTF-8 text\n"


_MODEL = {"w0": ["x"], "w1": [], "valuation": {"a": ["x"]}}
_SQUARE = [[0, 0], [1, 0], [1, 1], [0, 1]]
_PCP = json.loads((DATA / "pcp_small.json").read_text())


@pytest.mark.parametrize(
    "args",
    [
        ("eval", "--model", {**_MODEL, "valuation": []}),
        ("eval", "--model", {**_MODEL, "w0": "xy"}),
        ("eval", "--model", {**_MODEL, "w1": [{"id": "z", "succ": "x"}]}),
        ("eval", "--scene", {"regions": []}),
        ("eval", "--scene", {"regions": {"a": {"outer": _SQUARE}}}),
        ("eval", "--scene", {"regions": {"a": [{"outer": _SQUARE, "holes": 5}]}}),
        ("eval", "--scene", {"regions": {"a": [{"outer": [[0, 0], [True, 0], [1, 1], [0, 1]]}]}}),
        ("gen", "pcp", "--instance", []),
        ("gen", "pcp", "--instance", {**_PCP, "w1": {"g": 5, "h": "v"}}),
        ("gen", "pcp", "--instance", {**_PCP, "tiles": "gh"}),
    ],
    ids=[
        "valuation-list", "w0-string", "succ-string", "regions-list",
        "polygon-object", "holes-int", "coordinate-bool", "pcp-list",
        "pcp-word-int", "pcp-tiles-string",
    ],
)
def test_malformed_json_inputs_are_usage_errors(capsys, tmp_path, args):
    *argv, data = args
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    formula = tmp_path / "f.fml"
    formula.write_text("c(a)")
    argv = [*argv, str(path)] + ([str(formula)] if argv[0] == "eval" else [])
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def _json_reader_argv(reader: str, path, tmp_path) -> list[str]:
    if reader == "instance":
        return ["gen", "pcp", "--instance", str(path)]
    formula = tmp_path / "f.fml"
    formula.write_text("c(a)")
    return ["eval", f"--{reader}", str(path), str(formula)]


def test_invalid_json_is_reported_with_its_position(capsys, tmp_path):
    path = tmp_path / "input.json"
    path.write_text("{'regions': {}}")
    for reader in ("model", "scene", "instance"):
        code, out, err = run(capsys, *_json_reader_argv(reader, path, tmp_path))
        assert (code, out, err) == (2, "", f"error: {path}:1:2: invalid JSON\n"), reader


@pytest.mark.parametrize("reader", ["model", "scene", "instance"])
def test_deeply_nested_json_is_a_usage_error(capsys, tmp_path, reader):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    code, out, err = run(capsys, *_json_reader_argv(reader, path, tmp_path))
    assert (code, out, err) == (2, "", f"error: {path}: JSON nested too deeply\n")


@pytest.mark.parametrize(
    "reader, data, message",
    [
        ("model", [], "model file must be a JSON object"),
        ("instance", [], "instance file must be a JSON object"),
    ],
    ids=["model", "instance"],
)
def test_structure_errors_name_the_file(capsys, tmp_path, reader, data, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, *_json_reader_argv(reader, path, tmp_path))
    assert (code, out, err) == (2, "", f"error: {path}: {message}\n")


@pytest.mark.parametrize("verb", ["eval", "rcc8", "render"])
def test_invalid_scenes_are_rejected_naming_the_file(capsys, tmp_path, verb):
    # a bow-tie ring: well-formed JSON, but not a simple polygon
    path = tmp_path / "bow.json"
    path.write_text(json.dumps({"regions": {"r": [{"outer": [[0, 0], [1, 1], [1, 0], [0, 1]]}]}}))
    formula = tmp_path / "f.fml"
    formula.write_text("c(r)")
    svg = tmp_path / "bow.svg"
    argv = {
        "eval": ["eval", "--scene", str(path), str(formula)],
        "rcc8": ["rcc8", "--scene", str(path), "r", "r"],
        "render": ["render", "--scene", str(path), "-o", str(svg)],
    }[verb]
    code, out, err = run(capsys, *argv)
    message = f"error: {path}: region r, polygon 0, outer ring: ring has zero area\n"
    assert (code, out, err) == (2, "", message)
    assert not svg.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--scene", str(DATA / "three_squares.json"), str(DATA / "eq1.fml")],
        ["rcc8", "--scene", str(DATA / "three_squares.json"), "r1", "r2"],
    ],
    ids=["eval", "rcc8"],
)
def test_scene_verbs_validate_once(capsys, monkeypatch, argv):
    calls = []
    original = plane_module.validate_scene

    def counting(scene):
        calls.append(scene)
        return original(scene)

    monkeypatch.setattr(plane_module, "validate_scene", counting)
    monkeypatch.setattr(cli_module, "validate_scene", counting)
    code, _, _ = run(capsys, *argv)
    assert code == 0 and len(calls) == 1
