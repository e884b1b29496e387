import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
