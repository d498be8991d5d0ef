import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import exitgraph
from exitgraph import random_general_position, serialize_points
from exitgraph.cli import cli


@pytest.fixture
def square_file(tmp_path):
    f = tmp_path / "square.txt"
    f.write_text("0 0\n1 0\n1 1\n0 1\n")
    return str(f)


@pytest.fixture
def triangle_file(tmp_path):
    f = tmp_path / "tri.txt"
    f.write_text("0 0\n4 0\n2 4\n")
    return str(f)


def test_compute_square(square_file, capsys):
    assert cli(["compute", square_file]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "2 exit edges: {0,2} witnesses {1,3}; {1,3} witnesses {0,2}"


def test_compute_json(square_file, capsys):
    assert cli(["compute", square_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1
    assert doc["exit_edges"][0] == {"endpoints": [0, 2], "witnesses": [1, 3]}


@pytest.mark.parametrize("module", ["exitgraph", "exitgraph.cli"])
def test_python_dash_m_runs_the_cli(square_file, capsys, module):
    assert cli(["compute", square_file, "--json"]) == 0
    expected = capsys.readouterr().out
    env = dict(os.environ)
    src = str(Path(exitgraph.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", module, "compute", square_file, "--json"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected


def test_check_agrees_on_random_input(tmp_path, capsys):
    ps = random_general_position(10, random.Random(42))
    f = tmp_path / "pts.txt"
    f.write_text(serialize_points(ps))
    assert cli(["check", str(f)]) == 0
    out = capsys.readouterr().out
    assert "brute force agrees: yes" in out
    assert "4-hole test agrees: yes" in out


def test_stats_square(square_file, capsys):
    assert cli(["stats", square_file]) == 0
    out = capsys.readouterr().out
    assert "exit edges = 2" in out
    assert "FAIL" not in out


def test_stats_json(square_file, capsys):
    assert cli(["stats", square_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["stats"]["exit_edges"] == 2
    assert all(doc["verdicts"].values())


def test_stats_needs_four_points(triangle_file, capsys):
    assert cli(["stats", triangle_file]) == 1
    assert "at least 4 points" in capsys.readouterr().err


def test_missing_file_is_input_error(capsys):
    assert cli(["compute", "/nonexistent/file.txt"]) == 1
    assert "error:" in capsys.readouterr().err


def test_degenerate_input_is_input_error(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("0 0\n1 1\n2 2\n9 0\n")
    assert cli(["compute", str(f)]) == 1
    assert "collinear" in capsys.readouterr().err


def test_exponent_coordinate_is_input_error(tmp_path, capsys):
    f = tmp_path / "huge.txt"
    f.write_text("0 0\n1e999999999 0\n2 5\n")
    assert cli(["compute", str(f)]) == 1
    assert "line 2" in capsys.readouterr().err


def test_usage_error(capsys):
    assert cli(["novelty"]) == 1
    assert cli([]) == 1


def test_render_both_modes(square_file, tmp_path, capsys):
    out = tmp_path / "fig.svg"
    assert cli(["render", square_file, "--out", str(out)]) == 0
    primal = out.read_text()
    assert primal.count('class="exit-edge"') == 2
    assert cli(["render", square_file, "--out", str(out), "--dual"]) == 0
    assert 'class="exit-vertex"' in out.read_text()


def test_morph_reports_event(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("0 0\n4 0\n2 4\n2 1\n")
    b.write_text("0 0\n4 0\n2 4\n2 -1\n")
    assert cli(["morph", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "t = 1/2" in out
    assert "witness 3: yes" in out


def test_morph_no_event(square_file, capsys):
    assert cli(["morph", square_file, square_file]) == 0
    assert "no collinearity event" in capsys.readouterr().out


def test_compare_same(square_file, capsys):
    assert cli(["compare", square_file, square_file]) == 0
    out = capsys.readouterr().out
    assert "exit structures match: yes" in out
    assert "order types match:     yes" in out


def test_compare_different(square_file, tmp_path, capsys):
    other = tmp_path / "other.txt"
    other.write_text("0 0\n4 0\n2 4\n2 1\n")
    assert cli(["compare", square_file, str(other)]) == 0
    out = capsys.readouterr().out
    assert "exit structures match: no" in out
    assert "order types match:     no" in out


def test_search_deterministic(capsys):
    assert cli(["search", "--n", "9", "--trials", "4", "--seed", "11"]) == 0
    first = capsys.readouterr().out
    assert cli(["search", "--n", "9", "--trials", "4", "--seed", "11"]) == 0
    assert capsys.readouterr().out == first
    assert "lower bound 4" in first


def test_crossings(square_file, capsys):
    assert cli(["crossings", square_file]) == 0
    assert "1 proper crossings" in capsys.readouterr().out


def test_check_disagreement_is_property_violation(square_file, capsys, monkeypatch):
    import exitgraph.cli as climod

    monkeypatch.setattr(climod, "exit_edges_via_holes", lambda ps: frozenset())
    assert cli(["check", square_file]) == 2
    assert "4-hole test agrees: NO" in capsys.readouterr().out
