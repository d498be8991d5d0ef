import json
import os
import random
import subprocess
import sys
from decimal import Decimal, localcontext
from pathlib import Path

import pytest

import exitgraph
from exitgraph import (
    GeometryError,
    certify_general_position,
    exit_edges_bruteforce,
    first_collinearity_morph,
    point,
    random_general_position,
    serialize_points,
    trusted_point_set,
)
from exitgraph.cli import cli
from conftest import grid_sets


def _src_env() -> dict[str, str]:
    """The environment, with this checkout's package first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(exitgraph.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


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
    env = _src_env()
    proc = subprocess.run([sys.executable, "-m", module, "compute", square_file, "--json"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected


def test_small_compute_never_loads_numpy(tmp_path):
    # below 64 points the exact Python scan runs and both writers read its
    # array.array columns
    f = tmp_path / "ten.txt"
    f.write_text(serialize_points(random_general_position(10, random.Random(10))))
    code = (
        "import sys, exitgraph.cli\n"
        f"assert exitgraph.cli.cli(['compute', {str(f)!r}]) == 0\n"
        f"assert exitgraph.cli.cli(['compute', {str(f)!r}, '--json']) == 0\n"
        "assert 'numpy' not in sys.modules, 'numpy was loaded'\n"
    )
    env = _src_env()
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert " exit edges: {" in proc.stdout and '"exit_edges"' in proc.stdout


def test_check_agrees_on_random_input(tmp_path, capsys):
    ps = random_general_position(10, random.Random(42))
    f = tmp_path / "pts.txt"
    f.write_text(serialize_points(ps))
    assert cli(["check", str(f)]) == 0
    out = capsys.readouterr().out
    assert "brute force agrees: yes" in out
    assert "4-hole test agrees: yes" in out


def test_check_refuses_more_than_80_points_up_front(tmp_path, capsys, monkeypatch):
    import exitgraph.cli as climod

    def unreachable(ps):
        raise AssertionError("check ran a method on a refused input")

    for name in ("certify_general_position", "exit_edges_dual", "exit_edges_bruteforce",
                 "exit_edges_via_holes"):
        monkeypatch.setattr(climod, name, unreachable)
    f = tmp_path / "pts.txt"
    f.write_text(serialize_points(random_general_position(81, random.Random(81))))
    assert cli(["check", str(f)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "at most 80 points, not 81" in captured.err
    assert "exitgraph compute" in captured.err


def test_check_refuses_a_large_degenerate_file_by_its_size(tmp_path, capsys):
    f = tmp_path / "pts.txt"
    f.write_text("".join(f"{k} {k}\n" for k in range(200)) + "0 0\n")
    assert cli(["check", str(f)]) == 1
    assert "at most 80 points, not 201" in capsys.readouterr().err


def test_check_accepts_80_points(tmp_path, capsys):
    ps = random_general_position(80, random.Random(80))
    f = tmp_path / "pts.txt"
    f.write_text(serialize_points(ps))
    assert cli(["check", str(f)]) == 0
    out = capsys.readouterr().out
    assert "brute force agrees: yes" in out
    assert "4-hole test agrees: yes" in out


def _scan_corpus():
    """grid_sets files with and without collinear triples, on both scan
    backends and the big-coordinate path, plus duplicates and 1-2 points."""
    sets = [*grid_sets(range(3, 13), seed=31), *grid_sets((64, 77, 90), seed=32),
            *grid_sets((64, 90), seed=33, scale=1 << 40)]
    yield from sets
    for kind, pts in sets[::4]:
        yield "duplicate", pts + [pts[len(pts) // 2]]
    yield from [("one", [(5, 7)]), ("two", [(5, 7), (1, 2)]), ("two equal", [(5, 7), (5, 7)])]


_SCAN_COMMANDS = (["compute"], ["compute", "--json"], ["stats"], ["crossings"],
                  ["render"], ["render", "--dual"])


def _certify_first(points, scan):
    # what the scan commands ran before the scan certified their input
    ps = certify_general_position(points)
    return ps, scan(ps)


def test_scan_commands_certify_as_parse_points_does(tmp_path, capsys, monkeypatch):
    import exitgraph.cli as climod

    f, svg = tmp_path / "pts.txt", tmp_path / "fig.svg"

    def run(argv):
        svg.unlink(missing_ok=True)
        rc = cli(argv)
        out, err = capsys.readouterr()
        return rc, out, err, svg.read_bytes() if svg.exists() else None

    refused = accepted = 0
    for kind, pts in _scan_corpus():
        f.write_text("".join(f"{x} {y}\n" for x, y in pts))
        try:
            certify_general_position(pts)
            error = None
        except GeometryError as err:
            error = err
        for command in _SCAN_COMMANDS:
            argv = [command[0], str(f), *command[1:]]
            if command[0] == "render":
                argv += ["--out", str(svg)]
            got = run(argv)
            if error is not None:
                assert got == (1, "", f"error: {error}\n", None), (kind, argv)
                continue
            with monkeypatch.context() as m:
                m.setattr(climod, "_scan", _certify_first)
                assert got == run(argv), (kind, argv)
        refused += error is not None
        accepted += error is None
    assert refused >= 30 and accepted >= 15, (refused, accepted)


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


def test_over_long_coordinate_is_input_error(tmp_path, capsys):
    f = tmp_path / "long.txt"
    f.write_text(f"0 0\n{'7' * 5000} 1\n2 5\n")
    assert cli(["compute", str(f)]) == 1
    assert capsys.readouterr().err == (
        "error: line 2: a coordinate has a number of 5000 digits, more than the limit of "
        f"{sys.get_int_max_str_digits()} digits\n")


def _buffered_env() -> dict[str, str]:
    """_src_env with Python's default stdout buffering, as users run it."""
    env = _src_env()
    env.pop("PYTHONUNBUFFERED", None)
    return env


def test_closed_pipe_ends_compute_quietly(tmp_path):
    # as under `exitgraph compute big.txt | head -c 300`: 500 points print
    # far more than a 64 KiB pipe buffer, so a write fails once the reader
    # has closed the pipe
    f = tmp_path / "five_hundred.txt"
    f.write_text(serialize_points(random_general_position(500, random.Random(500))))
    proc = subprocess.Popen([sys.executable, "-m", "exitgraph", "compute", str(f)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_buffered_env())
    head = proc.stdout.read(300)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert err == b""
    assert head.split(b": ", 1)[1].startswith(b"{0,")


def test_closed_pipe_ends_buffered_output_quietly(square_file):
    # short output waits in stdout's buffer: its write fails in the flush
    # at the end of the command, and the interpreter's own flush at exit
    # finds nothing left to write
    r, w = os.pipe()
    os.close(r)  # the reader is gone before the first write
    try:
        proc = subprocess.run([sys.executable, "-m", "exitgraph", "stats", square_file],
                              stdout=w, stderr=subprocess.PIPE, env=_buffered_env(), timeout=120)
    finally:
        os.close(w)
    assert (proc.returncode, proc.stderr) == (1, b"")


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


@pytest.mark.parametrize("count", [0, 1, 2])
def test_render_refuses_fewer_than_three_points(count, tmp_path, capsys):
    # both figures give the size error of their scan, before any geometry
    f, out = tmp_path / "few.txt", tmp_path / "fig.svg"
    f.write_text("".join(f"{i} {i * i}\n" for i in range(count)))
    for extra, message in (([], "exit edges need at least 3 points"),
                           (["--dual"], "dual triangle scan needs at least 3 points")):
        assert cli(["render", str(f), "--out", str(out), *extra]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()


def test_morph_reports_event(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("0 0\n4 0\n2 4\n2 1\n")
    b.write_text("0 0\n4 0\n2 4\n2 -1\n")
    assert cli(["morph", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "t = 1/2" in out
    assert "witness 3: yes" in out


@pytest.mark.parametrize("start, target, first", [
    # t = 447/3200 = 0.1396875 exactly: six digits round half-even up,
    # where the float just below it would print 0.139687
    ("0 0\n4 0\n2 1000\n2 447\n", "0 0\n4 0\n2 1000\n2 -2753\n",
     "first collinearity at t = 447/3200 (~0.139688)"),
    # the event at the end of the morph
    ("0 0\n4 0\n2 3\n", "0 0\n4 0\n2 0\n", "first collinearity at t = 1 (~1)"),
], ids=["447/3200", "t=1"])
def test_morph_prints_six_exact_digits(tmp_path, capsys, start, target, first):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text(start)
    b.write_text(target)
    assert cli(["morph", str(a), str(b)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == first


def test_morph_witness_line_matches_bruteforce_lookup(tmp_path, capsys):
    rng = random.Random(79)
    seen = 0
    for k in range(40):
        n = rng.randint(5, 8)
        ps = random_general_position(n, rng)
        span = 4 * n * n
        target = [(rng.randint(0, span), rng.randint(0, span)) for _ in range(n)]
        a_file, b_file = tmp_path / f"a{k}.txt", tmp_path / f"b{k}.txt"
        a_file.write_text(serialize_points(ps))
        b_file.write_text("".join(f"{x} {y}\n" for x, y in target))
        rc = cli(["morph", str(a_file), str(b_file)])
        lines = capsys.readouterr().out.splitlines()
        ev = first_collinearity_morph(ps, [point(x, y) for x, y in target])
        if ev is None or not ev.between:
            assert rc == 0 and not any("exit edge" in line for line in lines)
            continue
        seen += 1
        # reference: look the triple up in the whole brute-force exit graph
        a, b, c = ev.triple
        edges = {e.endpoints: e.witnesses for e in exit_edges_bruteforce(ps)}
        holds = (a, b) in edges and c in edges[(a, b)]
        assert lines[-1] == (f"edge {{{a},{b}}} is an exit edge of the start set with "
                             f"witness {c}: {'yes' if holds else 'NO'}")
        assert rc == (0 if holds else 2)
    assert seen >= 10, seen


def _six_digits(ref: Decimal) -> str:
    """A positive Decimal rounded half-even to six significant digits from
    its exact value, in %g's layout: fixed notation for the exponents
    -4..5 and exponent form otherwise, trailing zeros stripped, e.g.
    0.139688 or 1.14461e-332."""
    mantissa, exponent = format(ref, ".5e").split("e")
    e = int(exponent)
    if -4 <= e < 6:
        text = format(Decimal(f"{mantissa}e{e}"), "f")
        return text.rstrip("0").rstrip(".") if "." in text else text
    return f"{mantissa.rstrip('0').rstrip('.')}e{e:+03d}"


@pytest.mark.parametrize("ref, text", [
    # 447/3200 = 0.1396875 exactly: a decimal tie that rounds up to the
    # even digit, where the float of it, just below, gives 0.139687
    (Decimal(447) / Decimal(3200), "0.139688"),
    # ties round to the even digit, down as well
    (Decimal("0.1396865"), "0.139686"),
    (Decimal("123456.5"), "123456"),
    (Decimal("1234567"), "1.23457e+06"),
    (Decimal("0.00012"), "0.00012"),
    (Decimal("0.0000860757"), "8.60757e-05"),
    (Decimal("1.14461e-332"), "1.14461e-332"),
])
def test_six_digit_reference_rounds_the_exact_value(ref, text):
    assert _six_digits(ref) == text


def test_morph_prints_times_past_the_float_range(tmp_path, capsys):
    # a target scaled by 2^1100 puts the event time's integers past the
    # float range; with the start scaled too, the times are those of the
    # unscaled pair, and with the start unscaled they fall far below the
    # smallest float: either way the printed value has six digits to
    # compare with a 50-digit Decimal reference
    def scaled(ps):
        return trusted_point_set([(p.x * 2 ** 1100, p.y * 2 ** 1100) for p in ps.points])

    rng = random.Random(1100)
    nonzero = tiny = 0
    for k in range(10):
        ps = random_general_position(7, rng)
        target = scaled(random_general_position(7, rng))
        b_file = tmp_path / f"b{k}.txt"
        b_file.write_text(serialize_points(target))
        for start in (ps, scaled(ps)):
            a_file = tmp_path / f"a{k}.txt"
            a_file.write_text(serialize_points(start))
            assert cli(["morph", str(a_file), str(b_file)]) == 0
            t = first_collinearity_morph(start, target.points).time
            with localcontext() as ctx:
                ctx.prec = 50
                ref = (Decimal(t.p) + Decimal(t.q) * Decimal(t.d).sqrt()) / Decimal(t.r)
            approx = _six_digits(ref)
            first = capsys.readouterr().out.splitlines()[0]
            assert first == f"first collinearity at t = {t} (~{approx})"
            nonzero += approx != "0"
            tiny += float(ref) < sys.float_info.min
    assert nonzero == 20 and tiny >= 10, (nonzero, tiny)


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
