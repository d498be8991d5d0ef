import json
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from exitgraph import (
    CollinearTripleError,
    DuplicatePointError,
    ExitGraph,
    PointSyntaxError,
    build_report,
    certify_general_position,
    exit_edges_dual,
    parse_point_list,
    parse_points,
    point,
    random_general_position,
    render_json,
    render_svg,
    serialize_points,
    stats_report,
    trusted_point_set,
)
from exitgraph.cli import cli
from exitgraph.pointfile import format_coordinate
from exitgraph.svg import format_number
from conftest import mixed_sets, random_sets


def test_parse_triangle():
    ps = parse_points("0 0\n4 0\n2 4\n")
    assert [tuple(p) for p in ps.points] == [(0, 0), (4, 0), (2, 4)]


def test_parse_rationals_comments_blanks():
    text = "# header\n-3/5 2/7\n\n1 1  # trailing note\n0 3\n"
    ps = parse_points(text)
    assert ps[0] == point(Fraction(-3, 5), Fraction(2, 7))
    assert len(ps) == 3


def test_parse_syntax_error_carries_line_number():
    with pytest.raises(PointSyntaxError) as err:
        parse_points("0 0\n1 1 1\n")
    assert err.value.line_number == 2


def test_parse_certification_failure():
    with pytest.raises(CollinearTripleError) as err:
        parse_points("0 0\n1 1\n2 2\n9 0\n")
    assert err.value.labels == (0, 1, 2)


def test_parse_rejects_exponent_notation_promptly():
    # Fraction() would expand 10**999999999 before any check could run
    for text in ("1e999999999 0\n", "0 0\n2 -3E999999999\n"):
        with pytest.raises(PointSyntaxError) as err:
            parse_point_list(text)
        assert err.value.line_number == text.count("\n")
        assert "exponent" in str(err.value)


def test_parse_decimals_still_accepted():
    assert parse_point_list("0.5 -1.25\n") == [point(Fraction(1, 2), Fraction(-5, 4))]


# integer tokens take int(); every other form must still reach Fraction
_TOKENS = ["0", "-0", "007", "-12", "9" * 40, "-" + "9" * 40, "1" * 5000, "-" + "1" * 5000,
           "+5", "--5", "-", "5-", "1_000", "-1_000", "\u0663", "-\u0663", "\u00b2",
           "\uff17", "0.5", "-.5", "3/6", "-3/6", "1/0", "abc"]


@pytest.mark.parametrize("token", _TOKENS)
def test_parse_integer_fast_path_matches_fraction_parse(token):
    try:
        value = Fraction(token)
    except (ValueError, ZeroDivisionError) as err:
        if "1" * 5000 in token:  # past int()'s digit limit, reworded
            err = _over_limit(5000)
        for text, line in ((f"{token} 1\n", 1), (f"0 0\n2 {token}\n", 2)):
            with pytest.raises(PointSyntaxError) as got:
                parse_point_list(text)
            assert str(got.value) == f"line {line}: {err}"
    else:
        assert parse_point_list(f"{token} 1\n") == [point(value, 1)]
        assert parse_point_list(f"0 0\n2 {token}\n")[1] == point(2, value)
        got = parse_point_list(f"{token} {token}\n")[0]
        assert type(got.x) is type(got.y) is Fraction


def _over_limit(digits):
    return (f"a coordinate has a number of {digits} digits, "
            f"more than the limit of {sys.get_int_max_str_digits()} digits")


@pytest.mark.parametrize("token, digits", [
    ("8" * 4400, 4400),
    ("-" + "8" * 5000 + "/3", 5000),
    ("1/" + "3" * 4301, 4301),
    ("0." + "5" * 6000, 6000),
    ("1_" * 4300 + "1", 4301),  # int() counts the digits, not the underscores
], ids=["integer", "numerator", "denominator", "decimal", "underscores"])
def test_parse_names_the_digit_limit(token, digits):
    # int() refuses more than sys.get_int_max_str_digits() digits with a
    # message naming a call that a point file cannot make
    for text, line in ((f"{token} 1\n", 1), (f"0 0\n# x\n\n2 {token}\n", 4)):
        with pytest.raises(PointSyntaxError) as got:
            parse_point_list(text)
        assert str(got.value) == f"line {line}: {_over_limit(digits)}"
        assert got.value.line_number == line


def test_parse_reads_coordinates_at_the_digit_limit_exactly():
    limit = sys.get_int_max_str_digits()
    big = 10 ** limit - 1  # limit nines
    text = f"{'9' * limit} -{'9' * limit}\n1/{'9' * limit} 0.{'9' * limit}\n"
    assert parse_point_list(text) == [
        point(big, -big), point(Fraction(1, big), Fraction(big, big + 1))]


def test_parse_error_without_a_digit_limit(monkeypatch):
    # Python 3.10.0-3.10.6 has no sys.get_int_max_str_digits: a malformed
    # coordinate still gets its line number, not an AttributeError
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    for token in ("abc", "2/x"):
        with pytest.raises(PointSyntaxError) as got:
            parse_point_list(f"0 0\n1 {token}\n")
        assert got.value.line_number == 2


def test_parse_point_list_allows_degenerate():
    pts = parse_point_list("0 0\n1 1\n2 2\n")
    assert len(pts) == 3


def test_round_trip_identity(six_points):
    assert parse_points(serialize_points(six_points)) == six_points
    for ps in random_sets(10, 3, 9, seed=1616):
        text = serialize_points(ps)
        assert parse_points(text) == ps
        assert serialize_points(parse_points(text)) == text


def test_round_trip_rational_coordinates(six_points):
    ps = certify_general_position(
        [(Fraction(-3, 5), Fraction(2, 7)), (1, 1), (0, 3)])
    assert parse_points(serialize_points(ps)) == ps
    assert serialize_points(ps) == "-3/5 2/7\n1 1\n0 3\n"
    from exitgraph import shear_to_generic

    sheared, lam = shear_to_generic(six_points)
    assert lam == Fraction(1, 2)  # x collisions force a non-integer shear
    assert parse_points(serialize_points(sheared)) == sheared


def test_coordinate_text_from_a_grid_with_scale():
    # scale 42; each coordinate reduces to its own lowest terms
    ps = certify_general_position(
        [(Fraction(1, 6), Fraction(-5, 7)), (3, Fraction(2, 3)), (Fraction(-8, 14), 0)])
    assert ps.scale == 42
    texts = [["1/6", "-5/7"], ["3", "2/3"], ["-4/7", "0"]]
    assert serialize_points(ps) == "".join(f"{x} {y}\n" for x, y in texts)
    doc = build_report(ps, exit_edges_dual(ps))
    assert doc["points"] == texts
    assert json.loads(render_json(doc))["points"] == texts
    big = 2 ** 1100
    ps = certify_general_position([(Fraction(big, 3), 1), (0, Fraction(1, big)), (5, 5)])
    assert serialize_points(ps) == f"{big}/3 1\n0 1/{big}\n5 5\n"


def test_format_number_significant_digits():
    assert format_number(Fraction(1, 3)) == "0.33333333333333333333"
    assert format_number(Fraction(-1, 2)) == "-0.5"
    assert format_number(Fraction(0)) == "0"
    assert format_number(Fraction(10, 2)) == "5"


# numerators and denominators: small, past 20 digits, and around 2^+-1100
_numerators = st.one_of(st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 45, 10 ** 45),
                        st.builds(lambda m, e: m << e, st.integers(-10 ** 6, 10 ** 6),
                                  st.integers(1000, 1100)))
_denominators = st.one_of(st.integers(1, 10 ** 6), st.integers(1, 10 ** 45),
                          st.builds(lambda m, e: m << e, st.integers(1, 10 ** 6),
                                    st.integers(1000, 1100)))


@given(_numerators, _numerators, _denominators, st.integers(1, 10 ** 25))
@example(2 ** 1100, 0, 1, 1)
@example(-(2 ** 1100), 1, 3, 7)
@example(1, -(2 ** 1100), 2 ** 1100, 1)
@example(0, 0, 5, 10 ** 22)
@example(-10 ** 25, 10 ** 25, 3, 1)
def test_ratio_text_matches_the_frozen_formatter(x, y, w, factor):
    # reduced or not, the text is that of the frozen writer's
    # format_number on the Fraction, for a homogeneous point too
    import reference_svg
    from exitgraph.svg import _point_text, _ratio_text

    ref = reference_svg.format_number
    expected = ref(Fraction(x, w))
    assert _ratio_text(x, w) == expected
    assert _ratio_text(x * factor, w * factor) == expected
    assert format_number(Fraction(x, w)) == expected
    assert _point_text(x * factor, y * factor, w * factor) == f"{expected},{ref(Fraction(-y, w))}"


@given(st.integers(10 ** 19, 10 ** 20 - 1), st.integers(-40, 40), st.integers(1, 10 ** 25),
       st.sampled_from([1, -1]))
@example(10 ** 20 - 1, 0, 1, 1)  # rounds up to 21 digits
@example(10 ** 19, -1100, 3, -1)
def test_ratio_text_rounds_exact_ties_half_to_even(head, shift, factor, sign):
    # head * 10 + 5 has 21 significant digits and ends in 5: an exact tie
    # at the 20th digit, which goes to the even neighbour of head
    import reference_svg
    from exitgraph.svg import _ratio_text

    tie = sign * (head * 10 + 5)
    num, den = (tie * 10 ** shift, 1) if shift >= 0 else (tie, 10 ** -shift)
    text = _ratio_text(num * factor, den * factor)
    assert text == reference_svg.format_number(Fraction(num, den))
    kept = head + head % 2
    assert Fraction(text) == sign * kept * Fraction(10) ** (shift + 1)


def test_render_is_deterministic(unit_square, six_points):
    for ps in (unit_square, six_points):
        for mode in ("primal", "dual"):
            assert render_svg(ps, mode) == render_svg(ps, mode)


def test_render_rejects_unknown_mode(unit_square):
    with pytest.raises(ValueError):
        render_svg(unit_square, "isometric")


def test_primal_square_has_two_black_segments(unit_square):
    svg = render_svg(unit_square, "primal")
    assert svg.count('class="exit-edge"') == 2
    assert svg.count('class="point"') == 4
    assert svg.count('class="hull"') == 4
    assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg" version="1.1"')


def test_primal_triangle_has_three_segments(triangle):
    svg = render_svg(triangle, "primal")
    assert svg.count('class="exit-edge"') == 3
    assert svg.count('class="label"') == 3


def test_dual_square_shading(unit_square):
    svg = render_svg(unit_square, "dual")
    cells = set(re.findall(r'data-cell="([^"]+)"', svg))
    assert len(cells) == 4
    assert svg.count('class="exit-vertex"') == 2
    assert svg.count('class="dual-line"') == 4


def test_dual_shading_polygons_respect_the_arrangement():
    # every rendered piece must be a subset of one cell: no dual line may
    # strictly separate its homogeneous vertices (X, Y, W), W > 0, whose
    # side of line k is the sign of s*Y - A[k]*X - B[k]*W
    from exitgraph.svg import dual_cell_polygons

    for ps in random_sets(10, 4, 9, seed=1717):
        _, (a, b, s), _, pieces = dual_cell_polygons(ps)
        cells = {cell for cell, _, _ in pieces}
        assert len(pieces) >= len(cells)
        for cell, _tag, poly in pieces:
            assert len(poly) >= 3
            assert all(W > 0 for _, _, W in poly)
            for k, (ak, bk) in enumerate(zip(a, b)):
                signs = {(f > 0) - (f < 0) for X, Y, W in poly for f in [s * Y - ak * X - bk * W]}
                assert not signs >= {-1, 1}, f"line {k} cuts a rendered piece of cell {cell[0]}"


def test_figures_match_the_frozen_writer(triangle, unit_square):
    # the writer that formatted every number where it was drawn and took
    # the dual viewport from all n(n-1)/2 crossings, kept in tests/
    import reference_svg

    sets = [triangle, unit_square, *(ps for _, ps in mixed_sets(30, 3, 14, seed=1515)),
            *random_sets(4, 64, 100, seed=6410)]
    sets += [trusted_point_set([(p.x * 2 ** 40, p.y * 2 ** 40) for p in ps.points])
             for ps in sets]
    # the largest integers the clips meet: the near-tie triple of 2^29 - 1
    # among 67 random points, and 12 points scaled past the float range
    k = 2 ** 29 - 1
    sets.append(certify_general_position(
        [(0, 0), (-k, -(k - 1)), (-(k - 2), -(k - 3)),
         *random_general_position(67, random.Random(67)).int_coords]))
    sets.append(trusted_point_set([(x * 2 ** 1100, y * 2 ** 1100) for x, y in
                                   random_general_position(12, random.Random(12)).int_coords]))
    for ps in sets:
        for mode in ("primal", "dual"):
            assert render_svg(ps, mode) == reference_svg.render_svg(ps, mode), (len(ps), mode)


def _box(points):
    xs, ys = [p[0] for p in points], [p[1] for p in points]
    return min(xs), max(xs), min(ys), max(ys)


def test_dual_viewport_is_the_box_of_all_crossings():
    # the extreme crossings join lines adjacent by slope or by 1/slope; a
    # point at x = 0 after the shear has a horizontal dual line, which
    # the 1/slope order leaves out
    from exitgraph import shear_to_generic
    from exitgraph.dual import _dual_coefficients
    from exitgraph.svg import _extreme_crossings
    from reference_arrangement import crossing_position, dualize

    rng = random.Random(3232)
    sets = [*random_sets(150, 3, 24, seed=3030),
            *(ps for _, ps in mixed_sets(90, 3, 14, seed=3131))]
    sets += [trusted_point_set([(p.x - ps[k].x, p.y) for p in ps.points])
             for ps in sets[:120] for k in [rng.randrange(len(ps))]]
    horizontal = 0
    for ps in sets:
        sheared = shear_to_generic(ps)[0]
        lines = dualize(sheared)
        every = [crossing_position(a, b) for i, a in enumerate(lines) for b in lines[i + 1:]]
        extreme = _extreme_crossings(*_dual_coefficients(sheared), sheared.scale)
        assert all(W > 0 for _, _, W in extreme)
        assert _box([(Fraction(X, W), Fraction(Y, W)) for X, Y, W in extreme]) == _box(every), ps
        horizontal += any(line.slope == 0 for line in lines)
    assert len(sets) >= 300 and horizontal >= 50, (len(sets), horizontal)


def test_dual_figure_positions_only_cell_vertices(monkeypatch):
    # crossings are computed on demand, as (X, Y, W): one per cell
    # vertex, each equal to crossing_position, and O(n) more for the
    # viewport, fewer than all n(n-1)/2 in all
    from exitgraph import shear_to_generic
    import exitgraph.svg as svg
    from reference_arrangement import crossing_position, dualize

    calls, original = [], svg._crossing

    def counted(a, b, s, i, j):
        calls.append((i, j))
        return original(a, b, s, i, j)

    monkeypatch.setattr(svg, "_crossing", counted)
    ps = random_general_position(120, random.Random(120))
    _, _, positions, pieces = svg.dual_cell_polygons(ps)
    vertices = {v for ((i, j, k), _, _), _, _ in pieces for v in [(i, j), (i, k), (j, k)]}
    assert set(positions) == vertices
    assert len(calls) < 120 * 119 // 2, len(calls)
    lines = dualize(shear_to_generic(ps)[0])
    for (i, j), (X, Y, W) in positions.items():
        assert W > 0 and (Fraction(X, W), Fraction(Y, W)) == crossing_position(lines[i], lines[j])


def test_report_document(unit_square):
    edges = exit_edges_dual(unit_square)
    doc = build_report(unit_square, edges, stats_report(unit_square))
    assert doc["schema"] == 1
    assert doc["n"] == 4
    assert doc["points"][0] == ["0", "0"]
    assert doc["exit_edges"] is edges
    assert doc["stats"]["hourglasses"] == 2
    assert doc["stats"]["lower_bound"] == "1"
    assert all(doc["verdicts"].values())
    parsed = json.loads(render_json(doc))
    assert parsed["exit_edges"] == [
        {"endpoints": [0, 2], "witnesses": [1, 3]},
        {"endpoints": [1, 3], "witnesses": [0, 2]},
    ]
    assert parsed == {**doc, "exit_edges": parsed["exit_edges"]}


def test_report_without_stats(triangle):
    doc = build_report(triangle, exit_edges_dual(triangle))
    assert "stats" not in doc and "verdicts" not in doc
    assert len(doc["exit_edges"]) == 3


def _edge_objects(value):
    """The exit edges as JSON objects, from the ExitEdges that the graph
    builds one index at a time, not from its columns."""
    if not isinstance(value, ExitGraph):
        raise TypeError(f"{type(value).__name__} is not JSON serializable")
    return [{"endpoints": list(e.endpoints), "witnesses": sorted(e.witnesses)}
            for e in map(value.__getitem__, range(len(value)))]


def _render_json_reference(doc):
    """Reference writer: json's own indent encoder, which render_json replaces."""
    return json.dumps(doc, indent=2, default=_edge_objects) + "\n"


def _writer_coordinate(rng):
    if rng.random() < 0.3:
        q = rng.randint(2, 7)
        return Fraction(rng.randint(-40 * q, 40 * q), q)
    return rng.randint(-40, 40)


@pytest.fixture(scope="module")
def writer_corpus():
    """200 seeded sets with n = 3..14 and integer, negative and p/q
    coordinates, then one of 72 points so the numpy scan runs."""
    rng = random.Random(5050)
    sets = []
    while len(sets) < 200:
        pts = [(_writer_coordinate(rng), _writer_coordinate(rng))
               for _ in range(rng.randint(3, 14))]
        try:
            sets.append(certify_general_position(pts))
        except (DuplicatePointError, CollinearTripleError):
            continue
    big = random_general_position(72, rng)
    sets.append(certify_general_position(
        [(Fraction(p.x - 10000, 3), p.y) for p in big.points]))
    return sets


def test_render_json_matches_json_indent_encoder(writer_corpus):
    rational = two_witness = with_stats = 0
    for ps in writer_corpus:
        edges = exit_edges_dual(ps)
        docs = [build_report(ps, edges)]
        if len(ps) >= 4:
            docs.append(build_report(ps, edges, stats_report(ps)))
        for doc in docs:
            assert render_json(doc) == _render_json_reference(doc), serialize_points(ps)
        rational += "/" in serialize_points(ps)
        two_witness += any(len(e.witnesses) == 2 for e in edges)
        with_stats += len(docs) - 1
    assert min(rational, two_witness, with_stats) >= 50, (rational, two_witness, with_stats)


def _compute_text_reference(edges):
    """Reference for plain compute: each edge's str, joined by "; "."""
    plural = "s" if len(edges) != 1 else ""
    return f"{len(edges)} exit edge{plural}: " + "; ".join(str(e) for e in edges) + "\n"


@pytest.fixture(scope="module")
def wide_label_sets():
    """Sets past two-digit labels: 120 points on the numpy scan, and 110
    points scaled by 2^40 (with rational offsets) on the pure-Python one."""
    rng = random.Random(1201)
    wide = random_general_position(120, rng)
    big = random_general_position(110, rng)
    scaled = certify_general_position(
        [(p.x * 2 ** 40 - Fraction(1, 3), -p.y * 2 ** 40) for p in big.points])
    return [wide, scaled]


def test_writers_past_two_digit_labels_on_both_backends(wide_label_sets, tmp_path, capsys):
    backends = []
    for ps in wide_label_sets:
        edges = exit_edges_dual(ps)
        backends.append(type(edges.a).__module__)
        assert {len(e.witnesses) for e in edges} == {1, 2}
        assert max(max(e.endpoints) for e in edges) >= 100
        for doc in (build_report(ps, edges), build_report(ps, edges, stats_report(ps))):
            assert render_json(doc) == _render_json_reference(doc)
        f = tmp_path / "points.txt"
        f.write_text(serialize_points(ps))
        assert cli(["compute", str(f)]) == 0
        assert capsys.readouterr().out == _compute_text_reference(edges)
    assert backends == ["numpy", "array"]


def test_edge_rows_fills_the_template_from_either_column_type():
    from array import array

    import numpy as np

    from exitgraph.report import edge_rows

    cols = [2, 3, 9], [5, 10, 11], [0, 1, 1], [7, -1, 4]
    expected = "<2 5 0|7>, <3 10 1>, <9 11 1|4>"
    for make in (lambda c: array("q", c), np.array):
        graph = ExitGraph(*map(make, cols))
        assert edge_rows(graph, 12, "<%d %d %d|%d>", ", ") == expected
        assert edge_rows(ExitGraph(*(make([]) for _ in cols)), 12, "<%d %d %d|%d>", ", ") == ""


def test_coordinate_text_needs_no_json_escaping(writer_corpus, wide_label_sets):
    # render_json quotes each point coordinate as it is, without json.dumps
    rng = random.Random(77)
    extra = [Fraction(rng.randint(-10 ** 30, 10 ** 30), rng.randint(1, 10 ** 20))
             for _ in range(200)]
    texts = [c for ps in writer_corpus + wide_label_sets
             for row in build_report(ps, exit_edges_dual(ps))["points"] for c in row]
    texts += [format_coordinate(v) for v in extra]
    assert any("/" in t for t in texts) and any(t.startswith("-") for t in texts)
    for t in texts:
        assert re.fullmatch(r"-?[0-9]+(/[0-9]+)?", t), t
        assert json.dumps(t) == f'"{t}"'


@pytest.mark.parametrize("command", ["compute", "stats"])
def test_cli_json_matches_json_indent_encoder(writer_corpus, tmp_path, capsys, command):
    for k, ps in enumerate(writer_corpus[:200:20] + writer_corpus[-1:]):
        if command == "stats" and len(ps) < 4:
            continue
        f = tmp_path / f"points_{k}.txt"
        f.write_text(serialize_points(ps))
        assert cli([command, str(f), "--json"]) == 0
        stats = stats_report(ps) if command == "stats" else None
        expected = _render_json_reference(build_report(ps, exit_edges_dual(ps), stats))
        assert capsys.readouterr().out == expected, serialize_points(ps)
