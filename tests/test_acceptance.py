"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run `pytest tests/test_acceptance.py -v -s` to watch the lines as they
are produced.  The randomized corpora are seeded and therefore
reproducible; every tolerance is zero (exact arithmetic) except the
performance band of criterion 7, which is stated in the criterion.
"""

import gc
import random
import time
import tracemalloc

from exitgraph import (
    build_arrangement,
    certify_general_position,
    convex_hull,
    dual_triangles,
    dualize,
    exit_edges_bruteforce,
    exit_edges_dual,
    exit_edges_via_holes,
    exit_graph_crossings,
    first_collinearity_morph,
    compare_exit_structures,
    hourglasses,
    line_triangle_counts,
    marked_cell,
    marked_cell_by_orientation,
    outer_face_vertices,
    point,
    random_general_position,
    render_svg,
    search_min_exit_edges,
    shear_to_generic,
    stats_report,
    trusted_point_set,
)

SIZES = range(5, 13)
SETS_PER_SIZE = 1000


def _corpus_sets(n):
    """The criterion corpus for one size, regenerated deterministically so
    no large corpus outlives the test that iterates it."""
    rng = random.Random(20260800 + n)
    for _ in range(SETS_PER_SIZE):
        yield random_general_position(n, rng)


def _report(index, label, ok, detail):
    print(f"ACCEPTANCE {index} {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {index} failed: {detail}"


def test_criterion_1_three_method_equivalence():
    mismatches = 0
    checked = 0
    for n in SIZES:
        for ps in _corpus_sets(n):
            checked += 1
            brute = exit_edges_bruteforce(ps)
            if exit_edges_dual(ps) != brute:
                mismatches += 1
                continue
            if exit_edges_via_holes(ps) != frozenset(e.endpoints for e in brute):
                mismatches += 1
    _report(1, "three-method equivalence", mismatches == 0,
            f"{checked} sets at n=5..12, {mismatches} mismatches")


def test_criterion_2_known_small_cases():
    triangle = certify_general_position([(0, 0), (4, 0), (2, 4)])
    square = certify_general_position([(0, 0), (1, 0), (1, 1), (0, 1)])
    six = certify_general_position(
        [(-5, 5), (5, 5), (-5, -5), (5, -5), (-3, 2), (-3, -2)])

    ok = len(exit_edges_dual(triangle)) == 3

    sq_edges = exit_edges_dual(square)
    ok &= [(e.endpoints, set(e.witnesses)) for e in sq_edges] == [
        ((0, 2), {1, 3}), ((1, 3), {0, 2})]
    ok &= len(hourglasses(dual_triangles(square))) == 2

    six_brute = exit_edges_bruteforce(six)
    ok &= exit_edges_dual(six) == six_brute
    ok &= exit_edges_via_holes(six) == frozenset(e.endpoints for e in six_brute)
    figure = render_svg(six, "primal")
    ok &= figure.count('class="exit-edge"') == len(six_brute) == 4

    _report(2, "known small cases", ok,
            "triangle=3, square=2x2-witness edges with 2 hourglasses, "
            "six-point set stable across methods and figure")


def test_criterion_3_counting_bounds():
    violations = 0
    checked = 0
    for n in SIZES:
        lower = -(-(3 * n - 7) // 5)
        upper = (n * (n - 1)) // 3
        for ps in _corpus_sets(n):
            checked += 1
            rep = stats_report(ps)
            ok = (lower <= rep.exit_edge_count <= upper
                  and 3 * rep.triangles - rep.hourglass_count >= 3 * n - 2
                  and rep.triangles >= 2 * rep.hourglass_count)
            if not ok:
                violations += 1
    _report(3, "counting bounds", violations == 0,
            f"{checked} instances, {violations} violations")


def test_criterion_4_arrangement_invariants():
    bad = 0
    checked = 0
    for n in range(4, 13):
        rng = random.Random(90000 + n)
        for _ in range(30):
            ps = random_general_position(n, rng)
            sheared, _ = shear_to_generic(ps)
            arr = build_arrangement(dualize(sheared))
            checked += 1
            V, E, F = arr.counts()
            ok = (V, E, F) == (n * (n - 1) // 2, n * (n - 1), 1 + n * (n - 1) // 2)
            ok &= marked_cell(arr) == marked_cell_by_orientation(arr)
            ok &= all(c >= 3 for c in line_triangle_counts(arr).values())
            if not ok:
                bad += 1
    _report(4, "arrangement invariants", bad == 0,
            f"{checked} arrangements: V/E/F closed forms, unique consistent "
            f"cell = marked cell, every line on >= 3 triangles; {bad} failures")


def test_criterion_5_morph_first_collinearity():
    rng = random.Random(31337)
    violations = 0
    events = 0
    for _ in range(500):
        n = rng.randint(5, 8)
        ps = random_general_position(n, rng)
        span = 4 * n * n
        target = [point(rng.randint(0, span), rng.randint(0, span))
                  for _ in range(n)]
        ev = first_collinearity_morph(ps, target)
        if ev is None or not ev.between:
            continue
        events += 1
        a, b, c = ev.triple
        edges = {e.endpoints: e.witnesses for e in exit_edges_bruteforce(ps)}
        if (a, b) not in edges or c not in edges[(a, b)]:
            violations += 1
    _report(5, "morph first-collinearity property", violations == 0 and events > 100,
            f"500 morphs at n=5..8, {events} between-events, {violations} violations")


def test_criterion_6_crossings_and_outer_face():
    rng = random.Random(60606)
    crossing_violations = 0
    for _ in range(500):
        n = rng.randint(9, 12)
        ps = random_general_position(n, rng)
        if exit_graph_crossings(ps) < 1:
            crossing_violations += 1
    outer_violations = 0
    rng = random.Random(70707)
    for _ in range(500):
        n = rng.randint(4, 12)
        ps = random_general_position(n, rng)
        if not outer_face_vertices(ps) <= set(convex_hull(ps)):
            outer_violations += 1
    _report(6, "crossings and outer-face properties",
            crossing_violations == 0 and outer_violations == 0,
            f"500 sets n=9..12 all have a crossing ({crossing_violations} fail); "
            f"500 sets n=4..12 outer face within hull ({outer_violations} fail)")


def _benchmark_set(n, seed):
    rng = random.Random(seed)
    pts = set()
    while len(pts) < n:
        pts.add((rng.randint(0, 4 * n * n), rng.randint(0, 4 * n * n)))
    return trusted_point_set(sorted(pts))


def _best_times(sets, repetitions=3):
    """Best time of each set over the repetitions.  The sets take turns,
    so a change in the host's CPU speed during the test falls on every
    set alike instead of on whichever one was being timed."""
    best = [float("inf")] * len(sets)
    for _ in range(repetitions):
        for k, ps in enumerate(sets):
            gc.collect()
            gc.disable()
            start = time.perf_counter()
            exit_edges_dual(ps)
            best[k] = min(best[k], time.perf_counter() - start)
            gc.enable()
    return best


def test_criterion_7_performance():
    ps1 = _benchmark_set(1000, seed=1)
    ps2 = _benchmark_set(2000, seed=1)
    t1, t2 = _best_times([ps1, ps2])
    ratio = t2 / t1

    tracemalloc.start()
    exit_edges_dual(ps1)
    _, peak1 = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    tracemalloc.start()
    exit_edges_dual(ps2)
    _, peak2 = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    mem_ratio = peak2 / peak1

    ok = t1 < 10.0 and ratio <= 5.0 and mem_ratio <= 5.0
    _report(7, "performance scaling", ok,
            f"n=1000 in {t1:.2f}s (< 10s), n=2000 in {t2:.2f}s, "
            f"time ratio {ratio:.2f} <= 5, peak-memory ratio {mem_ratio:.2f} <= 5")


def test_criterion_8_search_and_compare_substitutes():
    best_a = search_min_exit_edges(9, 60, seed=12)
    best_b = search_min_exit_edges(9, 60, seed=12)
    ok = best_a[1] >= 4  # ceil((3*9 - 7)/5)
    ok &= best_a[0].points == best_b[0].points and best_a[1] == best_b[1]

    square = certify_general_position([(0, 0), (1, 0), (1, 1), (0, 1)])
    interior = certify_general_position([(0, 0), (4, 0), (2, 4), (2, 1)])
    same = compare_exit_structures(square, square)
    diff = compare_exit_structures(square, interior)
    ok &= same.same_exit_structure and same.same_order_type
    ok &= not diff.same_exit_structure and not diff.same_order_type
    _report(8, "search and comparator substitutes", ok,
            f"search n=9 deterministic minimum {best_a[1]} >= 4; comparator "
            "classifies the same/different fixtures correctly")
