import random

import pytest
from hypothesis import given, strategies as st

from tamari import checks, shapes
from tamari.checks import (
    VerifyLimits,
    corner_boxes,
    enclosure,
    from_dyck_path,
    prime_path_of_row,
    prime_subpath_heights,
    random_dyck_path,
    run_check,
    strip_of_box,
    to_dyck_path,
    upper_covers_dyck,
    validate_dyck_path,
)
from tamari.shapes import (
    ShapeError,
    as_partition,
    contained_in_staircase,
    covers_with_strips,
    partitions_in_staircase,
    staircase,
)


def _covers(vertex, n):
    """The covers of ``vertex`` by corner row, without their strips."""
    return [cover for cover, _ in covers_with_strips(vertex, n)]


def brute_prime_heights(path):
    """Independent oracle: test primality of every candidate subpath directly."""
    heights = []
    points = [(0, 0)]
    for step in path:
        x, y = points[-1]
        points.append((x, y + 1) if step == "N" else (x + 1, y))
    for start, step in enumerate(path):
        if step != "N":
            continue
        sx, sy = points[start]
        for end in range(start + 1, len(path) + 1):
            ex, ey = points[end]
            if ey - ex == sy - sx:
                interior = points[start + 1:end]
                assert all(py - px != sy - sx for px, py in interior)
                heights.append(sum(1 for s in path[start:end] if s == "N"))
                break
    return tuple(heights)


def test_staircase():
    assert staircase(3) == (3, 2, 1)
    assert staircase(0) == ()
    assert staircase(-2) == ()


def test_partition_normalization_and_errors():
    assert as_partition([3, 2, 0, 0]) == (3, 2)
    assert as_partition(()) == ()
    with pytest.raises(ShapeError):
        as_partition([1, 2])
    with pytest.raises(ShapeError):
        as_partition([2, -1])


def test_path_conversion_pinned_orientation():
    assert to_dyck_path((), 3) == "NNNEEE"
    assert to_dyck_path((2, 1), 3) == "NENENE"
    assert from_dyck_path("NNNEEE") == ()
    assert from_dyck_path("NENENE") == (2, 1)


def test_path_conversion_errors():
    with pytest.raises(ShapeError):
        to_dyck_path((3,), 3)  # does not fit inside (2, 1)
    with pytest.raises(ShapeError):
        validate_dyck_path("NEXE")
    with pytest.raises(ShapeError):
        from_dyck_path("ENNE")
    with pytest.raises(ShapeError):
        from_dyck_path("NNE")


def test_all_length_eight_paths_decode_to_vertices_of_order_four():
    vertices = set(partitions_in_staircase(4))
    paths = {to_dyck_path(v, 4) for v in vertices}
    assert len(paths) == 14
    assert {from_dyck_path(p) for p in paths} == vertices


@pytest.mark.parametrize("n", range(1, 9))
def test_path_roundtrip_exhaustive(n):
    for vertex in partitions_in_staircase(n):
        assert from_dyck_path(to_dyck_path(vertex, n)) == vertex


def test_vertex_counts_are_catalan():
    catalan = [1, 2, 5, 14, 42, 132, 429, 1430]
    for n, expected in enumerate(catalan, start=1):
        assert len(partitions_in_staircase(n)) == expected


def test_prime_heights_simple_paths():
    assert prime_subpath_heights("NNNEEE") == (3, 2, 1)
    assert prime_subpath_heights("NENENE") == (1, 1, 1)
    assert prime_subpath_heights("NENENENE") == (1, 1, 1, 1)


def test_prime_heights_along_a_published_maximal_chain():
    # the four height sequences (one per north step) along one maximal chain
    chain = [(), (1, 1), (2, 2), (2, 2, 1), (3, 2, 1)]
    for upper, lower in zip(chain, chain[1:]):
        assert upper in _covers(lower, 4)
    heights = [prime_subpath_heights(to_dyck_path(v, 4)) for v in chain]
    columns = list(zip(*heights))
    assert columns[0] == (4, 4, 2, 1, 1)
    assert columns[1] == (3, 1, 1, 1, 1)
    assert columns[2] == (2, 2, 2, 2, 1)
    assert columns[3] == (1, 1, 1, 1, 1)


@pytest.mark.parametrize("n", range(1, 7))
def test_prime_heights_match_brute_oracle(n):
    for vertex in partitions_in_staircase(n):
        path = to_dyck_path(vertex, n)
        assert prime_subpath_heights(path) == brute_prime_heights(path)


def test_prime_path_of_rows():
    empty_third_row = prime_path_of_row((1,), 3, 3)
    assert empty_third_row.height == 3
    assert empty_third_row.steps == to_dyck_path((1,), 3)
    for d in (1, 2, 3):
        assert prime_path_of_row((2, 1), 3, d).height == 1
    assert prime_path_of_row((1, 1), 3, 2).height == 2
    with pytest.raises(ShapeError):
        prime_path_of_row((1,), 3, 4)


def test_strips():
    assert strip_of_box((2, 1), 3, (2, 1)) == ((2, 1),)
    assert strip_of_box((1, 1), 3, (2, 1)) == ((1, 1), (2, 1))
    assert strip_of_box((2, 1, 1), 4, (3, 1)) == ((1, 2), (2, 1), (3, 1))
    assert strip_of_box((2, 1, 1), 4, (1, 2)) == ((1, 2),)
    with pytest.raises(ShapeError):
        strip_of_box((2, 1), 3, (1, 1))  # not the last box of its row


@pytest.mark.parametrize("n", range(2, 7))
def test_strip_is_last_boxes_of_consecutive_rows(n):
    for vertex in partitions_in_staircase(n):
        for row, length in enumerate(vertex, start=1):
            strip = strip_of_box(vertex, n, (row, length))
            rows = [box[0] for box in strip]
            assert rows == list(range(row - len(strip) + 1, row + 1))
            assert all(col == vertex[r - 1] for r, col in strip)


def test_corner_boxes():
    assert corner_boxes(()) == []
    assert corner_boxes((3, 2, 1)) == [(1, 3), (2, 2), (3, 1)]
    assert corner_boxes((2, 2, 1)) == [(2, 2), (3, 1)]


def test_upper_covers_examples():
    assert _covers((3, 2, 1), 4) == [(2, 2, 1), (3, 1, 1), (3, 2)]
    assert _covers((1, 1), 3) == [()]
    assert _covers((), 5) == []
    with pytest.raises(ShapeError):
        _covers((3,), 3)


def test_pentagon_cover_structure():
    assert _covers((2, 1), 3) == [(1, 1), (2,)]
    assert _covers((2,), 3) == [(1,)]
    assert _covers((1,), 3) == [()]


def covers_by_definition(vertex, n):
    """Per corner, by increasing row: the strip from the prime path of the corner's
    row, and the diagram left when that strip is removed."""
    result = []
    for corner in corner_boxes(vertex):
        strip = strip_of_box(vertex, n, corner)
        assert len(strip) == prime_path_of_row(vertex, n, corner[0]).height
        shrunk = list(vertex)
        for row, _ in strip:
            shrunk[row - 1] -= 1
        result.append((as_partition(shrunk), strip))
    return result


@pytest.mark.parametrize("n", range(1, 9))
def test_cover_graph_matches_the_definition(n):
    # the cover relation, walked from every vertex in the order the walkers use,
    # is the definition's and the Dyck-path swaps', and always leads later in it
    vertices = partitions_in_staircase(n)
    assert len(set(vertices)) == len(vertices)
    # by decreasing box count: the staircase first, the null diagram last
    assert vertices[0] == staircase(n - 1) and vertices[-1] == ()
    sizes = [sum(vertex) for vertex in vertices]
    assert sizes == sorted(sizes, reverse=True)
    position = {vertex: index for index, vertex in enumerate(vertices)}
    for index, vertex in enumerate(vertices):
        edges = list(covers_with_strips(vertex, n))
        assert edges == covers_by_definition(vertex, n), vertex
        assert [from_dyck_path(p) for p in upper_covers_dyck(to_dyck_path(vertex, n))] \
            == [cover for cover, _ in edges], vertex
        assert all(position[cover] > index for cover, _ in edges), vertex


@pytest.mark.parametrize("n", range(1, 9))
def test_the_unchecked_kernel_is_the_validated_one(n):
    # the box-free kernel steps once per corner, and its rows top+1 .. d are the
    # rows of the strip that strip_of_box defines and covers_with_strips returns
    for vertex in partitions_in_staircase(n):
        steps = shapes._steps(shapes._code(vertex))
        assert [(d, vertex[d - 1]) for _, _, d in steps] == corner_boxes(vertex), vertex
        edges = []
        for cover, top, d in steps:
            strip = strip_of_box(vertex, n, (d, vertex[d - 1]))
            assert [row for row, _ in strip] == list(range(top + 1, d + 1)), vertex
            edges.append((shapes._shape(cover), strip))
        assert tuple(edges) == covers_with_strips(vertex, n), vertex


@pytest.mark.parametrize("n", range(1, 10))
def test_a_vertex_code_decodes_to_its_vertex(n):
    vertices = partitions_in_staircase(n)
    codes = [shapes._code(vertex) for vertex in vertices]
    assert [shapes._shape(code) for code in codes] == list(vertices)
    assert len(set(codes)) == len(codes) and codes[-1] == 0  # the null diagram is 0


def test_the_kernel_climbs_the_associahedron():
    # covers/associahedron at orders <= 10: Catalan(n) vertices, n-1 covers up and
    # down at each, (n-1)Catalan(n)/2 steps and a Narayana tally of upper covers
    result = run_check("covers/associahedron", VerifyLimits(max_n=10))
    assert result.passed, result
    assert result.detail == "orders <= 10"


def test_the_associahedron_check_sees_a_kernel_that_repeats_a_step(monkeypatch):
    # a kernel that lists one step of the staircase of order 4 twice still reaches
    # every vertex, but that step's two ends have 4 covers up and down, not 3
    def kernel(code, shape=None):
        steps = shapes._steps(code, shape)
        return steps + steps[:1] if code == shapes._code((3, 2, 1)) else steps

    monkeypatch.setattr(checks, "_steps", kernel)
    result = run_check("covers/associahedron", VerifyLimits(max_n=5))
    assert not result.passed
    assert result.detail == "the kernel's cover graph is not the associahedron's"
    assert result.counterexample["n"] == 4
    assert result.counterexample["found"]["degrees"] == [3, 4]


def test_the_kernel_serves_orders_up_to_256(capsys):
    # a vertex's code holds a row's length in one byte; order 257 has a row of 256.
    # Here, after the counting tests: a broken length mask makes order 256 climb long
    from tamari import cli

    for n in (255, 256):
        vertex = staircase(n - 1)
        assert shapes._shape(shapes._code(vertex)) == vertex
        assert _covers(vertex, n)[0] == (n - 2,) + vertex[1:]
    with pytest.raises(ShapeError, match="orders up to 256"):
        _covers(staircase(256), 257)
    brute = ["count", "--i", "-1", "--method", "brute", "--allow-huge", "--n"]
    assert cli.main(brute + ["256"]) == 0
    assert capsys.readouterr() == ("1\n", "")
    assert cli.main(brute + ["257"]) == 2
    assert capsys.readouterr() == ("", "error: a row of 256 boxes is past the cover kernel, "
                                       "which serves orders up to 256\n")


def test_cover_kernel_keeps_validation():
    assert covers_with_strips((2, 1), 3) == (((1, 1), ((1, 2),)), ((2,), ((2, 1),)))
    assert covers_with_strips((1, 1), 3) == (((), ((1, 1), (2, 1))),)
    assert covers_with_strips([2, 1, 0], 3) == covers_with_strips((2, 1), 3)
    for bad in ((1, 2), (3,), (2, -1), (1, 1, 1), (1.0,)):
        with pytest.raises(ShapeError):
            covers_with_strips(bad, 3)
    for n in (0, -1):
        with pytest.raises(ShapeError):
            covers_with_strips((), n)
    with pytest.raises(ShapeError):
        partitions_in_staircase(0)


def test_cover_caches_are_bounded():
    assert not hasattr(covers_with_strips, "cache_info")
    assert not hasattr(shapes._steps, "cache_info")
    maxsize = partitions_in_staircase.cache_parameters()["maxsize"]
    assert maxsize is not None and maxsize > 0
    assert partitions_in_staircase(5) is partitions_in_staircase(5)


def test_upper_covers_dyck_examples():
    assert upper_covers_dyck("NNNEEE") == []
    covers = upper_covers_dyck("NENENENE")
    assert len(covers) == 3
    assert [from_dyck_path(p) for p in covers] == _covers((3, 2, 1), 4)


def test_prime_trichotomy_at_full_scale():
    result = run_check("covers/prime-trichotomy", VerifyLimits(max_n=8))
    assert result.passed, result


def test_monotone_heights_at_stated_scale():
    result = run_check("covers/monotone-heights", VerifyLimits(max_n=7, samples=4000, seed=23))
    assert result.passed, result


@pytest.mark.parametrize("n", range(1, 7))
def test_cover_sets_agree_across_representations(n):
    # covers/path-vs-diagram at orders <= n (the check caps at 11; slow runs that)
    result = run_check("covers/path-vs-diagram", VerifyLimits(max_n=n))
    assert result.passed, result


def test_the_kernel_against_dyck_covers_past_the_exhaustive_range():
    # every vertex up to order 11, then 2,000 uniform random vertices spread over the
    # orders 12..20, where rows 12 and up enter the kernel's steps (slow: to order 256)
    result = run_check("covers/path-vs-diagram", VerifyLimits(max_n=20))
    assert result.passed, result
    assert result.detail == ("exhaustive for n <= 11, order included; "
                             "2000 random vertices at orders 12..20")


def test_random_dyck_paths_are_uniform():
    # the cycle lemma draws each of the Catalan(4) = 14 paths of semilength 4 alike
    rng = random.Random(5)
    drawn = [random_dyck_path(4, rng) for _ in range(14_000)]
    for path in set(drawn):
        validate_dyck_path(path)
    tally = sorted(drawn.count(path) for path in set(drawn))
    assert len(tally) == 14 and 850 < tally[0] and tally[-1] < 1150, tally
    assert random_dyck_path(0, rng) == ""


def test_strip_translation_at_stated_scale():
    # 1,000 strip pairs at orders <= 8 (the associahedron:
    # test_the_kernel_climbs_the_associahedron; path round trip:
    # test_path_roundtrip_exhaustive)
    result = run_check("covers/strip-translation", VerifyLimits(max_n=8, samples=4000, seed=23))
    assert result.passed, result


def test_enclosure_with_virtual_row():
    region = enclosure((3, 2, 1, 1), 5, (4, 1))
    assert region.top_row == 0
    assert region.shape == (5, 3, 2, 1, 1)
    assert sum(1 for box in region.boxes if box[0] == 0) == 5


def test_enclosure_of_outer_diagonal_corner():
    for n in (3, 4, 5):
        shape = staircase(n - 1)
        for box in corner_boxes(shape):
            region = enclosure(shape, n, box)
            assert region.shape == (2, 1)
            assert region.top_row == box[0] - 1


def test_enclosure_small():
    region = enclosure((1, 1), 3, (2, 1))
    assert region.top_row == 0
    assert region.shape == (3, 1, 1)


@st.composite
def vertex_with_order(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    parts = []
    bound = n - 1
    while bound > 0:
        value = draw(st.integers(min_value=0, max_value=bound))
        if value == 0:
            break
        parts.append(value)
        bound = min(value, n - 1 - len(parts))
    return tuple(parts), n


@given(vertex_with_order())
def test_roundtrip_property(vertex_order):
    vertex, n = vertex_order
    assert contained_in_staircase(vertex, n)
    assert from_dyck_path(to_dyck_path(vertex, n)) == vertex


@given(vertex_with_order())
def test_covers_remove_one_strip(vertex_order):
    vertex, n = vertex_order
    for cover in _covers(vertex, n):
        assert contained_in_staircase(cover, n)
        assert sum(vertex) > sum(cover)
