import tracemalloc
from math import comb

import pytest

from tamari import counting, shapes
from tamari.checks import VerifyLimits, run_check, stream_census
from tamari.counting import (
    IncompleteTableError,
    census,
    chains_count,
    conjecture_values,
    count_by_length,
    enumerate_maximal_chains,
    initial_values,
    is_plus_full_step,
    length_histograms,
    longest_chain_count,
    nofull_initial_values,
)
from tamari.fixtures import length_table, nofull_table
from tamari.tableaux import RSetClass, classify_r_set, plus_full_set_labels, tableau_to_chain


def test_enumeration_counts():
    assert len(list(enumerate_maximal_chains(1))) == 1
    assert len(list(enumerate_maximal_chains(3))) == 2
    assert len(list(enumerate_maximal_chains(4))) == 9
    assert len(list(enumerate_maximal_chains(3, length=2))) == 1
    assert len(list(enumerate_maximal_chains(4, length=5))) == 2


def digests_by_length(tabs):
    """``{length: (count, digest)}``, the digest an order-sensitive hash of each
    tableau's rows and stored fields, so no stream is held."""
    out = {}
    for tab in tabs:
        count, digest = out.get(tab.length, (0, 0))
        out[tab.length] = count + 1, hash((digest, tab.rows, tab.shape, tab.is_staircase))
    return out


def assert_the_cut_filters_at_emission(n):
    # the walk that cuts by length yields what the whole stream yields at that
    # length, in the same order, with the same stored fields; lengths 0 and
    # C(n,2)+1 lie past both ends of every order's range
    whole = digests_by_length(enumerate_maximal_chains(n))
    assert sum(count for count, _ in whole.values()) == count_by_length(n).total
    for length in range(comb(n, 2) + 2):
        expected = {length: whole[length]} if length in whole else {}
        assert digests_by_length(enumerate_maximal_chains(n, length)) == expected, (n, length)


@pytest.mark.parametrize("n", range(1, 7))
def test_the_length_cut_keeps_every_chain_of_that_length(n):
    assert_the_cut_filters_at_emission(n)


@pytest.mark.slow
def test_the_length_cut_keeps_every_chain_of_that_length_at_order_seven():
    assert_the_cut_filters_at_emission(7)


def test_a_walk_deeper_than_the_recursion_limit_completes():
    # the last step at each vertex takes the box of the lowest corner, one box a
    # step, so the chain is the longest, C(46,2) = 1035 steps: past the default
    # recursion limit (1000), which a walk by recursion would reach
    tab = next(counting._chains_up(46, shapes.staircase(45), choose=lambda s: s[-1]))
    assert tab.length == comb(46, 2) == 1035 and tab.is_staircase
    chain = tableau_to_chain(tab)  # null diagram first
    assert len(chain) == 1036 and chain[-1] == shapes.staircase(45)


def test_a_kernel_that_steps_in_a_cycle_cannot_make_the_walk_run_forever(monkeypatch):
    # the cut bounds the stack by the start's box count, with or without a length;
    # unbounded, the walk on this kernel would grow until memory runs out
    monkeypatch.setattr(counting, "_steps", lambda code, shape=None: [(code, 0, 1)])
    assert list(counting._chains_up(4, shapes.staircase(3))) == []
    assert list(enumerate_maximal_chains(4, length=6)) == []


def test_enumeration_is_complete():
    # every staircase tableau passing the chain characterization is enumerated
    from tamari.checks import candidate_tableaux
    from tamari.shapes import staircase
    from tamari.tableaux import is_chain_tableau

    for n in (1, 2, 3, 4):
        shape = staircase(n - 1)
        top = max(n * (n - 1) // 2, 1)
        passing = {tab.rows for tab in candidate_tableaux(n, max_length=top)
                   if tab.shape == shape and is_chain_tableau(tab)}
        enumerated = {tab.rows for tab in enumerate_maximal_chains(n)}
        assert passing == enumerated


def test_enumeration_is_deterministic_and_unique():
    first = [tab.rows for tab in enumerate_maximal_chains(5)]
    second = [tab.rows for tab in enumerate_maximal_chains(5)]
    assert first == second
    assert len(set(first)) == len(first) == 98


def test_chain_generators_keep_their_order():
    # covers by corner row ascending from the staircase up; all_chain_tableaux
    # walks up from each vertex id in turn (decreasing box count)
    from tamari.checks import all_chain_tableaux

    assert [tab.rows for tab in enumerate_maximal_chains(4)] == [
        ((1, 2, 3), (1, 2), (1,)), ((1, 2, 4), (1, 2), (3,)), ((1, 2, 3), (1, 4), (1,)),
        ((1, 2, 3), (2, 4), (2,)), ((1, 2, 3), (4, 5), (4,)), ((1, 2, 3), (1, 2), (4,)),
        ((1, 2, 3), (1, 4), (5,)), ((1, 2, 4), (3, 5), (6,)), ((1, 2, 3), (4, 5), (6,))]
    assert [tab.rows for tab in all_chain_tableaux(3)] == [
        ((1, 2), (1,)), ((1, 2), (3,)), ((1,), (1,)), ((1, 2),), ((1,),), ()]


def test_histogram_small_orders():
    hist = count_by_length(4)
    assert [hist.get(k) for k in (3, 4, 5, 6)] == [1, 4, 2, 2]
    assert hist.total == 9
    assert count_by_length(5).total == 98
    assert count_by_length(6).get(6) == 20
    assert count_by_length(6).get(15) == 286
    assert count_by_length(1).counts == {0: 1}


def test_histogram_matches_committed_table_through_order_nine():
    fixture = length_table()
    for n in range(1, 10):
        hist = count_by_length(n)
        assert dict(hist.counts) == fixture[n]


def test_shortest_chain_unique():
    for n in range(1, 9):
        assert count_by_length(n).get(n - 1) == 1


def test_census_agrees_with_histogram(censuses):
    for n in range(1, 7):
        assert censuses[n].by_length == dict(count_by_length(n).counts)


def bounded(n, bound, rule=None):
    """The chains of order n up to length ``bound``, by length: all of them, from the
    bounded histogram, or with ``rule`` (``is_plus_full_step``) given, those that take
    no step the rule holds for, from the clean block of the initial-values climb."""
    if rule is None:
        return dict(length_histograms([n], bound)[n].counts)
    return counting._nofull_and_all(n, bound)[0]


@pytest.mark.parametrize("n", range(1, 9))
def test_bounded_sweep_truncates_the_histogram(n):
    with pytest.raises(ValueError):
        length_histograms([n], -1)
    counts = count_by_length(n).counts
    for bound in range(n - 1, comb(n, 2) + 1):
        assert bounded(n, bound) == {l: c for l, c in counts.items() if l <= bound}, bound
        # one climb for the orders 1..n: each block is masked and truncated alike
        together = length_histograms(range(1, n + 1), bound)
        assert [dict(together[m].counts) for m in range(1, n + 1)] == \
            [{l: c for l, c in count_by_length(m).counts.items() if l <= bound}
             for m in range(1, n + 1)], bound


def largest_triangle_index(boxes):
    """The largest k with k(k+1)/2 <= boxes."""
    k = 0
    while (k + 1) * (k + 2) // 2 <= boxes:
        k += 1
    return k


@pytest.mark.parametrize("n", range(1, 10))
def test_a_vertex_has_few_corners_for_its_boxes(n):
    # the lemma behind the field width: k corners need k(k+1)/2 boxes
    for vertex in shapes.partitions_in_staircase(n):
        corners = len(shapes.corner_boxes(vertex))
        assert corners <= min(n - 1, largest_triangle_index(sum(vertex))), vertex
        assert corners == len(shapes.covers_with_strips(vertex, n))


def test_the_field_width_holds_every_count():
    assert [counting._field_width(n) for n in (9, 11)] == [77, 136]
    assert counting._field_width(9, 12) == 34  # the nofull --max-i 3 climb at order 9
    for n in range(1, 12):
        # a length bound never widens a field, and one past every chain changes nothing
        unbounded = counting._field_width(n)
        assert all(counting._field_width(n, bound) <= unbounded
                   for bound in (*range(comb(n, 2)), 10 ** 9)), n
        assert counting._field_width(n, comb(n, 2)) == unbounded, n
    for n in range(1, 11):
        # the chains of every length together fit one field
        assert count_by_length(n).total < 2 ** counting._field_width(n), n


def test_a_field_width_too_small_would_be_seen(monkeypatch):
    # order 9 needs 40 bits; at 20 the carries cross fields and the counts go wrong
    published = length_table()[9]
    assert dict(length_histograms([9])[9].counts) == published
    assert bounded(9, 12) == {l: c for l, c in published.items() if l <= 12}
    monkeypatch.setattr(counting, "_field_width", lambda n, max_length=None: 20)
    assert dict(length_histograms([9])[9].counts) != published


def test_a_bounded_histogram_width_one_bit_too_narrow_would_be_seen(monkeypatch):
    # order 9 up to length 12: the bounded width holds the largest count the climb
    # ends with, and one bit less garbles it
    counts = bounded(9, 12)
    need = max(counts.values()).bit_length()
    assert counting._field_width(9) > counting._field_width(9, 12) >= need
    monkeypatch.setattr(counting, "_field_width", lambda n, max_length=None: need - 1)
    assert bounded(9, 12) != counts


def test_a_bounded_width_one_bit_too_narrow_would_be_seen(monkeypatch):
    # order 9 up to length 12, as ``nofull --max-i 3`` climbs it: the bounded width
    # holds the largest count the climb ends with, and one bit less garbles it
    routes = counting._nofull_and_all(9, 12)
    clean, every = routes
    largest = max(*clean.values(), *(every[l] - clean.get(l, 0) for l in every))
    need = largest.bit_length()
    assert counting._field_width(9) > counting._field_width(9, 12) >= need
    monkeypatch.setattr(counting, "_field_width", lambda n, max_length=None: need - 1)
    assert counting._nofull_and_all(9, 12) != routes


def test_orders_one_and_two_have_a_one_bit_width_and_terminate():
    # their width multiplies only ones; a width of 0 bits would never leave ``_unpack``
    for bound in (0, 1, 2, 10 ** 9):
        assert counting._field_width(1, bound) == counting._field_width(2, bound) == 1
        assert counting._nofull_and_all(1, bound) == ({0: 1}, {0: 1})
        # the one chain of order 2 takes a plus-full step
        assert counting._nofull_and_all(2, bound) == ({}, {1: 1} if bound else {})
    assert initial_values(range(-1, 2), 2) == {-1: {1: 1}, 0: {1: 0, 2: 0}, 1: {1: 0, 2: 0}}


def peak_bytes(run):
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("rule", [None, is_plus_full_step])
def test_a_huge_length_bound_allocates_nothing_big(rule):
    # a length mask for such a bound would take megabytes at 10**6 (checked
    # first) and gigabytes at 10**9; the unbounded histogram peaks near 0.2 MB
    unbounded = bounded(8, comb(8, 2), rule)
    if rule is None:
        assert unbounded == dict(count_by_length(8).counts)
    for bound in (10 ** 6, 10 ** 9):
        result, peak = peak_bytes(lambda: bounded(8, bound, rule))
        assert result == unbounded
        assert peak < 2 ** 20, (bound, peak)
    if rule is is_plus_full_step:
        # the initial-values climbs fold at those steps: at the largest offset
        # the CLI admits, every order ``nofull`` climbs is bounded at t + 10**4, yet
        # each block stops at C(t,2)+1 fields (sized by the bound, they take 80 MB).
        # So it peaks as high as the offset 35, whose bound t + 35 >= C(t,2) + t-1
        # leaves every mask of every order t <= 9 uncut, as the huge one does; the
        # slack is for a few ints of the huge offset's own arithmetic (32 B measured).
        # Both are measured warm: the first climbs of a process peak higher.
        from tamari import cli

        initial_values([-1, 35], 9)
        _, uncut = peak_bytes(lambda: initial_values([-1, 35], 9))
        table, peak = peak_bytes(lambda: initial_values([-1, cli.MAX_I], 9))
        assert table[-1] == {1: 1} and table[cli.MAX_I] == {t: 0 for t in range(1, 10)}
        assert peak <= uncut + 1024, (peak, uncut)


def nofull(i, n):
    """Chains of length n+i in order n with no plus-full-set, from the clean block."""
    return bounded(n, n + i, is_plus_full_step).get(n + i, 0)


def test_plus_full_free_sweep_examples():
    assert nofull(1, 5) == 10
    assert nofull(2, 6) == 112
    assert nofull(0, 3) == 1
    for n in range(4, 8):
        assert nofull(0, n) == 0


@pytest.mark.parametrize("n", range(1, 8))
def test_plus_full_free_sweep_matches_the_census(n, censuses):
    counts = censuses[n].nofull_by_length
    # a bound past every chain
    assert bounded(n, comb(n, 2) + 1, is_plus_full_step) == counts
    for bound in range(n - 1, comb(n, 2) + 1):
        assert bounded(n, bound, is_plus_full_step) == \
            {l: c for l, c in counts.items() if l <= bound}, bound
        # the block of all chains, the second route's input, is the bounded histogram
        assert counting._nofull_and_all(n, bound)[1] == bounded(n, bound), bound


def test_nofull_matches_committed_table(censuses):
    fixture = nofull_table()
    for n in range(1, 7):
        for i in range(-1, 6):
            expected = fixture.get((i, n), 0)
            assert censuses[n].nofull_by_length.get(n + i, 0) == expected


def test_initial_values_by_inclusion_exclusion():
    assert nofull_initial_values(0) == {1: 0, 2: 0, 3: 1}
    row_one = nofull_initial_values(1)
    assert row_one[4] == 2 and row_one[5] == 10
    row_three = nofull_initial_values(3)
    assert [row_three[t] for t in (5, 6, 7, 8, 9)] == [18, 220, 1464, 9240, 15400]
    assert initial_values(range(-1, 4), 9)[3] == row_three


def test_initial_values_match_brute_classification(censuses):
    for i in range(-1, 6):
        values = nofull_initial_values(i, max_t=6)
        for t, value in values.items():
            assert value == censuses[t].nofull_by_length.get(t + i, 0)


def test_chains_count_closed_forms():
    row_zero = nofull_initial_values(0)
    for n in range(1, 13):
        assert chains_count(0, n, row_zero) == comb(n, 3)
    row_minus = nofull_initial_values(-1)
    for n in range(1, 13):
        assert chains_count(-1, n, row_minus) == 1


def test_chains_count_published_values():
    assert chains_count(2, 9, nofull_initial_values(2)) == 37444
    row_three = nofull_initial_values(3)
    expansion = (18 * comb(14, 6) + 220 * comb(14, 5) + 1464 * comb(14, 4)
                 + 9240 * comb(14, 3) + 15400 * comb(14, 2))
    assert chains_count(3, 11, row_three) == expansion


def test_chains_count_loops_at_most_n_times(monkeypatch):
    from tamari import counting

    weights = []

    def counted_comb(a, b):
        weights.append(b)
        assert len(weights) <= 3, "the loop ran past t = n"
        return comb(a, b)

    monkeypatch.setattr(counting, "comb", counted_comb)
    assert chains_count(10 ** 12, 3, {1: 0, 2: 0, 3: 0}) == 0
    assert weights == [10 ** 12 + 1, 10 ** 12 + 2, 10 ** 12 + 3]
    weights.clear()
    assert chains_count(1, 2, {1: 1, 2: 2}) == 3 * 1 + 1 * 2
    assert weights == [2, 3]


def test_chains_count_requires_needed_entries():
    with pytest.raises(IncompleteTableError):
        chains_count(0, 5, {1: 0, 2: 0})  # missing t=3 with nonzero weight
    assert chains_count(0, 2, {1: 0, 2: 0}) == 0  # t=3 has zero weight at n=2


def test_recursion_equals_walk_extended_order_eight():
    hist = count_by_length(8)
    for i in range(-1, comb(8, 2) - 8 + 1):
        table = nofull_initial_values(i, max_t=8)
        assert chains_count(i, 8, table) == hist.get(8 + i), i


def test_longest_chain_counts():
    assert longest_chain_count(1) == 1
    assert longest_chain_count(3) == 1
    assert longest_chain_count(6) == 286
    assert longest_chain_count(7) == 33592
    for n in range(1, 7):
        assert longest_chain_count(n) == count_by_length(n).get(comb(n, 2))


def test_conjecture_values():
    assert conjecture_values(-1) == (1, None)
    assert conjecture_values(0) == (1, 0)
    assert conjecture_values(1) == (10, 2)
    assert conjecture_values(2) == (280, 112)
    assert conjecture_values(3) == (15400, 9240)
    assert conjecture_values(4) == (1401400, 1121120)


def test_conjecture_matches_committed_table():
    fixture = nofull_table()
    for i in range(-1, 6):
        first, second = conjecture_values(i)
        assert first == fixture.get((i, 2 * i + 3), 0)
        if second is not None:
            assert second == fixture.get((i, 2 * i + 2), 0)


def test_equal_representation_exact_cell():
    # chains of order 4 and length 4 whose only plus-full-set label is 1
    exact = [tab for tab in enumerate_maximal_chains(4, length=4)
             if plus_full_set_labels(tab) == (1,)]
    assert len(exact) == 1 == nofull(0, 3)


@pytest.mark.parametrize("n", range(1, 7))
def test_census_matches_the_classified_stream(n):
    # all three tallies: by length, without plus-full-sets, minimal labels
    assert census(n) == stream_census(n)


@pytest.mark.slow
def test_census_matches_the_classified_stream_order_seven():
    assert census(7) == stream_census(7)


def test_census_minimal_labels_follow_from_the_counts_by_length(censuses, top=9):
    # a second route to the census past the stream's orders: by equal representation
    # and inclusion-exclusion over the labels below m, the chains of length L = n+i
    # whose minimal plus-full-set label is m number
    # sum_{k<m} (-1)^k C(m-1, k) #C_i(n-1-k), with #C_i(s) = 0 for s < 1, for
    # m = 1..L (past L the sum need not vanish, though no label is that large);
    # every order up to ``top``
    histograms = length_histograms(range(1, top + 1))

    def chains(i, s):
        return histograms[s].get(s + i) if s >= 1 else 0

    for n in range(1, top + 1):
        tally = censuses[n].min_plus_full
        for length in range(n - 1, comb(n, 2) + 1):
            i = length - n
            for m in range(1, length + 1):
                expected = sum((-1) ** k * comb(m - 1, k) * chains(i, n - 1 - k)
                               for k in range(m))
                assert tally.get(length, {}).get(m, 0) == expected, (n, length, m)


@pytest.mark.slow
def test_census_minimal_labels_follow_from_the_counts_by_length_to_order_eleven(censuses):
    # census(11) takes a few seconds and about 130 MiB
    test_census_minimal_labels_follow_from_the_counts_by_length(censuses, top=11)


@pytest.mark.slow
def test_initial_values_compute_the_committed_offset_six_row():
    # row 6 is computed here, not published: ``nofull --check`` climbs orders 1..15
    # bounded at t+6, exits 1 where the two routes disagree and compares every row,
    # row 6 included, with the fixture; the top two cells are the conjectured
    # products.  A fresh process, so its time and peak are the row's own: the peak
    # is its VmHWM, since ru_maxrss keeps the peak of the process that started it
    import subprocess
    import sys
    import time

    child = ("import sys\n"
             "from tamari import cli\n"
             "code = cli.main(sys.argv[1:])\n"
             "with open('/proc/self/status') as status:\n"
             "    print(*[line.split()[1] for line in status if line.startswith('VmHWM')],\n"
             "          file=sys.stderr)\n"
             "sys.exit(code)\n")
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", child, "nofull", "--max-i", "6",
                           "--allow-huge", "--check", "--format", "csv"],
                          capture_output=True, text=True)
    seconds = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    passed, header, *lines = proc.stdout.splitlines()
    assert passed == "no-plus-full table check passed for i <= 6"
    row = {int(t): int(value) for i, t, value in (line.split(",") for line in lines)
           if i == "6"}
    assert sorted(row) == list(range(1, 16))
    assert {(6, t): value for t, value in row.items() if value} == \
        {cell: value for cell, value in nofull_table().items() if cell[0] == 6}
    assert (row[15], row[14]) == conjecture_values(6)
    print(f"row 6 by both routes: {seconds:.1f} s, peak {int(proc.stderr) / 1024:.1f} MiB")


@pytest.mark.slow
def test_initial_values_compute_the_committed_offset_five_row():
    # both routes at orders 12 and 13 too: every cell of the row, none read back
    row = initial_values([5], 13)[5]
    fixture = nofull_table()
    assert sorted(row) == list(range(1, 14))
    assert row == {t: fixture.get((5, t), 0) for t in row}


def test_plus_full_step_matches_classification(chains_by_order):
    # each step of a chain, classified from its cover edge alone (the rows
    # top+1 .. d of its strip), against classify_r_set on the finished tableau
    for n in range(1, 7):
        for tab in chains_by_order[n]:
            chain = tableau_to_chain(tab)  # null diagram first
            for r in range(1, tab.length + 1):
                lower, strip = chain[r], tab.r_set(r)
                top, d = strip[0][0] - 1, strip[-1][0]
                expected = classify_r_set(tab, r) is RSetClass.PLUS_FULL
                assert is_plus_full_step(lower, top, d, n) == expected, (tab.rows, r)


def test_vanishing_partition_sizes(censuses):
    tally = censuses[4].min_plus_full[4]
    assert tally == {1: 1, 2: 1, 3: 1, 4: 1}


@pytest.mark.slow
def test_conjecture_products_computed_up_to_offset_five():
    # both products at i <= 5 against cells computed by both routes, orders up to 13
    result = run_check("conjecture/products", VerifyLimits(max_i=5))
    assert result.passed, result
    assert result.detail == "i <= 5"


def test_mutual_inversion_on_committed_values():
    result = run_check("formulas/mutual-inversion", VerifyLimits(max_i=5))
    assert result.passed, result

