"""The shared interval engine: claims, conflicts, the rank-bitmask runs of
PLAN003, and the frozenset map they replaced (kept as the parity oracle)."""

import random

import pytest

from repro.check.intervals import Claim, RankRuns, find_conflicts, ranks_of
from tests.check.plan_rules_reference import IntervalSetMap


class TestClaim:
    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError, match="empty claim interval"):
            Claim(resource="r", lo=5, hi=5)

    def test_inverted_interval_rejected(self):
        with pytest.raises(ValueError, match="empty claim interval"):
            Claim(resource="r", lo=7, hi=3)


class TestFindConflicts:
    def test_disjoint_claims_clean(self):
        claims = [Claim("r", 0, 5), Claim("r", 5, 10), Claim("r", 10, 12)]
        assert find_conflicts(claims) == []

    def test_different_resources_never_conflict(self):
        claims = [Claim("a", 0, 10), Claim("b", 0, 10)]
        assert find_conflicts(claims) == []

    def test_overlap_reported_with_interval(self):
        first, second = Claim("r", 0, 6), Claim("r", 4, 10)
        (conflict,) = find_conflicts([first, second])
        assert conflict.resource == "r"
        assert conflict.overlap == (4, 6)

    def test_two_combinable_claims_coexist(self):
        claims = [
            Claim("r", 0, 8, combinable=True),
            Claim("r", 4, 10, combinable=True),
        ]
        assert find_conflicts(claims) == []

    def test_combinable_vs_exclusive_conflicts(self):
        claims = [Claim("r", 0, 8, combinable=True), Claim("r", 4, 10)]
        assert len(find_conflicts(claims)) == 1

    def test_first_only_stops_early(self):
        claims = [Claim("r", 0, 10), Claim("r", 1, 9), Claim("r", 2, 8)]
        assert len(find_conflicts(claims, first_only=True)) == 1
        assert len(find_conflicts(claims)) == 3

    def test_owner_echoed_back(self):
        first = Claim("r", 0, 5, owner="alpha")
        second = Claim("r", 3, 8, owner="beta")
        (conflict,) = find_conflicts([first, second])
        assert {conflict.first.owner, conflict.second.owner} == {"alpha", "beta"}


class TestIntervalSetMap:
    def test_initial_uniform(self):
        m = IntervalSetMap(total=10, initial=frozenset({3}))
        assert m.uniform_value() == frozenset({3})

    def test_overwrite_replaces_range(self):
        m = IntervalSetMap(total=10, initial=frozenset({0}))
        m.overwrite(2, 6, [(2, 6, frozenset({1}))])
        assert m.values_over(0, 2) == [frozenset({0})]
        assert m.values_over(2, 6) == [frozenset({1})]
        assert m.uniform_value() is None

    def test_union_merges_sets(self):
        m = IntervalSetMap(total=10, initial=frozenset({0}))
        dups = m.union(0, 10, [(0, 10, frozenset({1}))])
        assert dups == []
        assert m.uniform_value() == frozenset({0, 1})

    def test_union_reports_duplicate_contribution(self):
        m = IntervalSetMap(total=10, initial=frozenset({0, 1}))
        dups = m.union(2, 8, [(2, 8, frozenset({1, 2}))])
        assert dups == [(2, 8, frozenset({1}))]
        assert m.values_over(2, 8) == [frozenset({0, 1, 2})]

    def test_adjacent_equal_runs_merge(self):
        m = IntervalSetMap(total=10, initial=frozenset({0}))
        m.overwrite(0, 5, [(0, 5, frozenset({9}))])
        m.overwrite(5, 10, [(5, 10, frozenset({9}))])
        assert m.uniform_value() == frozenset({9})
        assert len(m.values_over(0, 10)) == 1

    def test_partial_union_decomposes_boundaries(self):
        m = IntervalSetMap(total=8, initial=frozenset({0}))
        m.union(2, 6, [(2, 4, frozenset({1})), (4, 6, frozenset({2}))])
        assert m.values_over(0, 8) == [
            frozenset({0}),
            frozenset({0, 1}),
            frozenset({0, 2}),
            frozenset({0}),
        ]

    def test_out_of_range_rejected(self):
        m = IntervalSetMap(total=4, initial=frozenset())
        with pytest.raises(ValueError, match="outside"):
            m.slice(0, 5)


def _runs(m):
    """A RankRuns state as IntervalSetMap-style (lo, hi, frozenset) runs."""
    bounds = [*m.starts, m.total]
    return [
        (bounds[k], bounds[k + 1], frozenset(ranks_of(mask)))
        for k, mask in enumerate(m.masks)
    ]


def _as_runs(held, lo, hi):
    """A RankRuns read result as (starts, masks)."""
    return ([lo], [held]) if isinstance(held, int) else held


class TestRankRuns:
    def test_single_run_reads_as_one_mask(self):
        m = RankRuns(10, 0b101)
        assert m.read(2, 7) == 0b101
        m.write(4, 6, 0b10)
        assert m.read(0, 4) == 0b101
        assert m.read(3, 8) == ([3, 4, 6], [0b101, 0b10, 0b101])

    def test_adjacent_equal_runs_merge(self):
        m = RankRuns(10, 0b1)
        m.write(0, 5, 1 << 9)
        m.write(5, 10, 1 << 9)
        assert (m.starts, m.masks) == ([0], [1 << 9])

    def test_add_reports_duplicates_per_refinement_piece(self):
        m = RankRuns(8, 0b11)
        m.write(4, 8, 0b1)
        dups = m.add(2, 8, ([2, 6], [0b110, 0b1]))
        assert dups == [(2, 4, 0b10), (6, 8, 0b1)]
        assert _runs(m) == [
            (0, 2, frozenset({0, 1})),
            (2, 6, frozenset({0, 1, 2})),
            (6, 8, frozenset({0})),
        ]

    def test_out_of_range_rejected(self):
        m = RankRuns(4, 0)
        with pytest.raises(ValueError, match=r"range \[0, 5\) outside \[0, 4\)"):
            m.read(0, 5)

    def test_random_ops_match_interval_set_map(self):
        """Every state after random copies and sums equals the frozenset
        map's, run for run, and every sum reports the same duplicates."""
        rng = random.Random("rank-runs")
        for _ in range(200):
            total = rng.randrange(1, 40)
            n = rng.randrange(1, 6)
            ours = [RankRuns(total, 1 << i) for i in range(n)]
            ref = [IntervalSetMap(total=total, initial=frozenset({i})) for i in range(n)]
            for _ in range(rng.randrange(1, 30)):
                src, dst = rng.randrange(n), rng.randrange(n)
                lo = rng.randrange(total)
                hi = rng.randrange(lo + 1, total + 1)
                held = _as_runs(ours[src].read(lo, hi), lo, hi)
                pieces = ref[src].slice(lo, hi)
                assert [(a, b, frozenset(ranks_of(mk))) for a, b, mk in zip(
                    held[0], [*held[0][1:], hi], held[1]
                )] == pieces
                got = ours[src].read(lo, hi)
                if rng.random() < 0.5:
                    ours[dst].write(lo, hi, got)
                    ref[dst].overwrite(lo, hi, pieces)
                else:
                    dups = ours[dst].add(lo, hi, got)
                    assert [(a, b, frozenset(ranks_of(d))) for a, b, d in dups] == (
                        ref[dst].union(lo, hi, pieces)
                    )
                for node in range(n):
                    assert _runs(ours[node]) == ref[node].slice(0, total)
