"""Unit tests for repro.layout.locality -- the Section 2 equations."""

import pytest

from repro.ir.expr import AffineExpr
from repro.ir.reference import ArrayRef
from repro.layout.layout import Layout, column_major, diagonal, row_major
from repro.layout.locality import (
    access_delta,
    has_spatial_locality,
    has_temporal_locality,
    layout_for_deltas,
    preferred_layout,
)

_i1 = AffineExpr.var("i1")
_i2 = AffineExpr.var("i2")
ORDER = ("i1", "i2")
INNER = (0, 1)  # the direction of two successive iterations
OUTER = (1, 0)  # after loop interchange


class TestAccessDelta:
    def test_q1_delta(self):
        # Q1[i1+i2][i2]: successive iterations step the element by (1, 1).
        ref = ArrayRef("Q1", (_i1 + _i2, _i2))
        assert access_delta(ref, ORDER, INNER) == (1, 1)

    def test_q2_delta(self):
        # Q2[i1+i2][i1]: step (1, 0).
        ref = ArrayRef("Q2", (_i1 + _i2, _i1))
        assert access_delta(ref, ORDER, INNER) == (1, 0)

    def test_temporal_delta(self):
        # Q[i1][i1] does not move with i2.
        ref = ArrayRef("Q", (_i1, _i1))
        assert access_delta(ref, ORDER, INNER) == (0, 0)


class TestAccessDeltaMemo:
    """``access_delta`` is memoized by value, never by argument type."""

    def test_list_and_tuple_arguments_agree(self):
        ref = ArrayRef("Q1", (_i1 + _i2, _i2))
        as_tuple = access_delta(ref, ORDER, INNER)
        as_list = access_delta(ref, list(ORDER), list(INNER))
        assert as_list == as_tuple == (1, 1)
        assert isinstance(as_list, tuple)

    def test_equal_references_share_one_entry(self):
        from repro.layout.locality import _access_delta

        order = ("i1", "i2", "memo_k")
        first = ArrayRef("MEMO", (_i1 + _i2, AffineExpr.var("memo_k", 3)))
        second = ArrayRef("MEMO", (_i1 + _i2, AffineExpr.var("memo_k", 3)))
        assert first is not second and first == second
        before = _access_delta.cache_info()
        access_delta(first, order, (0, 0, 1))
        middle = _access_delta.cache_info()
        assert middle.misses == before.misses + 1
        assert access_delta(second, list(order), [0, 0, 1]) == (0, 3)
        after = _access_delta.cache_info()
        assert after.misses == middle.misses
        assert after.hits == middle.hits + 1

    def test_unknown_index_raises_every_call(self):
        ref = ArrayRef("Q", (_i1 + AffineExpr.var("k"),))
        for _ in range(3):
            with pytest.raises(ValueError, match="not in order"):
                access_delta(ref, ORDER, INNER)


class TestPreferredLayout:
    def test_paper_q1_diagonal(self):
        """The paper's worked example: Q1 wants (1 -1)."""
        ref = ArrayRef("Q1", (_i1 + _i2, _i2))
        layout = preferred_layout(ref, ORDER, INNER)
        assert layout == diagonal()

    def test_paper_q2_column_major(self):
        """And Q2 wants (0 1)."""
        ref = ArrayRef("Q2", (_i1 + _i2, _i1))
        layout = preferred_layout(ref, ORDER, INNER)
        assert layout == column_major(2)

    def test_paper_interchange_flips(self):
        """After interchanging the Figure 2 loops the preferences swap:
        Q1 wants (0 1) and Q2 wants (1 -1)."""
        q1 = ArrayRef("Q1", (_i1 + _i2, _i2))
        q2 = ArrayRef("Q2", (_i1 + _i2, _i1))
        assert preferred_layout(q1, ORDER, OUTER) == column_major(2)
        assert preferred_layout(q2, ORDER, OUTER) == diagonal()

    def test_row_access_wants_row_major(self):
        ref = ArrayRef("Q", (_i1, _i2))
        assert preferred_layout(ref, ORDER, INNER) == row_major(2)

    def test_temporal_reference_has_no_preference(self):
        ref = ArrayRef("Q", (_i1, _i1))
        assert preferred_layout(ref, ORDER, INNER) is None


class TestSpatialTemporalPredicates:
    def test_spatial(self):
        assert has_spatial_locality(diagonal(), (1, 1))
        assert not has_spatial_locality(row_major(2), (1, 1))

    def test_temporal(self):
        assert has_temporal_locality((0, 0))
        assert not has_temporal_locality((0, 1))


class TestLayoutForDeltas:
    def test_all_zero_deltas_no_preference(self):
        assert layout_for_deltas([(0, 0)], 2) is None

    def test_empty_deltas_no_preference(self):
        assert layout_for_deltas([], 2) is None

    def test_spanning_deltas_no_layout(self):
        # Deltas spanning the whole plane admit no annihilating row.
        assert layout_for_deltas([(1, 0), (0, 1)], 2) is None

    def test_multiple_parallel_deltas(self):
        layout = layout_for_deltas([(1, 1), (2, 2)], 2)
        assert layout == diagonal()

    def test_3d_single_delta_full_layout(self):
        layout = layout_for_deltas([(0, 0, 1)], 3)
        assert layout is not None
        assert len(layout.rows) == 2
        for row in layout.rows:
            assert row[2] == 0  # every row annihilates (0,0,1)

    def test_3d_two_deltas_completed(self):
        # Null space of two independent deltas is 1-D; the layout is
        # completed to two rows with the locality row first.
        layout = layout_for_deltas([(0, 0, 1), (0, 1, 0)], 3)
        assert layout is not None
        assert layout.rows[0] == (1, 0, 0)
