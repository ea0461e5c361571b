"""Unit tests for repro.layout.hyperplane and repro.layout.layout."""

import json
import pickle

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.layout.hyperplane import Hyperplane
from repro.layout.layout import (
    Layout,
    antidiagonal,
    column_major,
    diagonal,
    row_major,
    standard_layouts,
)
from repro.service.stream import layouts_from_wire, layouts_to_wire


@st.composite
def layouts(draw):
    """A valid layout of rank 1..4 from small random rows."""
    dimension = draw(st.integers(1, 4))
    rows = draw(
        st.lists(
            st.lists(st.integers(-4, 4), min_size=dimension, max_size=dimension),
            min_size=dimension - 1,
            max_size=dimension - 1,
        )
    )
    try:
        return Layout(dimension, rows)
    except ValueError:  # zero or dependent rows
        assume(False)


class TestHyperplane:
    def test_canonicalizes_on_construction(self):
        assert Hyperplane((2, -2)) == Hyperplane((1, -1))

    def test_paper_same_diagonal(self):
        # Section 2: (5 3) and (7 5) share the (1 -1) diagonal.
        plane = Hyperplane((1, -1))
        assert plane.same_hyperplane((5, 3), (7, 5))

    def test_paper_different_diagonals(self):
        plane = Hyperplane((1, -1))
        assert not plane.same_hyperplane((5, 3), (5, 4))

    def test_row_major_constant_is_row_number(self):
        plane = Hyperplane((1, 0))
        assert plane.constant_for((7, 3)) == 7

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            Hyperplane((0, 0))

    def test_str(self):
        assert str(Hyperplane((1, -1))) == "(1  -1)"

    @given(st.lists(st.integers(-9, 9), min_size=2, max_size=4))
    @settings(max_examples=60)
    def test_membership_invariant_under_scaling(self, vector):
        if all(x == 0 for x in vector):
            return
        plane = Hyperplane(vector)
        scaled = Hyperplane([3 * x for x in vector])
        point_a = tuple(range(len(vector)))
        point_b = tuple(reversed(range(len(vector))))
        assert plane.same_hyperplane(point_a, point_b) == scaled.same_hyperplane(
            point_a, point_b
        )


class TestLayout:
    def test_row_major_2d(self):
        layout = row_major(2)
        assert layout.rows == ((1, 0),)
        assert layout.colocated((3, 0), (3, 7))
        assert not layout.colocated((3, 0), (4, 0))

    def test_column_major_3d_matches_paper(self):
        # Section 2's 3-D column-major example: Y1 = (0 0 1), Y2 = (0 1 0).
        layout = column_major(3)
        assert layout.rows == ((0, 0, 1), (0, 1, 0))
        # Same column: indices equal except the first dimension.
        assert layout.colocated((0, 4, 2), (9, 4, 2))
        assert not layout.colocated((0, 4, 2), (0, 5, 2))

    def test_diagonal(self):
        layout = diagonal()
        assert layout.colocated((5, 3), (7, 5))
        assert not layout.colocated((5, 3), (5, 4))

    def test_antidiagonal(self):
        layout = antidiagonal()
        assert layout.colocated((2, 3), (3, 2))

    def test_one_dimensional_layout(self):
        layout = Layout(1, [])
        assert layout.rows == ()
        assert layout.colocated((5,), (9,))  # trivially: no constraint rows

    def test_wrong_row_count_rejected(self):
        with pytest.raises(ValueError):
            Layout(3, [(1, 0, 0)])

    def test_dependent_rows_rejected(self):
        with pytest.raises(ValueError):
            Layout(3, [(1, 0, 0), (2, 0, 0)])

    def test_wrong_row_length_rejected(self):
        with pytest.raises(ValueError):
            Layout(2, [(1, 0, 0)])

    def test_rows_canonicalized(self):
        assert Layout(2, [(2, -2)]) == Layout(2, [(1, -1)])

    def test_hashable_and_equal(self):
        assert hash(row_major(2)) == hash(Layout(2, [(1, 0)]))

    def test_describe_known_names(self):
        assert "row-major" in row_major(2).describe()
        assert "column-major" in column_major(2).describe()
        assert "diagonal" in diagonal().describe()

    def test_standard_layouts_2d_match_figure1(self):
        layouts = standard_layouts(2)
        vectors = {layout.rows[0] for layout in layouts}
        assert vectors == {(1, 0), (0, 1), (1, -1), (1, 1)}

    def test_standard_layouts_1d(self):
        assert len(standard_layouts(1)) == 1

    def test_standard_layouts_3d(self):
        layouts = standard_layouts(3)
        assert row_major(3) in layouts and column_major(3) in layouts


class TestLayoutIdentity:
    """The construction-time hash is the dataclass hash of the fields."""

    @given(layouts(), st.integers(-5, 5).filter(bool))
    @settings(max_examples=150)
    def test_scaled_rows_equal_and_hash_equal(self, layout, factor):
        scaled = Layout(
            layout.dimension, [[factor * x for x in row] for row in layout.rows]
        )
        assert scaled == layout and layout == scaled
        assert hash(scaled) == hash(layout)

    def test_scaled_diagonal(self):
        assert Layout(2, [(2, -2)]) == Layout(2, [(1, -1)])
        assert hash(Layout(2, [(2, -2)])) == hash(Layout(2, [(1, -1)]))

    @given(layouts())
    @settings(max_examples=150)
    def test_hash_is_field_tuple_hash(self, layout):
        assert hash(layout) == hash((layout.dimension, layout.rows))

    @given(layouts(), layouts())
    @settings(max_examples=150)
    def test_equality_is_field_equality(self, first, second):
        same_fields = (first.dimension, first.rows) == (second.dimension, second.rows)
        assert (first == second) == same_fields
        assert (first != second) == (not same_fields)

    def test_not_equal_to_other_types(self):
        assert row_major(2) != (2, ((1, 0),))
        assert row_major(2) != "row-major"

    @given(layouts())
    @settings(max_examples=100)
    def test_pickle_round_trip_carries_no_memo(self, layout):
        payload = pickle.dumps(layout)
        restored = pickle.loads(payload)
        assert restored == layout and hash(restored) == hash(layout)
        assert restored.rows == layout.rows
        assert layout.__getstate__() == {
            "dimension": layout.dimension,
            "rows": layout.rows,
        }
        assert b"_hash" not in payload

    @given(layouts())
    @settings(max_examples=100)
    def test_wire_form_carries_no_memo(self, layout):
        wire = layouts_to_wire({"A": layout})
        assert set(wire["A"]) == {"dimension", "rows"}
        assert "_hash" not in json.dumps(wire)
        restored = layouts_from_wire(json.loads(json.dumps(wire)))["A"]
        assert restored == layout and hash(restored) == hash(layout)

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_standard_layouts_interned(self, rank):
        first = standard_layouts(rank)
        again = standard_layouts(rank)
        assert all(a is b for a, b in zip(first, again))
        assert len(first) == len(again)
