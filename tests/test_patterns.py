import time
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lifeframes import patterns
from lifeframes.engine import Pattern, translate
from lifeframes.patterns import (
    PatternDocument,
    PatternFormatError,
    emit_plaintext,
    emit_rle,
    parse_auto,
    parse_plaintext,
    parse_rle,
)

GLIDER_RLE = "x = 3, y = 3, rule = B3/S23\nbo$2bo$3o!\n"
GLIDER_CELLS = frozenset({(1, 0), (2, 1), (0, 2), (1, 2), (2, 2)})


def small_cells():
    coord = st.integers(min_value=0, max_value=30)
    return st.frozensets(st.tuples(coord, coord), min_size=1, max_size=50)


class TestParseRle:
    def test_glider(self):
        doc = parse_rle(GLIDER_RLE)
        assert doc.cells == GLIDER_CELLS
        assert (doc.width, doc.height) == (3, 3)
        assert doc.rule == "B3/S23"

    def test_name_and_comments(self):
        doc = parse_rle("#N Glider\n#C small and famous\n" + GLIDER_RLE)
        assert doc.name == "Glider"
        assert doc.comments == ("C small and famous",)

    def test_rule_aliases(self):
        for alias in ("B3/S23", "b3/s23", "S23/B3", "23/3"):
            doc = parse_rle(f"x = 2, y = 1, rule = {alias}\n2o!\n")
            assert doc.rule == "B3/S23"

    def test_header_without_rule_defaults(self):
        assert parse_rle("x = 1, y = 1\no!\n").rule == "B3/S23"

    def test_other_rule_rejected(self):
        with pytest.raises(PatternFormatError, match="unsupported rule"):
            parse_rle("x = 1, y = 1, rule = B36/S23\no!\n")

    def test_missing_header(self):
        with pytest.raises(PatternFormatError, match="missing header"):
            parse_rle("#C all talk, no pattern\n")

    def test_malformed_header(self):
        with pytest.raises(PatternFormatError, match="malformed header"):
            parse_rle("x = 3 y = 3\n3o!\n")

    def test_runs_may_span_lines(self):
        doc = parse_rle("x = 4, y = 1, rule = B3/S23\n2\no2o!\n")
        assert doc.cells == {(0, 0), (1, 0), (2, 0), (3, 0)}

    def test_whitespace_inside_body(self):
        doc = parse_rle("x = 3, y = 1, rule = B3/S23\n o 2o !\n")
        assert doc.cells == {(0, 0), (1, 0), (2, 0)}

    @pytest.mark.parametrize("space", ["\u3000", "\u00a0", "\u2003"])
    def test_only_ascii_whitespace_is_skipped(self, space):
        # Tab and space are blanks; a Unicode space is a character the
        # format does not have, located where it stands.
        assert len(parse_auto("x = 3, y = 1\n2\to o!").cells) == 3
        with pytest.raises(PatternFormatError) as err:
            parse_auto(f"x = 3, y = 1\n2 o{space}o!")
        assert (err.value.line, err.value.column) == (2, 4)
        assert "unexpected character" in str(err.value)

    def test_zero_run_count(self):
        with pytest.raises(PatternFormatError, match="zero"):
            parse_rle("x = 2, y = 1, rule = B3/S23\n0o!\n")

    def test_count_before_terminator(self):
        with pytest.raises(PatternFormatError, match="no cell tag"):
            parse_rle("x = 2, y = 1, rule = B3/S23\n2!\n")

    def test_run_count_overflow(self):
        with pytest.raises(PatternFormatError, match="32 bits"):
            parse_rle("x = 2, y = 1, rule = B3/S23\n99999999999o!\n")

    def test_huge_declared_run_fails_fast(self):
        start = time.perf_counter()
        with pytest.raises(PatternFormatError, match="live cells"):
            parse_rle("x = 4294967295, y = 1, rule = B3/S23\n4294967295o!\n")
        assert time.perf_counter() - start < 0.1

    def test_cell_cap_is_exact(self, monkeypatch):
        # Both formats share the cap, and refuse at the first cell over it.
        monkeypatch.setattr(patterns, "_MAX_CELLS", 6)
        rle = "x = 7, y = 2, rule = B3/S23\n3o$3o!\n", "x = 7, y = 2\n3o$3bo3o!\n"
        cells = "!Name: six\nOOO\nOOO\n", "!Name: seven\nOOO\nO.*.OO\n"
        for parse, (fits, over), at in [
            (parse_rle, rle, "line 2, column 8"),
            (parse_plaintext, cells, "line 3, column 6"),
            (parse_auto, rle, "line 2, column 8"),
            (parse_auto, cells, "line 3, column 6"),
        ]:
            assert len(parse(fits).cells) == 6
            with pytest.raises(PatternFormatError, match=f"{at}: more than 6 live"):
                parse(over)

    def test_row_overrun(self):
        with pytest.raises(PatternFormatError, match="bounds"):
            parse_rle("x = 2, y = 2, rule = B3/S23\n3o!\n")

    def test_too_many_rows(self):
        with pytest.raises(PatternFormatError, match="bounds"):
            parse_rle("x = 1, y = 1, rule = B3/S23\no$o!\n")

    def test_missing_terminator(self):
        with pytest.raises(PatternFormatError, match="terminator"):
            parse_rle("x = 3, y = 3, rule = B3/S23\nbo$2bo$3o\n")

    def test_unexpected_character(self):
        with pytest.raises(PatternFormatError, match="unexpected character"):
            parse_rle("x = 3, y = 3, rule = B3/S23\nbo$2bo$3z!\n")

    def test_error_carries_position(self):
        with pytest.raises(PatternFormatError) as err:
            parse_rle("x = 3, y = 3, rule = B3/S23\nbo$\n2bo$3z!\n")
        assert err.value.line == 3
        assert err.value.column == 6
        assert "line 3, column 6" in str(err.value)

    def test_text_after_terminator_is_ignored(self):
        doc = parse_rle("x = 1, y = 1, rule = B3/S23\no! trailing chatter\n")
        assert doc.cells == {(0, 0)}
        doc = parse_rle("x = 1, y = 1, rule = B3/S23\no!\n3o$bo!\nchatter\n")
        assert doc.cells == {(0, 0)}

    def test_empty_document(self):
        doc = parse_rle("x = 0, y = 0, rule = B3/S23\n!\n")
        assert doc.cells == frozenset()
        assert (doc.width, doc.height) == (0, 0)


class TestEmitRle:
    def test_glider_canonical(self):
        assert emit_rle(parse_rle(GLIDER_RLE)) == GLIDER_RLE

    def test_emit_normalizes_to_origin(self):
        shifted = PatternDocument.from_pattern(
            translate(Pattern(GLIDER_CELLS), 40, -7)
        )
        assert emit_rle(shifted) == GLIDER_RLE

    def test_name_and_comments_survive(self):
        doc = parse_rle("#N Glider\n#C keep me\n" + GLIDER_RLE)
        text = emit_rle(doc)
        assert text.startswith("#N Glider\n#C keep me\n")
        assert parse_rle(text).name == "Glider"

    def test_multi_row_gap_collapses(self):
        doc = PatternDocument.from_pattern(
            Pattern(frozenset({(0, 0), (1, 0), (0, 4), (1, 4)}))
        )
        assert "4$" in emit_rle(doc)

    @pytest.mark.parametrize("kind", [np.int32, np.int64])
    def test_numpy_integer_coordinates_are_taken_as_ints(self, kind):
        # In numpy's arithmetic an int32 row from -2**31 to 2**31 - 1
        # wrapped around to width 0 and a cell at x = -1.
        ends = Pattern(frozenset({(kind(-(2**31)), kind(0)), (kind(2**31 - 1), kind(0))}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            doc = PatternDocument.from_pattern(ends)
        assert doc.cells == {(0, 0), (2**32 - 1, 0)} and (doc.width, doc.height) == (2**32, 1)
        assert all(type(c) is int for cell in doc.cells for c in cell)
        with pytest.raises(TypeError, match="must be an int"):
            PatternDocument.from_pattern(Pattern(frozenset({(0.5, 0)})))

    def test_empty_pattern(self):
        text = emit_rle(PatternDocument.from_pattern(Pattern()))
        assert text == "x = 0, y = 0, rule = B3/S23\n!\n"
        assert parse_rle(text).cells == frozenset()

    def test_long_rows_wrap(self):
        cells = frozenset((x * 2, 0) for x in range(120))
        text = emit_rle(PatternDocument.from_pattern(Pattern(cells)))
        assert all(len(line) <= 70 for line in text.splitlines())
        assert parse_rle(text).cells == {(x * 2, 0) for x in range(120)}

    @given(small_cells())
    def test_round_trip_cells(self, cells):
        origin_x = min(x for x, _ in cells)
        origin_y = min(y for _, y in cells)
        normalized = frozenset((x - origin_x, y - origin_y) for x, y in cells)
        text = emit_rle(PatternDocument.from_pattern(Pattern(cells)))
        again = parse_rle(text)
        assert again.cells == normalized
        assert emit_rle(again) == text


class TestPlaintext:
    def test_parse_grid(self):
        doc = parse_plaintext("!Name: Glider\n!the usual\n.O.\n..O\nOOO\n")
        assert doc.cells == GLIDER_CELLS
        assert doc.name == "Glider"
        assert doc.comments == ("the usual",)

    def test_star_is_alive(self):
        assert parse_plaintext("*.\n.*\n").cells == {(0, 0), (1, 1)}

    def test_short_rows_are_padded(self):
        doc = parse_plaintext("O\nOOO\n")
        assert doc.cells == {(0, 0), (0, 1), (1, 1), (2, 1)}
        assert doc.width == 3

    def test_bad_character(self):
        with pytest.raises(PatternFormatError) as err:
            parse_plaintext(".O.\n.x.\n")
        assert err.value.line == 2
        assert err.value.column == 2

    def test_empty_text(self):
        doc = parse_plaintext("")
        assert doc.cells == frozenset()
        assert (doc.width, doc.height) == (0, 0)

    def test_emit_round_trip(self):
        text = emit_plaintext(parse_plaintext(".O.\n..O\nOOO\n"))
        assert text == ".O.\n..O\nOOO\n"

    @given(small_cells())
    def test_round_trip_cells(self, cells):
        origin_x = min(x for x, _ in cells)
        origin_y = min(y for _, y in cells)
        normalized = frozenset((x - origin_x, y - origin_y) for x, y in cells)
        text = emit_plaintext(PatternDocument.from_pattern(Pattern(cells)))
        again = parse_plaintext(text)
        assert again.cells == normalized
        assert emit_plaintext(again) == text


class TestParseAuto:
    def test_dispatches_rle_by_header(self):
        assert parse_auto(GLIDER_RLE).cells == GLIDER_CELLS

    def test_dispatches_rle_by_comment(self):
        assert parse_auto("#N g\n" + GLIDER_RLE).name == "g"

    def test_dispatches_plaintext(self):
        assert parse_auto(".O.\n..O\nOOO\n").cells == GLIDER_CELLS

    def test_document_to_pattern(self):
        p = parse_auto(GLIDER_RLE).to_pattern()
        assert p.cells == GLIDER_CELLS
        assert p.generation == 0
