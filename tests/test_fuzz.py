"""Contract fuzz: hostile pattern text and argv fail cleanly.

``parse_auto`` on any text returns a capped document or raises
``PatternFormatError``.  ``cli.main`` on any argv and a small fuzzed
pattern file exits 0, 1 or 2 with no exception escaping; exit 2 prints
an ``error:`` line, and exit 1 prints one or a failed check.  The draws
are derandomized, so every run tries the same inputs.
"""

import contextlib
import io
import os
import re
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lifeframes import patterns
from lifeframes.catalog import CATALOG
from lifeframes.cli import EXPLOSION_FACTOR_ENV, main
from lifeframes.patterns import PatternDocument, PatternFormatError, parse_auto

COUNTS = ["0", "1", "9", "1000", str(2**22 + 1), str(2**32 - 1), str(2**32)]
LONG = "9" * 5000
# An accented letter, a superscript and an Arabic-Indic digit, no-break
# and em spaces, NEL, NUL and a byte-order mark.
ODD = ["\u00e9", "\u00b2", "\u0663", "\u00a0", "\u2003", "\x85", "\x00", "\ufeff"]

count_text = st.sampled_from(COUNTS) | st.integers(0, 40).map(str) | st.just(LONG)
header = st.builds(
    lambda x, y, rule: f"x = {x}, y = {y}" + (f", rule = {rule}" if rule else ""),
    count_text,
    count_text,
    st.sampled_from([None, "B3/S23", "23/3", "B36/S23", ""]),
)
rle_token = st.builds(
    lambda n, tag: n + tag,
    st.sampled_from(["", "0", "1", "2", "9", "1000", str(2**22 + 1), str(2**32)])
    | st.sampled_from(ODD),
    st.sampled_from(["b", "o", "$", "!", "x", " "]),
)
rle_line = st.lists(rle_token, max_size=8).map("".join)
plain_line = st.text(alphabet=".O*o! ", max_size=12)
comment = st.sampled_from(["#N glider", "#C a comment", "!Name: blinker", "!", "#"])
junk = st.text(alphabet=st.sampled_from(ODD) | st.characters(), max_size=6)
line = header | rle_line | plain_line | comment | junk


@st.composite
def pattern_texts(draw):
    """Text mixing both alphabets: headers (often first, maybe twice),
    bodies, comments, any line ends, odd characters, maybe cut short."""
    lines = draw(st.lists(line, max_size=8))
    if draw(st.booleans()):
        lines.insert(draw(st.just(0) | st.integers(0, len(lines))), draw(header))
    text = draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines)
    if draw(st.booleans()):
        text = text[: draw(st.integers(0, len(text)))]
    return text


class TestParseAuto:
    @given(pattern_texts())
    @settings(derandomize=True, max_examples=600, deadline=None)
    def test_any_text_parses_under_the_cap_or_fails_with_a_location(self, text):
        try:
            doc = parse_auto(text)
        except PatternFormatError as exc:
            assert re.match(r"line \d+, column \d+: ", str(exc))
        else:
            assert isinstance(doc, PatternDocument)
            assert len(doc.cells) <= patterns._MAX_CELLS

    @pytest.mark.parametrize(
        "text", ["x = 1, y = 1\n\u00b2o!", "x = \u0663, y = 1\no!"]
    )
    def test_digits_outside_ascii_are_format_errors(self, text):
        with pytest.raises(PatternFormatError):
            parse_auto(text)

    def test_header_sizes_are_32_bit(self):
        assert parse_auto(f"x = {2**32 - 1}, y = 1\no!\n").width == 2**32 - 1
        assert parse_auto("x = 0000000000001, y = 1\no!\n").width == 1
        # LONG has more digits than int() converts by default.
        for size in (str(2**32), "1" * 11, LONG):
            with pytest.raises(PatternFormatError, match="header size exceeds 32"):
                parse_auto(f"x = {size}, y = 1\no!\n")


# Small patterns as (width, height, RLE body): glider, block, blinker,
# LWSS and R-pentomino, so that most runs step a board; and two blocks
# 2**31 apart, a board too wide for the packed fields.
SMALL = [
    (3, 3, "bo$2bo$3o!"),
    (2, 2, "2o$2o!"),
    (3, 1, "3o!"),
    (5, 4, "bo2bo$o4b$o3bo$4o!"),
    (3, 3, "b2o$2o$bo!"),
    (2**31 + 2, 2, "2o2147483646b2o$2o2147483646b2o!"),
]
PLAIN = ["", ".O.\n..O\nOOO", "OO\nOO", "O", "...", "O.*"]
damage = st.sampled_from([False, False, False, True])


@st.composite
def pattern_files(draw):
    """A small RLE or plaintext pattern, maybe damaged, as file bytes: any
    header, a second header, CRLF, cut short, or a byte outside ASCII."""
    if draw(st.booleans()):
        width, height, body = draw(st.sampled_from(SMALL))
        top = f"x = {width}, y = {height}, rule = B3/S23"
        if draw(damage):
            top = draw(header)
        if draw(damage):
            top = "x = 8, y = 8\n" + top
        text = top + "\n" + body + "\n"
    else:
        text = draw(st.sampled_from(PLAIN)) + "\n"
    if draw(st.booleans()):
        text = text.replace("\n", "\r\n")
    data = text.encode()
    if draw(damage):
        data = data[: draw(st.integers(0, len(data)))]
    if draw(damage):
        at = draw(st.integers(0, len(data)))
        odd = draw(st.sampled_from([b"\xff", b"\xc3\xa9", b"\x00"]))
        data = data[:at] + odd + data[at:]
    return data


BAD_COUNTS = ["-1", "-7", "2.5", "1/2", "1e2", "x", ""]
cli_count = (
    st.integers(0, 300).map(str)
    | st.integers(0, 12).map(str)
    | st.sampled_from(["0", "1", "300"])
    | st.sampled_from(BAD_COUNTS)
)
fraction = st.sampled_from(["0", "1", "1/2", "1/3", "1/4", "2/5", "-1/3", "3/2"]) | (
    st.sampled_from(["7", "-1", "1/0", "0.5", "1e3", "x", ""])
)
factor = st.sampled_from(["10", "100", "1.5", "0.5", "0", "-1", "nan", "1e400", "x"])
unknown = st.sampled_from([[]] * 8 + [["--bogus"], ["-x"], ["--gens"], ["extra"]])


def _option(flag, values):
    """No option, or flag with a value, spelled either way."""
    return st.one_of(
        st.just([]),
        st.builds(lambda v: [flag, v], values),
        st.builds(lambda v: [f"{flag}={v}"], values),
    )


def _command(words, *options):
    """words, then each option drawn, then maybe an unknown flag or word."""
    parts = st.tuples(*options, unknown)
    return parts.map(lambda drawn: [*words, *(a for part in drawn for a in part)])


fmt = _option("--format", st.sampled_from(["table", "machine"] * 3 + ["json"]))
suites = ["parallel", "oblique", "oracle", "deviation", "emissions", "all", "x"]
names = [e.name for e in CATALOG] + ["nope", ""]
commands = st.one_of(
    _command(
        ["run", "{file}"],
        _option("--gens", cli_count),
        _option("--explosion-factor", factor),
        _option("--out", st.sampled_from(["{dir}/out.rle"] * 3 + ["/no/such/x.rle"])),
        fmt,
    ),
    _command(
        ["detect", "{file}"],
        _option("--max-period", cli_count),
        _option("--explosion-factor", factor),
        fmt,
    ),
    _command(
        ["compose", "--v1=1/2", "--v2x=1/3"],
        _option("--v1", fraction),
        _option("--v2x", fraction),
        _option("--v2y", fraction),
        _option("--law", st.sampled_from(["life", "lorentz", "galilean", "x"])),
        fmt,
    ),
    _command(["verify"], _option("--suite", st.sampled_from(suites)), fmt),
    _command(
        ["catalog"],
        st.sampled_from([[], ["--list"]]),
        _option("--emit", st.sampled_from(names)),
        fmt,
    ),
    _command(
        ["emissions", "{file}"],
        _option("--horizon", cli_count),
        _option("--v1", fraction),
        fmt,
    ),
    _command([], st.sampled_from([[], ["nope"], ["--help"], ["run"]])),
)

ERROR_LINE = re.compile(r"^(\S+( \S+)?: )?error: ", re.MULTILINE)
FAILED_CHECK = re.compile(r"^FAIL |inversion failed|consistent=no", re.MULTILINE)


class TestMain:
    @given(commands, pattern_files())
    @settings(
        derandomize=True,
        max_examples=400,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_every_subcommand_exits_cleanly(self, tmp_path, argv, data):
        path = tmp_path / "pattern.rle"
        path.write_bytes(data)
        argv = [a.format(file=path, dir=tmp_path) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ), contextlib.redirect_stdout(
            out
        ), contextlib.redirect_stderr(err):
            os.environ.pop(EXPLOSION_FACTOR_ENV, None)
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert ERROR_LINE.search(err.getvalue()), (argv, err.getvalue())
        if code == 1:
            report = ERROR_LINE.search(err.getvalue()) or FAILED_CHECK.search(
                out.getvalue()
            )
            assert report, (argv, out.getvalue(), err.getvalue())
