"""Bit-exact readers and writers for Life pattern files.

Two formats: run-length encoded (RLE) with an ``x = M, y = N`` header,
and plaintext grids of ``.`` / ``O``.  Parsing is strict: anything
outside the format's alphabet, out-of-bounds cells, zero run counts or
a missing ``!`` terminator is an error carrying line and column, since
a silently mangled pattern would poison every measurement made
downstream.  Only the B3/S23 rule is accepted.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .engine import Pattern

__all__ = [
    "PatternDocument",
    "PatternFormatError",
    "parse_rle",
    "emit_rle",
    "parse_plaintext",
    "emit_plaintext",
    "parse_auto",
]

CANONICAL_RULE = "B3/S23"

# Values a run count or a header size may take: non-negative 32-bit.
_MAX_RUN = 2**32 - 1

# Live cells one document of either format may hold.  A run is checked
# against it before any of its cells are added, so a huge declared run
# fails at once instead of filling memory one cell at a time.
_MAX_CELLS = 1 << 22

# Accepted spellings of the one supported rule.
_RULE_ALIASES = {"B3/S23", "S23/B3", "23/3"}

_HEADER_RE = re.compile(
    r"^\s*x\s*=\s*(\d+)\s*,\s*y\s*=\s*(\d+)"
    r"(?:\s*,\s*rule\s*=\s*([^,\s]+))?\s*$",
    re.ASCII | re.IGNORECASE,
)

# Max body line length when emitting, following common usage.
_EMIT_WIDTH = 70


class PatternFormatError(ValueError):
    """A malformed pattern file, located by 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class PatternDocument:
    """A parsed pattern file: cells plus its surrounding metadata."""

    cells: frozenset[tuple[int, int]]
    width: int
    height: int
    rule: str = CANONICAL_RULE
    name: str | None = None
    comments: tuple[str, ...] = field(default_factory=tuple)

    def to_pattern(self) -> Pattern:
        return Pattern(self.cells, generation=0)

    @classmethod
    def from_pattern(
        cls,
        p: Pattern,
        name: str | None = None,
        comments: tuple[str, ...] = (),
    ) -> "PatternDocument":
        if p.cells:
            xs = [x for x, _ in p.cells]
            ys = [y for _, y in p.cells]
            min_x, min_y = min(xs), min(ys)
            cells = frozenset((x - min_x, y - min_y) for x, y in p.cells)
            width = max(xs) - min_x + 1
            height = max(ys) - min_y + 1
        else:
            cells, width, height = frozenset(), 0, 0
        return cls(cells, width, height, CANONICAL_RULE, name, tuple(comments))


def _add_run(cells: set, x: int, y: int, run: int, pos: tuple[int, int]) -> None:
    """Add run live cells rightward from (x, y), or refuse them at pos past the cap."""
    if len(cells) + run > _MAX_CELLS:
        raise PatternFormatError(f"more than {_MAX_CELLS} live cells", *pos)
    cells.update((x + i, y) for i in range(run))


def _canonical_rule(text: str, line: int, column: int) -> str:
    if text.replace(" ", "").upper() not in _RULE_ALIASES:
        raise PatternFormatError(f"unsupported rule {text!r}", line, column)
    return CANONICAL_RULE


def parse_rle(text: str) -> PatternDocument:
    """Parse an RLE document into its exact cell set."""
    lines = text.splitlines()
    name: str | None = None
    comments: list[str] = []

    header_idx = None
    for i, raw in enumerate(lines):
        stripped = raw.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            body = stripped[1:]
            if body.startswith("N ") and name is None:
                name = body[2:].strip()
            else:
                comments.append(body)
            continue
        header_idx = i
        break
    if header_idx is None:
        raise PatternFormatError("missing header line", len(lines) or 1, 1)

    m = _HEADER_RE.match(lines[header_idx])
    if not m:
        raise PatternFormatError(
            f"malformed header {lines[header_idx].strip()!r}",
            header_idx + 1,
            1,
        )
    # Ten digits hold 32 bits, and int() refuses a few thousand.
    if any(len(n.lstrip("0")) > 10 or int(n) > _MAX_RUN for n in m.group(1, 2)):
        raise PatternFormatError("header size exceeds 32 bits", header_idx + 1, 1)
    width, height = int(m.group(1)), int(m.group(2))
    rule = CANONICAL_RULE
    if m.group(3) is not None:
        rule = _canonical_rule(m.group(3), header_idx + 1, 1)

    cells: set[tuple[int, int]] = set()
    x = y = 0
    count: int | None = None
    count_pos: tuple[int, int] = (0, 0)
    terminated = False

    for li in range(header_idx + 1, len(lines)):
        if terminated:
            break
        for ci, ch in enumerate(lines[li]):
            pos = (li + 1, ci + 1)
            if ch.isascii() and ch.isspace():
                continue
            if ch in "0123456789":
                count = (count or 0) * 10 + int(ch)
                if count > _MAX_RUN:
                    raise PatternFormatError("run count exceeds 32 bits", *pos)
                count_pos = pos
                continue
            if ch == "!":
                if count is not None:
                    raise PatternFormatError(
                        "run count with no cell tag", *count_pos
                    )
                terminated = True
                break
            if ch not in "bo$":
                raise PatternFormatError(f"unexpected character {ch!r}", *pos)
            run = 1 if count is None else count
            if run == 0:
                raise PatternFormatError("run count of zero", *count_pos)
            count = None
            if ch == "$":
                y += run
                x = 0
            else:
                if y >= height or x + run > width:
                    raise PatternFormatError(
                        f"body exceeds declared {width}x{height} bounds", *pos
                    )
                if ch == "o":
                    _add_run(cells, x, y, run, pos)
                x += run

    if not terminated:
        raise PatternFormatError("missing '!' terminator", len(lines), 1)

    return PatternDocument(
        frozenset(cells), width, height, rule, name, tuple(comments)
    )


def _rle_body_tokens(doc: PatternDocument) -> list[str]:
    if not doc.cells:
        return ["!"]
    rows: dict[int, list[int]] = {}
    for cx, cy in doc.cells:
        rows.setdefault(cy, []).append(cx)

    tokens: list[str] = []
    previous_y: int | None = None
    for cy in sorted(rows):
        if previous_y is not None:
            gap = cy - previous_y
            tokens.append("$" if gap == 1 else f"{gap}$")
        previous_y = cy
        xs = sorted(rows[cy])
        cursor = 0
        i = 0
        while i < len(xs):
            j = i
            while j + 1 < len(xs) and xs[j + 1] == xs[j] + 1:
                j += 1
            dead = xs[i] - cursor
            if dead:
                tokens.append("b" if dead == 1 else f"{dead}b")
            alive = j - i + 1
            tokens.append("o" if alive == 1 else f"{alive}o")
            cursor = xs[j] + 1
            i = j + 1
    tokens.append("!")
    return tokens


def emit_rle(doc: PatternDocument) -> str:
    """Canonical RLE: origin-translated minimal box, maximal runs."""
    doc = PatternDocument.from_pattern(
        Pattern(doc.cells), name=doc.name, comments=doc.comments
    )
    lines: list[str] = []
    if doc.name is not None:
        lines.append(f"#N {doc.name}")
    lines.extend(f"#{c}" for c in doc.comments)
    lines.append(f"x = {doc.width}, y = {doc.height}, rule = {CANONICAL_RULE}")

    current = ""
    for token in _rle_body_tokens(doc):
        if current and len(current) + len(token) > _EMIT_WIDTH:
            lines.append(current)
            current = ""
        current += token
    lines.append(current)
    return "\n".join(lines) + "\n"


def parse_plaintext(text: str) -> PatternDocument:
    """Parse a ``.``/``O`` grid; ``*`` is accepted as alive too."""
    name: str | None = None
    comments: list[str] = []
    grid_rows: list[str] = []
    row_lines: list[int] = []

    for li, raw in enumerate(text.splitlines()):
        line = raw.rstrip("\r")
        if line.startswith("!"):
            body = line[1:]
            if body.startswith("Name: ") and name is None:
                name = body[len("Name: ") :].strip()
            else:
                comments.append(body)
            continue
        grid_rows.append(line)
        row_lines.append(li + 1)

    cells: set[tuple[int, int]] = set()
    width = 0
    for y, row in enumerate(grid_rows):
        width = max(width, len(row))
        for x, ch in enumerate(row):
            if ch in "O*":
                _add_run(cells, x, y, 1, (row_lines[y], x + 1))
            elif ch != ".":
                raise PatternFormatError(
                    f"unexpected character {ch!r}", row_lines[y], x + 1
                )
    height = len(grid_rows)
    if not cells and not any(r for r in grid_rows):
        width = height = 0

    return PatternDocument(
        frozenset(cells), width, height, CANONICAL_RULE, name, tuple(comments)
    )


def emit_plaintext(doc: PatternDocument) -> str:
    """Canonical plaintext over the minimal bounding box."""
    doc = PatternDocument.from_pattern(
        Pattern(doc.cells), name=doc.name, comments=doc.comments
    )
    lines: list[str] = []
    if doc.name is not None:
        lines.append(f"!Name: {doc.name}")
    lines.extend(f"!{c}" for c in doc.comments)
    for y in range(doc.height):
        lines.append(
            "".join("O" if (x, y) in doc.cells else "." for x in range(doc.width))
        )
    return "\n".join(lines) + "\n"


def parse_auto(text: str) -> PatternDocument:
    """Parse either format, deciding by the first meaningful line."""
    for raw in text.splitlines():
        stripped = raw.strip()
        if not stripped:
            continue
        if stripped.startswith("#") or _HEADER_RE.match(stripped):
            return parse_rle(text)
        break
    return parse_plaintext(text)
