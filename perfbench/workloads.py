"""The benchmark's four workloads: inputs from a seed, the timed call, the check.

Each workload builds its input when constructed, makes one user-level
call in ``run``, and ``observe`` sums up what came back; ``check``
compares that summary against a reference recorded from an unmoved
input and raises ``Mismatch`` on any difference.  For the board
workloads the seed picks one of the eight plane symmetries and a small
translation; the check maps the outputs back through the inverse, so
one reference serves every seed.  Translations stay within
``MAX_SHIFT`` cells, far inside the engine's +/- 2**30 packed window,
so the same stepping path runs for every seed.

Run ``python3 perfbench/workloads.py`` (with ``src`` on PYTHONPATH) to
print the digests of the unmoved inputs, i.e. the references below.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from pathlib import Path

from lifeframes.catalog import catalog_pattern, gun_battery, named_ship_catalog
from lifeframes.cli import main as cli_main
from lifeframes.detector import detect_emissions
from lifeframes.engine import Pattern
from lifeframes.patterns import PatternDocument, emit_rle, parse_rle

MAX_SHIFT = 64

# The eight plane symmetries (x, y) -> (a*x + b*y, c*x + d*y).  Each is
# orthogonal, so its inverse is its transpose.
SYMMETRIES = (
    (1, 0, 0, 1),
    (0, -1, 1, 0),
    (-1, 0, 0, -1),
    (0, 1, -1, 0),
    (-1, 0, 0, 1),
    (1, 0, 0, -1),
    (0, 1, 1, 0),
    (0, -1, -1, 0),
)

# Recorded from the unmoved inputs at the commit that added the benchmark.
REFERENCE = {
    "gun_census": {"events": 66, "digest": "f18484af9aa5b1ee"},
    "battery_census": {"events": 0, "digest": "4f53cda18c2baa0c"},
    "battery_run": {"exit": 0, "generation": "10000", "population": 1495, "digest": "4120682e3ddffaa7"},
    "verify_all": {"exit": 0, "last_line": "passed=20 failed=0", "digest": "77005d409429be4a"},
}


class Mismatch(AssertionError):
    """An output that differs from the reference."""


class Placement:
    """A seed's symmetry and translation, with the inverse map for checks."""

    def __init__(self, seed: int | None) -> None:
        if seed is None:
            self.m, self.shift = SYMMETRIES[0], (0, 0)
        else:
            rng = random.Random(seed)
            self.m = rng.choice(SYMMETRIES)
            self.shift = (rng.randint(-MAX_SHIFT, MAX_SHIFT), rng.randint(-MAX_SHIFT, MAX_SHIFT))

    def forward(self, cells) -> frozenset:
        a, b, c, d = self.m
        sx, sy = self.shift
        return frozenset((a * x + b * y + sx, c * x + d * y + sy) for x, y in cells)

    def back(self, x: int, y: int) -> tuple[int, int]:
        a, b, c, d = self.m
        x, y = x - self.shift[0], y - self.shift[1]
        return a * x + c * y, b * x + d * y

    def back_vector(self, vx, vy):
        a, b, c, d = self.m
        return a * vx + c * vy, b * vx + d * vy

    def back_box(self, x0: int, y0: int, x1: int, y1: int) -> tuple[int, int]:
        """Lower corner, in the unmoved frame, of a box given in this frame."""
        (ax, ay), (bx, by) = self.back(x0, y0), self.back(x1, y1)
        return min(ax, bx), min(ay, by)


def digest(items: list) -> str:
    return hashlib.sha256(repr(items).encode("ascii")).hexdigest()[:16]


class Workload:
    """One user-level call; subclasses set ``name`` and ``gens``."""

    name: str
    # Board generations one run asks for; gens_per_s divides by it.
    gens: int

    def run(self):
        raise NotImplementedError

    def observe(self, result) -> dict:
        """The facts about a run's output that the reference pins down."""
        raise NotImplementedError

    def check(self, result) -> None:
        """Raise ``Mismatch`` unless the output equals the reference."""
        got, want = self.observe(result), REFERENCE[self.name]
        if got != want:
            raise Mismatch(f"{self.name}: got {got}, want {want}")


def _event_rows(events, place: Placement) -> list[tuple]:
    """(birth, first sighting, velocity) of each event, in the unmoved frame.

    The sighting is the lower corner of the ship's box.  The census
    does not say which phase was sighted, so every phase of the ship
    must share one box size for the corner to map back.
    """
    rows = []
    for e in events:
        sizes = {(max(x for x, _ in ph.cells), max(y for _, y in ph.cells)) for ph in e.ship.phases}
        if len(sizes) != 1:
            raise Mismatch(f"ship phases differ in box size: {sorted(sizes)}")
        (w, h), (x, y) = sizes.pop(), e.first_sighting
        vx, vy = place.back_vector(*e.ground_velocity)
        rows.append((e.birth_generation, place.back_box(x, y, x + w, y + h), str(vx), str(vy)))
    return rows


class Census(Workload):
    """``detect_emissions`` on a moved board with the full ship catalog."""

    def __init__(self, name: str, board: Pattern, horizon: int, seed: int | None):
        self.name, self.gens = name, horizon
        self.place = Placement(seed)
        self.board = Pattern(self.place.forward(board.cells))
        self.catalog = [report for _, report in named_ship_catalog()]

    def run(self):
        return detect_emissions(self.board, self.gens, self.catalog)

    def observe(self, events) -> dict:
        return {"events": len(events), "digest": digest(sorted(_event_rows(events, self.place)))}


def gun_census(seed, workdir):
    return Census("gun_census", catalog_pattern("gosper_gun"), 2000, seed)


def battery_census(seed, workdir):
    return Census("battery_census", gun_battery(23), 300, seed)


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    return code, out.getvalue()


class BatteryRun(Workload):
    """``lifeframes run`` on a moved 23-unit battery for 10 000 generations."""

    name = "battery_run"
    gens = 10_000

    def __init__(self, seed, workdir: Path):
        self.place = Placement(seed)
        cells = self.place.forward(gun_battery(23).cells)
        # The RLE file drops the position: the CLI sees the board with
        # its box corner at the origin.
        self.corner = (min(x for x, _ in cells), min(y for _, y in cells))
        self.source, self.target = workdir / "battery.rle", workdir / "out.rle"
        self.source.write_text(emit_rle(PatternDocument.from_pattern(Pattern(cells))), encoding="ascii")
        self.argv = ["run", str(self.source), "--gens", str(self.gens), "--format", "machine", "--out", str(self.target)]

    def run(self):
        return _cli(self.argv)

    def observe(self, result) -> dict:
        code, text = result
        lines = dict(line.split("=", 1) for line in text.splitlines())
        x0, y0, _, _ = map(int, lines["box"].split(","))
        doc = parse_rle(self.target.read_text(encoding="ascii"))
        self.target.unlink()
        dx, dy = x0 + self.corner[0], y0 + self.corner[1]
        cells = [self.place.back(x + dx, y + dy) for x, y in doc.cells]
        if len(cells) != int(lines["population"]):
            raise Mismatch(f"population line {lines['population']} but {len(cells)} cells in the file")
        return {"exit": code, "generation": lines["generation"], "population": len(cells), "digest": digest(sorted(cells))}


class VerifyAll(Workload):
    """``lifeframes verify --suite all``: the paper's laws re-derived."""

    name = "verify_all"
    # Its emissions suite censuses the gun over 300 generations.
    gens = 300
    argv = ["verify", "--suite", "all", "--format", "machine"]

    def __init__(self, seed, workdir: Path):
        pass

    def run(self):
        return _cli(self.argv)

    def observe(self, result) -> dict:
        code, text = result
        lines = text.splitlines()
        return {"exit": code, "last_line": lines[-1] if lines else "", "digest": digest(lines)}


WORKLOADS = {
    "gun_census": gun_census,
    "battery_census": battery_census,
    "battery_run": BatteryRun,
    "verify_all": VerifyAll,
}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory(dir=".") as tmp:
        for name, make in WORKLOADS.items():
            workload = make(None, Path(tmp))
            print(name, workload.observe(workload.run()))
