"""Command-line harness: run, measure, compose, verify.

Velocities cross this boundary only as exact fractions like ``2/5``;
decimal input is rejected so no rounding can sneak in at the edge.
Each command computes its result once, as one list of rows and the
table text that shows them, and ``_emit`` renders it both ways: the
human table, or with ``--format machine`` the rows as ``key=value``
lines that are byte-stable for identical inputs. ``verify`` and
``catalog --emit`` print the same text in both formats.

Exit codes: 0 on success, 1 when a check or measurement fails, 2 for
usage and file-format errors, and for a stdout closed before the output.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

from .catalog import (
    CATALOG,
    catalog_pattern,
    entry as catalog_entry,
    named_ship_catalog,
)
from .detector import (
    DEFAULT_POPULATION_FACTOR,
    EmissionEvent,
    ShipReport,
    detect_emissions,
    detect_ship,
)
from .engine import (
    CoordinateOverflowError,
    EmptyPatternError,
    ExplosiveGrowthError,
    bounding_box,
    population,
    step_n,
)
from .kinematics import (
    Velocity2,
    compose_oblique,
    compose_parallel,
    direction_degrees,
    galilean,
    invert_oblique,
    lorentz,
    max_deviation_scan,
)
from .patterns import PatternDocument, PatternFormatError, emit_rle, parse_auto
from .tokens import ScheduleError, exhaustive_check

__all__ = ["main"]

EXPLOSION_FACTOR_ENV = "LIFEFRAMES_EXPLOSION_FACTOR"


class UsageError(Exception):
    """Bad invocation or unreadable input; maps to exit code 2."""


def _fraction(text: str) -> Fraction:
    cleaned = text.strip()
    if "." in cleaned or "e" in cleaned.lower():
        raise argparse.ArgumentTypeError(
            f"{text!r} looks decimal; write an exact fraction such as 2/5"
        )
    try:
        return Fraction(cleaned)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"{text!r}: {exc}")


def _count(least: int):
    """An argparse type for whole numbers from ``least`` (0 or 1) up."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
        if value < least:
            raise argparse.ArgumentTypeError(
                "must not be negative" if least == 0 else f"must be at least {least}"
            )
        return value

    return parse


Rows = list[tuple[str, object]]


def _mfrac(f: Fraction) -> str:
    """Machine form: always numerator/denominator."""
    return f"{f.numerator}/{f.denominator}"


def _emit(args: argparse.Namespace, table: str, rows: Rows, sep: str = "\n") -> None:
    """Print ``rows`` as ``key=value`` under ``--format machine``, else ``table``.

    An empty rendering prints nothing, not an empty line.
    """
    if args.format == "machine":
        table = sep.join(
            f"{key}={_mfrac(v) if isinstance(v, Fraction) else v}" for key, v in rows
        )
    if table:
        print(table)


def _load_document(path: str) -> PatternDocument:
    try:
        text = Path(path).read_text(encoding="ascii")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"{path}: {exc}")
    try:
        return parse_auto(text)
    except PatternFormatError as exc:
        raise UsageError(f"{path}: {exc}")


def _explosion_factor(flag: str | None) -> float:
    """The population bound: the flag, else the environment, else the default."""
    source, raw = "--explosion-factor", flag
    if raw is None:
        source, raw = EXPLOSION_FACTOR_ENV, os.environ.get(EXPLOSION_FACTOR_ENV)
    if raw is None:
        return DEFAULT_POPULATION_FACTOR
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    # Every comparison with nan is false, so nan is refused here too.
    if not 0 < value < math.inf:
        raise UsageError(f"{source} must be a finite number above 0, not {raw!r}")
    return value


def cmd_run(args: argparse.Namespace) -> int:
    factor = _explosion_factor(args.explosion_factor)
    doc = _load_document(args.pattern)
    evolved = step_n(doc.to_pattern(), args.gens, population_factor=factor)
    text = emit_rle(PatternDocument.from_pattern(evolved, doc.name, doc.comments))
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="ascii")
        except OSError as exc:
            raise UsageError(f"{args.out}: {exc}")
    else:
        sys.stdout.write(text)
    box = table_box = "empty"
    if evolved.cells:
        x0, y0, x1, y1 = bounding_box(evolved)
        box, table_box = f"{x0},{y0},{x1},{y1}", f"({x0},{y0})..({x1},{y1})"
    cells = population(evolved)
    _emit(
        args,
        f"generation {evolved.generation}, population {cells}, box {table_box}",
        [("generation", evolved.generation), ("population", cells), ("box", box)],
    )
    return 0


def cmd_detect(args: argparse.Namespace) -> int:
    factor = _explosion_factor(args.explosion_factor)
    doc = _load_document(args.pattern)
    report = detect_ship(doc.to_pattern(), args.max_period, population_factor=factor)
    if report is None:
        table = f"not periodic within {args.max_period} generations"
        _emit(args, table, [("periodic", "no")])
        return 0
    (vx, vy), (dx, dy) = report.velocity, report.displacement
    _emit(
        args,
        f"{report.kind} P={report.period} d=({dx},{dy}) v=({vx},{vy}) "
        f"speed={report.speed}",
        [
            ("periodic", "yes"),
            ("kind", report.kind),
            ("period", report.period),
            ("dx", dx),
            ("dy", dy),
            ("vx", vx),
            ("vy", vy),
            ("speed", report.speed),
        ],
    )
    return 0


def _three_law_rows(v1: Fraction, v2x: Fraction) -> list[tuple[str, Fraction]]:
    return [
        ("life", v1 + (1 - v1) * v2x),
        ("lorentz", lorentz(v1, v2x)),
        ("galilean", galilean(v1, v2x)),
    ]


def cmd_compose(args: argparse.Namespace) -> int:
    v1, v2x, v2y = args.v1, args.v2x, args.v2y
    tan_chi: Fraction | str | None = None
    if args.law == "life":
        if v2y == 0 and 0 <= v2x <= 1:
            v12 = Velocity2(compose_parallel(v1, v2x), Fraction(0))
            tan_chi = Fraction(0)
        else:
            result = compose_oblique(v1, Velocity2(v2x, v2y))
            v12 = result.v12
            tan_chi = "vertical" if result.tan_chi is None else result.tan_chi
        vx, vy = v12.vx, v12.vy
    elif args.law == "lorentz":
        if v2y != 0:
            raise UsageError("the lorentz law here is one-dimensional; give --v2y 0")
        vx, vy = lorentz(v1, v2x), Fraction(0)
    else:
        vx, vy = galilean(v1, v2x), v2y

    rows: Rows = [("law", args.law), ("v12x", vx), ("v12y", vy)]
    table = [f"law {args.law}", f"v12 = ({vx}, {vy})"]
    if tan_chi is not None and (vx or vy):
        degrees = direction_degrees(v12)
        rows += [("tan_chi", tan_chi), ("chi_degrees", "%.6f" % degrees)]
        table += [f"tan chi = {tan_chi}", "chi = %.1f deg (display only)" % degrees]
    table.append("law        v12x")
    for name, value in _three_law_rows(v1, v2x):
        rows.append((f"{name}_x", value))
        table.append(f"{name:<10} {value}")
    if v2y != 0:
        table.append("(comparison rows compose the x components only)")
    _emit(args, "\n".join(table), rows)
    return 0


def cmd_catalog(args: argparse.Namespace) -> int:
    if args.emit:
        try:
            e = catalog_entry(args.emit)
        except KeyError as exc:
            raise UsageError(str(exc.args[0]))
        sys.stdout.write(emit_rle(parse_auto(e.rle)))
        return 0
    for e in CATALOG:
        cells = population(catalog_pattern(e.name))
        rows: Rows = [("name", e.name), ("population", cells)]
        summary = "no fixed recurrence (emits ships)"
        if e.expected:
            period, (dx, dy) = e.expected
            rows += [("period", period), ("dx", dx), ("dy", dy)]
            summary = f"P={period} d=({dx},{dy})"
        else:
            rows.append(("period", "none"))
        _emit(args, f"{e.name:<12} {cells:>3} cells  {summary}", rows, sep=" ")
    return 0


Check = tuple[bool, str]
Suite = tuple[list[Check], list[str]]


def _check(ok: bool, label: str, detail: str) -> Check:
    return ok, f"{label}: {detail}"


def _suite_catalog() -> Suite:
    out = []
    for e in CATALOG:
        if e.expected is None:
            continue
        report = detect_ship(catalog_pattern(e.name), 16)
        period, displacement = e.expected
        ok = (
            report is not None
            and report.period == period
            and report.displacement == displacement
        )
        measured = (
            "vanished"
            if report is None
            else f"P={report.period} d={report.displacement}"
        )
        out.append(_check(ok, f"catalog {e.name}", f"measured {measured}"))
    return out, []


def _suite_parallel() -> Suite:
    half, two_fifths = Fraction(1, 2), Fraction(2, 5)
    cs = [
        (compose_parallel(half, half), Fraction(3, 4), "compose(1/2,1/2)"),
        (compose_parallel(two_fifths, half), Fraction(7, 10), "compose(2/5,1/2)"),
        (galilean(two_fifths, half), Fraction(9, 10), "galilean(2/5,1/2)"),
        (lorentz(two_fifths, half), Fraction(3, 4), "lorentz(2/5,1/2)"),
    ]
    return [
        _check(got == want, f"parallel {label}", f"= {got}") for got, want, label in cs
    ], []


def _suite_oblique() -> Suite:
    quarter = Fraction(1, 4)
    result = compose_oblique(quarter, Velocity2(0, Fraction(1, 3)))
    v12 = result.v12
    checks = [
        _check(
            (abs(v12.vx), abs(v12.vy)) == (quarter, quarter),
            "oblique sample magnitudes",
            f"|v12| = ({abs(v12.vx)}, {abs(v12.vy)})",
        ),
        _check(
            result.tan_chi == 1,
            "oblique sample direction",
            f"tan chi = {result.tan_chi}",
        ),
    ]
    reduced = compose_oblique(Fraction(2, 5), Velocity2(Fraction(1, 2), 0))
    checks.append(
        _check(
            reduced.v12 == Velocity2(Fraction(7, 10), 0),
            "oblique reduction",
            f"v2y=0 gives v12 = ({reduced.v12.vx}, 0)",
        )
    )
    bullet = Velocity2(Fraction(1, 3), Fraction(-1, 4))
    frame = Fraction(1, 2)
    echo = invert_oblique(frame, compose_oblique(frame, bullet).v12)
    checks.append(
        _check(echo == bullet, "oblique inverse", "round trip restores the bullet")
    )
    rider = invert_oblique(Fraction(1, 2), Velocity2(quarter, quarter))
    checks.append(
        _check(
            rider == Velocity2(Fraction(-1, 2), Fraction(1, 2)),
            "oblique co-moving sample",
            f"frame 1/2 sees ({rider.vx}, {rider.vy})",
        )
    )
    findings = [
        "FINDING oblique: the law as implemented gives v12x=1/4, tan chi=1, "
        "45.0 deg for frame 1/4 and bullet (0,1/3)",
        "FINDING oblique: a convention measuring the course from the reversed "
        "carrier axis quotes v12x=-1/4 and chi=135 deg for the same motion; "
        "both readings are reported, neither is normalized away",
    ]
    return checks, findings


def _suite_oracle() -> Suite:
    report = exhaustive_check(48)
    return [
        _check(
            report.consistent,
            "oracle",
            f"{len(report.counterexamples)} counterexamples over "
            f"{report.cases} schedules with P <= 48",
        )
    ], []


def _suite_deviation() -> Suite:
    report = max_deviation_scan(Fraction(1, 1000))
    twentieth = Fraction(1, 20)
    checks = [
        _check(
            report.delta >= twentieth,
            "deviation scan consistency",
            f"max {report.delta} >= 1/20, the value at (1/2,1/2)",
        )
    ]
    verdict = "exceeds" if report.delta > twentieth else "stays within"
    findings = [
        "FINDING deviation: max = %s (approx %.6f) at v1=%s, v2=%s"
        % (report.delta, float(report.delta), report.v1, report.v2),
        f"FINDING deviation: the measured maximum {verdict} 0.05",
    ]
    return checks, findings


def _suite_emissions() -> Suite:
    catalog = [report for _, report in named_ship_catalog()]
    events = detect_emissions(catalog_pattern("gosper_gun"), 300, catalog)
    checks = [
        _check(
            len(events) >= 9,
            "emissions count",
            f"{len(events)} ships escaped in 300 generations",
        )
    ]
    quarter = Fraction(1, 4)
    magnitudes_ok = all(
        (abs(e.ground_velocity[0]), abs(e.ground_velocity[1])) == (quarter, quarter)
        for e in events
    )
    checks.append(
        _check(
            bool(events) and magnitudes_ok,
            "emissions velocity",
            "every measured component has magnitude 1/4",
        )
    )
    identity_ok = all(
        invert_oblique(Fraction(0), Velocity2(*e.ground_velocity))
        == Velocity2(*e.ground_velocity)
        for e in events
    )
    checks.append(
        _check(
            bool(events) and identity_ok,
            "emissions frame identity",
            "invert_oblique at frame 0 returns each measured velocity",
        )
    )
    births = [e.birth_generation for e in events]
    strides = {b2 - b1 for b1, b2 in zip(births, births[1:])}
    checks.append(
        _check(
            strides == {30},
            "emissions cadence",
            f"birth generations step by {sorted(strides)}",
        )
    )
    return checks, []


# ``--suite NAME`` runs the catalog suite and NAME; ``all`` runs every one.
_SUITES = {
    "parallel": _suite_parallel,
    "oblique": _suite_oblique,
    "oracle": _suite_oracle,
    "deviation": _suite_deviation,
    "emissions": _suite_emissions,
}


def cmd_verify(args: argparse.Namespace) -> int:
    checks, findings = _suite_catalog()
    for name, suite in _SUITES.items():
        if args.suite in (name, "all"):
            more, notes = suite()
            checks += more
            findings += notes
    failed = 0
    for ok, text in checks:
        print(("PASS " if ok else "FAIL ") + text)
        failed += not ok
    for note in findings:
        print(note)
    print(f"passed={len(checks) - failed} failed={failed}")
    return 1 if failed else 0


def cmd_emissions(args: argparse.Namespace) -> int:
    doc = _load_document(args.pattern)
    names = {report: name for name, report in named_ship_catalog()}
    events = detect_emissions(doc.to_pattern(), args.horizon, list(names.keys()))
    _emit(args, "", [("events", len(events))])
    failures = 0
    for index, event in enumerate(events, start=1):
        line, rows, ok = _event(index, event, names, args.v1)
        _emit(args, line, rows)
        failures += not ok
    summary = f"{len(events)} emission event(s) within {args.horizon} generations"
    _emit(args, summary, [])
    return 1 if failures else 0


def _event(
    index: int,
    event: EmissionEvent,
    names: dict[ShipReport, str],
    v1: Fraction | None,
) -> tuple[str, Rows, bool]:
    """One event's table line and rows, and whether its co-moving check held."""
    name = names.get(event.ship, "ship")
    vx, vy = event.ground_velocity
    x, y = event.first_sighting
    line = (
        f"event {index}: {name} born generation {event.birth_generation} "
        f"at ({x},{y}), v = ({vx}, {vy})"
    )
    rows: Rows = [
        ("event", index),
        ("ship", name),
        ("birth", event.birth_generation),
        ("x", x),
        ("y", y),
        ("vx", vx),
        ("vy", vy),
    ]
    if v1 is None:
        return line, rows, True
    try:
        comoving = invert_oblique(v1, Velocity2(vx, vy))
    except ValueError as exc:
        note = str(exc)
    else:
        if compose_oblique(v1, comoving).v12 == Velocity2(vx, vy):
            rows += [("v2x", comoving.vx), ("v2y", comoving.vy), ("consistent", "yes")]
            bullet = f"co-moving bullet ({comoving.vx}, {comoving.vy})"
            return f"{line}; {bullet} recomposes exactly", rows, True
        note = "recomposition does not restore the measurement"
    return f"{line}; inversion failed: {note}", rows + [("consistent", "no")], False


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--format",
        choices=("table", "machine"),
        default="table",
        help="human table or line-oriented key=value output",
    )

    parser = argparse.ArgumentParser(
        prog="lifeframes",
        description="Moving-frame velocity laws on the Life board, "
        "measured and verified by simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", parents=[shared], help="evolve a pattern file")
    p_run.add_argument("pattern", help="RLE or plaintext pattern file")
    p_run.add_argument("--gens", type=_count(0), default=1)
    p_run.add_argument("--out", help="write the evolved RLE here instead of stdout")
    p_run.add_argument("--explosion-factor")
    p_run.set_defaults(handler=cmd_run)

    p_detect = sub.add_parser(
        "detect", parents=[shared], help="measure period, displacement, velocity"
    )
    p_detect.add_argument("pattern")
    p_detect.add_argument("--max-period", type=_count(1), default=64)
    p_detect.add_argument("--explosion-factor")
    p_detect.set_defaults(handler=cmd_detect)

    p_compose = sub.add_parser(
        "compose", parents=[shared], help="compose velocities exactly"
    )
    p_compose.add_argument(
        "--law", choices=("life", "lorentz", "galilean"), default="life"
    )
    # argparse reads "-1/3" after a space as an option of its own.
    sign = "an exact fraction; give a negative one with '=', as %s=-1/3"
    p_compose.add_argument("--v1", type=_fraction, required=True, help=sign % "--v1")
    p_compose.add_argument("--v2x", type=_fraction, required=True, help=sign % "--v2x")
    p_compose.add_argument(
        "--v2y", type=_fraction, default=Fraction(0), help=sign % "--v2y"
    )
    p_compose.set_defaults(handler=cmd_compose)

    p_verify = sub.add_parser(
        "verify", parents=[shared], help="run the built-in check suites"
    )
    p_verify.add_argument(
        "--suite",
        choices=(*_SUITES, "all"),
        default="all",
    )
    p_verify.set_defaults(handler=cmd_verify)

    p_catalog = sub.add_parser(
        "catalog", parents=[shared], help="list or emit built-in patterns"
    )
    p_catalog.add_argument("--list", action="store_true", default=False)
    p_catalog.add_argument("--emit", metavar="NAME")
    p_catalog.set_defaults(handler=cmd_catalog)

    p_em = sub.add_parser(
        "emissions", parents=[shared], help="census of ships escaping a pattern"
    )
    p_em.add_argument("pattern")
    p_em.add_argument("--horizon", type=_count(1), default=300)
    p_em.add_argument(
        "--v1",
        type=_fraction,
        default=None,
        help="carrier velocity; adds the co-moving reconstruction per event",
    )
    p_em.set_defaults(handler=cmd_emissions)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except (UsageError, BrokenPipeError) as exc:
        if isinstance(exc, BrokenPipeError):  # nothing more can reach stdout
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        ExplosiveGrowthError,
        CoordinateOverflowError,
        EmptyPatternError,
        ScheduleError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
