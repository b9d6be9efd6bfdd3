"""Golden CLI outputs: every subcommand's bytes, pinned by digest.

Each case runs ``lifeframes`` in-process in a directory holding the
pattern files below, so no path of the test machine reaches the
output. The digest is sha256[:16] over repr((exit code, stdout,
stderr)), plus the ``--out`` file when there is one. For argparse's
own rejections only the exit code, stdout and the final ``error:``
line are pinned: the usage text above it differs between Python
versions.

An output change that is meant must update its digest here, and say
so in the change's notes. Print the current digests with
``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import contextlib
import hashlib
import io
import tempfile
from pathlib import Path

import pytest

from lifeframes.catalog import catalog_pattern, entry, gun_battery
from lifeframes.cli import EXPLOSION_FACTOR_ENV, main
from lifeframes.engine import Pattern
from lifeframes.patterns import PatternDocument, emit_rle

FILES = {
    "glider.rle": "x = 3, y = 3, rule = B3/S23\nbo$2bo$3o!\n",
    "r.rle": "x = 3, y = 3, rule = B3/S23\nb2o$2o$bo!\n",
    "block.rle": "x = 2, y = 2, rule = B3/S23\n2o$2o!\n",
    "pair.rle": "x = 2, y = 1, rule = B3/S23\n2o!\n",
    "sparks.rle": "x = 6, y = 1, rule = B3/S23\no4bo!\n",
    "toad.cells": "!Name: toad\n.OOO\nOOO.\n",
    "empty.rle": "x = 0, y = 0, rule = B3/S23\n!\n",
    "bad.rle": "x = 2, y = 2, rule = B3/S23\n3o!\n",
    "bomb.rle": "x = 4294967295, y = 1, rule = B3/S23\n4294967295o!\n",
    "wide.rle": "x = 2147483648, y = 1, rule = B3/S23\no2147483646bo!\n",
}


def _write_files(directory: Path) -> None:
    for name, text in FILES.items():
        (directory / name).write_text(text, encoding="ascii")
    for name in ("gosper_gun", "lwss"):
        (directory / f"{name}.rle").write_text(entry(name).rle, encoding="ascii")
    gun = catalog_pattern("gosper_gun").cells
    for name, cells in [
        ("battery.rle", gun_battery(23).cells),
        # The gun and its mirror 60 cells to the left, firing apart.
        ("guns.rle", gun | {(-x - 60, y) for x, y in gun}),
        # A blinker beside the gun's stream, which brings each glider back.
        ("gun-blinker.rle", gun | {(20, 14), (21, 14), (22, 14)}),
        # The gun and a copy 62 cells to the left and 26 down, firing side
        # by side.
        ("side-by-side.rle", gun | {(x - 62, y + 26) for x, y in gun}),
    ]:
        rle = emit_rle(PatternDocument.from_pattern(Pattern(frozenset(cells))))
        (directory / name).write_text(rle, encoding="ascii")


def _both(name, *argv, env=None):
    return [
        (f"{name}-{fmt}", [*argv, "--format", fmt], env)
        for fmt in ("table", "machine")
    ]


CASES = [
    # run
    *_both("run-glider-4", "run", "glider.rle", "--gens", "4"),
    *_both("run-glider-0", "run", "glider.rle", "--gens", "0"),
    *_both("run-glider-1e9", "run", "glider.rle", "--gens", "1000000000"),
    *_both("run-sparks-die", "run", "sparks.rle", "--gens", "2"),
    *_both("run-battery-10000", "run", "battery.rle", "--gens", "10000"),
    *_both("run-out", "run", "lwss.rle", "--gens", "7", "--out", "evolved.rle"),
    *_both("run-r-factor-2", "run", "r.rle", "--gens", "512",
           "--explosion-factor", "2"),
    *_both("run-r-factor-1000", "run", "r.rle", "--gens", "300",
           "--explosion-factor", "1000"),
    *_both("run-r-env-2", "run", "r.rle", "--gens", "512", env="2.0"),
    *_both("run-r-env-much", "run", "r.rle", env="much"),
    *_both("run-r-flag-over-env", "run", "r.rle", "--gens", "60",
           "--explosion-factor", "1000", env="2.0"),
    *_both("run-factor-nan", "run", "r.rle", "--explosion-factor", "nan"),
    *_both("run-wide", "run", "wide.rle", "--gens", "3"),
    # No run is refused up front: a still life runs to the top of the
    # 64-bit range, and a ship is refused at the generation its box
    # reaches the edge (2**64 - 1 for the LWSS), naming it.
    *_both("run-block-max", "run", "block.rle", "--gens", "9223372036854775807"),
    *_both("run-lwss-edge", "run", "lwss.rle", "--gens", "36893488147419103232"),
    *_both("run-empty", "run", "empty.rle", "--gens", "2"),
    *_both("run-missing", "run", "missing.rle"),
    *_both("run-malformed", "run", "bad.rle"),
    *_both("run-cell-bomb", "run", "bomb.rle"),
    # detect
    *_both("detect-glider", "detect", "glider.rle"),
    *_both("detect-lwss", "detect", "lwss.rle"),
    *_both("detect-toad", "detect", "toad.cells"),
    *_both("detect-block", "detect", "block.rle"),
    *_both("detect-r-8", "detect", "r.rle", "--max-period", "8"),
    *_both("detect-gun", "detect", "gosper_gun.rle"),
    *_both("detect-r-factor-2", "detect", "r.rle", "--explosion-factor", "2"),
    *_both("detect-env-much", "detect", "glider.rle", env="much"),
    *_both("detect-empty", "detect", "empty.rle"),
    *_both("detect-glider-max", "detect", "glider.rle",
           "--max-period", "9223372036854775807"),
    # compose
    *_both("compose-parallel", "compose", "--v1", "2/5", "--v2x", "1/2"),
    *_both("compose-oblique", "compose", "--v1", "1/4", "--v2x", "0", "--v2y", "1/3"),
    *_both("compose-vertical", "compose", "--v1", "0", "--v2x", "0", "--v2y", "1/2"),
    *_both("compose-rest", "compose", "--v1", "0", "--v2x", "0"),
    *_both("compose-lorentz", "compose", "--law", "lorentz", "--v1", "2/5",
           "--v2x", "1/2"),
    *_both("compose-lorentz-oblique", "compose", "--law", "lorentz", "--v1", "1/4",
           "--v2x", "0", "--v2y", "1/3"),
    *_both("compose-galilean", "compose", "--law", "galilean", "--v1", "2/5",
           "--v2x", "9/10", "--v2y=-1/3"),
    *_both("compose-superluminal", "compose", "--v1", "3/2", "--v2x", "0"),
    *_both("compose-env-much", "compose", "--v1", "1/2", "--v2x", "1/2", env="much"),
    # verify
    ("verify-all-machine", ["verify", "--suite", "all", "--format", "machine"], None),
    # The verify text is the same in both formats.
    *_both("verify-parallel", "verify", "--suite", "parallel"),
    *_both("verify-oblique", "verify", "--suite", "oblique"),
    *_both("verify-deviation", "verify", "--suite", "deviation"),
    *_both("verify-emissions", "verify", "--suite", "emissions"),
    # catalog
    *_both("catalog-list", "catalog", "--list"),
    *_both("catalog-bare", "catalog"),
    *_both("catalog-emit-glider", "catalog", "--emit", "glider"),
    *_both("catalog-emit-gun", "catalog", "--emit", "gosper_gun"),
    *_both("catalog-emit-unknown", "catalog", "--emit", "widget"),
    # emissions
    *_both("emissions-gun-300", "emissions", "gosper_gun.rle", "--horizon", "300"),
    *_both("emissions-gun-2000", "emissions", "gosper_gun.rle", "--horizon", "2000"),
    *_both("emissions-gun-v1", "emissions", "gosper_gun.rle", "--horizon", "120",
           "--v1", "1/2"),
    *_both("emissions-glider-v1-fails", "emissions", "glider.rle", "--horizon", "100",
           "--v1", "9/10"),
    *_both("emissions-glider-1e9", "emissions", "glider.rle",
           "--horizon", "1000000000"),
    *_both("emissions-lwss", "emissions", "lwss.rle", "--horizon", "50", "--v1", "1/4"),
    *_both("emissions-block", "emissions", "block.rle", "--horizon", "10"),
    ("emissions-battery-machine",
     ["emissions", "battery.rle", "--horizon", "100", "--format", "machine"], None),
    *_both("emissions-guns-2000", "emissions", "guns.rle", "--horizon", "2000"),
    *_both("emissions-gun-blinker-300", "emissions", "gun-blinker.rle",
           "--horizon", "300"),
    *_both("emissions-side-by-side-2000", "emissions", "side-by-side.rle",
           "--horizon", "2000"),
    *_both("emissions-env-much", "emissions", "glider.rle", "--horizon", "20",
           env="much"),
    *_both("emissions-wide", "emissions", "wide.rle", "--horizon", "4"),
    *_both("emissions-empty", "emissions", "empty.rle"),
    *_both("emissions-missing", "emissions", "missing.rle"),
]

# argparse's own rejections: the exit code and the final ``error:`` line.
REJECTIONS = [
    ("reject-gens-negative", ["run", "glider.rle", "--gens", "-1"]),
    ("reject-gens-fraction", ["run", "glider.rle", "--gens", "1.5"]),
    ("reject-max-period-0", ["detect", "glider.rle", "--max-period", "0"]),
    ("reject-horizon-0", ["emissions", "glider.rle", "--horizon", "0"]),
    ("reject-horizon-word", ["emissions", "glider.rle", "--horizon", "x"]),
    ("reject-decimal-v1", ["compose", "--v1", "0.5", "--v2x", "1/2"]),
    ("reject-zero-denominator", ["compose", "--v1", "1/0", "--v2x", "1/2"]),
    ("reject-missing-v1", ["compose", "--v2x", "1/2"]),
    # A negative value after a space reads as an option; "--v2y=-1/3" works.
    ("reject-negative-after-space", ["compose", "--v1", "1/4", "--v2x", "0",
                                     "--v2y", "-1/3"]),
    ("reject-format", ["catalog", "--format", "xml"]),
    ("reject-suite", ["verify", "--suite", "everything"]),
    ("reject-law", ["compose", "--law", "newton", "--v1", "0", "--v2x", "0"]),
    ("reject-no-command", []),
]

REFERENCE = {
    "run-glider-4-table": "93c3e8365fc8d107",
    "run-glider-4-machine": "0bc45ba1c90a90cb",
    "run-glider-0-table": "56810228ac95aede",
    "run-glider-0-machine": "5bbd2ffb3d497c22",
    "run-glider-1e9-table": "6c658fa2db09d460",
    "run-glider-1e9-machine": "abdb3be5d36a5cae",
    "run-sparks-die-table": "6ff994abf3168396",
    "run-sparks-die-machine": "0989e38c632e0826",
    "run-battery-10000-table": "06293b26e972479e",
    "run-battery-10000-machine": "a87bd09f4b1ed4b9",
    "run-out-table": "1aecbb62cc5a17cf",
    "run-out-machine": "7d4b26a39a7233c5",
    "run-r-factor-2-table": "88cfdfb500600ba7",
    "run-r-factor-2-machine": "88cfdfb500600ba7",
    "run-r-factor-1000-table": "0196bc1e8b610d45",
    "run-r-factor-1000-machine": "2b35a81dc3a0cb65",
    "run-r-env-2-table": "88cfdfb500600ba7",
    "run-r-env-2-machine": "88cfdfb500600ba7",
    "run-r-env-much-table": "3c22526882d69ad7",
    "run-r-env-much-machine": "3c22526882d69ad7",
    "run-r-flag-over-env-table": "7cbc88b032225d45",
    "run-r-flag-over-env-machine": "d192026651e492fa",
    "run-factor-nan-table": "d1bf75a50ca3c6cf",
    "run-factor-nan-machine": "d1bf75a50ca3c6cf",
    "run-wide-table": "d333cd0dfb9a31af",
    "run-wide-machine": "188d134651cb591b",
    "run-block-max-table": "12f0ca66af69bac2",
    "run-block-max-machine": "9ca8f6355684c259",
    "run-lwss-edge-table": "07b085e851437a26",
    "run-lwss-edge-machine": "07b085e851437a26",
    "run-empty-table": "6ff994abf3168396",
    "run-empty-machine": "0989e38c632e0826",
    "run-missing-table": "aa4105b6ac12dfd2",
    "run-missing-machine": "aa4105b6ac12dfd2",
    "run-malformed-table": "bae28ee10ff111e0",
    "run-malformed-machine": "bae28ee10ff111e0",
    "run-cell-bomb-table": "bd7aa159eb2192c4",
    "run-cell-bomb-machine": "bd7aa159eb2192c4",
    "detect-glider-table": "94428dfae1839ff8",
    "detect-glider-machine": "d8f7cee18ce28bac",
    "detect-lwss-table": "df0fe36a96f2474a",
    "detect-lwss-machine": "aeb578fb5f8d1b94",
    "detect-toad-table": "dc9fdae07162848a",
    "detect-toad-machine": "77fa85d6fbe4a045",
    "detect-block-table": "cf960f48fde80c51",
    "detect-block-machine": "753171d8f97af05b",
    "detect-r-8-table": "3df042ba40606518",
    "detect-r-8-machine": "3af0c4bc73a43556",
    "detect-gun-table": "f7ba2ef8278b2e17",
    "detect-gun-machine": "3af0c4bc73a43556",
    "detect-r-factor-2-table": "88cfdfb500600ba7",
    "detect-r-factor-2-machine": "88cfdfb500600ba7",
    "detect-env-much-table": "3c22526882d69ad7",
    "detect-env-much-machine": "3c22526882d69ad7",
    "detect-empty-table": "8f0d879f344de280",
    "detect-empty-machine": "8f0d879f344de280",
    "detect-glider-max-table": "94428dfae1839ff8",
    "detect-glider-max-machine": "d8f7cee18ce28bac",
    "compose-parallel-table": "8bdb8ab7d25421ff",
    "compose-parallel-machine": "337a355551421ccc",
    "compose-oblique-table": "3e72bd58596450eb",
    "compose-oblique-machine": "49cdcd986034572a",
    "compose-vertical-table": "043c1f02ec5732a6",
    "compose-vertical-machine": "86296502d9811473",
    "compose-rest-table": "b6ebb1853b84ae92",
    "compose-rest-machine": "85d6f1d2350a22ac",
    "compose-lorentz-table": "45cfcbeeaa99a649",
    "compose-lorentz-machine": "33411439d670bee2",
    "compose-lorentz-oblique-table": "5dde401117551683",
    "compose-lorentz-oblique-machine": "5dde401117551683",
    "compose-galilean-table": "8b5c0884cd4f1911",
    "compose-galilean-machine": "d7ca976d616d5941",
    "compose-superluminal-table": "0f46781a413a440a",
    "compose-superluminal-machine": "0f46781a413a440a",
    "compose-env-much-table": "fabdb9c8c851da7d",
    "compose-env-much-machine": "4632d95b7bad22af",
    "verify-all-machine": "2975c0bb5b803ab1",
    "verify-parallel-table": "86b49f877ea58b59",
    "verify-parallel-machine": "86b49f877ea58b59",
    "verify-oblique-table": "4397dd8e593423a7",
    "verify-oblique-machine": "4397dd8e593423a7",
    "verify-deviation-table": "542d174f493f75f7",
    "verify-deviation-machine": "542d174f493f75f7",
    "verify-emissions-table": "88c189a62e8620e8",
    "verify-emissions-machine": "88c189a62e8620e8",
    "catalog-list-table": "62f2d5cf6c581b21",
    "catalog-list-machine": "5ce0a77ce94df4da",
    "catalog-bare-table": "62f2d5cf6c581b21",
    "catalog-bare-machine": "5ce0a77ce94df4da",
    "catalog-emit-glider-table": "dc2af2d23657e37d",
    "catalog-emit-glider-machine": "dc2af2d23657e37d",
    "catalog-emit-gun-table": "a9f822441dd44d4f",
    "catalog-emit-gun-machine": "a9f822441dd44d4f",
    "catalog-emit-unknown-table": "9589abe941a50955",
    "catalog-emit-unknown-machine": "9589abe941a50955",
    "emissions-gun-300-table": "dc57f55aa338f946",
    "emissions-gun-300-machine": "cf7a5b4ecdda584f",
    "emissions-gun-2000-table": "a550750649627849",
    "emissions-gun-2000-machine": "ec597eeab4844899",
    "emissions-gun-v1-table": "beb1f7ebd106594f",
    "emissions-gun-v1-machine": "ac67ef3df78f0ac5",
    "emissions-glider-v1-fails-table": "7683f3a29725eb2e",
    "emissions-glider-v1-fails-machine": "3829571012f27745",
    "emissions-glider-1e9-table": "d1a0609b625c2be3",
    "emissions-glider-1e9-machine": "a8cd3b26f4b11458",
    "emissions-lwss-table": "c3d18b42a14960b2",
    "emissions-lwss-machine": "48d18979c1158159",
    "emissions-block-table": "6b9b2206be274fef",
    "emissions-block-machine": "6b7583c267ee86ec",
    "emissions-battery-machine": "6b7583c267ee86ec",
    "emissions-guns-2000-table": "3df3e19fa9656d9f",
    "emissions-guns-2000-machine": "24f8b2ec8556603b",
    "emissions-gun-blinker-300-table": "65f630d3a8223715",
    "emissions-gun-blinker-300-machine": "d9b07b010038e946",
    "emissions-side-by-side-2000-table": "b89e9e8a62f91eba",
    "emissions-side-by-side-2000-machine": "00fbd80279c24351",
    "emissions-env-much-table": "273c50ae6cd4bbe8",
    "emissions-env-much-machine": "a8cd3b26f4b11458",
    "emissions-wide-table": "d4ff4f416ebaec4b",
    "emissions-wide-machine": "6b7583c267ee86ec",
    "emissions-empty-table": "0620dc2ef77a88a0",
    "emissions-empty-machine": "6b7583c267ee86ec",
    "emissions-missing-table": "aa4105b6ac12dfd2",
    "emissions-missing-machine": "aa4105b6ac12dfd2",
    "reject-gens-negative": "b07c55ac0c836048",
    "reject-gens-fraction": "8b8730f2a2dde3d5",
    "reject-max-period-0": "94f96b44a04cb2a6",
    "reject-horizon-0": "bd550f4c5bc1b3cf",
    "reject-horizon-word": "bb96bb6725fc3cfc",
    "reject-decimal-v1": "89b672f84ffa6f19",
    "reject-zero-denominator": "610ffae2f91e59cd",
    "reject-missing-v1": "a8ca651ff9b6001f",
    "reject-negative-after-space": "a5b69676e8850a1b",
    "reject-format": "5b818d4f7abac05f",
    "reject-suite": "3a98c28f4fa930fb",
    "reject-law": "e5e945622a8f1f39",
    "reject-no-command": "37fc6db0856d44a4",
}


def observe(argv, env, monkeypatch, rejection=False):
    if env is None:
        monkeypatch.delenv(EXPLOSION_FACTOR_ENV, raising=False)
    else:
        monkeypatch.setenv(EXPLOSION_FACTOR_ENV, env)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    seen = [code, out.getvalue(), err.getvalue()]
    if rejection:
        seen[2] = seen[2].splitlines()[-1]
    if "--out" in argv:
        target = Path(argv[argv.index("--out") + 1])
        seen.append(target.read_text(encoding="ascii"))
        target.unlink()
    return hashlib.sha256(repr(tuple(seen)).encode()).hexdigest()[:16]


ALL = [(*case, False) for case in CASES] + [
    (name, argv, None, True) for name, argv in REJECTIONS
]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    _write_files(directory)
    return directory


@pytest.mark.parametrize("name, argv, env, rejection", ALL, ids=[c[0] for c in ALL])
def test_output_matches_the_recorded_digest(
    workdir, monkeypatch, name, argv, env, rejection
):
    monkeypatch.chdir(workdir)
    assert observe(argv, env, monkeypatch, rejection) == REFERENCE[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        _write_files(Path(tmp))
        mp.chdir(tmp)
        print("REFERENCE = {")
        for name, argv, env, rejection in ALL:
            print(f'    "{name}": "{observe(argv, env, mp, rejection)}",')
        print("}")
