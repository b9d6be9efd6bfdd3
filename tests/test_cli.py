import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from lifeframes import cli, detector
from lifeframes.catalog import entry, gun_battery
from lifeframes.cli import EXPLOSION_FACTOR_ENV, main
from lifeframes.engine import bounding_box, step_n
from lifeframes.patterns import PatternDocument, emit_rle, parse_rle

GLIDER_RLE = "x = 3, y = 3, rule = B3/S23\nbo$2bo$3o!\n"
R_PENTOMINO_RLE = "x = 3, y = 3, rule = B3/S23\nb2o$2o$bo!\n"
BLOCK_RLE = "x = 2, y = 2, rule = B3/S23\n2o$2o!\n"
DYING_PAIR_RLE = "x = 2, y = 1, rule = B3/S23\n2o!\n"


def settled_rle(name):
    if name == "lwss":
        return entry("lwss").rle
    if name == "battery":
        return emit_rle(PatternDocument.from_pattern(gun_battery(23)))
    return {"glider": GLIDER_RLE, "block": BLOCK_RLE, "pair": DYING_PAIR_RLE}[name]


@pytest.fixture()
def glider_file(tmp_path):
    path = tmp_path / "glider.rle"
    path.write_text(GLIDER_RLE)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_four_generations_of_a_glider(self, capsys, glider_file):
        code, out, err = run_cli(capsys, "run", glider_file, "--gens", "4")
        assert code == 0
        assert err == ""
        evolved = step_n(parse_rle(GLIDER_RLE).to_pattern(), 4)
        expected = emit_rle(PatternDocument.from_pattern(evolved))
        assert out.startswith(expected)
        assert "generation 4, population 5" in out

    def test_out_file_receives_the_rle(self, capsys, glider_file, tmp_path):
        target = tmp_path / "evolved.rle"
        code, out, err = run_cli(
            capsys, "run", glider_file, "--gens", "4", "--out", str(target)
        )
        assert code == 0
        assert target.read_text().startswith("x = 3, y = 3")
        assert "x = 3" not in out

    def test_machine_keys(self, capsys, glider_file):
        code, out, err = run_cli(
            capsys, "run", glider_file, "--gens", "4", "--format", "machine"
        )
        assert code == 0
        tail = out.splitlines()[-3:]
        assert tail == ["generation=4", "population=5", "box=1,1,3,3"]

    def test_a_billion_generations_of_a_glider(self, capsys, glider_file):
        # The glider recurs moved by (1, 1) every 4 generations, so the
        # run jumps over whole periods instead of stepping each one.
        started = time.perf_counter()
        code, out, err = run_cli(
            capsys, "run", glider_file, "--gens", "1000000000", "--format", "machine"
        )
        assert time.perf_counter() - started < 5
        assert code == 0
        assert err == ""
        x0, y0, x1, y1 = bounding_box(parse_rle(GLIDER_RLE).to_pattern())
        d = 250_000_000
        assert out.splitlines()[-3:] == [
            "generation=1000000000",
            "population=5",
            f"box={x0 + d},{y0 + d},{x1 + d},{y1 + d}",
        ]

    def test_a_ship_is_refused_where_it_reaches_the_64_bit_edge(self, capsys, tmp_path):
        # The LWSS flies left 2 cells every 4 generations; its box first
        # touches -2**63 at generation 2**64 - 1, where step would refuse.
        path = tmp_path / "lwss.rle"
        path.write_text(settled_rle("lwss"))
        code, out, err = run_cli(capsys, "run", str(path), "--gens", str(2**65))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: box ({-(2**63)}, 0, ")
        assert f"at generation {2**64 - 1} reaches the edge" in err

    def test_pattern_that_dies(self, capsys, tmp_path):
        path = tmp_path / "sparks.rle"
        path.write_text("x = 6, y = 1, rule = B3/S23\no4bo!\n")
        code, out, err = run_cli(
            capsys, "run", str(path), "--gens", "2", "--format", "machine"
        )
        assert code == 0
        assert "population=0" in out
        assert "box=empty" in out

    @pytest.mark.parametrize("target", ["", "no/such/dir/x.rle"])
    @pytest.mark.parametrize("fmt", ["table", "machine"])
    def test_unwritable_out_is_a_usage_error(
        self, capsys, glider_file, tmp_path, target, fmt
    ):
        out_path = str(tmp_path / target)
        code, out, err = run_cli(
            capsys, "run", glider_file, "--out", out_path, "--format", fmt
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {out_path}: ")
        assert "Traceback" not in err

    def test_missing_file(self, capsys):
        code, out, err = run_cli(capsys, "run", "/no/such/file.rle")
        assert code == 2
        assert "error:" in err

    def test_cell_bomb_is_a_format_error(self, capsys, tmp_path):
        path = tmp_path / "bomb.rle"
        path.write_text("x = 4294967295, y = 1, rule = B3/S23\n4294967295o!\n")
        code, out, err = run_cli(capsys, "run", str(path))
        assert code == 2
        assert "live cells" in err

    def test_malformed_rle(self, capsys, tmp_path):
        path = tmp_path / "bad.rle"
        path.write_text("x = 2, y = 2, rule = B3/S23\n3o!\n")
        code, out, err = run_cli(capsys, "run", str(path))
        assert code == 2
        assert "line 2, column" in err


class TestDetect:
    def test_glider_machine_block_is_stable(self, capsys, glider_file):
        expected = (
            "periodic=yes\nkind=ship\nperiod=4\ndx=1\ndy=1\n"
            "vx=1/4\nvy=1/4\nspeed=1/4\n"
        )
        for _ in range(2):
            code, out, err = run_cli(
                capsys, "detect", glider_file, "--format", "machine"
            )
            assert code == 0
            assert out == expected

    def test_oscillator_table(self, capsys, tmp_path):
        path = tmp_path / "toad.cells"
        path.write_text("!Name: toad\n.OOO\nOOO.\n")
        code, out, err = run_cli(capsys, "detect", str(path))
        assert code == 0
        assert "oscillator P=2" in out

    def test_methuselah_is_not_periodic(self, capsys, tmp_path):
        path = tmp_path / "r.rle"
        path.write_text(R_PENTOMINO_RLE)
        code, out, err = run_cli(capsys, "detect", str(path), "--max-period", "8")
        assert code == 0
        assert "not periodic within 8" in out

    def test_empty_pattern_is_an_input_failure(self, capsys, tmp_path):
        path = tmp_path / "empty.rle"
        path.write_text("x = 0, y = 0, rule = B3/S23\n!\n")
        code, out, err = run_cli(capsys, "detect", str(path))
        assert code == 1
        assert "empty" in err


class TestCompose:
    def test_three_laws_in_the_table(self, capsys):
        code, out, err = run_cli(capsys, "compose", "--v1", "2/5", "--v2x", "1/2")
        assert code == 0
        assert "7/10" in out
        assert "3/4" in out
        assert "9/10" in out

    def test_parallel_machine_block(self, capsys):
        blocks = set()
        for _ in range(2):
            code, out, err = run_cli(
                capsys,
                "compose",
                "--v1",
                "2/5",
                "--v2x",
                "1/2",
                "--format",
                "machine",
            )
            assert code == 0
            blocks.add(out)
        assert len(blocks) == 1
        (out,) = blocks
        assert "law=life" in out
        assert "v12x=7/10" in out
        assert "life_x=7/10" in out
        assert "lorentz_x=3/4" in out
        assert "galilean_x=9/10" in out

    def test_oblique_machine_block(self, capsys):
        code, out, err = run_cli(
            capsys,
            "compose",
            "--v1",
            "1/4",
            "--v2x",
            "0",
            "--v2y",
            "1/3",
            "--format",
            "machine",
        )
        assert code == 0
        assert "v12x=1/4" in out
        assert "v12y=1/4" in out
        assert "tan_chi=1/1" in out
        assert "chi_degrees=45.000000" in out

    def test_decimal_rejected(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["compose", "--v1", "0.5", "--v2x", "1/2"])
        assert info.value.code == 2

    def test_lorentz_is_parallel_only(self, capsys):
        code, out, err = run_cli(
            capsys,
            "compose",
            "--law",
            "lorentz",
            "--v1",
            "1/4",
            "--v2x",
            "0",
            "--v2y",
            "1/3",
        )
        assert code == 2
        assert "error:" in err

    def test_superluminal_carrier(self, capsys):
        code, out, err = run_cli(capsys, "compose", "--v1", "3/2", "--v2x", "0")
        assert code == 1


class TestVerify:
    def test_all_suites_pass(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "all")
        assert code == 0
        assert "FAIL" not in out
        assert "passed=" in out
        assert "failed=0" in out

    def test_oblique_findings_quote_the_signed_heading(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "oblique")
        assert code == 0
        assert "-1/4" in out
        assert "135" in out


class TestCatalog:
    def test_listing_names_every_entry(self, capsys):
        code, out, err = run_cli(capsys, "catalog", "--list")
        assert code == 0
        for name in ("glider", "block", "blinker", "lwss", "eater1", "gosper_gun"):
            assert name in out

    def test_emitted_rle_round_trips(self, capsys):
        code, out, err = run_cli(capsys, "catalog", "--emit", "glider")
        assert code == 0
        assert out == emit_rle(parse_rle(entry("glider").rle))

    def test_unknown_name(self, capsys):
        code, out, err = run_cli(capsys, "catalog", "--emit", "widget")
        assert code == 2
        assert "widget" in err


class TestEmissions:
    def test_gun_census_machine_block(self, capsys, tmp_path):
        path = tmp_path / "gun.rle"
        path.write_text(entry("gosper_gun").rle)
        code, out, err = run_cli(
            capsys, "emissions", str(path), "--horizon", "300", "--format", "machine"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "events=9"
        assert lines[1:8] == [
            "event=1",
            "ship=glider",
            "birth=28",
            "x=22",
            "y=9",
            "vx=1/4",
            "vy=1/4",
        ]

    def test_board_too_wide_for_the_census(self, capsys, tmp_path):
        # A board too wide for the packed fields is squeezed, not refused:
        # two lone cells die, and two gliders 2**31 apart both escape.
        path = tmp_path / "wide.rle"
        path.write_text("x = 2147483648, y = 1, rule = B3/S23\no2147483646bo!\n")
        code, out, err = run_cli(capsys, "emissions", str(path), "--horizon", "4")
        assert (code, out, err) == (0, "0 emission event(s) within 4 generations\n", "")
        path.write_text(
            "x = 2147483651, y = 3\n"
            "bo2147483647bo$2bo2147483647bo$3o2147483645b3o!\n"
        )
        code, out, err = run_cli(
            capsys, "emissions", str(path), "--horizon", "8", "--format", "machine"
        )
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == "events=2"
        assert [line for line in lines if line[:2] in ("x=", "y=")] == [
            "x=0", "y=0", "x=2147483648", "y=0"
        ]

    def test_comoving_reconstruction(self, capsys, tmp_path):
        path = tmp_path / "gun.rle"
        path.write_text(entry("gosper_gun").rle)
        code, out, err = run_cli(
            capsys,
            "emissions",
            str(path),
            "--horizon",
            "120",
            "--v1",
            "1/2",
            "--format",
            "machine",
        )
        assert code == 0
        assert "v2x=-1/2" in out
        assert "v2y=1/2" in out
        assert "consistent=yes" in out
        assert "consistent=no" not in out


    @pytest.mark.parametrize(
        "name, expected",
        [
            ("glider", ["ship=glider", "birth=0", "x=0", "y=0", "vx=1/4", "vy=1/4"]),
            ("lwss", ["ship=lwss", "birth=0", "x=0", "y=0", "vx=-1/2", "vy=0/1"]),
            ("block", []),
            ("pair", []),
            ("battery", []),
        ],
        ids=["glider", "lwss", "block", "pair", "battery"],
    )
    def test_a_billion_generations_of_a_settled_board(
        self, capsys, tmp_path, name, expected
    ):
        # Once the census state repeats, the rest of the horizon is
        # replayed instead of stepped.
        path = tmp_path / f"{name}.rle"
        path.write_text(settled_rle(name))
        started = time.perf_counter()
        code, out, err = run_cli(
            capsys,
            "emissions",
            str(path),
            "--horizon",
            "1000000000",
            "--format",
            "machine",
        )
        assert time.perf_counter() - started < 5
        assert code == 0
        assert err == ""
        head = [f"events={1 if expected else 0}"] + (["event=1"] if expected else [])
        assert out.splitlines() == head + expected

    def test_a_million_generations_of_the_gun(self, capsys, tmp_path):
        # The gun's gliders leave the board, so its census repeats from
        # generation 45 and replays a glider every 30 generations.
        path = tmp_path / "gun.rle"
        path.write_text(entry("gosper_gun").rle)
        argv = ["emissions", str(path), "--format", "machine", "--horizon"]
        started = time.perf_counter()
        code, out, err = run_cli(capsys, *argv, "1000000")
        assert time.perf_counter() - started < 5
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[0] == "events=33333"
        assert len(lines) == 1 + 7 * 33333
        code, short, err = run_cli(capsys, *argv, "2000")
        assert short.splitlines()[0] == "events=66"
        assert lines[1 : 1 + 7 * 66] == short.splitlines()[1:]

    @pytest.mark.parametrize("name", ["glider", "lwss", "block"])
    def test_settled_board_matches_the_unjumped_census(
        self, capsys, tmp_path, monkeypatch, name
    ):
        path = tmp_path / f"{name}.rle"
        path.write_text(settled_rle(name))
        argv = ["emissions", str(path), "--horizon", "100", "--format", "machine"]
        jumped = run_cli(capsys, *argv)
        def never_equal(board, tracks, generation):
            return object(), (0, 0)

        monkeypatch.setattr(detector, "_census_state", never_equal)
        assert run_cli(capsys, *argv) == jumped

    def test_a_failed_recomposition_is_not_consistent(
        self, capsys, tmp_path, monkeypatch
    ):
        path = tmp_path / "gun.rle"
        path.write_text(entry("gosper_gun").rle)
        argv = ["emissions", str(path), "--horizon", "120", "--v1", "1/2"]
        stalled = SimpleNamespace(v12=cli.Velocity2(0, 0))
        monkeypatch.setattr(cli, "compose_oblique", lambda v1, bullet: stalled)
        code, out, err = run_cli(capsys, *argv, "--format", "machine")
        assert (code, err) == (1, "")
        assert "consistent=no" in out
        assert "consistent=yes" not in out
        assert "v2x=" not in out and "v2y=" not in out
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (1, "")
        note = "; inversion failed: recomposition does not restore the measurement"
        events = out.splitlines()[:-1]
        assert events and all(line.endswith(note) for line in events)
        assert "recomposes exactly" not in out


class TestIntegerArguments:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "GLIDER", "--gens", "-1"], "must not be negative"),
            (["run", "GLIDER", "--gens", "1.5"], "'1.5' is not an integer"),
            (["emissions", "GLIDER", "--horizon", "x"], "'x' is not an integer"),
            (["detect", "GLIDER", "--max-period", "0"], "must be at least 1"),
            (["emissions", "GLIDER", "--horizon", "0"], "must be at least 1"),
        ],
    )
    def test_rejections(self, capsys, glider_file, argv, message):
        argv = [glider_file if a == "GLIDER" else a for a in argv]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        last = captured.err.splitlines()[-1]
        assert last.startswith("lifeframes ")
        assert last.endswith(f"error: argument {argv[2]}: {message}")

    @pytest.mark.parametrize(
        "argv",
        [["run", "GLIDER", "--gens", "0"], ["detect", "GLIDER", "--max-period", "1"]],
    )
    def test_the_least_value_is_accepted(self, capsys, glider_file, argv):
        argv = [glider_file if a == "GLIDER" else a for a in argv]
        assert run_cli(capsys, *argv)[0] == 0


class TestExplosionFactor:
    def test_environment_tightens_the_bound(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "r.rle"
        path.write_text(R_PENTOMINO_RLE)
        monkeypatch.setenv(EXPLOSION_FACTOR_ENV, "2.0")
        code, out, err = run_cli(capsys, "run", str(path), "--gens", "512")
        assert code == 1
        assert "error:" in err

    def test_flag_overrides_environment(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "r.rle"
        path.write_text(R_PENTOMINO_RLE)
        monkeypatch.setenv(EXPLOSION_FACTOR_ENV, "2.0")
        code, out, err = run_cli(
            capsys, "run", str(path), "--gens", "512", "--explosion-factor", "1000"
        )
        assert code == 0

    def test_invalid_environment_value(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "r.rle"
        path.write_text(R_PENTOMINO_RLE)
        monkeypatch.setenv(EXPLOSION_FACTOR_ENV, "much")
        code, out, err = run_cli(capsys, "run", str(path))
        assert code == 2

    @pytest.mark.parametrize("command", ["run", "detect"])
    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1", "much"])
    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_factor_must_be_finite_and_positive(
        self, capsys, tmp_path, monkeypatch, command, value, source
    ):
        path = tmp_path / "r.rle"
        path.write_text(R_PENTOMINO_RLE)
        argv = [command, str(path)]
        if source == "flag":
            argv += ["--explosion-factor", value]
        else:
            monkeypatch.setenv(EXPLOSION_FACTOR_ENV, value)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "error:" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["compose", "--v1", "1/2", "--v2x", "1/2"],
            ["catalog", "--list"],
            ["verify", "--suite", "parallel"],
            ["emissions", "GLIDER", "--horizon", "20"],
        ],
    )
    @pytest.mark.parametrize("fmt", ["table", "machine"])
    def test_commands_without_a_bound_ignore_the_environment(
        self, capsys, monkeypatch, glider_file, argv, fmt
    ):
        argv = [glider_file if a == "GLIDER" else a for a in argv] + ["--format", fmt]
        monkeypatch.delenv(EXPLOSION_FACTOR_ENV, raising=False)
        code, unset, _ = run_cli(capsys, *argv)
        assert code == 0
        monkeypatch.setenv(EXPLOSION_FACTOR_ENV, "much")
        code, out, err = run_cli(capsys, *argv)
        assert code == 0
        assert out == unset
        assert err == ""

    def test_run_names_the_first_generation_over_the_bound(self, capsys, tmp_path):
        path = tmp_path / "r.rle"
        path.write_text(R_PENTOMINO_RLE)
        code, out, err = run_cli(
            capsys, "run", str(path), "--gens", "512", "--explosion-factor", "2"
        )
        assert code == 1
        assert out == ""
        assert "at generation 6" in err


def test_console_script_entry_point():
    script = shutil.which("lifeframes")
    command = [script] if script else [sys.executable, "-m", "lifeframes.cli"]
    result = subprocess.run(
        command
        + [
            "compose",
            "--v1",
            "2/5",
            "--v2x",
            "1/2",
            "--format",
            "machine",
        ],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0
    assert "life_x=7/10" in result.stdout


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_a_closed_stdout_is_a_usage_error(tmp_path, unbuffered):
    # A reader gone before the first write, as in ``| head -0``: exit 2
    # with one error line, whether stdout is buffered or not.
    gun = tmp_path / "gun.rle"
    gun.write_text(entry("gosper_gun").rle)
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH", "")]
    )
    read, write = os.pipe()
    os.close(read)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "lifeframes.cli", "emissions", str(gun)]
            + ["--horizon", "300", "--format", "machine"],
            stdout=write,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
            timeout=60,
        )
    finally:
        os.close(write)
    assert result.returncode == 2
    assert result.stderr.startswith("error: ")
    assert result.stderr.count("\n") == 1
