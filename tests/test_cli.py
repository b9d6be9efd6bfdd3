import shutil
import subprocess
import sys

import pytest

from lifeframes.catalog import entry
from lifeframes.cli import EXPLOSION_FACTOR_ENV, main
from lifeframes.engine import step_n
from lifeframes.patterns import PatternDocument, emit_rle, parse_rle

GLIDER_RLE = "x = 3, y = 3, rule = B3/S23\nbo$2bo$3o!\n"
R_PENTOMINO_RLE = "x = 3, y = 3, rule = B3/S23\nb2o$2o$bo!\n"


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

    def test_pattern_that_dies(self, capsys, tmp_path):
        path = tmp_path / "sparks.rle"
        path.write_text("x = 6, y = 1, rule = B3/S23\no4bo!\n")
        code, out, err = run_cli(
            capsys, "run", str(path), "--gens", "2", "--format", "machine"
        )
        assert code == 0
        assert "population=0" in out
        assert "box=empty" in out

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
        path = tmp_path / "wide.rle"
        path.write_text("x = 2147483648, y = 1, rule = B3/S23\no2147483646bo!\n")
        code, out, err = run_cli(capsys, "emissions", str(path), "--horizon", "4")
        assert code == 1
        assert "packed fields" in err
        assert out == ""

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
