import argparse
import json

import numpy as np
import pytest

from solidsum import cli
from solidsum.cli import parse_complex_vector, run


@pytest.fixture
def square_path(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps({"dim": 2, "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}))
    return str(path)


@pytest.fixture
def triangle_path(tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(
        {"dim": 2, "vertices": [["0", "0"], ["0", "1"], ["sqrt(3)", "0"]]}))
    return str(path)


def test_parse_complex_vector():
    z = parse_complex_vector("0.3+0.2i,-0.1+0.4i")
    assert np.allclose(z, [0.3 + 0.2j, -0.1 + 0.4j])
    assert np.allclose(parse_complex_vector("0.5"), [0.5 + 0j])
    with pytest.raises(ValueError):
        parse_complex_vector("nope")


def test_oracle_square(square_path, tmp_path, capsys):
    out = tmp_path / "r.json"
    assert run(["oracle", "--polytope", square_path, "--t", "2", "--output", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["value"] == pytest.approx(4.0, abs=1e-12)
    assert data["n_lattice_points"] == 9


def test_verify_brion_exit_codes(triangle_path, tmp_path):
    out = tmp_path / "b.json"
    code = run(["verify-brion", "--polytope", triangle_path,
                "--s", "0.3+0.2i,-0.1+0.4i", "--output", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["identity"] == "brion"
    assert data["residual"] < data["tolerance"]
    assert data["pass"] is True
    assert set(data) >= {"identity", "inputs", "residual", "tolerance", "pass"}
    # impossible tolerance flips the exit code
    code = run(["verify-brion", "--polytope", triangle_path,
                "--s", "0.3+0.2i,-0.1+0.4i", "--tolerance", "1e-30",
                "--output", str(out)])
    assert code == 1


def test_retired_triangle_example_is_an_invalid_choice(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["triangle-example"])
    assert exc.value.code == 2
    assert "invalid choice: 'triangle-example'" in capsys.readouterr().err


def test_macdonald_series_csv_matches_single_runs(square_path, tmp_path):
    series = tmp_path / "series.csv"
    assert run(["macdonald-series", "--polytope", square_path, "--t", "1,2",
                "--format", "csv", "--output", str(series)]) == 0
    lines = series.read_text().strip().splitlines()
    assert lines[0] == "t,value,error"
    assert len(lines) == 3
    for line in lines[1:]:
        t, value, error = line.split(",")
        single = tmp_path / f"single{t}.json"
        assert run(["macdonald", "--polytope", square_path, "--t", t,
                    "--output", str(single)]) == 0
        data = json.loads(single.read_text())
        assert data["value"] == float(value)
        assert data["error"] == float(error)


def test_t_range_parsing(square_path, tmp_path):
    out = tmp_path / "rng.json"
    assert run(["macdonald-series", "--polytope", square_path,
                "--t-range", "1.0:2.0:0.5", "--output", str(out)]) == 0
    data = json.loads(out.read_text())
    assert [row["t"] for row in data] == [1.0, 1.5, 2.0]


def test_bit_identical_reruns(square_path, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["alpha", "--polytope", square_path, "--s", "0.3+0.2i,0.1+0.1i", "--seed", "5"]
    assert run(argv + ["--output", str(a)]) == 0
    assert run(argv + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_solid_angle_command(square_path, tmp_path):
    out = tmp_path / "sa.json"
    assert run(["solid-angle", "--polytope", square_path, "--x", "0,0",
                "--output", str(out)]) == 0
    assert json.loads(out.read_text())["value"] == pytest.approx(0.25, abs=1e-12)


def test_conjecture_command(triangle_path, tmp_path):
    out = tmp_path / "c.json"
    assert run(["conjecture", "--polytope", triangle_path, "--output", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["pass"] is True and abs(data["value"]) < 1e-3


def test_brianchon_gram_command(square_path):
    assert run(["brianchon-gram", "--polytope", square_path, "--n-points", "40"]) == 0


def test_verify_reciprocity_default_cone(tmp_path):
    out = tmp_path / "rec.json"
    assert run(["verify-reciprocity", "--s", "0.3+0.1i,0.2-0.2i",
                "--shift", "0.5,1.4142135623730951", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["residual"] < 1e-6


def test_oracle_square_large_t(square_path, capsys):
    assert run(["oracle", "--polytope", square_path, "--t", "150.5"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 22650.25


@pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
def test_non_finite_t_exits_two(square_path, t, capsys):
    for argv in (["oracle", f"--t={t}"], ["macdonald", f"--t={t}"]):
        assert run([*argv, "--polytope", square_path]) == 2
        assert "t must be finite" in capsys.readouterr().err


def test_input_errors_exit_two(square_path):
    assert run(["oracle", "--polytope", "no-such-file.json", "--t", "1"]) == 2
    assert run(["alpha", "--polytope", square_path, "--s", "bogus"]) == 2
    assert run(["alpha", "--polytope", square_path, "--s", "nan,0.1"]) == 2
    assert run(["solid-angle", "--polytope", square_path, "--x", "nan,0"]) == 2
    assert run(["macdonald-series", "--polytope", square_path]) == 2


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_sample_count_must_be_positive(samples, tmp_path, capsys):
    tet = tmp_path / "tet.json"
    tet.write_text(json.dumps({"dim": 3, "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]}))
    for argv in (["oracle", "--t", "2"], ["alpha", "--s", "0.3+0.1i,0.2,0.1"], ["solid-angle", "--x", "0,0,0"]):
        assert run([*argv, "--polytope", str(tet), "--samples", samples]) == 2
        assert "n_samples must be >= 1" in capsys.readouterr().err


class RecordingNamespace(argparse.Namespace):
    """Namespace that records every attribute a handler reads."""

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_read").add(name)
        return object.__getattribute__(self, name)


def test_every_registered_flag_is_read(square_path, triangle_path, tmp_path):
    # the cheapest argv per command that still reaches every flag it reads
    s2 = "0.3+0.1i,0.2-0.2i"
    argvs = {
        "solid-angle": ["--polytope", square_path, "--x", "0,0"],
        "alpha": ["--polytope", square_path, "--s", s2],
        "macdonald": ["--polytope", square_path, "--t", "1"],
        "macdonald-series": ["--polytope", square_path, "--t", "1"],
        "verify-reciprocity": ["--s", s2],
        "verify-brion": ["--polytope", triangle_path, "--s", s2],
        "verify-macdonald": ["--polytope", triangle_path, "--t", "1.37", "--s", s2],
        "brianchon-gram": ["--polytope", square_path, "--n-points", "10"],
        "conjecture": ["--polytope", triangle_path],
        "oracle": ["--polytope", square_path, "--t", "2"],
    }
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(subparsers.choices) == set(argvs) == set(cli._COMMANDS)
    out = tmp_path / "out"
    unread = {}
    for command, sub in subparsers.choices.items():
        argv = [command, *argvs[command], "--output", str(out)]
        ns = RecordingNamespace()
        ns._read = set()
        parser.parse_args(argv, namespace=ns)
        ns._read.clear()
        cli._COMMANDS[command](ns)
        registered = {a.dest for a in sub._actions if a.option_strings and a.dest != "help"}
        if "format" in registered:
            # reading --format is not enough: csv must actually change the output
            cli._COMMANDS[command](parser.parse_args(argv + ["--format", "csv"]))
            if out.read_text().startswith(("{", "[")):
                ns._read.discard("format")
        if registered - ns._read:
            unread[command] = sorted(registered - ns._read)
    assert unread == {}


@pytest.mark.parametrize("argv", [
    ["oracle", "--t", "1", "--format", "csv"],
    ["macdonald", "--t", "1", "--seed", "3"],
    ["verify-brion", "--s", "0.3+0.2i,0.1+0.1i", "--samples", "10"],
    ["brianchon-gram", "--p", "1"],
    ["macdonald", "--t", "1", "--sigma", "0.01,0.005,0.002,0.001,0.0005"],
    ["macdonald", "--t", "1", "--fit-degree", "3"],
    ["macdonald", "--t", "1", "--direction", "1,1,1"],
    ["oracle", "--t", "1", "--method", "mc"],
])
def test_removed_flags_are_input_errors(argv, square_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--polytope", square_path])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
