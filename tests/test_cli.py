"""Command-line behavior: exit codes, golden outputs, determinism, the SVG
element census, and repeated in-process calls."""

import json
import subprocess
import sys
import types
from pathlib import Path
from xml.etree import ElementTree as ET

import numpy as np
import pytest

import minmaxlp
from minmaxlp import cli, reduction
from minmaxlp.cli import main
from minmaxlp.model import LinearProgram, save_lp
from minmaxlp.reduction import SolveOptions, check_interior, prepare

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
SRC = Path(minmaxlp.__file__).parents[1]


def run_cli(tmp_path, *args):
    """Run the CLI with ``--output`` a fresh file: the exit code and the
    file's bytes, or b"" when the command wrote none."""
    out = tmp_path / "out"
    out.unlink(missing_ok=True)  # an earlier command's output
    code = main([*args, "--output", str(out)])
    return code, out.read_bytes() if out.exists() else b""


class TestSolve:
    def test_bounded_matches_golden(self, tmp_path):
        code, payload = run_cli(tmp_path, "solve", "--input", str(DATA / "bounded.json"))
        assert code == 0
        assert payload == (GOLDEN / "bounded.solution.json").read_bytes()

    def test_unbounded_exits_2(self, tmp_path):
        code, payload = run_cli(tmp_path, "solve", "--input", str(DATA / "unbounded.json"))
        assert code == 2
        assert payload == (GOLDEN / "unbounded.solution.json").read_bytes()

    def test_no_interior_exits_3(self, tmp_path):
        code, payload = run_cli(tmp_path, "solve", "--input", str(DATA / "no_interior.json"))
        assert code == 3
        assert payload == (GOLDEN / "no_interior.solution.json").read_bytes()

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        args = ("solve", "--input", str(DATA / "bounded.json"), "--seed", "7")
        first = run_cli(tmp_path, *args)
        second = run_cli(tmp_path, *args)
        assert first == second

    def test_stdout_without_output_flag(self, capsys):
        code = main(["solve", "--input", str(DATA / "bounded.json")])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.encode() == (GOLDEN / "bounded.solution.json").read_bytes()

    def test_interior_point_flag(self, tmp_path):
        code, payload = run_cli(
            tmp_path, "solve", "--input", str(DATA / "bounded.json"),
            "--interior-point", "0.25,0",
        )
        assert code == 0
        doc = json.loads(payload)
        assert doc["interior_point"] == [0.25, 0.0]
        assert doc["objective"] == pytest.approx(1.0, abs=1e-9)

    def test_boundary_point_is_rejected(self, tmp_path):
        code, payload = run_cli(
            tmp_path, "solve", "--input", str(DATA / "bounded.json"),
            "--interior-point", "0,1",
        )
        assert code == 3
        assert json.loads(payload)["status"] == "origin_not_interior"

    def test_wrong_size_point_is_an_input_error(self, tmp_path):
        code, payload = run_cli(
            tmp_path, "solve", "--input", str(DATA / "bounded.json"),
            "--interior-point", "0,0,0",
        )
        assert code == 4
        assert json.loads(payload)["status"] == "input_error"

    def test_unparseable_point_is_an_input_error(self, tmp_path):
        code, payload = run_cli(
            tmp_path, "solve", "--input", str(DATA / "bounded.json"),
            "--interior-point", "zero,one",
        )
        assert code == 4
        assert payload == b""

    def test_subgradient_solver(self):
        # no flag selects it, but run solves with whatever options it is given
        args = types.SimpleNamespace(command="solve", interior_point=None)
        text = (DATA / "bounded.json").read_bytes()
        code, payload = cli.run(args, text, SolveOptions(solver="subgradient"))
        assert code == 0
        assert json.loads(payload)["objective"] == pytest.approx(1.0, abs=1e-5)

    def test_solver_flag_is_gone(self, tmp_path, capsys):
        for command in cli._build_parser()[1].values():
            assert "--solver" not in command.format_help(), command.prog
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--input", str(DATA / "bounded.json"), "--solver", "subgradient"])
        assert exc.value.code == 4
        assert "unrecognized arguments: --solver subgradient" in capsys.readouterr().err

    def test_dimension_cap_names_the_flags_that_help(self, tmp_path, capsys):
        """The 11-variable box solves under the default, as with
        --interior-point.  With one row scaled by 1e-8, the pieces of its
        phase 1 span more than 1e6, so that stage must take Seidel, past its
        cap: exit 4, and stderr names the flag that avoids it."""
        d = 11
        hint = ["--interior-point", ",".join(["0"] * d)]
        box = str(DATA / "box11.json")
        code, payload = run_cli(tmp_path, "solve", "--input", box)
        assert code == 0
        assert run_cli(tmp_path, "solve", "--input", box, *hint) == (0, payload)
        assert json.loads(payload)["objective"] == pytest.approx(11.0, abs=1e-9)

        A, b = np.vstack([np.eye(d), -np.eye(d)]), np.ones(2 * d)
        A[0] *= 1e-8
        b[0] *= 1e-8
        path = tmp_path / "scaled.json"
        path.write_bytes(save_lp(LinearProgram(dimension=d, A=A, b=b, c=np.ones(d))))
        code, payload = run_cli(tmp_path, "solve", "--input", str(path))
        assert (code, payload) == (4, b"")
        err = capsys.readouterr().err
        assert "capped at 10 variables" in err and "--interior-point" in err
        assert run_cli(tmp_path, "solve", "--input", str(path), *hint)[0] == 0

    def test_missing_input_file(self, tmp_path):
        code, payload = run_cli(tmp_path, "solve", "--input", str(tmp_path / "nope.json"))
        assert code == 4
        assert payload == b""

    def test_unwritable_output_is_an_input_error(self, tmp_path, capsys):
        out = tmp_path / "missing-dir" / "out.json"
        code = main(["solve", "--input", str(DATA / "bounded.json"), "--output", str(out)])
        assert code == 4
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "No such file or directory" in captured.err

    def test_non_utf8_input_is_an_input_error(self, tmp_path, capsys):
        bad = tmp_path / "utf16.json"
        bad.write_bytes(b"\xff\xfe" + (DATA / "bounded.json").read_text().encode("utf-16-le"))
        code, payload = run_cli(tmp_path, "solve", "--input", str(bad))
        assert code == 4
        assert payload == b""
        assert "UTF-8" in capsys.readouterr().err

    def test_malformed_document(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dimension": 2')
        code, payload = run_cli(tmp_path, "solve", "--input", str(bad))
        assert code == 4

    def test_integer_beyond_float_range_is_an_input_error(self, tmp_path, capsys):
        doc = json.loads((DATA / "bounded.json").read_text())
        text = json.dumps(doc).replace(json.dumps(doc["b"]), "[1%s, 2, 2, 1]" % ("0" * 400))
        big = tmp_path / "big.json"
        big.write_text(text)
        code, payload = run_cli(tmp_path, "solve", "--input", str(big))
        assert code == 4
        assert payload == b""
        assert "b[0]" in capsys.readouterr().err

    def test_bad_tolerance_or_seed_is_an_input_error(self, tmp_path, capsys):
        for flag in ("--tolerance=0", "--tolerance=-1e-9", "--tolerance=inf",
                     "--tolerance=nan", "--seed=-1"):
            code, payload = run_cli(
                tmp_path, "solve", "--input", str(DATA / "bounded.json"), flag
            )
            assert code == 4, flag
            assert payload == b"", flag
            assert flag.split("=")[0] in capsys.readouterr().err, flag

    def test_options_are_checked_before_the_input_is_read(self, tmp_path, capsys):
        code, payload = run_cli(tmp_path, "solve", "--input", str(tmp_path / "absent.json"),
                                "--seed=-1")
        assert (code, payload) == (4, b"")
        assert capsys.readouterr().err == "--seed must be a non-negative integer, got -1\n"

    def test_usage_errors_exit_4(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve"])  # --input is required
        assert exc.value.code == 4
        with pytest.raises(SystemExit) as exc:
            main(["polish", "--input", "x.json"])
        assert exc.value.code == 4


class TestPhase1Command:
    def test_bounded_matches_golden(self, tmp_path):
        code, payload = run_cli(tmp_path, "phase1", "--input", str(DATA / "bounded.json"))
        assert code == 0
        assert payload == (GOLDEN / "bounded.phase1.json").read_bytes()

    def test_no_interior_exits_3(self, tmp_path):
        code, payload = run_cli(tmp_path, "phase1", "--input", str(DATA / "no_interior.json"))
        assert code == 3
        doc = json.loads(payload)
        assert doc["status"] == "no_strict_interior"
        assert abs(doc["margin"]) <= 1e-9

    def test_interior_point_flag_is_rejected(self, tmp_path, capsys):
        # phase1 searches for the point itself, so it takes no hint; nor
        # does reduce's phase1 stage, well-formed point or not
        for argv in (["phase1"], ["reduce", "--stage", "phase1"]):
            for point in ("9,9", "5,5", "x"):
                with pytest.raises(SystemExit) as exc:
                    run_cli(tmp_path, *argv, "--input", str(DATA / "bounded.json"),
                            f"--interior-point={point}")
                assert exc.value.code == 4
                assert not (tmp_path / "out").exists()
        assert "--interior-point does not apply to --stage phase1" in capsys.readouterr().err


class TestReduce:
    def test_phase1_stage_dumps_raw_margins(self, tmp_path):
        code, payload = run_cli(
            tmp_path, "reduce", "--input", str(DATA / "bounded.json"), "--stage", "phase1"
        )
        assert code == 0
        assert payload == (GOLDEN / "bounded.reduce_phase1.json").read_bytes()

    def test_support_stage_is_the_default(self, tmp_path):
        code, payload = run_cli(tmp_path, "reduce", "--input", str(DATA / "bounded.json"))
        assert code == 0
        assert payload == (GOLDEN / "bounded.reduce_support.json").read_bytes()

    def test_support_stage_accepts_a_hint(self, tmp_path):
        code, payload = run_cli(
            tmp_path, "reduce", "--input", str(DATA / "bounded.json"),
            "--interior-point", "0,0",
        )
        assert code == 0
        assert payload == (GOLDEN / "bounded.reduce_support.json").read_bytes()

    def test_support_stage_needs_an_interior(self, tmp_path, capsys):
        code, payload = run_cli(tmp_path, "reduce", "--input", str(DATA / "no_interior.json"))
        assert code == 3
        assert payload == b""
        assert "interior" in capsys.readouterr().err

    def test_support_stage_flips_a_minimize_objective(self, tmp_path):
        p0 = np.array([0.1, -0.2])
        dumps = {}
        for sense, c in (("minimize", [1.0, 2.0]), ("maximize", [-1.0, -2.0])):
            lp = LinearProgram(
                dimension=2,
                A=[[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [1.0, 1.0]],
                b=[1.0, 1.0, 1.0, 1.0, 1.5],
                c=c,
                sense=sense,
            )
            program = tmp_path / f"{sense}.json"
            program.write_bytes(save_lp(lp))
            code, payload = run_cli(
                tmp_path, "reduce", "--input", str(program), "--interior-point", "0.1,-0.2"
            )
            assert code == 0
            dumps[sense] = json.loads(payload)
            prob = prepare(lp, p0)[0]
            assert dumps[sense]["G"] == prob.G.tolist()
            assert dumps[sense]["h"] == prob.h.tolist()
        # minimizing c is maximizing -c
        assert dumps["minimize"] == dumps["maximize"]

    def test_support_stage_of_a_zero_objective(self, tmp_path):
        # no direction to rotate: the constraints are dualized unrotated,
        # as solve, which answers optimal on such a program, would need
        lp = LinearProgram(
            dimension=2,
            A=[[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
            b=[1.0, 1.0, 1.0, 1.0],
            c=[0.0, 0.0],
        )
        program = tmp_path / "zero.json"
        program.write_bytes(save_lp(lp))
        code, payload = run_cli(tmp_path, "reduce", "--input", str(program))
        assert code == 0
        doc = json.loads(payload)
        prob = prepare(lp, check_interior(lp))[0]
        assert doc["G"] == prob.G.tolist()
        assert doc["h"] == prob.h.tolist()
        assert run_cli(tmp_path, "solve", "--input", str(program))[0] == 0

    def test_three_dimensional_support(self, tmp_path):
        code, payload = run_cli(tmp_path, "reduce", "--input", str(DATA / "tilted.json"))
        assert code == 0
        doc = json.loads(payload)
        assert doc["stage"] == "support"
        assert len(doc["G"]) == 4 and len(doc["G"][0]) == 2
        assert len(doc["h"]) == 4


def _census(payload):
    root = ET.fromstring(payload.decode("utf-8"))
    tags = [child.tag.split("}")[-1] for child in root.iter()]
    return root, tags


class TestViz:
    def test_bounded_matches_golden(self, tmp_path):
        code, payload = run_cli(tmp_path, "viz", "--input", str(DATA / "bounded.json"))
        assert code == 0
        assert payload == (GOLDEN / "bounded.svg").read_bytes()

    def test_boxed_matches_golden_with_both_stages_on_the_simplex(self, tmp_path, monkeypatch):
        # 16 rows: phase 1 and the support stage both run the vertex
        # simplex, never Seidel; four box rows are axis-parallel, one of
        # them active at the optimum, and every offset is positive, so the
        # dual points are drawn
        def seidel(prob, **options):
            raise AssertionError(f"Seidel ran on {prob.m} pieces")

        monkeypatch.setattr(reduction, "solve_exact", seidel)
        code, payload = run_cli(tmp_path, "viz", "--input", str(DATA / "boxed.json"))
        assert code == 0
        assert payload == (GOLDEN / "boxed.svg").read_bytes()
        _, tags = _census(payload)
        assert tags.count("line") == tags.count("circle") == 16

    def test_one_line_per_constraint_and_matching_dual_dots(self, tmp_path):
        _, payload = run_cli(tmp_path, "viz", "--input", str(DATA / "bounded.json"))
        root, tags = _census(payload)
        assert tags.count("line") == 4
        assert tags.count("circle") == 4
        line_colors = [e.get("stroke") for e in root.iter() if e.tag.endswith("line")]
        dot_colors = [e.get("fill") for e in root.iter() if e.tag.endswith("circle")]
        assert line_colors == dot_colors

    def test_unbounded_still_draws(self, tmp_path):
        code, payload = run_cli(tmp_path, "viz", "--input", str(DATA / "unbounded.json"))
        assert code == 0
        _, tags = _census(payload)
        assert tags.count("line") == 3
        assert tags.count("circle") == 3

    def test_no_interior_draws_lines_only(self, tmp_path):
        code, payload = run_cli(tmp_path, "viz", "--input", str(DATA / "no_interior.json"))
        assert code == 0
        _, tags = _census(payload)
        assert tags.count("line") == 2
        assert tags.count("circle") == 0

    def test_refuses_three_dimensions(self, tmp_path, capsys):
        code, payload = run_cli(tmp_path, "viz", "--input", str(DATA / "tilted.json"))
        assert code == 4
        assert payload == b""
        assert "two-dimensional" in capsys.readouterr().err

    @pytest.mark.parametrize("point", ["1,2,3", "nan,0"])
    def test_malformed_interior_point_is_an_input_error(self, tmp_path, capsys, point):
        # as solve and reduce answer on the same input
        args = ("--input", str(DATA / "bounded.json"), f"--interior-point={point}")
        code, payload = run_cli(tmp_path, "viz", *args)
        assert code == 4
        assert payload == b""
        assert capsys.readouterr().err == "no usable interior point: input_error\n"
        assert run_cli(tmp_path, "reduce", *args) == (4, b"")
        assert capsys.readouterr().err == "no usable interior point: input_error\n"
        assert run_cli(tmp_path, "solve", *args)[0] == 4

    def test_point_outside_still_draws(self, tmp_path):
        # a well-formed hint that is not strictly inside: no optimum, but
        # the lines and the dual points
        code, payload = run_cli(
            tmp_path, "viz", "--input", str(DATA / "bounded.json"), "--interior-point=9,9"
        )
        assert code == 0
        _, tags = _census(payload)
        assert tags.count("line") == 4
        assert tags.count("circle") == 4
        assert b"#111111" not in payload

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        args = ("viz", "--input", str(DATA / "bounded.json"))
        assert run_cli(tmp_path, *args) == run_cli(tmp_path, *args)


@pytest.mark.parametrize("module", ["minmaxlp", "minmaxlp.cli"])
def test_python_dash_m_runs_the_cli(module):
    proc = subprocess.run(
        [sys.executable, "-m", module, "solve", "--input", str(DATA / "bounded.json")],
        capture_output=True, cwd=SRC,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / "bounded.solution.json").read_bytes()
    assert proc.stderr == b""


def test_repeated_calls_build_the_parser_once_and_keep_no_state(monkeypatch, capsys):
    # each command must answer in-process exactly as it does alone in a
    # fresh interpreter, whatever ran before it; the defaults that an
    # earlier command overrode (--stage, --seed, --interior-point)
    # must come back
    bounded, tilted = str(DATA / "bounded.json"), str(DATA / "tilted.json")
    commands = [
        (["solve", "--input", bounded], 0, "bounded.solution.json"),
        (["phase1", "--input", bounded], 0, "bounded.phase1.json"),
        (["solve"], 4, None),  # usage error: --input is required
        (["reduce", "--input", bounded, "--stage", "phase1"], 0, "bounded.reduce_phase1.json"),
        (["reduce", "--input", bounded, "--interior-point=0,0"], 0, "bounded.reduce_support.json"),
        (["solve", "--input", bounded, "--tolerance=0"], 4, None),
        (["reduce", "--input", bounded], 0, "bounded.reduce_support.json"),
        (["solve", "--input", bounded, "--seed=-1"], 4, None),
        (["solve", "--input", bounded, "--seed", "7"], 0, None),
        (["viz", "--input", bounded], 0, "bounded.svg"),
        (["phase1", "--input", bounded, "--interior-point", "9,9"], 4, None),
        (["solve", "--input", tilted], 0, None),
        (["solve", "--input", bounded], 0, "bounded.solution.json"),
        (["solve", "--input", str(DATA / "unbounded.json")], 2, "unbounded.solution.json"),
        # what the top parser answers: an unknown command, a stray argument, help
        (["bogus"], 4, None),
        (["solve", "--input", bounded, "stray"], 4, None),
        (["--help"], 0, None),
        (["reduce", "--input", bounded], 0, "bounded.reduce_support.json"),
    ]
    # usage messages are wrapped to the terminal width: fix it for both sides
    monkeypatch.setenv("COLUMNS", "80")

    # the top-level parser and each subcommand's parser, by name
    built = []

    class CountingParser(cli._Parser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.prog)

    monkeypatch.setattr(cli, "_Parser", CountingParser)
    for argv, want, golden in commands:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        got = (code, captured.out.encode(), captured.err.encode())
        assert code == want, argv
        alone = subprocess.run([sys.executable, "-m", "minmaxlp", *argv], capture_output=True, cwd=SRC)
        assert got == (alone.returncode, alone.stdout, alone.stderr), argv
        if golden is not None:
            assert got[1] == (GOLDEN / golden).read_bytes(), argv
    assert len(built) == len(set(built)), built


_BOUNDED = "bounded.json"  # the tests run in DATA
_DISPATCH = [
    *(
        [name, *flags]
        for name, extra in (
            ("solve", ["--interior-point", "0.25,0"]),
            ("phase1", []),
            ("reduce", ["--stage", "phase1"]),
            ("reduce", ["--interior-point", "0,0"]),
            ("viz", ["--interior-point", "0,0"]),
        )
        for flags in (
            ["--input", _BOUNDED, "--seed", "3", "--tolerance", "1e-8", "--output", "o.json",
             *extra],
            [f"--input={_BOUNDED}", "--seed=3", "--tolerance=1e-8", "--output=o.json",
             *(f"{flag}={value}" for flag, value in zip(extra[::2], extra[1::2]))],
        )
    ),
    ["solve", "--inp", _BOUNDED],
    ["reduce", "--inp", _BOUNDED, "--sta", "phase1"],
    # edge command lines
    [],
    ["-h"],
    ["--help"],
    ["--he"],
    ["bogus"],
    ["bogus", "--input", _BOUNDED],
    ["sol", "--input", _BOUNDED],
    ["-x"],
    ["solve"],
    ["solve", "-h"],
    ["reduce", "--help"],
    ["viz", "--input", _BOUNDED, "--he"],
    ["solve", "--inp"],
    ["solve", "--input", _BOUNDED, "stray"],
    ["solve", "stray", "--input", _BOUNDED],
    ["solve", "--input", _BOUNDED, "-x"],
    ["solve", "--s", "1", "--input", _BOUNDED],
    ["solve", "--input", _BOUNDED, "--seed", "x"],
    ["solve", "--input", _BOUNDED, "--interior-point", "-1,2"],
    ["solve", "--input", _BOUNDED, "--interior-point=-1,2"],
    ["--"],
    ["--", "solve", "--input", _BOUNDED],
    ["solve", "--", "--input", _BOUNDED],
    ["solve", "--input", _BOUNDED, "--"],
    ["phase1", "--input", _BOUNDED, "--interior-point"],
    ["phase1", "--input", _BOUNDED, "--interior-point", "0,0"],
]


@pytest.mark.parametrize("argv", _DISPATCH, ids=" ".join)
def test_subcommand_parsers_answer_as_the_top_parser(argv, monkeypatch, capsys):
    """main hands a subcommand's arguments straight to its parser; it must
    give the namespace, or the exit code, stdout and stderr, that the top
    parser's parse_args gives on the same command line."""
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(DATA)
    seen = []

    def record(args, text, options):  # in place of run: keep what main parsed
        seen.append(vars(args))
        return 0, b""

    monkeypatch.setattr(cli, "run", record)

    def outcome(parse):
        try:
            result = parse()
        except SystemExit as exc:
            result = ("exit", exc.code)
        captured = capsys.readouterr()
        return result, captured.out, captured.err

    def through_main():
        assert main(argv) == 0
        return seen.pop()

    parser = cli._build_parser()[0]
    assert outcome(through_main) == outcome(lambda: vars(parser.parse_args(argv)))


def test_importing_the_package_loads_no_scipy():
    # scipy is a test extra: the package itself must run without it
    code = "import minmaxlp, minmaxlp.cli, sys; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, cwd=SRC)


def test_export_list_is_what_the_package_binds():
    names = minmaxlp.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(minmaxlp, name), name
    public = {
        name for name, value in vars(minmaxlp).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(names) == public
