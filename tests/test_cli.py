import argparse
import inspect

import pytest

from plifs import cli, oracle
from plifs.cli import build_parser, main
from plifs.gdifs import METHODS, DimConfig, build_fixed_point_family, dim_report
from plifs.specfile import format_spec, parse_spec

PAPER = """\
map tau=0 slopes=0.8,0.2 breaks=0.5
map tau=0.9 slopes=0.1
"""

CANTOR = """\
map tau=0 slopes=0.3333333333333333
map tau=0.6666666666666666 slopes=0.3333333333333333
"""

FOLDED = """\
map tau=0 slopes=0.3,-0.3 breaks=0.5
map tau=0.8 slopes=0.2
"""

# the folded tent system of test_gdifs.test_associate_noninjective_cut_is_ambiguous
TENT = """\
map tau=0 slopes=0.4,-0.4 breaks=0.5
map tau=0.88 slopes=0.2
map tau=0.45 slopes=0.25,0.35 breaks=0
"""


@pytest.fixture
def paper_file(tmp_path):
    p = tmp_path / "paper.plifs"
    p.write_text(PAPER)
    return str(p)


@pytest.fixture
def cantor_file(tmp_path):
    p = tmp_path / "cantor.plifs"
    p.write_text(CANTOR)
    return str(p)


def test_check_paper_example(paper_file, capsys):
    assert main(["check", paper_file]) == 0
    out = capsys.readouterr().out
    assert "type vector: (1, 0)" in out
    assert "small: no" in out and "b-i:map 1" in out
    assert "IOSC: yes (gap 0.4" in out
    assert "UNDECIDED_AT_DEPTH 8" in out
    assert "12222222" in out


def test_check_certifies_a_break_off_the_attractor(tmp_path, capsys):
    # the break 0.5 of map 1 lies in the gap (1/3, 2/3) between the first
    # cylinders of this Cantor-like system
    path = tmp_path / "gap.plifs"
    path.write_text("map tau=0 slopes=0.3333333333333333,0.25 breaks=0.5\n"
                    "map tau=0.6666666666666666 slopes=0.3333333333333333\n")
    assert main(["check", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.endswith("break 0.5 (map 1): CERTIFIED_OFF_ATTRACTOR at depth 8\n")


def test_check_cantor_trivially_regular(cantor_file, capsys):
    assert main(["check", cantor_file]) == 0
    out = capsys.readouterr().out
    assert "small: yes" in out
    assert "IOSC: yes (gap 0.333" in out
    assert "regular: trivially" in out


def test_dim_natural_matches_printed_values(paper_file, capsys, tmp_path):
    csv_path = tmp_path / "out.csv"
    assert main(["dim", paper_file, "natural", "--n", "6..11", "--csv", str(csv_path)]) == 0
    out = capsys.readouterr().out
    for n, val in ((6, 0.57913815), (11, 0.58918180)):
        line = next(l for l in out.splitlines() if l.startswith(f"s_{n} "))
        assert abs(float(line.split("=")[1]) - val) < 1e-7
    rows = csv_path.read_text().splitlines()
    assert rows[0] == "method,param,value"
    assert len(rows) == 7
    assert rows[1].startswith("natural,6,0.579138152")


def test_dim_punctured(paper_file, capsys):
    assert main(["dim", paper_file, "punctured", "--level", "3"]) == 0
    out = capsys.readouterr().out
    line = next(l for l in out.splitlines() if l.startswith("t_3"))
    assert abs(float(line.split("=")[1]) - 0.55122823) < 1e-7


def test_dim_punctured_beyond_dense_cap(paper_file, capsys):
    # level 13 has 8189 graph nodes, past the 4096 a dense matrix was limited to
    def last_line(*args):
        assert main(["dim", paper_file, *args]) == 0
        name, value = capsys.readouterr().out.splitlines()[-1].split(" = ")
        return name, float(value)

    name, t13 = last_line("punctured", "--level", "13")
    assert name == "t_13"
    assert last_line("punctured", "--level", "12")[1] <= t13 <= last_line("gdifs")[1] + 1e-11


def test_dim_gdifs(paper_file, capsys):
    assert main(["dim", paper_file, "gdifs"]) == 0
    out = capsys.readouterr().out
    line = next(l for l in out.splitlines() if l.startswith("alpha"))
    assert abs(float(line.split("=")[1]) - 0.60304963) < 1e-6


def test_dim_determinant_not_applicable_exit_3(paper_file, capsys):
    assert main(["dim", paper_file, "determinant"]) == 3
    assert "not applicable" in capsys.readouterr().err


def test_dim_all_consistent(cantor_file, capsys):
    assert main(["dim", cantor_file, "all", "--n", "4..8", "--level", "4"]) == 0
    out = capsys.readouterr().out
    assert "consistent: yes" in out
    assert "natural:" in out and "gdifs:" in out


def test_measure_verdicts(cantor_file, capsys):
    assert main(["measure", cantor_file, "--n", "1..8"]) == 0
    out = capsys.readouterr().out
    assert "CONSISTENT_NULL" in out
    l1 = next(l for l in out.splitlines() if l.startswith("L_1 "))
    assert abs(float(l1.split("=")[1]) - 2 / 3) < 1e-12


def test_render_csv_depth1_golden(cantor_file, capsys):
    assert main(["render", cantor_file, "--depth", "1"]) == 0
    out = capsys.readouterr().out
    assert out == (
        "word,left,right\n"
        "1,0,0.33333333333333326\n"
        "2,0.66666666666666663,0.99999999999999989\n"
    )


def test_render_depth0_single_row(cantor_file, capsys):
    assert main(["render", cantor_file, "--depth", "0"]) == 0
    out = capsys.readouterr().out
    rows = out.splitlines()
    assert len(rows) == 2
    assert rows[1].startswith(",0,")


def test_render_deterministic_and_saved(cantor_file, capsys, tmp_path):
    target = tmp_path / "a.csv"
    assert main(["render", cantor_file, "--depth", "3", "--csv", str(target)]) == 0
    first = capsys.readouterr().out
    assert main(["render", cantor_file, "--depth", "3"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert target.read_text() == first


def test_render_svg_rect_count(paper_file, capsys):
    assert main(["render", paper_file, "--depth", "2", "--format", "svg"]) == 0
    out = capsys.readouterr().out
    # 1 + 2 + 4 cylinder rectangles across three rows, plus the background
    assert out.count("#3b6ea5") == 7
    assert out.count("<rect ") == 8
    assert out.startswith("<svg ")
    assert main(["render", paper_file, "--depth", "2", "--format", "svg"]) == 0
    assert capsys.readouterr().out == out


def test_esc_command(cantor_file, capsys):
    assert main(["esc", cantor_file, "--level", "2"]) == 0
    out = capsys.readouterr().out
    assert "n=2:" in out
    line = next(l for l in out.splitlines() if l.startswith("n=2:"))
    assert abs(float(line.split("delta=")[1].split()[0]) - 2 / 9) < 1e-12


def test_exit_code_2_on_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.plifs"
    bad.write_text("map tau=0 slopes=0.5\nmap tau=0 slopes=1.5\n")
    assert main(["check", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err


def test_exit_code_2_on_missing_file(capsys):
    assert main(["check", "/nonexistent/x.plifs"]) == 2


def test_exit_code_2_on_unknown_flag(paper_file, capsys):
    assert main(["check", paper_file, "--frobnicate"]) == 2


def test_exit_code_4_on_budget(paper_file, capsys):
    assert main(["dim", paper_file, "natural", "--n", "1..11", "--budget", "100"]) == 4


def test_gdifs_exit_code_4_when_certification_exceeds_budget(tmp_path, capsys):
    tent = tmp_path / "tent.plifs"
    tent.write_text(TENT)
    assert main(["dim", str(tent), "gdifs", "--budget", "243"]) == 4
    assert "budget is 243" in capsys.readouterr().err


def test_measure_exit_code_4_on_budget(paper_file, capsys):
    assert main(["measure", paper_file, "--budget", "100"]) == 4
    assert "budget is 100" in capsys.readouterr().err


# text that precedes the value in the output of `plifs dim FILE <method>`
VALUE_PREFIX = {
    "natural": "estimate (max over last 3): ",
    "gdifs": "alpha = ",
    "punctured": "t_5 = ",
    "determinant": "determinant root = ",
    "box": "box estimate = ",
}


@pytest.mark.parametrize("method", list(VALUE_PREFIX))
def test_dim_method_matches_line_of_all(tmp_path, capsys, method):
    family = tmp_path / "family.plifs"
    family.write_text(format_spec(build_fixed_point_family((0.25, 0.2, 0.3, 0.25), (0.5,)).system))
    opts = ["--n", "4..8", "--level", "5", "--seed", "3"]
    assert main(["dim", str(family), method, *opts]) == 0
    value = capsys.readouterr().out.split(VALUE_PREFIX[method])[1].split()[0]
    assert main(["dim", str(family), "all", *opts]) == 0
    line = next(l for l in capsys.readouterr().out.splitlines() if l.startswith(f"{method}:"))
    assert line.split()[1] == value


def test_dim_all_unavailable_lines_golden(tmp_path, capsys):
    tent = tmp_path / "tent.plifs"
    tent.write_text(TENT)
    assert main(["dim", str(tent), "all"]) == 0
    lines = capsys.readouterr().out.splitlines()
    for expected in (
        "gdifs: unavailable (AmbiguousContainment: edge 1:left -> 2:full "
        "undecidable at refinement depth 12)",
        "punctured: unavailable (ValueError: punctured approximation requires injective maps)",
        "determinant: unavailable (not a fixed-point-breaking family)",
    ):
        assert expected in lines


@pytest.mark.parametrize(
    "system, argv",
    [
        (PAPER, ["dim", "natural", "--n", "abc"]),
        (PAPER, ["dim", "natural", "--n", "5..3"]),
        (PAPER, ["dim", "punctured", "--level", "1"]),
        (PAPER, ["measure", "--n", "0..0"]),
        (FOLDED, ["dim", "punctured"]),
        (PAPER, ["render", "--depth", "-1"]),
        (PAPER, ["render", "--depth", "-1", "--format", "svg"]),
        (PAPER, ["check", "--depth", "-1"]),
        (CANTOR, ["check", "--depth", "-1"]),
        (PAPER, ["esc", "--level", "0"]),
        (CANTOR, ["esc", "--level", "0"]),
        (PAPER, ["measure", "--n", "5..3"]),
        (PAPER, ["measure", "--n", "1..3"]),
        (PAPER, ["dim", "all", "--n", "0..5"]),
        (PAPER, ["dim", "all", "--level", "1"]),
        (PAPER, ["dim", "all", "--tol", "-1"]),
        (PAPER, ["dim", "all", "--tol", "nan"]),
        (PAPER, ["dim", "all", "--tol", "inf"]),
        (PAPER, ["measure", "--n", "1..6", "--tol", "-1"]),
        (PAPER, ["measure", "--n", "1..6", "--tol", "0"]),
        (PAPER, ["measure", "--n", "1..6", "--tol", "nan"]),
        (PAPER, ["measure", "--n", "1..6", "--tol", "inf"]),
    ],
    ids=["n-not-a-range", "n-reversed", "level-below-2", "measure-n-zero", "folded-punctured",
         "render-depth-negative", "render-svg-depth-negative", "check-depth-negative",
         "check-depth-negative-no-breaks", "esc-level-0", "esc-level-0-cantor",
         "measure-n-reversed", "measure-n-too-short", "all-n-zero", "all-level-below-2",
         "all-tol-negative", "all-tol-nan", "all-tol-inf", "measure-tol-negative",
         "measure-tol-zero", "measure-tol-nan", "measure-tol-inf"],
)
def test_exit_code_2_on_bad_argument(tmp_path, capsys, system, argv):
    path = tmp_path / "system.plifs"
    path.write_text(system)
    command, *rest = argv
    assert main([command, str(path), *rest]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and err.endswith("\n")
    assert "line 0" not in err and "Traceback" not in err


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
def test_measure_rejects_bad_tol_before_any_sweep(paper_file, capsys, monkeypatch, tol):
    def sweep(*args, **kwargs):
        raise AssertionError("a sweep ran before --tol was checked")

    monkeypatch.setattr(oracle, "lebesgue_upper_bound", sweep)
    monkeypatch.setattr(cli, "natural_dimension", sweep)
    assert main(["measure", paper_file, "--n", "1..22", "--tol", tol]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: plateau tolerance {float(tol)} is not finite and > 0\n"


@pytest.mark.parametrize("text", ["# nothing\n", ""])
def test_file_without_maps_exits_2_without_a_line_number(tmp_path, capsys, text):
    path = tmp_path / "empty.plifs"
    path.write_text(text)
    assert main(["check", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: no map lines found\n"
    assert "line 0" not in err


def test_budget_env_override(paper_file, capsys, monkeypatch):
    monkeypatch.setenv("PLIFS_BUDGET", "100")
    assert main(["dim", paper_file, "natural", "--n", "1..11"]) == 4
    # explicit flag wins over the environment
    assert main(["dim", paper_file, "natural", "--n", "1..6", "--budget", "1000000"]) == 0


@pytest.mark.parametrize("value", ["0", "-5"])
@pytest.mark.parametrize("source", ["--budget", "PLIFS_BUDGET"])
def test_budget_below_one_exits_2(paper_file, capsys, monkeypatch, source, value):
    argv = ["dim", paper_file, "natural", "--n", "1..11"]
    if source == "--budget":
        argv += ["--budget", value]
    else:
        monkeypatch.setenv("PLIFS_BUDGET", value)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {source}={value} is not a positive integer\n"
    assert "line 0" not in err


def test_budget_env_not_an_integer_exits_2(paper_file, capsys, monkeypatch):
    monkeypatch.setenv("PLIFS_BUDGET", "lots")
    assert main(["dim", paper_file, "natural"]) == 2
    assert capsys.readouterr().err == "error: PLIFS_BUDGET='lots' is not an integer\n"


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "line",
    [
        "map tau={} slopes=0.8,0.2 breaks=0.5",
        "map tau=0 slopes=0.8,{} breaks=0.5",
        "map tau=0 slopes=0.8,0.2 breaks={}",
    ],
    ids=["tau", "slopes", "breaks"],
)
def test_non_finite_parameter_exits_2(tmp_path, capsys, line, bad):
    path = tmp_path / "system.plifs"
    path.write_text("map tau=0.9 slopes=0.1\n" + line.format(bad) + "\n")
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: ") and err.endswith(" is not finite\n")


def test_dim_parser_reads_the_library_table_and_defaults():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    dim = sub.choices["dim"]
    method = next(a for a in dim._actions if a.dest == "method")
    assert list(method.choices) == [*METHODS, "all"]
    args = dim.parse_args(["system.plifs", "all"])
    cfg = DimConfig()
    assert args.n == f"{cfg.n_min}..{cfg.n_max}"
    assert args.level == cfg.punctured_k
    assert args.tol == cfg.agreement_tol
    assert args.seed == cfg.seed
    assert sub.choices["measure"].parse_args(["system.plifs"]).tol == oracle.PLATEAU_TOL


def test_dim_box_default_seed_matches_dim_report(paper_file, capsys):
    assert main(["dim", paper_file, "box"]) == 0
    value = capsys.readouterr().out.split("box estimate = ")[1].split()[0]
    assert float(value) == dim_report(parse_spec(PAPER)).value("box")


def test_commands_take_system_budget_and_arguments():
    # main reads the system file and the budget once, for every command
    for name, cmd in cli._DISPATCH.items():
        assert cmd.__name__ == f"cmd_{name}"
        assert list(inspect.signature(cmd).parameters) == ["F", "budget", "args"]


def test_round_trip_parse_emit(paper_file):
    from plifs.specfile import format_spec, parse_spec_file

    F = parse_spec_file(paper_file)
    assert parse_spec(format_spec(F)) == F
