import math
from pathlib import Path

import pytest

from gatekeep import config
from gatekeep.config import GridSpec, RunConfig, config_hash, format_config, parse_config
from gatekeep.economy import PowerBoundedCost, Primitives
from gatekeep.errors import ParseError, ValidationError
from gatekeep.records import replace

FIG3_TEXT = """\
# benchmark calibration
[primitives]
sigma = 2.0
f = 0.15
f_n = 0.005
delta = 0.1

[schedule]
kind = power_bounded
f_b0 = 3.0
kappa = 2.0
alpha = 8.0

[run]
mode = sweep
grid = 0.05:0.98:0.01
seed = 20260809
"""


def test_benchmark_config_parses():
    cfg = parse_config(FIG3_TEXT)
    assert cfg.primitives.sigma == 2.0
    assert cfg.primitives.f == 0.15
    assert cfg.primitives.f_n == 0.005
    assert cfg.primitives.delta == 0.1
    assert cfg.primitives.L == 1.0  # default
    assert cfg.schedule == PowerBoundedCost(3.0, 2.0, 8.0)
    assert cfg.mode == "sweep"
    assert cfg.grid == GridSpec(0.05, 0.98, 0.01)
    assert cfg.seed == 20260809
    assert cfg.mc_n == 10_000_000


def test_round_trip():
    cfg = parse_config(FIG3_TEXT)
    assert parse_config(format_config(cfg)) == cfg


def test_round_trip_all_fields():
    text = FIG3_TEXT + "rho = 0.5\nout = a.csv\nsvg = b.svg\ns_points = 21\n" \
        "f_e0 = 3.005\nf_b_bar = 3.0\nmc_n = 1000\n"
    cfg = parse_config(text)
    assert parse_config(format_config(cfg)) == cfg
    assert config_hash(cfg) == config_hash(parse_config(format_config(cfg)))


def test_empty_config_rejected():
    with pytest.raises(ParseError):
        parse_config("")
    with pytest.raises(ParseError):
        parse_config("# only a comment\n")


def test_sigma_at_unity_rejected():
    with pytest.raises(ValidationError, match="sigma must exceed 1"):
        parse_config(FIG3_TEXT.replace("sigma = 2.0", "sigma = 1.0"))


def test_unknown_key_rejected_with_position():
    text = FIG3_TEXT.replace("f = 0.15", "f = 0.15\nbogus = 1")
    with pytest.raises(ParseError) as err:
        parse_config(text)
    assert "bogus" in str(err.value)
    assert err.value.line == 5
    assert err.value.column == 1


def test_unknown_section_rejected():
    with pytest.raises(ParseError, match="unknown section"):
        parse_config(FIG3_TEXT + "\n[extra]\nx = 1\n")
    with pytest.raises(ParseError, match="^line 14, column 3: unterminated section header$"):
        parse_config(FIG3_TEXT.replace("[run]", "  [run"))
    with pytest.raises(ParseError, match=r"^line 18, column 1: duplicate section \[schedule\]$"):
        parse_config(FIG3_TEXT + "[schedule]\n")


def test_duplicate_key_rejected():
    with pytest.raises(ParseError, match="duplicate key"):
        parse_config(FIG3_TEXT.replace("f = 0.15", "f = 0.15\nf = 0.2"))


def test_key_outside_section_rejected():
    with pytest.raises(ParseError, match="outside any section"):
        parse_config("sigma = 2.0\n")
    with pytest.raises(ParseError, match="^line 4, column 1: expected 'key = value'$"):
        parse_config(FIG3_TEXT.replace("f = 0.15", "f 0.15"))
    with pytest.raises(ParseError, match="^line 4, column 3: empty key$"):
        parse_config(FIG3_TEXT.replace("f = 0.15", "  = 0.15"))


def test_missing_required_key():
    with pytest.raises(ValidationError, match="primitives.delta is required"):
        parse_config(FIG3_TEXT.replace("delta = 0.1\n", ""))


def test_missing_schedule_section():
    text = "\n".join(
        line for line in FIG3_TEXT.splitlines() if not line.startswith(("kind", "f_b0", "kappa", "alpha", "[schedule]"))
    )
    with pytest.raises(ValidationError, match=r"\[schedule\] is required"):
        parse_config(text)


def test_non_numeric_value_rejected():
    with pytest.raises(ParseError, match="expected a number"):
        parse_config(FIG3_TEXT.replace("f = 0.15", "f = fifteen"))


def test_bad_mode_rejected():
    with pytest.raises(ValidationError, match="run.mode"):
        parse_config(FIG3_TEXT.replace("mode = sweep", "mode = dance"))


def test_bad_grid_rejected():
    with pytest.raises(ParseError):
        parse_config(FIG3_TEXT.replace("grid = 0.05:0.98:0.01", "grid = 0.05:0.98"))
    with pytest.raises(ValidationError):
        parse_config(FIG3_TEXT.replace("grid = 0.05:0.98:0.01", "grid = 0.98:0.05:0.01"))


def test_schedule_kinds_parse():
    base = FIG3_TEXT.split("[schedule]")[0]
    tail = "\n[run]\nmode = solve\nrho = 0.5\n"
    for body in (
        "kind = constant\nf_b = 2.0\n",
        "kind = hyperbolic\nf_b0 = 1.5\n",
        "kind = piecewise_linear\nrho_low = 0.3\nrho_high = 0.9\nf_low = 1.0\nf_high = 5.0\n",
    ):
        cfg = parse_config(base + "[schedule]\n" + body + tail)
        assert parse_config(format_config(cfg)) == cfg


def test_schedule_missing_parameter():
    text = FIG3_TEXT.replace("kappa = 2.0\n", "")
    with pytest.raises(ValidationError, match="schedule.kappa is required"):
        parse_config(text)
    with pytest.raises(ValidationError, match=r"^schedule\.kind is required$"):
        parse_config(FIG3_TEXT.replace("kind = power_bounded\n", ""))
    with pytest.raises(ValidationError, match=r"^schedule\.kind must be one of .*, got 'cubic'$"):
        parse_config(FIG3_TEXT.replace("kind = power_bounded", "kind = cubic"))


def test_grid_points_include_endpoints():
    pts = GridSpec(0.05, 0.98, 0.01).points()
    assert len(pts) == 94
    assert pts[0] == pytest.approx(0.05)
    assert pts[-1] == pytest.approx(0.98)


@pytest.mark.parametrize("key, value", [
    ("mode", "bogus"),
    ("rho", 1.5),
    ("rho", 0.0),
    ("rho", float("nan")),
    ("seed", -1),
    ("s_points", 2),
    ("f_e0", 0.0),
    ("f_b_bar", -1.0),
    ("mc_n", 0),
])
def test_hand_built_config_is_checked(key, value):
    prim, sched = Primitives(2.0, 0.15, 0.005, 0.1), PowerBoundedCost(3.0, 2.0, 8.0)
    with pytest.raises(ValidationError, match=rf"^run\.{key} "):
        RunConfig(prim, sched, **{key: value})


@pytest.mark.parametrize("key, value, kind", [
    ("s_points", 3.5, "int"),
    ("mc_n", 1000.5, "int"),
    ("grid", "0.1:0.9:0.1", "GridSpec"),
    ("seed", "5", "int"),
    ("rho", "0.5", "float"),
])
def test_hand_built_config_types_are_checked(key, value, kind):
    # each of these used to pass construction and fail inside cli.run with a raw error
    prim, sched = Primitives(2.0, 0.15, 0.005, 0.1), PowerBoundedCost(3.0, 2.0, 8.0)
    with pytest.raises(ValidationError) as err:
        RunConfig(prim, sched, **{key: value})
    assert str(err.value) == f"run.{key} must be of type {kind}, got {value!r}"


def test_hand_built_config_takes_an_int_as_a_float_and_checks_primitives():
    sched = PowerBoundedCost(3.0, 2.0, 8.0)
    assert RunConfig(Primitives(2.0, 0.15, 0.005, 0.1), sched, f_e0=2).f_e0 == 2
    with pytest.raises(ValidationError, match="^primitives must be a Primitives, got dict$"):
        RunConfig({"sigma": 2.0}, sched)


def test_hand_built_schedule_must_have_a_config_kind():
    # format_config cannot write any other schedule, so the run would have no provenance hash
    class Flat:
        def cost(self, rho):
            return 2.0

    with pytest.raises(ValidationError, match="schedule must be one of .*, got Flat"):
        RunConfig(Primitives(2.0, 0.15, 0.005, 0.1), Flat())


def test_override_is_checked():
    # a pigouvian run with one transfer point used to divide by zero
    with pytest.raises(ValidationError, match="run.s_points must be at least 3, got 1"):
        replace(parse_config(FIG3_TEXT), mode="pigouvian", rho=0.5, s_points=1)


def test_run_errors_name_their_key_in_config_text():
    for line, message in (
        ("rho = 1.5", "run.rho must lie in (0, 1), got 1.5"),
        ("mc_n = 0", "run.mc_n must be positive, got 0"),
        ("f_b_bar = -1.0", "run.f_b_bar must be positive, got -1.0"),
        ("s_points = 2", "run.s_points must be at least 3, got 2"),
    ):
        with pytest.raises(ValidationError) as err:
            parse_config(FIG3_TEXT + line + "\n")
        assert str(err.value) == message


def test_grid_parse_locates_its_errors():
    with pytest.raises(ParseError) as err:
        GridSpec.parse("0.1:0.9", line=4, column=2)
    assert str(err.value) == "line 4, column 2: grid must be start:stop:step, got '0.1:0.9'"
    with pytest.raises(ParseError, match="^grid components must be numbers"):
        GridSpec.parse("0.1:x:0.1")
    assert GridSpec.parse("0.05:0.98:0.01") == GridSpec(0.05, 0.98, 0.01)


@pytest.mark.parametrize("step", [math.inf, 1e-300])
def test_grid_of_unbounded_length_rejected(step):
    # an infinite step made points() append NaN forever; a tiny one never ends
    with pytest.raises(ValidationError, match="grid step"):
        GridSpec(0.1, 0.9, step)


def test_grid_of_unbounded_length_rejected_in_config_text():
    with pytest.raises(ValidationError, match="grid step inf"):
        parse_config(FIG3_TEXT.replace("grid = 0.05:0.98:0.01", "grid = 0.1:0.9:inf"))


def test_grid_errors_name_their_key_in_config_text():
    for grid, message in (
        ("0.1:0.9:inf", "run.grid: grid step inf must be finite and take at most "
                        f"{config.MAX_POINTS} steps from 0.1 to 0.9"),
        ("0.9:0.1:0.1", "run.grid: grid must satisfy 0 < start < stop < 1, got 0.9:0.1:0.1"),
        ("0.1:0.9:-0.1", "run.grid: grid step must be positive, got -0.1"),
    ):
        with pytest.raises(ValidationError) as err:
            parse_config(FIG3_TEXT.replace("grid = 0.05:0.98:0.01", f"grid = {grid}"))
        assert str(err.value) == message


def test_transfer_grid_size_bounded():
    cfg = parse_config(FIG3_TEXT)
    with pytest.raises(ValidationError, match=f"^run.s_points must be at most {config.MAX_POINTS}"):
        replace(cfg, s_points=config.MAX_POINTS + 1)
    assert replace(cfg, s_points=config.MAX_POINTS).s_points == config.MAX_POINTS


def test_readme_config_example_parses():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("### Config format", 1)[1].split("```\n", 2)[1]
    cfg = parse_config(block)
    assert cfg.schedule == PowerBoundedCost(3.0, 2.0, 8.0)
    assert cfg.grid == GridSpec(0.05, 0.98, 0.01)
    assert cfg.mc_n == 10_000_000


def test_inline_hash_is_part_of_the_value():
    # only whole-line comments exist, so '#' inside a value is kept
    assert parse_config(FIG3_TEXT + "out = a#b.csv\n").out == "a#b.csv"


BENCHMARK_CANONICAL = """\
[primitives]
sigma = 2.0
f = 0.15
f_n = 0.005
delta = 0.1
L = 1.0

[schedule]
kind = power_bounded
f_b0 = 3.0
kappa = 2.0
alpha = 8.0

[run]
mode = sweep
seed = 20260809
rho = 0.89
grid = 0.05:0.98:0.01
s_points = 41
mc_n = 10000000
"""


def test_benchmark_config_canonical_text():
    with open(Path(__file__).parents[1] / "benchmark.cfg", encoding="utf-8") as fh:
        cfg = parse_config(fh.read())
    assert format_config(cfg) == BENCHMARK_CANONICAL
    assert config_hash(cfg) == "b50e0f2edb546aa2"
    # the hash a solve run writes in its provenance line
    assert config_hash(replace(cfg, mode="solve")) == "ba127f199622218b"


def test_an_int_and_its_float_hash_alike():
    with open(Path(__file__).parents[1] / "benchmark.cfg", encoding="utf-8") as fh:
        text = fh.read()
    cfg = parse_config(text + "f_e0 = 2.0\n")
    override = replace(cfg, f_e0=2)
    assert type(override.f_e0) is float
    assert config_hash(override) == config_hash(cfg) == "af5a65acb1997bf2"
    plain = parse_config(text)
    prim = Primitives(sigma=2, f=0.15, f_n=0.005, delta=0.1, L=1)
    sched = PowerBoundedCost(f_b0=3, kappa=2, alpha=8)
    assert (prim, sched) == (plain.primitives, plain.schedule)
    hand_built = replace(plain, primitives=prim, schedule=sched)
    assert format_config(hand_built) == format_config(plain) == BENCHMARK_CANONICAL
    assert config_hash(hand_built) == "b50e0f2edb546aa2"


FULL_RUN = """\
[run]
mode = pigouvian
seed = 7
rho = 0.5
grid = 0.05:0.98:0.01
out = a.csv
svg = b.svg
s_points = 21
f_e0 = 3.005
f_b_bar = 3.0
mc_n = 1000
"""


@pytest.mark.parametrize("schedule, digest", [
    ("kind = constant\nf_b = 2.0\n", "ca5b43f42139d503"),
    ("kind = power_bounded\nf_b0 = 3.0\nkappa = 2.0\nalpha = 8.0\n", "7d559d88e5486aa6"),
    ("kind = piecewise_linear\nrho_low = 0.3\nrho_high = 0.9\nf_low = 1.0\nf_high = 5.0\n",
     "bdfc23eb8715babf"),
    ("kind = hyperbolic\nf_b0 = 1.5\n", "60399c9197ec319c"),
])
def test_every_run_key_canonical_text(schedule, digest):
    prim = "[primitives]\nsigma = 2.0\nf = 0.15\nf_n = 0.005\ndelta = 0.1\n"
    # the run keys are given out of their canonical order
    run = "[run]\nmc_n = 1000\nsvg = b.svg\nf_b_bar = 3.0\nout = a.csv\ngrid = 0.05:0.98:0.01\n" \
        "s_points = 21\nrho = 0.5\nf_e0 = 3.005\nseed = 7\nmode = pigouvian\n"
    cfg = parse_config(prim + "[schedule]\n" + schedule + run)
    canonical = prim + "L = 1.0\n\n[schedule]\n" + schedule + "\n" + FULL_RUN
    assert format_config(cfg) == canonical
    assert config_hash(cfg) == digest
