import pytest

from gatekeep import GridSpec, PowerBoundedCost, parse_config
from gatekeep.config import config_hash, format_config
from gatekeep.errors import ParseError, ValidationError

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


def test_duplicate_key_rejected():
    with pytest.raises(ParseError, match="duplicate key"):
        parse_config(FIG3_TEXT.replace("f = 0.15", "f = 0.15\nf = 0.2"))


def test_key_outside_section_rejected():
    with pytest.raises(ParseError, match="outside any section"):
        parse_config("sigma = 2.0\n")


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


def test_grid_points_include_endpoints():
    pts = GridSpec(0.05, 0.98, 0.01).points()
    assert len(pts) == 94
    assert pts[0] == pytest.approx(0.05)
    assert pts[-1] == pytest.approx(0.98)
