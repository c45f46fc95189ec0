"""What every record type promises: value equality within its own type only,
hashing, immutability, its repr, and validation when a field is replaced."""

import pytest

from gatekeep import cli, config, economy, equilibrium, oracle, policy, welfare
from gatekeep.errors import DomainError, ValidationError
from gatekeep.records import replace

CUTOFFS = dict(t_star=-0.25, p_star=1.5, a=1.375)
PRIMITIVES = dict(sigma=2.0, f=0.15, f_n=0.005, delta=0.1, L=1.0)
AGGREGATES = dict(
    p_theta=0.4, p_phi=0.1, s_term=0.2, b_term=0.3, pi_breve=0.05, r_bar=0.6,
    pi_bar=0.15, m_e=3.0, m=2.0, phi_tilde=1.2, welfare=0.9,
)

#: every record class, with one value of each field in declaration order
RECORDS = [
    (economy.Primitives, PRIMITIVES),
    (economy.ConstantCost, dict(f_b=3.0)),
    (economy.PowerBoundedCost, dict(f_b0=3.0, kappa=2.0, alpha=8.0)),
    (economy.PiecewiseLinearCost, dict(rho_low=0.3, rho_high=0.9, f_low=1.0, f_high=5.0)),
    (economy.HyperbolicCost, dict(f_b0=1.5)),
    (economy.Regime, dict(rho=0.5, schedule=economy.ConstantCost(3.0))),
    (economy.LogCutoffs, CUTOFFS),
    (config.GridSpec, dict(start=0.1, stop=0.9, step=0.1)),
    (config.RunConfig, dict(
        primitives=economy.Primitives(**PRIMITIVES), schedule=economy.HyperbolicCost(1.5),
        mode="sweep", rho=0.5, grid=config.GridSpec(0.1, 0.9, 0.1), seed=3, out="a.csv",
        svg=None, s_points=41, f_e0=2.0, f_b_bar=None, mc_n=1000,
    )),
    (equilibrium.EquilibriumSolution, dict(
        cutoffs=economy.LogCutoffs(**CUTOFFS), ac_residual=1e-13, fe_residual=-2e-12,
        fe_stationarity=0.0, iterations=(7, 9),
    )),
    (equilibrium.MelitzLimit, dict(
        p_star=1.1, variant="zero_precision", effective_entry_cost=3.0,
        effective_fixed_cost=0.15, fe_residual=0.0,
    )),
    (welfare.Aggregates, AGGREGATES),
    (welfare.SweepRecord, dict(
        rho=0.5, eq=None, agg=welfare.Aggregates(**AGGREGATES), error=None,
    )),
    (welfare.LogWelfareDerivative, dict(dlogW=0.1, dlogS=0.2, dlogB=0.1)),
    (welfare.OptimalPrecision, dict(rho_w=0.7, welfare=0.9, boundary=False)),
    (welfare.DeclineCertificate, dict(
        schedule=economy.PiecewiseLinearCost(0.3, 0.9, 1.0, 4.0), w_low=0.9, w_high=0.8,
        doubling_path=((1.0, 0.95), (2.0, 0.8)),
    )),
    (policy.PolicyBundle, dict(theta_p_log=0.2, s=0.5, tau=0.2)),
    (policy.ContractPoint, dict(t=0.2, b=0.9)),
    (cli._Table, dict(
        columns=("s", "W"), rows=((0.0, 1.0),), summary="done", failures=("s=1.0: failed",),
        svg=None, code=0,
    )),
    (oracle.McEstimate, dict(mean=0.5, std_error=0.01, n=1000, seed=7)),
    (oracle.PopulationDraws, dict(rho=0.5, n=1000, seed=7)),
]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_record_equality_hash_and_immutability(cls, fields):
    record, again = cls(**fields), cls(**fields)
    assert record == again and not record != again
    assert hash(record) == hash(again)
    # equal only to a record of its own type: not to its plain values, nor to
    # a subclass holding the same values
    values = tuple(fields.values())
    assert record != values and values != record and not record == values
    twin = type("Twin", (cls,), {})(**fields)
    assert record != twin and twin != record
    name, value = next(iter(fields.items()))
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    with pytest.raises(AttributeError):
        record.no_such_field = 1
    assert record == again


def test_schedules_of_different_kinds_differ_at_equal_values():
    assert economy.ConstantCost(3.0) != economy.HyperbolicCost(3.0)
    assert not economy.ConstantCost(3.0) == economy.HyperbolicCost(3.0)


def test_record_reprs():
    assert repr(economy.Primitives(sigma=2.0, f=0.15, f_n=0.005, delta=0.1)) == (
        "Primitives(sigma=2.0, f=0.15, f_n=0.005, delta=0.1, L=1.0)"
    )
    assert repr(economy.Regime(1e-9, economy.PowerBoundedCost(3.0, 2.0, 8.0))) == (
        "Regime(rho=1e-06, schedule=PowerBoundedCost(f_b0=3.0, kappa=2.0, alpha=8.0))"
    )
    assert repr(economy.LogCutoffs(**CUTOFFS)) == "LogCutoffs(t_star=-0.25, p_star=1.5, a=1.375)"
    assert repr(config.GridSpec(0.05, 0.98, 0.01)) == "GridSpec(start=0.05, stop=0.98, step=0.01)"


def test_regime_clamps_rho_and_caches_its_cost():
    schedule = economy.PowerBoundedCost(3.0, 2.0, 8.0)
    low = economy.Regime(1e-9, schedule)
    assert low == economy.Regime(economy.RHO_MIN, schedule)
    assert economy.Regime(1.0 - 1e-12, schedule).rho == economy.RHO_MAX
    with pytest.raises(DomainError):
        economy.Regime(0.0, schedule)
    assert low.f_b == schedule.cost(economy.RHO_MIN)
    # the cached cost is not a field: equality and hash ignore it
    assert low == economy.Regime(1e-9, schedule)
    assert hash(low) == hash(economy.Regime(1e-9, schedule))
    with pytest.raises(AttributeError):
        low.f_b = 1.0


@pytest.mark.parametrize("key, value", [
    ("mode", "dance"), ("seed", -1), ("rho", 1.5), ("s_points", 2), ("mc_n", 0),
    ("f_e0", -1.0), ("f_b_bar", 0.0), ("out", 3), ("grid", "0.1:0.9:0.1"),
])
def test_replace_validates_the_new_record(key, value):
    cfg = config.RunConfig(
        primitives=economy.Primitives(**PRIMITIVES), schedule=economy.ConstantCost(3.0),
    )
    with pytest.raises(ValidationError, match=f"run.{key} "):
        replace(cfg, **{key: value})


@pytest.mark.parametrize("cls, fields, bad, error", [
    (economy.Primitives, PRIMITIVES, dict(sigma=1.0), DomainError),
    (economy.PiecewiseLinearCost, dict(rho_low=0.3, rho_high=0.9, f_low=1.0, f_high=5.0),
     dict(rho_high=0.2), DomainError),
    (config.GridSpec, dict(start=0.1, stop=0.9, step=0.1), dict(step=float("inf")),
     ValidationError),
])
def test_replace_validates_every_checked_record(cls, fields, bad, error):
    with pytest.raises(error):
        replace(cls(**fields), **bad)
