"""Plain-text run configuration.

Grammar: INI-like sections ``[primitives]``, ``[schedule]``, ``[run]`` whose
bodies are ``key = value`` lines; blank lines and lines starting with ``#``
or ``;`` are ignored. Unknown sections or keys are rejected with their
position; value constraints are reported as ValidationError naming the
violated invariant. ``format_config`` renders a canonical text that parses
back to an equal RunConfig.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

from .economy import (
    ConstantCost,
    CostSchedule,
    HyperbolicCost,
    PiecewiseLinearCost,
    PowerBoundedCost,
    Primitives,
)
from .errors import DomainError, ParseError, ValidationError

MODES = ("solve", "sweep", "optimum", "pigouvian", "limits", "validate")

_PRIMITIVE_KEYS = ("sigma", "f", "f_n", "delta", "L")
_SCHEDULE_KEYS = {
    "constant": ("f_b",),
    "power_bounded": ("f_b0", "kappa", "alpha"),
    "piecewise_linear": ("rho_low", "rho_high", "f_low", "f_high"),
    "hyperbolic": ("f_b0",),
}
_RUN_KEYS = (
    "mode", "rho", "grid", "seed", "out", "svg", "s_points", "f_e0", "f_b_bar", "mc_n",
)


@dataclass(frozen=True)
class GridSpec:
    """A precision grid start:stop:step, endpoints inclusive up to rounding."""

    start: float
    stop: float
    step: float

    def __post_init__(self):
        if not (0.0 < self.start < self.stop < 1.0):
            raise ValidationError(
                f"grid must satisfy 0 < start < stop < 1, got {self.start}:{self.stop}:{self.step}"
            )
        if not self.step > 0.0:
            raise ValidationError(f"grid step must be positive, got {self.step!r}")

    def points(self) -> list[float]:
        out = []
        i = 0
        while True:
            x = self.start + i * self.step
            if x > self.stop + 1e-9 * self.step:
                break
            out.append(x)
            i += 1
        return out

    def __str__(self) -> str:
        return f"{self.start!r}:{self.stop!r}:{self.step!r}"


@dataclass(frozen=True)
class RunConfig:
    """A fully validated run: economy, schedule, and execution parameters."""

    primitives: Primitives
    schedule: CostSchedule
    mode: str = "solve"
    rho: float | None = None
    grid: GridSpec | None = None
    seed: int = 0
    out: str | None = None
    svg: str | None = None
    s_points: int = 41
    f_e0: float | None = None
    f_b_bar: float | None = None
    mc_n: int = 10_000_000

    def __post_init__(self):
        # numpy's generators take no negative seed; a --seed override lands here too
        if self.seed < 0:
            raise ValidationError(f"run.seed must be non-negative, got {self.seed!r}")


@dataclass
class _RawEntry:
    value: str
    line: int
    column: int


def _scan(text: str) -> dict[str, dict[str, _RawEntry]]:
    sections: dict[str, dict[str, _RawEntry]] = {}
    current = None
    saw_content = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped[0] in "#;":
            continue
        saw_content = True
        indent = len(raw) - len(raw.lstrip())
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ParseError("unterminated section header", lineno, indent + 1)
            name = stripped[1:-1].strip()
            if name not in ("primitives", "schedule", "run"):
                raise ParseError(f"unknown section [{name}]", lineno, indent + 1)
            if name in sections:
                raise ParseError(f"duplicate section [{name}]", lineno, indent + 1)
            sections[name] = {}
            current = name
            continue
        if "=" not in stripped:
            raise ParseError("expected 'key = value'", lineno, indent + 1)
        if current is None:
            raise ParseError("key outside any section", lineno, indent + 1)
        key_part, value_part = raw.split("=", 1)
        key = key_part.strip()
        key_col = raw.index(key) + 1 if key else indent + 1
        if not key:
            raise ParseError("empty key", lineno, indent + 1)
        if key in sections[current]:
            raise ParseError(f"duplicate key '{key}' in [{current}]", lineno, key_col)
        sections[current][key] = _RawEntry(value_part.strip(), lineno, key_col)
    if not saw_content:
        raise ParseError("config is empty", 1, 1)
    return sections


def _reject_unknown(section: str, entries: dict[str, _RawEntry], allowed) -> None:
    for key, entry in entries.items():
        if key not in allowed:
            raise ParseError(f"unknown key '{key}' in [{section}]", entry.line, entry.column)


def _required(section: str, entries: dict[str, _RawEntry], key: str) -> _RawEntry:
    if key not in entries:
        raise ValidationError(f"{section}.{key} is required")
    return entries[key]


def _as_float(section: str, key: str, entry: _RawEntry) -> float:
    try:
        return float(entry.value)
    except ValueError:
        raise ParseError(
            f"{section}.{key}: expected a number, got {entry.value!r}", entry.line, entry.column
        ) from None


def _as_int(section: str, key: str, entry: _RawEntry) -> int:
    try:
        return int(entry.value)
    except ValueError:
        raise ParseError(
            f"{section}.{key}: expected an integer, got {entry.value!r}", entry.line, entry.column
        ) from None


def _parse_grid(entry: _RawEntry) -> GridSpec:
    parts = entry.value.split(":")
    if len(parts) != 3:
        raise ParseError(
            f"grid must be start:stop:step, got {entry.value!r}", entry.line, entry.column
        )
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ParseError(
            f"grid components must be numbers, got {entry.value!r}", entry.line, entry.column
        ) from None
    return GridSpec(start, stop, step)


def _build_schedule(entries: dict[str, _RawEntry]) -> CostSchedule:
    kind_entry = _required("schedule", entries, "kind")
    kind = kind_entry.value
    if kind not in _SCHEDULE_KEYS:
        raise ValidationError(
            f"schedule.kind must be one of {sorted(_SCHEDULE_KEYS)}, got {kind!r}"
        )
    _reject_unknown("schedule", entries, ("kind",) + _SCHEDULE_KEYS[kind])
    values = {
        key: _as_float("schedule", key, _required("schedule", entries, key))
        for key in _SCHEDULE_KEYS[kind]
    }
    try:
        if kind == "constant":
            return ConstantCost(values["f_b"])
        if kind == "power_bounded":
            return PowerBoundedCost(values["f_b0"], values["kappa"], values["alpha"])
        if kind == "piecewise_linear":
            return PiecewiseLinearCost(
                values["rho_low"], values["rho_high"], values["f_low"], values["f_high"]
            )
        return HyperbolicCost(values["f_b0"])
    except DomainError as exc:
        raise ValidationError(str(exc)) from None


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a configuration text."""
    sections = _scan(text)

    prim_entries = sections.get("primitives")
    if prim_entries is None:
        raise ValidationError("section [primitives] is required")
    _reject_unknown("primitives", prim_entries, _PRIMITIVE_KEYS)
    prim_values = {
        key: _as_float("primitives", key, _required("primitives", prim_entries, key))
        for key in ("sigma", "f", "f_n", "delta")
    }
    if "L" in prim_entries:
        prim_values["L"] = _as_float("primitives", "L", prim_entries["L"])
    try:
        primitives = Primitives(**prim_values)
    except DomainError as exc:
        raise ValidationError(str(exc)) from None

    sched_entries = sections.get("schedule")
    if sched_entries is None:
        raise ValidationError("section [schedule] is required")
    schedule = _build_schedule(sched_entries)

    run_entries = sections.get("run", {})
    _reject_unknown("run", run_entries, _RUN_KEYS)
    kwargs: dict = {}
    if "mode" in run_entries:
        mode = run_entries["mode"].value
        if mode not in MODES:
            raise ValidationError(f"run.mode must be one of {list(MODES)}, got {mode!r}")
        kwargs["mode"] = mode
    if "rho" in run_entries:
        rho = _as_float("run", "rho", run_entries["rho"])
        if not 0.0 < rho < 1.0:
            raise ValidationError(f"run.rho must lie in (0, 1), got {rho!r}")
        kwargs["rho"] = rho
    if "grid" in run_entries:
        kwargs["grid"] = _parse_grid(run_entries["grid"])
    if "seed" in run_entries:
        kwargs["seed"] = _as_int("run", "seed", run_entries["seed"])
    for key in ("out", "svg"):
        if key in run_entries:
            kwargs[key] = run_entries[key].value
    if "s_points" in run_entries:
        s_points = _as_int("run", "s_points", run_entries["s_points"])
        if s_points < 3:
            raise ValidationError(f"run.s_points must be at least 3, got {s_points!r}")
        kwargs["s_points"] = s_points
    for key in ("f_e0", "f_b_bar"):
        if key in run_entries:
            value = _as_float("run", key, run_entries[key])
            if not value > 0.0:
                raise ValidationError(f"run.{key} must be positive, got {value!r}")
            kwargs[key] = value
    if "mc_n" in run_entries:
        mc_n = _as_int("run", "mc_n", run_entries["mc_n"])
        if mc_n < 1:
            raise ValidationError(f"run.mc_n must be positive, got {mc_n!r}")
        kwargs["mc_n"] = mc_n
    return RunConfig(primitives=primitives, schedule=schedule, **kwargs)


_SCHEDULE_KINDS = {
    ConstantCost: "constant",
    PowerBoundedCost: "power_bounded",
    PiecewiseLinearCost: "piecewise_linear",
    HyperbolicCost: "hyperbolic",
}


def format_config(config: RunConfig) -> str:
    """Render a config as canonical text; parse_config(format_config(c)) == c."""
    prim = config.primitives
    lines = [
        "[primitives]",
        f"sigma = {prim.sigma!r}",
        f"f = {prim.f!r}",
        f"f_n = {prim.f_n!r}",
        f"delta = {prim.delta!r}",
        f"L = {prim.L!r}",
        "",
        "[schedule]",
    ]
    kind = _SCHEDULE_KINDS[type(config.schedule)]
    lines.append(f"kind = {kind}")
    for key in _SCHEDULE_KEYS[kind]:
        lines.append(f"{key} = {getattr(config.schedule, key)!r}")
    lines += ["", "[run]", f"mode = {config.mode}", f"seed = {config.seed}"]
    if config.rho is not None:
        lines.append(f"rho = {config.rho!r}")
    if config.grid is not None:
        lines.append(f"grid = {config.grid}")
    for key in ("out", "svg"):
        value = getattr(config, key)
        if value is not None:
            lines.append(f"{key} = {value}")
    lines.append(f"s_points = {config.s_points}")
    if config.f_e0 is not None:
        lines.append(f"f_e0 = {config.f_e0!r}")
    if config.f_b_bar is not None:
        lines.append(f"f_b_bar = {config.f_b_bar!r}")
    lines.append(f"mc_n = {config.mc_n}")
    return "\n".join(lines) + "\n"


def config_hash(config: RunConfig) -> str:
    """Short stable digest of the run's inputs.

    Output locations are excluded: two runs of the same economy and seed
    carry the same hash regardless of where their files land.
    """
    canonical = replace(config, out=None, svg=None)
    return hashlib.sha256(format_config(canonical).encode("utf-8")).hexdigest()[:16]
