"""Plain-text run configuration.

Grammar: INI-like sections ``[primitives]``, ``[schedule]``, ``[run]`` whose
bodies are ``key = value`` lines; blank lines and lines starting with ``#``
or ``;`` are ignored. Unknown sections or keys are rejected with their
position. The keys of ``[primitives]`` and of each schedule kind are the
fields of the record they build (its ``_fields``; those in
``_field_defaults`` may be omitted); ``[run]`` keys are the rows of one
ordered table of types and defaults, which gives ``RunConfig`` its fields and
which parsing and ``format_config`` walk.

Every ``[run]`` invariant is checked when a ``RunConfig`` is built, so a
parsed config, a flag override applied with ``records.replace`` and a config
built in Python all fail the same way, with a ValidationError naming the
violated ``run.<key>``. ``format_config`` renders a canonical text that
parses back to an equal RunConfig; it writes every number a config file
gives as a float as a float, so an int and the equal float hash alike.
"""

from __future__ import annotations

import hashlib
import math
from collections import namedtuple

from .economy import (
    ConstantCost,
    HyperbolicCost,
    PiecewiseLinearCost,
    PowerBoundedCost,
    Primitives,
)
from .errors import DomainError, ParseError, ValidationError
from .records import Record, replace

MODES = ("solve", "sweep", "optimum", "pigouvian", "limits", "validate")

#: most steps a grid may take, and most transfer points: about 15 s of sweep
MAX_POINTS = 100_000

#: schedule kind -> the record it builds; its fields are the kind's keys
_SCHEDULES = {
    "constant": ConstantCost,
    "power_bounded": PowerBoundedCost,
    "piecewise_linear": PiecewiseLinearCost,
    "hyperbolic": HyperbolicCost,
}


class GridSpec(Record, namedtuple("GridSpec", "start stop step")):
    """A precision grid start:stop:step, endpoints inclusive up to rounding."""

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (0.0 < self.start < self.stop < 1.0):
            raise ValidationError(
                f"grid must satisfy 0 < start < stop < 1, got {self.start}:{self.stop}:{self.step}"
            )
        if not self.step > 0.0:
            raise ValidationError(f"grid step must be positive, got {self.step!r}")
        # a non-finite step makes points() append NaN forever
        if not math.isfinite(self.step) or (self.stop - self.start) / self.step > MAX_POINTS:
            raise ValidationError(
                f"grid step {self.step!r} must be finite and take at most {MAX_POINTS} "
                f"steps from {self.start!r} to {self.stop!r}"
            )
        return self

    @classmethod
    def parse(cls, text: str, line: int | None = None, column: int | None = None) -> GridSpec:
        """A grid from its ``start:stop:step`` text; line and column locate errors."""
        parts = text.split(":")
        if len(parts) != 3:
            raise ParseError(f"grid must be start:stop:step, got {text!r}", line, column)
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError:
            raise ParseError(
                f"grid components must be numbers, got {text!r}", line, column
            ) from None
        return cls(start, stop, step)

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


#: [run] key -> (type, default), in the order ``format_config`` writes the keys
_RUN_KEYS = {
    "mode": (str, "solve"),
    "seed": (int, 0),
    "rho": (float, None),
    "grid": (GridSpec, None),
    "out": (str, None),
    "svg": (str, None),
    "s_points": (int, 41),
    "f_e0": (float, None),
    "f_b_bar": (float, None),
    "mc_n": (int, 10_000_000),
}


class RunConfig(Record, namedtuple(
    "RunConfig", ("primitives", "schedule", *_RUN_KEYS),
    defaults=tuple(default for _, default in _RUN_KEYS.values()),
)):
    """A fully validated run: economy, schedule, and execution parameters.

    The fields after ``primitives`` (a ``Primitives``) and ``schedule`` (a
    record of one of the ``_SCHEDULES`` kinds) are the ``[run]`` keys, of the
    types and with the defaults ``_RUN_KEYS`` gives.
    """

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not isinstance(self.primitives, Primitives):
            raise ValidationError(
                f"primitives must be a Primitives, got {type(self.primitives).__name__}"
            )
        floats = {}
        for key, (kind, _) in _RUN_KEYS.items():
            value = getattr(self, key)
            allowed = (int, float) if kind is float else kind
            if value is not None and (isinstance(value, bool) or not isinstance(value, allowed)):
                raise ValidationError(f"run.{key} must be of type {kind.__name__}, got {value!r}")
            if kind is float and value is not None:
                # stored as a float, so an int and its float write the same text
                floats[key] = float(value)
        self = self._replace(**floats)
        # format_config, and so the provenance hash, can write only these kinds
        if type(self.schedule) not in _SCHEDULES.values():
            raise ValidationError(
                f"schedule must be one of {sorted(_SCHEDULES)}, got {type(self.schedule).__name__}"
            )
        if self.mode not in MODES:
            raise ValidationError(f"run.mode must be one of {list(MODES)}, got {self.mode!r}")
        if self.rho is not None and not 0.0 < self.rho < 1.0:
            raise ValidationError(f"run.rho must lie in (0, 1), got {self.rho!r}")
        # numpy's generators take no negative seed
        if self.seed < 0:
            raise ValidationError(f"run.seed must be non-negative, got {self.seed!r}")
        if self.s_points < 3:
            raise ValidationError(f"run.s_points must be at least 3, got {self.s_points!r}")
        if self.s_points > MAX_POINTS:
            raise ValidationError(
                f"run.s_points must be at most {MAX_POINTS}, got {self.s_points!r}"
            )
        for key in ("f_e0", "f_b_bar"):
            value = getattr(self, key)
            if value is not None and not value > 0.0:
                raise ValidationError(f"run.{key} must be positive, got {value!r}")
        if self.mc_n < 1:
            raise ValidationError(f"run.mc_n must be positive, got {self.mc_n!r}")
        return self


_RawEntry = namedtuple("_RawEntry", "value line column")


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


def _convert(section: str, key: str, entry: _RawEntry, kind):
    """The value of one entry as the type kind: str, int, float or GridSpec."""
    if kind is str:
        return entry.value
    if kind is GridSpec:
        try:
            return GridSpec.parse(entry.value, entry.line, entry.column)
        except ValidationError as exc:
            raise ValidationError(f"{section}.{key}: {exc}") from None
    try:
        return kind(entry.value)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ParseError(
            f"{section}.{key}: expected {noun}, got {entry.value!r}", entry.line, entry.column
        ) from None



def _build(section: str, entries: dict[str, _RawEntry], cls, allowed=()):
    """An instance of the record cls from a section of numeric keys, one per field."""
    _reject_unknown(section, entries, (*allowed, *cls._fields))
    values = {}
    for name in cls._fields:
        if name in entries:
            values[name] = _convert(section, name, entries[name], float)
        elif name not in cls._field_defaults:
            raise ValidationError(f"{section}.{name} is required")
    try:
        return cls(**values)
    except DomainError as exc:
        raise ValidationError(str(exc)) from None


def _section(sections, name: str) -> dict[str, _RawEntry]:
    if name not in sections:
        raise ValidationError(f"section [{name}] is required")
    return sections[name]


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a configuration text."""
    sections = _scan(text)
    primitives = _build("primitives", _section(sections, "primitives"), Primitives)

    sched_entries = _section(sections, "schedule")
    if "kind" not in sched_entries:
        raise ValidationError("schedule.kind is required")
    kind = sched_entries["kind"].value
    if kind not in _SCHEDULES:
        raise ValidationError(f"schedule.kind must be one of {sorted(_SCHEDULES)}, got {kind!r}")
    schedule = _build("schedule", sched_entries, _SCHEDULES[kind], allowed=("kind",))

    run_entries = sections.get("run", {})
    _reject_unknown("run", run_entries, _RUN_KEYS)
    run = {key: _convert("run", key, run_entries[key], kind)
           for key, (kind, _) in _RUN_KEYS.items() if key in run_entries}
    return RunConfig(primitives=primitives, schedule=schedule, **run)


def format_config(config: RunConfig) -> str:
    """Render a config as canonical text; parse_config(format_config(c)) == c."""
    prim, schedule = config.primitives, config.schedule
    kind = next(k for k, cls in _SCHEDULES.items() if type(schedule) is cls)
    lines = ["[primitives]"]
    lines += [f"{name} = {float(value)!r}" for name, value in zip(prim._fields, prim)]
    lines += ["", "[schedule]", f"kind = {kind}"]
    lines += [f"{name} = {float(value)!r}" for name, value in zip(schedule._fields, schedule)]
    lines += ["", "[run]"]
    for key in _RUN_KEYS:
        value = getattr(config, key)
        if value is not None:
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def config_hash(config: RunConfig) -> str:
    """Short stable digest of the run's inputs.

    Output locations are excluded: two runs of the same economy and seed
    carry the same hash regardless of where their files land.
    """
    canonical = replace(config, out=None, svg=None)
    return hashlib.sha256(format_config(canonical).encode("utf-8")).hexdigest()[:16]
