"""Curve config files.

Format: one ``key = value`` per line, arrays in square brackets, ``#``
comments and blank lines ignored. Recognized keys::

    name = mycurve
    dim = 3
    components = [t, t^2/2, t^3/6]
    domain = [-1, 1]
    params.u = 0.5          # optional scalar substitutions, repeatable
    grid.t_steps = 201      # optional (default 201)
    grid.s_steps = 101      # optional (default 101)
    grid.s_range = [-1, 1]  # optional (default [-1, 1])

Component expressions follow the curve expression grammar; expressions
contain no commas, so array elements split safely on commas. Each
``params.<id>`` value is substituted textually for the identifier
``<id>`` inside every component before parsing (so ``u*t`` with
``params.u = 0.5`` becomes ``0.5*t``). Parameter identifiers may not be
``t`` or a function name.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .curves import ExprCurve
from .errors import ConfigError
from .expressions import FUNCTIONS, ParseError

_RESERVED = set(FUNCTIONS) | {"t"}
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


@dataclass
class GridSpec:
    t_steps: int = 201
    s_steps: int = 101
    s_range: tuple = (-1.0, 1.0)


@dataclass
class CurveConfig:
    name: str
    dim: int
    components: tuple  # raw component sources, before substitution
    domain: tuple
    params: dict = field(default_factory=dict)
    grid: GridSpec = field(default_factory=GridSpec)

    @property
    def substituted_components(self) -> tuple:
        return tuple(
            substitute_params(c, self.params) for c in self.components
        )

    def build_curve(self) -> ExprCurve:
        try:
            return ExprCurve.from_sources(
                self.name, self.substituted_components, self.domain
            )
        except ParseError as exc:
            raise ConfigError(f"bad component expression: {exc}") from exc


def _format_value(value: float) -> str:
    value = float(value)
    if value.is_integer():
        return str(int(value))
    return repr(value)


def substitute_params(source: str, params: dict) -> str:
    """Textually substitute scalar parameters into an expression string."""
    out = source
    for name in sorted(params):
        if not _IDENT_RE.match(name) or name in _RESERVED:
            raise ConfigError(f"illegal parameter name {name!r}")
        out = re.sub(
            rf"\b{re.escape(name)}\b", _format_value(params[name]), out
        )
    return out


def _parse_array(text: str, line_no: int) -> list:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ConfigError(f"line {line_no}: expected an array in [...]")
    inner = text[1:-1].strip()
    if not inner:
        return []
    return [item.strip() for item in inner.split(",")]


def _parse_float(text: str, line_no: int, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"line {line_no}: {what} must be a number, got "
                          f"{text!r}") from None


def _parse_int(text: str, line_no: int, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"line {line_no}: {what} must be an integer, got "
                          f"{text!r}") from None


def parse_config(text: str) -> CurveConfig:
    data: dict = {"params": {}, "grid": GridSpec()}
    seen = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in seen:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        seen.add(key)
        if key == "name":
            data["name"] = value
        elif key == "dim":
            data["dim"] = _parse_int(value, line_no, "dim")
        elif key == "components":
            data["components"] = tuple(_parse_array(value, line_no))
        elif key == "domain":
            arr = _parse_array(value, line_no)
            if len(arr) != 2:
                raise ConfigError(f"line {line_no}: domain needs two entries")
            data["domain"] = (
                _parse_float(arr[0], line_no, "domain"),
                _parse_float(arr[1], line_no, "domain"),
            )
        elif key.startswith("params."):
            data["params"][key[len("params."):]] = _parse_float(
                value, line_no, "parameter"
            )
        elif key == "grid.t_steps":
            data["grid"].t_steps = _parse_int(value, line_no, "t_steps")
        elif key == "grid.s_steps":
            data["grid"].s_steps = _parse_int(value, line_no, "s_steps")
        elif key == "grid.s_range":
            arr = _parse_array(value, line_no)
            if len(arr) != 2:
                raise ConfigError(f"line {line_no}: s_range needs two entries")
            data["grid"].s_range = (
                _parse_float(arr[0], line_no, "s_range"),
                _parse_float(arr[1], line_no, "s_range"),
            )
        else:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")

    for required in ("name", "dim", "components", "domain"):
        if required not in data:
            raise ConfigError(f"missing required key {required!r}")
    cfg = CurveConfig(**data)
    if len(cfg.components) != cfg.dim:
        raise ConfigError(
            f"components length ≠ dim ({len(cfg.components)} vs {cfg.dim})"
        )
    if not cfg.domain[0] < cfg.domain[1]:
        raise ConfigError("domain must satisfy t_lo < t_hi")
    if cfg.grid.t_steps < 2 or cfg.grid.s_steps < 2:
        raise ConfigError("grid step counts must be >= 2")
    return cfg


def load_config(path) -> CurveConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)
