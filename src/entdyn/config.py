"""Run configuration: a flat dotted-key schema shared by all subcommands.

The format is line-oriented ``key = value`` text; ``#`` starts a comment.
Unknown keys, malformed values, and duplicate keys are hard errors naming
the key, so a typo in a physics parameter can never silently fall back to
a default.  ``serialize_config`` emits every setting, and
``parse_config(serialize_config(c))`` reproduces ``c`` exactly.

Protocol settings live under ``protocol.*``; when any of them is given,
``protocol.kind`` must name one of the six dynamical protocols.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .errors import ConfigError
from .experiments import (
    CIRCUIT_SAMPLES,
    DEFAULT_JZ,
    DEFAULT_PREP_T,
    DEFAULT_T_LIST,
    DESK_L,
    DESK_RUNS,
    HEAVY_L,
    HEAVY_RUNS,
    KINDS,
    RQC_DEPTH,
    THERMAL_W,
)
from .io import fmt_float


@dataclass(frozen=True)
class RunConfig:
    L: int = DESK_L
    runs: int = DESK_RUNS
    seed: int = 0
    out: str = "results"
    heavy: bool = False

    protocol_kind: str | None = None
    protocol_W: float | None = None
    protocol_jz: float | None = None
    protocol_alpha: float | None = None
    protocol_beta: float | None = None
    protocol_T0: float = 1.0
    protocol_T1: float = 0.4

    prep_T: float = DEFAULT_PREP_T
    prep_W: float = THERMAL_W
    prep_jz: float = DEFAULT_JZ
    prep_local: bool = False

    T_list: tuple[float, ...] = DEFAULT_T_LIST
    circuit_samples: int = CIRCUIT_SAMPLES
    depth: int = RQC_DEPTH
    record_baee: bool = False

    schedule_t_max: float = 1.0e12

    markov_steps: int = 1_000_000
    markov_burn_in: int = 10_000

    eigensweep_ranks: tuple[int, ...] | None = None

    seen: frozenset = field(default_factory=frozenset, compare=False, repr=False)


def _parse_int(key: str, text: str) -> int:
    try:
        return int(text, 10)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected an integer, got {text!r}", key=key)


def _parse_float(key: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected a number, got {text!r}", key=key)


def _parse_bool(key: str, text: str) -> bool:
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    raise ConfigError(f"key {key!r}: expected true or false, got {text!r}", key=key)


def _parse_str(key: str, text: str) -> str:
    if not text:
        raise ConfigError(f"key {key!r}: empty value", key=key)
    return text


def _parse_floats(key: str, text: str) -> tuple[float, ...]:
    items = [p.strip() for p in text.split(",") if p.strip()]
    if not items:
        raise ConfigError(f"key {key!r}: expected comma-separated numbers", key=key)
    return tuple(_parse_float(key, p) for p in items)


def _parse_ranks(key: str, text: str) -> tuple[int, ...] | None:
    if text.lower() == "auto":
        return None
    items = [p.strip() for p in text.split(",") if p.strip()]
    if not items:
        raise ConfigError(f"key {key!r}: expected comma-separated ranks or auto", key=key)
    return tuple(_parse_int(key, p) for p in items)


def _fmt_floats(xs) -> str:
    return ",".join(map(fmt_float, xs))


def _fmt_ranks(xs) -> str:
    return "auto" if xs is None else ",".join(str(int(x)) for x in xs)


def _fmt_bool(b: bool) -> str:
    return "true" if b else "false"


# key -> (attribute, parser, formatter); registry order is emission order.
_SCHEMA: dict[str, tuple[str, object, object]] = {
    "L": ("L", _parse_int, str),
    "runs": ("runs", _parse_int, str),
    "seed": ("seed", _parse_int, str),
    "out": ("out", _parse_str, str),
    "heavy": ("heavy", _parse_bool, _fmt_bool),
    "protocol.kind": ("protocol_kind", _parse_str, str),
    "protocol.W": ("protocol_W", _parse_float, fmt_float),
    "protocol.jz": ("protocol_jz", _parse_float, fmt_float),
    "protocol.alpha": ("protocol_alpha", _parse_float, fmt_float),
    "protocol.beta": ("protocol_beta", _parse_float, fmt_float),
    "protocol.T0": ("protocol_T0", _parse_float, fmt_float),
    "protocol.T1": ("protocol_T1", _parse_float, fmt_float),
    "prep.T": ("prep_T", _parse_float, fmt_float),
    "prep.W": ("prep_W", _parse_float, fmt_float),
    "prep.jz": ("prep_jz", _parse_float, fmt_float),
    "prep.local": ("prep_local", _parse_bool, _fmt_bool),
    "T_list": ("T_list", _parse_floats, _fmt_floats),
    "circuit_samples": ("circuit_samples", _parse_int, str),
    "depth": ("depth", _parse_int, str),
    "record_baee": ("record_baee", _parse_bool, _fmt_bool),
    "schedule.t_max": ("schedule_t_max", _parse_float, fmt_float),
    "markov.steps": ("markov_steps", _parse_int, str),
    "markov.burn_in": ("markov_burn_in", _parse_int, str),
    "eigensweep.ranks": ("eigensweep_ranks", _parse_ranks, _fmt_ranks),
}

def _validate(cfg: RunConfig) -> RunConfig:
    def bad(key: str, msg: str):
        raise ConfigError(f"key {key!r}: {msg}", key=key)

    if cfg.L < 2 or cfg.L % 2 != 0:
        bad("L", f"must be even and at least 2, got {cfg.L}")
    if cfg.runs < 1:
        bad("runs", f"must be positive, got {cfg.runs}")
    if cfg.seed < 0:
        bad("seed", f"must be nonnegative, got {cfg.seed}")
    if cfg.protocol_kind is not None and cfg.protocol_kind not in KINDS:
        bad("protocol.kind", f"must be one of {KINDS}, got {cfg.protocol_kind!r}")
    for key, attr in (("prep.W", "prep_W"), ("prep.jz", "prep_jz"), ("prep.T", "prep_T")):
        if not math.isfinite(getattr(cfg, attr)):
            bad(key, f"must be finite, got {getattr(cfg, attr)}")
    for key, attr in (("protocol.W", "protocol_W"), ("prep.W", "prep_W")):
        v = getattr(cfg, attr)
        if v is not None and v < 0:
            bad(key, f"must be nonnegative, got {v}")
    if cfg.prep_T < 0:
        bad("prep.T", f"must be nonnegative, got {cfg.prep_T}")
    if not cfg.T_list or any(t < 0 for t in cfg.T_list):
        bad("T_list", "must be nonempty and nonnegative")
    if cfg.circuit_samples < 1:
        bad("circuit_samples", f"must be positive, got {cfg.circuit_samples}")
    if cfg.depth < 1:
        bad("depth", f"must be positive, got {cfg.depth}")
    if not 10 < cfg.schedule_t_max < math.inf:
        bad("schedule.t_max", "must be finite and exceed 10, where the log part starts")
    if cfg.markov_burn_in < 0 or cfg.markov_steps <= cfg.markov_burn_in:
        bad("markov.steps", "need markov.steps > markov.burn_in >= 0")
    if cfg.eigensweep_ranks is not None and any(r < 1 for r in cfg.eigensweep_ranks):
        bad("eigensweep.ranks", "ranks must be positive")
    return cfg


def parse_config(text: str) -> RunConfig:
    """Parse schema text into a validated :class:`RunConfig`."""
    values: dict[str, object] = {}
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}", key=key)
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}", key=key)
        attr, parser, _ = _SCHEMA[key]
        values[attr] = parser(key, val)
        seen.add(key)
    protocol_keys = {k for k in seen if k.startswith("protocol.")}
    if protocol_keys and "protocol.kind" not in seen:
        raise ConfigError(
            "protocol section is missing required key 'protocol.kind'",
            key="protocol.kind",
        )
    cfg = RunConfig(**values, seen=frozenset(seen))
    return _validate(cfg)


def serialize_config(cfg: RunConfig) -> str:
    """Emit the full schema; optional unset keys are omitted.

    With no protocol selected the whole protocol section is dropped, so
    the output always parses back to an equal config.
    """
    lines = []
    for key, (attr, _, fmt) in _SCHEMA.items():
        value = getattr(cfg, attr)
        if value is None:
            continue
        if key.startswith("protocol.") and cfg.protocol_kind is None:
            continue
        lines.append(f"{key} = {fmt(value)}")
    return "\n".join(lines) + "\n"


def with_overrides(cfg: RunConfig, **updates) -> RunConfig:
    """Apply non-None overrides, tracking them as explicitly set."""
    seen = set(cfg.seen)
    changed = {}
    attr_to_key = {attr: key for key, (attr, _, _) in _SCHEMA.items()}
    for attr, value in updates.items():
        if value is None:
            continue
        changed[attr] = value
        seen.add(attr_to_key[attr])
    if not changed:
        return cfg
    return _validate(replace(cfg, **changed, seen=frozenset(seen)))


def resolve_heavy(cfg: RunConfig) -> RunConfig:
    """In heavy mode, unset L and runs jump to the full-scale defaults."""
    if not cfg.heavy:
        return cfg
    updates = {}
    if "L" not in cfg.seen:
        updates["L"] = HEAVY_L
    if "runs" not in cfg.seen:
        updates["runs"] = HEAVY_RUNS
    return with_overrides(cfg, **updates)
