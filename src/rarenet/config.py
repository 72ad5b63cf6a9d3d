"""Experiment configuration: a flat key=value text format.

Grammar: one `key=value` pair per line; blank lines and lines starting
with `#` are ignored, and a key may appear only once.  Lists are
comma-separated; an empty value is the empty list, an empty item is an
error, and `architectures` and `bp1_targets` may not repeat an item.
Architectures are written `KIND:WIDTH`.  An integer is ASCII `-?[0-9]+`,
and a number is ASCII text with no `_` that `float` reads.
A config holds each architecture kind as `parse_arch` reads it
(stripped, upper-case), so `parse(emit(cfg))` returns an equal config;
`emit` raises `ConfigError` for a value whose text would not read back
equal (leading or trailing whitespace, a line break, or a kind holding
`,` or `:`).

Operand statistics are stored width-free: only each operand's lag-1
correlation is configured.  For every boundary target and width, the
batch solves each operand's sigma from that target and the operand's own
rho, at zero mean, so a single config can drive a multi-width batch.
`thresholds` holds exactly one rare-net threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .simulate import RARE_THRESHOLD, check_threshold
from .stimulus import DEFAULT_SEED, DEFAULT_VECTORS, integer, number


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    architectures: tuple[tuple[str, int], ...]
    rho_a: float = 0.99
    rho_b: float = 0.99
    thresholds: tuple[float, ...] = (RARE_THRESHOLD,)
    bp1_targets: tuple[int, ...] = ()
    vectors: int = DEFAULT_VECTORS
    seed: int = DEFAULT_SEED
    output_dir: str = "out"

    def __post_init__(self):
        object.__setattr__(self, "architectures", tuple(
            (kind.strip().upper(), width) for kind, width in self.architectures))
        if not self.architectures:
            raise ConfigError("architectures must be non-empty")
        if self.vectors < 2:
            raise ConfigError("vectors must be >= 2")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for key, rho in (("rho_a", self.rho_a), ("rho_b", self.rho_b)):
            # rho = 1 leaves no boundary column to solve sigma from
            if not -1.0 <= rho < 1.0:
                raise ConfigError(f"{key} must be in [-1, 1), got {rho}")
        if len(self.thresholds) != 1:
            raise ConfigError(
                f"thresholds must hold exactly one value, got {self.thresholds}")
        try:
            check_threshold(self.thresholds[0])
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if any(not 0 <= t <= 64 for t in self.bp1_targets):
            raise ConfigError(
                f"bp1_targets must be in 0..64, got {self.bp1_targets}")
        for key in ("architectures", "bp1_targets"):
            items = getattr(self, key)
            if len(set(items)) != len(items):
                raise ConfigError(f"{key} lists an item twice: {items}")


def default_bp1_targets(bit_width: int) -> tuple[int, ...]:
    """Sweep targets that stay representable at zero mean."""
    return tuple(range(bit_width // 2 - 2, bit_width - 2))


def emit(cfg: ExperimentConfig) -> str:
    lines = []
    for f in fields(cfg):
        v = held = getattr(cfg, f.name)
        if f.name == "architectures":
            v = ",".join(f"{k}:{w}" for k, w in v)
        elif isinstance(v, tuple):
            v = ",".join(repr(x) if isinstance(x, float) else str(x) for x in v)
        elif isinstance(v, float):
            v = repr(v)
        line = f"{f.name}={v}"
        try:  # each line reads back alone, as `parse` reads it
            same = (len(line.splitlines()) == 1
                    and _value(f.name, line.split("=", 1)[1].strip()) == held)
        except ValueError:
            same = False
        if not same:
            raise ConfigError(f"{f.name} {held!r} cannot be read back from "
                              f"its text {line!r}")
        lines.append(line)
    return "\n".join(lines) + "\n"


def parse_arch(item: str) -> tuple[str, int]:
    """`KIND:WIDTH` -> (upper-case kind, width); `ValueError` if malformed."""
    kind, _, w = item.partition(":")
    try:
        return kind.strip().upper(), integer(w)
    except ValueError:
        raise ValueError(f"{item!r} is not KIND:WIDTH") from None


# key -> parser of its value; a list key parses each comma-separated item
_PARSERS = {"architectures": parse_arch, "thresholds": number,
            "bp1_targets": integer, "rho_a": number, "rho_b": number,
            "vectors": integer, "seed": integer, "output_dir": str}
_LISTS = ("architectures", "thresholds", "bp1_targets")


def _value(key: str, text: str):
    """The value of `key` read from its stripped text; `ValueError` if
    malformed."""
    items = [i.strip() for i in text.split(",")] if text else []
    if key in _LISTS and "" in items:
        raise ValueError(f"{text!r} has an empty item")
    return (tuple(map(_PARSERS[key], items)) if key in _LISTS
            else _PARSERS[key](text))


def parse(text: str) -> ExperimentConfig:
    raw: dict[str, tuple[int, str]] = {}  # key -> (line number, value)
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in raw:
            raise ConfigError(f"line {lineno}: key {key!r} given twice")
        raw[key] = lineno, value

    unknown = set(raw) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise ConfigError(f"unknown keys: {sorted(unknown)}")
    if "architectures" not in raw:
        raise ConfigError("missing required key: architectures")
    kwargs = {}
    for key, (lineno, value) in raw.items():
        try:
            kwargs[key] = _value(key, value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {key}: {exc}") from exc
    return ExperimentConfig(**kwargs)


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return parse(fh.read())


def save_config(cfg: ExperimentConfig, path) -> None:
    text = emit(cfg)  # a config it cannot write leaves no file
    with open(path, "w") as fh:
        fh.write(text)
