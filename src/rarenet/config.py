"""Experiment configuration: a flat key=value text format.

Grammar: one `key=value` pair per line; blank lines and lines starting
with `#` are ignored, and a key may appear only once.  Lists are
comma-separated; `architectures` and `bp1_targets` may not repeat an
item.  Architectures are written `KIND:WIDTH`.
`parse(emit(cfg))` returns an equal config.

Operand statistics are stored width-free: only each operand's lag-1
correlation is configured.  For every boundary target and width, the
batch solves each operand's sigma from that target and the operand's own
rho, at zero mean, so a single config can drive a multi-width batch.
`thresholds` holds exactly one rare-net threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .simulate import RARE_THRESHOLD, check_threshold


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    architectures: tuple[tuple[str, int], ...]
    rho_a: float = 0.99
    rho_b: float = 0.99
    thresholds: tuple[float, ...] = (RARE_THRESHOLD,)
    bp1_targets: tuple[int, ...] = ()
    vectors: int = 10_000
    seed: int = 1
    output_dir: str = "out"

    def __post_init__(self):
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
        v = getattr(cfg, f.name)
        if f.name == "architectures":
            v = ",".join(f"{k}:{w}" for k, w in v)
        elif isinstance(v, tuple):
            v = ",".join(repr(x) if isinstance(x, float) else str(x) for x in v)
        elif isinstance(v, float):
            v = repr(v)
        lines.append(f"{f.name}={v}")
    return "\n".join(lines) + "\n"


def parse_arch(item: str) -> tuple[str, int]:
    """`KIND:WIDTH` -> (upper-case kind, width); `ValueError` if malformed."""
    kind, _, w = item.partition(":")
    return kind.strip().upper(), int(w)


# key -> parser of its value; list-valued keys parse each comma-separated item
_SCALARS = {"rho_a": float, "rho_b": float, "vectors": int, "seed": int,
            "output_dir": str}
_LISTS = {"architectures": parse_arch, "thresholds": float, "bp1_targets": int}


def parse(text: str) -> ExperimentConfig:
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in raw:
            raise ConfigError(f"line {lineno}: key {key!r} given twice")
        raw[key] = value

    unknown = set(raw) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise ConfigError(f"unknown keys: {sorted(unknown)}")
    if "architectures" not in raw:
        raise ConfigError("missing required key: architectures")
    try:
        kwargs = {
            key: (tuple(map(_LISTS[key], filter(None, value.split(","))))
                  if key in _LISTS else _SCALARS[key](value))
            for key, value in raw.items()
        }
    except ValueError as exc:
        raise ConfigError(f"bad value: {exc}") from exc
    return ExperimentConfig(**kwargs)


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return parse(fh.read())


def save_config(cfg: ExperimentConfig, path) -> None:
    with open(path, "w") as fh:
        fh.write(emit(cfg))
