"""Flat run configuration: defaults, file parsing, and overrides.

One dotted key per tunable default, line-oriented `key = value` files
with '#' comments, and later-wins precedence: built-in defaults, then the
config file, then --set overrides. Validation is total; no stage starts
with a half-checked configuration. A key that sets a dataclass field
takes the field's default, and `RunConfig.section` builds the dataclass
from its keys.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Callable

from .autodiff import DenseTrainConfig
from .errors import ConfigError
from .policy import EvolutionConfig
from .vae import VaeTrainConfig
from .worldsim import (
    CORRIDOR_MARGIN,
    DEFAULT_SIM,
    SPAWN_Z,
    SimConfig,
    gate_passable,
)


def _int(lo=None, hi=None):
    def parse(text: str) -> int:
        value = int(text)
        if lo is not None and value < lo:
            raise ValueError(f"{value} < {lo}")
        if hi is not None and value > hi:
            raise ValueError(f"{value} > {hi}")
        return value

    return parse


def _float(lo=None, hi=None, lo_open=False):
    def parse(text: str) -> float:
        value = float(text)
        if not math.isfinite(value):
            raise ValueError(f"{value} is not finite")
        if lo is not None and (value <= lo if lo_open else value < lo):
            raise ValueError(f"{value} {'<=' if lo_open else '<'} {lo}")
        if hi is not None and value > hi:
            raise ValueError(f"{value} > {hi}")
        return value

    return parse


def _choice(*options: str):
    def parse(text: str) -> str:
        if text not in options:
            raise ValueError(f"expected one of {options}")
        return text

    return parse


def _int_list(n: int | None = None):
    def parse(text: str) -> tuple[int, ...]:
        values = tuple(int(tok) for tok in text.split(",") if tok.strip())
        if not values or any(v < 1 for v in values):
            raise ValueError("needs comma-separated positive integers")
        if n is not None and len(values) != n:
            raise ValueError(f"needs exactly {n} entries")
        return values

    return parse


def _text(text: str) -> str:
    return text


@dataclass(frozen=True)
class _Key:
    default: object
    parse: Callable[[str], object]


_S, _V, _E, _D = DEFAULT_SIM, VaeTrainConfig, EvolutionConfig, DenseTrainConfig

# Every tunable default in the package, one flat key each.
KEYS: dict[str, _Key] = {
    "seed": _Key(0, _int(0)),
    "out_dir": _Key("runs/default", _text),
    # world geometry and dynamics
    "world.scan_width": _Key(_S.scan_width, _int(8, 512)),
    "world.fov_deg": _Key(_S.fov_deg, _float(0, 180, lo_open=True)),
    "world.d_max": _Key(_S.d_max, _float(0, lo_open=True)),
    "world.dt": _Key(_S.dt, _float(0, 0.2, lo_open=True)),
    "world.v_max": _Key(_S.v_max, _float(0, lo_open=True)),
    "world.yaw_rate_max": _Key(_S.yaw_rate_max, _float(0, lo_open=True)),
    "world.collision_radius": _Key(_S.collision_radius, _float(0, lo_open=True)),
    "world.z_min": _Key(_S.z_min, _float(0)),
    "world.z_max": _Key(_S.z_max, _float(0, lo_open=True)),
    "world.n_gates": _Key(_S.n_gates, _int(1)),
    "world.gate_spacing": _Key(_S.gate_spacing, _float(4.0)),
    "world.corridor_half_width": _Key(_S.corridor_half_width, _float(0, lo_open=True)),
    "world.gate_half_width": _Key(_S.gate_half_width, _float(0, lo_open=True)),
    "world.frame_thickness": _Key(_S.frame_thickness, _float(0, lo_open=True)),
    "world.gate_offset_max": _Key(_S.gate_offset_max, _float(0)),
    "world.gate_yaw_max_deg": _Key(_S.gate_yaw_max_deg, _float(0, 60)),
    "world.start_offset_max": _Key(_S.start_offset_max, _float(0)),
    "world.start_yaw_max_deg": _Key(_S.start_yaw_max_deg, _float(0, 90)),
    "world.room_size": _Key(_S.room_size, _float(6.0)),
    "world.max_obstacles": _Key(_S.max_obstacles, _int(0)),
    "world.obstacle_min_side": _Key(_S.obstacle_min_side, _float(0, lo_open=True)),
    "world.obstacle_max_side": _Key(_S.obstacle_max_side, _float(0, lo_open=True)),
    "world.start_clearance": _Key(_S.start_clearance, _float(0)),
    "world.d_gate": _Key(_S.d_gate, _float(0, lo_open=True)),
    "world.gap_fan_rays": _Key(_S.gap_fan_rays, _int(3)),
    # dataset sizes
    "data.vae_episodes": _Key(6, _int(1)),
    "data.vae_max_steps": _Key(400, _int(1)),
    "data.expert_episodes": _Key(24, _int(1)),
    "data.expert_max_steps": _Key(600, _int(1)),
    "data.real_episodes": _Key(30, _int(1)),
    "data.real_max_steps": _Key(400, _int(1)),
    "data.clutter_density": _Key(0.4, _float(0, 1)),
    # autoencoder
    "vae.k": _Key(_V.k, _int(1)),
    "vae.hidden": _Key(_V.hidden, _int_list()),
    "vae.beta": _Key(_V.beta, _float(0)),
    "vae.epochs": _Key(_V.epochs, _int(0)),
    "vae.batch": _Key(_V.batch, _int(1)),
    "vae.lr": _Key(_V.lr, _float(0, lo_open=True)),
    # controller architecture
    "policy.h_dim": _Key(16, _int(1)),
    "policy.mlp_hidden": _Key((32, 16), _int_list(2)),
    # evolution
    "evolve.population": _Key(_E.population, _int(2)),
    "evolve.elites": _Key(_E.elites, _int(1)),
    "evolve.mutation_sigma": _Key(_E.mutation_sigma, _float(0, lo_open=True)),
    "evolve.generations": _Key(_E.generations, _int(1)),
    # substitute encoder
    "cheat.n_poses": _Key(2000, _int(1)),
    "cheat.mode": _Key("virtual_gate", _choice("virtual_gate", "gates_visible")),
    "cheat.density": _Key(0.4, _float(0, 1)),
    "cheat.hidden": _Key(_D.hidden, _int_list()),
    "cheat.epochs": _Key(_D.epochs, _int(0)),
    "cheat.batch": _Key(_D.batch, _int(1)),
    "cheat.lr": _Key(_D.lr, _float(0, lo_open=True)),
    # regression baseline
    "baseline.hidden": _Key(_D.hidden, _int_list()),
    "baseline.epochs": _Key(_D.epochs, _int(0)),
    "baseline.batch": _Key(_D.batch, _int(1)),
    "baseline.lr": _Key(_D.lr, _float(0, lo_open=True)),
    # evaluation suite
    "eval.episodes": _Key(50, _int(1)),
    "eval.density": _Key(0.4, _float(0, 1)),
    "eval.max_steps": _Key(2000, _int(1)),
    "eval.hold_steps": _Key(20, _int(1)),
    # belief strips
    "viz.stride": _Key(25, _int(1)),
    "viz.band_height": _Key(8, _int(1)),
    "viz.max_steps": _Key(400, _int(1)),
}


@dataclass(frozen=True)
class RunConfig:
    """Validated flat key - value map; immutable once loaded."""

    values: dict

    def __getitem__(self, key: str):
        return self.values[key]

    def section(self, prefix: str, cls, **given):
        """cls called with every `prefix.<name>` key that names one of its
        parameters, plus the given arguments (a stage's seed, say)."""
        keys = {name: self.values[f"{prefix}.{name}"]
                for name in inspect.signature(cls).parameters
                if f"{prefix}.{name}" in self.values}
        return cls(**keys, **given)

    def sim(self) -> SimConfig:
        """The SimConfig described by the world.* keys."""
        return self.section("world", SimConfig)

    def dump(self) -> str:
        """Reparseable `key = value` text, one line per key."""
        lines = []
        for key in KEYS:
            lines.append(f"{key} = {_format_value(self.values[key])}")
        return "\n".join(lines) + "\n"


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _apply(values: dict, key: str, raw: str, where: str) -> None:
    if key not in KEYS:
        raise ConfigError(f"unknown key {key!r} ({where})")
    try:
        values[key] = KEYS[key].parse(raw)
    except ValueError as err:
        raise ConfigError(f"bad value for {key!r} ({where}): {err}") from err


def _cross_checks(values: dict) -> None:
    """Rules between keys, so every world the spawners make from an
    accepted config passes worldsim.validate_world."""
    if values["world.z_max"] <= values["world.z_min"]:
        raise ConfigError("world.z_max must exceed world.z_min")
    if not values["world.z_min"] <= SPAWN_Z <= values["world.z_max"]:
        raise ConfigError(
            f"world.z_min and world.z_max must bracket the spawn altitude "
            f"{SPAWN_Z}")
    if values["world.obstacle_max_side"] < values["world.obstacle_min_side"]:
        raise ConfigError(
            "world.obstacle_max_side must be >= world.obstacle_min_side"
        )
    reach = (
        values["world.gate_offset_max"]
        + values["world.gate_half_width"]
        + 2 * values["world.frame_thickness"]
    )
    if reach > values["world.corridor_half_width"]:
        raise ConfigError(
            "gates cannot fit: gate_offset_max + gate_half_width + "
            "2*frame_thickness exceeds corridor_half_width"
        )
    radius = values["world.collision_radius"]
    # A corridor start lies within start_offset_max of the axis, and the
    # crash rule's wall test hits it past corridor_half_width - radius.
    if values["world.start_offset_max"] > (
            values["world.corridor_half_width"] - radius):
        raise ConfigError(
            "a corridor start can be in the wall: world.start_offset_max "
            "exceeds world.corridor_half_width - world.collision_radius")
    # (|cos| + |sin|) peaks at 45 degrees, so a yaw range past it is
    # checked there.
    widest = math.radians(min(values["world.gate_yaw_max_deg"], 45.0))
    if not gate_passable(values["world.gate_half_width"],
                         values["world.frame_thickness"], radius, widest):
        raise ConfigError(
            "gates cannot be passed: world.gate_half_width must exceed "
            "(world.frame_thickness + world.collision_radius) * (|cos| + "
            "|sin|) of the widest world.gate_yaw_max_deg")
    # The corridor start sits at x = 0, CORRIDOR_MARGIN ahead of the back
    # wall and 2 * gate_spacing behind the first gate, whose posts reach
    # gate_half_width * sin(yaw) + frame_thickness along x from its
    # center; the far wall stands d_max + CORRIDOR_MARGIN past the last.
    post_x = values["world.frame_thickness"] + values["world.gate_half_width"] \
        * math.sin(math.radians(values["world.gate_yaw_max_deg"]))
    if (radius > CORRIDOR_MARGIN
            or post_x + radius >= 2 * values["world.gate_spacing"]):
        raise ConfigError(
            f"a corridor start can be in collision: world.collision_radius "
            f"must not exceed {CORRIDOR_MARGIN}, and world.gate_half_width * "
            f"sin(world.gate_yaw_max_deg) + world.frame_thickness + "
            f"world.collision_radius must stay below 2 * world.gate_spacing")
    if post_x > values["world.d_max"] + CORRIDOR_MARGIN:
        raise ConfigError(
            f"the last gate's posts leave the corridor: world.gate_half_width "
            f"* sin(world.gate_yaw_max_deg) + world.frame_thickness exceeds "
            f"world.d_max + {CORRIDOR_MARGIN}")
    clearance = values["world.start_clearance"] + radius
    if clearance > 0.25 * values["world.room_size"]:
        raise ConfigError(
            "start_clearance + collision_radius exceeds a quarter of room_size"
        )
    if values["world.d_gate"] > values["world.d_max"]:
        raise ConfigError("world.d_gate must not exceed world.d_max")
    if values["evolve.elites"] >= values["evolve.population"]:
        raise ConfigError("evolve.elites must be below evolve.population")


def load_config(path=None, overrides: list[str] | None = None) -> RunConfig:
    """Merge defaults, an optional config file, and key=value overrides.

    Later sources win. Any unknown key, unparseable value, or out-of-range
    value raises ConfigError naming the key and where it came from.
    """
    values = {key: spec.default for key, spec in KEYS.items()}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except (OSError, UnicodeDecodeError) as err:
            raise ConfigError(f"cannot read config file {path}: {err}") from err
        for lineno, raw_line in enumerate(lines, start=1):
            line = raw_line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(
                    f"expected 'key = value' (line {lineno}): {line!r}"
                )
            key, raw = (part.strip() for part in line.split("=", 1))
            _apply(values, key, raw, f"line {lineno}")
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        key, raw = (part.strip() for part in item.split("=", 1))
        _apply(values, key, raw, "override")
    _cross_checks(values)
    return RunConfig(values)
