"""Scripted pure-pursuit pilot and trajectory dataset collection.

The expert is stateless: from a world and a state it picks a target gate
and steers at it with a proportional heading law. In corridors the target
is the next gate whose plane has not been crossed; in cluttered rooms it
is the gate of the widest-gap heuristic, recomputed every step, and the
fallback when no gap exists is rotating in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import container
from .errors import ContractError, GenerationError, IntegrityError
from .worldsim import (
    Action,
    DEFAULT_SIM,
    DroneState,
    Observation,
    SimConfig,
    TrajectoryStep,
    WorldSpec,
    _derive_seed,
    fly,
    gate_signed_distance,
    spawn_fake_world,
    spawn_real_world,
    virtual_gate,
    wrap_angle,
)

K_OMEGA = 2.0  # heading gain, 1/s
V_NOM = 1.5  # cruise speed, m/s


def next_gate_index(world: WorldSpec, state: DroneState) -> int | None:
    """First corridor gate whose plane is still ahead of the drone."""
    x, y, _ = state.position
    for i, gate in enumerate(world.gates):
        if gate_signed_distance(gate, x, y) <= 0.0:
            return i
    return None


def expert_action(
    world: WorldSpec,
    state: DroneState,
    cfg: SimConfig = DEFAULT_SIM,
    k_omega: float = K_OMEGA,
    v_nom: float = V_NOM,
) -> Action:
    """Pure pursuit toward the current target gate center.

    yaw_rate is proportional to the wrapped bearing error and vx follows
    the cosine of that error, floored at zero so the drone never reverses.
    vy and vz stay zero. In a corridor with every gate passed the command
    is zero (hover); in a room with no free gap it is a pure rotation.
    """
    if state.crashed:
        raise ContractError("expert cannot act from a crashed state")
    if world.kind == "fake":
        idx = next_gate_index(world, state)
        if idx is None:
            return Action(0.0, 0.0, 0.0, 0.0)
        gate = world.gates[idx]
    else:
        gate = virtual_gate(world, state, cfg)
        if gate is None:
            return Action(0.0, 0.0, 0.0, cfg.yaw_rate_max)
    x, y, _ = state.position
    bearing = math.atan2(gate.center[1] - y, gate.center[0] - x)
    err = wrap_angle(bearing - state.yaw)
    yaw_rate = min(max(k_omega * err, -cfg.yaw_rate_max), cfg.yaw_rate_max)
    vx = min(max(v_nom * math.cos(err), 0.0), cfg.v_max)
    return Action(vx, 0.0, 0.0, yaw_rate)


# ---------------------------------------------------------------------------
# datasets


@dataclass
class Dataset:
    episodes: list[list[TrajectoryStep]]
    world_kind: str
    generator_seed: int
    manifest: dict = field(default_factory=dict)

    @property
    def total_steps(self) -> int:
        return sum(len(ep) for ep in self.episodes)

    def observations(self) -> list[Observation]:
        return [st.observation for ep in self.episodes for st in ep]


def collect_trajectories(
    kind: str,
    n_episodes: int,
    max_steps: int,
    seed: int,
    cfg: SimConfig = DEFAULT_SIM,
    clutter_density: float = 0.4,
    n_gates: int | None = None,
) -> Dataset:
    """Fly the expert through seeded worlds and record every step.

    Episodes end at a crash, at max_steps, or (corridors only) once every
    gate is passed. Corridor episodes that end in a crash are rejected and
    respawned with a fresh seed, capped at 10x n_episodes rejections; room
    episodes keep their crashes, since crashing is part of that
    distribution. Worlds are seeded per attempt from (seed, attempt), so
    the same arguments always reproduce the same dataset.
    """
    if kind not in ("fake", "real"):
        raise ContractError(f"unknown world kind {kind!r}")
    if n_episodes < 1 or max_steps < 1:
        raise ContractError(
            f"need n_episodes >= 1 and max_steps >= 1, got "
            f"{n_episodes}, {max_steps}"
        )
    episodes: list[list[TrajectoryStep]] = []
    rejections = 0
    attempt = 0
    while len(episodes) < n_episodes:
        if rejections > 10 * n_episodes:
            raise GenerationError(
                f"rejected {rejections} crashed corridor episodes "
                f"(budget 10 * {n_episodes}); geometry is too hostile"
            )
        world_seed = _derive_seed(seed, attempt)
        attempt += 1
        if kind == "fake":
            world = spawn_fake_world(world_seed, n_gates, cfg)
        else:
            world = spawn_real_world(world_seed, clutter_density, False, cfg)

        def act(state: DroneState, _obs: Observation) -> Action | None:
            if kind == "fake" and next_gate_index(world, state) is None:
                return None  # corridor complete
            return expert_action(world, state, cfg)

        flight = fly(world, act, max_steps, cfg)
        if kind == "fake" and flight.crashed:
            rejections += 1
            continue
        episodes.append(flight.steps)
    manifest = {
        "version": 1,
        "world_kind": kind,
        "generator_seed": int(seed),
        "n_episodes": n_episodes,
        "max_steps": max_steps,
        "episode_lengths": [len(ep) for ep in episodes],
        "total_steps": sum(len(ep) for ep in episodes),
        "scan_width": cfg.scan_width,
        "clutter_density": clutter_density if kind == "real" else None,
        "n_gates": (n_gates if n_gates is not None else cfg.n_gates)
        if kind == "fake"
        else None,
    }
    return Dataset(episodes, kind, int(seed), manifest)


def write_dataset(dataset: Dataset, path) -> None:
    """Serialize into the shared container: four records per episode."""
    records: dict[str, np.ndarray] = {}
    for i, ep in enumerate(dataset.episodes):
        tag = f"ep{i:05d}"
        records[f"{tag}/classes"] = np.array(
            [st.observation.classes for st in ep], dtype=np.float64
        ).reshape(len(ep), -1)
        records[f"{tag}/depth"] = np.array(
            [st.observation.depth for st in ep]
        ).reshape(len(ep), -1)
        records[f"{tag}/actions"] = np.array(
            [(st.action.vx, st.action.vy, st.action.vz, st.action.yaw_rate)
             for st in ep]
        ).reshape(len(ep), 4)
        records[f"{tag}/states"] = np.array(
            [(*st.state.position, st.state.yaw, st.state.odometer,
              1.0 if st.state.crashed else 0.0)
             for st in ep]
        ).reshape(len(ep), 6)
    meta = dict(dataset.manifest)
    meta["kind"] = "dataset"
    meta["world_kind"] = dataset.world_kind
    meta["generator_seed"] = dataset.generator_seed
    meta["episode_lengths"] = [len(ep) for ep in dataset.episodes]
    container.write_container(path, records, meta)


def read_dataset(path) -> Dataset:
    """Inverse of write_dataset; verifies the manifest against the records."""
    records, meta = container.read_container(path)
    if meta.get("kind") != "dataset":
        raise IntegrityError(f"not a dataset container: kind={meta.get('kind')!r}")
    lengths = meta.get("episode_lengths")
    if lengths is None:
        raise IntegrityError("dataset manifest missing episode_lengths")
    episodes: list[list[TrajectoryStep]] = []
    for i, want in enumerate(lengths):
        tag = f"ep{i:05d}"
        try:
            classes = records[f"{tag}/classes"]
            depth = records[f"{tag}/depth"]
            actions = records[f"{tag}/actions"]
            states = records[f"{tag}/states"]
        except KeyError as err:
            raise IntegrityError(f"dataset missing record {err}") from err
        if not (len(classes) == len(depth) == len(actions) == len(states) == want):
            raise IntegrityError(
                f"episode {i}: manifest says {want} steps, records hold "
                f"{len(classes)}/{len(depth)}/{len(actions)}/{len(states)}"
            )
        steps = []
        for t in range(want):
            obs = Observation(classes[t].astype(np.int64), depth[t])
            act = Action(*map(float, actions[t]))
            x, y, z, yaw, odo, crashed = map(float, states[t])
            steps.append(
                TrajectoryStep(
                    obs, act, DroneState((x, y, z), yaw, odo, crashed >= 0.5)
                )
            )
        episodes.append(steps)
    extra = len(records) - 4 * len(lengths)
    if extra != 0:
        raise IntegrityError(
            f"dataset holds {len(records)} records for {len(lengths)} episodes"
        )
    return Dataset(episodes, meta["world_kind"], meta["generator_seed"], meta)
