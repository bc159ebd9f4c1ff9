"""Scripted pure-pursuit pilot and trajectory dataset collection.

The expert is stateless: from each drone's world and state it picks a
target gate and steers at it with a proportional heading law. In
corridors the target is the next gate whose plane has not been crossed;
in cluttered rooms it is the gate of the widest-gap heuristic, recomputed
every step, and the fallback when no gap exists is rotating in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import container
from .errors import ContractError, GenerationError, IntegrityError
from .worldsim import (
    FREE,
    GATE,
    OBSTACLE,
    DEFAULT_SIM,
    Drones,
    Flock,
    Record,
    SimConfig,
    View,
    _derive_seed,
    fly,
    spawn_fake_world,
    spawn_real_world,
    virtual_gate,
    wrap_angle,
)

K_OMEGA = 2.0  # heading gain, 1/s
V_NOM = 1.5  # cruise speed, m/s


def next_gate_index(flock: Flock, drones: Drones) -> np.ndarray:
    """Each drone's first corridor gate whose plane is still ahead of it,
    as (B,) indices, with -1 for a drone past every gate."""
    gx, gy, nx, ny = flock.gates
    if len(gx) == 0:
        return np.full(len(drones), -1)
    ahead = (drones.x - gx) * nx + (drones.y - gy) * ny <= 0.0
    return np.where(ahead.any(axis=0), ahead.argmax(axis=0), -1)


def expert_action(flock: Flock, drones: Drones,
                  cfg: SimConfig = DEFAULT_SIM) -> np.ndarray:
    """Pure pursuit toward each drone's current target gate center, as
    (B, 4) command rows for a Flock of one world kind.

    yaw_rate is proportional to the wrapped bearing error and vx follows
    the cosine of that error, floored at zero so the drone never reverses.
    vy and vz stay zero. In a corridor with every gate passed the command
    is zero (hover); in a room with no free gap it is a pure rotation.
    """
    if drones.crashed.any():
        raise ContractError("expert cannot act from a crashed state")
    kinds = {w.kind for w in flock.worlds}
    if kinds == {"fake"}:
        gates = next_gate_index(flock, drones).tolist()
        targets = [None if i < 0 else w.gates[i].center
                   for w, i in zip(flock.worlds, gates)]
        idle = 0.0
    elif kinds == {"real"}:
        targets = [None if g is None else g.center
                   for g in virtual_gate(flock, drones, cfg)]
        idle = cfg.yaw_rate_max
    else:
        raise ContractError(
            f"the expert flies one world kind at a time, not {sorted(kinds)}")
    out = np.zeros((len(drones), 4))
    for row, target, x, y, yaw in zip(out, targets, drones.x.tolist(),
                                      drones.y.tolist(), drones.yaw.tolist()):
        if target is None:
            row[3] = idle
            continue
        # math.atan2 per drone: np.arctan2 rounds differently.
        bearing = math.atan2(target[1] - y, target[0] - x)
        err = wrap_angle(bearing - yaw)
        row[0] = min(max(V_NOM * math.cos(err), 0.0), cfg.v_max)
        row[3] = min(max(K_OMEGA * err, -cfg.yaw_rate_max), cfg.yaw_rate_max)
    return out


# ---------------------------------------------------------------------------
# datasets


@dataclass
class Dataset:
    """Recorded episodes as one Record block, plus their provenance.

    `episodes` reads the block as TrajectorySteps, each built only when it
    is indexed; only perfbench reads it (see Record.episodes).
    """

    record: Record
    world_kind: str
    generator_seed: int
    manifest: dict = field(default_factory=dict)

    @property
    def episodes(self) -> View:
        return self.record.episodes()

    @property
    def total_steps(self) -> int:
        return len(self.record.actions)


def collect_trajectories(
    kind: str,
    n_episodes: int,
    max_steps: int,
    seed: int,
    cfg: SimConfig = DEFAULT_SIM,
    clutter_density: float = 0.4,
) -> Dataset:
    """Fly the expert through seeded worlds and record every step.

    Episodes end at a crash, at max_steps, or (corridors only) once every
    gate is passed. Corridor episodes that end in a crash are rejected and
    respawned with a fresh seed, capped at 10x n_episodes rejections; room
    episodes keep their crashes, since crashing is part of that
    distribution. Worlds are seeded per attempt from (seed, attempt), so
    the same arguments always reproduce the same dataset.

    A first wave that keeps every flight is the dataset's record as it
    flew, with no copy; otherwise the kept episodes are joined in attempt
    order.
    """
    if kind not in ("fake", "real"):
        raise ContractError(f"unknown world kind {kind!r}")
    if n_episodes < 1 or max_steps < 1:
        raise ContractError(
            f"need n_episodes >= 1 and max_steps >= 1, got "
            f"{n_episodes}, {max_steps}"
        )
    if kind == "fake":
        spawn = lambda s: spawn_fake_world(s, cfg)
        done = lambda flock, drones: next_gate_index(flock, drones) < 0
    else:
        spawn = lambda s: spawn_real_world(s, clutter_density, False, cfg)
        done = None
    act = lambda flock, drones, _scans: expert_action(flock, drones, cfg)
    # Each wave flies as many attempts as episodes are still missing, so
    # it can never keep too many; its results are taken in attempt order,
    # which keeps the same episodes and rejection count as one at a time.
    kept: list[Record] = []
    rejections = 0
    attempt = 0
    while len(kept) < n_episodes:
        wave = range(attempt, attempt + n_episodes - len(kept))
        attempt = wave.stop
        worlds = [spawn(_derive_seed(seed, a)) for a in wave]
        flight, ends = fly(worlds, act, max_steps, cfg, done=done)
        for e, end in enumerate(ends):
            if rejections > 10 * n_episodes:
                raise GenerationError(
                    f"rejected {rejections} crashed corridor episodes "
                    f"(budget 10 * {n_episodes}); geometry is too hostile"
                )
            if kind == "fake" and end.crashed:
                rejections += 1
            else:
                kept.append(flight.episode(e))
    record = flight if not rejections else Record.join(kept)
    lengths = np.diff(record.offsets).tolist()
    manifest = {
        "version": 1,
        "world_kind": kind,
        "generator_seed": int(seed),
        "n_episodes": n_episodes,
        "max_steps": max_steps,
        "episode_lengths": lengths,
        "total_steps": sum(lengths),
        "scan_width": cfg.scan_width,
        "clutter_density": clutter_density if kind == "real" else None,
        "n_gates": cfg.n_gates if kind == "fake" else None,
    }
    return Dataset(record, kind, int(seed), manifest)


_FIELDS = ("classes", "depth", "actions", "states")  # a Record's, one record each

# The manifest fields read_dataset reads, each with its type check.
_MANIFEST = {
    "world_kind": lambda v: isinstance(v, str),
    "generator_seed": lambda v: type(v) is int,
    "episode_lengths": lambda v: isinstance(v, list) and all(
        type(n) is int and n >= 0 for n in v),
}


def write_dataset(dataset: Dataset, path) -> None:
    """Serialize into the shared container as the Record lies in memory:
    one record per field over the whole set, with the episode lengths in
    the manifest as its only episode structure."""
    rec = dataset.record
    meta = dict(dataset.manifest)
    meta["kind"] = "dataset"
    meta["world_kind"] = dataset.world_kind
    meta["generator_seed"] = dataset.generator_seed
    meta["episode_lengths"] = np.diff(rec.offsets).tolist()
    container.write_container(
        path, {name: getattr(rec, name) for name in _FIELDS}, meta)


def read_dataset(path) -> Dataset:
    """Inverse of write_dataset; checks that the manifest holds its fields
    with their types, then verifies it against the records: exactly the
    four of them, each of rank 2, sum(episode_lengths) rows, one scan
    width, 4 action and 6 state columns, and class codes 0, 1, 2."""
    records, meta = container.read_container(path)
    if meta.get("kind") != "dataset":
        raise IntegrityError(f"not a dataset container: kind={meta.get('kind')!r}")
    for key, ok in _MANIFEST.items():
        if key not in meta:
            raise IntegrityError(f"dataset manifest missing {key}")
        if not ok(meta[key]):
            raise IntegrityError(
                f"dataset manifest {key} is ill-typed: {meta[key]!r:.80}")
    if set(records) != set(_FIELDS):
        raise IntegrityError(
            f"dataset holds records {sorted(records)!r:.80}, not {list(_FIELDS)}")
    arrays = [records[name] for name in _FIELDS]
    if any(a.ndim != 2 for a in arrays):
        raise IntegrityError(
            f"dataset records of ranks {[a.ndim for a in arrays]}, not 2")
    classes, depth, actions, states = arrays
    lengths = meta["episode_lengths"]
    n, width = sum(lengths), classes.shape[1]
    if [a.shape for a in arrays] != [(n, width), (n, width), (n, 4), (n, 6)]:
        raise IntegrityError(
            f"dataset records of dims {[list(a.shape) for a in arrays]} do not "
            f"hold the manifest's {n} steps of {width}-wide scans, 4 actions "
            "and 6 states")
    if not np.isin(classes, (FREE, GATE, OBSTACLE)).all():
        raise IntegrityError("dataset class codes outside 0, 1, 2")
    record = Record(classes.astype(np.int8), depth, actions, states,
                    np.cumsum([0] + lengths))
    return Dataset(record, meta["world_kind"], meta["generator_seed"], meta)
