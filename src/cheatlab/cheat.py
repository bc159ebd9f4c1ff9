"""Substitute perception front-end trained on paired scenes.

Transfer without touching the policy: freeze the autoencoder and the
controller, then train a fresh dense encoder so that cluttered-room
observations map to the latent codes the frozen pipeline expects from
the corridor world it grew up in. Supervision pairs every real-world
rendering with the frozen encoder's posterior mean for a matched scene
that looks like that world: a walled corridor of gates, seen from the
drone's pose relative to the chosen gate, with the heading error held
within the range corridor flights start with. Pairs are taken at the
collision-free start pose of each seeded room.

Two pairing modes exist. gates_visible drops actual gates into the
cluttered rooms and supervises toward the nearest one ahead, so the gate
geometry appears in the real rendering. virtual_gate keeps the rooms
gate-free and aims the target at the widest-gap opening instead, which is
what lets the transferred policy fly rooms that contain no gates at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import container
from .errors import (
    ContractError,
    FrozenWeightError,
    GenerationError,
    IntegrityError,
)
from .policy import ControllerParams
from .vae import VaeParams, encode, feature_rows
from .worldsim import (
    DEFAULT_SIM,
    DroneState,
    Gate,
    Observation,
    SimConfig,
    WorldSpec,
    _derive_seed,
    render_observation,
    spawn_real_world,
    start_state,
    virtual_gate,
    wrap_angle,
)

PAIR_MODES = ("virtual_gate", "gates_visible")


@dataclass
class CheatEncoderParams:
    """Dense stack from a flattened observation to a predicted latent."""

    params: ad.ParamSet
    k: int
    hidden: tuple[int, ...]
    width: int


CheatTrainConfig = ad.DenseTrainConfig


@dataclass(frozen=True)
class PairedSample:
    """One supervision pair plus the pose and gate it was built from.

    pose is (x, y, z, yaw); together with gate it is enough to rebuild
    the matched scene and recompute target_mu from scratch.
    """

    real_obs: Observation
    target_mu: np.ndarray
    pose: tuple[float, float, float, float]
    gate: Gate


def cheat_init(
    k: int, hidden: tuple[int, ...], seed: int, width: int = 64
) -> CheatEncoderParams:
    """Seeded init matching the autoencoder's: N(0, 1/fan_in), zero biases."""
    params = ad.ParamSet()
    ad.dense_init(params, "cheat", [2 * width, *hidden, k],
                  np.random.default_rng(seed))
    return CheatEncoderParams(params, k, tuple(hidden), width)


def cheat_encode(p: CheatEncoderParams,
                 obs: Observation | np.ndarray) -> np.ndarray:
    """Predicted corridor-world latent for a cluttered-room observation.

    Batch form: B drones' scan features (B, 2W) give (B, k) latents, row b
    with the bits of drone b's Observation encoded alone (ad.dense_rows);
    an Observation is its B = 1 case and gives [k].
    """
    z = ad.dense_rows(p.params, "cheat", len(p.hidden) + 1, feature_rows(p, obs))
    return z[0] if isinstance(obs, Observation) else z


# ---------------------------------------------------------------------------
# pair construction


def matched_fake_observation(
    gate: Gate, state: DroneState, cfg: SimConfig = DEFAULT_SIM
) -> Observation:
    """Render the training corridor the drone would see heading for `gate`.

    The scene is a corridor like spawn_fake_world's, laid along the gate's
    facing axis: walls corridor_half_width to either side, the gate itself
    and n_gates - 1 more behind it every gate_spacing. It is built in the
    gate's own frame, so the drone keeps its distance and lateral offset
    from the gate. Its heading error against the corridor axis is clamped
    to start_yaw_max_deg, the widest a corridor flight starts with. A
    virtual gate lies straight down that axis, so it then stays inside the
    scan cone, as the target gate does in nearly every training step; an
    unclamped error of 60 degrees would show a scan full of side wall,
    which no corridor flight ever sees. The walls widen only when the drone
    sits outside them, which placed gates (gates_visible) often cause.
    """
    yaw = gate.yaw
    dx = state.position[0] - gate.center[0]
    dy = state.position[1] - gate.center[1]
    along = dx * math.cos(yaw) + dy * math.sin(yaw)
    lateral = -dx * math.sin(yaw) + dy * math.cos(yaw)
    limit = math.radians(cfg.start_yaw_max_deg)
    heading = min(max(wrap_angle(state.yaw - yaw), -limit), limit)
    gates = tuple(
        Gate((i * cfg.gate_spacing, 0.0, gate.center[2]), 0.0,
             gate.half_width, gate.frame_thickness)
        for i in range(cfg.n_gates)
    )
    half = max(cfg.corridor_half_width, abs(lateral) + 2.0 * cfg.collision_radius)
    bounds = (
        min(along, 0.0) - 4.0,
        -half,
        (cfg.n_gates - 1) * cfg.gate_spacing + cfg.d_max + 4.0,
        half,
    )
    scene = WorldSpec(
        kind="fake",
        bounds=bounds,
        obstacles=(),
        gates=gates,
        seed=0,
        start=(along, lateral, state.position[2], heading),
    )
    return render_observation(scene, start_state(scene), cfg)


def _nearest_forward_gate(
    world: WorldSpec, state: DroneState, cfg: SimConfig
) -> Gate | None:
    """Nearest placed gate inside the scan cone, or None."""
    half_fov = np.deg2rad(cfg.fov_deg) / 2.0
    best = None
    best_dist = np.inf
    for gate in world.gates:
        dx = gate.center[0] - state.position[0]
        dy = gate.center[1] - state.position[1]
        dist = float(np.hypot(dx, dy))
        bearing = wrap_angle(np.arctan2(dy, dx) - state.yaw)
        if dist > cfg.d_max or abs(bearing) > half_fov:
            continue
        if dist < best_dist:
            best, best_dist = gate, dist
    return best


def build_pairs(
    real_seed: int,
    n_poses: int,
    vae: VaeParams,
    mode: str = "virtual_gate",
    density: float = 0.4,
    cfg: SimConfig = DEFAULT_SIM,
) -> list[PairedSample]:
    """Collect supervision pairs from seeded cluttered rooms.

    Each pose is the collision-free start of its own seeded room, so the
    sample stream is deterministic in (real_seed, mode) and poses never
    share clutter. A pose is rejected when no gate qualifies: no gap wide
    enough in virtual_gate mode, or no placed gate inside the scan cone in
    gates_visible mode. More than 10x n_poses rejections aborts.
    """
    if n_poses < 1:
        raise ContractError(f"n_poses {n_poses} < 1")
    if mode not in PAIR_MODES:
        raise ContractError(f"unknown pairing mode {mode!r}")
    pairs: list[PairedSample] = []
    attempts = 0
    cap = 10 * n_poses
    while len(pairs) < n_poses:
        if attempts >= cap:
            raise GenerationError(
                f"rejected too many poses ({attempts} attempts for "
                f"{len(pairs)}/{n_poses} pairs in mode {mode!r})"
            )
        world_seed = _derive_seed(real_seed, "pair-world", attempts)
        attempts += 1
        world = spawn_real_world(
            world_seed, density, cfg=cfg, with_gates=(mode == "gates_visible")
        )
        state = start_state(world)
        if mode == "virtual_gate":
            gate = virtual_gate(world, state, cfg)
        else:
            gate = _nearest_forward_gate(world, state, cfg)
        if gate is None:
            continue
        real_obs = render_observation(world, state, cfg)
        mu, _ = encode(vae, matched_fake_observation(gate, state, cfg))
        if not np.all(np.isfinite(mu)):
            raise GenerationError("frozen encoder produced a non-finite target")
        pose = (state.position[0], state.position[1], state.position[2], state.yaw)
        pairs.append(PairedSample(real_obs, mu, pose, gate))
    return pairs


# ---------------------------------------------------------------------------
# training


def cheat_loss(p: CheatEncoderParams, pairs: list[PairedSample]) -> float:
    """Mean squared latent error over a pair list (the training objective)."""
    if not pairs:
        raise ContractError("no pairs to evaluate")
    x = np.stack([s.real_obs.features() for s in pairs])
    y = np.stack([s.target_mu for s in pairs])
    pred = ad.dense_stack(p.params, "cheat", len(p.hidden) + 1, x)
    return float(np.mean((pred - y) ** 2))


def train_cheat(
    pairs: list[PairedSample],
    frozen: tuple[VaeParams, ControllerParams],
    cfg: CheatTrainConfig = CheatTrainConfig(),
) -> tuple[CheatEncoderParams, list[float], dict[str, str]]:
    """Fit the substitute encoder; everything downstream stays frozen.

    The frozen pair is passed in only so its digests can be recorded
    before training and verified after, turning "we did not touch the
    policy" into a checkable claim. Returns (params, per-epoch mean loss,
    frozen digests).
    """
    if not pairs:
        raise ContractError("cannot train on an empty pair list")
    vae, ctrl = frozen
    digests = {
        "vae": container.params_digest(vae.params),
        "controller": container.params_digest(ctrl.params),
    }
    width = pairs[0].real_obs.width
    for s in pairs:
        if s.real_obs.width != width or s.target_mu.shape != (vae.k,):
            raise ContractError("pair list mixes widths or latent sizes")
    x_all = np.stack([s.real_obs.features() for s in pairs])
    y_all = np.stack([s.target_mu for s in pairs])
    p = cheat_init(vae.k, cfg.hidden, cfg.seed, width)
    rng = np.random.default_rng(_derive_seed(cfg.seed, "cheat-train"))

    def loss_fn(idx, _eps):
        x = ad.constant(x_all[idx])
        pred = ad.dense_stack(p.params, "cheat", len(p.hidden) + 1, x)
        return ad.mse(pred, ad.constant(y_all[idx]))

    history = ad.fit_minibatch(p.params, loss_fn, len(x_all), cfg, rng)
    after = {
        "vae": container.params_digest(vae.params),
        "controller": container.params_digest(ctrl.params),
    }
    if after != digests:
        raise FrozenWeightError(
            "frozen parameters changed during encoder training: "
            f"{digests} -> {after}"
        )
    return p, history, digests


# ---------------------------------------------------------------------------
# persistence


def write_pairs(path, pairs: list[PairedSample], meta: dict | None = None) -> str:
    """Persist a pair list; arrays are stacked across samples."""
    if not pairs:
        raise ContractError("refusing to write an empty pair list")
    k = pairs[0].target_mu.shape[0]
    records = {
        "classes": np.stack([s.real_obs.classes for s in pairs]).astype(np.float64),
        "depth": np.stack([s.real_obs.depth for s in pairs]),
        "target_mu": np.stack([s.target_mu for s in pairs]),
        "poses": np.array([s.pose for s in pairs], dtype=np.float64),
        "gates": np.array(
            [
                (*s.gate.center, s.gate.yaw, s.gate.half_width, s.gate.frame_thickness)
                for s in pairs
            ],
            dtype=np.float64,
        ),
    }
    info = {
        "kind": "pairs",
        "count": len(pairs),
        "width": pairs[0].real_obs.width,
        "k": k,
    }
    info.update(meta or {})
    return container.write_container(path, records, info)


def read_pairs(path) -> tuple[list[PairedSample], dict]:
    records, meta = container.read_container(path)
    if meta.get("kind") != "pairs":
        raise IntegrityError(f"not a pair container: kind={meta.get('kind')!r}")
    needed = ("classes", "depth", "target_mu", "poses", "gates")
    if any(name not in records for name in needed):
        raise IntegrityError("pair container is missing arrays")
    classes = records["classes"]
    count = int(meta.get("count", -1))
    if classes.shape[0] != count:
        raise IntegrityError(
            f"pair count {classes.shape[0]} does not match manifest {count}"
        )
    pairs = []
    for i in range(count):
        obs = Observation(
            classes[i].astype(np.int64), records["depth"][i].copy()
        )
        g = records["gates"][i]
        gate = Gate(
            center=(g[0], g[1], g[2]),
            yaw=g[3],
            half_width=g[4],
            frame_thickness=g[5],
        )
        pairs.append(
            PairedSample(
                obs,
                records["target_mu"][i].copy(),
                tuple(records["poses"][i]),
                gate,
            )
        )
    return pairs, meta


def save_cheat(
    p: CheatEncoderParams,
    path,
    frozen_digests: dict[str, str] | None = None,
    extra_meta: dict | None = None,
) -> str:
    """Checkpoint the encoder; frozen digests ride along in the metadata."""
    meta = {"k": p.k, "hidden": list(p.hidden), "width": p.width}
    if frozen_digests:
        meta["frozen"] = dict(frozen_digests)
    return container.save_checkpoint(path, "cheat", p.params, meta, extra_meta)


def load_cheat(path) -> CheatEncoderParams:
    ckpt = container.load_checkpoint(path, "cheat", {
        "k": container.meta_int, "hidden": container.meta_ints,
        "width": container.meta_int,
    })
    meta = ckpt.metadata
    return CheatEncoderParams(
        ckpt.params, meta["k"], meta["hidden"], meta["width"]
    )
