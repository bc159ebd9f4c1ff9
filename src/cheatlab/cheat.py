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

The rooms hold no gates. Each target is aimed at the pose's virtual gate,
the widest-gap opening ahead (worldsim.virtual_gate), which is what lets
the transferred policy fly rooms that contain no gates at all.

Pairs are one struct-of-arrays block, Pairs. build_pairs draws rooms in
waves, each through the batch kernels once (gate, real scans, matched
scans) and vae.encode, so each pair keeps the bits it has alone.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, fields

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
    CORRIDOR_MARGIN,
    DEFAULT_SIM,
    FREE,
    GATE,
    OBSTACLE,
    Drones,
    Flock,
    Gate,
    SimConfig,
    WorldSpec,
    _derive_seed,
    render_observation,
    scan_features,
    spawn_real_world,
    start_state,
    virtual_gate,
    wrap_angle,
)

# Rooms per build_pairs wave at most. The gap fan's arrays grow as boxes
# x rooms x rays: a wave of 500 rooms peaks 62 MiB above one of 8, and
# from 8 to 128 rooms build_pairs(..., 500) takes the same time.
_WAVE_ROOMS = 16


@dataclass
class CheatEncoderParams:
    """Dense stack from a flattened observation to a predicted latent."""

    params: ad.ParamSet
    k: int
    hidden: tuple[int, ...]
    width: int


CheatTrainConfig = ad.DenseTrainConfig


@dataclass(frozen=True, eq=False)
class Pairs:
    """Supervision pairs as one struct-of-arrays block, one row per pair.

    `classes` (int8, the codes 0, 1, 2) and `depth` (N, W) hold the real
    scan; `target_mu` (N, k) the frozen encoder's mean for the matched
    corridor; `poses` (N, 4) the pose it was taken from (x, y, z, yaw);
    `gates` (N, 6) the gate it was matched to (center x, y, z, yaw, half
    width, frame thickness). A pose and its gate are enough to rebuild
    the matched scene and recompute the target from scratch.
    """

    classes: np.ndarray
    depth: np.ndarray
    target_mu: np.ndarray
    poses: np.ndarray
    gates: np.ndarray

    def __len__(self) -> int:
        return len(self.target_mu)

    def __getitem__(self, rows) -> Pairs:
        """The pairs at a slice or an index array, as a block of their own."""
        return Pairs(*(getattr(self, f.name)[rows] for f in fields(self)))

    def features(self, rows=slice(None)) -> np.ndarray:
        """Encoder input of the real scans at an index, a slice or an index
        array, as Record.features."""
        return scan_features(self.classes[rows], self.depth[rows])

    def gate(self, i: int) -> Gate:
        x, y, z, yaw, half_width, frame_thickness = self.gates[i].tolist()
        return Gate((x, y, z), yaw, half_width, frame_thickness)


def cheat_init(
    k: int, hidden: tuple[int, ...], seed: int, width: int = 64
) -> CheatEncoderParams:
    """Seeded init matching the autoencoder's: N(0, 1/fan_in), zero biases."""
    params = ad.ParamSet(ad.dense_init("cheat", [2 * width, *hidden, k],
                                       np.random.default_rng(seed)))
    return CheatEncoderParams(params, k, tuple(hidden), width)


def cheat_encode(p: CheatEncoderParams, x: np.ndarray) -> np.ndarray:
    """Predicted corridor-world latents (B, k) for B drones' cluttered-room
    scan features (B, 2W), row b with the bits of drone b's row encoded
    alone (ad.dense_rows).
    """
    return ad.dense_rows(p.params, "cheat", len(p.hidden) + 1,
                         feature_rows(p, x))


# ---------------------------------------------------------------------------
# pair construction


def matched_fake_observation(
    gates: Sequence[Gate], drones: Drones, cfg: SimConfig = DEFAULT_SIM
) -> tuple[np.ndarray, np.ndarray]:
    """Render the training corridors the drones would see heading for
    their gates, drone b for gates[b], as (B, W) class and depth arrays.

    Each scene is a corridor like spawn_fake_world's, laid along the
    gate's facing axis: walls corridor_half_width to either side, the gate
    itself and n_gates - 1 more behind it every gate_spacing. It is built
    in the gate's own frame, so the drone keeps its distance and lateral
    offset from the gate. Its heading error against the corridor axis is
    clamped to start_yaw_max_deg, the widest a corridor flight starts
    with. A virtual gate lies straight down that axis, so it then stays
    inside the scan cone, as the target gate does in nearly every training
    step; an unclamped error of 60 degrees would show a scan full of side
    wall, which no corridor flight ever sees. A drone sits on its virtual
    gate's axis, so the walls widen to keep it 2 * collision_radius inside
    them only where corridor_half_width is narrower than that. All scenes
    render in one batch, each drone as it would alone.
    """
    limit = math.radians(cfg.start_yaw_max_deg)
    scenes = []
    for gate, (x, y, z, yaw) in zip(gates, drones.pose[:4].T.tolist()):
        dx = x - gate.center[0]
        dy = y - gate.center[1]
        c, s = math.cos(gate.yaw), math.sin(gate.yaw)
        along = dx * c + dy * s
        lateral = -dx * s + dy * c
        heading = min(max(wrap_angle(yaw - gate.yaw), -limit), limit)
        corridor = tuple(Gate((i * cfg.gate_spacing, 0.0, gate.center[2]),
                              0.0, gate.half_width, gate.frame_thickness)
                         for i in range(cfg.n_gates))
        half = max(cfg.corridor_half_width,
                   abs(lateral) + 2.0 * cfg.collision_radius)
        bounds = (min(along, 0.0) - CORRIDOR_MARGIN, -half,
                  (cfg.n_gates - 1) * cfg.gate_spacing + cfg.d_max
                  + CORRIDOR_MARGIN, half)
        scenes.append(WorldSpec(kind="fake", bounds=bounds, obstacles=(),
                                gates=corridor, seed=0,
                                start=(along, lateral, z, heading)))
    return render_observation(
        Flock(scenes), Drones.of([start_state(w) for w in scenes]), cfg)


def build_pairs(
    real_seed: int,
    n_poses: int,
    vae: VaeParams,
    density: float = 0.4,
    cfg: SimConfig = DEFAULT_SIM,
) -> Pairs:
    """Collect supervision pairs from seeded gate-free cluttered rooms.

    Each pose is the collision-free start of its own seeded room, so the
    sample stream is deterministic in real_seed and poses never share
    clutter. Each pose is paired with its virtual gate; a pose is rejected
    when no gap is wide enough for one. More than 10x n_poses rejections
    aborts.
    """
    if n_poses < 1:
        raise ContractError(f"n_poses {n_poses} < 1")
    parts = []
    found = attempts = 0
    cap = 10 * n_poses
    while found < n_poses:
        if attempts >= cap:
            raise GenerationError(
                f"rejected too many poses ({attempts} attempts for "
                f"{found}/{n_poses} pairs)"
            )
        # A wave tries no more rooms than pairs are still missing, so it
        # can never keep too many; kept in attempt order, its pairs and
        # rejections are the ones room-by-room pairing would make.
        wave = range(attempts, min(attempts + n_poses - found, cap,
                                   attempts + _WAVE_ROOMS))
        attempts = wave.stop
        worlds = [spawn_real_world(_derive_seed(real_seed, "pair-world", a),
                                   density, cfg=cfg)
                  for a in wave]
        flock = Flock(worlds)
        drones = Drones.of([start_state(w) for w in worlds])
        gates = virtual_gate(flock, drones, cfg)
        keep = np.array([g is not None for g in gates])
        if not keep.any():
            continue
        gates = [g for g in gates if g is not None]
        flock, drones = flock.take(keep), drones.take(keep)
        classes, depth = render_observation(flock, drones, cfg)
        mu, _ = encode(vae, scan_features(
            *matched_fake_observation(gates, drones, cfg)))
        if not np.all(np.isfinite(mu)):
            raise GenerationError("frozen encoder produced a non-finite target")
        parts.append((classes.astype(np.int8), depth, mu, drones.pose[:4].T,
                      np.array([(*g.center, g.yaw, g.half_width,
                                 g.frame_thickness) for g in gates])))
        found += len(gates)
    return Pairs(*(np.concatenate(field) for field in zip(*parts)))


# ---------------------------------------------------------------------------
# training


def cheat_loss(p: CheatEncoderParams, pairs: Pairs) -> float:
    """Mean squared latent error over a pair block (the training objective)."""
    if not len(pairs):
        raise ContractError("no pairs to evaluate")
    pred = cheat_encode(p, pairs.features())
    return float(np.mean((pred - pairs.target_mu) ** 2))


def train_cheat(
    pairs: Pairs,
    frozen: tuple[VaeParams, ControllerParams],
    cfg: CheatTrainConfig = CheatTrainConfig(),
) -> tuple[CheatEncoderParams, list[float], dict[str, str]]:
    """Fit the substitute encoder; everything downstream stays frozen.

    The frozen pair is passed in only so its digests can be recorded
    before training and verified after, turning "we did not touch the
    policy" into a checkable claim. Returns (params, per-epoch mean loss,
    frozen digests).
    """
    if not len(pairs):
        raise ContractError("cannot train on an empty pair block")
    vae, ctrl = frozen
    frozen_digests = lambda: {"vae": container.params_digest(vae.params),
                              "controller": container.params_digest(ctrl.params)}
    digests = frozen_digests()
    if pairs.target_mu.shape[1:] != (vae.k,):
        raise ContractError(
            f"pair targets of dims {list(pairs.target_mu.shape)} do not "
            f"match the frozen encoder's k={vae.k}")
    p = cheat_init(vae.k, cfg.hidden, cfg.seed, pairs.classes.shape[1])
    rng = np.random.default_rng(_derive_seed(cfg.seed, "cheat-train"))
    history = ad.fit_dense(p.params, "cheat", len(p.hidden) + 1,
                           pairs.features, pairs.target_mu, cfg, rng)
    after = frozen_digests()
    if after != digests:
        raise FrozenWeightError(
            "frozen parameters changed during encoder training: "
            f"{digests} -> {after}"
        )
    return p, history, digests


# ---------------------------------------------------------------------------
# persistence


_FIELDS = ("classes", "depth", "target_mu", "poses", "gates")  # a Pairs block's


def write_pairs(path, pairs: Pairs, meta: dict | None = None) -> None:
    """Persist a pair block, one record per field."""
    if not len(pairs):
        raise ContractError("refusing to write an empty pair block")
    info = {
        **(meta or {}),
        "kind": "pairs",
        "count": len(pairs),
        "width": pairs.classes.shape[1],
        "k": pairs.target_mu.shape[1],
    }
    container.write_container(
        path, {name: getattr(pairs, name) for name in _FIELDS}, info)


def read_pairs(path) -> tuple[Pairs, dict]:
    """Inverse of write_pairs; checks that it holds exactly the five
    records, each one's dims against the manifest's count, width and k,
    and the class codes."""
    records, meta = container.read_container(path)
    if meta.get("kind") != "pairs":
        raise IntegrityError(f"not a pair container: kind={meta.get('kind')!r}")
    if set(records) != set(_FIELDS):
        raise IntegrityError(
            f"pair container holds records {sorted(records)!r:.80}, not "
            f"{list(_FIELDS)}")
    arrays = [records[name] for name in _FIELDS]
    count, width, k = (meta.get(key) for key in ("count", "width", "k"))
    want = [(count, width), (count, width), (count, k), (count, 4), (count, 6)]
    if [a.shape for a in arrays] != want:
        raise IntegrityError(
            f"pair records of dims {[list(a.shape) for a in arrays]} do not "
            f"hold {count} pairs of {width}-wide scans, {k} latents, 4 pose "
            "and 6 gate values")
    if not np.isin(arrays[0], (FREE, GATE, OBSTACLE)).all():
        raise IntegrityError("pair class codes outside 0, 1, 2")
    return Pairs(arrays[0].astype(np.int8), *arrays[1:]), meta


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
    container.check_layout(ckpt, ad.dense_layout(
        "cheat", [2 * meta["width"], *meta["hidden"], meta["k"]]))
    return CheatEncoderParams(
        ckpt.params, meta["k"], meta["hidden"], meta["width"]
    )
