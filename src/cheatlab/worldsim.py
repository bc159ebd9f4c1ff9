"""Planar drone worlds: geometry, kinematics, and scanline rendering.

Two world kinds share one simulator. "fake" worlds are walled corridors
along +x holding a row of rectangular gates; "real" worlds are square
cluttered rooms with axis-aligned box obstacles and, normally, no gates.
The drone is a point with a collision radius flying at a clamped altitude;
its only sensor is a 1-D scanline of rays fanned over the heading.

Conventions fixed here and relied on everywhere else:
  - angles in radians, wrapped to (-pi, pi]; yaw 0 points along +x
  - scanline column 0 is the leftmost ray (yaw + fov/2), the last column
    the rightmost; classes are 0 free, 1 gate frame, 2 obstacle or wall
  - depth is 1 - d/d_max clamped to [0, 1]; rays that hit nothing closer
    than d_max report class 0 and depth 0, so class 0 and depth 0 coincide
  - gate frames are two square posts at the ends of the aperture segment,
    modeled as axis-aligned boxes of half-side frame_thickness; posts are
    solid for both rays and collisions, the aperture between them is free
  - world bounds act as solid walls: rays hit them (class 2) and coming
    within collision_radius of them is a crash
  - a crash against a box means entering the box grown by collision_radius
    on every side, an inflated square rather than a rounded one, so off a
    box corner the reach is up to collision_radius * sqrt(2)
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, FormatError

FREE, GATE, OBSTACLE = 0, 1, 2


@dataclass(frozen=True)
class SimConfig:
    """Geometry, sensor, and dynamics defaults shared by both world kinds."""

    scan_width: int = 64
    fov_deg: float = 90.0
    d_max: float = 20.0
    dt: float = 0.05
    v_max: float = 2.0
    yaw_rate_max: float = 1.5
    collision_radius: float = 0.3
    z_min: float = 0.5
    z_max: float = 2.5
    # fake corridor
    n_gates: int = 8
    gate_spacing: float = 4.0
    corridor_half_width: float = 3.0
    gate_half_width: float = 1.4
    frame_thickness: float = 0.15
    gate_offset_max: float = 0.9
    gate_yaw_max_deg: float = 15.0
    start_offset_max: float = 0.5
    start_yaw_max_deg: float = 25.0
    # real room
    room_size: float = 20.0
    max_obstacles: int = 45
    obstacle_min_side: float = 0.6
    obstacle_max_side: float = 2.2
    start_clearance: float = 1.5
    # widest-gap gate heuristic
    d_gate: float = 6.0
    gap_fan_rays: int = 181


DEFAULT_SIM = SimConfig()


@dataclass(frozen=True)
class Gate:
    """A rectangular aperture: center, facing yaw, half width, post size."""

    center: tuple[float, float, float]
    yaw: float
    half_width: float
    frame_thickness: float


@dataclass(frozen=True)
class Obstacle:
    """Axis-aligned box spanning all altitudes."""

    min_x: float
    min_y: float
    max_x: float
    max_y: float


@dataclass(frozen=True)
class WorldSpec:
    kind: str  # "fake" | "real"
    bounds: tuple[float, float, float, float]  # min_x, min_y, max_x, max_y
    obstacles: tuple[Obstacle, ...]
    gates: tuple[Gate, ...]
    seed: int
    start: tuple[float, float, float, float]  # x, y, z, yaw
    # Every solid box (N, 4) and its class code (N,), built once from the
    # fields above by _solid_boxes and read-only from then on.
    boxes: np.ndarray = field(init=False, repr=False, compare=False)
    box_classes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        boxes, classes = _solid_boxes(self)
        boxes.flags.writeable = classes.flags.writeable = False
        object.__setattr__(self, "boxes", boxes)
        object.__setattr__(self, "box_classes", classes)


@dataclass(frozen=True)
class DroneState:
    position: tuple[float, float, float]
    yaw: float
    odometer: float
    crashed: bool


@dataclass(frozen=True)
class Action:
    """Body-frame velocity command; clamped on integration."""

    vx: float
    vy: float
    vz: float
    yaw_rate: float


ZERO_ACTION = Action(0.0, 0.0, 0.0, 0.0)


class Observation:
    """One scanline: per-column class codes and normalized inverse depth."""

    __slots__ = ("classes", "depth")

    def __init__(self, classes: np.ndarray, depth: np.ndarray):
        classes = np.asarray(classes, dtype=np.int64)
        depth = np.asarray(depth, dtype=np.float64)
        if classes.shape != depth.shape or classes.ndim != 1:
            raise ContractError(
                f"observation channels disagree: {list(classes.shape)} vs "
                f"{list(depth.shape)}"
            )
        self.classes = classes
        self.depth = depth

    @property
    def width(self) -> int:
        return int(self.classes.shape[0])

    def features(self) -> np.ndarray:
        """Flatten to 2W floats: class codes rescaled to {0, 0.5, 1},
        then depths. This is the input layout of every dense encoder."""
        return np.concatenate([self.classes * 0.5, self.depth])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Observation):
            return NotImplemented
        return np.array_equal(self.classes, other.classes) and np.array_equal(
            self.depth, other.depth
        )

    def __repr__(self) -> str:
        return f"Observation(width={self.width})"


def wrap_angle(a: float) -> float:
    """Wrap to (-pi, pi]; an angle already in range comes back unchanged,
    so a zero yaw rate leaves the heading bit for bit as it was."""
    if -math.pi < a <= math.pi:
        return a
    out = math.fmod(a + math.pi, 2.0 * math.pi)
    if out <= 0.0:
        out += 2.0 * math.pi
    return out - math.pi


def start_state(world: WorldSpec) -> DroneState:
    """Canonical start: the pose recorded at spawn, odometer zero."""
    x, y, z, yaw = world.start
    return DroneState((x, y, z), yaw, 0.0, False)


# ---------------------------------------------------------------------------
# solid geometry helpers


def _gate_post_boxes(gate: Gate) -> np.ndarray:
    """Two axis-aligned post boxes (2, 4) at the aperture segment ends."""
    cx, cy, _ = gate.center
    ux, uy = -math.sin(gate.yaw), math.cos(gate.yaw)
    t = gate.frame_thickness
    out = np.empty((2, 4))
    for row, sgn in enumerate((1.0, -1.0)):
        px = cx + sgn * gate.half_width * ux
        py = cy + sgn * gate.half_width * uy
        out[row] = (px - t, py - t, px + t, py + t)
    return out


def _solid_boxes(world: WorldSpec) -> tuple[np.ndarray, np.ndarray]:
    """All solid boxes as (N, 4) plus their per-box class codes (N,)."""
    boxes = [np.array([(o.min_x, o.min_y, o.max_x, o.max_y)
                       for o in world.obstacles]).reshape(-1, 4)]
    classes = [np.full(len(world.obstacles), OBSTACLE, dtype=np.int64)]
    for g in world.gates:
        boxes.append(_gate_post_boxes(g))
        classes.append(np.full(2, GATE, dtype=np.int64))
    return np.concatenate(boxes), np.concatenate(classes)


def point_in_collision(world: WorldSpec, x: float, y: float, radius: float) -> bool:
    """True if the point lies within radius of a wall or inside a solid box
    grown by radius on every side. The grown box keeps square corners, so
    off a corner this reaches up to radius * sqrt(2), further than a disc
    of that radius would."""
    bx0, by0, bx1, by1 = world.bounds
    if x < bx0 + radius or x > bx1 - radius:
        return True
    if y < by0 + radius or y > by1 - radius:
        return True
    boxes = world.boxes
    if boxes.size == 0:
        return False
    hit = (
        (x >= boxes[:, 0] - radius)
        & (x <= boxes[:, 2] + radius)
        & (y >= boxes[:, 1] - radius)
        & (y <= boxes[:, 3] + radius)
    )
    return bool(hit.any())


def _cast_rays(
    world: WorldSpec, x: float, y: float, angles: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Distances and class codes for rays from (x, y) along given angles.

    Walls (bounds) and solid boxes compete for the nearest hit. Distances
    are exact; no maximum is applied here.
    """
    dx = np.cos(angles)
    dy = np.sin(angles)
    # Guard exact zeros so the slab method stays finite.
    dx = np.where(np.abs(dx) < 1e-12, 1e-12, dx)
    dy = np.where(np.abs(dy) < 1e-12, 1e-12, dy)

    bx0, by0, bx1, by1 = world.bounds
    tx = np.where(dx > 0, (bx1 - x) / dx, (bx0 - x) / dx)
    ty = np.where(dy > 0, (by1 - y) / dy, (by0 - y) / dy)
    t_wall = np.minimum(tx, ty)

    boxes, box_class = world.boxes, world.box_classes
    if boxes.size:
        inv_x = 1.0 / dx[:, None]
        inv_y = 1.0 / dy[:, None]
        t1 = (boxes[None, :, 0] - x) * inv_x
        t2 = (boxes[None, :, 2] - x) * inv_x
        t3 = (boxes[None, :, 1] - y) * inv_y
        t4 = (boxes[None, :, 3] - y) * inv_y
        t_near = np.maximum(np.minimum(t1, t2), np.minimum(t3, t4))
        t_far = np.minimum(np.maximum(t1, t2), np.maximum(t3, t4))
        ok = (t_near <= t_far) & (t_far > 0.0)
        t_entry = np.where(t_near > 0.0, t_near, 0.0)
        t_entry = np.where(ok, t_entry, np.inf)
        best = np.argmin(t_entry, axis=1)
        t_box = t_entry[np.arange(len(angles)), best]
        cls_box = box_class[best]
    else:
        t_box = np.full(len(angles), np.inf)
        cls_box = np.zeros(len(angles), dtype=np.int64)

    use_box = t_box < t_wall
    dist = np.where(use_box, t_box, t_wall)
    cls = np.where(use_box, cls_box, OBSTACLE)
    return dist, cls


def render_observation(
    world: WorldSpec, state: DroneState, cfg: SimConfig = DEFAULT_SIM
) -> Observation:
    """Render the scanline seen from a state; ignores altitude."""
    x, y, _ = state.position
    fov = math.radians(cfg.fov_deg)
    w = cfg.scan_width
    angles = state.yaw + np.linspace(fov / 2.0, -fov / 2.0, w)
    dist, cls = _cast_rays(world, x, y, angles)
    visible = dist < cfg.d_max
    depth = np.where(visible, np.clip(1.0 - dist / cfg.d_max, 0.0, 1.0), 0.0)
    classes = np.where(visible, cls, FREE)
    return Observation(classes, depth)


# ---------------------------------------------------------------------------
# dynamics


def clamp_action(a: Action, cfg: SimConfig = DEFAULT_SIM) -> Action:
    v, w = cfg.v_max, cfg.yaw_rate_max
    return Action(
        min(max(a.vx, -v), v),
        min(max(a.vy, -v), v),
        min(max(a.vz, -v), v),
        min(max(a.yaw_rate, -w), w),
    )


def step_dynamics(
    world: WorldSpec,
    state: DroneState,
    action: Action,
    dt: float,
    cfg: SimConfig = DEFAULT_SIM,
) -> DroneState:
    """Integrate one step: yaw first, then body-frame planar velocity.

    The altitude is clamped to [z_min, z_max]; the odometer accumulates
    planar displacement only. The returned state is crashed when the new
    position is in collision by point_in_collision's rule: within
    collision_radius of a wall, inside a solid box grown by collision_radius.
    A crashed state must not be stepped again.
    """
    if state.crashed:
        raise ContractError("cannot step a crashed state")
    if not (0.0 < dt <= 0.2):
        raise ContractError(f"dt must lie in (0, 0.2], got {dt}")
    a = clamp_action(action, cfg)
    yaw = wrap_angle(state.yaw + dt * a.yaw_rate)
    c, s = math.cos(yaw), math.sin(yaw)
    dx = dt * (a.vx * c - a.vy * s)
    dy = dt * (a.vx * s + a.vy * c)
    x, y, z = state.position
    x += dx
    y += dy
    z = min(max(z + dt * a.vz, cfg.z_min), cfg.z_max)
    odometer = state.odometer + math.hypot(dx, dy)
    crashed = point_in_collision(world, x, y, cfg.collision_radius)
    return DroneState((x, y, z), yaw, odometer, crashed)


@dataclass
class TrajectoryStep:
    """A state, what was seen there (None if blind), the command given."""

    observation: Observation | None
    action: Action
    state: DroneState


@dataclass
class RolloutResult:
    steps: list[TrajectoryStep]
    final_state: DroneState
    odometer: float
    crashed: bool


def fly(
    world: WorldSpec,
    act: Callable[[DroneState, Observation | None], Action | None],
    max_steps: int,
    cfg: SimConfig = DEFAULT_SIM,
    blind: bool = False,
) -> RolloutResult:
    """Fly one drone from the world's start pose under a flier `act`.

    Each step renders the scan (a blind flier is handed None instead),
    asks act(state, obs) for a command, records it with the state it was
    given from, and steps the dynamics. A None command ends the flight
    with that step unrecorded. Stops at the first crash or after max_steps.
    """
    if max_steps < 1:
        raise ContractError(f"max_steps {max_steps} < 1")
    state = start_state(world)
    steps: list[TrajectoryStep] = []
    for _ in range(max_steps):
        obs = None if blind else render_observation(world, state, cfg)
        action = act(state, obs)
        if action is None:
            break
        steps.append(TrajectoryStep(obs, action, state))
        state = step_dynamics(world, state, action, cfg.dt, cfg)
        if state.crashed:
            break
    return RolloutResult(steps, state, state.odometer, state.crashed)


# ---------------------------------------------------------------------------
# spawning


def _derive_seed(*parts: int | str) -> int:
    """Deterministic 63-bit child seed from mixed int/str parts."""
    ints = []
    for p in parts:
        if isinstance(p, str):
            ints.extend(p.encode("utf-8"))
        else:
            ints.append(int(p) & 0xFFFFFFFFFFFFFFFF)
    ss = np.random.SeedSequence(ints)
    return int(ss.generate_state(1, np.uint64)[0] >> 1)


def spawn_fake_world(
    seed: int, n_gates: int | None = None, cfg: SimConfig = DEFAULT_SIM
) -> WorldSpec:
    """Corridor along +x with evenly spaced gates at seeded offsets.

    Gate i sits at x = (i + 2) * gate_spacing with a lateral offset within
    gate_offset_max and a yaw within gate_yaw_max_deg of the corridor axis,
    so consecutive centers stay at least gate_spacing apart and the start
    pose gets a full extra spacing of runway before the first gate. The
    start pose itself is jittered laterally (start_offset_max) and in
    heading (start_yaw_max_deg), so every flight opens with a seeded
    aim-at-the-gate correction instead of a free straight run. The far
    wall sits a full sensor range past the last gate and therefore never
    shows up in the scan before the corridor is done.
    """
    if n_gates is None:
        n_gates = cfg.n_gates
    if n_gates < 1:
        raise ContractError(f"need at least one gate, got {n_gates}")
    rng = np.random.default_rng(seed)
    gates = []
    yaw_max = math.radians(cfg.gate_yaw_max_deg)
    for i in range(n_gates):
        cx = (i + 2) * cfg.gate_spacing
        cy = rng.uniform(-cfg.gate_offset_max, cfg.gate_offset_max)
        yaw = rng.uniform(-yaw_max, yaw_max)
        gates.append(
            Gate(
                center=(cx, cy, 1.5),
                yaw=yaw,
                half_width=cfg.gate_half_width,
                frame_thickness=cfg.frame_thickness,
            )
        )
    start_y = rng.uniform(-cfg.start_offset_max, cfg.start_offset_max)
    start_yaw = rng.uniform(-1.0, 1.0) * math.radians(cfg.start_yaw_max_deg)
    bounds = (
        -4.0,
        -cfg.corridor_half_width,
        (n_gates + 1) * cfg.gate_spacing + cfg.d_max + 4.0,
        cfg.corridor_half_width,
    )
    return WorldSpec(
        kind="fake",
        bounds=bounds,
        obstacles=(),
        gates=tuple(gates),
        seed=int(seed),
        start=(0.0, start_y, 1.5, start_yaw),
    )


def _disc_overlaps_box(cx, cy, r, box) -> bool:
    qx = min(max(cx, box[0]), box[2])
    qy = min(max(cy, box[1]), box[3])
    return (qx - cx) ** 2 + (qy - cy) ** 2 <= r * r


def spawn_real_world(
    seed: int,
    clutter_density: float = 0.4,
    with_gates: bool = False,
    cfg: SimConfig = DEFAULT_SIM,
) -> WorldSpec:
    """Square room with seeded box clutter and a cleared start pose.

    clutter_density in [0, 1] scales the obstacle count linearly up to
    max_obstacles. Obstacles never intrude into a clearance disc around
    the start, which guarantees a traversable gap of at least twice the
    collision radius from the start pose. With with_gates, gates are
    placed in free gaps found by the widest-gap heuristic at seeded
    probe poses.
    """
    if not (0.0 <= clutter_density <= 1.0):
        raise ContractError(f"density must lie in [0, 1], got {clutter_density}")
    rng = np.random.default_rng(seed)
    size = cfg.room_size
    sx = rng.uniform(0.25 * size, 0.75 * size)
    sy = rng.uniform(0.25 * size, 0.75 * size)
    syaw = rng.uniform(-math.pi, math.pi)
    clearance = cfg.start_clearance + cfg.collision_radius

    n_target = int(round(clutter_density * cfg.max_obstacles))
    obstacles: list[Obstacle] = []
    for _ in range(n_target):
        for _try in range(50):
            cx = rng.uniform(1.0, size - 1.0)
            cy = rng.uniform(1.0, size - 1.0)
            hx = rng.uniform(cfg.obstacle_min_side, cfg.obstacle_max_side) / 2
            hy = rng.uniform(cfg.obstacle_min_side, cfg.obstacle_max_side) / 2
            box = (
                max(cx - hx, 0.0),
                max(cy - hy, 0.0),
                min(cx + hx, size),
                min(cy + hy, size),
            )
            if _disc_overlaps_box(sx, sy, clearance, box):
                continue
            obstacles.append(Obstacle(*box))
            break

    world = WorldSpec(
        kind="real",
        bounds=(0.0, 0.0, size, size),
        obstacles=tuple(obstacles),
        gates=(),
        seed=int(seed),
        start=(sx, sy, 1.5, syaw),
    )
    if not with_gates:
        return world

    gates: list[Gate] = []
    for _probe in range(8):
        for _try in range(20):
            px = rng.uniform(1.0, size - 1.0)
            py = rng.uniform(1.0, size - 1.0)
            pyaw = rng.uniform(-math.pi, math.pi)
            if not point_in_collision(world, px, py, cfg.collision_radius):
                break
        else:
            continue
        g = _widest_gap_gate(world, px, py, pyaw, cfg)
        if g is None:
            continue
        gx, gy, _ = g.center
        margin = g.half_width + g.frame_thickness
        if not (margin <= gx <= size - margin and margin <= gy <= size - margin):
            continue
        if any(
            _disc_overlaps_box(sx, sy, cfg.collision_radius + 0.3, box)
            for box in _gate_post_boxes(g)
        ):
            continue  # posts must never box in the start pose
        if any(
            math.hypot(gx - h.center[0], gy - h.center[1]) < 2.0 for h in gates
        ):
            continue
        gates.append(g)
    return replace(world, gates=tuple(gates))


# ---------------------------------------------------------------------------
# widest-gap virtual gate


def _widest_gap_gate(
    world: WorldSpec, x: float, y: float, yaw: float, cfg: SimConfig
) -> Gate | None:
    """Widest free angular gap in the forward half-plane within d_gate.

    A fan of rays covers [yaw - pi/2, yaw + pi/2]; a direction is free
    when nothing blocks it closer than d_gate. The widest maximal run of
    free directions (first run wins ties) becomes a gate centered d_gate
    out along the run's middle ray, facing along that ray. Returns None
    when no run's chord reaches twice the collision radius.
    """
    m = cfg.gap_fan_rays
    rel = np.linspace(-math.pi / 2.0, math.pi / 2.0, m)
    dist, _ = _cast_rays(world, x, y, yaw + rel)
    free = dist >= cfg.d_gate

    best_start, best_len = -1, 0
    run_start = None
    for i in range(m + 1):
        if i < m and free[i]:
            if run_start is None:
                run_start = i
        elif run_start is not None:
            length = i - run_start
            if length > best_len:
                best_start, best_len = run_start, length
            run_start = None
    if best_len == 0:
        return None
    step = math.pi / (m - 1)
    width = (best_len - 1) * step
    chord = 2.0 * cfg.d_gate * math.sin(width / 2.0)
    if chord <= 2.0 * cfg.collision_radius:
        return None
    mid = best_start + (best_len - 1) // 2
    theta = yaw + rel[mid]
    return Gate(
        center=(x + cfg.d_gate * math.cos(theta),
                y + cfg.d_gate * math.sin(theta),
                1.5),
        yaw=wrap_angle(theta),
        half_width=min(cfg.gate_half_width, chord / 2.0),
        frame_thickness=cfg.frame_thickness,
    )


def virtual_gate(
    world: WorldSpec, state: DroneState, cfg: SimConfig = DEFAULT_SIM
) -> Gate | None:
    """Gate the drone would believe in: widest free gap ahead, or None."""
    if world.kind != "real":
        raise ContractError(f"virtual gates are for real worlds, not {world.kind!r}")
    x, y, _ = state.position
    return _widest_gap_gate(world, x, y, state.yaw, cfg)


# ---------------------------------------------------------------------------
# gate progression


def gate_signed_distance(gate: Gate, x: float, y: float) -> float:
    """Signed distance along the gate normal; negative is the approach side."""
    nx, ny = math.cos(gate.yaw), math.sin(gate.yaw)
    return (x - gate.center[0]) * nx + (y - gate.center[1]) * ny


def gate_crossed(
    gate: Gate, p0: tuple[float, float], p1: tuple[float, float]
) -> bool:
    """True if the segment p0 -> p1 crosses the gate plane inside the
    aperture, moving along the gate normal."""
    s0 = gate_signed_distance(gate, *p0)
    s1 = gate_signed_distance(gate, *p1)
    if not (s0 <= 0.0 < s1):
        return False
    tau = s0 / (s0 - s1)
    cx = p0[0] + tau * (p1[0] - p0[0])
    cy = p0[1] + tau * (p1[1] - p0[1])
    ux, uy = -math.sin(gate.yaw), math.cos(gate.yaw)
    lateral = (cx - gate.center[0]) * ux + (cy - gate.center[1]) * uy
    return abs(lateral) <= gate.half_width


def count_gates_passed(
    world: WorldSpec, positions: Sequence[tuple[float, float]]
) -> int:
    """Number of distinct gates crossed by a polyline of planar positions."""
    passed = 0
    for gate in world.gates:
        for p0, p1 in zip(positions, positions[1:]):
            if gate_crossed(gate, p0, p1):
                passed += 1
                break
    return passed


# ---------------------------------------------------------------------------
# validation and JSON


def validate_world(world: WorldSpec, cfg: SimConfig = DEFAULT_SIM) -> None:
    """Raise ContractError on any structural invariant violation."""
    bx0, by0, bx1, by1 = world.bounds
    if not (bx0 < bx1 and by0 < by1):
        raise ContractError(f"degenerate bounds {world.bounds}")
    if world.kind not in ("fake", "real"):
        raise ContractError(f"unknown world kind {world.kind!r}")
    if world.kind == "fake" and not world.gates:
        raise ContractError("fake worlds must contain gates")
    for o in world.obstacles:
        if not (o.min_x < o.max_x and o.min_y < o.max_y):
            raise ContractError(f"degenerate obstacle {o}")
        if o.min_x < bx0 or o.min_y < by0 or o.max_x > bx1 or o.max_y > by1:
            raise ContractError(f"obstacle {o} leaves bounds {world.bounds}")
    for g in world.gates:
        if g.half_width <= cfg.collision_radius:
            raise ContractError(
                f"gate aperture half width {g.half_width} not passable"
            )
        for box in _gate_post_boxes(g):
            if box[0] < bx0 or box[1] < by0 or box[2] > bx1 or box[3] > by1:
                raise ContractError(f"gate {g} leaves bounds {world.bounds}")
    prev = None
    for g in world.gates:
        if world.kind == "fake":
            if prev is not None:
                gap = math.hypot(
                    g.center[0] - prev.center[0], g.center[1] - prev.center[1]
                )
                if gap < 4.0:
                    raise ContractError(f"gate centers {gap:.2f} m apart (< 4)")
                if g.center[0] <= prev.center[0]:
                    raise ContractError("fake gates must progress along +x")
            prev = g
    sx, sy, sz, _ = world.start
    if point_in_collision(world, sx, sy, cfg.collision_radius):
        raise ContractError("start pose is in collision")
    if not (cfg.z_min <= sz <= cfg.z_max):
        raise ContractError(f"start altitude {sz} outside [{cfg.z_min}, {cfg.z_max}]")


def world_to_json(world: WorldSpec) -> str:
    """Serialize with documented field names; see world_from_json."""
    doc = {
        "kind": world.kind,
        "bounds": list(world.bounds),
        "seed": world.seed,
        "start": list(world.start),
        "obstacles": [
            [o.min_x, o.min_y, o.max_x, o.max_y] for o in world.obstacles
        ],
        "gates": [
            {
                "center": list(g.center),
                "yaw": g.yaw,
                "half_width": g.half_width,
                "frame_thickness": g.frame_thickness,
            }
            for g in world.gates
        ],
    }
    return json.dumps(doc, sort_keys=True)


def world_from_json(text: str) -> WorldSpec:
    try:
        doc = json.loads(text)
        return WorldSpec(
            kind=doc["kind"],
            bounds=tuple(float(v) for v in doc["bounds"]),
            obstacles=tuple(Obstacle(*map(float, o)) for o in doc["obstacles"]),
            gates=tuple(
                Gate(
                    center=tuple(float(v) for v in g["center"]),
                    yaw=float(g["yaw"]),
                    half_width=float(g["half_width"]),
                    frame_thickness=float(g["frame_thickness"]),
                )
                for g in doc["gates"]
            ),
            seed=int(doc["seed"]),
            start=tuple(float(v) for v in doc["start"]),
        )
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as err:
        raise FormatError(f"bad world document: {err}") from err
