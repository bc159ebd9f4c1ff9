"""Planar drone worlds: geometry, kinematics, and scanline rendering.

Two world kinds share one simulator. "fake" worlds are walled corridors
along +x holding a row of rectangular gates; "real" worlds are square
cluttered rooms with axis-aligned box obstacles and, normally, no gates.
The drone is a point with a collision radius flying at a clamped altitude;
its only sensor is a 1-D scanline of rays fanned over the heading. Every
start pose and every gate center sits at one altitude, SPAWN_Z.

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
  - a gate is passable when the straight path through its center along
    its normal clears both grown posts (gate_passable)

Every simulator kernel works on a batch: a Flock (B worlds packed into
NaN-padded box slabs) and Drones (B states as arrays). fly steps one
drone per world in lock-step, with one render, one collision check and
one dynamics step per tick for the whole batch. render_observation,
point_in_collision and virtual_gate also take a single WorldSpec and
DroneState: that is the B = 1 case of the same kernel.
Only operations that round the same at any batch shape are vectorized
(arithmetic, comparisons, min/max, cos/sin, and for the fliers' nets
np.matvec and np.vecmat, which run one gemv per row), so a drone flown
in a batch comes out bit for bit as it would alone. A gemm over the
stacked rows would not: it rounds differently. The dynamics integration
runs per drone on Python floats, and the collision check after it is
batched.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import ContractError

FREE, GATE, OBSTACLE = 0, 1, 2
SPAWN_Z = 1.5  # altitude of every start pose and every gate center
# A corridor's back wall stands this far behind its start pose, and its
# far wall this far past the last gate's sensor range.
CORRIDOR_MARGIN = 4.0


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

    @functools.cached_property
    def flock(self) -> Flock:
        """This world as a batch of one, packed on first use."""
        return Flock([self])


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
        return scan_features(self.classes, self.depth)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Observation):
            return NotImplemented
        return np.array_equal(self.classes, other.classes) and np.array_equal(
            self.depth, other.depth
        )

    def __repr__(self) -> str:
        return f"Observation(width={self.width})"


def scan_features(classes: np.ndarray, depth: np.ndarray) -> np.ndarray:
    """Observation.features along the last axis, so (N, W) scan rows give
    the (N, 2W) encoder input of N observations in one array."""
    return np.concatenate([classes * 0.5, depth], axis=-1)


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


def gate_passable(half_width: float, frame_thickness: float, radius: float,
                  yaw: float) -> bool:
    """True if the straight path through a gate's center along its normal
    clears both posts grown by radius, by point_in_collision's rule.

    Each post is an axis-aligned square of half side frame_thickness at
    half_width along the aperture direction u = (-sin yaw, cos yaw); grown
    by radius, it reaches (frame_thickness + radius) * (|cos yaw| +
    |sin yaw|) toward the path along u. The grown square is closed, so a
    path that only touches its corner is in collision.
    """
    reach = (frame_thickness + radius) * (abs(math.cos(yaw))
                                          + abs(math.sin(yaw)))
    return half_width > reach


def _solid_boxes(world: WorldSpec) -> tuple[np.ndarray, np.ndarray]:
    """A world's solid boxes as (x0, y0, x1, y1) rows: its obstacles
    (N, 4), then its gate posts (2G, 4), each gate's two in turn."""
    return (np.array([(o.min_x, o.min_y, o.max_x, o.max_y)
                      for o in world.obstacles]).reshape(-1, 4),
            np.array([_gate_post_boxes(g) for g in world.gates]).reshape(-1, 4))


# ---------------------------------------------------------------------------
# batches: the form every simulator kernel works on


class Flock:
    """B worlds packed once for a lock-step flight.

    Boxes are slabs: `slabs[a, s, n, b]` is side s (low, high) along axis
    a (x, y) of box n in world b. One subtract and one multiply then give
    a ray's distances to all four edges, and a reduction over boxes runs
    across whole planes. The first `n_obstacles` boxes are obstacles and
    the rest gate posts, each block NaN-padded to the largest count in the
    flock; a NaN pad never stops a ray or a drone. `walls` (2, 2, B) holds
    the bounds in the same axis and side layout. `gates` is (4, G, B),
    NaN-padded: each gate's center x, y and plane normal x, y. `ids`
    holds each world's index in the list the flight started from.
    """

    __slots__ = ("worlds", "ids", "walls", "slabs", "n_obstacles", "gates",
                 "_reach")

    def __init__(self, worlds: Sequence[WorldSpec]):
        obstacles, posts = zip(*(_solid_boxes(w) for w in worlds))
        n = max(len(o) for o in obstacles)
        boxes = np.full((n + max(len(p) for p in posts), len(worlds), 4),
                        np.nan)
        frames = np.full((max(len(w.gates) for w in worlds), len(worlds), 4),
                         np.nan)
        for b, (w, o, p) in enumerate(zip(worlds, obstacles, posts)):
            boxes[: len(o), b] = o
            boxes[n : n + len(p), b] = p
            for j, g in enumerate(w.gates):
                frames[j, b] = (g.center[0], g.center[1],
                                math.cos(g.yaw), math.sin(g.yaw))
        # (x0, y0, x1, y1) columns to [axis][side] planes
        slab = lambda a: np.ascontiguousarray(
            a[..., [0, 2, 1, 3]].reshape(a.shape[:-1] + (2, 2))
            .transpose(-2, -1, *range(a.ndim - 1)))
        self.worlds = list(worlds)
        self.ids = np.arange(len(worlds))
        self.walls = slab(np.array([w.bounds for w in worlds], dtype=float))
        self.slabs = slab(boxes)
        self.n_obstacles = n
        self.gates = np.ascontiguousarray(frames.transpose(2, 0, 1))
        self._reach = {}

    def __len__(self) -> int:
        return len(self.worlds)

    def take(self, keep: np.ndarray) -> Flock:
        """The sub-flock of the worlds where the boolean mask is set."""
        out = object.__new__(Flock)
        out.worlds = [w for w, k in zip(self.worlds, keep.tolist()) if k]
        out.ids, out.walls = self.ids[keep], self.walls[..., keep]
        out.slabs, out.gates = self.slabs[..., keep], self.gates[:, :, keep]
        out.n_obstacles, out._reach = self.n_obstacles, {}
        return out

    def reach(self, radius: float) -> tuple[np.ndarray, ...]:
        """Lowest and highest safe wall coordinates (2, B), then the boxes
        grown by radius as lows and highs (2, N, B); built once per radius."""
        if radius not in self._reach:
            self._reach[radius] = (
                self.walls[:, 0] + radius, self.walls[:, 1] - radius,
                self.slabs[:, 0] - radius, self.slabs[:, 1] + radius)
        return self._reach[radius]


class Drones:
    """B drone states, the batch form of DroneState: `pose` is (5, B),
    rows x, y, z, yaw and odometer, and `crashed` is (B,)."""

    __slots__ = ("pose", "crashed")

    def __init__(self, pose: np.ndarray, crashed: np.ndarray):
        self.pose, self.crashed = pose, crashed

    @classmethod
    def of(cls, states: Sequence[DroneState]) -> Drones:
        pose = np.array([(*s.position, s.yaw, s.odometer) for s in states],
                        dtype=np.float64).T.copy()
        return cls(pose, np.array([bool(s.crashed) for s in states]))

    x = property(lambda self: self.pose[0])
    y = property(lambda self: self.pose[1])
    yaw = property(lambda self: self.pose[3])

    def __len__(self) -> int:
        return len(self.crashed)

    def take(self, keep: np.ndarray) -> Drones:
        return Drones(self.pose[:, keep], self.crashed[keep])

    def states(self) -> list[DroneState]:
        return [DroneState((x, y, z), yaw, odometer, crashed)
                for (x, y, z, yaw, odometer), crashed
                in zip(self.pose.T.tolist(), self.crashed.tolist())]


def _one(world: WorldSpec, state: DroneState) -> tuple[Flock, Drones]:
    """A single world and state as a batch of one."""
    return world.flock, Drones.of([state])


def point_in_collision(world: WorldSpec | Flock, x, y, radius: float):
    """True if the point lies within radius of a wall or inside a solid box
    grown by radius on every side. The grown box keeps square corners, so
    off a corner this reaches up to radius * sqrt(2), further than a disc
    of that radius would.

    Batch form: a Flock with (B,) point arrays gives a (B,) bool array;
    a WorldSpec with one point is its B = 1 case and gives a bool.
    """
    if isinstance(world, WorldSpec):
        return bool(_collides(world.flock, np.array([x], dtype=np.float64),
                              np.array([y], dtype=np.float64), radius)[0])
    return _collides(world, x, y, radius)


def _collides(flock: Flock, x: np.ndarray, y: np.ndarray,
              radius: float) -> np.ndarray:
    wall_lo, wall_hi, box_lo, box_hi = flock.reach(radius)
    p = np.array([x, y])
    out = (p < wall_lo) | (p > wall_hi)
    hit = out[0] | out[1]
    if box_lo.shape[1]:
        q = p[:, None]
        inside = (q >= box_lo) & (q <= box_hi)  # a NaN pad compares False
        hit |= np.logical_or.reduce(inside[0] & inside[1], axis=0)
    return hit


def _cast(walls, slabs, p, angles, n_obstacles=None):
    """Nearest hit along rays at angles (B, R) from points p (2, B).

    Walls (2, 2, B) and solid boxes (2, 2, N, B), both in Flock's slab
    layout, compete for the nearest hit. Returns the exact distances
    (B, R), no maximum applied. Given n_obstacles, the box rows past it
    are gate posts, and the second result (B, R) flags the rays whose
    nearest hit is a gate post (else it is None); argmin over
    obstacle-then-post order picked the same ones, since a tie goes to
    the obstacle. Every step is elementwise or a min, so a drone's rays
    come out the same bits at any B.
    """
    d = np.empty((2,) + angles.shape)
    np.cos(angles, out=d[0])
    np.sin(angles, out=d[1])
    # Guard exact zeros so the slab method stays finite.
    d[np.abs(d) < 1e-12] = 1e-12
    p = p[:, :, None]
    # In a huge room the quotients and products can overflow to inf, which
    # still orders right, so the overflow goes unreported.
    with np.errstate(over="ignore"):
        # A ray leaves the walls through the side it heads for, the later
        # of the two along each axis (the same pick as by the sign of d,
        # since division keeps order), and through the nearer axis.
        t_wall = (walls[..., None] - p[:, None]) / d[:, None]
        t_wall = np.maximum(t_wall[:, 0], t_wall[:, 1], out=t_wall[:, 0])
        t_wall = np.minimum(t_wall[0], t_wall[1], out=t_wall[0])
        if slabs.shape[2] == 0:
            return t_wall, None
        t = (slabs[..., None] - p[:, None, None]) * (1.0 / d)[:, None, None]

    near = np.minimum(t[:, 0], t[:, 1])
    far = np.maximum(t[:, 0], t[:, 1], out=t[:, 0])
    t_near = np.maximum(near[0], near[1], out=near[0])
    t_far = np.minimum(far[0], far[1], out=far[0])
    hit = t_near <= t_far  # never on a NaN pad
    hit &= t_far > 0.0
    # A ray starting inside a box hits it at 0; a miss never.
    np.maximum(t_near, 0.0, out=t_near)
    np.copyto(t_near, np.inf, where=~hit)
    if n_obstacles is None:
        return np.minimum(np.minimum.reduce(t_near, axis=0), t_wall), None
    t_obstacle = np.minimum.reduce(t_near[:n_obstacles], axis=0, initial=np.inf)
    t_post = np.minimum.reduce(t_near[n_obstacles:], axis=0, initial=np.inf)
    t_box = np.minimum(t_obstacle, t_post)
    use_box = t_box < t_wall
    return np.where(use_box, t_box, t_wall), use_box & (t_post < t_obstacle)


@functools.cache
def _fan(first: float, last: float, n: int) -> np.ndarray:
    """n ray offsets from first to last, built once per fan shape."""
    rel = np.linspace(first, last, n)
    rel.flags.writeable = False
    return rel


def render_observation(world: WorldSpec | Flock, state: DroneState | Drones,
                       cfg: SimConfig = DEFAULT_SIM):
    """Render the scanline seen from a state; ignores altitude.

    Batch form: a Flock and Drones render every drone in one ray cast and
    give (classes, depth) as (B, W) arrays; a WorldSpec and a DroneState
    are its B = 1 case and give one Observation.
    """
    if isinstance(world, WorldSpec):
        classes, depth = _render(*_one(world, state), cfg)
        return Observation(classes[0], depth[0])
    return _render(world, state, cfg)


def _render(flock: Flock, drones: Drones,
            cfg: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    fov = math.radians(cfg.fov_deg)
    angles = drones.yaw[:, None] + _fan(fov / 2.0, -fov / 2.0, cfg.scan_width)
    # Post flags only for a flock that has posts: rooms have none.
    posts = flock.slabs.shape[2] > flock.n_obstacles
    dist, post = _cast(flock.walls, flock.slabs, drones.pose[:2], angles,
                       flock.n_obstacles if posts else None)
    visible = dist < cfg.d_max
    # Where nothing is visible, dist >= d_max, so the clamp at 0 gives 0.
    depth = np.minimum(np.maximum(1.0 - dist / cfg.d_max, 0.0), 1.0)
    # GATE is OBSTACLE - 1, so a post hit counts one down from obstacle.
    return visible * (OBSTACLE if post is None else OBSTACLE - post), depth


# ---------------------------------------------------------------------------
# dynamics


def step_dynamics(flock: Flock, drones: Drones, commands: np.ndarray,
                  cfg: SimConfig = DEFAULT_SIM) -> Drones:
    """Integrate one step of cfg.dt for every drone: yaw first, then
    body-frame planar velocity, from (B, 4) command rows (vx, vy, vz,
    yaw_rate).

    The altitude is clamped to [z_min, z_max]; the odometer accumulates
    planar displacement only. A drone of the returned Drones is crashed
    when its new position is in collision by point_in_collision's rule:
    within collision_radius of a wall, inside a solid box grown by
    collision_radius. A crashed drone must not be stepped again; fly
    lands every crashed drone before the next tick.
    """
    dt = cfg.dt
    if not (0.0 < dt <= 0.2):
        raise ContractError(f"dt must lie in (0, 0.2], got {dt}")
    # The integration runs per drone on Python floats, as math.hypot has
    # to (np.hypot rounds differently). At B = 1, where the controller
    # flies, that costs half of what two dozen ufunc calls on (B,) arrays
    # do. The collision check is one batched call.
    v, w = cfg.v_max, cfg.yaw_rate_max
    rows = []
    for (x, y, z, yaw, odometer), (vx, vy, vz, yaw_rate) in zip(
            drones.pose.T.tolist(), commands.tolist()):
        vx, vy = min(max(vx, -v), v), min(max(vy, -v), v)
        yaw = wrap_angle(yaw + dt * min(max(yaw_rate, -w), w))
        c, s = math.cos(yaw), math.sin(yaw)
        dx = dt * (vx * c - vy * s)
        dy = dt * (vx * s + vy * c)
        z = min(max(z + dt * min(max(vz, -v), v), cfg.z_min), cfg.z_max)
        rows.append((x + dx, y + dy, z, yaw, odometer + math.hypot(dx, dy)))
    pose = np.array(rows).T
    crashed = point_in_collision(flock, pose[0], pose[1], cfg.collision_radius)
    return Drones(pose, crashed)


@dataclass
class TrajectoryStep:
    """A state, what was seen there (None if blind), the command given;
    built only by Record.step (see Record.episodes)."""

    observation: Observation | None
    action: Action
    state: DroneState


class View(Sequence):
    """A read-only sequence whose item i is built by item(i) only when it
    is indexed. A slice is a view too. It compares equal to a list, tuple
    or view of equal items. Record.episodes is its one user."""

    __slots__ = ("_len", "_item")

    def __init__(self, n: int, item: Callable):
        self._len, self._item = n, item

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i):
        if isinstance(i, slice):
            picked = range(self._len)[i]
            return View(len(picked), lambda j: self._item(picked[j]))
        return self._item(range(self._len)[i])

    def __eq__(self, other) -> bool:
        if not isinstance(other, (View, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


class Record:
    """Recorded steps as one struct-of-arrays block, episode after episode.

    Row n is one step. `classes` (int8, the codes 0, 1, 2) and `depth`
    (N, W) hold the scan seen there, both None for a blind flight;
    `actions` (N, 4) the command given (vx, vy, vz, yaw_rate); `states`
    (N, 6) the state it was given from (x, y, z, yaw, odometer, and the
    crash flag as 1.0 or 0.0), the layout of a dataset container's
    records. Episode e holds rows offsets[e] to offsets[e + 1]; without
    offsets the block is one episode. `episodes()` reads the block as
    TrajectorySteps, each built only when it is indexed.
    """

    __slots__ = ("classes", "depth", "actions", "states", "offsets")

    def __init__(self, classes, depth, actions, states, offsets=None):
        self.classes, self.depth = classes, depth
        self.actions, self.states = actions, states
        self.offsets = (np.array([0, len(actions)]) if offsets is None
                        else offsets)

    @classmethod
    def join(cls, parts: Sequence[Record]) -> Record:
        """One block holding every part's episodes, in order, copied."""
        base = np.cumsum([0] + [len(p.actions) for p in parts])
        offsets = np.concatenate([[0]] + [p.offsets[1:] + b
                                          for p, b in zip(parts, base)])
        fields = [[getattr(p, k) for p in parts]
                  for k in ("classes", "depth", "actions", "states")]
        return cls(*(None if arrays[0] is None else np.concatenate(arrays)
                     for arrays in fields), offsets)

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, Record):
            return NotImplemented
        return all(a is b if a is None or b is None else np.array_equal(a, b)
                   for a, b in ((getattr(self, k), getattr(other, k))
                                for k in self.__slots__))

    @property
    def width(self) -> int:
        return int(self.classes.shape[1])

    def spans(self) -> list[tuple[int, int]]:
        """Each episode's first and past-the-end row."""
        return list(zip(self.offsets[:-1].tolist(), self.offsets[1:].tolist()))

    def episode(self, e: int) -> Record:
        """Episode e as a one-episode block of views into this one."""
        lo, hi = self.offsets[e : e + 2].tolist()
        cut = lambda a: None if a is None else a[lo:hi]
        return Record(cut(self.classes), cut(self.depth), self.actions[lo:hi],
                      self.states[lo:hi])

    def features(self, rows=slice(None)) -> np.ndarray:
        """Encoder input of the rows at an index, a slice or an index array,
        as scan_features: (2W,) for one row, (n, 2W) for the others. Only
        those rows are built, so a trainer's minibatch holds its own."""
        return scan_features(self.classes[rows], self.depth[rows])

    def step(self, n: int) -> TrajectoryStep:
        """Row n as a TrajectoryStep; the observation views this block."""
        x, y, z, yaw, odometer, crashed = self.states[n].tolist()
        seen = None if self.classes is None else Observation(self.classes[n],
                                                            self.depth[n])
        return TrajectoryStep(seen, Action(*self.actions[n].tolist()),
                              DroneState((x, y, z), yaw, odometer, crashed >= 0.5))

    def episodes(self) -> View:
        """A view of the episodes, each a view of its TrajectorySteps.
        The package reads the arrays, but perfbench's workloads, tracing,
        selftest and sizing read steps through this view (as
        Dataset.episodes and RolloutResult.steps), so it, step, View and
        TrajectoryStep go only with a change to the benchmark."""
        def steps(e: int) -> View:
            lo, hi = self.offsets[e : e + 2].tolist()
            return View(hi - lo, lambda j: self.step(lo + j))
        return View(len(self), steps)


# Rows per world a recording flight's slabs start with, if max_steps is
# more: above any shipped flight's length, and a longer flight re-strides.
_STRIDE = 1024


def _slabs(n_worlds: int, stride: int, width: int,
           old: Sequence[np.ndarray] = ()) -> list[np.ndarray]:
    """Uninitialised classes (int8), depth, actions and states slabs of a
    Record, world-major with `stride` rows per world; each world's rows of
    the `old` slabs, if given, are copied to the head of its own."""
    fresh = [np.empty((n_worlds * stride, cols), dtype) for cols, dtype in (
        (width, np.int8), (width, np.float64), (4, np.float64), (6, np.float64))]
    for slab, into in zip(old, fresh):  # 0-wide slabs have no -1 reshape
        held, cols = len(slab) // n_worlds, into.shape[1]
        into.reshape(n_worlds, stride, cols)[:, :held] = slab.reshape(
            n_worlds, held, cols)
    return fresh


def fly(
    worlds: Sequence[WorldSpec],
    act: Callable[[Flock, Drones, tuple[np.ndarray, np.ndarray] | None],
                  np.ndarray],
    max_steps: int,
    cfg: SimConfig = DEFAULT_SIM,
    blind: bool = False,
    done: Callable[[Flock, Drones], np.ndarray] | None = None,
    record: bool = True,
) -> tuple[Record, list[DroneState]]:
    """Fly one drone per world, all in lock-step, from each start pose.

    Each tick first ends the flight of every drone that done(flock, drones)
    flags, with that tick unrecorded and nothing rendered for it. It then
    renders all live drones' scans in one batch, as (B, W) class and depth
    arrays (a blind flight hands act None instead), asks act(flock,
    drones, scans) for one command row (vx, vy, vz, yaw_rate) per live
    drone, records each with the state it was given from, and steps the
    dynamics. `flock` and `drones` hold the live drones only, in world
    order; `flock.ids` are their indices in `worlds`. A drone stops at its
    first crash (a start pose in collision is one, with no step flown) or
    after max_steps. One world is the B = 1 case, and every drone flies
    exactly as it would alone.

    Returns the flight's Record, where episode i is world i's steps, and
    each drone's end state, in world order. Each Record field is recorded
    into one world-major np.empty slab of stride rows per world: a drone
    live at tick t has recorded t steps, so its row is its id * stride + t.
    stride starts at min(max_steps, _STRIDE) and doubles, capped at
    max_steps, when a drone reaches it. The flight then moves each world's
    rows down to its episode and shrinks each slab in place (ndarray.resize
    with no reference check: no view of a slab is handed out before), so
    it holds its steps about once: collect_trajectories("fake", 24, 600,
    seed=501) peaks at 10.4 MiB under tracemalloc for a 7.39 MiB Record.
    With record=False no slab is allocated and every episode is empty;
    only the end states tell how each flight went.
    """
    if max_steps < 1:
        raise ContractError(f"max_steps {max_steps} < 1")
    if not worlds:
        raise ContractError("no worlds to fly")
    flock = Flock(worlds)
    pose = Drones.of([start_state(w) for w in worlds]).pose
    # A drone whose start pose is already in collision has crashed there.
    drones = Drones(pose, point_in_collision(flock, pose[0], pose[1],
                                             cfg.collision_radius))
    width = 0 if blind else cfg.scan_width  # a blind Record's scans are None
    stride = min(max_steps, _STRIDE) if record else 0
    slabs = _slabs(len(worlds), stride, width)
    ends: list[DroneState | None] = [None] * len(worlds)
    lengths = [0] * len(worlds)

    def land(mask: np.ndarray, t: int) -> None:
        """End the masked drones' flights before tick t."""
        nonlocal flock, drones
        for i, state in zip(flock.ids[mask].tolist(), drones.take(mask).states()):
            ends[i], lengths[i] = state, t if record else 0
        flock, drones = flock.take(~mask), drones.take(~mask)

    for t in range(max_steps):
        if drones.crashed.any():
            land(drones.crashed, t)
        if done is not None and len(drones):
            over = done(flock, drones)
            if over.any():
                land(over, t)
        if not len(drones):
            break
        scans = None if blind else render_observation(flock, drones, cfg)
        commands = np.asarray(act(flock, drones, scans), dtype=np.float64)
        if record:
            if t == stride:  # the longest episode has filled its rows
                stride = min(2 * stride, max_steps)
                slabs = _slabs(len(worlds), stride, width, slabs)
            rows = flock.ids * stride + t
            classes, depth, actions, states = slabs
            if not blind:
                classes[rows], depth[rows] = scans
            actions[rows] = commands
            states[rows, :5] = drones.pose.T
        drones = step_dynamics(flock, drones, commands, cfg)
    land(np.ones(len(drones), dtype=bool), max_steps)
    offsets = np.cumsum([0] + lengths)
    for slab in slabs:
        for i, (lo, n) in enumerate(zip(offsets.tolist(), lengths)):
            if lo < i * stride:
                slab[lo : lo + n] = slab[i * stride : i * stride + n]
        slab.resize((int(offsets[-1]), slab.shape[1]), refcheck=False)
    slabs[3][:, 5] = 0.0  # the crash flag: a crashed drone lands unrecorded
    if blind:
        slabs[:2] = None, None
    return Record(*slabs, offsets), ends


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


def spawn_fake_world(seed: int, cfg: SimConfig = DEFAULT_SIM) -> WorldSpec:
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
                center=(cx, cy, SPAWN_Z),
                yaw=yaw,
                half_width=cfg.gate_half_width,
                frame_thickness=cfg.frame_thickness,
            )
        )
    start_y = rng.uniform(-cfg.start_offset_max, cfg.start_offset_max)
    start_yaw = rng.uniform(-1.0, 1.0) * math.radians(cfg.start_yaw_max_deg)
    bounds = (
        -CORRIDOR_MARGIN,
        -cfg.corridor_half_width,
        (n_gates + 1) * cfg.gate_spacing + cfg.d_max + CORRIDOR_MARGIN,
        cfg.corridor_half_width,
    )
    return WorldSpec(
        kind="fake",
        bounds=bounds,
        obstacles=(),
        gates=tuple(gates),
        seed=int(seed),
        start=(0.0, start_y, SPAWN_Z, start_yaw),
    )


def _disc_overlaps_box(cx, cy, r, box) -> bool:
    dx = min(max(cx, box[0]), box[2]) - cx
    dy = min(max(cy, box[1]), box[3]) - cy
    return dx * dx + dy * dy <= r * r  # a far box overflows to inf, not raises


def _blocks_start(sx, sy, clearance, radius, box) -> bool:
    """True if box intrudes into the disc of `clearance` around the start,
    or if the start lies in the box grown by `radius` on every side, which
    is point_in_collision's square rule and reaches past such a disc off a
    box corner when clearance < radius * sqrt(2)."""
    return _disc_overlaps_box(sx, sy, clearance, box) or (
        box[0] - radius <= sx <= box[2] + radius
        and box[1] - radius <= sy <= box[3] + radius)


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
    collision radius from the start pose, and no box or gate post puts
    the start in collision by point_in_collision's rule. With with_gates,
    gates are placed in free gaps found by the widest-gap heuristic at
    seeded probe poses; a gap gate that is not gate_passable is skipped,
    with no extra draw, so the gates after it keep their places.
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
            if _blocks_start(sx, sy, clearance, cfg.collision_radius, box):
                continue
            obstacles.append(Obstacle(*box))
            break

    world = WorldSpec(
        kind="real",
        bounds=(0.0, 0.0, size, size),
        obstacles=tuple(obstacles),
        gates=(),
        seed=int(seed),
        start=(sx, sy, SPAWN_Z, syaw),
    )
    if not with_gates:
        return world

    flock = world.flock
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
        (g,) = _gap_gates(flock, np.array([[px], [py]]), np.array([pyaw]),
                          cfg)
        if g is None or not gate_passable(g.half_width, g.frame_thickness,
                                          cfg.collision_radius, g.yaw):
            continue
        gx, gy, _ = g.center
        margin = g.half_width + g.frame_thickness
        if not (margin <= gx <= size - margin and margin <= gy <= size - margin):
            continue
        if any(
            _blocks_start(sx, sy, cfg.collision_radius + 0.3,
                          cfg.collision_radius, box)
            # Python floats, which overflow to inf in a huge room unreported
            for box in _gate_post_boxes(g).tolist()
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


# Margin past d_gate inside which a box is kept for the gap fan; it only
# has to exceed the rounding in a slab entry distance (~1e-14 m).
_FAN_MARGIN = 1e-6


def _gap_gates(flock: Flock, p: np.ndarray, yaw: np.ndarray,
               cfg: SimConfig) -> list[Gate | None]:
    """Widest free angular gap in the forward half-plane within d_gate,
    for drones at points p (2, B) heading yaw (B,).

    A fan of rays covers [yaw - pi/2, yaw + pi/2]; a direction is free
    when nothing blocks it closer than d_gate. The widest maximal run of
    free directions (first run wins ties) becomes a gate centered d_gate
    out along the run's middle ray, facing along that ray. Gives None for
    a drone when no run's chord reaches twice the collision radius.
    """
    m = cfg.gap_fan_rays
    rel = _fan(-math.pi / 2.0, math.pi / 2.0, m)
    # A box whose nearest point lies beyond d_gate cannot block a ray
    # closer than d_gate, so dropping it leaves the free mask exact.
    q = p[:, None]
    gap = np.maximum(np.maximum(flock.slabs[:, 0] - q, q - flock.slabs[:, 1]),
                     0.0)
    reach = cfg.d_gate + _FAN_MARGIN
    reach *= reach  # not ** 2, which raises OverflowError at a huge d_gate
    with np.errstate(over="ignore"):  # a huge room's gap squares to inf
        near = gap[0] * gap[0] + gap[1] * gap[1] <= reach
    order = np.argsort(~near, axis=0, kind="stable")[: near.sum(axis=0).max()]
    cols = np.arange(p.shape[1])
    # Contiguous, or every plane the cast builds from it would be strided.
    slabs = np.ascontiguousarray(
        np.where(near[order, cols], flock.slabs[:, :, order, cols], np.nan))
    dist, _ = _cast(flock.walls, slabs, p, yaw[:, None] + rel)
    free = dist >= cfg.d_gate
    # run[i] is the length of the free run ending at ray i (0 if blocked);
    # its first maximum ends the widest run, so the first run wins ties.
    idx = np.arange(m)
    run = idx - np.maximum.accumulate(np.where(free, -1, idx), axis=1)
    ends = run.argmax(axis=1)
    lengths = run[np.arange(len(ends)), ends]
    step = math.pi / (m - 1)
    gates: list[Gate | None] = []
    for xb, yb, yawb, end, length in zip(*p.tolist(), yaw.tolist(),
                                         ends.tolist(), lengths.tolist()):
        width = (length - 1) * step
        chord = 2.0 * cfg.d_gate * math.sin(width / 2.0)
        if length == 0 or chord <= 2.0 * cfg.collision_radius:
            gates.append(None)
            continue
        theta = yawb + rel[end - length + 1 + (length - 1) // 2]
        gates.append(Gate(
            center=(xb + cfg.d_gate * math.cos(theta),
                    yb + cfg.d_gate * math.sin(theta),
                    SPAWN_Z),
            yaw=wrap_angle(theta),
            half_width=min(cfg.gate_half_width, chord / 2.0),
            frame_thickness=cfg.frame_thickness,
        ))
    return gates


def virtual_gate(world: WorldSpec | Flock, state: DroneState | Drones,
                 cfg: SimConfig = DEFAULT_SIM):
    """Gate the drone would believe in: widest free gap ahead, or None.

    Batch form: a Flock and Drones give one Gate or None per drone; a
    WorldSpec and a DroneState are its B = 1 case.
    """
    single = isinstance(world, WorldSpec)
    flock, drones = _one(world, state) if single else (world, state)
    for w in flock.worlds:
        if w.kind != "real":
            raise ContractError(
                f"virtual gates are for real worlds, not {w.kind!r}")
    gates = _gap_gates(flock, drones.pose[:2], drones.yaw, cfg)
    return gates[0] if single else gates


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
# validation


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
        if not gate_passable(g.half_width, g.frame_thickness,
                             cfg.collision_radius, g.yaw):
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
