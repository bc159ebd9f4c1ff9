"""Simulator tests: analytic ray geometry, dynamics, spawning, invariants."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from cheatlab import worldsim as ws
from cheatlab.config import load_config
from cheatlab.errors import ConfigError, ContractError

CFG = ws.DEFAULT_SIM


def empty_room(size=40.0, start=(0.0, 0.0, 1.5, 0.0)):
    return ws.WorldSpec(
        kind="real",
        bounds=(-size, -size, size, size),
        obstacles=(),
        gates=(),
        seed=0,
        start=start,
    )


def room_with(obstacles, size=40.0, start=(0.0, 0.0, 1.5, 0.0)):
    return ws.WorldSpec(
        kind="real",
        bounds=(-size, -size, size, size),
        obstacles=tuple(ws.Obstacle(*b) for b in obstacles),
        gates=(),
        seed=0,
        start=start,
    )


# ---------------------------------------------------------------------------
# rendering


def test_scanline_against_closed_form_wall():
    # A slab at x = 5 spanning the whole fan: each column's distance is
    # exactly 5 / cos(angle), an independent closed-form oracle.
    world = room_with([(5.0, -40.0, 6.0, 40.0)])
    obs = ws.render_observation(world, ws.start_state(world), CFG)
    fov = math.radians(CFG.fov_deg)
    angles = np.linspace(fov / 2, -fov / 2, CFG.scan_width)
    want_d = 5.0 / np.cos(angles)
    want_depth = 1.0 - want_d / CFG.d_max
    assert np.all(obs.classes == ws.OBSTACLE)
    assert np.allclose(obs.depth, want_depth, rtol=1e-12, atol=1e-12)


def test_scanline_far_wall_is_invisible():
    # Nearest surface beyond d_max must read as free with zero depth.
    world = room_with([(25.0, -40.0, 26.0, 40.0)])
    obs = ws.render_observation(world, ws.start_state(world), CFG)
    assert np.all(obs.classes == ws.FREE)
    assert np.all(obs.depth == 0.0)


def test_scanline_column_zero_is_leftmost():
    # Obstacle placed up and to the left (+y side) must land in low columns.
    world = room_with([(1.0, 2.0, 3.0, 4.0)])
    obs = ws.render_observation(world, ws.start_state(world), CFG)
    cols = np.flatnonzero(obs.classes == ws.OBSTACLE)
    assert cols.size > 0
    assert cols.max() < CFG.scan_width // 2


def test_gate_posts_render_as_gate_class_and_aperture_is_free():
    gate = ws.Gate(center=(5.0, 0.0, 1.5), yaw=0.0, half_width=1.0,
                   frame_thickness=0.15)
    world = ws.WorldSpec(
        kind="fake", bounds=(-40, -40, 40, 40), obstacles=(),
        gates=(gate,), seed=0, start=(0.0, 0.0, 1.5, 0.0),
    )
    obs = ws.render_observation(world, ws.start_state(world), CFG)
    mid = CFG.scan_width // 2
    # Straight ahead passes between the posts: free.
    assert obs.classes[mid] == ws.FREE and obs.classes[mid - 1] == ws.FREE
    # The posts at lateral +-1 m subtend ~11 degrees off-center.
    assert np.any(obs.classes == ws.GATE)
    post_cols = np.flatnonzero(obs.classes == ws.GATE)
    assert np.all((obs.depth[post_cols] > 0.0) & (obs.depth[post_cols] < 1.0))


def test_observation_invariants_random_sweep():
    rng = np.random.default_rng(0)
    for trial in range(50):
        if trial % 2 == 0:
            world = ws.spawn_fake_world(trial, cfg=CFG)
        else:
            world = ws.spawn_real_world(trial, 0.5, with_gates=True, cfg=CFG)
        bx0, by0, bx1, by1 = world.bounds
        for _ in range(10):
            x = rng.uniform(bx0 + 0.4, bx1 - 0.4)
            y = rng.uniform(by0 + 0.4, by1 - 0.4)
            if ws.point_in_collision(world, x, y, CFG.collision_radius):
                continue
            st = ws.DroneState((x, y, 1.5), rng.uniform(-np.pi, np.pi), 0.0, False)
            obs = ws.render_observation(world, st, CFG)
            assert obs.width == CFG.scan_width
            assert set(np.unique(obs.classes)) <= {0, 1, 2}
            assert np.all((obs.depth >= 0.0) & (obs.depth <= 1.0))
            assert np.array_equal(obs.classes == 0, obs.depth == 0.0)


def test_render_ignores_altitude_and_odometer():
    world = ws.spawn_fake_world(3, cfg=CFG)
    a = ws.DroneState((1.0, 0.5, 0.8), 0.3, 0.0, False)
    b = ws.DroneState((1.0, 0.5, 2.4), 0.3, 99.0, False)
    assert ws.render_observation(world, a, CFG) == ws.render_observation(
        world, b, CFG
    )


def test_observation_features_layout():
    obs = ws.Observation(np.array([0, 1, 2]), np.array([0.0, 0.5, 0.25]))
    assert np.allclose(obs.features(), [0.0, 0.5, 1.0, 0.0, 0.5, 0.25])


# ---------------------------------------------------------------------------
# dynamics


def step_one(world, state, command, dt=CFG.dt):
    """One drone's dynamics step from a (vx, vy, vz, yaw_rate) command:
    the batch kernel at B = 1."""
    drones = ws.step_dynamics(world.flock, ws.Drones.of([state]),
                              np.array([command], dtype=np.float64),
                              dataclasses.replace(CFG, dt=dt))
    return drones.states()[0]


def test_zero_action_is_a_fixed_point():
    world = empty_room()
    s0 = ws.start_state(world)
    s1 = step_one(world, s0, (0, 0, 0, 0), 0.05)
    assert s1.position == s0.position
    assert s1.yaw == s0.yaw
    assert s1.odometer == 0.0
    assert not s1.crashed


def test_two_unit_speed_steps_accumulate_exactly():
    world = empty_room()
    s = ws.start_state(world)
    for _ in range(2):
        s = step_one(world, s, (1.0, 0, 0, 0), 0.05)
    assert np.isclose(s.odometer, 2 * 0.05 * 1.0, rtol=0, atol=1e-15)
    assert np.isclose(s.position[0], 0.1)


def test_wall_one_meter_ahead_crashes_within_ten_steps():
    world = ws.WorldSpec(
        kind="real", bounds=(-5.0, -5.0, 1.0, 5.0), obstacles=(), gates=(),
        seed=0, start=(0.0, 0.0, 1.5, 0.0),
    )
    s = ws.start_state(world)
    for step in range(1, 11):
        s = step_one(world, s, (1.0, 0, 0, 0), 0.1)
        if s.crashed:
            break
    assert s.crashed and step <= 10
    assert s.odometer <= 1.0 + CFG.collision_radius


def test_action_clamping_and_altitude_band():
    world = empty_room()
    s = ws.start_state(world)
    s = step_one(world, s, (99.0, 0, 99.0, 99.0), 0.1)
    assert np.isclose(s.yaw, 0.1 * CFG.yaw_rate_max)
    speed = math.hypot(s.position[0], s.position[1])
    assert np.isclose(speed, 0.1 * CFG.v_max)
    for _ in range(200):
        s = step_one(world, s, (0, 0, 99.0, 0), 0.1)
    assert s.position[2] == CFG.z_max
    for _ in range(200):
        s = step_one(world, s, (0, 0, -99.0, 0), 0.1)
    assert s.position[2] == CFG.z_min


def test_step_contract_errors():
    world = empty_room()
    s = ws.start_state(world)
    with pytest.raises(ContractError):
        step_one(world, s, (0, 0, 0, 0), 0.0)
    with pytest.raises(ContractError):
        step_one(world, s, (0, 0, 0, 0), 0.25)


def test_dynamics_deterministic_and_odometer_monotonic():
    world = ws.spawn_real_world(5, 0.3, cfg=CFG)

    def run():
        rng = np.random.default_rng(42)
        s = ws.start_state(world)
        trail = [s]
        for _ in range(300):
            s = step_one(world, s, rng.uniform(-2, 2, 4))
            trail.append(s)
            if s.crashed:
                break
        return trail

    t1, t2 = run(), run()
    assert t1 == t2
    odos = [s.odometer for s in t1]
    assert all(b >= a for a, b in zip(odos, odos[1:]))
    for s in t1[:-1]:
        assert not ws.point_in_collision(
            world, s.position[0], s.position[1], CFG.collision_radius
        )


# ---------------------------------------------------------------------------
# spawning


def test_spawn_fake_world_deterministic_and_valid():
    for seed in range(50):
        world = ws.spawn_fake_world(seed, cfg=CFG)
        assert world == ws.spawn_fake_world(seed, cfg=CFG)
        ws.validate_world(world, CFG)
        assert world.kind == "fake" and len(world.gates) == CFG.n_gates
        xs = [g.center[0] for g in world.gates]
        assert all(b - a >= 4.0 for a, b in zip(xs, xs[1:]))
        yaw_cap = math.radians(CFG.gate_yaw_max_deg) + 1e-12
        assert all(abs(g.yaw) <= yaw_cap for g in world.gates)


def test_spawn_real_world_density_and_validity():
    empty = ws.spawn_real_world(1, 0.0, cfg=CFG)
    assert empty.obstacles == () and empty.gates == ()
    ws.validate_world(empty, CFG)
    for seed in range(25):
        world = ws.spawn_real_world(seed, 0.4, cfg=CFG)
        ws.validate_world(world, CFG)
        assert world == ws.spawn_real_world(seed, 0.4, cfg=CFG)
        assert world.kind == "real" and world.gates == ()
        sx, sy, _, _ = world.start
        assert not ws.point_in_collision(world, sx, sy, CFG.collision_radius)
    with pytest.raises(ContractError):
        ws.spawn_real_world(0, 1.5, cfg=CFG)


def test_room_start_is_clear_by_the_square_crash_rule(tmp_path):
    # A clearance disc narrower than the square rule's reach off a box
    # corner (start_clearance < (sqrt(2) - 1) * collision_radius) once let
    # a box corner cover the start: a 0-step episode that write_dataset
    # could not write.
    from cheatlab.expert import collect_trajectories, read_dataset, write_dataset

    cfg = load_config(None, ["world.start_clearance=0",
                             "world.collision_radius=1.0",
                             "world.gate_half_width=1.5"]).sim()
    for seed in range(120):
        world = ws.spawn_real_world(seed, 1.0, cfg=cfg)
        sx, sy, _, _ = world.start
        assert not ws.point_in_collision(world, sx, sy, cfg.collision_radius)
    data = collect_trajectories("real", 1, 20, seed=15, cfg=cfg,
                                clutter_density=1.0)
    assert data.total_steps > 0
    write_dataset(data, tmp_path / "d.bin")
    assert read_dataset(tmp_path / "d.bin").episodes == data.episodes


def test_spawn_real_world_with_gates_are_passable_and_inside():
    found = 0
    for seed in range(10):
        world = ws.spawn_real_world(seed, 0.4, with_gates=True, cfg=CFG)
        ws.validate_world(world, CFG)
        found += len(world.gates)
        for g in world.gates:
            assert ws.gate_passable(g.half_width, g.frame_thickness,
                                    CFG.collision_radius, g.yaw)
    assert found > 0


@pytest.mark.parametrize("yaw_deg", [0.0, 10.0, -30.0, 45.0, 60.0, 135.0])
def test_gate_passability_is_the_crash_rule_along_the_normal(yaw_deg):
    yaw, t, r = math.radians(yaw_deg), CFG.frame_thickness, CFG.collision_radius
    edge = (t + r) * (abs(math.cos(yaw)) + abs(math.sin(yaw)))
    n = np.array([math.cos(yaw), math.sin(yaw)])
    u = np.array([-math.sin(yaw), math.cos(yaw)])
    for half_width, passable in ((edge + 1e-6, True), (edge - 1e-6, False)):
        assert ws.gate_passable(half_width, t, r, yaw) == passable
        gate = ws.Gate((0.0, 0.0, ws.SPAWN_Z), yaw, half_width, t)
        world = ws.WorldSpec("real", (-50.0, -50.0, 50.0, 50.0), (), (gate,),
                             0, (-20.0, 0.0, ws.SPAWN_Z, yaw))
        # Points along the path through the center, densely and where it
        # passes the grown posts' nearest corners.
        along = list(np.linspace(-3.0, 3.0, 6001))
        for sign in (1.0, -1.0):
            corner = sign * (half_width * u - (t + r) * np.copysign(1.0, u))
            along.append(float(corner @ n))
        hits = [ws.point_in_collision(world, *(s * n), r) for s in along]
        assert any(hits) != passable


# The world.* geometry keys, each over a range that runs past what the
# cross-key rules accept.
GEOMETRY = {
    "gate_offset_max": st.floats(0.0, 2.0),
    "gate_yaw_max_deg": st.floats(0.0, 60.0),
    "start_offset_max": st.floats(0.0, 4.0),
    "start_yaw_max_deg": st.floats(0.0, 90.0),
    "corridor_half_width": st.floats(0.5, 12.0),
    "gate_half_width": st.floats(0.05, 8.0),
    "frame_thickness": st.floats(0.01, 0.6),
    "collision_radius": st.floats(0.01, 5.0),
    "gate_spacing": st.floats(4.0, 12.0),
    "n_gates": st.integers(1, 10),
    "d_max": st.floats(0.5, 30.0),
    "d_gate": st.floats(0.5, 20.0),
    "room_size": st.floats(6.0, 40.0),
    "start_clearance": st.floats(0.0, 4.0),
    "obstacle_min_side": st.floats(0.05, 2.0),
    "obstacle_max_side": st.floats(0.05, 4.0),
    "z_min": st.floats(0.0, 2.0),
    "z_max": st.floats(1.0, 4.0),
}


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(geometry=st.fixed_dictionaries(GEOMETRY),
       seeds=st.lists(st.integers(0, 2**31), min_size=1, max_size=3))
def test_every_accepted_geometry_spawns_valid_worlds(geometry, seeds):
    try:
        cfg = load_config(None, [f"world.{key}={value!r}"
                                 for key, value in geometry.items()]).sim()
    except ConfigError:
        assume(False)
    for seed in seeds:
        ws.validate_world(ws.spawn_fake_world(seed, cfg), cfg)
        for with_gates in (False, True):
            ws.validate_world(
                ws.spawn_real_world(seed, 0.4, with_gates, cfg), cfg)


@pytest.mark.parametrize("size", ["1e200", "1e308"])
def test_a_huge_room_flies_without_overflow_warnings(size):
    # Gaps, ray products and post distances overflow to inf there, which
    # compares right; numpy must not report it.
    import warnings

    from cheatlab.expert import expert_action

    cfg = load_config(None, [f"world.room_size={size}"]).sim()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        worlds = [ws.spawn_real_world(s, 0.4, True, cfg) for s in range(6)]
        ws.fly(worlds, lambda flock, drones, _scans: expert_action(
            flock, drones, cfg), 5, cfg)


def test_a_flock_packs_each_worlds_solid_boxes_and_follows_replace():
    world = ws.spawn_real_world(1, 0.4, with_gates=True, cfg=CFG)
    assert world.obstacles and world.gates
    obstacles, posts = ws._solid_boxes(world)
    assert obstacles.shape == (len(world.obstacles), 4)
    assert np.array_equal(posts, np.concatenate(
        [ws._gate_post_boxes(g) for g in world.gates]))
    boxes = np.concatenate([obstacles, posts])

    def packed(w):  # a one-world flock's boxes as (x0, y0, x1, y1) rows
        flock = ws.Flock([w])
        (x0, x1), (y0, y1) = flock.slabs[..., 0]
        return flock.n_obstacles, np.stack([x0, y0, x1, y1], axis=1)

    assert world.flock.n_obstacles == len(world.obstacles)
    n, rows = packed(world)
    assert n == len(world.obstacles) and np.array_equal(rows, boxes)
    # spawn_real_world adds its gates with dataclasses.replace; the new
    # world must collide with its own gate posts, the gate-free one not.
    bare = dataclasses.replace(world, gates=())
    n, rows = packed(bare)
    assert n == len(world.obstacles)
    assert np.array_equal(rows, obstacles)
    checked = 0
    for g in world.gates:
        for x0, y0, x1, y1 in ws._gate_post_boxes(g):
            cx, cy = (x0 + x1) / 2, (y0 + y1) / 2
            assert ws.point_in_collision(world, cx, cy, CFG.collision_radius)
            if not ws.point_in_collision(bare, cx, cy, CFG.collision_radius):
                checked += 1
    assert checked > 0


# ---------------------------------------------------------------------------
# widest-gap heuristic


def test_virtual_gate_empty_room_straight_ahead():
    world = ws.spawn_real_world(2, 0.0, cfg=CFG)
    sx, sy, _, syaw = world.start
    st = ws.start_state(world)
    gate = ws.virtual_gate(world, st, CFG)
    assert gate is not None
    assert np.isclose(gate.yaw, ws.wrap_angle(syaw), atol=1e-9)
    assert np.isclose(gate.center[0], sx + CFG.d_gate * math.cos(syaw))
    assert np.isclose(gate.center[1], sy + CFG.d_gate * math.sin(syaw))
    assert gate.half_width > CFG.collision_radius


def arc_blocker(a0_deg, a1_deg, radius=4.0, origin=(0.0, 0.0)):
    """Small boxes peppered along an arc so the span reads as blocked."""
    boxes = []
    for a in np.arange(a0_deg, a1_deg + 0.25, 0.5):
        rad = math.radians(a)
        cx = origin[0] + radius * math.cos(rad)
        cy = origin[1] + radius * math.sin(rad)
        boxes.append((cx - 0.12, cy - 0.12, cx + 0.12, cy + 0.12))
    return boxes


def test_virtual_gate_prefers_wider_gap():
    # Blocked spans [-90, -50], [-30, -10], [20, 90]: the 30-degree gap at
    # (-10, 20) beats the 20-degree gap at (-50, -30).
    boxes = (
        arc_blocker(-90, -50) + arc_blocker(-30, -10) + arc_blocker(20, 90)
    )
    world = room_with(boxes)
    gate = ws.virtual_gate(world, ws.start_state(world), CFG)
    assert gate is not None
    deg = math.degrees(gate.yaw)
    assert -10.0 < deg < 20.0, f"gate at {deg:.1f} deg not in the wider gap"


def test_virtual_gate_none_when_walled_in():
    # Facing a wall 0.35 m away: the only free rays graze along the wall
    # and subtend a chord far below twice the collision radius.
    world = ws.WorldSpec(
        kind="real", bounds=(0.0, 0.0, 20.0, 20.0), obstacles=(), gates=(),
        seed=0, start=(0.35, 10.0, 1.5, math.pi),
    )
    assert ws.virtual_gate(world, ws.start_state(world), CFG) is None


def test_virtual_gate_rejects_fake_worlds():
    world = ws.spawn_fake_world(0, cfg=CFG)
    with pytest.raises(ContractError):
        ws.virtual_gate(world, ws.start_state(world), CFG)


# ---------------------------------------------------------------------------
# gate crossing


def test_gate_crossing_cases():
    gate = ws.Gate(center=(5.0, 0.0, 1.5), yaw=0.0, half_width=1.0,
                   frame_thickness=0.15)
    assert ws.gate_crossed(gate, (4.5, 0.2), (5.5, 0.2))
    assert not ws.gate_crossed(gate, (4.5, 1.4), (5.5, 1.4))  # outside
    assert not ws.gate_crossed(gate, (5.5, 0.0), (4.5, 0.0))  # backwards
    assert not ws.gate_crossed(gate, (4.0, 0.0), (4.9, 0.0))  # no crossing


def test_count_gates_passed_straight_flight():
    world = ws.spawn_fake_world(7, cfg=CFG)
    xs = np.arange(-0.5, world.bounds[2] - 7.0, 0.1)
    path = [(float(x), 0.0) for x in xs]
    n = ws.count_gates_passed(world, path)
    # Flying the centerline y=0 crosses a gate plane at lateral offset
    # |cy| / cos(yaw); the gate counts when that lies inside the aperture.
    by_hand = sum(
        1 for g in world.gates
        if abs(g.center[1] / math.cos(g.yaw)) <= g.half_width
    )
    assert n == by_hand and 0 < n <= len(world.gates)


def test_wrap_angle():
    assert np.isclose(ws.wrap_angle(3 * math.pi), math.pi)
    assert np.isclose(ws.wrap_angle(-3 * math.pi), math.pi)
    assert np.isclose(ws.wrap_angle(0.3), 0.3)
    for a in (0.0361817402620597, -3.0, math.pi):  # in range: bit-exact
        assert ws.wrap_angle(a) == a
    assert -math.pi < ws.wrap_angle(123.456) <= math.pi


@pytest.mark.xfail(strict=True, reason="a str part feeds its utf-8 bytes as "
                   "the same integers an int part feeds, so 'a' and 97 collide")
def test_derive_seed_tells_a_string_from_its_code_point():
    assert ws._derive_seed(0, "a") != ws._derive_seed(0, 97)
