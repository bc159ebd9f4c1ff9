"""worldsim.fly: its contract, and every flier against a hand-written loop.

Each reference loop below renders, encodes, commands and steps by hand,
the way the package flew before it had one flight loop, and must agree
with the flight through `fly` bit for bit.
"""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cheatlab import cheat as ch
from cheatlab import evaluation as ev
from cheatlab import policy as po
from cheatlab import vae as vb
from cheatlab import worldsim as ws
from cheatlab.config import load_config
from cheatlab.errors import ContractError, DimensionError
from cheatlab.expert import collect_trajectories, expert_action, next_gate_index

CFG = ws.DEFAULT_SIM
K = 3


@pytest.fixture(scope="module")
def models():
    width = CFG.scan_width
    tmpl = po.controller_template(k=K, h_dim=4, mlp_hidden=(8, 6))
    genome = np.random.default_rng(5).normal(0, 0.5, po.genome_size(tmpl))
    return {
        "vae": vb.vae_init(K, (12, 6), 0, width=width),
        "controller": po.controller_from_genome(genome, tmpl),
        "cheat": ch.cheat_init(K, (12, 6), 1, width=width),
        "baseline": ev.baseline_init((12, 6), 2, width=width),
    }


def step_one(world, state, act):
    """One drone's dynamics step: the batch kernel at B = 1."""
    row = np.array([[act.vx, act.vy, act.vz, act.yaw_rate]])
    drones = ws.step_dynamics(world.flock, ws.Drones.of([state]), row, CFG)
    return drones.states()[0]


def hand_flight(world, command, max_steps, sees=True):
    """(observation, action, state) per step and the final state."""
    state = ws.start_state(world)
    steps = []
    for t in range(max_steps):
        obs = ws.render_observation(world, state, CFG) if sees else None
        act = command(t, obs)
        steps.append((obs, act, state))
        state = step_one(world, state, act)
        if state.crashed:
            break
    return steps, state


def controller_command(ctrl, encode):
    """One drone's controller: its scan as a one-row block through
    `encode`, then a tick of its one-drone LstmBatch."""
    lstm = po.LstmBatch(ctrl, 1)

    def command(_t, obs):
        z = encode(obs.features()[None])
        return ws.Action(*po.controller_step(ctrl, z, lstm)[0].tolist())

    return command


def assert_same_flight(result, steps, final):
    assert result.steps == [ws.TrajectoryStep(*s) for s in steps]
    assert result.final_state == final
    assert result.odometer == final.odometer
    assert result.crashed == final.crashed


# ---------------------------------------------------------------------------
# contract


def hover(flock, _drones, _scans):
    return np.zeros((len(flock), 4))


def test_fliers_receive_the_batch_scan_arrays():
    worlds = [ws.spawn_real_world(s, 0.4, cfg=CFG) for s in (3, 4, 5)]
    seen = []
    record, _ = ws.fly(worlds, lambda f, d, scans: seen.append(scans)
                       or hover(f, d, scans), 3, CFG)
    assert len(seen) == 3
    for t, (classes, depth) in enumerate(seen):
        assert classes.shape == depth.shape == (3, CFG.scan_width)
        assert classes.dtype == np.int64 and depth.dtype == np.float64
        for i, steps in enumerate(record.episodes()):
            assert steps[t].observation == ws.Observation(classes[i], depth[i])


def test_the_record_keeps_each_tick_of_a_reused_command_buffer():
    world = ws.spawn_real_world(3, 0.4, cfg=CFG)
    buffer, want = np.zeros((1, 4)), []

    def act(_flock, _drones, _scans):
        buffer[0, 0] += 0.1  # one buffer, written again on every tick
        want.append(buffer[0, 0])
        return buffer

    record, _ = ws.fly([world], act, 4, CFG)
    assert record.actions[:, 0].tolist() == want


def test_fly_rejects_a_nonpositive_step_cap():
    world = ws.spawn_fake_world(0, cfg=CFG)
    for bad in (0, -3):
        with pytest.raises(ContractError):
            ws.fly([world], hover, bad, CFG)
    with pytest.raises(ContractError):
        ws.fly([], hover, 10, CFG)


def test_done_ends_the_flight_unrecorded():
    worlds = [ws.spawn_fake_world(s, cfg=CFG) for s in (0, 1)]
    seen = []  # (world id, state) per done call, in order

    def done(flock, drones):
        states = drones.states()
        seen.extend(zip(flock.ids.tolist(), states))
        # world 0 ends before its 4th step, world 1 before its 7th
        ticks = sum(1 for i, _ in seen if i == 1)
        return np.array([ticks > (3 if i == 0 else 6) for i in flock.ids])

    def forward(flock, _drones, _scans):
        return np.tile((1.0, 0.0, 0.0, 0.0), (len(flock), 1))

    record, ends = ws.fly(worlds, forward, 50, CFG, done=done)
    for i, n in ((0, 3), (1, 6)):
        calls = [s for j, s in seen if j == i]
        steps = record.episodes()[i]
        assert len(calls) == n + 1 and len(steps) == n
        assert [s.state for s in steps] == calls[:n]
        assert ends[i] == calls[n]
        assert not ends[i].crashed
        assert ends[i].odometer == calls[n].odometer > 0.0


def test_completed_corridor_ends_before_the_state_past_the_last_gate():
    data = collect_trajectories("fake", 1, 2000, seed=4, cfg=CFG)
    (episode,) = data.episodes
    world = ws.spawn_fake_world(ws._derive_seed(4, 0), cfg=CFG)
    assert episode[0].state == ws.start_state(world)
    assert len(episode) < 2000
    gate = lambda state: next_gate_index(world.flock,
                                         ws.Drones.of([state]))[0]
    assert gate(episode[-1].state) >= 0
    assert gate(step_one(world, episode[-1].state, episode[-1].action)) == -1


def test_blind_flight_never_renders(monkeypatch):
    def no_render(*_args, **_kwargs):
        raise AssertionError("a blind flight rendered")

    monkeypatch.setattr(ws, "render_observation", no_render)
    world = ws.spawn_real_world(1, 0.4, cfg=CFG)
    seen = []
    record, _ = ws.fly([world], lambda f, d, scans: seen.append(scans)
                       or hover(f, d, scans), 20, CFG, blind=True)
    assert seen == [None] * 20
    assert record.classes is None and record.depth is None
    assert all(s.observation is None for s in record.episodes()[0])
    for pipeline in ("zero", "random"):
        ev.eval_mean_distance(pipeline, None, [0, 1], max_steps=30, cfg=CFG)


def test_rollout_rejects_an_encoder_of_another_width(models):
    wide = vb.vae_init(K + 1, (12, 6), 0, width=CFG.scan_width)
    with pytest.raises(DimensionError):
        po.rollout(ws.spawn_fake_world(0, cfg=CFG), wide,
                   models["controller"], 10)


# ---------------------------------------------------------------------------
# every flier against its hand-written loop


@pytest.mark.parametrize("seed", [0, 3])
def test_vae_rollout_matches_per_step_controller(models, seed):
    vae, ctrl = models["vae"], models["controller"]
    world = ws.spawn_fake_world(seed, cfg=CFG)
    command = controller_command(ctrl, lambda x: vb.encode(vae, x)[0])
    steps, final = hand_flight(world, command, 120)
    assert_same_flight(po.rollout(world, vae, ctrl, 120, cfg=CFG),
                       steps, final)


@pytest.mark.parametrize("seed", [2, 6])
def test_cheat_rollout_matches_per_step_controller(models, seed):
    cheat, ctrl = models["cheat"], models["controller"]
    world = ws.spawn_real_world(seed, 0.4, cfg=CFG)
    command = controller_command(ctrl, lambda x: ch.cheat_encode(cheat, x))
    steps, final = hand_flight(world, command, 120)
    result = po.rollout(world, models["vae"], ctrl, 120, encoder="cheat",
                        cheat=cheat, cfg=CFG)
    assert_same_flight(result, steps, final)


@pytest.mark.parametrize("encoder", ["vae", "cheat"])
def test_batched_rollouts_match_per_step_controllers(models, encoder):
    # One batch of six drones that land at different ticks, so the flier
    # drops landed drones' LSTM states mid-flight; a bolder controller
    # than the fixture's makes the room drones crash.
    vae, cheat = models["vae"], models["cheat"]
    tmpl = po.controller_template(k=K, h_dim=4, mlp_hidden=(8, 6))
    ctrl = po.controller_from_genome(
        np.random.default_rng(7).normal(0, 1.0, po.genome_size(tmpl)), tmpl)
    if encoder == "vae":
        worlds = [ws.spawn_fake_world(s, cfg=CFG) for s in range(6)]
        encode = lambda x: vb.encode(vae, x)[0]
    else:
        worlds = [ws.spawn_real_world(s, 0.4, cfg=CFG) for s in range(6)]
        encode = lambda x: ch.cheat_encode(cheat, x)
    results = po.rollouts(worlds, vae, ctrl, 200, encoder=encoder,
                          cheat=cheat, cfg=CFG)
    for world, result in zip(worlds, results):
        steps, final = hand_flight(world, controller_command(ctrl, encode), 200)
        assert_same_flight(result, steps, final)
    assert len({len(r.steps) for r in results if r.crashed}) >= 4


def test_eval_pipelines_match_hand_loops(models):
    seeds, max_steps, hold = [0, 1, 2, 3, 4], 150, 20
    crashed = []
    for pipeline in ("cheat", "baseline", "random", "zero"):
        report = ev.eval_mean_distance(pipeline, models, seeds, max_steps,
                                       hold_steps=hold, cfg=CFG)
        want = []
        for seed in seeds:
            world = ws.spawn_real_world(seed, 0.4, cfg=CFG, with_gates=False)
            if pipeline == "cheat":
                command = controller_command(
                    models["controller"],
                    lambda x: ch.cheat_encode(models["cheat"], x))
            elif pipeline == "baseline":
                command = lambda _t, obs: ws.Action(*ev.baseline_action(
                    models["baseline"], obs.features()[None], CFG)[0].tolist())
            elif pipeline == "random":
                cmds = ev._random_commands(seed, max_steps, hold, CFG)
                command = lambda t, _obs: ws.Action(*cmds[t])
            else:
                command = lambda _t, _obs: ws.Action(0.0, 0.0, 0.0, 0.0)
            _, final = hand_flight(world, command, max_steps,
                                   sees=pipeline in ("cheat", "baseline"))
            want.append((final.odometer, final.crashed))
        assert list(zip(report.odometers, report.crashed)) == want, pipeline
        crashed += report.crashed
    assert any(crashed) and not all(crashed)


def test_rollouts_and_evals_build_no_per_step_objects(models, monkeypatch):
    # The fliers hand the nets (B, .) arrays and keep the LSTM states in
    # work buffers, so no Observation or Action is built while flying;
    # only indexing a recorded step builds its objects.
    built = dict.fromkeys(["Observation", "Action"], 0)
    for cls in (ws.Observation, ws.Action):
        def counted(self, *args, _init=cls.__init__, _name=cls.__name__,
                    **kwargs):
            built[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    vae, cheat, ctrl = models["vae"], models["cheat"], models["controller"]
    rooms = [ws.spawn_real_world(s, 0.4, cfg=CFG) for s in range(5)]
    flights = po.rollouts(rooms, vae, ctrl, 60, encoder="cheat", cheat=cheat,
                          cfg=CFG)
    flights += po.rollouts([ws.spawn_fake_world(s, cfg=CFG) for s in range(3)],
                           vae, ctrl, 60, cfg=CFG)
    for pipeline in ("cheat", "baseline"):
        ev.eval_mean_distance(pipeline, models, [0, 1, 2], 60, cfg=CFG)
    assert sum(len(r.steps) for r in flights) > 400
    assert built == {"Observation": 0, "Action": 0}
    flights[0].steps[5]
    assert built == {"Observation": 1, "Action": 1}


def test_corridor_collection_renders_one_scan_per_recorded_step(monkeypatch):
    # The corridor-complete check runs before the render, so no scan is
    # rendered for the tick that ends a flight. Counted per drone, since
    # a batched call renders one scan for every live drone.
    render = ws.render_observation
    scans = [0]

    def counted(world, state, cfg=CFG):
        scans[0] += len(state) if isinstance(state, ws.Drones) else 1
        return render(world, state, cfg)

    monkeypatch.setattr(ws, "render_observation", counted)
    data = collect_trajectories("fake", 3, 2000, seed=4, cfg=CFG)
    assert all(len(ep) < 2000 for ep in data.episodes)  # every one completed
    assert scans[0] == data.total_steps


# ---------------------------------------------------------------------------
# the batch against single flights, over configs load_config accepts


def _flier(kind: str, cfg, tables):
    """The expert, or a flier commanding each drone from its own world's
    table row for the tick, with a yaw term read off its scan."""
    if kind == "expert":
        return lambda flock, drones, _scans: expert_action(flock, drones, cfg)
    ticks = itertools.count()

    def act(flock, _drones, scans):
        _classes, depth = scans
        rows = tables[flock.ids, next(ticks)]
        rows[:, 3] += 0.5 * np.array([row.mean() for row in depth])
        return rows

    return act


@settings(max_examples=25, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    dt=st.floats(0.005, 0.2),
    v_max=st.floats(0.1, 12.0),
    scan_width=st.integers(8, 512),
    # The default gates are passable up to a radius of about 0.993, and
    # load_config rejects a larger one.
    radius=st.floats(0.01, 0.99),
    density=st.floats(0.0, 1.0),
    kind=st.sampled_from(["fake", "real"]),
    flier=st.sampled_from(["table", "expert"]),
    seeds=st.lists(st.integers(0, 2**31), min_size=1, max_size=8),
)
def test_batched_flight_equals_single_flights(dt, v_max, scan_width, radius,
                                              density, kind, flier, seeds):
    cfg = load_config(None, [
        f"world.dt={dt!r}", f"world.v_max={v_max!r}",
        f"world.scan_width={scan_width}",
        f"world.collision_radius={radius!r}"]).sim()
    if kind == "fake":
        worlds = [ws.spawn_fake_world(s, cfg=cfg) for s in seeds]
        done = lambda flock, drones: next_gate_index(flock, drones) < 0
    else:
        worlds = [ws.spawn_real_world(s, density, cfg=cfg) for s in seeds]
        done = None
    steps = 40
    rng = np.random.default_rng(seeds[0])
    tables = rng.uniform(-1.0, 1.0, (len(worlds), steps, 4)) * (
        cfg.v_max, cfg.v_max, cfg.v_max, cfg.yaw_rate_max)

    batch, ends = ws.fly(worlds, _flier(flier, cfg, tables), steps, cfg,
                         done=done)
    for i, world in enumerate(worlds):
        alone, (end,) = ws.fly([world], _flier(flier, cfg, tables[i : i + 1]),
                               steps, cfg, done=done)
        # scans, commands, states and crash flags
        assert batch.episode(i) == alone and ends[i] == end
        assert_record_holds_its_steps(alone)
        assert alone.episodes()[0] == list(batch.episodes()[i])
        for state in [s.state for s in alone.episodes()[0]] + [end]:
            x, y, _ = state.position
            assert ws.point_in_collision(world, x, y, cfg.collision_radius) \
                == state.crashed


def assert_record_holds_its_steps(rec):
    """A one-world flight's record arrays row for row against its
    materialised steps, with every array's dtype and shape."""
    steps = list(rec.episodes()[0])
    n, width = len(steps), rec.classes.shape[1]
    assert rec.offsets.tolist() == [0, n]
    assert rec.classes.dtype == np.int8 and rec.classes.shape == (n, width)
    assert rec.depth.shape == (n, width) and rec.actions.shape == (n, 4)
    assert rec.states.shape == (n, 6)
    for row, s in enumerate(steps):
        assert np.array_equal(rec.classes[row], s.observation.classes)
        assert np.array_equal(rec.depth[row], s.observation.depth)
        a, st = s.action, s.state
        assert rec.actions[row].tolist() == [a.vx, a.vy, a.vz, a.yaw_rate]
        assert rec.states[row].tolist() == [*st.position, st.yaw, st.odometer,
                                            float(st.crashed)]
        assert all(type(v) is float for v in (*st.position, st.yaw, a.vx))


def test_a_start_in_collision_is_a_crash_with_no_step_flown():
    # No accepted config spawns one, so the world is built by hand: its
    # start lies within collision_radius of the corridor wall.
    good = ws.spawn_fake_world(0, CFG)
    x, y, z, yaw = good.start
    edge = CFG.corridor_half_width - CFG.collision_radius
    bad = dataclasses.replace(good, start=(x, float(np.nextafter(edge, 9.0)),
                                           z, yaw))
    with pytest.raises(ContractError, match="start pose is in collision"):
        ws.validate_world(bad, CFG)
    rows = np.zeros((2, 4))
    flight, ends = ws.fly([good, bad], lambda _f, drones, _s: rows[:len(drones)],
                          5, CFG)
    assert [len(ep) for ep in flight.episodes()] == [5, 0]
    assert not ends[0].crashed
    assert ends[1] == ws.DroneState((x, bad.start[1], z), yaw, 0.0, True)


# ---------------------------------------------------------------------------
# the record slabs: a re-stride, an uncapped collection, no recording


@pytest.mark.parametrize("blind", [False, True])
def test_a_flight_past_the_stride_equals_single_flights(monkeypatch, blind):
    # Episodes that end every way: a hover flies to the cap, a start in
    # collision records nothing, a done ends one and two crash between
    # re-strides. The batch re-strides 8 -> 16 -> 32 -> 64 -> 120; the
    # single flights never reach the stride.
    corridor = ws.spawn_fake_world(0, CFG)
    x, _y, z, yaw = corridor.start
    in_wall = dataclasses.replace(corridor,
                                  start=(x, CFG.corridor_half_width, z, yaw))
    rooms = {s: ws.spawn_real_world(s, 0.4, cfg=CFG) for s in (2, 0, 20, 10)}
    worlds = [rooms[2], in_wall, rooms[0], rooms[20], rooms[10]]
    steps = 120
    tables = np.zeros((len(worlds), steps, 4))
    tables[2:, :, 0] = np.array([1.0, CFG.v_max, CFG.v_max])[:, None]

    def flier(tables):
        ticks = itertools.count()

        def act(flock, _drones, scans):
            rows = tables[flock.ids, next(ticks)]
            if scans is not None:
                rows[:, 3] += 0.1 * np.array([row.mean() for row in scans[1]])
            return rows

        return act

    done = lambda flock, drones: np.array(
        [w is rooms[0] for w in flock.worlds]) & (drones.pose[4] > 2.0)
    alone = [ws.fly([w], flier(tables[i : i + 1]), steps, CFG, blind=blind,
                    done=done) for i, w in enumerate(worlds)]
    strides = []

    def slabs(n_worlds, stride, width, old=()):
        strides.append(stride)
        return make_slabs(n_worlds, stride, width, old)

    make_slabs = ws._slabs
    monkeypatch.setattr(ws, "_STRIDE", 8)
    monkeypatch.setattr(ws, "_slabs", slabs)
    batch, ends = ws.fly(worlds, flier(tables), steps, CFG, blind=blind,
                         done=done)
    assert strides == [8, 16, 32, 64, 120]
    lengths = np.diff(batch.offsets).tolist()
    assert lengths[:2] == [120, 0]
    assert all(8 < n < 120 and n not in (16, 32, 64) for n in lengths[2:])
    assert [end.crashed for end in ends] == [False, True, False, True, True]
    for i, (record, (end,)) in enumerate(alone):
        assert batch.episode(i) == record and ends[i] == end


def test_an_uncapped_corridor_collection_sizes_no_slab_by_its_cap():
    # Every corridor is done long before either cap, so both sets are the
    # same; a slab of max_steps rows per world could not be allocated.
    capped = collect_trajectories("fake", 3, 2000, seed=4, cfg=CFG)
    uncapped = collect_trajectories("fake", 3, 10**9, seed=4, cfg=CFG)
    assert uncapped.record == capped.record


def test_a_flight_that_records_nothing_allocates_no_slab():
    worlds = [ws.spawn_real_world(s, 0.4, cfg=CFG) for s in range(16)]
    ws.fly(worlds[:1], hover, 2, CFG)  # lazy set-up outside the trace
    calls = itertools.count()
    stop = lambda flock, _drones: np.full(len(flock), next(calls) >= 3)
    row_bytes = 9 * CFG.scan_width + 8 * (4 + 6)
    tracemalloc.start()
    try:
        record, ends = ws.fly(worlds, hover, 1000, CFG, done=stop,
                              record=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert record.offsets.tolist() == [0] * 17 and not len(record.actions)
    assert all(end.odometer == 0.0 and not end.crashed for end in ends)
    # the slabs of a recording flight would take 16 * 1000 rows
    assert peak < 0.2 * 16 * 1000 * row_bytes


@pytest.mark.xfail(strict=True, reason="collisions are tested at step ends "
                   "only, so a fast drone can cross a thin box between two")
def test_a_fast_drone_cannot_cross_a_thin_box():
    cfg = load_config(None, ["world.v_max=20", "world.dt=0.2"]).sim()
    wall = ws.Obstacle(10.0, 5.0, 10.2, 15.0)
    world = ws.WorldSpec(kind="real", bounds=(0.0, 0.0, 20.0, 20.0),
                         obstacles=(wall,), gates=(), seed=0,
                         start=(7.0, 10.0, 1.5, 0.0))
    full_ahead = lambda flock, _d, _s: np.tile((cfg.v_max, 0, 0, 0),
                                               (len(flock), 1))
    _, (end,) = ws.fly([world], full_ahead, 1, cfg, blind=True)
    assert end.position[0] > wall.max_x  # it went through
    assert end.crashed
