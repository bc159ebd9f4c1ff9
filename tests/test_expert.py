"""Expert control law, corridor safety, and dataset serialization tests."""

import hashlib
import math

import numpy as np
import pytest

from cheatlab import evaluation as ev
from cheatlab import expert as ex
from cheatlab import policy as po
from cheatlab import vae as vb
from cheatlab import worldsim as ws
from cheatlab.config import load_config
from cheatlab.errors import ContractError, GenerationError, IntegrityError

CFG = ws.DEFAULT_SIM


def state_at(x, y, yaw):
    return ws.DroneState((x, y, 1.5), yaw, 0.0, False)


def one(world, state):
    """A world and a drone in it as a batch of one."""
    return world.flock, ws.Drones.of([state])


def test_aligned_approach_commands_cruise_speed():
    # Two meters straight before a gate, zero bearing error: the command is
    # exactly (v_nom, 0, 0, 0).
    world = ws.spawn_fake_world(0, cfg=CFG)
    g = world.gates[0]
    st = state_at(
        g.center[0] - 2.0 * math.cos(g.yaw),
        g.center[1] - 2.0 * math.sin(g.yaw),
        g.yaw,
    )
    vx, vy, vz, yaw_rate = ex.expert_action(*one(world, st), CFG)[0]
    assert np.isclose(vx, ex.V_NOM, atol=1e-12)
    assert vy == 0.0 and vz == 0.0
    assert np.isclose(yaw_rate, 0.0, atol=1e-12)


def test_gate_directly_left_saturates_turn():
    # Bearing error +90 degrees: yaw_rate clamps at +yaw_rate_max and the
    # cosine law zeroes the forward speed.
    world = ws.spawn_fake_world(1, cfg=CFG)
    g = world.gates[0]
    st = state_at(g.center[0], g.center[1] - 3.0, 0.0)  # gate to the north
    vx, _, _, yaw_rate = ex.expert_action(*one(world, st), CFG)[0]
    assert np.isclose(yaw_rate, CFG.yaw_rate_max)
    assert abs(vx) < 1e-9


def test_gate_behind_turns_without_reversing():
    world = ws.spawn_fake_world(2, cfg=CFG)
    g = world.gates[0]
    st = state_at(g.center[0] + 3.0, g.center[1], g.yaw)  # past the plane,
    # so the target is gate 1 ahead; aim a state beyond the last gate too.
    last = world.gates[-1]
    st2 = state_at(last.center[0] + 3.0, last.center[1], 0.0)
    assert ex.next_gate_index(*one(world, st2)).tolist() == [-1]
    assert ex.expert_action(*one(world, st2), CFG).tolist() == [[0.0] * 4]
    assert ex.next_gate_index(*one(world, st)).tolist() == [1]
    assert ex.expert_action(*one(world, st), CFG)[0, 0] >= 0.0


def test_rotates_in_place_when_no_gap():
    world = ws.WorldSpec(
        kind="real", bounds=(0.0, 0.0, 20.0, 20.0), obstacles=(), gates=(),
        seed=0, start=(0.35, 10.0, 1.5, math.pi),
    )
    a = ex.expert_action(*one(world, ws.start_state(world)), CFG)
    assert a.tolist() == [[0.0, 0.0, 0.0, CFG.yaw_rate_max]]


def test_crashed_state_is_rejected():
    world = ws.spawn_fake_world(3, cfg=CFG)
    bad = ws.DroneState((0, 0, 1.5), 0.0, 0.0, True)
    with pytest.raises(ContractError):
        ex.expert_action(*one(world, bad), CFG)


def test_a_mixed_flock_is_rejected():
    worlds = [ws.spawn_fake_world(0, cfg=CFG),
              ws.spawn_real_world(0, 0.4, cfg=CFG)]
    drones = ws.Drones.of([ws.start_state(w) for w in worlds])
    with pytest.raises(ContractError, match="one world kind"):
        ex.expert_action(ws.Flock(worlds), drones, CFG)


def test_expert_clears_corridors_without_crashing():
    # Smaller version of the acceptance sweep: every seeded corridor is
    # flown end to end, crash-free, through every aperture.
    worlds = [ws.spawn_fake_world(seed, cfg=CFG) for seed in range(20)]
    expert = lambda flock, drones, _scans: ex.expert_action(flock, drones, CFG)
    done = lambda flock, drones: ex.next_gate_index(flock, drones) < 0
    record, ends = ws.fly(worlds, expert, 2000, CFG, blind=True, done=done)
    for seed, (world, (lo, hi), end) in enumerate(zip(worlds, record.spans(),
                                                      ends)):
        assert not end.crashed, f"expert crashed in corridor seed {seed}"
        assert done(world.flock, ws.Drones.of([end]))[0], "corridor unfinished"
        path = record.states[lo:hi, :2].tolist() + [end.position[:2]]
        assert ws.count_gates_passed(world, path) == len(world.gates)


def test_real_world_expert_keeps_moving():
    world = ws.spawn_real_world(11, 0.4, cfg=CFG)
    act = lambda flock, drones, _scans: ex.expert_action(flock, drones, CFG)
    _, (end,) = ws.fly([world], act, 400, CFG, blind=True)
    assert end.odometer > 1.0


# ---------------------------------------------------------------------------
# datasets


def small_dataset(kind="fake", episodes=3):
    return ex.collect_trajectories(
        kind, n_episodes=episodes, max_steps=500, seed=123, cfg=CFG
    )


def test_collect_is_deterministic_and_complete():
    d1 = small_dataset()
    d2 = small_dataset()
    assert d1.manifest == d2.manifest
    assert d1.episodes == d2.episodes
    assert len(d1.episodes) == 3
    assert all(len(ep) > 0 for ep in d1.episodes)
    assert d1.manifest["total_steps"] == d1.total_steps
    # Corridor datasets never contain crashed recorded states.
    for ep in d1.episodes:
        for step in ep:
            assert not step.state.crashed


def test_collect_real_keeps_crash_episodes():
    d = ex.collect_trajectories(
        "real", n_episodes=4, max_steps=300, seed=7, cfg=CFG,
        clutter_density=0.6,
    )
    assert len(d.episodes) == 4
    assert d.world_kind == "real"


def test_collect_contract_errors():
    with pytest.raises(ContractError):
        ex.collect_trajectories("moon", 1, 10, 0, CFG)
    with pytest.raises(ContractError):
        ex.collect_trajectories("fake", 0, 10, 0, CFG)


def test_dataset_roundtrip_exact(tmp_path):
    d = small_dataset()
    path = tmp_path / "d.bin"
    ex.write_dataset(d, path)
    back = ex.read_dataset(path)
    assert back.world_kind == d.world_kind
    assert back.generator_seed == d.generator_seed
    assert back.episodes == d.episodes
    # Serialization is byte-stable for identical datasets.
    path2 = tmp_path / "d2.bin"
    ex.write_dataset(small_dataset(), path2)
    assert path.read_bytes() == path2.read_bytes()


def test_dataset_manifest_mismatch_detected(tmp_path):
    from cheatlab import container as ct

    d = small_dataset(episodes=2)
    path = tmp_path / "d.bin"
    ex.write_dataset(d, path)
    records, meta = ct.read_container(path)
    meta["episode_lengths"] = [1, 1]  # lie about the step counts
    ct.write_container(path, records, meta)
    with pytest.raises(IntegrityError):
        ex.read_dataset(path)


def test_read_rejects_a_manifest_field_missing_or_ill_typed(tmp_path):
    # Each file is rewritten whole, so its checksum is valid.
    from cheatlab import container as ct

    path = tmp_path / "d.bin"
    ex.write_dataset(small_dataset(episodes=2), path)
    records, meta = ct.read_container(path)
    lengths = meta["episode_lengths"]
    bad = [{k: v for k, v in meta.items() if k != key}
           for key in ("world_kind", "generator_seed", "episode_lengths")]
    bad += [dict(meta, world_kind=None), dict(meta, world_kind=["fake"]),
            dict(meta, generator_seed="123"), dict(meta, generator_seed=1.0),
            dict(meta, generator_seed=True), dict(meta, episode_lengths=5),
            dict(meta, episode_lengths=[float(n) for n in lengths]),
            dict(meta, episode_lengths=[lengths[0], None])]
    for manifest in bad:
        ct.write_container(path, records, manifest)
        with pytest.raises(IntegrityError, match="dataset manifest"):
            ex.read_dataset(path)
    ct.write_container(path, records, meta)
    assert ex.read_dataset(path).episodes == small_dataset(episodes=2).episodes


# ---------------------------------------------------------------------------
# the record block behind a dataset


# sha256 of write_dataset's container for these collections, re-pinned
# when datasets became four whole-set records instead of four per
# episode: the records' values are those of the per-episode files
# (b64e46b9... and e914c46b...), laid end to end, and only the layout
# moved the bytes.
PINNED_CONTAINERS = {
    ("fake", 2, 40, 3):
        "5a76d299e5dda201cb3531872d3f5b3e79f3f5bcddc296d5298e80a102ef1a40",
    ("real", 2, 30, 5):
        "ddef68f2f2012d675ebeb067a326f75de56e028bb6003eefe4ba9f342bd69f93",
}


@pytest.mark.parametrize("args", sorted(PINNED_CONTAINERS))
def test_written_dataset_bytes_are_pinned(tmp_path, args):
    kind, episodes, steps, seed = args
    data = ex.collect_trajectories(kind, episodes, steps, seed=seed, cfg=CFG)
    path = tmp_path / "d.bin"
    ex.write_dataset(data, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_CONTAINERS[args]


def test_a_dataset_opening_with_an_empty_episode_round_trips(tmp_path):
    flown = ex.collect_trajectories("real", 2, 30, seed=5, cfg=CFG)
    rec = flown.record
    opened = ws.Record(rec.classes, rec.depth, rec.actions, rec.states,
                       np.concatenate([[0], rec.offsets]))
    d = ex.Dataset(opened, "real", 5, dict(flown.manifest))
    assert [len(ep) for ep in d.episodes] == [0, 30, 30]
    assert d.episodes[0] == [] and d.episodes[1:] == flown.episodes
    path = tmp_path / "d.bin"
    ex.write_dataset(d, path)
    back = ex.read_dataset(path)
    assert back.episodes == d.episodes
    assert back.manifest["episode_lengths"] == [0, 30, 30]
    cfg = ev.BaselineTrainConfig(hidden=(12, 6), epochs=2, seed=1)
    with_empty, losses = ev.train_baseline(back, cfg)
    without, same = ev.train_baseline(flown, cfg)
    assert losses == same
    assert np.array_equal(with_empty.params.flat, without.params.flat)


def record_flights(monkeypatch):
    """Every (record, ends) that collect_trajectories' flights return."""
    flights = []

    def recorded(*args, **kwargs):
        flights.append(ws.fly(*args, **kwargs))
        return flights[-1]

    monkeypatch.setattr(ex, "fly", recorded)
    return flights


def assert_same_bytes(got, want):
    for name in ws.Record.__slots__:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


# Corridors where the expert crashes on some starts: the first wave of 10
# rejects attempts 1 and 6, and later waves reject too.
CRASHY = load_config(None, ["world.collision_radius=0.8"]).sim()


def test_a_set_its_first_wave_completes_is_that_flights_block(monkeypatch):
    flights = record_flights(monkeypatch)
    for kind in ("real", "fake"):
        flights.clear()
        data = ex.collect_trajectories(kind, 4, 60, seed=3, cfg=CFG)
        ((block, ends),) = flights
        if kind == "fake":
            assert not any(end.crashed for end in ends)
        for name in ("classes", "depth", "actions", "states", "offsets"):
            assert getattr(data.record, name) is getattr(block, name)


def test_a_set_with_a_rejection_is_a_fresh_join_in_attempt_order(monkeypatch):
    flights = record_flights(monkeypatch)
    data = ex.collect_trajectories("fake", 10, 300, seed=0, cfg=CRASHY)
    crashed = [[end.crashed for end in ends] for _, ends in flights]
    assert any(crashed[0]) and any(sum(crashed[1:], []))
    kept = [block.episode(e) for block, ends in flights
            for e, end in enumerate(ends) if not end.crashed]
    assert_same_bytes(data.record, ws.Record.join(kept))
    for block, _ in flights:
        for name in ("classes", "depth", "actions", "states"):
            assert not np.shares_memory(getattr(data.record, name),
                                        getattr(block, name))


def collect_one_at_a_time(n_episodes, max_steps, seed, cfg):
    """The corridor set flown one attempt at a time: attempt a spawns from
    _derive_seed(seed, a) and flies alone, and the uncrashed flights are
    kept in attempt order. Gives the record and the rejection count."""
    act = lambda flock, drones, _scans: ex.expert_action(flock, drones, cfg)
    done = lambda flock, drones: ex.next_gate_index(flock, drones) < 0
    kept, rejections, attempt = [], 0, 0
    while len(kept) < n_episodes:
        world = ws.spawn_fake_world(ws._derive_seed(seed, attempt), cfg)
        attempt += 1
        record, (end,) = ws.fly([world], act, max_steps, cfg, done=done)
        if rejections > 10 * n_episodes:
            raise GenerationError(
                f"rejected {rejections} crashed corridor episodes "
                f"(budget 10 * {n_episodes}); geometry is too hostile")
        if end.crashed:
            rejections += 1
        else:
            kept.append(record)
    return ws.Record.join(kept), rejections


def test_waves_with_rejections_match_one_flight_at_a_time(monkeypatch):
    flights = record_flights(monkeypatch)
    data = ex.collect_trajectories("fake", 10, 300, seed=0, cfg=CRASHY)
    want, rejections = collect_one_at_a_time(10, 300, 0, CRASHY)
    assert_same_bytes(data.record, want)
    assert rejections >= 2
    assert sum(end.crashed for _, ends in flights for end in ends) == rejections
    # Where every corridor crashes, both hit the cap with the same count.
    hostile = load_config(None, ["world.collision_radius=0.99",
                                 "world.start_offset_max=2.0"]).sim()
    with pytest.raises(GenerationError) as wave:
        ex.collect_trajectories("fake", 2, 400, seed=0, cfg=hostile)
    with pytest.raises(GenerationError) as alone:
        collect_one_at_a_time(2, 400, 0, hostile)
    assert str(wave.value) == str(alone.value)
    assert "rejected 21 crashed corridor episodes" in str(wave.value)


def test_collect_write_read_and_score_build_no_step_objects(tmp_path,
                                                             monkeypatch):
    built = [0]
    init = ws.TrajectoryStep.__init__

    def counted(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(ws.TrajectoryStep, "__init__", counted)
    data = ex.collect_trajectories("fake", 3, 200, seed=4, cfg=CFG)
    path = tmp_path / "d.bin"
    ex.write_dataset(data, path)
    back = ex.read_dataset(path)
    vae = vb.vae_init(3, (12, 6), 0, width=CFG.scan_width)
    template = po.controller_template(k=3, h_dim=4, mlp_hidden=(8, 6))
    evaluator = po.ImitationEvaluator(vae, back, template)
    evaluator([np.zeros(po.genome_size(template))])
    assert built[0] == 0
    back.episodes[2][-1]  # indexing a step builds exactly that one
    assert built[0] == 1


def test_read_rejects_records_of_the_wrong_shape_or_codes(tmp_path):
    from cheatlab import container as ct

    path = tmp_path / "d.bin"
    ex.write_dataset(small_dataset(episodes=2), path)
    records, meta = ct.read_container(path)
    for name, bad in (("actions", records["actions"][:, :3]),
                      ("depth", records["depth"][:, :-1]),
                      ("classes", records["classes"] + 3.0),
                      ("classes", np.array(1.0))):
        ct.write_container(path, dict(records, **{name: bad}), meta)
        with pytest.raises(IntegrityError):
            ex.read_dataset(path)


@pytest.mark.parametrize("episodes", [1, 4])
def test_a_written_dataset_is_four_whole_set_records(tmp_path, episodes):
    from cheatlab import container as ct

    data = ex.collect_trajectories("fake", episodes, 40, seed=3, cfg=CFG)
    ex.write_dataset(data, tmp_path / "d.bin")
    records, meta = ct.read_container(tmp_path / "d.bin")
    assert list(records) == ["classes", "depth", "actions", "states"]
    for name, arr in records.items():
        assert arr.tobytes() == getattr(data.record, name).astype(float).tobytes()
    assert meta["episode_lengths"] == np.diff(data.record.offsets).tolist()
    assert len(meta["episode_lengths"]) == episodes


def test_read_refuses_any_record_set_but_the_four(tmp_path):
    # The per-episode layout datasets were once written in, a set missing
    # a record and one with an extra record are each refused whole.
    from cheatlab import container as ct

    data = small_dataset(episodes=2)
    path = tmp_path / "d.bin"
    ex.write_dataset(data, path)
    records, meta = ct.read_container(path)
    per_episode = {f"ep{e:05d}/{name}": getattr(data.record.episode(e), name)
                   for e in range(2) for name in records}
    for bad in (per_episode,
                {k: v for k, v in records.items() if k != "states"},
                dict(records, offsets=np.array([[0.0]]))):
        ct.write_container(path, bad, meta)
        with pytest.raises(IntegrityError, match="dataset holds records"):
            ex.read_dataset(path)
