"""Substitute-encoder tests: pairing, frozen-weight contract, training."""

import math
from dataclasses import replace

import numpy as np
import pytest

from cheatlab import cheat as ch
from cheatlab import policy as po
from cheatlab import vae as vb
from cheatlab.container import (
    load_checkpoint,
    params_digest,
    read_container,
    write_container,
)
from cheatlab.errors import (
    ContractError,
    DimensionError,
    FrozenWeightError,
    GenerationError,
    IntegrityError,
)
from cheatlab.worldsim import (
    DEFAULT_SIM,
    DroneState,
    Drones,
    Gate,
    Observation,
    WorldSpec,
    _derive_seed,
    render_observation,
    spawn_real_world,
    start_state,
    virtual_gate,
    wrap_angle,
)


@pytest.fixture(scope="module")
def frozen_vae():
    return vb.vae_init(4, (24, 12), 0, width=DEFAULT_SIM.scan_width)


@pytest.fixture(scope="module")
def pair_bank(frozen_vae):
    return ch.build_pairs(5, 90, frozen_vae, mode="virtual_gate", density=0.4)


def test_zero_encoder_predicts_zero(frozen_vae):
    p = ch.cheat_init(4, (8, 8), 0)
    for name in p.params.names():
        p.params[name].data[...] = 0.0
    mu = ch.cheat_encode(p, spawn_and_render(0).features()[None])
    assert mu.shape == (1, 4)
    assert np.all(mu == 0.0)


def spawn_and_render(seed):
    world = spawn_real_world(seed, 0.4)
    return render_observation(world, start_state(world))


def test_encode_shape_and_width_check():
    p = ch.cheat_init(6, (16, 8), 1, width=DEFAULT_SIM.scan_width)
    x = spawn_and_render(1).features()[None]
    assert ch.cheat_encode(p, x).shape == (1, 6)
    small = ch.cheat_init(6, (16, 8), 1, width=32)
    with pytest.raises(DimensionError):
        ch.cheat_encode(small, x)


# ---------------------------------------------------------------------------
# pair construction


def matched_fake_reference(gate, state, cfg=DEFAULT_SIM):
    """The matched corridor scan, one pose at a time: a scene per gate,
    rendered alone as one Observation."""
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


def lone_mu(vae, obs):
    """The frozen encoder's mean for one observation, encoded alone."""
    return vb.encode(vae, obs.features()[None])[0][0]


def reference_pairs(real_seed, n_poses, vae, mode, density, cfg=DEFAULT_SIM):
    """build_pairs one pose at a time: each room spawned, gated, rendered
    and encoded alone (B = 1 kernels, the lone encode). Returns the pairs
    as a Pairs block and the number of rooms tried."""
    pairs = []
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
            gate = ch._nearest_forward_gate(world, state, cfg)
        if gate is None:
            continue
        real_obs = render_observation(world, state, cfg)
        mu = lone_mu(vae, matched_fake_reference(gate, state, cfg))
        pose = (*state.position, state.yaw)
        pairs.append((real_obs.classes.astype(np.int8), real_obs.depth, mu,
                      pose, (*gate.center, gate.yaw, gate.half_width,
                             gate.frame_thickness)))
    return ch.Pairs(*(np.array(f) for f in zip(*pairs))), attempts


def assert_same_pairs(got, want):
    for name in ("classes", "depth", "target_mu", "poses", "gates"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


# Each case spans more than one wave of at most ch._WAVE_ROOMS rooms.
@pytest.mark.parametrize("mode, seed, n, density, size, rejects", [
    ("virtual_gate", 5, 30, 0.4, 20.0, False),
    ("virtual_gate", 0, 4, 0.0, 7.0, True),
    ("gates_visible", 11, 20, 0.25, 20.0, True),
])
def test_build_pairs_matches_the_per_pose_reference(frozen_vae, monkeypatch,
                                                    mode, seed, n, density,
                                                    size, rejects):
    cfg = replace(DEFAULT_SIM, room_size=size)
    want, attempts = reference_pairs(seed, n, frozen_vae, mode, density, cfg)
    assert (attempts > n) == rejects
    spawned = [0]

    def counted(*args, _spawn=ch.spawn_real_world, **kwargs):
        spawned[0] += 1
        return _spawn(*args, **kwargs)

    monkeypatch.setattr(ch, "spawn_real_world", counted)
    got = ch.build_pairs(seed, n, frozen_vae, mode=mode, density=density,
                         cfg=cfg)
    assert spawned[0] == attempts
    assert_same_pairs(got, want)


def test_pair_targets_recompute_exactly(frozen_vae, pair_bank):
    for i in range(20):
        x, y, z, yaw = pair_bank.poses[i].tolist()
        state = DroneState((x, y, z), yaw, 0.0, False)
        classes, depth = ch.matched_fake_observation(
            [pair_bank.gate(i)], Drones.of([state]))
        mu = lone_mu(frozen_vae, Observation(classes[0], depth[0]))
        assert np.array_equal(mu, pair_bank.target_mu[i])
        assert np.all(np.isfinite(pair_bank.target_mu[i]))
        assert pair_bank.target_mu[i].shape == (frozen_vae.k,)


def test_build_pairs_deterministic(frozen_vae):
    a = ch.build_pairs(9, 12, frozen_vae, mode="virtual_gate", density=0.3)
    b = ch.build_pairs(9, 12, frozen_vae, mode="virtual_gate", density=0.3)
    assert len(a) == len(b) == 12
    assert_same_pairs(a, b)


def test_empty_room_pair_targets_centered_gate(frozen_vae):
    # Density zero: the widest gap spans the whole fan, so the virtual gate
    # sits d_gate straight ahead at the pose's own yaw. Rebuild that gate by
    # hand and the encoding must match the pair target exactly.
    cfg = replace(DEFAULT_SIM, room_size=60.0)
    pairs = ch.build_pairs(3, 3, frozen_vae, mode="virtual_gate",
                           density=0.0, cfg=cfg)
    for i in range(len(pairs)):
        x, y, z, yaw = pairs.poses[i].tolist()
        gate = Gate(
            center=(
                x + cfg.d_gate * np.cos(yaw),
                y + cfg.d_gate * np.sin(yaw),
                z,
            ),
            yaw=yaw,
            half_width=cfg.gate_half_width,
            frame_thickness=cfg.frame_thickness,
        )
        assert pairs.gate(i) == gate
        state = DroneState((x, y, z), yaw, 0.0, False)
        mu = lone_mu(frozen_vae, matched_fake_reference(gate, state, cfg))
        assert np.array_equal(mu, pairs.target_mu[i])
        # The virtual gate never shows up in the real rendering: the room
        # holds no gate geometry, only walls and clutter.
        assert np.all(pairs.classes[i] != 1)


def test_gates_visible_mode_picks_scan_cone_gates(frozen_vae):
    pairs = ch.build_pairs(11, 10, frozen_vae, mode="gates_visible", density=0.25)
    half_fov = np.deg2rad(DEFAULT_SIM.fov_deg) / 2
    for i in range(len(pairs)):
        x, y, z, yaw = pairs.poses[i].tolist()
        gate = pairs.gate(i)
        dx = gate.center[0] - x
        dy = gate.center[1] - y
        bearing = np.arctan2(dy, dx) - yaw
        bearing = (bearing + np.pi) % (2 * np.pi) - np.pi
        assert np.hypot(dx, dy) <= DEFAULT_SIM.d_max + 1e-12
        assert abs(bearing) <= half_fov + 1e-12
        state = DroneState((x, y, z), yaw, 0.0, False)
        mu = lone_mu(frozen_vae, matched_fake_reference(gate, state))
        assert np.array_equal(mu, pairs.target_mu[i])


def test_build_pairs_argument_checks(frozen_vae):
    with pytest.raises(ContractError):
        ch.build_pairs(0, 0, frozen_vae)
    with pytest.raises(ContractError):
        ch.build_pairs(0, 5, frozen_vae, mode="telepathy")


def test_build_pairs_rejection_cap(frozen_vae):
    # A 4 m room leaves every wall closer than d_gate = 6 m, so no gap ever
    # qualifies and every pose is rejected until the cap trips.
    cramped = replace(DEFAULT_SIM, room_size=4.0)
    with pytest.raises(GenerationError):
        ch.build_pairs(0, 2, frozen_vae, mode="virtual_gate",
                       density=0.0, cfg=cramped)
    # In a 6.5 m room a few gaps qualify: the cap trips with 3 of 5 pairs
    # found, at the same attempt as one room at a time.
    tight = replace(DEFAULT_SIM, room_size=6.5)
    for cfg, n in ((cramped, 2), (tight, 5)):
        with pytest.raises(GenerationError) as want:
            reference_pairs(0, n, frozen_vae, "virtual_gate", 0.0, cfg)
        with pytest.raises(GenerationError) as got:
            ch.build_pairs(0, n, frozen_vae, mode="virtual_gate",
                           density=0.0, cfg=cfg)
        assert str(got.value) == str(want.value)
    assert "(50 attempts for 3/5 pairs" in str(got.value)


# ---------------------------------------------------------------------------
# training and the frozen contract


def make_frozen(frozen_vae):
    ctrl = po.controller_from_genome(
        np.random.default_rng(8).normal(0, 0.1, po.genome_size(
            po.controller_template(k=frozen_vae.k))),
        po.controller_template(k=frozen_vae.k),
    )
    return frozen_vae, ctrl


def test_train_zero_epochs_returns_init(frozen_vae, pair_bank):
    frozen = make_frozen(frozen_vae)
    cfg = ch.CheatTrainConfig(epochs=0, hidden=(16, 8), seed=3)
    p, history, digests = ch.train_cheat(pair_bank, frozen, cfg)
    init = ch.cheat_init(frozen_vae.k, (16, 8), 3, width=DEFAULT_SIM.scan_width)
    assert params_digest(p.params) == params_digest(init.params)
    assert history == []
    assert digests["vae"] == params_digest(frozen_vae.params)


def test_train_freezes_vae_and_controller(frozen_vae, pair_bank):
    frozen = make_frozen(frozen_vae)
    before_v = params_digest(frozen[0].params)
    before_c = params_digest(frozen[1].params)
    cfg = ch.CheatTrainConfig(epochs=8, batch=32, hidden=(32, 16), seed=0)
    p, history, digests = ch.train_cheat(pair_bank, frozen, cfg)
    assert params_digest(frozen[0].params) == before_v == digests["vae"]
    assert params_digest(frozen[1].params) == before_c == digests["controller"]
    assert len(history) == 8
    assert all(np.isfinite(v) for v in history)
    # Post-hoc full-dataset loss at the final parameters stays at or below
    # the first epoch's level (non-divergence guard).
    assert ch.cheat_loss(p, pair_bank) <= history[0]


def test_train_is_deterministic(frozen_vae, pair_bank):
    frozen = make_frozen(frozen_vae)
    cfg = ch.CheatTrainConfig(epochs=3, batch=32, hidden=(16, 8), seed=1)
    p1, h1, _ = ch.train_cheat(pair_bank, frozen, cfg)
    p2, h2, _ = ch.train_cheat(pair_bank, frozen, cfg)
    assert params_digest(p1.params) == params_digest(p2.params)
    assert h1 == h2


def test_training_halves_held_out_error(frozen_vae, pair_bank):
    # Seeded run vs the untrained init on twenty held-out pairs.
    train, held = pair_bank[:70], pair_bank[70:]
    frozen = make_frozen(frozen_vae)
    cfg = ch.CheatTrainConfig(epochs=120, batch=16, lr=1e-3,
                              hidden=(64, 32), seed=0)
    p, _, _ = ch.train_cheat(train, frozen, cfg)
    init = ch.cheat_init(frozen_vae.k, cfg.hidden, cfg.seed,
                         width=DEFAULT_SIM.scan_width)
    trained_err = ch.cheat_loss(p, held)
    untrained_err = ch.cheat_loss(init, held)
    assert trained_err <= 0.5 * untrained_err


def test_train_rejects_empty_or_mixed_pairs(frozen_vae, pair_bank):
    frozen = make_frozen(frozen_vae)
    with pytest.raises(ContractError):
        ch.train_cheat(pair_bank[:0], frozen)
    few = pair_bank[:3]
    bad = replace(few, target_mu=np.zeros((3, frozen_vae.k + 1)))
    with pytest.raises(ContractError):
        ch.train_cheat(bad, frozen, ch.CheatTrainConfig(epochs=1))


def test_frozen_weight_guardrail_fires_on_mutation(frozen_vae, pair_bank):
    # Sabotage train_cheat's own invariant by mutating the frozen model from
    # a hook that training happens to call; the digest check must notice.
    frozen = make_frozen(frozen_vae)
    vae_copy = vb.VaeParams(
        frozen[0].params.copy(), frozen[0].k, frozen[0].hidden, frozen[0].width
    )

    class EvilPairs(ch.Pairs):
        def features(self, rows=slice(None)):
            vae_copy.params["enc/w0"].data[0, 0] += 1.0
            return super().features(rows)

    few = pair_bank[:4]
    evil = EvilPairs(few.classes, few.depth, few.target_mu, few.poses,
                     few.gates)
    with pytest.raises(FrozenWeightError):
        ch.train_cheat(evil, (vae_copy, frozen[1]),
                       ch.CheatTrainConfig(epochs=1, hidden=(8, 4)))


# ---------------------------------------------------------------------------
# digests and persistence


def test_params_digest_copy_and_avalanche(frozen_vae):
    p = ch.cheat_init(3, (8, 4), 0)
    twin = ch.cheat_init(3, (8, 4), 0)
    assert params_digest(p.params) == params_digest(twin.params)
    before = params_digest(p.params)
    w = p.params["cheat/w0"].data
    w[0, 0] = np.nextafter(w[0, 0], np.inf)  # flip the lowest mantissa bit
    assert params_digest(p.params) != before


def test_pairs_roundtrip_and_byte_stability(pair_bank, tmp_path):
    subset = pair_bank[:15]
    path_a = tmp_path / "a.bin"
    path_b = tmp_path / "b.bin"
    ch.write_pairs(path_a, subset, {"mode": "virtual_gate", "real_seed": 5})
    ch.write_pairs(path_b, subset, {"mode": "virtual_gate", "real_seed": 5})
    assert path_a.read_bytes() == path_b.read_bytes()
    back, meta = ch.read_pairs(path_a)
    assert meta["mode"] == "virtual_gate" and meta["count"] == 15
    assert_same_pairs(back, subset)
    with pytest.raises(ContractError):
        ch.write_pairs(tmp_path / "c.bin", pair_bank[:0])


def test_read_pairs_rejects_wrong_kind(frozen_vae, tmp_path):
    path = tmp_path / "vae.ckpt"
    vb.save_vae(frozen_vae, path)
    with pytest.raises(IntegrityError):
        ch.read_pairs(path)


@pytest.mark.parametrize("edit", [
    "target_mu 3 rows short",
    "gates cut to 4 columns",
    "poses cut to 3 columns",
    "class code 7",
    "depth missing",
    "an extra record",
    "width not an integer",
])
def test_read_pairs_rejects_malformed_records(pair_bank, tmp_path, edit):
    # Each file is rewritten with a valid checksum, so only read_pairs'
    # own checks stand between it and the trainer.
    good = tmp_path / "good.bin"
    ch.write_pairs(good, pair_bank[:10])
    records, meta = read_container(good)
    if edit == "target_mu 3 rows short":
        records["target_mu"] = records["target_mu"][:-3]
    elif edit == "gates cut to 4 columns":
        records["gates"] = records["gates"][:, :4]
    elif edit == "poses cut to 3 columns":
        records["poses"] = records["poses"][:, :3]
    elif edit == "class code 7":
        records["classes"][2, 5] = 7.0
    elif edit == "depth missing":
        del records["depth"]
    elif edit == "an extra record":
        records["offsets"] = np.zeros((10, 1))
    else:
        meta["width"] = 64.5
    path = tmp_path / "bad.bin"
    write_container(path, records, meta)
    with pytest.raises(IntegrityError):
        ch.read_pairs(path)


def test_train_cheat_on_malformed_pairs_exits_three(pair_bank, tmp_path,
                                                     capsys):
    from cheatlab import cli

    ch.write_pairs(tmp_path / "good.bin", pair_bank[:10])
    records, meta = read_container(tmp_path / "good.bin")
    records["target_mu"] = records["target_mu"][:-3]
    write_container(tmp_path / "pairs.bin", records, meta)
    # train-cheat reads the pairs before either checkpoint.
    for name in ("vae.ckpt", "controller.ckpt"):
        (tmp_path / name).write_bytes(b"unread")
    code = cli.main(["train-cheat", "--set", f"out_dir={tmp_path}"])
    assert code == 3
    assert "train-cheat:" in capsys.readouterr().err


def test_pair_path_builds_no_observation(frozen_vae, pair_bank, tmp_path,
                                         monkeypatch):
    # Pairs are built, written, read and trained on as arrays.
    built = [0]

    def counted(self, *args, _init=Observation.__init__, **kwargs):
        built[0] += 1
        _init(self, *args, **kwargs)

    monkeypatch.setattr(Observation, "__init__", counted)
    for mode in ("virtual_gate", "gates_visible"):
        pairs = ch.build_pairs(11, 10, frozen_vae, mode=mode, density=0.25)
    ch.write_pairs(tmp_path / "pairs.bin", pairs)
    back, _ = ch.read_pairs(tmp_path / "pairs.bin")
    ch.train_cheat(back, make_frozen(frozen_vae),
                   ch.CheatTrainConfig(epochs=2, hidden=(8, 4)))
    assert built[0] == 0
    Observation(back.classes[0], back.depth[0])
    assert built[0] == 1


def test_cheat_checkpoint_roundtrip(frozen_vae, pair_bank, tmp_path):
    frozen = make_frozen(frozen_vae)
    cfg = ch.CheatTrainConfig(epochs=2, hidden=(16, 8), seed=4)
    p, _, digests = ch.train_cheat(pair_bank[:30], frozen, cfg)
    path = tmp_path / "cheat.ckpt"
    ch.save_cheat(p, path, digests)
    back = ch.load_cheat(path)
    assert params_digest(back.params) == params_digest(p.params)
    assert (back.k, back.hidden, back.width) == (p.k, p.hidden, p.width)
    meta = load_checkpoint(path).metadata
    assert meta["frozen"] == digests
