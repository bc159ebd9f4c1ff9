"""Evaluation protocol, baseline cloning, reports, and belief strips."""

import csv
import hashlib
import io

import numpy as np
import pytest

from cheatlab import cheat as ch
from cheatlab import evaluation as ev
from cheatlab import policy as po
from cheatlab import vae as vb
from cheatlab.container import params_digest
from cheatlab.errors import ContractError, DimensionError
from cheatlab.expert import collect_trajectories
from cheatlab.worldsim import DEFAULT_SIM, WorldSpec, fly, spawn_real_world


@pytest.fixture(scope="module")
def tiny_models():
    vae = vb.vae_init(4, (24, 12), 0, width=DEFAULT_SIM.scan_width)
    tmpl = po.controller_template(k=4)
    ctrl = po.controller_from_genome(
        np.random.default_rng(1).normal(0, 0.1, po.genome_size(tmpl)), tmpl
    )
    cheat = ch.cheat_init(4, (16, 8), 0, width=DEFAULT_SIM.scan_width)
    return {"vae": vae, "controller": ctrl, "cheat": cheat}


def test_zero_pipeline_scores_zero():
    report = ev.eval_mean_distance("zero", None, seeds=[0, 1, 2], max_steps=50)
    assert report.odometers == (0.0, 0.0, 0.0)
    assert report.mean_distance == 0.0
    assert report.crashed == (False, False, False)
    assert report.crash_rate == 0.0
    assert report.episodes == 3 and report.seeds == (0, 1, 2)


def test_probe_stops_one_step_shy_of_the_wall():
    # Constant 1 m/s straight at a wall 10 m ahead: the crash odometer must
    # land within one step length of 10 minus the collision radius.
    cfg = DEFAULT_SIM
    world = WorldSpec(
        kind="real",
        bounds=(-5.0, -5.0, 10.0, 5.0),
        obstacles=(),
        gates=(),
        seed=0,
        start=(0.0, 0.0, 1.5, 0.0),
    )
    forward = lambda flock, _drones, _scans: np.tile((1.0, 0.0, 0.0, 0.0),
                                                     (len(flock), 1))
    _, (state,) = fly([world], forward, 1000, cfg, blind=True)
    assert state.crashed
    expect = 10.0 - cfg.collision_radius
    assert abs(state.odometer - expect) <= cfg.dt * 1.0 + 1e-12


def test_mean_matches_recomputed_mean_and_is_reproducible(tiny_models):
    r1 = ev.eval_mean_distance("random", None, seeds=[3, 4, 5, 6],
                               max_steps=200)
    r2 = ev.eval_mean_distance("random", None, seeds=[3, 4, 5, 6],
                               max_steps=200)
    assert r1 == r2
    assert np.isclose(r1.mean_distance, np.mean(r1.odometers), rtol=1e-12)
    assert any(od > 0 for od in r1.odometers)


def test_random_flier_actually_travels():
    report = ev.eval_mean_distance("random", None, seeds=list(range(6)),
                                   max_steps=400)
    assert report.mean_distance > 1.0


def test_cheat_pipeline_runs_and_matches_rollout(tiny_models):
    seeds = [7, 8]
    report = ev.eval_mean_distance("cheat", tiny_models, seeds, max_steps=60)
    for seed, od, crashed in zip(seeds, report.odometers, report.crashed):
        world = spawn_real_world(seed, 0.4, with_gates=False)
        res = po.rollout(world, tiny_models["vae"], tiny_models["controller"],
                         60, encoder="cheat", cheat=tiny_models["cheat"])
        assert res.odometer == od
        assert res.crashed == crashed


def test_pipeline_model_mismatch_errors(tiny_models):
    with pytest.raises(ContractError):
        ev.eval_mean_distance("cheat", {}, seeds=[0])
    with pytest.raises(ContractError):
        ev.eval_mean_distance("baseline", {"baseline": tiny_models["vae"]},
                              seeds=[0])
    with pytest.raises(ContractError):
        ev.eval_mean_distance("warp", None, seeds=[0])
    with pytest.raises(ContractError):
        ev.eval_mean_distance("zero", None, seeds=[])
    for hold_steps in (0, -3):
        with pytest.raises(ContractError, match="hold_steps"):
            ev.eval_mean_distance("random", None, seeds=[0], max_steps=5,
                                  hold_steps=hold_steps)


# ---------------------------------------------------------------------------
# baseline


@pytest.fixture(scope="module")
def real_data():
    return collect_trajectories("real", 4, 150, seed=2, cfg=DEFAULT_SIM,
                                clutter_density=0.35)


def test_baseline_train_deterministic_and_loss_falls(real_data):
    cfg = ev.BaselineTrainConfig(epochs=20, batch=64, hidden=(32, 16), seed=0)
    p1, h1 = ev.train_baseline(real_data, cfg)
    p2, h2 = ev.train_baseline(real_data, cfg)
    assert params_digest(p1.params) == params_digest(p2.params)
    assert h1 == h2
    assert h1[-1] < h1[0]
    assert len(h1) == 20


def test_baseline_zero_epochs_is_init(real_data):
    cfg = ev.BaselineTrainConfig(epochs=0, hidden=(16, 8), seed=5)
    p, history = ev.train_baseline(real_data, cfg)
    init = ev.baseline_init((16, 8), 5, width=DEFAULT_SIM.scan_width)
    assert params_digest(p.params) == params_digest(init.params)
    assert history == []


def test_baseline_rejects_wrong_kind():
    fake = collect_trajectories("fake", 1, 40, seed=0)
    with pytest.raises(ContractError):
        ev.train_baseline(fake)


def test_baseline_action_is_clamped(real_data):
    p = ev.baseline_init((8, 4), 0)
    for name in p.params.names():
        if name.endswith("w2") or name.endswith("b2"):
            p.params[name].data[...] = 50.0
    x = real_data.record.features([0])
    (vx, _, _, yaw_rate), = ev.baseline_action(p, x)
    assert vx <= DEFAULT_SIM.v_max and yaw_rate <= DEFAULT_SIM.yaw_rate_max
    narrow = ev.baseline_init((8, 4), 0, width=32)
    with pytest.raises(DimensionError):
        ev.baseline_action(narrow, x)


# ---------------------------------------------------------------------------
# reports


def test_comparison_report_roundtrip_and_sorting(tiny_models):
    seeds = [0, 1, 2]
    reports = [
        ev.eval_mean_distance("random", None, seeds, max_steps=100),
        ev.eval_mean_distance("zero", None, seeds, max_steps=100),
    ]
    text, blob = ev.comparison_report(reports)
    rows = list(csv.DictReader(io.StringIO(blob)))
    assert [r["method"] for r in rows] == ["random", "zero"]
    by_method = {r.method: r for r in reports}
    for row in rows:
        ref = by_method[row["method"]]
        assert float(row["mean_distance_m"]) == ref.mean_distance
        assert float(row["crash_rate"]) == ref.crash_rate
        assert int(row["episodes"]) == ref.episodes
    lines = text.splitlines()
    assert lines[0].split() == ["method", "mean_distance_m", "crash_rate",
                                "episodes"]
    assert len(lines) == 3
    # Single report reduces to a single row.
    _, single = ev.comparison_report([reports[1]])
    assert len(single.strip().splitlines()) == 2


def test_comparison_report_requires_matching_suites():
    a = ev.eval_mean_distance("zero", None, [0, 1], max_steps=10)
    b = ev.eval_mean_distance("zero", None, [0, 2], max_steps=10)
    with pytest.raises(ContractError):
        ev.comparison_report([a, b])
    with pytest.raises(ContractError):
        ev.comparison_report([])


def test_comparison_report_byte_stable(tiny_models):
    seeds = [1, 2]
    make = lambda: ev.comparison_report([
        ev.eval_mean_distance("random", None, seeds, max_steps=150),
        ev.eval_mean_distance("zero", None, seeds, max_steps=150),
    ])
    assert make() == make()


# ---------------------------------------------------------------------------
# belief strips


def pgm_parse(blob: bytes):
    # Minimal P5 reader: magic, comments, dims, maxval, raw payload.
    assert blob.startswith(b"P5\n")
    rest = blob[3:]
    tokens = []
    while len(tokens) < 3:
        line, rest = rest.split(b"\n", 1)
        if line.startswith(b"#"):
            continue
        tokens.extend(line.split())
    w, h, maxval = (int(t) for t in tokens[:3])
    pixels = np.frombuffer(rest, dtype=np.uint8)
    assert pixels.size == w * h
    return w, h, maxval, pixels.reshape(h, w)


def one_step_trace(models, seed=0):
    """A one-step cheated flight: the scan seen at the start pose."""
    world = spawn_real_world(seed, 0.4, with_gates=False)
    return po.rollout(world, models["vae"], models["controller"], 1,
                      encoder="cheat", cheat=models["cheat"])


def test_belief_strip_shape_and_stability(tiny_models, tmp_path):
    trace = one_step_trace(tiny_models)
    assert len(trace.steps) == 1
    path = tmp_path / "strip.pgm"
    blob = ev.render_belief_strip(trace, tiny_models["cheat"],
                                  tiny_models["vae"], 1, path, band_height=8)
    assert path.read_bytes() == blob
    w, h, maxval, img = pgm_parse(blob)
    assert (w, h, maxval) == (DEFAULT_SIM.scan_width, 16, 255)
    again = ev.render_belief_strip(trace, tiny_models["cheat"],
                                   tiny_models["vae"], 1, tmp_path / "b.pgm")
    assert again == blob


def test_belief_strip_stride_and_digests(tiny_models, tmp_path):
    world = spawn_real_world(3, 0.4, with_gates=False)
    res = po.rollout(world, tiny_models["vae"], tiny_models["controller"],
                     40, encoder="cheat", cheat=tiny_models["cheat"])
    before = (params_digest(tiny_models["cheat"].params),
              params_digest(tiny_models["vae"].params))
    blob = ev.render_belief_strip(res, tiny_models["cheat"],
                                  tiny_models["vae"], 7, tmp_path / "s.pgm",
                                  band_height=4)
    after = (params_digest(tiny_models["cheat"].params),
             params_digest(tiny_models["vae"].params))
    assert before == after
    n_tiles = len(res.steps[::7])
    w, h, _, img = pgm_parse(blob)
    assert w == n_tiles * DEFAULT_SIM.scan_width and h == 8
    # Top band must be the drawn observation: check tile 0 row exactly.
    obs = res.steps[0].observation
    want = np.clip(np.rint(obs.classes * 0.5 * obs.depth * 255), 0, 255)
    assert np.array_equal(img[0, : DEFAULT_SIM.scan_width], want)


# sha256 of render_belief_strip's bytes for these flights, computed before
# the strip encoded and decoded its tiles as one batch.
PINNED_STRIPS = {
    (3, 120, 7, 4): "c22c203942b6c0d05f94cc0d29ee4927"
                    "201acf30a74c42c513a97c77b3946e65",
    (8, 200, 1, 2): "7ea59fea9d88a09d7265374e686c2bdc"
                    "35865d01b97e2389f02e8a32a9376f7b",
}


@pytest.mark.parametrize("args", sorted(PINNED_STRIPS))
def test_belief_strip_bytes_are_pinned(tiny_models, tmp_path, args):
    seed, steps, stride, band = args
    res = po.rollout(spawn_real_world(seed, 0.4, with_gates=False),
                     tiny_models["vae"], tiny_models["controller"], steps,
                     encoder="cheat", cheat=tiny_models["cheat"])
    blob = ev.render_belief_strip(res, tiny_models["cheat"],
                                  tiny_models["vae"], stride,
                                  tmp_path / "s.pgm", band_height=band)
    assert hashlib.sha256(blob).hexdigest() == PINNED_STRIPS[args]


def test_belief_strip_zero_encoder_constant_bottom(tiny_models, tmp_path):
    zero = ch.cheat_init(4, (16, 8), 0)
    for name in zero.params.names():
        zero.params[name].data[...] = 0.0
    world = spawn_real_world(5, 0.4, with_gates=False)
    res = po.rollout(world, tiny_models["vae"], tiny_models["controller"],
                     30, encoder="cheat", cheat=zero)
    blob = ev.render_belief_strip(res, zero, tiny_models["vae"], 5,
                                  tmp_path / "z.pgm", band_height=3)
    w, h, _, img = pgm_parse(blob)
    W = DEFAULT_SIM.scan_width
    bottom = img[3:, :]
    first = bottom[:, :W]
    for t in range(1, w // W):
        assert np.array_equal(bottom[:, t * W : (t + 1) * W], first)


def test_belief_strip_contract_checks(tiny_models, tmp_path):
    # A flight that starts against a wall has crashed there, with no step.
    walled = WorldSpec(kind="real", bounds=(0.0, 0.0, 20.0, 20.0),
                       obstacles=(), gates=(), seed=0,
                       start=(0.1, 10.0, 1.5, 0.0))
    empty = po.rollout(walled, tiny_models["vae"], tiny_models["controller"],
                       10, encoder="cheat", cheat=tiny_models["cheat"])
    assert len(empty.steps) == 0 and empty.crashed
    with pytest.raises(ContractError):
        ev.render_belief_strip(empty, tiny_models["cheat"], tiny_models["vae"],
                               1, tmp_path / "x.pgm")
    with pytest.raises(ContractError):
        ev.render_belief_strip(one_step_trace(tiny_models), tiny_models["cheat"],
                               tiny_models["vae"], 0, tmp_path / "x.pgm")
