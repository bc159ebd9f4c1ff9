"""Acceptance gate: every headline claim, one pass/fail line each.

Each criterion prints `criterion N: PASS/FAIL - detail` on the real
stdout (so the lines survive pytest capture) and then asserts. Heavy
artifacts build once per session at the shipped defaults; the whole file
is a full-scale end-to-end run and takes roughly half an hour on one
core. Criteria with a runtime budget assert it too.
"""

import math
import sys
import time

import numpy as np
import pytest
from scipy import stats

from cheatlab import autodiff as ad
from cheatlab.cheat import CheatTrainConfig, build_pairs, train_cheat
from cheatlab.cli import main as cli_main
from cheatlab.config import load_config
from cheatlab.container import params_digest
from cheatlab.evaluation import (
    BaselineTrainConfig,
    eval_mean_distance,
    render_belief_strip,
    train_baseline,
)
from cheatlab.expert import (
    Dataset,
    collect_trajectories,
    expert_action,
    next_gate_index,
)
from cheatlab.policy import (
    EvolutionConfig,
    ImitationEvaluator,
    LstmBatch,
    controller_from_genome,
    controller_step,
    controller_template,
    evolve,
    genome_size,
    rollout,
)
from cheatlab.vae import VaeTrainConfig, encode_rows, train_vae
from cheatlab.worldsim import (
    DroneState,
    Drones,
    Record,
    _derive_seed,
    count_gates_passed,
    fly,
    point_in_collision,
    render_observation,
    spawn_fake_world,
    spawn_real_world,
    step_dynamics,
)

CFG = load_config()  # shipped defaults; every stage below mirrors the CLI
SIM = CFG.sim()


def _report(n: int, ok: bool, detail: str) -> None:
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, file=sys.__stdout__, flush=True)
    print(line)
    assert ok, line


def _first_n_observations(data: Dataset, n: int) -> Dataset:
    """Trim a trajectory dataset to exactly n leading observations."""
    rec = data.record
    if len(rec.actions) < n:
        raise AssertionError(f"dataset holds {len(rec.actions)} < {n} "
                             "observations")
    # Every episode that opens before row n, the last one cut there.
    offsets = np.minimum(rec.offsets[: np.searchsorted(rec.offsets, n) + 1], n)
    cut = Record(rec.classes[:n], rec.depth[:n], rec.actions[:n],
                 rec.states[:n], offsets)
    return Dataset(cut, data.world_kind, data.generator_seed,
                   dict(data.manifest))


# ---------------------------------------------------------------------------
# criterion 1: gradient integrity


def _fd_worst_error(build, params: ad.ParamSet, h: float = 1e-5) -> float:
    """Largest guarded relative error of backward() vs central differences."""
    grads = ad.backward(build(params), params)
    worst = 0.0
    for name, t in params.items():
        flat = t.data.ravel()
        g = grads[name].data.ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = float(build(params).data)
            flat[i] = keep - h
            dn = float(build(params).data)
            flat[i] = keep
            fd = (up - dn) / (2.0 * h)
            err = abs(float(g[i]) - fd) / max(abs(fd), abs(float(g[i])), 1.0)
            worst = max(worst, err)
    return worst


def _sq(x: ad.Tensor) -> ad.Tensor:
    return ad.vsum(ad.mul(x, x))


def _primitive_case(kind: str, rng: np.random.Generator):
    """One (params, build) pair exercising a single primitive."""
    n = int(rng.integers(2, 6))
    m = int(rng.integers(2, 6))
    if kind == "affine":
        ps = ad.ParamSet({"w": rng.normal(size=(m, n)), "x": rng.normal(size=n),
                          "b": rng.normal(size=m)})
        return ps, lambda p: _sq(ad.affine(p["w"], p["x"], p["b"]))
    if kind in ("tanh", "sigmoid", "exp"):
        ps = ad.ParamSet({"x": rng.normal(size=n)})
        return ps, lambda p: _sq(ad.activation(kind, p["x"]))
    if kind == "relu":
        # keep inputs off the kink so the finite difference is valid
        x = rng.normal(size=n)
        x = np.where(np.abs(x) < 1e-2, x + np.sign(x + 0.5) * 0.1, x)
        ps = ad.ParamSet({"x": x})
        return ps, lambda p: _sq(ad.activation("relu", p["x"]))
    if kind == "concat":
        ps = ad.ParamSet({"a": rng.normal(size=n), "b": rng.normal(size=m)})
        return ps, lambda p: _sq(ad.concat(p["a"], p["b"]))
    if kind == "narrow":
        ps = ad.ParamSet({"x": rng.normal(size=n + 2)})
        start = int(rng.integers(0, 2))
        return ps, lambda p: _sq(ad.narrow(p["x"], start, start + n))
    if kind == "add":
        ps = ad.ParamSet({"a": rng.normal(size=n), "b": rng.normal(size=n)})
        return ps, lambda p: _sq(ad.add(p["a"], p["b"]))
    if kind == "mul":
        ps = ad.ParamSet({"a": rng.normal(size=n), "b": rng.normal(size=n)})
        return ps, lambda p: _sq(ad.mul(p["a"], p["b"]))
    if kind == "scale":
        ps = ad.ParamSet({"x": rng.normal(size=n)})
        c = float(rng.normal())
        return ps, lambda p: _sq(ad.scale(p["x"], c))
    if kind == "vsum":
        ps = ad.ParamSet({"x": rng.normal(size=n)})
        return ps, lambda p: ad.mul(ad.vsum(p["x"]), ad.vsum(p["x"]))
    if kind == "mse":
        ps = ad.ParamSet({"pred": rng.normal(size=n)})
        tgt = ad.constant(rng.normal(size=n))
        return ps, lambda p: ad.mse(p["pred"], tgt)
    if kind == "gaussian_kl":
        ps = ad.ParamSet({"mu": rng.normal(size=n),
                          "logvar": rng.normal(size=n)})
        return ps, lambda p: ad.gaussian_kl(p["mu"], p["logvar"])
    raise AssertionError(kind)


PRIMITIVES = (
    "affine", "tanh", "sigmoid", "relu", "exp", "concat", "narrow",
    "add", "mul", "scale", "vsum", "mse", "gaussian_kl",
)


def test_criterion_1_gradient_integrity():
    t0 = time.perf_counter()
    worst = 0.0
    for kind in PRIMITIVES:
        for case in range(100):
            rng = np.random.default_rng(
                _derive_seed(0, "acceptance-grad", kind, case)
            )
            params, build = _primitive_case(kind, rng)
            worst = max(worst, _fd_worst_error(build, params))
    seconds = time.perf_counter() - t0
    ok = worst < 1e-6 and seconds < 60.0
    _report(1, ok,
            f"{len(PRIMITIVES)} primitives x 100 inputs, worst rel err "
            f"{worst:.2e} (< 1e-6), {seconds:.1f}s (< 60s)")


# ---------------------------------------------------------------------------
# criterion 2: simulator audit


def test_criterion_2_simulator_audit():
    t0 = time.perf_counter()
    rng = np.random.default_rng(_derive_seed(0, "acceptance-sim-audit"))
    bad_steps = 0
    bad_renders = 0
    n_checks = 10_000
    worlds = [
        spawn_fake_world(i, cfg=SIM) if i % 2 == 0
        else spawn_real_world(i, 0.5, with_gates=bool(i % 4 == 1), cfg=SIM)
        for i in range(40)
    ]
    for i in range(n_checks):
        world = worlds[i % len(worlds)]
        bx0, by0, bx1, by1 = world.bounds
        x = rng.uniform(bx0 + 0.4, bx1 - 0.4)
        y = rng.uniform(by0 + 0.4, by1 - 0.4)
        if point_in_collision(world, x, y, SIM.collision_radius):
            x, y = world.start[0], world.start[1]
        state = DroneState((x, y, 1.5), rng.uniform(-np.pi, np.pi), 0.0, False)

        obs = render_observation(world, state, SIM)
        render_ok = (
            obs.width == SIM.scan_width
            and set(np.unique(obs.classes)) <= {0, 1, 2}
            and np.all((obs.depth >= 0.0) & (obs.depth <= 1.0))
            and np.array_equal(obs.classes == 0, obs.depth == 0.0)
        )
        bad_renders += int(not render_ok)

        act = rng.uniform([-SIM.v_max] * 3 + [-SIM.yaw_rate_max],
                          [SIM.v_max] * 3 + [SIM.yaw_rate_max])
        nxt = step_dynamics(world.flock, Drones.of([state]), act[None], SIM)
        if not nxt.crashed[0] and point_in_collision(
            world, nxt.x[0], nxt.y[0], SIM.collision_radius
        ):
            bad_steps += 1
    seconds = time.perf_counter() - t0
    ok = bad_steps == 0 and bad_renders == 0 and seconds < 60.0
    _report(2, ok,
            f"{n_checks} random steps: {bad_steps} uncrashed-in-collision; "
            f"{n_checks} renders: {bad_renders} invariant violations; "
            f"{seconds:.1f}s (< 60s)")


# ---------------------------------------------------------------------------
# criterion 3: expert validity


def test_criterion_3_expert_validity():
    t0 = time.perf_counter()
    # The expert reads gate poses, not the scan, so the 100 corridors fly
    # blind in one lock-step batch, each until its drone passes every gate.
    worlds = [spawn_fake_world(_derive_seed(0, "acceptance-expert", i),
                               cfg=SIM) for i in range(100)]
    expert = lambda flock, drones, _scans: expert_action(flock, drones, SIM)
    record, ends = fly(
        worlds, expert, 3000, SIM, blind=True,
        done=lambda flock, drones: next_gate_index(flock, drones) < 0)
    crashes = sum(int(end.crashed) for end in ends)
    # each recorded state's x, y, then where the drone ended
    gates = [count_gates_passed(world, record.states[lo:hi, :2].tolist()
                                + [end.position[:2]])
             for world, (lo, hi), end in zip(worlds, record.spans(), ends)]
    mean_gates = float(np.mean(gates))
    seconds = time.perf_counter() - t0
    ok = crashes == 0 and mean_gates >= SIM.n_gates and seconds < 120.0
    _report(3, ok,
            f"100 worlds: {crashes} crashes (= 0), mean gates "
            f"{mean_gates:.2f} (>= {SIM.n_gates}), {seconds:.1f}s (< 120s)")


# ---------------------------------------------------------------------------
# criteria 4-9 share trained artifacts


@pytest.fixture(scope="session")
def vae_stack():
    t0 = time.perf_counter()
    raw = collect_trajectories(
        "fake", CFG["data.vae_episodes"], CFG["data.vae_max_steps"],
        seed=_derive_seed(CFG["seed"], "gen-fake-data"), cfg=SIM,
    )
    data = _first_n_observations(raw, 2000)
    model, history = train_vae(data, CFG.section("vae", VaeTrainConfig, seed=0))
    return {
        "data": data,
        "model": model,
        "history": history,
        "seconds": time.perf_counter() - t0,
    }


def test_criterion_4_vae_training(vae_stack):
    history = vae_stack["history"]
    model = vae_stack["model"]
    data = vae_stack["data"]
    ratio = history[-1] / history[0]

    x = data.record.features()
    rng = np.random.default_rng(_derive_seed(0, "acceptance-smooth"))
    idx = rng.integers(0, len(x), size=(100, 2))
    d_obs, d_mu = [], []
    for i, j in idx:
        d_obs.append(float(np.linalg.norm(x[i] - x[j])))
        # One-row blocks: a gemv per layer, as each observation alone.
        mu_i = encode_rows(model, x[i][None])[0][0]
        mu_j = encode_rows(model, x[j][None])[0][0]
        d_mu.append(float(np.linalg.norm(mu_i - mu_j)))
    rho = float(stats.spearmanr(d_obs, d_mu).statistic)

    seconds = vae_stack["seconds"]
    ok = ratio <= 0.5 and rho > 0.3 and seconds < 600.0
    _report(4, ok,
            f"2000 obs, k=8, 200 epochs: ELBO ratio {ratio:.3f} (<= 0.5), "
            f"pairwise Spearman rho {rho:.3f} (> 0.3), "
            f"{seconds:.0f}s (< 600s)")


@pytest.fixture(scope="session")
def controller_stack(vae_stack):
    t0 = time.perf_counter()
    model = vae_stack["model"]
    expert_data = collect_trajectories(
        "fake", CFG["data.expert_episodes"], CFG["data.expert_max_steps"],
        seed=_derive_seed(CFG["seed"], "gen-expert"), cfg=SIM,
    )
    template = CFG.section("policy", controller_template, k=model.k, cfg=SIM)
    evaluator = ImitationEvaluator(model, expert_data, template)
    dim = genome_size(template)
    zero_error = -float(evaluator([np.zeros(dim)])[0])
    t_evolve = time.perf_counter()
    best, history = evolve(
        CFG.section("evolve", EvolutionConfig,
                    seed=_derive_seed(CFG["seed"], "train-policy")),
        evaluator, dim,
    )
    evolve_seconds = time.perf_counter() - t_evolve
    ctrl = controller_from_genome(best.values, template)

    gates = []
    for i in range(20):
        world = spawn_fake_world(_derive_seed(CFG["seed"], "held-out", i),
                                 cfg=SIM)
        res = rollout(world, model, ctrl, max_steps=1500, encoder="vae",
                      cfg=SIM)
        positions = [(s.state.position[0], s.state.position[1])
                     for s in res.steps]
        positions.append((res.final_state.position[0],
                          res.final_state.position[1]))
        gates.append(count_gates_passed(world, positions))
    return {
        "ctrl": ctrl,
        "evaluator": evaluator,
        "history": history,
        "zero_error": zero_error,
        "best_error": -best.fitness,
        "gates": gates,
        "seconds": time.perf_counter() - t0,
        "evolve_seconds": evolve_seconds,
        "shards": len(evaluator.shards(64 - 8)),  # per call on the children
    }


def test_criterion_5_policy_training(controller_stack):
    history = controller_stack["history"]
    bests = [g.best for g in history]
    nondecreasing = all(b2 >= b1 - 1e-12 for b1, b2 in zip(bests, bests[1:]))
    ratio = controller_stack["best_error"] / controller_stack["zero_error"]
    mean_gates = float(np.mean(controller_stack["gates"]))
    seconds = controller_stack["seconds"]
    ok = (nondecreasing and ratio <= 0.25 and mean_gates >= 2.0
          and seconds < 1200.0)
    # Information, not a bound: what evolution cost, and the teacher-forced
    # yaw rate on the gen-expert set against the expert's, the criterion-7
    # diagnosis.
    ctrl = controller_stack["ctrl"]
    yaw, want = [], []
    for zs, acts in controller_stack["evaluator"].episodes:
        st = LstmBatch(ctrl, 1)
        for z in zs:
            yaw.append(float(controller_step(ctrl, z[None], st)[0, 3]))
        want.extend(acts[:, 3])
    corr = float(np.corrcoef(yaw, want)[0, 1])
    lo, hi = np.percentile(yaw, [1, 99])
    want_lo, want_hi = np.percentile(want, [1, 99])
    _report(5, ok,
            f"150 generations: best-so-far nondecreasing={nondecreasing}, "
            f"imitation error ratio {ratio:.3f} (<= 0.25), held-out gates "
            f"{mean_gates:.2f} (>= 2.0), {seconds:.0f}s (< 1200s); "
            f"evolution {controller_stack['evolve_seconds']:.0f}s on "
            f"{controller_stack['shards']} shard(s); teacher-forced yaw "
            f"rate: correlation {corr:.2f} with the expert, 1st-99th "
            f"percentile [{lo:+.2f}, {hi:+.2f}] rad/s against the "
            f"expert's [{want_lo:+.2f}, {want_hi:+.2f}]")


@pytest.fixture(scope="session")
def transfer_stack(vae_stack, controller_stack):
    model = vae_stack["model"]
    ctrl = controller_stack["ctrl"]
    t0 = time.perf_counter()
    pairs = build_pairs(
        real_seed=_derive_seed(CFG["seed"], "build-pairs"),
        n_poses=CFG["cheat.n_poses"], vae=model, mode=CFG["cheat.mode"],
        density=CFG["cheat.density"], cfg=SIM,
    )
    cheat, cheat_history, digests = train_cheat(
        pairs, frozen=(model, ctrl),
        cfg=CFG.section("cheat", CheatTrainConfig,
                        seed=_derive_seed(CFG["seed"], "train-cheat")),
    )
    real_data = collect_trajectories(
        "real", CFG["data.real_episodes"], CFG["data.real_max_steps"],
        seed=_derive_seed(CFG["seed"], "gen-real-data"), cfg=SIM,
        clutter_density=CFG["data.clutter_density"],
    )
    baseline, _ = train_baseline(
        real_data,
        CFG.section("baseline", BaselineTrainConfig,
                    seed=_derive_seed(CFG["seed"], "train-baseline")),
    )
    seconds_train = time.perf_counter() - t0

    t1 = time.perf_counter()
    models = {"vae": model, "controller": ctrl, "cheat": cheat,
              "baseline": baseline}
    seeds = [_derive_seed(CFG["seed"], "eval", i)
             for i in range(CFG["eval.episodes"])]
    reports = {
        pipeline: eval_mean_distance(
            pipeline, models, seeds, max_steps=CFG["eval.max_steps"],
            density=CFG["eval.density"], hold_steps=CFG["eval.hold_steps"],
            cfg=SIM,
        )
        for pipeline in ("cheat", "baseline", "random", "zero")
    }
    return {
        "pairs": pairs,
        "cheat": cheat,
        "baseline": baseline,
        "digests": digests,
        "reports": reports,
        "models": models,
        "seconds_train": seconds_train,
        "seconds_eval": time.perf_counter() - t1,
    }


def test_criterion_6_frozen_weight_contract(vae_stack, controller_stack,
                                            transfer_stack):
    model = vae_stack["model"]
    ctrl = controller_stack["ctrl"]
    # digests recorded before the full-size training run...
    recorded = transfer_stack["digests"]
    # ...must equal an independent recomputation now, after it
    full_ok = recorded == {
        "vae": params_digest(model.params),
        "controller": params_digest(ctrl.params),
    }
    # and once more on a fresh short run: the guarantee is per-run, not
    # a one-off property of the big fixture
    _, _, recorded2 = train_cheat(
        transfer_stack["pairs"][:200],
        frozen=(model, ctrl),
        cfg=CheatTrainConfig(epochs=2, batch=64, lr=1e-3, hidden=(32,),
                             seed=1),
    )
    rerun_ok = recorded2 == {
        "vae": params_digest(model.params),
        "controller": params_digest(ctrl.params),
    }
    names = sorted(recorded)
    ok = full_ok and rerun_ok and names == ["controller", "vae"]
    _report(6, ok,
            f"frozen digests for {names}: before == after on the full run "
            f"({full_ok}) and a fresh run ({rerun_ok})")


def test_criterion_7_transfer_headline(transfer_stack):
    reports = transfer_stack["reports"]
    cheat = reports["cheat"].mean_distance
    base = reports["baseline"].mean_distance
    rand = reports["random"].mean_distance
    ok_ratio = cheat >= 0.6 * base
    ok_random = cheat >= 2.0 * rand and base >= 2.0 * rand
    seconds = transfer_stack["seconds_eval"]
    ok = ok_ratio and ok_random and seconds < 900.0
    _report(7, ok,
            f"50-seed suite: cheat {cheat:.2f} m vs baseline {base:.2f} m "
            f"(ratio {cheat / base:.2f} >= 0.6), random {rand:.2f} m "
            f"(cheat {cheat / rand:.1f}x, baseline {base / rand:.1f}x >= 2x), "
            f"eval {seconds:.0f}s (< 900s)")


# ---------------------------------------------------------------------------
# criterion 8: determinism of the shipped pipeline


REDUCED = """
seed = 3
data.vae_episodes = 2
data.vae_max_steps = 120
data.expert_episodes = 2
data.expert_max_steps = 150
data.real_episodes = 3
data.real_max_steps = 120
vae.hidden = 48, 24
vae.epochs = 20
evolve.population = 8
evolve.elites = 2
evolve.generations = 5
cheat.n_poses = 40
cheat.hidden = 48, 24
cheat.epochs = 20
baseline.hidden = 48, 24
baseline.epochs = 20
eval.episodes = 3
eval.max_steps = 250
viz.max_steps = 120
"""

ARTIFACTS = (
    "fake_data.bin", "vae.ckpt", "expert_data.bin", "controller.ckpt",
    "evolution_history.csv", "pairs.bin", "cheat.ckpt", "real_data.bin",
    "baseline.ckpt", "eval_report.csv", "eval_report.txt",
    "belief_strip.pgm",
)


def test_criterion_8_pipeline_determinism(tmp_path):
    t0 = time.perf_counter()
    blobs = []
    for run in ("one", "two"):
        out = tmp_path / run
        config = tmp_path / f"{run}.cfg"
        config.write_text(REDUCED + f"out_dir = {out}\n")
        code = cli_main(["pipeline", "--config", str(config)])
        assert code == 0
        blobs.append({name: (out / name).read_bytes() for name in ARTIFACTS})
    mismatched = [name for name in ARTIFACTS
                  if blobs[0][name] != blobs[1][name]]
    seconds = time.perf_counter() - t0
    ok = not mismatched
    _report(8, ok,
            f"two pipeline runs, {len(ARTIFACTS)} artifacts byte-compared, "
            f"mismatches: {mismatched or 'none'}, {seconds:.0f}s")


# ---------------------------------------------------------------------------
# criterion 9: belief-strip artifact


def _parse_pgm(blob: bytes):
    if not blob.startswith(b"P5"):
        raise AssertionError("not a binary PGM")
    tokens = []
    at = 2
    while len(tokens) < 3:
        while at < len(blob) and blob[at : at + 1].isspace():
            at += 1
        if blob[at : at + 1] == b"#":
            while blob[at : at + 1] not in (b"\n", b""):
                at += 1
            continue
        start = at
        while at < len(blob) and not blob[at : at + 1].isspace():
            at += 1
        tokens.append(int(blob[start:at]))
    at += 1  # single whitespace after maxval
    width, height, maxval = tokens
    return width, height, maxval, blob[at:]


def test_criterion_9_belief_strip(vae_stack, controller_stack,
                                  transfer_stack, tmp_path):
    model = vae_stack["model"]
    ctrl = controller_stack["ctrl"]
    cheat = transfer_stack["cheat"]
    world = spawn_real_world(_derive_seed(CFG["seed"], "viz"),
                             CFG["eval.density"], cfg=SIM)
    res = rollout(world, model, ctrl, max_steps=CFG["viz.max_steps"],
                  encoder="cheat", cheat=cheat, cfg=SIM)
    assert res.steps, "viz rollout produced no steps"

    before = (params_digest(model.params), params_digest(cheat.params))
    blob1 = render_belief_strip(res, cheat, model, stride=CFG["viz.stride"],
                                path=tmp_path / "strip1.pgm",
                                band_height=CFG["viz.band_height"])
    blob2 = render_belief_strip(res, cheat, model, stride=CFG["viz.stride"],
                                path=tmp_path / "strip2.pgm",
                                band_height=CFG["viz.band_height"])
    after = (params_digest(model.params), params_digest(cheat.params))

    width, height, maxval, payload = _parse_pgm(blob1)
    n_tiles = math.ceil(len(res.steps) / CFG["viz.stride"])
    dims_ok = (width == n_tiles * SIM.scan_width
               and height == 2 * CFG["viz.band_height"]
               and maxval == 255
               and len(payload) == width * height)
    stable = (blob1 == blob2
              and blob1 == (tmp_path / "strip1.pgm").read_bytes()
              and blob2 == (tmp_path / "strip2.pgm").read_bytes())
    ok = dims_ok and stable and before == after
    _report(9, ok,
            f"PGM {width}x{height} maxval {maxval} ({n_tiles} tiles x "
            f"{SIM.scan_width} cols, 2 x {CFG['viz.band_height']} rows), "
            f"byte-stable={stable}, frozen digests unchanged="
            f"{before == after}")
