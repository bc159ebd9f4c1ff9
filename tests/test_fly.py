"""worldsim.fly: its contract, and every flier against a hand-written loop.

Each reference loop below renders, encodes, commands and steps by hand,
the way the package flew before it had one flight loop, and must agree
with the flight through `fly` bit for bit.
"""

import numpy as np
import pytest

from cheatlab import cheat as ch
from cheatlab import evaluation as ev
from cheatlab import policy as po
from cheatlab import vae as vb
from cheatlab import worldsim as ws
from cheatlab.errors import ContractError, DimensionError
from cheatlab.expert import collect_trajectories, next_gate_index

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


def hand_flight(world, command, max_steps, sees=True):
    """(observation, action, state) per step and the final state."""
    state = ws.start_state(world)
    steps = []
    for t in range(max_steps):
        obs = ws.render_observation(world, state, CFG) if sees else None
        act = command(t, obs)
        steps.append((obs, act, state))
        state = ws.step_dynamics(world, state, act, CFG.dt, CFG)
        if state.crashed:
            break
    return steps, state


def controller_command(ctrl, encode):
    lstm = po.zero_state(ctrl)

    def command(_t, obs):
        nonlocal lstm
        act, lstm = po.controller_step(ctrl, encode(obs), lstm)
        return act

    return command


def assert_same_flight(result, steps, final):
    assert result.steps == [ws.TrajectoryStep(*s) for s in steps]
    assert result.final_state == final
    assert result.odometer == final.odometer
    assert result.crashed == final.crashed


# ---------------------------------------------------------------------------
# contract


def test_fly_rejects_a_nonpositive_step_cap():
    world = ws.spawn_fake_world(0, cfg=CFG)
    for bad in (0, -3):
        with pytest.raises(ContractError):
            ws.fly(world, lambda _s, _o: ws.ZERO_ACTION, bad, CFG)


def test_none_command_ends_the_flight_unrecorded():
    world = ws.spawn_fake_world(0, cfg=CFG)
    calls = []

    def act(state, _obs):
        calls.append(state)
        return ws.Action(1.0, 0.0, 0.0, 0.0) if len(calls) <= 3 else None

    result = ws.fly(world, act, 50, CFG)
    assert len(calls) == 4 and len(result.steps) == 3
    assert [s.state for s in result.steps] == calls[:3]
    assert result.final_state == calls[3]
    assert not result.crashed and result.odometer == calls[3].odometer > 0.0


def test_completed_corridor_ends_before_the_state_past_the_last_gate():
    data = collect_trajectories("fake", 1, 2000, seed=4, cfg=CFG)
    (episode,) = data.episodes
    world = ws.spawn_fake_world(ws._derive_seed(4, 0), cfg=CFG)
    assert episode[0].state == ws.start_state(world)
    assert len(episode) < 2000
    assert next_gate_index(world, episode[-1].state) is not None
    last = ws.step_dynamics(world, episode[-1].state, episode[-1].action,
                            CFG.dt, CFG)
    assert next_gate_index(world, last) is None


def test_blind_flight_never_renders(monkeypatch):
    def no_render(*_args, **_kwargs):
        raise AssertionError("a blind flight rendered")

    monkeypatch.setattr(ws, "render_observation", no_render)
    world = ws.spawn_real_world(1, 0.4, cfg=CFG)
    seen = []
    result = ws.fly(world, lambda _s, obs: seen.append(obs) or ws.ZERO_ACTION,
                    20, CFG, blind=True)
    assert seen == [None] * 20
    assert all(s.observation is None for s in result.steps)
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
    command = controller_command(ctrl, lambda obs: vb.encode(vae, obs)[0])
    steps, final = hand_flight(world, command, 120)
    assert_same_flight(po.rollout(world, vae, ctrl, 120, cfg=CFG),
                       steps, final)


@pytest.mark.parametrize("seed", [2, 6])
def test_cheat_rollout_matches_per_step_controller(models, seed):
    cheat, ctrl = models["cheat"], models["controller"]
    world = ws.spawn_real_world(seed, 0.4, cfg=CFG)
    command = controller_command(ctrl, lambda obs: ch.cheat_encode(cheat, obs))
    steps, final = hand_flight(world, command, 120)
    result = po.rollout(world, models["vae"], ctrl, 120, encoder="cheat",
                        cheat=cheat, cfg=CFG)
    assert_same_flight(result, steps, final)


def test_eval_pipelines_match_hand_loops(models):
    seeds, max_steps, hold = [0, 1, 2, 3], 150, 20
    crashed = []
    for pipeline in ("baseline", "random", "zero"):
        report = ev.eval_mean_distance(pipeline, models, seeds, max_steps,
                                       hold_steps=hold, cfg=CFG)
        want = []
        for seed in seeds:
            world = ws.spawn_real_world(seed, 0.4, cfg=CFG, with_gates=False)
            if pipeline == "baseline":
                command = lambda _t, obs: ev.baseline_action(
                    models["baseline"], obs, CFG)
            elif pipeline == "random":
                cmds = ev._random_commands(seed, max_steps, hold, CFG)
                command = lambda t, _obs: ws.Action(*cmds[t])
            else:
                command = lambda _t, _obs: ws.ZERO_ACTION
            _, final = hand_flight(world, command, max_steps,
                                   sees=pipeline == "baseline")
            want.append((final.odometer, final.crashed))
        assert list(zip(report.odometers, report.crashed)) == want, pipeline
        crashed += report.crashed
    assert any(crashed) and not all(crashed)
