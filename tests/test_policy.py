"""Controller, genome codec, fitness, and evolution tests."""

import math

import numpy as np
import pytest

from cheatlab import policy as po
from cheatlab import vae as vb
from cheatlab.container import params_digest
from cheatlab.errors import ContractError, DimensionError, EvolutionError
from cheatlab.expert import Dataset, TrajectoryStep, collect_trajectories
from cheatlab.worldsim import (
    Action,
    DEFAULT_SIM,
    DroneState,
    Observation,
    spawn_fake_world,
    spawn_real_world,
)


def test_zero_controller_commands_nothing():
    p = po.controller_template(k=3)
    act, st = po.controller_step(p, np.array([0.4, -0.2, 1.0]), po.zero_state(p))
    assert act == Action(0.0, 0.0, 0.0, 0.0)
    assert np.all(st.h == 0.0)
    # c' is i*g = 0.5 * tanh(0) = 0 as well.
    assert np.all(st.c == 0.0)


def test_lstm_cell_matches_handwritten_recurrence():
    # Scalar cell (k=1, h_dim=1) with hand-picked weights; the expected
    # values are recomputed below from the written-out standard equations.
    p = po.controller_template(k=1, h_dim=1, mlp_hidden=(2, 2))
    w = {
        "lstm/wi": 0.5, "lstm/ui": 0.3, "lstm/bi": 0.1,
        "lstm/wf": -0.4, "lstm/uf": 0.2, "lstm/bf": 0.05,
        "lstm/wo": 0.7, "lstm/uo": -0.1, "lstm/bo": 0.0,
        "lstm/wg": 1.2, "lstm/ug": 0.6, "lstm/bg": -0.2,
    }
    for name, val in w.items():
        p.params[name].data[...] = val
    p.params["mlp/w0"].data[...] = np.eye(2)
    p.params["mlp/w1"].data[...] = np.eye(2)
    p.params["mlp/w2"].data[...] = np.array([[1, 0], [0, 1], [0, 0], [0, 0.5]])

    z, h0, c0 = 0.7, 0.2, -0.1
    act, st = po.controller_step(
        p, np.array([z]), po.LstmState(np.array([h0]), np.array([c0]))
    )

    sig = lambda v: 1.0 / (1.0 + math.exp(-v))
    i = sig(0.5 * z + 0.3 * h0 + 0.1)
    f = sig(-0.4 * z + 0.2 * h0 + 0.05)
    o = sig(0.7 * z - 0.1 * h0 + 0.0)
    g = math.tanh(1.2 * z + 0.6 * h0 - 0.2)
    c1 = f * c0 + i * g
    h1 = o * math.tanh(c1)
    assert np.isclose(st.c[0], c1, rtol=1e-12)
    assert np.isclose(st.h[0], h1, rtol=1e-12)

    m = np.tanh(np.tanh(np.array([z, h1])))  # two identity tanh layers
    out = np.array([m[0], m[1], 0.0, 0.5 * m[1]]) * p.out_scale
    out = np.clip(out, -p.out_scale, p.out_scale)
    assert np.allclose(
        (act.vx, act.vy, act.vz, act.yaw_rate), out, rtol=1e-12
    )


def test_controller_output_respects_bounds():
    p = po.controller_template(k=2)
    rng = np.random.default_rng(0)
    genome = rng.normal(0, 2.0, po.genome_size(p))  # deliberately large
    ctrl = po.controller_from_genome(genome, p)
    st = po.zero_state(ctrl)
    for _ in range(20):
        act, st = po.controller_step(ctrl, rng.normal(0, 3, 2), st)
        assert abs(act.vx) <= DEFAULT_SIM.v_max
        assert abs(act.vy) <= DEFAULT_SIM.v_max
        assert abs(act.vz) <= DEFAULT_SIM.v_max
        assert abs(act.yaw_rate) <= DEFAULT_SIM.yaw_rate_max


def test_controller_step_dimension_checks():
    p = po.controller_template(k=3)
    with pytest.raises(DimensionError):
        po.controller_step(p, np.zeros(4), po.zero_state(p))
    with pytest.raises(DimensionError):
        po.controller_step(
            p, np.zeros(3), po.LstmState(np.zeros(2), np.zeros(2))
        )


# ---------------------------------------------------------------------------
# genome codec


def test_genome_roundtrip_and_size():
    t = po.controller_template(k=4, h_dim=5, mlp_hidden=(7, 6))
    rng = np.random.default_rng(1)
    vec = rng.normal(0, 1, po.genome_size(t))
    ctrl = po.controller_from_genome(vec, t)
    assert np.array_equal(po.genome_from_controller(ctrl), vec)
    # Hand count: 4 gates of (5x4 + 5x5 + 5) plus dense (9,7)+7, (7,6)+6, (6,4)+4.
    want = 4 * (20 + 25 + 5) + (63 + 7) + (42 + 6) + (24 + 4)
    assert po.genome_size(t) == want
    # Template stays zero after decoding.
    assert np.all(t.params.flatten() == 0.0)
    with pytest.raises(ContractError):
        po.controller_from_genome(vec[:-1], t)


def test_each_genome_index_maps_to_exactly_one_entry():
    t = po.controller_template(k=2, h_dim=2, mlp_hidden=(3, 2))
    n = po.genome_size(t)
    base = po.controller_from_genome(np.zeros(n), t)
    for j in range(n):
        vec = np.zeros(n)
        vec[j] = 1.0
        ctrl = po.controller_from_genome(vec, t)
        changed = sum(
            int(not np.array_equal(a.data, b.data))
            for (_, a), (_, b) in zip(base.params.items(), ctrl.params.items())
        )
        diff_total = sum(
            np.sum(a.data != b.data)
            for (_, a), (_, b) in zip(base.params.items(), ctrl.params.items())
        )
        assert changed == 1 and diff_total == 1


# ---------------------------------------------------------------------------
# fitness


def zero_action_dataset(width=8, steps=5):
    obs = Observation(np.zeros(width, dtype=int), np.zeros(width))
    st = DroneState((0.0, 0.0, 1.5), 0.0, 0.0, False)
    ep = [
        TrajectoryStep(obs, Action(0.0, 0.0, 0.0, 0.0), st)
        for _ in range(steps)
    ]
    return Dataset([ep], "fake", 0, {"total_steps": steps})


def test_imitation_fitness_zero_case():
    model = vb.vae_init(3, (6, 4), 0, width=8)
    t = po.controller_template(k=3)
    g = np.zeros(po.genome_size(t))
    assert po.fitness_imitation(g, model, zero_action_dataset()) == 0.0


def test_imitation_fitness_rejects_bad_data():
    model = vb.vae_init(3, (6, 4), 0, width=8)
    t = po.controller_template(k=3)
    g = np.zeros(po.genome_size(t))
    empty = Dataset([], "fake", 0, {})
    with pytest.raises(ContractError):
        po.fitness_imitation(g, model, empty)


def test_population_evaluator_matches_reference_op():
    # Three episodes of different lengths, the longest in the middle, so a
    # padding or mask fault in the batched evaluator changes the scores.
    flown = collect_trajectories("fake", 3, 120, seed=4, cfg=DEFAULT_SIM)
    episodes = [ep[:n] for ep, n in zip(flown.episodes, (70, 120, 35))]
    assert [len(ep) for ep in episodes] == [70, 120, 35]
    data = Dataset(episodes, "fake", 4)
    model = vb.vae_init(4, (24, 12), 2, width=DEFAULT_SIM.scan_width)
    t = po.controller_template(k=4, h_dim=5, mlp_hidden=(8, 6))
    ev = po.ImitationEvaluator(model, data, t)

    for (zs, acts), ep in zip(ev.episodes, episodes, strict=True):
        want_z = np.stack([vb.encode(model, s.observation)[0] for s in ep])
        assert np.allclose(zs, want_z, rtol=1e-12, atol=1e-15)
        assert np.array_equal(acts, [
            (s.action.vx, s.action.vy, s.action.vz, s.action.yaw_rate)
            for s in ep
        ])

    rng = np.random.default_rng(3)
    size = po.genome_size(t)
    big = rng.normal(0, 5.0, size)  # saturates the out_scale clamp
    first, _ = po.controller_step(
        po.controller_from_genome(big, t), ev.episodes[0][0][0],
        po.zero_state(t),
    )
    assert np.any(np.abs([first.vx, first.vy, first.vz, first.yaw_rate])
                  == t.out_scale)
    population = [rng.normal(0, 0.1, size) for _ in range(3)]
    population += [big, np.zeros(size)]
    for genomes in ([population[0]], population):
        batch = ev(genomes)
        singles = [po.fitness_imitation(g, model, data, t) for g in genomes]
        assert np.allclose(batch, singles, rtol=1e-12, atol=0.0)
        assert np.all(batch <= 0.0)

    acts = np.concatenate([a for _, a in ev.episodes])
    zero = ev([np.zeros(size)])[0]
    assert np.isclose(zero, -np.mean(acts**2), rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# evolution


def sphere(genomes):
    return [-float(np.sum(g * g)) for g in genomes]


def test_evolve_sphere_reaches_near_zero():
    # Init is N(0, 0.1^2) in 10 dims, so the starting best is around -0.1;
    # fifty generations of elitist mutation must push above -0.01.
    cfg = po.EvolutionConfig(
        population=32, elites=4, mutation_sigma=0.02, generations=50, seed=0
    )
    best, history = po.evolve(cfg, sphere, dim=10)
    assert history[0].best < -0.01
    assert best.fitness > -0.01
    assert best.fitness == history[-1].best
    assert np.isclose(-float(np.sum(best.values**2)), best.fitness)


def test_evolve_best_history_nondecreasing_and_deterministic():
    cfg = po.EvolutionConfig(
        population=16, elites=3, mutation_sigma=0.05, generations=30, seed=7
    )
    b1, h1 = po.evolve(cfg, sphere, dim=6)
    b2, h2 = po.evolve(cfg, sphere, dim=6)
    assert np.array_equal(b1.values, b2.values)
    assert h1 == h2
    bests = [s.best for s in h1]
    assert all(b >= a for a, b in zip(bests, bests[1:]))
    assert all(s.mean <= s.best for s in h1)


def test_evolve_ties_break_toward_lower_index():
    # Constant fitness: everything ties, so the champion must be the very
    # first genome of the seeded initial population.
    cfg = po.EvolutionConfig(
        population=8, elites=2, mutation_sigma=0.1, generations=3, seed=11
    )
    best, _ = po.evolve(cfg, lambda gs: [0.0] * len(gs), dim=4)
    first = np.random.default_rng(11).normal(0.0, po.INIT_SIGMA, (8, 4))[0]
    assert np.array_equal(best.values, first)


def test_evolve_scores_only_new_genomes_after_generation_zero():
    # Elites carry over with their scores, so only the children are scored.
    sizes = []

    def counting(genomes):
        sizes.append(len(genomes))
        return sphere(genomes)

    cfg = po.EvolutionConfig(
        population=10, elites=3, mutation_sigma=0.05, generations=4, seed=2
    )
    best, history = po.evolve(cfg, counting, dim=5)
    assert sizes == [10, 7, 7, 7]
    assert best.fitness == history[-1].best
    assert np.isclose(-float(np.sum(best.values**2)), best.fitness)


def test_evolve_nan_in_later_generation_names_population_index():
    calls = []

    def late_poison(genomes):
        calls.append(len(genomes))
        out = [0.0] * len(genomes)
        if len(calls) == 2:
            out[1] = float("nan")  # second child, behind the two elites
        return out

    cfg = po.EvolutionConfig(population=6, elites=2, generations=3, seed=0)
    with pytest.raises(EvolutionError) as err:
        po.evolve(cfg, late_poison, dim=3)
    assert "genome 3 in generation 1" in str(err.value)


def test_evolve_rejects_nan_fitness_and_bad_config():
    def poisoned(genomes):
        out = [0.0] * len(genomes)
        out[2] = float("nan")
        return out

    cfg = po.EvolutionConfig(population=4, elites=1, generations=2, seed=0)
    with pytest.raises(EvolutionError) as err:
        po.evolve(cfg, poisoned, dim=3)
    assert "genome 2" in str(err.value)
    with pytest.raises(ContractError):
        po.EvolutionConfig(population=1).validate()
    with pytest.raises(ContractError):
        po.EvolutionConfig(elites=64, population=64).validate()
    with pytest.raises(ContractError):
        po.EvolutionConfig(mutation_sigma=0.0).validate()


# ---------------------------------------------------------------------------
# rollout


def test_zero_controller_rollout_hovers_forever():
    world = spawn_fake_world(0, cfg=DEFAULT_SIM)
    model = vb.vae_init(3, (6, 4), 0, width=DEFAULT_SIM.scan_width)
    ctrl = po.controller_template(k=3)
    result = po.rollout(world, model, ctrl, max_steps=40)
    assert len(result.steps) == 40
    assert not result.crashed
    assert result.odometer == 0.0
    # Corridor starts are jittered (start_offset_max, start_yaw_max_deg),
    # so "did not move" means "still at the pose recorded at spawn".
    assert world.start[1] != 0.0
    assert result.final_state.position == world.start[:3]
    assert result.final_state.yaw == world.start[3]


def test_rollout_contract_checks():
    model = vb.vae_init(3, (6, 4), 0, width=DEFAULT_SIM.scan_width)
    ctrl = po.controller_template(k=3)
    fake = spawn_fake_world(0, cfg=DEFAULT_SIM)
    real = spawn_real_world(0, 0.3, cfg=DEFAULT_SIM)
    with pytest.raises(ContractError):
        po.rollout(real, model, ctrl, 10, encoder="vae")
    with pytest.raises(ContractError):
        po.rollout(fake, model, ctrl, 10, encoder="cheat")
    with pytest.raises(ContractError):
        po.rollout(real, model, ctrl, 10, encoder="cheat")  # no params
    with pytest.raises(ContractError):
        po.rollout(fake, model, ctrl, 10, encoder="banana")


def test_controller_save_load_roundtrip(tmp_path):
    t = po.controller_template(k=5, h_dim=3, mlp_hidden=(4, 4))
    rng = np.random.default_rng(2)
    ctrl = po.controller_from_genome(
        rng.normal(0, 0.1, po.genome_size(t)), t
    )
    path = tmp_path / "ctrl.ckpt"
    po.save_controller(ctrl, path)
    back = po.load_controller(path)
    assert params_digest(back.params) == params_digest(ctrl.params)
    assert back.k == 5 and back.h_dim == 3 and back.mlp_hidden == (4, 4)
    assert np.array_equal(back.out_scale, ctrl.out_scale)
