"""Controller, genome codec, fitness, and evolution tests."""

import json
import math
import mmap
import os
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from cheatlab import policy as po
from cheatlab import vae as vb
from cheatlab.container import params_digest
from cheatlab.errors import ContractError, DimensionError, EvolutionError
from cheatlab.expert import Dataset, collect_trajectories
from cheatlab.worldsim import (
    DEFAULT_SIM,
    Record,
    spawn_fake_world,
    spawn_real_world,
)


def test_zero_controller_commands_nothing():
    p = po.controller_template(k=3)
    st = po.LstmBatch(p, 1)
    act = po.controller_step(p, np.array([[0.4, -0.2, 1.0]]), st)
    assert np.array_equal(act, np.zeros((1, 4)))
    assert np.all(st.work.h == 0.0)
    # c' is i*g = 0.5 * tanh(0) = 0 as well.
    assert np.all(st.work.c == 0.0)


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
    st = po.LstmBatch(p, 1)
    st.work.h[0], st.work.c[0] = h0, c0
    act = po.controller_step(p, np.array([[z]]), st)[0]

    sig = lambda v: 1.0 / (1.0 + math.exp(-v))
    i = sig(0.5 * z + 0.3 * h0 + 0.1)
    f = sig(-0.4 * z + 0.2 * h0 + 0.05)
    o = sig(0.7 * z - 0.1 * h0 + 0.0)
    g = math.tanh(1.2 * z + 0.6 * h0 - 0.2)
    c1 = f * c0 + i * g
    h1 = o * math.tanh(c1)
    assert np.isclose(st.work.c[0, 0], c1, rtol=1e-12)
    assert np.isclose(st.work.h[0, 0], h1, rtol=1e-12)

    m = np.tanh(np.tanh(np.array([z, h1])))  # two identity tanh layers
    out = np.array([m[0], m[1], 0.0, 0.5 * m[1]]) * p.out_scale
    out = np.clip(out, -p.out_scale, p.out_scale)
    assert np.allclose(act, out, rtol=1e-12)


def test_controller_output_respects_bounds():
    p = po.controller_template(k=2)
    rng = np.random.default_rng(0)
    genome = rng.normal(0, 2.0, po.genome_size(p))  # deliberately large
    ctrl = po.controller_from_genome(genome, p)
    st = po.LstmBatch(ctrl, 1)
    for _ in range(20):
        (vx, vy, vz, yaw_rate), = po.controller_step(
            ctrl, rng.normal(0, 3, (1, 2)), st)
        assert abs(vx) <= DEFAULT_SIM.v_max
        assert abs(vy) <= DEFAULT_SIM.v_max
        assert abs(vz) <= DEFAULT_SIM.v_max
        assert abs(yaw_rate) <= DEFAULT_SIM.yaw_rate_max


def test_controller_step_dimension_checks():
    # Latents must be (B, k) rows for the B drones of the batch: a wrong
    # k, a wrong drone count and one unbatched latent are all refused.
    p = po.controller_template(k=3)
    for z in (np.zeros((1, 4)), np.zeros((2, 3)), np.zeros(3)):
        with pytest.raises(DimensionError):
            po.controller_step(p, z, po.LstmBatch(p, 1))


def fused_tick_reference(p, z, h, c):
    """The cell-plus-head formula as one (k+H, 4H) gate product over fresh
    arrays, written out in plain numpy: the form the in-place kernel
    replaced, kept to pin controller_step's bits."""
    w = {name: t.data for name, t in p.params.items()}
    gates = np.concatenate(
        [np.concatenate([w[f"lstm/{m}{g}"] for g in "ifog"], axis=-2)
         for m in "wu"],
        axis=-1,
    ).swapaxes(-1, -2)
    bias = np.concatenate([w[f"lstm/b{g}"] for g in "ifog"])
    n = h.shape[-1]
    y = np.concatenate([z, h])
    pre = y @ gates + bias
    ifo = 1.0 / (1.0 + np.exp(-pre[: 3 * n]))
    c = ifo[n : 2 * n] * c + ifo[:n] * np.tanh(pre[3 * n :])
    h = ifo[2 * n :] * np.tanh(c)
    y[-n:] = h
    for i in range(3):
        y = y @ w[f"mlp/w{i}"].swapaxes(-1, -2) + w[f"mlp/b{i}"]
        if i < 2:
            y = np.tanh(y)
    scale = p.out_scale
    return np.minimum(np.maximum(y * scale, -scale), scale), h, c


def test_controller_step_bits_match_the_fused_formula():
    # The 1x1 case of the in-place kernel flies room-flight and eval, so its
    # commands and state must keep the fused formula's bits exactly.
    rng = np.random.default_rng(8)
    for k, h_dim, mlp, sigma in ((8, 16, (32, 16), 0.3), (3, 5, (7, 4), 1.5),
                                 (1, 1, (2, 2), 0.05), (6, 9, (3, 11), 3.0)):
        t = po.controller_template(k=k, h_dim=h_dim, mlp_hidden=mlp)
        ctrl = po.controller_from_genome(
            rng.normal(0, sigma, po.genome_size(t)), t)
        st = po.LstmBatch(ctrl, 1)
        h, c = np.zeros(h_dim), np.zeros(h_dim)
        for _ in range(40):
            z = rng.normal(0, 2.0, k)
            want, h, c = fused_tick_reference(ctrl, z, h, c)
            got = po.controller_step(ctrl, z[None], st)[0]
            assert got.tobytes() == want.tobytes()
            assert st.work.h[0].tobytes() == h.tobytes()
            assert st.work.c[0].tobytes() == c.tobytes()


def test_batched_controller_step_gives_each_drone_its_lone_bits():
    # The fliers tick every live drone in one LstmBatch; each drone's
    # commands and state must be the fused formula's for that drone alone,
    # also after take() drops drones that landed.
    rng = np.random.default_rng(9)
    for k, h_dim, mlp in ((8, 16, (32, 16)), (3, 5, (7, 4)), (1, 1, (2, 2))):
        t = po.controller_template(k=k, h_dim=h_dim, mlp_hidden=mlp)
        ctrl = po.controller_from_genome(
            rng.normal(0, 1.0, po.genome_size(t)), t)
        lstm = po.LstmBatch(ctrl, 7)
        live = np.arange(7)
        h, c = np.zeros((7, h_dim)), np.zeros((7, h_dim))
        for step in range(30):
            if step in (10, 20):
                keep = rng.random(len(live)) < 0.7
                keep[0] = True
                lstm, live = lstm.take(keep), live[keep]
            z = rng.normal(0, 2.0, (len(live), k))
            out = po.controller_step(ctrl, z, lstm)
            assert out.shape == (len(live), 4) and len(lstm) == len(live)
            for row, i in enumerate(live):
                want, h[i], c[i] = fused_tick_reference(ctrl, z[row], h[i], c[i])
                assert out[row].tobytes() == want.tobytes()
                assert lstm.work.h[row].tobytes() == h[i].tobytes()
                assert lstm.work.c[row].tobytes() == c[i].tobytes()
        assert len(live) < 7
        with pytest.raises(DimensionError):
            po.controller_step(ctrl, np.zeros((len(live) + 1, k)), lstm)


def negating_tick_reference(t, flat, z, h, c):
    """The evaluator's cell-plus-head over a (genomes, episodes) batch,
    written out over fresh arrays from the un-negated gate weights: one
    stacked gate product, np.negative over its i/f/o columns, then
    1/(1+exp(.)). Weights are contiguous and biases gain an episode axis,
    as in the evaluator, so both run the same gemm."""
    w = t.params.views(flat)
    gates = np.ascontiguousarray(np.concatenate(
        [np.concatenate([w[f"lstm/{m}{g}"] for g in "ifog"], axis=-2)
         for m in "wu"],
        axis=-1,
    ).swapaxes(-1, -2))
    bias = np.concatenate([w[f"lstm/b{g}"] for g in "ifog"], axis=-1)[:, None]
    n = h.shape[-1]
    y = np.concatenate([np.broadcast_to(z, h.shape[:-1] + z.shape[-1:]), h],
                       axis=-1)
    pre = np.matmul(y, gates) + bias
    ifo = 1.0 / (1.0 + np.exp(np.negative(pre[..., : 3 * n])))
    c = ifo[..., n : 2 * n] * c + ifo[..., :n] * np.tanh(pre[..., 3 * n :])
    h = ifo[..., 2 * n :] * np.tanh(c)
    y[..., -n:] = h
    for i in range(3):
        weight = np.ascontiguousarray(w[f"mlp/w{i}"].swapaxes(-1, -2))
        y = np.matmul(y, weight) + w[f"mlp/b{i}"][:, None]
        if i < 2:
            y = np.tanh(y)
    scale = t.out_scale
    return np.minimum(np.maximum(y * scale, -scale), scale), h, c


def test_evaluator_tick_with_the_negated_pack_keeps_the_negating_bits():
    # _pack stores the i/f/o gate columns negated and _tick takes exp of
    # the product directly; each (genome, episode) row must keep the bits
    # of the written-out cell that negates the product, over many ticks.
    rng = np.random.default_rng(10)
    for k, h_dim, mlp, pop, eps in ((8, 16, (32, 16), 5, 7),
                                    (3, 5, (7, 4), 3, 2), (1, 1, (2, 2), 4, 1)):
        t = po.controller_template(k=k, h_dim=h_dim, mlp_hidden=mlp)
        flat = rng.normal(0, 1.0, (pop, po.genome_size(t)))
        net = [(np.ascontiguousarray(w), b[:, None])
               for w, b in po._pack(t.params.views(flat))]
        work = po._Work(net, (pop, eps))
        h, c = np.zeros((pop, eps, h_dim)), np.zeros((pop, eps, h_dim))
        for _ in range(25):
            z = rng.normal(0, 2.0, (eps, k))
            want, h, c = negating_tick_reference(t, flat, z, h, c)
            out = po._tick(net, t.out_scale, z, work)
            assert out.tobytes() == want.tobytes()
            assert work.h.tobytes() == h.tobytes()
            assert work.c.tobytes() == c.tobytes()


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
    assert np.all(t.params.flat == 0.0)
    with pytest.raises(ContractError):
        po.controller_from_genome(vec[:-1], t)


@pytest.mark.parametrize("mlp_hidden", [(0, 16), (-1, 16), (16, 0), (32,)])
def test_a_controller_refuses_a_head_without_width(mlp_hidden):
    with pytest.raises(ContractError, match="bad controller architecture"):
        po.controller_template(k=4, h_dim=5, mlp_hidden=mlp_hidden)


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


def fitness_imitation(
    genome: np.ndarray | po.Genome,
    vae: vb.VaeParams,
    data: Dataset,
    template: po.ControllerParams | None = None,
) -> float:
    """Negative mean squared action error against the recorded expert.

    Observations are teacher-forced through the frozen encoder mean; the
    LSTM state resets at every episode boundary. The value is the mean
    over every recorded step and all four action components, negated so
    greater is better. This is the per-step reference that the batched
    ImitationEvaluator is checked against.
    """
    values = genome.values if isinstance(genome, po.Genome) else genome
    if data.world_kind != "fake" or not data.total_steps:
        raise ContractError("imitation fitness needs a corridor dataset with steps")
    if template is None:
        template = po.controller_template(k=vae.k)
    ctrl = po.controller_from_genome(values, template)
    total = 0.0
    count = 0
    for ep in data.episodes:
        st = po.LstmBatch(ctrl, 1)
        for step in ep:
            mu, _ = vb.encode(vae, step.observation.features()[None])
            vx, vy, vz, yaw_rate = po.controller_step(ctrl, mu, st)[0]
            want = step.action
            total += (
                (vx - want.vx) ** 2
                + (vy - want.vy) ** 2
                + (vz - want.vz) ** 2
                + (yaw_rate - want.yaw_rate) ** 2
            )
            count += 4
    return -total / count


def still_states(n):
    """n recorded states at the origin, 1.5 m up, heading +x, uncrashed."""
    return np.tile((0.0, 0.0, 1.5, 0.0, 0.0, 0.0), (n, 1))


def zero_action_dataset(width=8, steps=5):
    record = Record(np.zeros((steps, width), np.int8), np.zeros((steps, width)),
                    np.zeros((steps, 4)), still_states(steps))
    return Dataset(record, "fake", 0, {"total_steps": steps})


def test_imitation_fitness_zero_case():
    model = vb.vae_init(3, (6, 4), 0, width=8)
    t = po.controller_template(k=3)
    g = np.zeros(po.genome_size(t))
    assert fitness_imitation(g, model, zero_action_dataset()) == 0.0
    ev = po.ImitationEvaluator(model, zero_action_dataset(), t)
    assert np.array_equal(ev([g]), [0.0])


def test_imitation_fitness_rejects_bad_data():
    model = vb.vae_init(3, (6, 4), 0, width=8)
    t = po.controller_template(k=3)
    g = np.zeros(po.genome_size(t))
    # No episodes, or only empty ones: no step to score against.
    for offsets in ([0], [0, 0, 0]):
        empty = Dataset(Record(np.zeros((0, 8), np.int8), np.zeros((0, 8)),
                               np.zeros((0, 4)), np.zeros((0, 6)),
                               np.array(offsets)), "fake", 0, {})
        with pytest.raises(ContractError):
            fitness_imitation(g, model, empty)
        with pytest.raises(ContractError, match="with steps"):
            po.ImitationEvaluator(model, empty, t)
    ev = po.ImitationEvaluator(model, zero_action_dataset(), t)
    with pytest.raises(ContractError):
        ev([g[:-1]])
    # A controller that reads latents of another size than the VAE's.
    with pytest.raises(DimensionError, match="k=4.*k=3"):
        po.ImitationEvaluator(model, zero_action_dataset(),
                              po.controller_template(k=4))


def test_empty_episodes_add_nothing_to_the_scores():
    # Episodes of length 0 (which read_dataset accepts) are columns the
    # mask leaves out: the scores are those of the steps alone.
    data = collect_trajectories("fake", 2, 40, seed=5, cfg=DEFAULT_SIM)
    rec = data.record
    arrays = (rec.classes, rec.depth, rec.actions, rec.states)
    (_, b), (c, d) = rec.spans()
    padded = Dataset(Record(*arrays, np.array([0, 0, b, b, d, d])), "fake", 5)
    assert [len(ep) for ep in padded.episodes] == [0, b, 0, d - c, 0]
    model = vb.vae_init(3, (12, 6), 1, width=DEFAULT_SIM.scan_width)
    t = po.controller_template(k=3, h_dim=4, mlp_hidden=(6, 5))
    genomes = np.random.default_rng(8).normal(0, 0.3, (4, po.genome_size(t)))
    plain = po.ImitationEvaluator(model, data, t)
    got = po.ImitationEvaluator(model, padded, t)(genomes)
    assert got.tobytes() == plain(genomes).tobytes()
    for row, g in zip(got, genomes):
        assert math.isclose(row, fitness_imitation(g, model, padded, t),
                            rel_tol=1e-12, abs_tol=1e-15)


def test_teacher_forced_latents_are_the_ones_a_flight_computes():
    # A flight encodes each drone's scan alone; evolution must score the
    # controller on those very latents, bit for bit.
    data = collect_trajectories("fake", 4, 150, seed=6, cfg=DEFAULT_SIM)
    rec = data.record
    model = vb.vae_init(8, (128, 64), 0, width=DEFAULT_SIM.scan_width)
    ev = po.ImitationEvaluator(model, data, po.controller_template(k=8))
    differ = [(e, i) for e, (lo, hi) in enumerate(rec.spans())
              for i in range(hi - lo)
              if ev.zs[i, e].tobytes() != vb.encode(
                  model, rec.features([lo + i]))[0][0].tobytes()]
    assert not differ, f"{len(differ)} of {len(rec.actions)} latents differ"


def test_population_evaluator_matches_reference_op():
    # Three episodes of different lengths, the longest in the middle, so a
    # padding or mask fault in the batched evaluator changes the scores.
    rec = collect_trajectories("fake", 3, 120, seed=4, cfg=DEFAULT_SIM).record
    data = Dataset(Record.join([
        Record(*(a[lo : lo + n] for a in (rec.classes, rec.depth, rec.actions,
                                          rec.states)))
        for (lo, _), n in zip(rec.spans(), (70, 120, 35))]), "fake", 4)
    episodes = data.episodes
    assert [len(ep) for ep in episodes] == [70, 120, 35]
    model = vb.vae_init(4, (24, 12), 2, width=DEFAULT_SIM.scan_width)
    t = po.controller_template(k=4, h_dim=5, mlp_hidden=(8, 6))
    ev = po.ImitationEvaluator(model, data, t)

    for (zs, acts), ep in zip(ev.episodes, episodes, strict=True):
        want_z = vb.encode(
            model, np.stack([s.observation.features() for s in ep]))[0]
        assert zs.tobytes() == want_z.tobytes()
        assert np.array_equal(acts, [
            (s.action.vx, s.action.vy, s.action.vz, s.action.yaw_rate)
            for s in ep
        ])

    rng = np.random.default_rng(3)
    size = po.genome_size(t)
    big = rng.normal(0, 5.0, size)  # saturates the out_scale clamp
    bold = po.controller_from_genome(big, t)
    first = po.controller_step(bold, ev.episodes[0][0][:1],
                               po.LstmBatch(bold, 1))
    assert np.any(np.abs(first) == t.out_scale)
    population = [rng.normal(0, 0.1, size) for _ in range(3)]
    population += [big, np.zeros(size)]
    for genomes in ([population[0]], population):
        batch = ev(genomes)
        singles = [fitness_imitation(g, model, data, t) for g in genomes]
        assert np.allclose(batch, singles, rtol=1e-12, atol=0.0)
        assert np.all(batch <= 0.0)

    acts = np.concatenate([a for _, a in ev.episodes])
    zero = ev([np.zeros(size)])[0]
    assert np.isclose(zero, -np.mean(acts**2), rtol=1e-12, atol=0.0)
    # The latents and actions are kept once: the episodes view the padded
    # blocks, and a block of genomes scores as its rows listed do.
    for zs, acts in ev.episodes:
        assert np.shares_memory(zs, ev.zs) and np.shares_memory(acts, ev.acts)
    block = np.stack(population)
    assert np.array_equal(ev(block), ev(population))
    with pytest.raises(ContractError):
        ev(population[0])  # one genome is a row, not a block


def random_corridor_dataset(rng, lengths, width=8):
    n = sum(lengths)
    steps = [(rng.integers(0, 3, width), rng.random(width), rng.normal(0, 1, 4))
             for _ in range(n)]
    classes, depth, actions = (np.array(rows) for rows in zip(*steps))
    record = Record(classes.astype(np.int8), depth, actions, still_states(n),
                    np.cumsum([0, *lengths]))
    return Dataset(record, "fake", 0)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(pop=hs.integers(2, 70),
       lengths=hs.lists(hs.integers(1, 25), min_size=1, max_size=6),
       h_dim=hs.integers(1, 6),
       mlp=hs.tuples(hs.integers(1, 6), hs.integers(1, 6)),
       cuts=hs.lists(hs.floats(0.0, 1.0), max_size=4),
       seed=hs.integers(0, 2**16))
def test_scores_do_not_depend_on_how_the_population_is_split(
        pop, lengths, h_dim, mlp, cuts, seed):
    rng = np.random.default_rng(seed)
    model = vb.vae_init(3, (6, 4), seed, width=8)
    t = po.controller_template(k=3, h_dim=h_dim, mlp_hidden=mlp)
    ev = po.ImitationEvaluator(model, random_corridor_dataset(rng, lengths), t)
    genomes = list(rng.normal(0, 0.5, (pop, po.genome_size(t))))
    whole = ev(genomes)
    bounds = sorted({0, pop, *(int(c * pop) for c in cuts)})
    parts = [ev(genomes[a:b]) for a, b in zip(bounds, bounds[1:])]
    assert np.array_equal(np.concatenate(parts), whole)
    # Three shards, two of them in forked children, whatever the box, down
    # to one genome per shard.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(po, "_SHARD_ROWS", 1)
        mp.setattr(po, "_usable_cores", lambda: 3)
        assert len(ev.shards(pop)) == min(3, pop)
        assert np.array_equal(ev(genomes), whole)


def test_shard_rule_reads_the_cores_and_the_rows():
    assert po._shards(64, 24, cores=1) == [(0, 64)]
    assert po._shards(64, 2, cores=2) == [(0, 64)]  # the pipeline configs' E=2
    assert po._shards(56, 24, cores=2) == [(0, 28), (28, 56)]
    assert po._shards(7, 10_000, cores=16) == [(j, j + 1) for j in range(7)]
    # The break-even: two shards from 2 * _SHARD_ROWS rows, so the pipeline
    # configs' children (56 x 2) never fork.
    assert po._SHARD_ROWS == 192
    assert po._shards(16, 24, cores=2) == [(0, 8), (8, 16)]
    assert po._shards(15, 24, cores=2) == [(0, 15)]
    assert po._shards(56, 2, cores=2) == [(0, 56)]
    if po._usable_cores() < 2:
        pytest.skip("one usable core: every population is one shard")
    assert len(po._shards(64, 24, po._usable_cores())) > 1


def shard_evaluator(rng, pop):
    """A small evaluator over 3 episodes and `pop` genomes for it."""
    model = vb.vae_init(3, (6, 4), 0, width=8)
    t = po.controller_template(k=3, h_dim=4, mlp_hidden=(5, 3))
    ev = po.ImitationEvaluator(model, random_corridor_dataset(rng, [7, 12, 4]), t)
    return ev, list(rng.normal(0, 0.5, (pop, po.genome_size(t))))


def force_three_shards(mp):
    mp.setattr(po, "_SHARD_ROWS", 1)
    mp.setattr(po, "_usable_cores", lambda: 3)


def open_fds():
    """The number of this process's open file descriptors, or None."""
    fds = Path("/proc/self/fd")
    return len(list(fds.iterdir())) if fds.is_dir() else None


def test_forked_shards_leave_no_child(monkeypatch):
    ev, genomes = shard_evaluator(np.random.default_rng(20), 6)
    whole = ev(genomes)
    force_three_shards(monkeypatch)
    assert ev.shards(6) == [(0, 2), (2, 4), (4, 6)]
    fds = open_fds()
    assert np.array_equal(ev(genomes), whole)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert open_fds() == fds


def test_a_failing_shard_process_raises_and_is_reaped(monkeypatch, capfd):
    ev, genomes = shard_evaluator(np.random.default_rng(21), 6)
    force_three_shards(monkeypatch)
    parent, score = os.getpid(), ev._score

    def fail_in(where):
        def scored(flat):
            if (os.getpid() == parent) == (where == "parent"):
                raise RuntimeError(f"shard failure in the {where}")
            return score(flat)
        return scored

    monkeypatch.setattr(ev, "_score", fail_in("child"))
    with pytest.raises(EvolutionError,
                       match=r"genomes \[2, 4\) exited with status 1$"):
        ev(genomes)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert "shard failure in the child" in capfd.readouterr().err
    # The parent's own shard failing stops and reaps the children as well.
    monkeypatch.setattr(ev, "_score", fail_in("parent"))
    with pytest.raises(RuntimeError, match="in the parent"):
        ev(genomes)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_child_killed_by_a_signal_raises_and_is_reaped(monkeypatch):
    # A child that dies before writing its rows must not leave them zeros.
    ev, genomes = shard_evaluator(np.random.default_rng(24), 6)
    force_three_shards(monkeypatch)
    parent, score = os.getpid(), ev._score

    def scored(flat):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return score(flat)

    monkeypatch.setattr(ev, "_score", scored)
    with pytest.raises(EvolutionError, match=r"\[2, 4\) exited with status -9"):
        ev(genomes)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_population_below_the_break_even_never_forks(monkeypatch):
    ev, genomes = shard_evaluator(np.random.default_rng(22), 128)
    forks, fork = [], os.fork
    maps, shared = [], mmap.mmap
    monkeypatch.setattr(po.os, "fork", lambda: forks.append(1) or fork())
    monkeypatch.setattr(po.mmap, "mmap", lambda *a: maps.append(a) or shared(*a))
    monkeypatch.setattr(po, "_usable_cores", lambda: 2)
    below = ev(genomes[:127])  # 381 rows, under 2 * _SHARD_ROWS
    assert forks == [] and maps == []
    assert np.array_equal(ev(genomes)[:127], below)  # 384 rows: one child
    assert forks == [1] and maps == [(-1, 8 * 128)]
    monkeypatch.setattr(po, "_usable_cores", lambda: 1)
    ev(genomes)
    # A one-shard call and an empty block neither map nor fork; a map of
    # length 0 would raise.
    force_three_shards(monkeypatch)
    assert ev(np.empty((0, po.genome_size(ev.template)))).shape == (0,)
    assert ev(genomes[:1]).shape == (1,)
    assert forks == [1] and len(maps) == 1


LIVE_POOL_RUN = """
import hashlib, json, os, sys
sys.path.insert(0, {src!r})
import numpy as np
from cheatlab import policy as po, vae as vb
from cheatlab.expert import collect_trajectories
from cheatlab.worldsim import DEFAULT_SIM

data = collect_trajectories("fake", 4, 150, seed=6, cfg=DEFAULT_SIM)
model = vb.vae_init(8, (16, 8), 2, width=DEFAULT_SIM.scan_width)
t = po.controller_template(k=8, h_dim=5, mlp_hidden=(6, 4))
ev = po.ImitationEvaluator(model, data, t)
genomes = list(np.random.default_rng(7).normal(0, 0.3, (9, po.genome_size(t))))
cfg = po.EvolutionConfig(population=9, elites=2, generations=4, seed=8)
out = {{"tasks": len(os.listdir("/proc/self/task"))}}
for name, rows, cores in (("one", 10**9, 1), ("forked", 1, 3)):
    po._SHARD_ROWS, po._usable_cores = rows, lambda: cores
    best, history = po.evolve(cfg, ev, po.genome_size(t))
    h = hashlib.sha256(ev(genomes).tobytes())
    h.update(best.values.tobytes())
    h.update(repr([(s.best, s.mean) for s in history]).encode())
    out[name] = [len(ev.shards(9)), h.hexdigest()]
print(json.dumps(out))
"""


def test_forked_shards_keep_the_bits_under_a_live_blas_pool():
    # Two BLAS threads, so each fork happens with OpenBLAS's worker threads
    # running; the scores and an evolve's genome and history must keep the
    # bits of one shard.
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")
    proc = subprocess.run(
        [sys.executable, "-c", LIVE_POOL_RUN.format(src=str(root / "src"))],
        cwd=root, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["tasks"] >= 2  # the BLAS pool is live
    assert out["one"][0] == 1 and out["forked"][0] == 3
    assert out["forked"][1] == out["one"][1]


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


def reference_evolve(cfg, fitness, dim):
    """evolve as it was written with a fresh array per step: the elites
    gathered, their parents and the noise drawn as whole (children, dim)
    arrays, and the population stacked anew every generation."""
    rng = np.random.default_rng(cfg.seed)
    pop = rng.normal(0.0, po.INIT_SIGMA, (cfg.population, dim))
    fit = np.empty(0)
    history, best_genome, best_fit = [], None, -math.inf
    for gen in range(cfg.generations):
        fresh = pop[len(fit):]
        fit = np.concatenate([fit, np.asarray(fitness(list(fresh)))])
        order = np.argsort(-fit, kind="stable")
        if fit[order[0]] > best_fit:
            best_fit, best_genome = float(fit[order[0]]), pop[order[0]].copy()
        history.append(po.GenerationStats(gen, float(fit[order[0]]),
                                          float(fit.mean())))
        elites = pop[order[: cfg.elites]]
        parents = elites[rng.integers(0, cfg.elites, cfg.population - cfg.elites)]
        children = parents + rng.normal(
            0.0, cfg.mutation_sigma, (cfg.population - cfg.elites, dim))
        pop = np.vstack([elites, children])
        fit = fit[order[: cfg.elites]]
    return po.Genome(best_genome, best_fit), history


def assert_evolves_as_reference(cfg, fitness, dim):
    best, history = po.evolve(cfg, fitness, dim)
    want, want_history = reference_evolve(cfg, fitness, dim)
    assert np.array_equal(best.values, want.values)
    assert best.fitness == want.fitness and history == want_history


@pytest.mark.parametrize("population, elites, sigma, seed", [
    (16, 3, 0.05, 7), (10, 9, 0.01, 1), (33, 1, 0.3, 4), (64, 8, 0.01, 0)])
def test_evolve_in_place_keeps_the_bits_of_the_copying_loop(
        population, elites, sigma, seed):
    cfg = po.EvolutionConfig(population=population, elites=elites,
                             mutation_sigma=sigma, generations=12, seed=seed)
    assert_evolves_as_reference(cfg, sphere, dim=37)


def test_evolve_in_place_keeps_the_bits_under_two_forked_shards(monkeypatch):
    ev, _ = shard_evaluator(np.random.default_rng(23), 0)
    monkeypatch.setattr(po, "_SHARD_ROWS", 1)
    monkeypatch.setattr(po, "_usable_cores", lambda: 2)
    assert ev.shards(12) == [(0, 6), (6, 12)]
    cfg = po.EvolutionConfig(population=12, elites=3, mutation_sigma=0.05,
                             generations=4, seed=5)
    assert_evolves_as_reference(cfg, ev, po.genome_size(ev.template))


def test_fitness_gets_one_block_of_the_population_buffer():
    blocks = []

    def keep(genomes):
        blocks.append(genomes)
        return np.zeros(len(genomes))

    cfg = po.EvolutionConfig(population=9, elites=2, generations=3, seed=0)
    po.evolve(cfg, keep, dim=4)
    assert [b.shape for b in blocks] == [(9, 4), (7, 4), (7, 4)]
    assert all(isinstance(b, np.ndarray) for b in blocks)
    # Every generation's new rows are the same rows of one buffer.
    assert blocks[1].base is blocks[0].base is blocks[2].base
    assert np.shares_memory(blocks[0], blocks[1])


def test_evolve_holds_one_population_buffer():
    # The shipped population and genome size, a fitness that allocates
    # nothing of the genomes' size: the peak is the population and the
    # elite rows gathered each generation, not a copy per step.
    cfg = po.EvolutionConfig(population=64, elites=8, generations=3, seed=0)
    dim = po.genome_size(po.controller_template())
    assert dim == 2996
    np.random.default_rng(0)  # numpy.random's lazy import is not evolve's
    tracemalloc.start()
    try:
        po.evolve(cfg, lambda genomes: np.zeros(len(genomes)), dim)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 8 * cfg.population * dim


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
