"""Autoencoder tests: algebraic identities, gradient oracle, training."""

import numpy as np
import pytest

from cheatlab import autodiff as ad
from cheatlab import vae as vb
from cheatlab.container import params_digest
from cheatlab.errors import ContractError, DimensionError
from cheatlab.expert import Dataset, collect_trajectories
from cheatlab.worldsim import (
    DEFAULT_SIM,
    Action,
    Observation,
    Record,
)

H = 1e-5
TOL = 1e-6


def clamp_action(a: Action, cfg=DEFAULT_SIM) -> Action:
    """The reference clamp that baseline_action's rows are checked against:
    each velocity to [-v_max, v_max], the yaw rate to [-yaw_rate_max,
    yaw_rate_max], one Python float at a time."""
    v, w = cfg.v_max, cfg.yaw_rate_max
    return Action(
        min(max(a.vx, -v), v),
        min(max(a.vy, -v), v),
        min(max(a.vz, -v), v),
        min(max(a.yaw_rate, -w), w),
    )


def tiny_model(seed=0, k=3, hidden=(10, 6), width=8):
    return vb.vae_init(k, hidden, seed, width)


def random_obs(rng, width=8):
    return Observation(
        rng.integers(0, 3, width), np.round(rng.uniform(0, 1, width), 3)
    )


def test_init_is_seeded_and_shaped():
    a = tiny_model(seed=5)
    b = tiny_model(seed=5)
    assert params_digest(a.params) == params_digest(b.params)
    assert params_digest(tiny_model(seed=6).params) != params_digest(a.params)
    assert a.params["enc/w0"].data.shape == (10, 16)
    assert a.params["enc/w2"].data.shape == (6, 6)  # out = 2k
    assert a.params["dec/w2"].data.shape == (16, 10)
    assert np.all(a.params["enc/b0"].data == 0.0)


def test_encode_shapes_and_width_check():
    p = tiny_model()
    rng = np.random.default_rng(0)
    mu, logvar = vb.encode(p, random_obs(rng).features()[None])
    assert mu.shape == (1, 3) and logvar.shape == (1, 3)
    assert np.all(np.isfinite(mu)) and np.all(np.isfinite(logvar))
    with pytest.raises(DimensionError):
        vb.encode(p, random_obs(rng, width=9).features()[None])
    with pytest.raises(DimensionError):
        vb.elbo_loss(p, random_obs(rng, width=9).features(), np.zeros(3))


def test_every_net_call_takes_rows_only():
    # One Observation or one unbatched row is refused by every net, with
    # the same error as a row of the wrong width.
    from cheatlab import cheat as ch
    from cheatlab import evaluation as ev

    p = tiny_model()
    cheat = ch.cheat_init(3, (10, 6), 1, width=8)
    base = ev.baseline_init((10, 6), 2, width=8)
    obs = random_obs(np.random.default_rng(6))
    for bad in (obs, obs.features()):
        for form in (lambda v: vb.encode(p, v),
                     lambda v: vb.feature_rows(p, v),
                     lambda v: ch.cheat_encode(cheat, v),
                     lambda v: ev.baseline_action(base, v)):
            with pytest.raises(DimensionError):
                form(bad)
    for bad in (obs, obs.features()[None]):
        with pytest.raises(DimensionError):
            vb.elbo_loss(p, bad, np.zeros(3))
    with pytest.raises(DimensionError):
        vb.decode(p, np.zeros(3))


def test_sequence_encode_matches_single_encodes():
    p = tiny_model()
    rng = np.random.default_rng(1)
    seq = [random_obs(rng) for _ in range(6)]
    mu, logvar = vb.encode(p, np.stack([o.features() for o in seq]))
    assert mu.shape == (6, 3) and logvar.shape == (6, 3)
    for i, obs in enumerate(seq):
        (one_mu,), (one_logvar,) = vb.encode(p, obs.features()[None])
        assert mu[i].tobytes() == one_mu.tobytes()
        assert logvar[i].tobytes() == one_logvar.tobytes()
    wide = np.stack([random_obs(rng, width=9).features() for _ in range(2)])
    with pytest.raises(DimensionError):
        vb.encode(p, wide)
    # No rows encode to no latents; the entry points that need data
    # (train_vae, the imitation evaluator) refuse an empty set themselves.
    mu, logvar = vb.encode(p, np.zeros((0, 16)))
    assert mu.shape == logvar.shape == (0, 3)


def test_encode_reads_a_feature_array_as_its_observations():
    # A Record's feature rows lay each scan out as Observation.features
    # does, so encoding them is encoding those observations' rows.
    p = tiny_model()
    rng = np.random.default_rng(2)
    seq = [random_obs(rng) for _ in range(5)]
    rec = Record(np.array([o.classes for o in seq], np.int8),
                 np.array([o.depth for o in seq]), np.zeros((5, 4)),
                 np.zeros((5, 6)))
    rows = np.stack([o.features() for o in seq])
    for got, want in zip(vb.encode(p, rec.features()), vb.encode(p, rows)):
        assert got.tobytes() == want.tobytes()
    with pytest.raises(DimensionError):
        vb.encode(p, rows[:, :-1])


def test_inference_builds_no_graph_and_matches_the_graph(monkeypatch):
    from cheatlab import cheat as ch
    from cheatlab import evaluation as ev

    rng = np.random.default_rng(3)
    p = tiny_model()
    cheat = ch.cheat_init(3, (10, 6), 1, width=8)
    base = ev.baseline_init((10, 6), 2, width=8)
    obs = random_obs(rng)
    rows = np.stack([random_obs(rng).features() for _ in range(4)])
    x = ad.constant(obs.features())
    head = ad.dense_stack(p.params, "enc", 3, x).data
    batch_head = np.stack([ad.dense_stack(p.params, "enc", 3,
                                          ad.constant(row)).data
                           for row in rows])
    out = ad.dense_stack(p.params, "dec", 3, ad.constant(head[:3]),
                         final="sigmoid").data
    y = ad.dense_stack(base.params, "base", 3, x).data
    a = clamp_action(Action(*y), DEFAULT_SIM)
    want = {
        "mu": head[:3], "logvar": head[3:], "class": out[:8], "depth": out[8:],
        "cheat": ad.dense_stack(cheat.params, "cheat", 3, x).data,
        "baseline": np.array([a.vx, a.vy, a.vz, a.yaw_rate]),
        "batch mu": batch_head[:, :3], "batch logvar": batch_head[:, 3:],
    }

    def no_graph(*_args, **_kwargs):
        raise AssertionError("inference built a graph node")

    monkeypatch.setattr(ad, "_result", no_graph)
    one = obs.features()[None]
    mu, logvar = vb.encode(p, one)
    belief = vb.decode(p, mu)
    batch_mu, batch_logvar = vb.encode(p, rows)
    got = {
        "mu": mu[0], "logvar": logvar[0], "class": belief.class_channel[0],
        "depth": belief.depth_channel[0],
        "cheat": ch.cheat_encode(cheat, one)[0],
        "baseline": ev.baseline_action(base, one, DEFAULT_SIM)[0],
        "batch mu": batch_mu, "batch logvar": batch_logvar,
    }
    assert {k: v.tobytes() for k, v in got.items()} == \
        {k: v.tobytes() for k, v in want.items()}


def test_drone_batch_forms_give_each_row_its_lone_bits():
    # The fliers run every net on (B, .) rows of live drones; each row must
    # be what the stack gives that drone's features alone as a vector
    # (w @ x per layer), bit for bit.
    from cheatlab import cheat as ch
    from cheatlab import evaluation as ev

    rng = np.random.default_rng(4)
    p = tiny_model()
    cheat = ch.cheat_init(3, (10, 6), 1, width=8)
    base = ev.baseline_init((10, 6), 2, width=8)
    for params in (cheat.params, base.params):  # commands beyond the clamp
        for name in params.names():
            params[name].data[...] *= 3.0
    obs = [random_obs(rng) for _ in range(9)]
    x = np.stack([o.features() for o in obs])
    mu, logvar = vb.encode(p, x)
    belief = vb.decode(p, mu)
    cheat_z = ch.cheat_encode(cheat, x)
    commands = ev.baseline_action(base, x, DEFAULT_SIM)
    assert belief.class_channel.shape == belief.depth_channel.shape == (9, 8)
    assert commands.shape == (9, 4)
    clamped = 0
    for b, row in enumerate(x):
        lone = lambda params, prefix, v, final=None: ad.dense_stack(
            params, prefix, 3, ad.constant(v), final=final).data
        head = lone(p.params, "enc", row)
        assert mu[b].tobytes() == head[:3].tobytes()
        assert logvar[b].tobytes() == head[3:].tobytes()
        out = lone(p.params, "dec", head[:3], final="sigmoid")
        assert belief.class_channel[b].tobytes() == out[:8].tobytes()
        assert belief.depth_channel[b].tobytes() == out[8:].tobytes()
        want_z = lone(cheat.params, "cheat", row)
        assert cheat_z[b].tobytes() == want_z.tobytes()
        a = clamp_action(Action(*lone(base.params, "base", row)), DEFAULT_SIM)
        want = np.array([a.vx, a.vy, a.vz, a.yaw_rate])
        assert commands[b].tobytes() == want.tobytes()
        clamped += int(np.any(np.abs(want) == [DEFAULT_SIM.v_max] * 3
                              + [DEFAULT_SIM.yaw_rate_max]))
    assert clamped  # the clamp was exercised
    for form in (lambda v: vb.encode(p, v),
                 lambda v: ch.cheat_encode(cheat, v),
                 lambda v: ev.baseline_action(base, v)):
        with pytest.raises(DimensionError):
            form(x[:, :-1])
    with pytest.raises(DimensionError):
        vb.decode(p, np.zeros((2, 4)))


def test_reparameterize_zero_eps_returns_mu():
    rng = np.random.default_rng(1)
    mu = rng.normal(0, 1, 5)
    logvar = rng.normal(0, 1, 5)
    z = vb.reparameterize(ad.constant(mu), ad.constant(logvar),
                          ad.constant(np.zeros(5)))
    assert np.array_equal(z.data, mu)


def test_reparameterize_gradient_matches_finite_differences():
    # d sum(z) / d logvar via the graph vs central differences.
    rng = np.random.default_rng(2)
    mu0 = rng.normal(0, 1, 4)
    lv0 = rng.normal(0, 1, 4)
    eps = rng.normal(0, 1, 4)
    params = ad.ParamSet({"mu": mu0, "lv": lv0})
    mu, lv = params["mu"], params["lv"]
    loss = ad.vsum(vb.reparameterize(mu, lv, ad.constant(eps)))
    grads = ad.backward(loss, params)

    def loss_at(lv_vals):
        return np.sum(mu0 + np.exp(0.5 * lv_vals) * eps)

    fd = np.zeros(4)
    for i in range(4):
        delta = np.zeros(4)
        delta[i] = H
        fd[i] = (loss_at(lv0 + delta) - loss_at(lv0 - delta)) / (2 * H)
    scale = np.maximum(1.0, np.abs(fd))
    assert np.max(np.abs(grads["lv"].data - fd) / scale) < TOL
    assert np.allclose(grads["mu"].data, np.ones(4))


def test_decode_shapes_ranges_and_latent_check():
    p = tiny_model()
    recon = vb.decode(p, np.zeros((2, 3)))
    assert recon.class_channel.shape == (2, 8)
    assert recon.depth_channel.shape == (2, 8)
    for ch in (recon.class_channel, recon.depth_channel):
        assert np.all((ch > 0.0) & (ch < 1.0))  # sigmoid range
    with pytest.raises(DimensionError):
        vb.decode(p, np.zeros((1, 4)))


def test_elbo_recomputed_by_independent_forward():
    # Rebuild the loss with plain numpy: encode, reparameterize, decode,
    # then MSE + beta * KL, and compare against the graph value.
    p = tiny_model()
    rng = np.random.default_rng(3)
    obs = random_obs(rng)
    eps = rng.normal(0, 1, 3)
    beta = 0.37
    got = vb.elbo_loss(p, obs.features(), eps, beta).item()

    x = obs.features()
    h = x
    for i in range(2):
        h = np.tanh(p.params[f"enc/w{i}"].data @ h + p.params[f"enc/b{i}"].data)
    head = p.params["enc/w2"].data @ h + p.params["enc/b2"].data
    mu, logvar = head[:3], head[3:]
    z = mu + np.exp(0.5 * logvar) * eps
    h = z
    for i in range(2):
        h = np.tanh(p.params[f"dec/w{i}"].data @ h + p.params[f"dec/b{i}"].data)
    recon = 1 / (1 + np.exp(-(p.params["dec/w2"].data @ h + p.params["dec/b2"].data)))
    mse = np.mean((recon - x) ** 2)
    kl = 0.5 * np.sum(mu**2 + np.exp(logvar) - logvar - 1.0)
    assert np.isclose(got, mse + beta * kl, rtol=1e-12)


def test_elbo_full_gradient_against_finite_differences():
    p = tiny_model(k=2, hidden=(5,), width=4)
    rng = np.random.default_rng(4)
    obs = random_obs(rng, width=4)
    eps = rng.normal(0, 1, 2)

    def build():
        return vb.elbo_loss(p, obs.features(), eps, beta=0.2)

    grads = ad.backward(build(), p.params)
    for name, t in p.params.items():
        flat = t.data.ravel()
        fd = np.zeros_like(flat)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + H
            hi = build().item()
            flat[i] = keep - H
            lo = build().item()
            flat[i] = keep
            fd[i] = (hi - lo) / (2 * H)
        a = grads[name].data.ravel()
        scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(fd)))
        worst = np.max(np.abs(a - fd) / scale)
        assert worst < TOL, f"{name}: rel err {worst:g}"


def test_batch_elbo_is_mean_of_singles():
    p = tiny_model()
    rng = np.random.default_rng(5)
    obses = [random_obs(rng) for _ in range(6)]
    eps = rng.normal(0, 1, (6, 3))
    beta = 0.11
    singles = [
        vb.elbo_loss(p, o.features(), eps[i], beta).item()
        for i, o in enumerate(obses)
    ]
    x = np.stack([o.features() for o in obses])
    batch = vb._elbo_graph(p, ad.constant(x), eps, beta).item()
    assert np.isclose(batch, np.mean(singles), rtol=1e-12)


# ---------------------------------------------------------------------------
# training


def corridor_data(episodes=2):
    return collect_trajectories(
        "fake", n_episodes=episodes, max_steps=400, seed=9, cfg=DEFAULT_SIM
    )


def test_train_zero_epochs_returns_init():
    data = corridor_data()
    cfg = vb.VaeTrainConfig(k=4, hidden=(16, 8), epochs=0, seed=3)
    p, history = vb.train_vae(data, cfg)
    assert history == []
    init = vb.vae_init(4, (16, 8), 3, width=DEFAULT_SIM.scan_width)
    assert params_digest(p.params) == params_digest(init.params)


def test_train_deterministic_and_loss_falls():
    data = corridor_data()
    cfg = vb.VaeTrainConfig(k=4, hidden=(24, 12), epochs=8, batch=32, seed=1)
    p1, h1 = vb.train_vae(data, cfg)
    p2, h2 = vb.train_vae(data, cfg)
    assert h1 == h2
    assert params_digest(p1.params) == params_digest(p2.params)
    assert len(h1) == 8
    assert h1[-1] < h1[0]
    # Training must not mutate its input dataset.
    assert data.episodes == corridor_data().episodes


def test_train_rejects_real_or_empty_data():
    real = collect_trajectories("real", 1, 50, 0, DEFAULT_SIM)
    with pytest.raises(ContractError):
        vb.train_vae(real, vb.VaeTrainConfig(epochs=1))
    # No episodes, or only empty ones: no observation to train on.
    for offsets in ([0], [0, 0, 0]):
        empty = Dataset(Record(np.zeros((0, 8), np.int8), np.zeros((0, 8)),
                               np.zeros((0, 4)), np.zeros((0, 6)),
                               np.array(offsets)), "fake", 0)
        with pytest.raises(ContractError, match="no observations"):
            vb.train_vae(empty, vb.VaeTrainConfig(epochs=1))


def test_trained_depth_reconstruction_beats_untrained():
    # The seeded untrained model is the oracle baseline: training must cut
    # the depth-channel reconstruction error by at least half.
    data = corridor_data(episodes=3)
    cfg = vb.VaeTrainConfig(k=6, hidden=(48, 24), epochs=30, batch=32, seed=0)
    trained, _ = vb.train_vae(data, cfg)
    untrained = vb.vae_init(cfg.k, cfg.hidden, cfg.seed, DEFAULT_SIM.scan_width)

    def depth_mse(model):
        mu, _ = vb.encode(model, data.record.features()[::5])
        recon = vb.decode(model, mu)
        errs = np.mean((recon.depth_channel - data.record.depth[::5]) ** 2,
                       axis=1)
        return float(np.mean(errs))

    assert depth_mse(trained) <= 0.5 * depth_mse(untrained)


def test_save_load_roundtrip(tmp_path):
    p = tiny_model(seed=8)
    path = tmp_path / "vae.ckpt"
    vb.save_vae(p, path, {"note": 1})
    q = vb.load_vae(path)
    assert (q.k, q.hidden, q.width) == (p.k, p.hidden, p.width)
    assert params_digest(q.params) == params_digest(p.params)
