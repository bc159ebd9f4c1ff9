"""Gradient engine tests.

The independent oracle throughout is central finite differences in float64
(h = 1e-5). Analytic gradients must agree to a relative error below 1e-6;
the comparison uses |a - n| <= tol * max(1, |a|, |n|) per entry.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cheatlab import autodiff as ad
from cheatlab.errors import ConfigError, ContractError, DimensionError

H = 1e-5
TOL = 1e-6


def fd_gradients(build_loss, params):
    """Central finite differences of a scalar loss over every parameter.

    build_loss must rebuild the graph from the current parameter values and
    return the loss tensor; it is called twice per coordinate.
    """
    out = {}
    for name, t in params.items():
        g = np.zeros_like(t.data)
        flat = t.data.ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + H
            hi = build_loss().data.item()
            flat[i] = keep - H
            lo = build_loss().data.item()
            flat[i] = keep
            g.ravel()[i] = (hi - lo) / (2.0 * H)
        out[name] = g
    return out


def assert_close_grad(analytic, numeric):
    scale = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    err = np.abs(analytic - numeric) / scale
    assert err.max() <= TOL, f"gradient mismatch, worst rel err {err.max():g}"


def check_against_fd(build_loss, params):
    loss = build_loss()
    grads = ad.backward(loss, params)
    want = fd_gradients(build_loss, params)
    for name in params.names():
        assert_close_grad(grads[name].data, want[name])


# ---------------------------------------------------------------------------
# direct value checks


def test_affine_known_values():
    p = ad.ParamSet({"w": [[1.0, 2.0], [3.0, 4.0]], "b": [0.5, -0.5]})
    w, b = p["w"], p["b"]
    x = ad.constant([1.0, -1.0])
    y = ad.affine(w, x, b)
    assert np.allclose(y.data, [-0.5, -1.5])


def test_affine_shape_mismatch_names_both_shapes():
    p = ad.ParamSet({"w": np.zeros((2, 3)), "b": np.zeros(2)})
    w, b = p["w"], p["b"]
    with pytest.raises(DimensionError) as err:
        ad.affine(w, ad.constant(np.zeros(4)), b)
    assert "[2, 3]" in str(err.value) and "[4]" in str(err.value)


def test_activation_values_and_unknown_kind():
    x = ad.constant([-1.0, 0.0, 2.0])
    assert np.allclose(ad.activation("relu", x).data, [0.0, 0.0, 2.0])
    assert np.allclose(ad.activation("tanh", x).data, np.tanh(x.data))
    assert np.allclose(
        ad.activation("sigmoid", x).data, 1 / (1 + np.exp(-x.data))
    )
    assert np.allclose(ad.activation("exp", x).data, np.exp(x.data))
    with pytest.raises(ConfigError):
        ad.activation("softplus", x)


def test_concat_and_empty_side():
    a = ad.constant([1.0, 2.0])
    b = ad.constant([3.0])
    assert np.allclose(ad.concat(a, b).data, [1.0, 2.0, 3.0])
    empty = ad.constant(np.zeros(0))
    assert np.allclose(ad.concat(a, empty).data, a.data)
    with pytest.raises(DimensionError):
        ad.concat(ad.constant(np.zeros((2, 2))), b)


def test_mse_zero_when_equal():
    x = ad.constant([0.3, -0.7, 1.1])
    assert ad.mse(x, ad.constant(x.data.copy())).item() == 0.0


def test_gaussian_kl_standard_normal_is_zero():
    mu = ad.constant(np.zeros(5))
    logvar = ad.constant(np.zeros(5))
    assert ad.gaussian_kl(mu, logvar).item() == 0.0


def test_gaussian_kl_nonnegative_random():
    rng = np.random.default_rng(7)
    for _ in range(200):
        k = int(rng.integers(1, 9))
        mu = ad.constant(rng.normal(0, 2, k))
        logvar = ad.constant(rng.normal(0, 2, k))
        assert ad.gaussian_kl(mu, logvar).item() >= 0.0


def test_gaussian_kl_batch_is_row_mean():
    rng = np.random.default_rng(8)
    m = rng.normal(0, 1, (6, 4))
    lv = rng.normal(0, 1, (6, 4))
    rows = [
        ad.gaussian_kl(ad.constant(m[i]), ad.constant(lv[i])).item()
        for i in range(6)
    ]
    got = ad.gaussian_kl(ad.constant(m), ad.constant(lv)).item()
    assert np.isclose(got, np.mean(rows), rtol=1e-12)


def test_unused_leaf_gets_zero_gradient():
    p = ad.ParamSet({"used": [1.0, 2.0], "unused": np.ones((2, 2))})
    used = p["used"]
    loss = ad.mse(used, ad.constant([0.0, 0.0]))
    grads = ad.backward(loss, p)
    assert np.allclose(grads["used"].data, used.data)  # d/dx mean(x^2) = x
    assert grads["unused"].data.shape == (2, 2)
    assert np.all(grads["unused"].data == 0.0)
    assert grads.names() == p.names() and grads.flat.shape == p.flat.shape
    assert np.shares_memory(grads["used"].data, grads.flat)


def test_backward_writes_a_given_gradient_buffer_in_place():
    p = ad.ParamSet({"used": [1.0, -2.0], "unused": np.ones((2, 2))})
    used = p["used"]
    loss = ad.mse(used, ad.constant([0.0, 0.0]))
    fresh = ad.backward(loss, p)
    buf = p.copy(np.full(p.flat.size, np.nan))  # stale values must not leak
    flat = buf.flat
    assert ad.backward(loss, p, buf) is buf
    assert buf.flat is flat
    assert buf.flat.tobytes() == fresh.flat.tobytes()


def test_backward_requires_scalar_loss():
    p = ad.ParamSet({"v": [1.0, 2.0]})
    with pytest.raises(ContractError):
        ad.backward(p["v"], p)


def test_tape_topological_order_and_single_visit():
    x = ad.ParamSet({"x": [1.0, 2.0, 3.0]})["x"]
    h = ad.activation("tanh", x)
    # Diamond: h feeds two consumers that rejoin.
    y = ad.add(ad.scale(h, 2.0), ad.mul(h, h))
    loss = ad.vsum(y)
    tape = ad._trace(loss)
    seen = set()
    pos = {}
    for i, node in enumerate(tape):
        assert id(node) not in seen, "node recorded twice"
        seen.add(id(node))
        pos[id(node)] = i
    assert len(tape) == 6  # x, tanh, 2.0 * h, h * h, their sum, vsum
    for node in tape:
        for parent in node._parents:
            assert pos[id(parent)] < pos[id(node)], "input recorded later"


def test_shared_subexpression_gradient_accumulates():
    # loss = sum(2h + h*h) with h = tanh(x): dloss/dx = (2 + 2h) * (1 - h^2)
    p = ad.ParamSet({"x": [0.3, -0.8, 1.4]})
    x = p["x"]
    h = ad.activation("tanh", x)
    loss = ad.vsum(ad.add(ad.scale(h, 2.0), ad.mul(h, h)))
    grads = ad.backward(loss, p)
    hv = np.tanh(x.data)
    assert_close_grad(grads["x"].data, (2.0 + 2.0 * hv) * (1.0 - hv * hv))


# ---------------------------------------------------------------------------
# finite-difference sweeps, one per primitive


def test_fd_affine_vector():
    rng = np.random.default_rng(0)
    p = ad.ParamSet({"w": rng.normal(0, 1, (3, 4)), "b": rng.normal(0, 1, 3),
                     "x": rng.normal(0, 1, 4)})
    w, b, x = p["w"], p["b"], p["x"]
    t = ad.constant(rng.normal(0, 1, 3))
    check_against_fd(lambda: ad.mse(ad.affine(w, x, b), t), p)


def test_fd_affine_batch():
    rng = np.random.default_rng(1)
    p = ad.ParamSet({"w": rng.normal(0, 1, (3, 4)), "b": rng.normal(0, 1, 3),
                     "x": rng.normal(0, 1, (5, 4))})
    w, b, x = p["w"], p["b"], p["x"]
    t = ad.constant(rng.normal(0, 1, (5, 3)))
    check_against_fd(lambda: ad.mse(ad.affine(w, x, b), t), p)


@pytest.mark.parametrize("kind", ["tanh", "sigmoid", "relu", "exp"])
def test_fd_activation(kind):
    rng = np.random.default_rng(2)
    vals = rng.uniform(-2, 2, 6)
    if kind == "relu":
        # Finite differences are invalid inside h of the kink at zero.
        vals = np.where(np.abs(vals) < 1e-3, 0.5, vals)
    p = ad.ParamSet({"x": vals})
    x = p["x"]
    t = ad.constant(rng.normal(0, 1, 6))
    check_against_fd(lambda: ad.mse(ad.activation(kind, x), t), p)


def test_fd_concat_narrow_add_mul_scale_sum():
    rng = np.random.default_rng(3)
    p = ad.ParamSet({"a": rng.normal(0, 1, 3), "b": rng.normal(0, 1, 4)})
    a, b = p["a"], p["b"]

    def build():
        joined = ad.concat(a, b)  # 7
        left = ad.narrow(joined, 0, 5)
        right = ad.narrow(joined, 2, 7)
        prod = ad.mul(left, right)
        return ad.vsum(ad.add(ad.scale(prod, 0.7), prod))

    check_against_fd(build, p)


def test_fd_gaussian_kl():
    rng = np.random.default_rng(4)
    p = ad.ParamSet({"mu": rng.normal(0, 1, 5), "lv": rng.normal(0, 1, 5)})
    mu, lv = p["mu"], p["lv"]
    check_against_fd(lambda: ad.gaussian_kl(mu, lv), p)


def test_fd_gaussian_kl_batch():
    rng = np.random.default_rng(5)
    p = ad.ParamSet({"mu": rng.normal(0, 1, (3, 4)),
                     "lv": rng.normal(0, 1, (3, 4))})
    mu, lv = p["mu"], p["lv"]
    check_against_fd(lambda: ad.gaussian_kl(mu, lv), p)


def test_fd_composite_network():
    # Two-layer tanh network into mse plus a KL head, exercising every
    # primitive in one graph.
    rng = np.random.default_rng(6)
    p = ad.ParamSet({"w0": rng.normal(0, 0.7, (5, 4)),
                     "b0": rng.normal(0, 0.3, 5),
                     "w1": rng.normal(0, 0.7, (6, 5)),
                     "b1": rng.normal(0, 0.3, 6)})
    w0, b0, w1, b1 = (p[name] for name in ("w0", "b0", "w1", "b1"))
    x = ad.constant(rng.normal(0, 1, 4))
    t = ad.constant(rng.normal(0, 1, 6))

    def build():
        h = ad.activation("tanh", ad.affine(w0, x, b0))
        y = ad.affine(w1, h, b1)
        mu = ad.narrow(y, 0, 3)
        lv = ad.narrow(y, 3, 6)
        return ad.add(ad.mse(y, t), ad.scale(ad.gaussian_kl(mu, lv), 0.25))

    check_against_fd(build, p)


def test_gradients_deterministic_across_reruns():
    rng = np.random.default_rng(11)
    p = ad.ParamSet({"w": rng.normal(0, 1, (4, 4)), "b": rng.normal(0, 1, 4)})
    w, b = p["w"], p["b"]
    x = ad.constant(rng.normal(0, 1, 4))
    t = ad.constant(rng.normal(0, 1, 4))

    def run():
        loss = ad.mse(ad.activation("sigmoid", ad.affine(w, x, b)), t)
        return ad.backward(loss, p)

    g1, g2 = run(), run()
    for name in p.names():
        assert np.array_equal(g1[name].data, g2[name].data)


# ---------------------------------------------------------------------------
# optimizer


def adam_reference(thetas, grads_per_step, lr, b1, b2, eps):
    """Textbook Adam recurrence, written out independently of the module."""
    theta = np.array(thetas, dtype=float)
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    for t, g in enumerate(grads_per_step, start=1):
        g = np.asarray(g, dtype=float)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1**t)
        vhat = v / (1 - b2**t)
        theta = theta - lr * mhat / (np.sqrt(vhat) + eps)
    return theta


def test_adam_two_steps_match_reference_recurrence():
    p = ad.ParamSet({"theta": [1.0, -2.0, 0.5]})
    opt = ad.Adam(0.1)
    g1 = np.array([0.3, -0.5, 1.0])
    g2 = np.array([-0.2, 0.4, 0.7])
    opt.step(p, p.copy(g1))
    opt.step(p, p.copy(g2))
    want = adam_reference([1.0, -2.0, 0.5], [g1, g2], 0.1, 0.9, 0.999, 1e-8)
    assert np.allclose(p["theta"].data, want, rtol=0, atol=1e-15)


def test_adam_first_step_magnitude_near_lr():
    # With bias correction the very first update has magnitude close to lr
    # for any nonzero gradient.
    p = ad.ParamSet({"theta": [0.0]})
    opt = ad.Adam(0.05)
    opt.step(p, p.copy([3.7]))
    assert np.isclose(abs(p["theta"].data[0]), 0.05, rtol=1e-6)


def test_adam_zero_gradients_leave_parameters_unchanged():
    p = ad.ParamSet({"theta": [0.25, -1.5]})
    before = p["theta"].data.copy()
    opt = ad.Adam(1e-3)
    for _ in range(3):
        opt.step(p, p.copy(np.zeros(2)))
    assert np.array_equal(p["theta"].data, before)


def test_adam_requires_gradients_in_the_parameters_layout():
    p = ad.ParamSet({"w": [1.0], "c": [2.0]})
    opt = ad.Adam(1e-3)
    opt.step(p, p.copy([0.5, 0.3]))
    with pytest.raises(ContractError):
        opt.step(p, ad.ParamSet({}))


def test_adam_gradient_shape_mismatch_is_contract_error():
    p = ad.ParamSet({"w": np.zeros(3)})
    wrong = ad.ParamSet({"w": np.zeros(4)})
    with pytest.raises(ContractError):
        ad.Adam(1e-3).step(p, wrong)


def test_adam_updates_the_flat_buffer_per_tensor():
    rng = np.random.default_rng(13)
    p = ad.ParamSet({"w": rng.normal(size=(3, 2)), "c": rng.normal(size=4),
                     "b": rng.normal(size=3)})
    start = {name: t.data.copy() for name, t in p.items()}
    flat = p.flat
    opt = ad.Adam(0.05)
    steps = [rng.normal(size=p.flat.size) for _ in range(3)]
    for g in steps:
        opt.step(p, p.copy(g))
    assert p.flat is flat  # updated in place
    for name in ("w", "c", "b"):
        want = adam_reference(start[name], [p.views(g)[name] for g in steps],
                              0.05, 0.9, 0.999, 1e-8)
        # The reference forms (1 - b2) * g * g, the module (1 - b2) * (g * g),
        # so the two may differ in the last bit.
        np.testing.assert_allclose(p[name].data, want, rtol=1e-15, atol=0)


def test_adam_matches_the_masked_update_with_every_flag_true_bit_for_bit():
    # The update as it stood while tensors could be frozen: the same ufuncs
    # in the same order, and the final subtract masked to trainable
    # entries, here all of them. Dropping the mask must not move a bit.
    rng = np.random.default_rng(21)
    p = ad.ParamSet({name: rng.normal(size=shape) for name, shape in (
        ("w0", (40, 30)), ("b0", (40,)), ("w1", (8, 40)), ("b1", (8,)),
        ("s", ()))})
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    theta = p.flat.copy()
    mask = np.ones(theta.size, bool)
    m, v, a, b = (np.zeros_like(theta) for _ in range(4))
    opt = ad.Adam(lr)
    for t in range(1, 6):
        g = rng.normal(scale=10.0 ** rng.integers(-6, 3), size=theta.size)
        opt.step(p, p.copy(g))
        bc1, bc2 = 1.0 - b1**t, 1.0 - b2**t
        np.multiply(m, b1, out=m)
        np.multiply(g, 1.0 - b1, out=a)
        np.add(m, a, out=m)
        np.multiply(v, b2, out=v)
        np.multiply(g, g, out=a)
        np.multiply(a, 1.0 - b2, out=a)
        np.add(v, a, out=v)
        np.divide(v, bc2, out=a)
        np.sqrt(a, out=a)
        np.add(a, eps, out=a)
        np.divide(m, bc1, out=b)
        np.multiply(b, lr, out=b)
        np.divide(b, a, out=b)
        np.subtract(theta, b, out=theta, where=mask)
        assert p.flat.tobytes() == theta.tobytes(), f"step {t}"


# ---------------------------------------------------------------------------
# dense stacks and the minibatch loop


def test_dense_init_layout_and_scale():
    p = ad.ParamSet(ad.dense_init("net", [400, 300, 2], np.random.default_rng(0)))
    assert p.names() == ["net/w0", "net/b0", "net/w1", "net/b1"]
    assert p["net/w0"].dims == [300, 400] and p["net/w1"].dims == [2, 300]
    assert not p["net/b0"].data.any() and not p["net/b1"].data.any()
    # N(0, 1/fan_in): the first layer's 120k draws have variance ~1/400.
    assert abs(p["net/w0"].data.var() * 400 - 1.0) < 0.02
    with pytest.raises(ContractError):
        ad.dense_init("net", [4, 0, 2], np.random.default_rng(0))


def test_dense_stack_tanh_between_layers_and_final_activation():
    p = ad.ParamSet(ad.dense_init("net", [3, 4, 2], np.random.default_rng(1)))
    x = np.array([0.5, -1.0, 2.0])
    hidden = np.tanh(p["net/w0"].data @ x + p["net/b0"].data)
    linear = p["net/w1"].data @ hidden + p["net/b1"].data
    out = ad.dense_stack(p, "net", 2, ad.constant(x))
    assert np.array_equal(out.data, linear)
    out = ad.dense_stack(p, "net", 2, ad.constant(x), final="sigmoid")
    assert np.allclose(out.data, 1.0 / (1.0 + np.exp(-linear)), rtol=0, atol=1e-15)


# Widths of every dense layer the package ships (128, 64, 16) and odd
# ones, drawn with any other width up to 160.
_WIDTHS = st.one_of(st.sampled_from([1, 3, 5, 9, 16, 64, 128]),
                    st.integers(1, 160))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(n=_WIDTHS, m=_WIDTHS, batch=st.integers(1, 64),
       transposed=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_matvec_and_vecmat_rows_round_as_lone_vector_products(
        n, m, batch, transposed, seed):
    # Every batched flier promises each drone the bits it gets flown
    # alone, because np.matvec and np.vecmat run the same gemv per row as
    # a lone w @ x or x @ w. A numpy or BLAS build that rounds them
    # differently breaks that promise, and this test says so.
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(batch, n))
    # A contiguous matrix, or a transposed view as _pack lays out the
    # controller's weights.
    w = rng.normal(size=(n, m)).T if transposed else rng.normal(size=(m, n))
    g = rng.normal(size=(m, n)).T if transposed else rng.normal(size=(n, m))
    out = np.empty((batch, m))
    np.vecmat(x, g, out=out)
    for name, rows, lone in (
            ("matvec", np.matvec(w, x), [w @ v for v in x]),
            ("vecmat", np.vecmat(x, g), [v @ g for v in x]),
            ("vecmat(out=)", out, [v @ g for v in x])):
        bad = [b for b, want in enumerate(lone)
               if rows[b].tobytes() != want.tobytes()]
        assert not bad, (
            f"np.{name} rows {bad} of a ({batch}, {n}) batch through a "
            f"{'transposed ' if transposed else ''}{m}-wide layer round "
            f"unlike the same lone vector products on numpy "
            f"{np.__version__}: batched flights would not fly bit for bit "
            f"as lone ones")


@pytest.mark.parametrize("final", [None, "sigmoid", "tanh"])
def test_dense_rows_gives_each_row_its_lone_vector_bits(final):
    # The inference form against the graph on each row alone as a vector.
    p = ad.ParamSet(ad.dense_init("net", [5, 9, 6, 3], np.random.default_rng(2)))
    x = np.random.default_rng(3).normal(0, 2, (7, 5))
    rows = ad.dense_rows(p, "net", 3, x, final=final)
    assert rows.shape == (7, 3)
    for row, v in zip(rows, x):
        lone = ad.dense_stack(p, "net", 3, ad.constant(v), final=final)
        assert row.tobytes() == lone.data.tobytes()


@pytest.mark.parametrize("batch", [False, True])
def test_affine_skips_the_gradient_of_a_constant_input(batch):
    rng = np.random.default_rng(4)
    layer = {"w": rng.normal(size=(3, 4)), "b": rng.normal(size=3)}
    shape = (5, 4) if batch else (4,)
    g = rng.normal(size=(5, 3) if batch else 3)
    const = ad.constant(rng.normal(size=shape))
    p = ad.ParamSet({**layer, "x": rng.normal(size=shape),
                     "v": rng.normal(size=(2, 3)), "c": np.zeros(2)})
    w, b, x = p["w"], p["b"], p["x"]
    _, gx, _ = ad.affine(w, const, b)._grad_fn(g)
    assert gx is None
    _, gx, _ = ad.affine(w, x, b)._grad_fn(g)  # a trainable input keeps it
    assert np.array_equal(gx, g @ w.data if batch else w.data.T @ g)
    h = ad.activation("tanh", ad.affine(w, x, b))  # so does a computed one
    _, gh, _ = ad.affine(p["v"], h, p["c"])._grad_fn(
        rng.normal(size=(5, 2) if batch else 2))
    assert gh is not None


def test_fit_minibatch_draws_noise_right_after_each_shuffle():
    p = ad.ParamSet(ad.dense_init("net", [3, 2], np.random.default_rng(0)))
    x = np.random.default_rng(1).normal(size=(5, 3))
    seen = []

    def loss_fn(idx, eps):
        seen.append((idx.copy(), eps.copy()))
        pred = ad.dense_stack(p, "net", 1, ad.constant(x[idx]))
        return ad.mse(pred, ad.constant(np.zeros((len(idx), 2))))

    cfg = ad.DenseTrainConfig(epochs=2, batch=2, lr=1e-2)
    history = ad.fit_minibatch(p, loss_fn, 5, cfg, np.random.default_rng(5), 4)
    assert len(history) == 2 and len(seen) == 6
    ref = np.random.default_rng(5)
    for epoch in range(2):
        order = ref.permutation(5)
        noise = ref.standard_normal((5, 4))
        for j, at in enumerate(range(0, 5, 2)):
            idx, eps = seen[3 * epoch + j]
            assert np.array_equal(idx, order[at : at + 2])
            assert np.array_equal(eps, noise[order[at : at + 2]])


def test_fit_minibatch_without_noise_and_zero_epochs():
    p = ad.ParamSet(ad.dense_init("net", [3, 1], np.random.default_rng(0)))
    before = p.flat.copy()
    x = np.random.default_rng(2).normal(size=(4, 3))
    eps_seen = []

    def loss_fn(idx, eps):
        eps_seen.append(eps)
        pred = ad.dense_stack(p, "net", 1, ad.constant(x[idx]))
        return ad.mse(pred, ad.constant(np.ones((len(idx), 1))))

    zero = ad.DenseTrainConfig(epochs=0)
    assert ad.fit_minibatch(p, loss_fn, 4, zero, np.random.default_rng(0)) == []
    assert np.array_equal(p.flat, before) and not eps_seen
    cfg = ad.DenseTrainConfig(epochs=30, batch=3, lr=0.05)
    history = ad.fit_minibatch(p, loss_fn, 4, cfg, np.random.default_rng(0))
    assert eps_seen and all(e is None for e in eps_seen)
    assert history[-1] < history[0]


# ---------------------------------------------------------------------------
# ParamSet


def test_paramset_preserves_the_order_of_its_tensors():
    p = ad.ParamSet({"b": np.zeros(2), "a": np.zeros(3)})
    assert p.names() == ["b", "a"]


def test_paramset_flatten_roundtrip():
    rng = np.random.default_rng(12)
    p = ad.ParamSet({"w": rng.normal(0, 1, (2, 3)), "b": rng.normal(0, 1, 2)})
    flat = p.flat.copy()
    assert flat.shape == (8,)
    q = p.copy(np.arange(8.0))
    assert np.array_equal(q["w"].data, np.arange(6.0).reshape(2, 3))
    assert np.array_equal(q["b"].data, [6.0, 7.0])
    q.flat[...] = -q.flat
    assert np.array_equal(q["b"].data, [-6.0, -7.0])
    # Original untouched by the copy's mutation.
    assert np.array_equal(p.flat, flat)
    with pytest.raises(DimensionError):
        p.copy(np.zeros(7))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(st.lists(st.integers(1, 4), max_size=3),
                min_size=1, max_size=6))
def test_paramset_tensors_are_views_of_one_flat_buffer(shapes):
    rng = np.random.default_rng(len(shapes))
    values = [rng.normal(size=shape) for shape in shapes]
    p = ad.ParamSet({f"t{i}": v for i, v in enumerate(values)})
    assert p.names() == [f"t{i}" for i in range(len(shapes))]
    at = 0
    for (name, t), want in zip(p.items(), values):
        assert t.data.flags.c_contiguous and np.shares_memory(t.data, p.flat)
        assert t.data.ctypes.data == p.flat.ctypes.data + 8 * at
        assert np.array_equal(t.data, want) and t.data.shape == want.shape
        assert not np.shares_memory(t.data, want)  # the set holds a copy
        at += t.data.size
    assert at == p.flat.size
    assert all(t.trainable and t.name == name for name, t in p.items())

    # A write through a tensor's ravel reaches the buffer, as criterion 1's
    # finite differences need.
    at = 0
    for i, (_, t) in enumerate(p.items()):
        t.data.ravel()[0] = 100.0 + i
        assert p.flat[at] == 100.0 + i
        at += t.data.size

    q = p.copy()
    assert not np.shares_memory(q.flat, p.flat)
    assert not any(np.shares_memory(t.data, p.flat) for _, t in q.items())
    assert q.names() == p.names() and np.array_equal(q.flat, p.flat)
    assert all(t.trainable for _, t in q.items())

    before = p.flat.copy()
    new = rng.normal(size=p.flat.size)
    q.flat[...] = new
    assert not np.shares_memory(q.flat, new)
    assert all(np.array_equal(t.data, v)
               for (_, t), v in zip(q.items(), q.views(new).values()))
    assert np.array_equal(p.flat, before)
