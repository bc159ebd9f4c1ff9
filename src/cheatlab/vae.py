"""Scanline variational autoencoder.

The encoder maps a flattened observation (2W floats: class levels then
depths) through tanh dense layers to a 2k head read as (mu, logvar); the
decoder mirrors the stack back to a sigmoid 2W reconstruction whose first
W entries are the class channel and last W the depth channel. Training
minimizes reconstruction MSE plus beta times the diagonal-Gaussian KL.

beta trades reconstruction for latent regularity. The default is small
because the reconstruction term is a mean over 2W entries while the KL is
a sum over k; at beta = 1 the KL swamps the signal and the posterior mean
collapses to zero, which defeats every downstream consumer of mu.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import container
from .errors import ContractError, DimensionError
from .expert import Dataset
from .worldsim import Observation, _derive_seed

BETA_DEFAULT = 1e-3


@dataclass
class VaeParams:
    """Parameter set plus the architecture needed to run it."""

    params: ad.ParamSet
    k: int
    hidden: tuple[int, ...]
    width: int


@dataclass(frozen=True)
class VaeTrainConfig:
    k: int = 8
    hidden: tuple[int, ...] = (128, 64)
    beta: float = BETA_DEFAULT
    epochs: int = 200
    batch: int = 64
    lr: float = 1e-3
    seed: int = 0


@dataclass
class Reconstruction:
    """Observation-shaped belief, both channels in (0, 1)."""

    class_channel: np.ndarray
    depth_channel: np.ndarray


def vae_init(
    k: int, hidden: tuple[int, ...], seed: int, width: int = 64
) -> VaeParams:
    """Seeded init: weights N(0, 1/fan_in), biases zero."""
    rng = np.random.default_rng(seed)
    params = ad.ParamSet()
    ad.dense_init(params, "enc", [2 * width, *hidden, 2 * k], rng)
    ad.dense_init(params, "dec", [k, *reversed(hidden), 2 * width], rng)
    return VaeParams(params, k, tuple(hidden), width)


def feature_rows(p, obs: Observation | np.ndarray) -> np.ndarray:
    """(N, 2W) scan features for model p's width W: an Observation as one
    row, or an array of rows as it is; any other shape raises."""
    x = obs.features()[None] if isinstance(obs, Observation) else obs
    if x.ndim != 2 or x.shape[1] != 2 * p.width:
        raise DimensionError(f"feature dims {list(x.shape)} do not "
                             f"match model width {p.width}")
    return x


def encode(
    p: VaeParams, obs: Observation | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior parameters (mu, logvar) for one observation, each [k].

    N observations' features as one (N, 2W) array (Record.features) are
    encoded as one batch, one gemm per layer, and give two [N, k] arrays.
    Inference runs on plain arrays and builds no graph.
    """
    x = feature_rows(p, obs)
    if not len(x):
        raise ContractError("encode needs at least one observation")
    head = _encoder(p, x[0] if isinstance(obs, Observation) else x)
    return head[..., : p.k].copy(), head[..., p.k :].copy()


# The two halves: graph nodes for a Tensor input, an array for an array.
def _encoder(p: VaeParams, x):
    return ad.dense_stack(p.params, "enc", len(p.hidden) + 1, x)


def _decoder(p: VaeParams, z):
    return ad.dense_stack(p.params, "dec", len(p.hidden) + 1, z, final="sigmoid")


def encode_rows(p: VaeParams, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mu, logvar), each [B, k], for B drones' scan features (B, 2W).

    Row b has the bits encode gives drone b's Observation alone: each
    layer is a gemv per row (ad.dense_rows), where encode's dataset batch
    is one gemm.
    """
    head = ad.dense_rows(p.params, "enc", len(p.hidden) + 1,
                         feature_rows(p, x))
    return head[:, : p.k], head[:, p.k :]


def decode(p: VaeParams, z: np.ndarray) -> Reconstruction:
    """Decode a latent vector [k] into an observation-shaped belief.

    A stack of latents [B, k] decodes row by row in one call, each row with
    the bits of its latent decoded alone, into [B, W] channels.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.shape[-1:] != (p.k,) or z.ndim > 2:
        raise DimensionError(
            f"latent dims {list(z.shape)} do not match k={p.k}"
        )
    out = ad.dense_rows(p.params, "dec", len(p.hidden) + 1, z.reshape(-1, p.k),
                        final="sigmoid").reshape(z.shape[:-1] + (-1,))
    return Reconstruction(out[..., : p.width].copy(), out[..., p.width :].copy())


def reparameterize(mu, logvar, eps):
    """z = mu + exp(logvar / 2) * eps.

    Accepts Tensors (differentiable through mu and logvar; eps is always a
    constant) or plain arrays, which take a numpy fast path.
    """
    if isinstance(mu, ad.Tensor) or isinstance(logvar, ad.Tensor):
        eps_t = eps if isinstance(eps, ad.Tensor) else ad.constant(eps)
        sigma = ad.activation("exp", ad.scale(logvar, 0.5))
        return ad.add(mu, ad.mul(sigma, eps_t))
    return mu + np.exp(0.5 * logvar) * eps


def _elbo_graph(p: VaeParams, x: ad.Tensor, eps: np.ndarray, beta: float):
    """Shared single/batch graph; x is [2W] or [B, 2W], eps matches mu."""
    head = _encoder(p, x)
    mu = ad.narrow(head, 0, p.k)
    logvar = ad.narrow(head, p.k, 2 * p.k)
    z = reparameterize(mu, logvar, ad.constant(eps))
    recon = _decoder(p, z)
    loss = ad.add(
        ad.mse(recon, x), ad.scale(ad.gaussian_kl(mu, logvar), beta)
    )
    return loss


def elbo_loss(
    p: VaeParams, obs: Observation, eps: np.ndarray, beta: float = BETA_DEFAULT
) -> ad.Tensor:
    """Scalar training loss node for one observation.

    eps must hold k standard-normal draws; passing the same eps reproduces
    the same loss bit for bit.
    """
    x = feature_rows(p, obs)[0]
    eps = np.asarray(eps, dtype=np.float64)
    if eps.shape != (p.k,):
        raise DimensionError(f"eps dims {list(eps.shape)} do not match k={p.k}")
    return _elbo_graph(p, ad.constant(x), eps, beta)


def train_vae(data: Dataset, cfg: VaeTrainConfig) -> tuple[VaeParams, list[float]]:
    """Minibatch Adam over every observation in a corridor dataset.

    Returns the trained model and one mean loss per epoch. cfg.epochs = 0
    returns the seeded init untouched. The schedule (shuffles and noise
    draws) depends only on cfg.seed, never on wall clock.
    """
    if data.world_kind != "fake":
        raise ContractError(
            f"the autoencoder trains on corridor data, got {data.world_kind!r}"
        )
    if not data.total_steps:
        raise ContractError("dataset holds no observations")
    p = vae_init(cfg.k, cfg.hidden, cfg.seed, data.record.width)
    x_all = data.record.features()
    rng = np.random.default_rng(_derive_seed(cfg.seed, "vae-train"))

    def loss_fn(idx, eps):
        return _elbo_graph(p, ad.constant(x_all[idx]), eps, cfg.beta)

    history = ad.fit_minibatch(p.params, loss_fn, len(x_all), cfg, rng, cfg.k)
    return p, history


# ---------------------------------------------------------------------------
# persistence


def save_vae(p: VaeParams, path, extra_meta: dict | None = None) -> str:
    meta = {"k": p.k, "hidden": list(p.hidden), "width": p.width}
    return container.save_checkpoint(path, "vae", p.params, meta, extra_meta)


def load_vae(path) -> VaeParams:
    ckpt = container.load_checkpoint(path, "vae", {
        "k": container.meta_int, "hidden": container.meta_ints,
        "width": container.meta_int,
    })
    meta = ckpt.metadata
    return VaeParams(ckpt.params, meta["k"], meta["hidden"], meta["width"])
