"""Scanline variational autoencoder.

The encoder maps a flattened observation (2W floats: class levels then
depths) through tanh dense layers to a 2k head read as (mu, logvar); the
decoder mirrors the stack back to a sigmoid 2W reconstruction whose first
W entries are the class channel and last W the depth channel. Training
minimizes reconstruction MSE plus beta times the diagonal-Gaussian KL.

Inference takes rows and gives rows: encode and decode run (B, .) rows
as one gemv per row, so each row has the bits it has alone, whether it
is one drone of a flight or one step of a recorded dataset.

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
from .worldsim import _derive_seed

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
    """Observation-shaped beliefs, both channels (B, W) in (0, 1)."""

    class_channel: np.ndarray
    depth_channel: np.ndarray


def vae_init(
    k: int, hidden: tuple[int, ...], seed: int, width: int = 64
) -> VaeParams:
    """Seeded init: weights N(0, 1/fan_in), biases zero."""
    rng = np.random.default_rng(seed)
    enc, dec = [ad.dense_init(prefix, sizes, rng)
                for prefix, sizes in _stacks(k, hidden, width)]
    return VaeParams(ad.ParamSet(enc | dec), k, tuple(hidden), width)


def _stacks(k: int, hidden, width: int) -> list[tuple[str, list[int]]]:
    """The encoder's and the decoder's dense stacks, as prefix and widths."""
    return [("enc", [2 * width, *hidden, 2 * k]),
            ("dec", [k, *reversed(hidden), 2 * width])]


def feature_rows(p, x: np.ndarray) -> np.ndarray:
    """x itself when it is (N, 2W) scan feature rows for model p's width W;
    anything else, one row or an Observation included, raises."""
    if not (isinstance(x, np.ndarray) and x.ndim == 2
            and x.shape[1] == 2 * p.width):
        raise DimensionError(f"feature rows must be (N, {2 * p.width}), got "
                             f"{getattr(x, 'shape', type(x).__name__)}")
    return x


def encode(p: VaeParams, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior parameters (mu, logvar), each [B, k], for B observations'
    features (B, 2W): the live drones of a flight, or a dataset's steps
    such as Record.features.

    Row b has the bits of row b encoded alone: each layer is a gemv per
    row (ad.dense_rows). Inference runs on plain arrays and builds no
    graph.
    """
    head = ad.dense_rows(p.params, "enc", len(p.hidden) + 1,
                         feature_rows(p, x))
    return head[:, : p.k], head[:, p.k :]


def decode(p: VaeParams, z: np.ndarray) -> Reconstruction:
    """Decode latents [B, k] into B observation-shaped beliefs.

    Row by row, each with the bits of its latent decoded alone, into
    [B, W] channels.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] != p.k:
        raise DimensionError(
            f"latent dims {list(z.shape)} do not match (B, {p.k})"
        )
    out = ad.dense_rows(p.params, "dec", len(p.hidden) + 1, z, final="sigmoid")
    return Reconstruction(out[:, : p.width].copy(), out[:, p.width :].copy())


def reparameterize(mu: ad.Tensor, logvar: ad.Tensor,
                   eps: ad.Tensor) -> ad.Tensor:
    """z = mu + exp(logvar / 2) * eps, differentiable through mu and
    logvar; eps is a constant."""
    sigma = ad.activation("exp", ad.scale(logvar, 0.5))
    return ad.add(mu, ad.mul(sigma, eps))


def _elbo_graph(p: VaeParams, x: ad.Tensor, eps: np.ndarray, beta: float):
    """Shared single/batch graph; x is [2W] or [B, 2W], eps matches mu."""
    n_layers = len(p.hidden) + 1
    head = ad.dense_stack(p.params, "enc", n_layers, x)
    mu = ad.narrow(head, 0, p.k)
    logvar = ad.narrow(head, p.k, 2 * p.k)
    z = reparameterize(mu, logvar, ad.constant(eps))
    recon = ad.dense_stack(p.params, "dec", n_layers, z, final="sigmoid")
    loss = ad.add(
        ad.mse(recon, x), ad.scale(ad.gaussian_kl(mu, logvar), beta)
    )
    return loss


def elbo_loss(
    p: VaeParams, x: np.ndarray, eps: np.ndarray, beta: float = BETA_DEFAULT
) -> ad.Tensor:
    """Scalar training loss node for one observation's features x [2W].

    eps must hold k standard-normal draws; passing the same eps reproduces
    the same loss bit for bit. This rank-1 graph is the reference the
    batch loss of train_vae is checked against.
    """
    if not (isinstance(x, np.ndarray) and x.shape == (2 * p.width,)):
        raise DimensionError(f"a feature row must be ({2 * p.width},), got "
                             f"{getattr(x, 'shape', type(x).__name__)}")
    eps = np.asarray(eps, dtype=np.float64)
    if eps.shape != (p.k,):
        raise DimensionError(f"eps dims {list(eps.shape)} do not match k={p.k}")
    return _elbo_graph(p, ad.constant(x), eps, beta)


def train_vae(data: Dataset, cfg: VaeTrainConfig) -> tuple[VaeParams, list[float]]:
    """Minibatch Adam over every observation in a corridor dataset.

    Returns the trained model and one mean loss per epoch. cfg.epochs = 0
    returns the seeded init untouched. The schedule (shuffles and noise
    draws) depends only on cfg.seed, never on wall clock. Each minibatch
    builds its own feature rows (Record.features), so no whole-set input
    matrix is held.
    """
    if data.world_kind != "fake":
        raise ContractError(
            f"the autoencoder trains on corridor data, got {data.world_kind!r}"
        )
    if not data.total_steps:
        raise ContractError("dataset holds no observations")
    p = vae_init(cfg.k, cfg.hidden, cfg.seed, data.record.width)
    rng = np.random.default_rng(_derive_seed(cfg.seed, "vae-train"))

    def loss_fn(idx, eps):
        x = ad.constant(data.record.features(idx))
        return _elbo_graph(p, x, eps, cfg.beta)

    history = ad.fit_minibatch(p.params, loss_fn, data.total_steps, cfg, rng,
                               cfg.k)
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
    container.check_layout(ckpt, [
        t for stack in _stacks(meta["k"], meta["hidden"], meta["width"])
        for t in ad.dense_layout(*stack)])
    return VaeParams(ckpt.params, meta["k"], meta["hidden"], meta["width"])
