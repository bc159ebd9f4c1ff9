"""Reverse-mode automatic differentiation on float64 numpy arrays.

A forward pass builds a fresh graph of Tensor nodes; backward() puts the
nodes reachable from a scalar loss into topological order (_trace) and
sweeps them once in reverse, accumulating adjoints. There is no graph reuse
and no global state: independent graphs never interact.

Every parameter trains. A ParamSet holds one net's weights in one flat
buffer and Adam updates all of it; a weight that must stay fixed lives in
a set that no optimizer steps, as the frozen VAE and controller do while
the substitute encoder trains.

Primitives are deliberately few: the dense affine map, elementwise
activations, rank-1 concatenation / slicing, elementwise add / mul, scalar
scaling, summation, mean squared error, and the diagonal-Gaussian KL term.
affine / mse / gaussian_kl also accept a leading batch axis so training
loops can process minibatches without a python-level loop per sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

import numpy as np

from .errors import ConfigError, ContractError, DimensionError

Array = np.ndarray


class Tensor:
    """A float64 array node in a computation graph.

    Leaf tensors (parameters, constants) have no parents; `trainable` is
    True on a parameter, which is how affine tells it from a constant
    input. Tensors returned by primitives carry the closure that maps the
    output adjoint to the input adjoints.
    """

    __slots__ = ("data", "name", "trainable", "_parents", "_grad_fn")

    def __init__(self, data, name: str | None = None, trainable: bool = False):
        self.data = np.array(data, dtype=np.float64)
        self.name = name
        self.trainable = trainable
        self._parents: tuple[Tensor, ...] = ()
        self._grad_fn: Callable[[Array], tuple[Array | None, ...]] | None = None

    @property
    def dims(self) -> list[int]:
        return list(self.data.shape)

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(dims={self.dims}{tag})"


def _result(data: Array, parents: tuple[Tensor, ...], grad_fn) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.name = None
    out.trainable = False
    out._parents = parents
    out._grad_fn = grad_fn
    return out


def constant(data, name: str | None = None) -> Tensor:
    """Wrap an array as a non-trainable leaf."""
    return Tensor(data, name=name, trainable=False)


class ParamSet:
    """Ordered mapping from unique names to leaf tensors over one buffer.

    Built once from `tensors`, an ordered mapping from names to arrays:
    their values are copied into one contiguous float64 array, `flat`, in
    that order, each row-major, and every tensor is a trainable leaf whose
    `.data` is a C-contiguous view of `flat`, so writing through a tensor
    writes the buffer and the reverse. This one layout is the
    serialization, genome and gradient layout downstream; read or write
    `flat` for the whole vector, and use `copy(values)` for a set over
    another vector.
    """

    def __init__(self, tensors: Mapping[str, Array]) -> None:
        self._layout: dict[str, tuple[int, tuple[int, ...]]] = {}
        at = 0
        for name, data in tensors.items():
            shape = np.shape(data)
            self._layout[name] = (at, shape)
            at += math.prod(shape)
        self.flat = np.empty(at)
        self._tensors: dict[str, Tensor] = {}
        for name, view in self.views(self.flat).items():
            view[...] = tensors[name]
            leaf = self._tensors[name] = Tensor((), name, trainable=True)
            leaf.data = view

    def _check(self, shape: tuple[int, ...]) -> None:
        if shape != self.flat.shape:
            raise DimensionError(f"flat vector of shape {list(shape)} does not "
                                 f"match parameter count {self.flat.size}")

    def views(self, flat: Array) -> dict[str, Array]:
        """Name -> view of an array whose last axis is laid out like `flat`.

        Leading axes carry through: a (pop, size) stack of flat vectors
        gives one (pop, *shape) view per name.
        """
        self._check(flat.shape[-1:])
        lead = flat.shape[:-1]
        return {
            name: flat[..., at : at + math.prod(shape)].reshape(lead + shape)
            for name, (at, shape) in self._layout.items()
        }

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def names(self) -> list[str]:
        return list(self._tensors)

    def items(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self._tensors.items())

    def copy(self, values: Array | None = None) -> "ParamSet":
        """A new set with this layout over a copy of `values` (this set's
        own by default); it shares no memory."""
        flat = np.asarray(self.flat if values is None else values,
                          dtype=np.float64)
        self._check(flat.shape)
        return ParamSet(self.views(flat))


def dense_layout(prefix: str, sizes) -> list[tuple[str, tuple[int, ...]]]:
    """Tensor names and shapes of a dense stack of the given widths: layer
    i maps sizes[i] to sizes[i + 1] as `{prefix}/w{i}` (n_out, n_in), then
    `{prefix}/b{i}` (n_out,)."""
    out = []
    for i, (n_in, n_out) in enumerate(zip(sizes, sizes[1:])):
        out += [(f"{prefix}/w{i}", (n_out, n_in)),
                (f"{prefix}/b{i}", (n_out,))]
    return out


def dense_init(prefix: str, sizes: list[int],
               rng: np.random.Generator) -> dict[str, Array]:
    """The tensors of a dense stack of the given widths, {name: array} in
    dense_layout's order, for a ParamSet: weights drawn from N(0, 1/fan_in)
    off rng, in layer order, and zero biases.
    """
    if min(sizes) < 1:
        raise ContractError(f"bad dense layer sizes {list(sizes)} for {prefix!r}")
    return {name: (rng.standard_normal(shape) / np.sqrt(shape[1])
                   if len(shape) == 2 else np.zeros(shape))
            for name, shape in dense_layout(prefix, sizes)}


def _trace(root: Tensor) -> list[Tensor]:
    """The nodes reachable from root, each once, every node after its
    parents."""
    order: list[Tensor] = []
    done: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in done:
            continue
        if expanded:
            done.add(id(node))
            order.append(node)
        else:
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in done:
                    stack.append((parent, False))
    return order


def backward(loss: Tensor, params: ParamSet,
             grads: ParamSet | None = None) -> ParamSet:
    """Reverse sweep from a scalar loss; returns the gradient of every
    parameter as one set with params' layout, so `grads.flat` is the whole
    gradient and `grads[name].data` each parameter's view of it.

    Parameters that do not influence the loss get a zero gradient. The
    sweep walks _trace(loss) backwards, so each graph node is visited
    exactly once. Passing `grads` (a `params.copy()`) writes every adjoint
    into it in place and returns it, so a training loop reuses one
    buffer; without it the gradient is a new set.
    """
    if loss.data.shape != ():
        raise ContractError(
            f"backward expects a scalar loss, got dims {loss.dims}"
        )
    adjoint: dict[int, Array] = {id(loss): np.ones(())}
    for node in reversed(_trace(loss)):
        grad = adjoint.get(id(node))
        if grad is None or node._grad_fn is None:
            continue
        for parent, pg in zip(node._parents, node._grad_fn(grad)):
            if pg is None:
                continue
            acc = adjoint.get(id(parent))
            adjoint[id(parent)] = pg if acc is None else acc + pg
    if grads is None:
        grads = params.copy()
    for name, t in params.items():
        g = adjoint.get(id(t))
        grads[name].data[...] = 0.0 if g is None else g
    return grads


# ---------------------------------------------------------------------------
# primitives


def _affine(w: Array, x: Array, b: Array) -> Array:
    """w @ x + b for a vector x, x @ w.T + b for a batch of rows."""
    return w @ x + b if x.ndim == 1 else x @ w.T + b


def affine(w: Tensor, x: Tensor, b: Tensor) -> Tensor:
    """Dense map w @ x + b.

    w has dims [m, n] and b dims [m]. x may be a single vector [n] or a
    batch [B, n]; the batch form returns [B, m] with b broadcast per row.
    No gradient is computed for an x that is a constant leaf (a
    non-trainable tensor with no parents), such as an input batch.
    """
    if w.data.ndim != 2 or b.data.ndim != 1:
        raise DimensionError(
            f"affine expects w rank 2 and b rank 1, got {w.dims} and {b.dims}"
        )
    m, n = w.data.shape
    if b.data.shape[0] != m:
        raise DimensionError(f"affine: w dims {w.dims} vs b dims {b.dims}")
    if x.data.ndim not in (1, 2):
        raise DimensionError(f"affine: x must have rank 1 or 2, got dims {x.dims}")
    if x.data.shape[-1] != n:
        raise DimensionError(f"affine: w dims {w.dims} vs x dims {x.dims}")
    y = _affine(w.data, x.data, b.data)
    wants_x = x._grad_fn is not None or x.trainable
    if x.data.ndim == 1:

        def grad_fn(g: Array):
            return np.outer(g, x.data), (w.data.T @ g if wants_x else None), g

        return _result(y, (w, x, b), grad_fn)

    def grad_fn_batch(g: Array):
        return g.T @ x.data, (g @ w.data if wants_x else None), g.sum(axis=0)

    return _result(y, (w, x, b), grad_fn_batch)


# Each activation's forward map; the graph and dense_rows share it.
_FORWARD = {
    "tanh": np.tanh,
    "sigmoid": lambda x: 1.0 / (1.0 + np.exp(-x)),
    "relu": lambda x: np.maximum(x, 0.0),
    "exp": np.exp,
}


def activation(kind: str, x: Tensor) -> Tensor:
    """Elementwise nonlinearity; kind is one of tanh, sigmoid, relu, exp."""
    if kind not in _FORWARD:
        raise ConfigError(
            f"unknown activation {kind!r}; expected one of {tuple(_FORWARD)}"
        )
    y = _FORWARD[kind](x.data)
    if kind == "tanh":
        grad = lambda g: ((1.0 - y * y) * g,)
    elif kind == "sigmoid":
        grad = lambda g: (y * (1.0 - y) * g,)
    elif kind == "relu":
        grad = lambda g: ((x.data > 0.0) * g,)
    else:
        grad = lambda g: (y * g,)
    return _result(y, (x,), grad)


def dense_stack(params: ParamSet, prefix: str, n_layers: int, x: Tensor,
                final: str | None = None) -> Tensor:
    """Dense stack: tanh between layers, `final` activation on the last."""
    h = x
    for i in range(n_layers):
        h = affine(params[f"{prefix}/w{i}"], h, params[f"{prefix}/b{i}"])
        kind = "tanh" if i < n_layers - 1 else final
        if kind is not None:
            h = activation(kind, h)
    return h


def dense_rows(params: ParamSet, prefix: str, n_layers: int, x: Array,
               final: str | None = None) -> Array:
    """The inference form of dense_stack: (B, n) rows, each row with the
    bits dense_stack gives that row alone as a vector.

    Each layer is one np.matvec, a gemv per row like w @ x, where
    dense_stack's batch form is one gemm (x @ w.T), which rounds
    differently. Every net runs its inference rows through it.
    """
    h = x
    for i in range(n_layers):
        h = np.matvec(params[f"{prefix}/w{i}"].data, h)
        h += params[f"{prefix}/b{i}"].data
        kind = "tanh" if i < n_layers - 1 else final
        if kind is not None:
            h = _FORWARD[kind](h)
    return h


def concat(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate two rank-1 tensors."""
    if a.data.ndim != 1 or b.data.ndim != 1:
        raise DimensionError(
            f"concat expects rank-1 operands, got dims {a.dims} and {b.dims}"
        )
    n = a.data.shape[0]
    y = np.concatenate([a.data, b.data])

    def grad_fn(g: Array):
        return g[:n], g[n:]

    return _result(y, (a, b), grad_fn)


def narrow(x: Tensor, start: int, stop: int) -> Tensor:
    """Slice [start, stop) along the last axis; gradient scatters back."""
    size = x.data.shape[-1] if x.data.ndim else 0
    if x.data.ndim not in (1, 2):
        raise DimensionError(f"narrow expects rank 1 or 2, got dims {x.dims}")
    if not (0 <= start <= stop <= size):
        raise ContractError(
            f"narrow range [{start}, {stop}) invalid for last axis of {size}"
        )
    y = x.data[..., start:stop].copy()

    def grad_fn(g: Array):
        full = np.zeros_like(x.data)
        full[..., start:stop] = g
        return (full,)

    return _result(y, (x,), grad_fn)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two tensors with identical dims."""
    if a.data.shape != b.data.shape:
        raise DimensionError(f"add: dims {a.dims} vs {b.dims}")
    return _result(a.data + b.data, (a, b), lambda g: (g, g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of two tensors with identical dims."""
    if a.data.shape != b.data.shape:
        raise DimensionError(f"mul: dims {a.dims} vs {b.dims}")
    return _result(a.data * b.data, (a, b), lambda g: (b.data * g, a.data * g))


def scale(x: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar constant."""
    c = float(c)
    return _result(x.data * c, (x,), lambda g: (g * c,))


def vsum(x: Tensor) -> Tensor:
    """Sum of all entries; returns a scalar tensor."""
    return _result(
        np.asarray(np.sum(x.data)),
        (x,),
        lambda g: (np.broadcast_to(g, x.data.shape).copy(),),
    )


def mse(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared error over all entries; no gradient flows to target."""
    if pred.data.shape != target.data.shape:
        raise DimensionError(f"mse: dims {pred.dims} vs {target.dims}")
    diff = pred.data - target.data
    n = max(diff.size, 1)
    y = np.asarray(np.sum(diff * diff) / n)

    def grad_fn(g: Array):
        return (2.0 / n) * diff * g, None

    return _result(y, (pred, target), grad_fn)


def gaussian_kl(mu: Tensor, logvar: Tensor) -> Tensor:
    """KL(N(mu, diag exp(logvar)) || N(0, I)) for a diagonal Gaussian.

    Rank-1 inputs give 0.5 * sum(mu^2 + exp(logvar) - logvar - 1). Rank-2
    inputs are treated as a batch of rows and the row KLs are averaged.
    Always nonnegative since exp(t) - t - 1 >= 0.
    """
    if mu.data.shape != logvar.data.shape:
        raise DimensionError(f"gaussian_kl: dims {mu.dims} vs {logvar.dims}")
    if mu.data.ndim not in (1, 2):
        raise DimensionError(
            f"gaussian_kl expects rank 1 or 2, got dims {mu.dims}"
        )
    ev = np.exp(logvar.data)
    rows = mu.data.shape[0] if mu.data.ndim == 2 else 1
    y = np.asarray(
        0.5 * np.sum(mu.data * mu.data + ev - logvar.data - 1.0) / rows
    )

    def grad_fn(g: Array):
        return (mu.data * g / rows, 0.5 * (ev - 1.0) * g / rows)

    return _result(y, (mu, logvar), grad_fn)


# ---------------------------------------------------------------------------
# optimizer


# Kingma & Ba's defaults (arXiv:1412.6980); every net here trains with them.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam with bias correction over a parameter set's flat buffer.

    The first and second moments are one buffer each, laid out like
    `params.flat`, and step() updates all of `params.flat` in place with
    the learning rate `lr` and the module's BETA1, BETA2 and EPS. Every
    ufunc writes into work buffers kept here: fresh temporaries of a whole
    net's size sit above the allocator's mmap threshold and would be
    page-faulted in again on every step. One optimizer serves one
    parameter set.
    """

    def __init__(self, lr: float):
        self.lr = lr
        self.t = 0
        self._bufs: tuple[Array, ...] = ()  # m, v and two work buffers

    def step(self, params: ParamSet, grads: ParamSet) -> ParamSet:
        """Apply one update in place; grads must have params' layout."""
        if grads._layout != params._layout:
            raise ContractError(f"gradient layout {grads._layout} does not "
                                f"match parameters {params._layout}")
        if not self._bufs:
            self._bufs = tuple(np.zeros_like(params.flat) for _ in range(4))
        self.t += 1
        bc1 = 1.0 - BETA1**self.t
        bc2 = 1.0 - BETA2**self.t
        g, (m, v, a, b) = grads.flat, self._bufs
        # m = beta1 * m + (1 - beta1) * g
        np.multiply(m, BETA1, out=m)
        np.multiply(g, 1.0 - BETA1, out=a)
        np.add(m, a, out=m)
        # v = beta2 * v + (1 - beta2) * (g * g)
        np.multiply(v, BETA2, out=v)
        np.multiply(g, g, out=a)
        np.multiply(a, 1.0 - BETA2, out=a)
        np.add(v, a, out=v)
        # flat -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
        np.divide(v, bc2, out=a)
        np.sqrt(a, out=a)
        np.add(a, EPS, out=a)
        np.divide(m, bc1, out=b)
        np.multiply(b, self.lr, out=b)
        np.divide(b, a, out=b)
        np.subtract(params.flat, b, out=params.flat)
        return params


@dataclass(frozen=True)
class DenseTrainConfig:
    epochs: int = 200
    batch: int = 64
    lr: float = 1e-3
    hidden: tuple[int, ...] = (128, 64)
    seed: int = 0


def fit_minibatch(
    params: ParamSet,
    loss_fn: Callable[[Array, Array | None], Tensor],
    n: int,
    cfg,
    rng: np.random.Generator,
    noise_dim: int = 0,
) -> list[float]:
    """Minibatch Adam over n rows; returns the mean loss of each epoch.

    cfg supplies epochs, batch and lr. Each epoch shuffles the rows with
    rng.permutation(n) and cuts the order into minibatches; loss_fn(idx, eps)
    returns the scalar loss of rows idx and builds those rows' inputs
    itself, so only one minibatch's are held at a time. With noise_dim > 0
    the epoch draws an (n, noise_dim) standard-normal array right after its
    shuffle and eps holds its rows idx; otherwise eps is None.
    """
    opt = Adam(cfg.lr)
    grads = params.copy()
    history: list[float] = []
    for _epoch in range(cfg.epochs):
        order = rng.permutation(n)
        noise = rng.standard_normal((n, noise_dim)) if noise_dim else None
        total = 0.0
        for at in range(0, n, cfg.batch):
            idx = order[at : at + cfg.batch]
            loss = loss_fn(idx, None if noise is None else noise[idx])
            opt.step(params, backward(loss, params, grads))
            total += loss.item() * len(idx)
        history.append(total / n)
    return history


def fit_dense(params: ParamSet, prefix: str, n_layers: int,
              features: Callable[[Array], Array], y: Array, cfg,
              rng: np.random.Generator) -> list[float]:
    """fit_minibatch on the MSE between the dense stack's outputs for the
    input rows features(idx) and the rows y[idx], over the len(y) rows;
    returns the mean loss of each epoch. features is a block's own
    (Record.features, Pairs.features), so each minibatch builds only its
    rows and no whole-set input matrix is held."""
    def loss_fn(idx, _eps):
        pred = dense_stack(params, prefix, n_layers, constant(features(idx)))
        return mse(pred, constant(y[idx]))

    return fit_minibatch(params, loss_fn, len(y), cfg, rng)
