"""Reverse-mode automatic differentiation on float64 numpy arrays.

A forward pass builds a fresh graph of Tensor nodes; Tape.trace linearizes
the nodes reachable from a scalar loss into topological order and backward()
sweeps it once in reverse, accumulating adjoints. There is no graph reuse
and no global state: independent graphs never interact.

Primitives are deliberately few: the dense affine map, elementwise
activations, rank-1 concatenation / slicing, elementwise add / mul, scalar
scaling, summation, mean squared error, and the diagonal-Gaussian KL term.
affine / mse / gaussian_kl also accept a leading batch axis so training
loops can process minibatches without a python-level loop per sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import ConfigError, ContractError, DimensionError

Array = np.ndarray


class Tensor:
    """A float64 array node in a computation graph.

    Leaf tensors (parameters, constants) have no parents. Tensors returned
    by primitives carry the closure that maps the output adjoint to the
    input adjoints.
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

    @property
    def is_leaf(self) -> bool:
        return self._grad_fn is None

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
    """Ordered mapping from unique names to leaf tensors.

    Iteration order is insertion order, which fixes the canonical
    serialization and genome layouts downstream.
    """

    def __init__(self) -> None:
        self._tensors: dict[str, Tensor] = {}

    def add(self, name: str, data, trainable: bool = True) -> Tensor:
        if name in self._tensors:
            raise ContractError(f"duplicate parameter name {name!r}")
        t = Tensor(data, name=name, trainable=trainable)
        self._tensors[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    def __len__(self) -> int:
        return len(self._tensors)

    def names(self) -> list[str]:
        return list(self._tensors)

    def items(self) -> Iterator[tuple[str, Tensor]]:
        return iter(self._tensors.items())

    def copy(self) -> "ParamSet":
        out = ParamSet()
        for name, t in self.items():
            out.add(name, t.data.copy(), trainable=t.trainable)
        return out

    def total_size(self) -> int:
        return sum(t.data.size for t in self._tensors.values())

    def flatten(self) -> Array:
        """Concatenate every tensor in insertion order, row-major."""
        if not self._tensors:
            return np.zeros(0)
        return np.concatenate([t.data.ravel() for t in self._tensors.values()])

    def set_flat(self, values: Array) -> None:
        """Load a flat vector produced by flatten() back into the tensors."""
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (self.total_size(),):
            raise DimensionError(
                f"flat vector of shape {list(values.shape)} does not match "
                f"parameter count {self.total_size()}"
            )
        at = 0
        for t in self._tensors.values():
            n = t.data.size
            t.data = values[at : at + n].reshape(t.data.shape).copy()
            at += n


def dense_init(params: ParamSet, prefix: str, sizes: list[int],
               rng: np.random.Generator) -> None:
    """Add the layers of a dense stack of the given widths to params.

    Layer i maps sizes[i] to sizes[i + 1] as `{prefix}/w{i}` (weights drawn
    from N(0, 1/fan_in) off rng, in layer order) and `{prefix}/b{i}` (zeros).
    """
    if min(sizes) < 1:
        raise ContractError(f"bad dense layer sizes {list(sizes)} for {prefix!r}")
    for i, (n_in, n_out) in enumerate(zip(sizes, sizes[1:])):
        w = rng.standard_normal((n_out, n_in)) / np.sqrt(n_in)
        params.add(f"{prefix}/w{i}", w)
        params.add(f"{prefix}/b{i}", np.zeros(n_out))


class Tape:
    """Topologically ordered list of the nodes reachable from a root."""

    def __init__(self, nodes: list[Tensor]):
        self.nodes = nodes

    @classmethod
    def trace(cls, root: Tensor) -> "Tape":
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
        return cls(order)


def backward(loss: Tensor, params: ParamSet) -> dict[str, Tensor]:
    """Reverse sweep from a scalar loss; returns one gradient per parameter.

    Parameters that do not influence the loss get a zero gradient of
    matching shape. Each graph node is visited exactly once.
    """
    if loss.data.shape != ():
        raise ContractError(
            f"backward expects a scalar loss, got dims {loss.dims}"
        )
    tape = Tape.trace(loss)
    adjoint: dict[int, Array] = {id(loss): np.ones(())}
    for node in reversed(tape.nodes):
        grad = adjoint.get(id(node))
        if grad is None or node._grad_fn is None:
            continue
        for parent, pg in zip(node._parents, node._grad_fn(grad)):
            if pg is None:
                continue
            acc = adjoint.get(id(parent))
            adjoint[id(parent)] = pg if acc is None else acc + pg
    out: dict[str, Tensor] = {}
    for name, t in params.items():
        g = adjoint.get(id(t))
        out[name] = Tensor(np.zeros_like(t.data) if g is None else g)
    return out


# ---------------------------------------------------------------------------
# primitives


def affine(w: Tensor, x: Tensor, b: Tensor) -> Tensor:
    """Dense map w @ x + b.

    w has dims [m, n] and b dims [m]. x may be a single vector [n] or a
    batch [B, n]; the batch form returns [B, m] with b broadcast per row.
    """
    if w.data.ndim != 2 or b.data.ndim != 1:
        raise DimensionError(
            f"affine expects w rank 2 and b rank 1, got {w.dims} and {b.dims}"
        )
    m, n = w.data.shape
    if b.data.shape[0] != m:
        raise DimensionError(f"affine: w dims {w.dims} vs b dims {b.dims}")
    if x.data.ndim == 1:
        if x.data.shape[0] != n:
            raise DimensionError(f"affine: w dims {w.dims} vs x dims {x.dims}")
        y = w.data @ x.data + b.data

        def grad_fn(g: Array):
            return np.outer(g, x.data), w.data.T @ g, g

        return _result(y, (w, x, b), grad_fn)
    if x.data.ndim == 2:
        if x.data.shape[1] != n:
            raise DimensionError(f"affine: w dims {w.dims} vs x dims {x.dims}")
        y = x.data @ w.data.T + b.data

        def grad_fn_batch(g: Array):
            return g.T @ x.data, g @ w.data, g.sum(axis=0)

        return _result(y, (w, x, b), grad_fn_batch)
    raise DimensionError(f"affine: x must have rank 1 or 2, got dims {x.dims}")


_ACTIVATIONS = ("tanh", "sigmoid", "relu", "exp")


def activation(kind: str, x: Tensor) -> Tensor:
    """Elementwise nonlinearity; kind is one of tanh, sigmoid, relu, exp."""
    if kind == "tanh":
        y = np.tanh(x.data)
        grad = lambda g: ((1.0 - y * y) * g,)
    elif kind == "sigmoid":
        y = 1.0 / (1.0 + np.exp(-x.data))
        grad = lambda g: (y * (1.0 - y) * g,)
    elif kind == "relu":
        y = np.maximum(x.data, 0.0)
        grad = lambda g: ((x.data > 0.0) * g,)
    elif kind == "exp":
        y = np.exp(x.data)
        grad = lambda g: (y * g,)
    else:
        raise ConfigError(
            f"unknown activation {kind!r}; expected one of {_ACTIVATIONS}"
        )
    return _result(y, (x,), grad)


def dense_stack(params: ParamSet, prefix: str, n_layers: int, x: Tensor,
                final: str | None = None) -> Tensor:
    """Dense stack: tanh between layers, `final` activation on the last."""
    h = x
    for i in range(n_layers):
        h = affine(params[f"{prefix}/w{i}"], h, params[f"{prefix}/b{i}"])
        if i < n_layers - 1:
            h = activation("tanh", h)
        elif final is not None:
            h = activation(final, h)
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


@dataclass(frozen=True)
class AdamConfig:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


class Adam:
    """Adam with bias correction; first and second moments kept per name."""

    def __init__(self, cfg: AdamConfig | None = None):
        self.cfg = cfg or AdamConfig()
        self.t = 0
        self._m: dict[str, Array] = {}
        self._v: dict[str, Array] = {}

    def step(self, params: ParamSet, grads: dict[str, Tensor]) -> ParamSet:
        """Apply one update in place; non-trainable tensors are untouched."""
        c = self.cfg
        self.t += 1
        bc1 = 1.0 - c.beta1**self.t
        bc2 = 1.0 - c.beta2**self.t
        for name, p in params.items():
            if not p.trainable:
                continue
            if name not in grads:
                raise ContractError(f"missing gradient for trainable {name!r}")
            g = grads[name].data
            if g.shape != p.data.shape:
                raise ContractError(
                    f"gradient dims {list(g.shape)} do not match parameter "
                    f"{name!r} dims {p.dims}"
                )
            m = self._m.get(name)
            v = self._v.get(name)
            if m is None:
                m = np.zeros_like(p.data)
                v = np.zeros_like(p.data)
            m = c.beta1 * m + (1.0 - c.beta1) * g
            v = c.beta2 * v + (1.0 - c.beta2) * (g * g)
            self._m[name] = m
            self._v[name] = v
            p.data = p.data - c.lr * (m / bc1) / (np.sqrt(v / bc2) + c.eps)
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
    returns the scalar loss of rows idx. With noise_dim > 0 the epoch draws
    an (n, noise_dim) standard-normal array right after its shuffle and eps
    holds its rows idx; otherwise eps is None.
    """
    opt = Adam(AdamConfig(lr=cfg.lr))
    history: list[float] = []
    for _epoch in range(cfg.epochs):
        order = rng.permutation(n)
        noise = rng.standard_normal((n, noise_dim)) if noise_dim else None
        total = 0.0
        for at in range(0, n, cfg.batch):
            idx = order[at : at + cfg.batch]
            loss = loss_fn(idx, None if noise is None else noise[idx])
            opt.step(params, backward(loss, params))
            total += loss.item() * len(idx)
        history.append(total / n)
    return history
