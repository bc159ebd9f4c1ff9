"""Recurrent flight controller and its evolutionary trainer.

The controller is a single LSTM cell over the latent code followed by a
dense stack on concat(z, h'); the four outputs are scaled to the command
bounds and clamped. It is trained without gradients: a genome is the
controller's flat parameter buffer (ParamSet.flat), selection is elitist,
and variation is Gaussian mutation of uniformly chosen elites. The
ParamSet layout is the genome codec: decoding a genome is one copy into
the template's layout, and a stacked population reads as one
(pop, *shape) view per tensor.

Fitness evaluators receive the whole population per generation (a list of
genome vectors, returning one score each). That lets the imitation
evaluator encode the latent sequences once, since z never depends on the
genome, pad the episodes to one length, and step every genome through
every episode together: one batched tick per timestep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import container
from .autodiff import ParamSet
from .errors import ContractError, DimensionError, EvolutionError
from .expert import Dataset
from .vae import VaeParams, encode
from .worldsim import (
    Action,
    DEFAULT_SIM,
    Observation,
    RolloutResult,
    SimConfig,
    WorldSpec,
    fly,
)

INIT_SIGMA = 0.1  # evolution seeds genomes from N(0, INIT_SIGMA^2)

_GATES = ("i", "f", "o", "g")


@dataclass
class LstmState:
    h: np.ndarray
    c: np.ndarray


@dataclass
class ControllerParams:
    params: ParamSet
    k: int
    h_dim: int
    mlp_hidden: tuple[int, int]
    out_scale: np.ndarray  # (v_max, v_max, v_max, yaw_rate_max)


def controller_template(
    k: int = 8,
    h_dim: int = 16,
    mlp_hidden: tuple[int, int] = (32, 16),
    cfg: SimConfig = DEFAULT_SIM,
) -> ControllerParams:
    """All-zero controller fixing the shapes and genome layout."""
    if k < 1 or h_dim < 1 or len(mlp_hidden) != 2:
        raise ContractError(
            f"bad controller architecture k={k} h_dim={h_dim} mlp={mlp_hidden}"
        )
    params = ParamSet()
    for gate in _GATES:
        params.add(f"lstm/w{gate}", np.zeros((h_dim, k)))
        params.add(f"lstm/u{gate}", np.zeros((h_dim, h_dim)))
        params.add(f"lstm/b{gate}", np.zeros(h_dim))
    sizes = [k + h_dim, mlp_hidden[0], mlp_hidden[1], 4]
    for i, (n_in, n_out) in enumerate(zip(sizes, sizes[1:])):
        params.add(f"mlp/w{i}", np.zeros((n_out, n_in)))
        params.add(f"mlp/b{i}", np.zeros(n_out))
    out_scale = np.array([cfg.v_max, cfg.v_max, cfg.v_max, cfg.yaw_rate_max])
    return ControllerParams(params, k, h_dim, tuple(mlp_hidden), out_scale)


def zero_state(p: ControllerParams) -> LstmState:
    return LstmState(np.zeros(p.h_dim), np.zeros(p.h_dim))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _pack(w) -> list[tuple[np.ndarray, np.ndarray]]:
    """Fused (weight, bias) layers from controller tensors by name.

    The tensors may carry any leading batch dimensions. The first layer is
    the LSTM's [W_g | U_g] for gates i, f, o, g stacked to (..., k+H, 4H);
    the other three are the dense head's weights transposed to
    (..., n_in, n_out). Biases keep their shape (..., n_out).
    """
    gates = np.concatenate(
        [np.concatenate([w[f"lstm/{m}{g}"] for g in _GATES], axis=-2)
         for m in "wu"],
        axis=-1,
    )
    bias = np.concatenate([w[f"lstm/b{g}"] for g in _GATES], axis=-1)
    return [(gates.swapaxes(-1, -2), bias)] + [
        (w[f"mlp/w{i}"].swapaxes(-1, -2), w[f"mlp/b{i}"]) for i in range(3)
    ]


def _tick(net, scale: np.ndarray, z: np.ndarray, h: np.ndarray,
          c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """LSTM cell and dense head on (..., k) latents and (..., H) states.

    `net` is _pack's output with biases shaped to broadcast against the
    (..., n_out) products. Returns the clamped commands (..., 4), h', c'.
    """
    n = h.shape[-1]
    (gates, bias), *head = net
    y = np.concatenate([z, h], axis=-1)
    pre = y @ gates + bias
    ifo = _sigmoid(pre[..., : 3 * n])
    c = ifo[..., n : 2 * n] * c + ifo[..., :n] * np.tanh(pre[..., 3 * n :])
    h = ifo[..., 2 * n :] * np.tanh(c)
    y[..., -n:] = h  # the head reads concat(z, h')
    for layer, (weight, b) in enumerate(head):
        y = y @ weight + b
        if layer < len(head) - 1:
            y = np.tanh(y)
    return np.minimum(np.maximum(y * scale, -scale), scale), h, c


def controller_step(
    p: ControllerParams, z: np.ndarray, st: LstmState, net=None
) -> tuple[Action, LstmState]:
    """One control tick: standard LSTM cell, then the dense head.

    i, f, o are sigmoid gates and g the tanh candidate; c' = f*c + i*g and
    h' = o * tanh(c'). The head reads concat(z, h') through two tanh
    layers, a linear output scaled by out_scale, then a clamp to the same
    bounds. All-zero parameters therefore command exactly zero. `net` is
    p's weights as _pack fuses them; a caller ticking one controller many
    times packs once and passes it, else every call packs anew.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (p.k,):
        raise DimensionError(f"latent dims {list(z.shape)} do not match k={p.k}")
    if st.h.shape != (p.h_dim,) or st.c.shape != (p.h_dim,):
        raise DimensionError(
            f"state dims {list(st.h.shape)}/{list(st.c.shape)} do not match "
            f"h_dim={p.h_dim}"
        )
    if net is None:
        net = _pack({name: t.data for name, t in p.params.items()})
    out, h, c = _tick(net, p.out_scale, z, st.h, st.c)
    action = Action(float(out[0]), float(out[1]), float(out[2]), float(out[3]))
    return action, LstmState(h, c)


# ---------------------------------------------------------------------------
# genome codec


@dataclass
class Genome:
    values: np.ndarray
    fitness: float | None = None


def genome_size(p: ControllerParams) -> int:
    return p.params.total_size()


def genome_from_controller(p: ControllerParams) -> np.ndarray:
    """A copy of the controller's flat parameter buffer: the tensors in
    ParamSet insertion order, row-major each."""
    return p.params.flatten()


def controller_from_genome(
    values: np.ndarray, template: ControllerParams
) -> ControllerParams:
    """Inverse of genome_from_controller: one copy of `values` into a new
    parameter set with the template's layout; the template is not mutated."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (genome_size(template),):
        raise ContractError(
            f"genome length {values.size} does not match parameter count "
            f"{genome_size(template)}"
        )
    return ControllerParams(
        template.params.copy(values),
        template.k,
        template.h_dim,
        template.mlp_hidden,
        template.out_scale.copy(),
    )


# ---------------------------------------------------------------------------
# fitness


def fitness_imitation(
    genome: np.ndarray | Genome,
    vae: VaeParams,
    data: Dataset,
    template: ControllerParams | None = None,
) -> float:
    """Negative mean squared action error against the recorded expert.

    Observations are teacher-forced through the frozen encoder mean; the
    LSTM state resets at every episode boundary. The value is the mean
    over every recorded step and all four action components, negated so
    greater is better.
    """
    values = genome.values if isinstance(genome, Genome) else genome
    if data.world_kind != "fake" or not data.episodes:
        raise ContractError("imitation fitness needs a nonempty corridor dataset")
    if template is None:
        template = controller_template(k=vae.k)
    ctrl = controller_from_genome(values, template)
    total = 0.0
    count = 0
    for ep in data.episodes:
        st = zero_state(ctrl)
        for step in ep:
            mu, _ = encode(vae, step.observation)
            act, st = controller_step(ctrl, mu, st)
            want = step.action
            total += (
                (act.vx - want.vx) ** 2
                + (act.vy - want.vy) ** 2
                + (act.vz - want.vz) ** 2
                + (act.yaw_rate - want.yaw_rate) ** 2
            )
            count += 4
    return -total / count


class ImitationEvaluator:
    """Population-batched imitation fitness, numerically equal to
    fitness_imitation on every genome (up to float reassociation).

    The episodes are padded to the longest into (T, E, .) latent and action
    arrays with a (T, E) validity mask, so a call makes T batched ticks over
    (population, episodes) instead of one tick per recorded step.
    """

    def __init__(self, vae: VaeParams, data: Dataset,
                 template: ControllerParams):
        if data.world_kind != "fake" or not data.episodes:
            raise ContractError(
                "imitation fitness needs a nonempty corridor dataset"
            )
        self.template = template
        self.episodes = []
        for ep in data.episodes:
            zs, _ = encode(vae, [s.observation for s in ep])
            acts = np.array(
                [(s.action.vx, s.action.vy, s.action.vz, s.action.yaw_rate)
                 for s in ep]
            )
            self.episodes.append((zs, acts))
        steps = max(len(acts) for _, acts in self.episodes)
        n_eps = len(self.episodes)
        self.zs = np.zeros((steps, n_eps, vae.k))
        self.acts = np.zeros((steps, n_eps, 4))
        self.mask = np.zeros((steps, n_eps))
        for e, (zs, acts) in enumerate(self.episodes):
            self.zs[: len(zs), e] = zs
            self.acts[: len(acts), e] = acts
            self.mask[: len(acts), e] = 1.0
        self.total_count = 4 * sum(len(a) for _, a in self.episodes)

    def _unpack(self, genomes: list[np.ndarray]) -> dict[str, np.ndarray]:
        """Name -> (pop, *shape) views of the stacked genomes."""
        flat = np.stack([np.asarray(g, dtype=np.float64) for g in genomes])
        if flat.shape[1] != genome_size(self.template):
            raise ContractError(
                f"genome length {flat.shape[1]} does not match parameter "
                f"count {genome_size(self.template)}"
            )
        return self.template.params.views(flat)

    def __call__(self, genomes: list[np.ndarray]) -> np.ndarray:
        t = self.template
        pop = len(genomes)
        # Contiguous weights keep the stacked matmuls on BLAS's fast path;
        # biases gain an episode axis to broadcast over (pop, episodes, .).
        net = [(np.ascontiguousarray(w), b[:, None])
               for w, b in _pack(self._unpack(genomes))]
        _, n_eps, k = self.zs.shape
        h = np.zeros((pop, n_eps, t.h_dim))
        c = np.zeros((pop, n_eps, t.h_dim))
        err = np.zeros((pop, n_eps))
        for z, want, valid in zip(self.zs, self.acts, self.mask):
            z = np.broadcast_to(z, (pop, n_eps, k))
            out, h, c = _tick(net, t.out_scale, z, h, c)
            err += valid * np.sum((out - want) ** 2, axis=-1)
        return -err.sum(axis=1) / self.total_count


# ---------------------------------------------------------------------------
# evolution


@dataclass(frozen=True)
class EvolutionConfig:
    population: int = 64
    elites: int = 8
    # 0.01, not 0.02: a mutation's norm over the ~3k genes is sigma*sqrt(dim),
    # and at 0.02 (~1.1) it swamps the small yaw-rate signal, so evolution
    # settles on a never-steering cruise that still scores a low imitation
    # error. At 0.01 the held-out controller steers through gates.
    mutation_sigma: float = 0.01
    generations: int = 150
    seed: int = 0

    def validate(self) -> None:
        if self.population < 2:
            raise ContractError(f"population {self.population} < 2")
        if not (1 <= self.elites < self.population):
            raise ContractError(
                f"elites {self.elites} outside [1, {self.population})"
            )
        if self.mutation_sigma <= 0 or self.generations < 1:
            raise ContractError(
                f"bad sigma {self.mutation_sigma} or generations "
                f"{self.generations}"
            )


@dataclass
class GenerationStats:
    generation: int
    best: float
    mean: float


def evolve(
    cfg: EvolutionConfig,
    fitness,
    dim: int,
) -> tuple[Genome, list[GenerationStats]]:
    """Elitist evolution over flat genomes.

    The population seeds from N(0, INIT_SIGMA^2). Each generation scores
    its new genomes (fitness takes the list of genome vectors and returns
    one float each), keeps the `elites` best with ties broken toward the
    lower genome index, and refills by mutating uniformly drawn elites with
    N(0, mutation_sigma^2) noise. Elites carry over unchanged, together with
    their scores, so after generation 0 only the children are scored; the
    per-generation best never decreases and the best genome is never lost.
    Non-finite fitness aborts with the offending genome's population index.
    """
    cfg.validate()
    if dim < 1:
        raise ContractError(f"genome dimension {dim} < 1")
    rng = np.random.default_rng(cfg.seed)
    pop = rng.normal(0.0, INIT_SIGMA, (cfg.population, dim))
    fit = np.empty(0)  # scores of pop[: len(fit)], the carried-over elites
    history: list[GenerationStats] = []
    best_genome: np.ndarray | None = None
    best_fit = -math.inf
    for gen in range(cfg.generations):
        fresh = pop[len(fit) :]
        new = np.asarray(fitness(list(fresh)), dtype=np.float64)
        if new.shape != (len(fresh),):
            raise EvolutionError(
                f"fitness returned {new.shape}, wanted ({len(fresh)},)"
            )
        if not np.all(np.isfinite(new)):
            bad = int(np.flatnonzero(~np.isfinite(new))[0])
            raise EvolutionError(
                f"non-finite fitness {new[bad]} for genome {len(fit) + bad} "
                f"in generation {gen}"
            )
        fit = np.concatenate([fit, new])
        order = np.argsort(-fit, kind="stable")  # stable: ties keep low index
        if fit[order[0]] > best_fit:
            best_fit = float(fit[order[0]])
            best_genome = pop[order[0]].copy()
        history.append(
            GenerationStats(gen, float(fit[order[0]]), float(fit.mean()))
        )
        elites = pop[order[: cfg.elites]]
        parents = elites[rng.integers(0, cfg.elites, cfg.population - cfg.elites)]
        children = parents + rng.normal(
            0.0, cfg.mutation_sigma, (cfg.population - cfg.elites, dim)
        )
        pop = np.vstack([elites, children])
        fit = fit[order[: cfg.elites]]
    assert best_genome is not None
    return Genome(best_genome, best_fit), history


# ---------------------------------------------------------------------------
# closed-loop rollout


def rollouts(
    worlds: list[WorldSpec],
    vae: VaeParams,
    ctrl: ControllerParams,
    max_steps: int,
    encoder: str = "vae",
    cheat=None,
    cfg: SimConfig = DEFAULT_SIM,
    record: bool = True,
) -> list[RolloutResult]:
    """Fly the controller closed-loop from each world's start pose, one
    drone per world in one lock-step batch.

    encoder "vae" feeds the frozen encoder mean and requires corridor
    worlds; encoder "cheat" feeds the substitute encoder (pass its params
    as `cheat`) and requires cluttered worlds. Each drone stops at
    max_steps or on its first crash. The weights are packed once; every
    drone keeps its own LSTM state and runs the nets at batch 1, so it
    flies exactly as it would alone. `record` is fly's.
    """
    if encoder == "vae":
        kind = "fake"
        see = lambda obs: encode(vae, obs)[0]
    elif encoder == "cheat":
        kind = "real"
        if cheat is None:
            raise ContractError("cheat rollout needs encoder parameters")
        from .cheat import cheat_encode  # local import to avoid a cycle

        see = lambda obs: cheat_encode(cheat, obs)
    else:
        raise ContractError(f"unknown encoder {encoder!r}")
    if any(w.kind != kind for w in worlds):
        where = "corridor" if kind == "fake" else "room"
        raise ContractError(f"the {encoder} encoder rolls out in {where} worlds")
    net = _pack({name: t.data for name, t in ctrl.params.items()})
    lstm = [zero_state(ctrl) for _ in worlds]

    def act(flock, _drones, scans: list[Observation]) -> list[tuple]:
        rows = []
        for i, obs in zip(flock.ids.tolist(), scans):
            a, lstm[i] = controller_step(ctrl, see(obs), lstm[i], net)
            rows.append((a.vx, a.vy, a.vz, a.yaw_rate))
        return rows

    return fly(worlds, act, max_steps, cfg, record=record)


def rollout(
    world: WorldSpec,
    vae: VaeParams,
    ctrl: ControllerParams,
    max_steps: int,
    encoder: str = "vae",
    cheat=None,
    cfg: SimConfig = DEFAULT_SIM,
) -> RolloutResult:
    """One world's flight: the B = 1 case of rollouts."""
    return rollouts([world], vae, ctrl, max_steps, encoder, cheat, cfg)[0]


# ---------------------------------------------------------------------------
# persistence


def save_controller(p: ControllerParams, path, extra_meta: dict | None = None) -> str:
    meta = {
        "k": p.k,
        "h_dim": p.h_dim,
        "mlp_hidden": list(p.mlp_hidden),
        "out_scale": list(map(float, p.out_scale)),
    }
    return container.save_checkpoint(path, "controller", p.params, meta, extra_meta)


def load_controller(path) -> ControllerParams:
    ckpt = container.load_checkpoint(path, "controller", {
        "k": container.meta_int, "h_dim": container.meta_int,
        "mlp_hidden": container.meta_ints, "out_scale": container.meta_floats,
    })
    meta = ckpt.metadata
    return ControllerParams(
        ckpt.params, meta["k"], meta["h_dim"], meta["mlp_hidden"],
        meta["out_scale"],
    )
