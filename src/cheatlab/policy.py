"""Recurrent flight controller and its evolutionary trainer.

The controller is a single LSTM cell over the latent code followed by a
dense stack on concat(z, h'); the four outputs are scaled to the command
bounds and clamped. It is trained without gradients: a genome is the
controller's flat parameter buffer (ParamSet.flat), selection is elitist,
and variation is Gaussian mutation of uniformly chosen elites. The
ParamSet layout is the genome codec: decoding a genome is one copy into
the template's layout, and a stacked population reads as one
(pop, *shape) view per tensor.

Fitness evaluators receive a generation's new genomes as one (n, dim)
block, a view of evolve's population buffer that must not be kept past
the call, and return one score per row. That lets the imitation
evaluator score the block where it lies, encode the latent sequences
once, since z never depends on the genome, pad the episodes to one
length, and step every genome through every episode together: one
batched tick per timestep.

One kernel, _tick, runs the cell and head for the live drones of a
flight (controller_step on an LstmBatch, one drone its B = 1 case) and
for a (genomes, episodes) batch (the evaluator). It works in place: the
state and every temporary live in _Work buffers allocated once per batch
shape, so a tick allocates nothing. Drones tick through np.vecmat, a
gemv per drone, so each flies bit for bit as it would alone; the
evaluator keeps its stacked gemm. _pack stores the i/f/o gate columns
negated, so the tick takes exp of the gate product directly. A population
with enough rows (genomes x episodes) is scored in contiguous shards, one
per usable core, every shard but the first in a forked child process that
writes its rows of one shared score map in place, and a child that does
not exit 0 raises; the shard count never changes a score's bytes.
"""

from __future__ import annotations

import math
import mmap
import os
import signal
import sys
import traceback
from dataclasses import dataclass

import numpy as np

from . import container
from .autodiff import ParamSet, dense_layout
from .errors import ContractError, DimensionError, EvolutionError, FormatError
from .expert import Dataset
from .vae import VaeParams, encode
from .worldsim import (
    DEFAULT_SIM,
    DroneState,
    Record,
    SimConfig,
    View,
    WorldSpec,
    fly,
    scan_features,
)

INIT_SIGMA = 0.1  # evolution seeds genomes from N(0, INIT_SIGMA^2)

_GATES = ("i", "f", "o", "g")


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
    if k < 1 or h_dim < 1 or len(mlp_hidden) != 2 or min(mlp_hidden) < 1:
        raise ContractError(
            f"bad controller architecture k={k} h_dim={h_dim} mlp={mlp_hidden}"
        )
    params = ParamSet({name: np.zeros(shape)
                       for name, shape in _layout(k, h_dim, mlp_hidden)})
    out_scale = np.array([cfg.v_max, cfg.v_max, cfg.v_max, cfg.yaw_rate_max])
    return ControllerParams(params, k, h_dim, tuple(mlp_hidden), out_scale)


def _layout(k: int, h_dim: int, mlp_hidden) -> list[tuple[str, tuple]]:
    """Tensor names and shapes: per LSTM gate its input weight, recurrent
    weight and bias, then the dense head from [z | h] to the 4 commands."""
    lstm = [(f"lstm/{m}{gate}", shape) for gate in _GATES
            for m, shape in (("w", (h_dim, k)), ("u", (h_dim, h_dim)),
                             ("b", (h_dim,)))]
    return lstm + dense_layout("mlp", [k + h_dim, *mlp_hidden, 4])


def _pack(w) -> list[tuple[np.ndarray, np.ndarray]]:
    """Fused (weight, bias) layers from controller tensors by name.

    The tensors may carry any leading batch dimensions. The first layer is
    the LSTM's [W_g | U_g] for gates i, f, o, g stacked to (..., k+H, 4H);
    the other three are the dense head's weights transposed to
    (..., n_in, n_out). Biases keep their shape (..., n_out).

    The i, f and o columns of the gate weight and bias are stored negated,
    so the gate product yields -x for the sigmoids' exp(-x) directly.
    Negation commutes exactly with every product and sum, so the bits are
    those of negating the product afterwards.
    """
    gates = np.concatenate(
        [np.concatenate([w[f"lstm/{m}{g}"] for g in _GATES], axis=-2)
         for m in "wu"],
        axis=-1,
    )
    bias = np.concatenate([w[f"lstm/b{g}"] for g in _GATES], axis=-1)
    n = gates.shape[-2] // 4
    np.negative(gates[..., : 3 * n, :], out=gates[..., : 3 * n, :])
    np.negative(bias[..., : 3 * n], out=bias[..., : 3 * n])
    return [(gates.swapaxes(-1, -2), bias)] + [
        (w[f"mlp/w{i}"].swapaxes(-1, -2), w[f"mlp/b{i}"]) for i in range(3)
    ]


class _Work:
    """_tick's buffers for one batch shape `lead`, allocated once.

    y = concat(z, h) with a view of each part; c; the gate pre-activations
    (i/f/o negated, as _pack stores them) with a view of the i/f/o columns
    and of the g columns; the contiguous i/f/o block with a view of each
    gate; the contiguous g block; and one buffer per head layer. h (y's
    tail) and c are the LSTM state and start at zero. `mul` is the
    product _tick runs each layer through: np.matmul (one gemm over a
    stack of rows) by default, or with rows=True np.vecmat, a gemv per
    row with the bits of that row's lone product.
    """

    __slots__ = ("y", "z", "h", "c", "pre", "pre_ifo", "pre_g",
                 "ifo", "i", "f", "o", "g", "acts", "mul")

    def __init__(self, net, lead: tuple[int, ...], rows: bool = False):
        (gates, _), *head = net
        n = gates.shape[-1] // 4
        self.y = np.zeros(lead + gates.shape[-2:-1])
        self.z, self.h = self.y[..., :-n], self.y[..., -n:]
        self.c = np.zeros(lead + (n,))
        self.pre = np.empty(lead + (4 * n,))
        self.pre_ifo, self.pre_g = self.pre[..., : 3 * n], self.pre[..., 3 * n :]
        self.ifo = np.empty(lead + (3 * n,))
        self.i, self.f, self.o = (self.ifo[..., j * n : (j + 1) * n]
                                  for j in range(3))
        self.g = np.empty(lead + (n,))
        self.acts = [np.empty(lead + w.shape[-1:]) for w, _ in head]
        self.mul = np.vecmat if rows else np.matmul


def _tick(net, scale: np.ndarray, z: np.ndarray, work: _Work) -> np.ndarray:
    """LSTM cell and dense head on (..., k) latents, in place.

    `net` is _pack's output with biases shaped to broadcast against the
    (..., n_out) products, and `work` holds the state and temporaries of
    the batch shape. z goes into y's head; h' is written into y's tail,
    where the dense head reads concat(z, h') and the next tick reads h;
    c' overwrites c. Every temporary is a work buffer written with out=,
    so a tick allocates no array. The one gate product's i/f/o and g
    columns are read into contiguous blocks, so the sigmoid, the tanh and
    the cell update run on whole blocks. The arithmetic and its order are
    the written-out cell's: sigmoid as 1/(1+exp(-x)), with -x the negated
    columns' product, c' = f*c + i*g, h' = o*tanh(c'). Returns the clamped
    commands (..., 4), a view of the last head buffer that the next tick
    overwrites.
    """
    (gates, bias), *head = net
    w = work
    w.z[...] = z
    w.mul(w.y, gates, out=w.pre)
    np.add(w.pre, bias, out=w.pre)
    np.exp(w.pre_ifo, out=w.ifo)
    np.add(w.ifo, 1.0, out=w.ifo)
    np.divide(1.0, w.ifo, out=w.ifo)
    np.tanh(w.pre_g, out=w.g)
    np.multiply(w.f, w.c, out=w.c)
    np.multiply(w.i, w.g, out=w.g)
    np.add(w.c, w.g, out=w.c)
    np.tanh(w.c, out=w.g)
    np.multiply(w.o, w.g, out=w.h)
    x = w.y
    for (weight, b), a in zip(head, w.acts):
        w.mul(x, weight, out=a)
        np.add(a, b, out=a)
        if a is not w.acts[-1]:
            np.tanh(a, out=a)
        x = a
    np.multiply(x, scale, out=x)
    np.maximum(x, -scale, out=x)
    return np.minimum(x, scale, out=x)


class LstmBatch:
    """The LSTM states of B drones flying one controller.

    `net` is the controller's weights as _pack fuses them, and `work` the
    _Work of B rows (rows=True) whose h and c rows are the drones' LSTM
    states, zero at the start. controller_step advances them in place.
    """

    __slots__ = ("net", "work")

    def __init__(self, p: ControllerParams, n: int):
        self.net = _pack({name: t.data for name, t in p.params.items()})
        self.work = _Work(self.net, (n,), rows=True)

    def __len__(self) -> int:
        return len(self.work.c)

    def take(self, keep: np.ndarray) -> LstmBatch:
        """The drones where the boolean mask is set, their states kept."""
        out = object.__new__(LstmBatch)
        out.net, out.work = self.net, _Work(self.net, (int(keep.sum()),), True)
        out.work.h[...], out.work.c[...] = self.work.h[keep], self.work.c[keep]
        return out


def controller_step(
    p: ControllerParams, z: np.ndarray, st: LstmBatch
) -> np.ndarray:
    """One control tick for B drones: standard LSTM cell, then the dense
    head.

    i, f, o are sigmoid gates and g the tanh candidate; c' = f*c + i*g and
    h' = o * tanh(c'). The head reads concat(z, h') through two tanh
    layers, a linear output scaled by out_scale, then a clamp to the same
    bounds. All-zero parameters therefore command exactly zero.

    z (B, k) holds the drones' latents and st is their LstmBatch, advanced
    in place; returns the (B, 4) command rows, a view that the next tick
    overwrites. Each layer is a gemv per drone (np.vecmat), so row b has
    the bits of drone b ticked alone; one drone is an LstmBatch(p, 1).
    """
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (len(st), p.k):
        raise DimensionError(
            f"latent dims {list(z.shape)} do not match ({len(st)}, {p.k})")
    return _tick(st.net, p.out_scale, z, st.work)


# ---------------------------------------------------------------------------
# genome codec


@dataclass
class Genome:
    values: np.ndarray
    fitness: float | None = None


def genome_size(p: ControllerParams) -> int:
    return p.params.flat.size


def genome_from_controller(p: ControllerParams) -> np.ndarray:
    """A copy of the controller's flat parameter buffer: the tensors in
    ParamSet's order, row-major each."""
    return p.params.flat.copy()


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


# A shard must hold about this many rows (genomes x episodes) before its
# own child process pays for itself. A fork costs about 2 ms, and the
# copy-on-write faults that follow it a few more. On a 2-core box, with
# episodes of about 500 steps, two forked shards ran at 0.72x to 1.54x
# the serial kernel at 96 rows per shard, 0.78x to 1.80x at 128, 1.59x to
# 1.80x at 192, and 1.75x to 1.9x at the shipped 56 x 24 children. The rule
# counts rows, not steps, so much shorter episodes would want more rows.
_SHARD_ROWS = 192


def _usable_cores() -> int:
    """Cores this process may run on."""
    return len(os.sched_getaffinity(0))


def _shards(pop: int, episodes: int, cores: int) -> list[tuple[int, int]]:
    """Contiguous [lo, hi) genome ranges, one per shard.

    There are min(cores, pop * episodes // _SHARD_ROWS) shards, at least
    one and at most one per genome, of near-equal size.
    """
    n = max(1, min(cores, pop, pop * episodes // _SHARD_ROWS))
    return [(pop * j // n, pop * (j + 1) // n) for j in range(n)]


class ImitationEvaluator:
    """Population-batched imitation fitness: the negative mean squared
    action error against the recorded expert, with the observations
    teacher-forced through the frozen encoder mean and the LSTM state
    reset at every episode boundary. Each step's latent has the bits a
    flight computes for that scan alone (vae.encode), and an empty
    episode is a column the mask leaves out.

    The episodes are padded to the longest into (T, E, .) latent and action
    arrays with a (T, E) validity mask, so scoring makes T batched ticks
    over (genomes, episodes) instead of one tick per recorded step;
    `episodes` views each episode's rows of those blocks. A call scores
    an (n, dim) block of genomes (or a list of them) where it lies, keeps
    no reference to it, and splits it into _shards over the usable
    cores. Each shard runs the whole time loop with its own packed
    weights and _Work buffers: the first in the calling process, every
    other one in a child forked for the call, which writes its scores
    into its rows of one anonymous shared map of the call's n float64
    scores and leaves. The shards share no interpreter lock, so they run
    in parallel. A child that does not exit with status 0 raises
    EvolutionError naming its genome range and status (negative: the
    signal that ended it), and every child is reaped before the call
    returns or raises. One shard never maps or forks. A genome's
    arithmetic never mixes with another genome's (each has its own gemm
    and its own error rows), so the scores do not depend on the shard
    count, bit for bit.
    """

    def __init__(self, vae: VaeParams, data: Dataset,
                 template: ControllerParams):
        if data.world_kind != "fake" or not data.total_steps:
            raise ContractError(
                "imitation fitness needs a corridor dataset with steps"
            )
        self.template = template
        rec = data.record
        spans = rec.spans()
        steps = max(hi - lo for lo, hi in spans)
        self.zs = np.zeros((steps, len(spans), vae.k))
        self.acts = np.zeros((steps, len(spans), 4))
        self.mask = np.zeros((steps, len(spans)))
        for e, (lo, hi) in enumerate(spans):
            self.zs[: hi - lo, e] = encode(vae, rec.features(lo, hi))[0]
            self.acts[: hi - lo, e] = rec.actions[lo:hi]
            self.mask[: hi - lo, e] = 1.0
        self.episodes = [(self.zs[: hi - lo, e], self.acts[: hi - lo, e])
                         for e, (lo, hi) in enumerate(spans)]
        self.total_count = 4 * sum(hi - lo for lo, hi in spans)

    def shards(self, pop: int) -> list[tuple[int, int]]:
        """The genome ranges a call on `pop` genomes scores, the first in
        this process and each other one in a child process."""
        return _shards(pop, self.zs.shape[1], _usable_cores())

    def __call__(self, genomes: np.ndarray) -> np.ndarray:
        flat = np.asarray(genomes, dtype=np.float64)
        if flat.ndim != 2 or flat.shape[1] != genome_size(self.template):
            raise ContractError(
                f"genomes of shape {list(flat.shape)} are not rows of the "
                f"parameter count {genome_size(self.template)}")
        (lo, hi), *rest = self.shards(len(flat))
        if not rest:
            return self._score(flat)
        out = np.frombuffer(mmap.mmap(-1, 8 * len(flat)), np.float64)
        children: list[int] = []  # pids not yet reaped, in the order of rest
        try:
            for a, b in rest:
                pid = os.fork()
                if not pid:
                    status = 1
                    try:
                        out[a:b] = self._score(flat[a:b])
                        status = 0
                    except Exception:
                        traceback.print_exc()
                        sys.stderr.flush()
                    finally:
                        os._exit(status)
                children.append(pid)
            out[lo:hi] = self._score(flat[lo:hi])
            for a, b in rest:
                code = os.waitstatus_to_exitcode(os.waitpid(children[0], 0)[1])
                del children[0]
                if code:
                    raise EvolutionError(
                        f"the process scoring genomes [{a}, {b}) exited "
                        f"with status {code}")
        finally:
            # A child still scoring when the call fails is killed, not
            # waited for, and reaped.
            for pid in children:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        return out.copy()

    def _score(self, flat: np.ndarray) -> np.ndarray:
        """Scores of a (pop, dim) genome stack over every episode."""
        t = self.template
        # Contiguous weights keep the stacked matmuls on BLAS's fast path;
        # biases gain an episode axis to broadcast over (pop, episodes, .).
        net = [(np.ascontiguousarray(w), b[:, None])
               for w, b in _pack(t.params.views(flat))]
        lead = (len(flat), self.zs.shape[1])
        work = _Work(net, lead)
        diff = np.empty(lead + (4,))
        step_err = np.empty(lead)
        err = np.zeros(lead)
        for z, want, valid in zip(self.zs, self.acts, self.mask):
            out = _tick(net, t.out_scale, z, work)
            # err += valid * sum((out - want)**2)
            np.subtract(out, want, out=diff)
            np.multiply(diff, diff, out=diff)
            np.sum(diff, axis=-1, out=step_err)
            np.multiply(valid, step_err, out=step_err)
            np.add(err, step_err, out=err)
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
    its new genomes, keeps the `elites` best with ties broken toward the
    lower genome index, and refills by mutating uniformly drawn elites with
    N(0, mutation_sigma^2) noise. Elites carry over unchanged, together with
    their scores, so after generation 0 only the children are scored; the
    per-generation best never decreases and the best genome is never lost.
    Non-finite fitness aborts with the offending genome's population index.

    The population is one (population, dim) buffer for the whole run.
    fitness gets the new genomes as one (n, dim) view of it, which evolve
    overwrites after the call, and returns one float per row. The elites
    are copied to the top rows, and each child's noise is drawn straight
    into its row, scaled, and its parent's row added: the draws, their
    order and their sums are those of rng.normal (0.0 + sigma * z) over
    all children at once.
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
        new = np.asarray(fitness(fresh), dtype=np.float64)
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
        pop[: cfg.elites] = pop[order[: cfg.elites]]
        parents = rng.integers(0, cfg.elites, cfg.population - cfg.elites)
        for child, parent in zip(pop[cfg.elites :], parents.tolist()):
            rng.standard_normal(out=child)
            np.multiply(child, cfg.mutation_sigma, out=child)
            np.add(child, pop[parent], out=child)
        fit = fit[order[: cfg.elites]]
    assert best_genome is not None
    return Genome(best_genome, best_fit), history


# ---------------------------------------------------------------------------
# closed-loop rollout


@dataclass
class RolloutResult:
    """One flight: its recorded steps as a one-episode Record, and the
    state it ended in, which odometer and crashed read."""

    record: Record
    final_state: DroneState

    odometer = property(lambda self: self.final_state.odometer)
    crashed = property(lambda self: self.final_state.crashed)

    @property
    def steps(self) -> View:
        """The flight's TrajectorySteps, for perfbench (Record.episodes)."""
        return self.record.episodes()[0]


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
    max_steps or on its first crash. Each tick encodes the live drones'
    scans and steps their LSTM states (an LstmBatch) in one batch call
    per net, each layer a gemv per drone, so every drone flies bit for bit
    as it would alone. `record` is fly's.
    """
    if encoder == "vae":
        kind = "fake"
        see = lambda x: encode(vae, x)[0]
    elif encoder == "cheat":
        kind = "real"
        if cheat is None:
            raise ContractError("cheat rollout needs encoder parameters")
        from .cheat import cheat_encode  # local import to avoid a cycle

        see = lambda x: cheat_encode(cheat, x)
    else:
        raise ContractError(f"unknown encoder {encoder!r}")
    if any(w.kind != kind for w in worlds):
        where = "corridor" if kind == "fake" else "room"
        raise ContractError(f"the {encoder} encoder rolls out in {where} worlds")
    lstm, ids = LstmBatch(ctrl, len(worlds)), np.arange(len(worlds))

    def act(flock, _drones, scans) -> np.ndarray:
        nonlocal lstm, ids
        if len(flock) < len(ids):  # drones landed: drop their states
            lstm, ids = lstm.take(np.isin(ids, flock.ids)), flock.ids
        return controller_step(ctrl, see(scan_features(*scans)), lstm)

    flight, ends = fly(worlds, act, max_steps, cfg, record=record)
    return [RolloutResult(flight.episode(i), end) for i, end in enumerate(ends)]


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
    if len(meta["mlp_hidden"]) != 2 or len(meta["out_scale"]) != 4:
        raise FormatError(
            f"controller checkpoint needs 2 mlp_hidden widths and 4 "
            f"out_scale entries, got {len(meta['mlp_hidden'])} and "
            f"{len(meta['out_scale'])}")
    container.check_layout(
        ckpt, _layout(meta["k"], meta["h_dim"], meta["mlp_hidden"]))
    return ControllerParams(
        ckpt.params, meta["k"], meta["h_dim"], meta["mlp_hidden"],
        meta["out_scale"],
    )
