"""Transfer evaluation: mean distance before crash, plus belief strips.

Every method flies the same seeded gate-free cluttered rooms, one episode
per seed, and reports the odometer reading at the first crash or at the
step cap. Distance is path length, not displacement, so a policy that
circles safely still scores. Four pipelines are comparable: the
transferred policy behind the substitute encoder, a direct
observation-to-action regressor, a random-command flier, and a hovering
zero baseline.

The belief strip is the interpretation tool: for sampled steps of a real
flight it stacks what the drone actually saw over what the frozen decoder
says the substitute encoder believes, as one grayscale image.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import container
from .cheat import CheatEncoderParams, cheat_encode
from .errors import ContractError
from .expert import Dataset
from .policy import ControllerParams, RolloutResult, rollouts
from .vae import VaeParams, decode, feature_rows
from .worldsim import (
    DEFAULT_SIM,
    SimConfig,
    _derive_seed,
    fly,
    scan_features,
    spawn_real_world,
)

PIPELINES = ("cheat", "baseline", "random", "zero")


@dataclass
class BaselineParams:
    """Direct observation-to-action regressor (the non-cheating rival)."""

    params: ad.ParamSet
    hidden: tuple[int, ...]
    width: int


BaselineTrainConfig = ad.DenseTrainConfig


@dataclass(frozen=True)
class EvalReport:
    """One method's episode ledger over a fixed seed suite."""

    method: str
    seeds: tuple[int, ...]
    odometers: tuple[float, ...]
    crashed: tuple[bool, ...]
    mean_distance: float
    episodes: int
    config: dict

    @property
    def crash_rate(self) -> float:
        return sum(self.crashed) / self.episodes


def baseline_init(
    hidden: tuple[int, ...], seed: int, width: int = 64
) -> BaselineParams:
    """Seeded init, same scheme as every other stack here."""
    params = ad.ParamSet()
    ad.dense_init(params, "base", [2 * width, *hidden, 4],
                  np.random.default_rng(seed))
    return BaselineParams(params, tuple(hidden), width)


def baseline_action(
    p: BaselineParams, x: np.ndarray, cfg: SimConfig = DEFAULT_SIM
) -> np.ndarray:
    """Regressed commands for B drones' scan features (B, 2W): (B, 4) rows
    (vx, vy, vz, yaw_rate) clamped to the same envelope as any Action, row
    b with the bits of drone b's row alone (ad.dense_rows).
    """
    y = ad.dense_rows(p.params, "base", len(p.hidden) + 1, feature_rows(p, x))
    v, w = cfg.v_max, cfg.yaw_rate_max
    bound = np.array([v, v, v, w])
    return np.minimum(np.maximum(y, -bound), bound)


def train_baseline(
    real_data: Dataset, cfg: BaselineTrainConfig = BaselineTrainConfig()
) -> tuple[BaselineParams, list[float]]:
    """Behavioral cloning: minibatch Adam on expert action MSE."""
    if real_data.world_kind != "real":
        raise ContractError(
            f"the regression baseline trains on room data, got "
            f"{real_data.world_kind!r}"
        )
    if not real_data.total_steps:
        raise ContractError("dataset holds no steps")
    p = baseline_init(cfg.hidden, cfg.seed, width=real_data.record.width)
    rng = np.random.default_rng(_derive_seed(cfg.seed, "baseline-train"))
    history = ad.fit_dense(p.params, "base", len(p.hidden) + 1,
                           real_data.record.features(),
                           real_data.record.actions, cfg, rng)
    return p, history


def save_baseline(
    p: BaselineParams, path, extra_meta: dict | None = None
) -> str:
    meta = {"hidden": list(p.hidden), "width": p.width}
    return container.save_checkpoint(path, "baseline", p.params, meta, extra_meta)


def load_baseline(path) -> BaselineParams:
    ckpt = container.load_checkpoint(path, "baseline", {
        "hidden": container.meta_ints, "width": container.meta_int,
    })
    meta = ckpt.metadata
    return BaselineParams(ckpt.params, meta["hidden"], meta["width"])


# ---------------------------------------------------------------------------
# episode running


def _random_commands(seed: int, max_steps: int, hold_steps: int,
                     cfg: SimConfig) -> np.ndarray:
    """Piecewise-constant random commands, one row per step.

    Holding each draw for a stretch of steps makes the flier actually go
    somewhere; per-step jitter would mostly vibrate in place yet still rack
    up path length, which would wreck the random baseline's meaning.
    """
    rng = np.random.default_rng(_derive_seed(seed, "random-policy"))
    n_cmd = -(-max_steps // hold_steps)
    lo = [-cfg.v_max, -cfg.v_max, -cfg.v_max, -cfg.yaw_rate_max]
    hi = [cfg.v_max, cfg.v_max, cfg.v_max, cfg.yaw_rate_max]
    cmds = rng.uniform(lo, hi, size=(n_cmd, 4))
    return np.repeat(cmds, hold_steps, axis=0)[:max_steps]


def _require_model(models: dict, key: str, kind: type):
    if not isinstance(models, dict) or key not in models:
        raise ContractError(f"pipeline needs a {key!r} model")
    model = models[key]
    if not isinstance(model, kind):
        raise ContractError(
            f"model {key!r} should be {kind.__name__}, got "
            f"{type(model).__name__}"
        )
    return model


def eval_mean_distance(
    pipeline: str,
    models: dict | None,
    seeds: list[int],
    max_steps: int = 2000,
    density: float = 0.4,
    hold_steps: int = 20,
    cfg: SimConfig = DEFAULT_SIM,
) -> EvalReport:
    """Fly one episode per seed in gate-free rooms and tally odometers.

    Episodes end at the first crash or at max_steps; the odometer reading
    at that moment is the episode's distance. Everything is seeded, so a
    repeat call reproduces the report bit for bit.
    """
    if pipeline not in PIPELINES:
        raise ContractError(f"unknown pipeline {pipeline!r}")
    if not seeds:
        raise ContractError("no evaluation seeds")
    if max_steps < 1:
        raise ContractError(f"max_steps {max_steps} < 1")
    models = models or {}
    if pipeline == "cheat":
        cheat = _require_model(models, "cheat", CheatEncoderParams)
        vae = _require_model(models, "vae", VaeParams)
        ctrl = _require_model(models, "controller", ControllerParams)
    elif pipeline == "baseline":
        base = _require_model(models, "baseline", BaselineParams)

    worlds = [spawn_real_world(seed, density, cfg=cfg, with_gates=False)
              for seed in seeds]
    if pipeline == "cheat":
        ends = [r.final_state for r in rollouts(
            worlds, vae, ctrl, max_steps, encoder="cheat", cheat=cheat,
            cfg=cfg, record=False)]
    elif pipeline == "baseline":
        _, ends = fly(worlds, lambda _f, _d, scans: baseline_action(
            base, scan_features(*scans), cfg), max_steps, cfg, record=False)
    elif pipeline == "random":
        table = np.stack([_random_commands(seed, max_steps, hold_steps, cfg)
                          for seed in seeds])
        ticks = itertools.count()
        _, ends = fly(worlds, lambda flock, _d, _s: table[flock.ids, next(ticks)],
                      max_steps, cfg, blind=True, record=False)
    else:
        _, ends = fly(worlds, lambda flock, _d, _s: np.zeros((len(flock), 4)),
                      max_steps, cfg, blind=True, record=False)
    odometers = [end.odometer for end in ends]
    crashes = [end.crashed for end in ends]
    config = {"max_steps": max_steps, "density": density}
    if pipeline == "random":
        config["hold_steps"] = hold_steps
    return EvalReport(
        method=pipeline,
        seeds=tuple(int(s) for s in seeds),
        odometers=tuple(odometers),
        crashed=tuple(crashes),
        mean_distance=float(np.mean(odometers)),
        episodes=len(seeds),
        config=config,
    )


# ---------------------------------------------------------------------------
# reporting


def comparison_report(reports: list[EvalReport]) -> tuple[str, str]:
    """Render reports as an aligned text table and a CSV string.

    Rows are sorted by method name so output is byte-stable; CSV floats
    use repr and survive a parse roundtrip at full precision.
    """
    if not reports:
        raise ContractError("no reports to compare")
    suite = reports[0].seeds
    for r in reports[1:]:
        if r.seeds != suite:
            raise ContractError(
                f"seed suites differ between {reports[0].method!r} and "
                f"{r.method!r}; comparison would not be apples to apples"
            )
    rows = sorted(reports, key=lambda r: r.method)
    header = ("method", "mean_distance_m", "crash_rate", "episodes")
    cells = [
        (r.method, repr(r.mean_distance), repr(r.crash_rate), str(r.episodes))
        for r in rows
    ]
    widths = [
        max(len(header[j]), *(len(c[j]) for c in cells))
        for j in range(len(header))
    ]
    def fmt(row):
        left = row[0].ljust(widths[0])
        rest = "  ".join(v.rjust(w) for v, w in zip(row[1:], widths[1:]))
        return f"{left}  {rest}"

    text = "\n".join([fmt(header), *(fmt(c) for c in cells)]) + "\n"
    csv = "\n".join([",".join(header), *(",".join(c) for c in cells)]) + "\n"
    return text, csv


# ---------------------------------------------------------------------------
# belief strips


def render_belief_strip(
    trace: RolloutResult,
    cheat: CheatEncoderParams,
    vae: VaeParams,
    stride: int,
    path,
    band_height: int = 8,
) -> bytes:
    """Write a PGM strip: what was seen on top, what is believed below.

    Every stride-th step of the flight contributes one tile of the scan
    width. The top band encodes the real observation as class level (0,
    1/2, 1 for free, gate, obstacle) times depth; the bottom band decodes
    the substitute encoder's latent through the frozen decoder and shows
    its class channel times its depth channel on the same scale. Returns
    the bytes written; identical inputs produce identical files.
    """
    record = trace.record
    if stride < 1:
        raise ContractError(f"stride {stride} < 1")
    if band_height < 1:
        raise ContractError(f"band_height {band_height} < 1")
    if not len(record.actions):
        raise ContractError("empty trace")
    # The sampled steps' scans, encoded and decoded as one batch.
    x = scan_features(record.classes[::stride], record.depth[::stride])
    n, width = len(x), record.width
    top = x[:, :width] * x[:, width:]
    belief = decode(vae, cheat_encode(cheat, x))
    bottom = belief.class_channel * belief.depth_channel
    # Tiles side by side: rows are the two bands, columns n_tiles * width.
    img = np.repeat(np.stack([top.reshape(-1), bottom.reshape(-1)]),
                    band_height, axis=0)
    gray = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    h, w = gray.shape
    header = (
        "P5\n"
        "# top band: rendered scan, gray = class level (free 0, gate 1/2,\n"
        "# obstacle 1) x depth. bottom band: frozen decoder view of the\n"
        "# substitute encoder's latent, gray = class channel x depth channel.\n"
        f"# {n} tile(s) of width {width}, band height {band_height}.\n"
        f"{w} {h}\n255\n"
    ).encode("ascii")
    blob = header + gray.tobytes()
    with open(path, "wb") as fh:
        fh.write(blob)
    return blob
