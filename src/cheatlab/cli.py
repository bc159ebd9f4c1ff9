"""Pipeline orchestrator: one subcommand per stage, plus `pipeline`.

Stages read and write artifacts in the configured output directory, and
every stage drops a JSON summary recording the sha256 digest of each
input and output file alongside its headline metrics. Chaining those
digests makes a full run auditable: a stage's recorded input digest must
equal the digest recorded by whichever earlier stage produced the file.

Exit codes: 0 success, 1 usage or configuration error, 2 missing
prerequisite artifact, 3 any error during stage execution.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import cheat as ch
from . import evaluation as ev
from . import policy as po
from . import vae as vb
from .config import RunConfig, load_config
from .container import file_digest
from .errors import CheatLabError, ConfigError, DependencyError
from .expert import collect_trajectories, read_dataset, write_dataset
from .worldsim import _derive_seed, spawn_real_world

STAGES = (
    "gen-fake-data",
    "train-vae",
    "gen-expert",
    "train-policy",
    "build-pairs",
    "train-cheat",
    "gen-real-data",
    "train-baseline",
    "eval",
    "viz",
)

# stage -> (input artifacts, output artifacts), all relative to out_dir.
STAGE_IO: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "gen-fake-data": ((), ("fake_data.bin",)),
    "train-vae": (("fake_data.bin",), ("vae.ckpt",)),
    "gen-expert": ((), ("expert_data.bin",)),
    "train-policy": (
        ("vae.ckpt", "expert_data.bin"),
        ("controller.ckpt", "evolution_history.csv"),
    ),
    "build-pairs": (("vae.ckpt",), ("pairs.bin",)),
    "train-cheat": (
        ("pairs.bin", "vae.ckpt", "controller.ckpt"),
        ("cheat.ckpt",),
    ),
    "gen-real-data": ((), ("real_data.bin",)),
    "train-baseline": (("real_data.bin",), ("baseline.ckpt",)),
    "eval": (
        ("vae.ckpt", "controller.ckpt", "cheat.ckpt", "baseline.ckpt"),
        ("eval_report.csv", "eval_report.txt"),
    ),
    "viz": (
        ("vae.ckpt", "controller.ckpt", "cheat.ckpt"),
        ("belief_strip.pgm",),
    ),
}


def _stage_seed(cfg: RunConfig, *parts) -> int:
    return int(_derive_seed(cfg["seed"], *parts))


def _stage_gen_fake_data(cfg: RunConfig, out: Path) -> dict:
    data = collect_trajectories(
        "fake",
        cfg["data.vae_episodes"],
        cfg["data.vae_max_steps"],
        seed=_stage_seed(cfg, "gen-fake-data"),
        cfg=cfg.sim(),
    )
    write_dataset(data, out / "fake_data.bin")
    return {"episodes": len(data.episodes), "total_steps": data.total_steps}


def _loss_metrics(history: list[float]) -> dict:
    """Headline metrics of a dense-net training stage."""
    return {
        "epochs": len(history),
        "loss_first": history[0] if history else None,
        "loss_last": history[-1] if history else None,
    }


def _stage_train_vae(cfg: RunConfig, out: Path) -> dict:
    data = read_dataset(out / "fake_data.bin")
    vcfg = vb.VaeTrainConfig(
        k=cfg["vae.k"],
        hidden=cfg["vae.hidden"],
        beta=cfg["vae.beta"],
        epochs=cfg["vae.epochs"],
        batch=cfg["vae.batch"],
        lr=cfg["vae.lr"],
        seed=_stage_seed(cfg, "train-vae"),
    )
    model, history = vb.train_vae(data, vcfg)
    vb.save_vae(model, out / "vae.ckpt", extra_meta={"seed": vcfg.seed})
    return _loss_metrics(history)


def _stage_gen_expert(cfg: RunConfig, out: Path) -> dict:
    data = collect_trajectories(
        "fake",
        cfg["data.expert_episodes"],
        cfg["data.expert_max_steps"],
        seed=_stage_seed(cfg, "gen-expert"),
        cfg=cfg.sim(),
    )
    write_dataset(data, out / "expert_data.bin")
    return {"episodes": len(data.episodes), "total_steps": data.total_steps}


def _stage_train_policy(cfg: RunConfig, out: Path) -> dict:
    sim = cfg.sim()
    model = vb.load_vae(out / "vae.ckpt")
    data = read_dataset(out / "expert_data.bin")
    template = po.controller_template(
        k=model.k,
        h_dim=cfg["policy.h_dim"],
        mlp_hidden=cfg["policy.mlp_hidden"],
        cfg=sim,
    )
    ecfg = po.EvolutionConfig(
        population=cfg["evolve.population"],
        elites=cfg["evolve.elites"],
        mutation_sigma=cfg["evolve.mutation_sigma"],
        generations=cfg["evolve.generations"],
        seed=_stage_seed(cfg, "train-policy"),
    )
    best, history = po.evolve(ecfg, po.ImitationEvaluator(model, data, template),
                              po.genome_size(template))
    ctrl = po.controller_from_genome(best.values, template)
    po.save_controller(
        ctrl,
        out / "controller.ckpt",
        extra_meta={
            "seed": ecfg.seed,
            "best_fitness": best.fitness,
            "generations": len(history),
        },
    )
    rows = [f"{s.generation},{s.best!r},{s.mean!r}" for s in history]
    (out / "evolution_history.csv").write_text(
        "generation,best,mean\n" + "\n".join(rows) + "\n", encoding="utf-8"
    )
    return {"best_fitness": best.fitness, "generations": len(history)}


def _stage_build_pairs(cfg: RunConfig, out: Path) -> dict:
    model = vb.load_vae(out / "vae.ckpt")
    real_seed = _stage_seed(cfg, "build-pairs")
    pairs = ch.build_pairs(
        real_seed,
        cfg["cheat.n_poses"],
        model,
        mode=cfg["cheat.mode"],
        density=cfg["cheat.density"],
        cfg=cfg.sim(),
    )
    ch.write_pairs(
        out / "pairs.bin",
        pairs,
        {
            "mode": cfg["cheat.mode"],
            "real_seed": real_seed,
            "density": cfg["cheat.density"],
        },
    )
    return {"pairs": len(pairs), "mode": cfg["cheat.mode"]}


def _stage_train_cheat(cfg: RunConfig, out: Path) -> dict:
    pairs, _meta = ch.read_pairs(out / "pairs.bin")
    model = vb.load_vae(out / "vae.ckpt")
    ctrl = po.load_controller(out / "controller.ckpt")
    ccfg = ch.CheatTrainConfig(
        epochs=cfg["cheat.epochs"],
        batch=cfg["cheat.batch"],
        lr=cfg["cheat.lr"],
        hidden=cfg["cheat.hidden"],
        seed=_stage_seed(cfg, "train-cheat"),
    )
    encoder, history, digests = ch.train_cheat(pairs, (model, ctrl), ccfg)
    ch.save_cheat(
        encoder, out / "cheat.ckpt", digests, extra_meta={"seed": ccfg.seed}
    )
    return {**_loss_metrics(history), "frozen": digests}


def _stage_gen_real_data(cfg: RunConfig, out: Path) -> dict:
    data = collect_trajectories(
        "real",
        cfg["data.real_episodes"],
        cfg["data.real_max_steps"],
        seed=_stage_seed(cfg, "gen-real-data"),
        cfg=cfg.sim(),
        clutter_density=cfg["data.clutter_density"],
    )
    write_dataset(data, out / "real_data.bin")
    return {"episodes": len(data.episodes), "total_steps": data.total_steps}


def _stage_train_baseline(cfg: RunConfig, out: Path) -> dict:
    data = read_dataset(out / "real_data.bin")
    bcfg = ev.BaselineTrainConfig(
        epochs=cfg["baseline.epochs"],
        batch=cfg["baseline.batch"],
        lr=cfg["baseline.lr"],
        hidden=cfg["baseline.hidden"],
        seed=_stage_seed(cfg, "train-baseline"),
    )
    params, history = ev.train_baseline(data, bcfg)
    ev.save_baseline(params, out / "baseline.ckpt", extra_meta={"seed": bcfg.seed})
    return _loss_metrics(history)


def _eval_models(out: Path) -> dict:
    return {
        "vae": vb.load_vae(out / "vae.ckpt"),
        "controller": po.load_controller(out / "controller.ckpt"),
        "cheat": ch.load_cheat(out / "cheat.ckpt"),
        "baseline": ev.load_baseline(out / "baseline.ckpt"),
    }


def _stage_eval(cfg: RunConfig, out: Path) -> dict:
    sim = cfg.sim()
    models = _eval_models(out)
    seeds = [
        _stage_seed(cfg, "eval", i) for i in range(cfg["eval.episodes"])
    ]
    reports = [
        ev.eval_mean_distance(
            pipeline,
            models,
            seeds,
            max_steps=cfg["eval.max_steps"],
            density=cfg["eval.density"],
            hold_steps=cfg["eval.hold_steps"],
            cfg=sim,
        )
        for pipeline in ("cheat", "baseline", "random", "zero")
    ]
    text, csv_blob = ev.comparison_report(reports)
    (out / "eval_report.csv").write_text(csv_blob, encoding="utf-8")
    (out / "eval_report.txt").write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return {
        "mean_distance": {r.method: r.mean_distance for r in reports},
        "crash_rate": {r.method: r.crash_rate for r in reports},
        "episodes": len(seeds),
    }


def _stage_viz(cfg: RunConfig, out: Path) -> dict:
    sim = cfg.sim()
    model = vb.load_vae(out / "vae.ckpt")
    ctrl = po.load_controller(out / "controller.ckpt")
    encoder = ch.load_cheat(out / "cheat.ckpt")
    world = spawn_real_world(
        _stage_seed(cfg, "viz"), cfg["eval.density"], cfg=sim, with_gates=False
    )
    result = po.rollout(
        world, model, ctrl, cfg["viz.max_steps"], encoder="cheat",
        cheat=encoder, cfg=sim,
    )
    ev.render_belief_strip(
        result,
        encoder,
        model,
        cfg["viz.stride"],
        out / "belief_strip.pgm",
        band_height=cfg["viz.band_height"],
    )
    return {
        "steps": len(result.steps),
        "tiles": len(result.steps[:: cfg["viz.stride"]]),
        "odometer": result.final_state.odometer,
        "crashed": result.crashed,
    }


_STAGE_FN = {
    "gen-fake-data": _stage_gen_fake_data,
    "train-vae": _stage_train_vae,
    "gen-expert": _stage_gen_expert,
    "train-policy": _stage_train_policy,
    "build-pairs": _stage_build_pairs,
    "train-cheat": _stage_train_cheat,
    "gen-real-data": _stage_gen_real_data,
    "train-baseline": _stage_train_baseline,
    "eval": _stage_eval,
    "viz": _stage_viz,
}


def _jsonable(value):
    if isinstance(value, tuple):
        return list(value)
    return value


def run_command(name: str, cfg: RunConfig) -> dict:
    """Execute one stage (or the whole pipeline) and return its summary."""
    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    if name == "pipeline":
        summaries = [run_command(stage, cfg) for stage in STAGES]
        summary = {
            "stage": "pipeline",
            "stages": list(STAGES),
            "metrics": summaries[STAGES.index("eval")]["metrics"],
        }
        _write_summary(out, "pipeline", summary)
        return summary
    if name not in _STAGE_FN:
        raise ConfigError(f"unknown command {name!r}")
    inputs, outputs = STAGE_IO[name]
    missing = [art for art in inputs if not (out / art).exists()]
    if missing:
        raise DependencyError(
            f"{name}: missing artifact(s) {', '.join(missing)} in {out}; "
            "run the producing stage(s) first"
        )
    in_digests = {art: file_digest(out / art) for art in inputs}
    try:
        metrics = _STAGE_FN[name](cfg, out)
    except DependencyError:
        raise
    except CheatLabError as err:
        raise type(err)(f"{name}: {err}") from err
    out_digests = {art: file_digest(out / art) for art in outputs}
    summary = {
        "stage": name,
        "seed": cfg["seed"],
        "inputs": in_digests,
        "outputs": out_digests,
        "metrics": metrics,
        "config": {k: _jsonable(v) for k, v in cfg.values.items()},
    }
    _write_summary(out, name, summary)
    return summary


def _write_summary(out: Path, name: str, summary: dict) -> None:
    path = out / f"{name.replace('-', '_')}_summary.json"
    path.write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


class _Parser(argparse.ArgumentParser):
    # Usage problems are exit code 1, not argparse's default 2.
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cheatlab",
        description=(
            "Corridor-trained flight policy transferred to cluttered rooms "
            "by retraining only the perception encoder."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "gen-fake-data": "collect corridor expert data for the autoencoder",
        "train-vae": "train the scanline autoencoder on corridor data",
        "gen-expert": "collect corridor expert data for imitation",
        "train-policy": "evolve the recurrent controller on frozen latents",
        "build-pairs": "pair cluttered-room scans with corridor latents",
        "train-cheat": "train the substitute encoder; policy stays frozen",
        "gen-real-data": "collect cluttered-room expert data",
        "train-baseline": "behavioral-cloning regression baseline",
        "eval": "mean distance before crash across all methods",
        "viz": "render a seen-vs-believed belief strip",
        "pipeline": "run every stage in order",
        "print-config": "dump the merged configuration and exit",
    }
    for name, desc in descriptions.items():
        p = sub.add_parser(name, help=desc, description=desc)
        p.add_argument("--config", default=None, help="key = value file")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            dest="overrides",
            metavar="KEY=VALUE",
            help="override one config key (repeatable)",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = load_config(args.config, args.overrides)
        if args.command == "print-config":
            sys.stdout.write(cfg.dump())
            return 0
        run_command(args.command, cfg)
        return 0
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except DependencyError as err:
        print(f"dependency error: {err}", file=sys.stderr)
        return 2
    except (CheatLabError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
