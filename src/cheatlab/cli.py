"""Pipeline orchestrator: one subcommand per stage, plus `pipeline`.

`STAGE_TABLE` declares each stage once, in pipeline order: its function,
the artifacts it reads and writes in the output directory, and its help
text. Every stage drops a JSON summary recording the sha256 digest of
each input and output file alongside its headline metrics. Chaining those
digests makes a full run auditable: a stage's recorded input digest must
equal the digest recorded by whichever earlier stage produced the file.

Exit codes: 0 success, 1 usage or configuration error (an unreadable
config file included), 2 missing prerequisite artifact, 3 any error
during stage execution.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from . import cheat as ch
from . import evaluation as ev
from . import policy as po
from . import vae as vb
from .config import RunConfig, load_config
from .container import file_digest
from .errors import CheatLabError, ConfigError, DependencyError
from .expert import collect_trajectories, read_dataset, write_dataset
from .worldsim import _derive_seed, spawn_real_world


class Stage(NamedTuple):
    """One pipeline stage: run(cfg, out_dir, seed) returns its metrics."""

    run: Callable[[RunConfig, Path, int], dict]
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    help: str


def _stage_seed(cfg: RunConfig, *parts) -> int:
    return int(_derive_seed(cfg["seed"], *parts))


def _collect(kind: str, prefix: str, artifact: str, text: str) -> Stage:
    """The stage that flies the expert through `kind` worlds into
    `artifact`, sized by the data.<prefix>_episodes and _max_steps keys."""

    def run(cfg: RunConfig, out: Path, seed: int) -> dict:
        data = collect_trajectories(
            kind,
            cfg[f"data.{prefix}_episodes"],
            cfg[f"data.{prefix}_max_steps"],
            seed=seed,
            cfg=cfg.sim(),
            clutter_density=cfg["data.clutter_density"],
        )
        write_dataset(data, out / artifact)
        return {"episodes": len(data.record), "total_steps": data.total_steps}

    return Stage(run, (), (artifact,), text)


def _loss_metrics(history: list[float]) -> dict:
    """Headline metrics of a dense-net training stage."""
    return {
        "epochs": len(history),
        "loss_first": history[0] if history else None,
        "loss_last": history[-1] if history else None,
    }


def _stage_train_vae(cfg: RunConfig, out: Path, seed: int) -> dict:
    data = read_dataset(out / "fake_data.bin")
    model, history = vb.train_vae(
        data, cfg.section("vae", vb.VaeTrainConfig, seed=seed)
    )
    vb.save_vae(model, out / "vae.ckpt", extra_meta={"seed": seed})
    return _loss_metrics(history)


def _stage_train_policy(cfg: RunConfig, out: Path, seed: int) -> dict:
    model = vb.load_vae(out / "vae.ckpt")
    data = read_dataset(out / "expert_data.bin")
    template = cfg.section("policy", po.controller_template, k=model.k, cfg=cfg.sim())
    best, history = po.evolve(
        cfg.section("evolve", po.EvolutionConfig, seed=seed),
        po.ImitationEvaluator(model, data, template),
        po.genome_size(template),
    )
    ctrl = po.controller_from_genome(best.values, template)
    po.save_controller(
        ctrl,
        out / "controller.ckpt",
        extra_meta={
            "seed": seed,
            "best_fitness": best.fitness,
            "generations": len(history),
        },
    )
    rows = [f"{s.generation},{s.best!r},{s.mean!r}" for s in history]
    (out / "evolution_history.csv").write_text(
        "generation,best,mean\n" + "\n".join(rows) + "\n", encoding="utf-8"
    )
    return {"best_fitness": best.fitness, "generations": len(history)}


def _stage_build_pairs(cfg: RunConfig, out: Path, seed: int) -> dict:
    model = vb.load_vae(out / "vae.ckpt")
    pairs = cfg.section("cheat", ch.build_pairs, real_seed=seed, vae=model,
                        cfg=cfg.sim())
    ch.write_pairs(
        out / "pairs.bin",
        pairs,
        {
            "mode": cfg["cheat.mode"],
            "real_seed": seed,
            "density": cfg["cheat.density"],
        },
    )
    return {"pairs": len(pairs), "mode": cfg["cheat.mode"]}


def _stage_train_cheat(cfg: RunConfig, out: Path, seed: int) -> dict:
    pairs, _meta = ch.read_pairs(out / "pairs.bin")
    model = vb.load_vae(out / "vae.ckpt")
    ctrl = po.load_controller(out / "controller.ckpt")
    encoder, history, digests = ch.train_cheat(
        pairs, (model, ctrl), cfg.section("cheat", ch.CheatTrainConfig, seed=seed)
    )
    ch.save_cheat(
        encoder, out / "cheat.ckpt", digests, extra_meta={"seed": seed}
    )
    return {**_loss_metrics(history), "frozen": digests}


def _stage_train_baseline(cfg: RunConfig, out: Path, seed: int) -> dict:
    data = read_dataset(out / "real_data.bin")
    params, history = ev.train_baseline(
        data, cfg.section("baseline", ev.BaselineTrainConfig, seed=seed)
    )
    ev.save_baseline(params, out / "baseline.ckpt", extra_meta={"seed": seed})
    return _loss_metrics(history)


def _stage_eval(cfg: RunConfig, out: Path, _seed: int) -> dict:
    sim = cfg.sim()
    models = {
        "vae": vb.load_vae(out / "vae.ckpt"),
        "controller": po.load_controller(out / "controller.ckpt"),
        "cheat": ch.load_cheat(out / "cheat.ckpt"),
        "baseline": ev.load_baseline(out / "baseline.ckpt"),
    }
    seeds = [
        _stage_seed(cfg, "eval", i) for i in range(cfg["eval.episodes"])
    ]
    reports = [
        cfg.section("eval", ev.eval_mean_distance, pipeline=pipeline,
                    models=models, seeds=seeds, cfg=sim)
        for pipeline in ev.PIPELINES
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


def _stage_viz(cfg: RunConfig, out: Path, seed: int) -> dict:
    sim = cfg.sim()
    model = vb.load_vae(out / "vae.ckpt")
    ctrl = po.load_controller(out / "controller.ckpt")
    encoder = ch.load_cheat(out / "cheat.ckpt")
    world = spawn_real_world(
        seed, cfg["eval.density"], cfg=sim, with_gates=False
    )
    result = po.rollout(
        world, model, ctrl, cfg["viz.max_steps"], encoder="cheat",
        cheat=encoder, cfg=sim,
    )
    cfg.section("viz", ev.render_belief_strip, trace=result, cheat=encoder,
                vae=model, path=out / "belief_strip.pgm")
    steps = len(result.record.actions)
    return {
        "steps": steps,
        "tiles": -(-steps // cfg["viz.stride"]),
        "odometer": result.final_state.odometer,
        "crashed": result.crashed,
    }


STAGE_TABLE: dict[str, Stage] = {
    "gen-fake-data": _collect(
        "fake", "vae", "fake_data.bin",
        "collect corridor expert data for the autoencoder"),
    "train-vae": Stage(
        _stage_train_vae, ("fake_data.bin",), ("vae.ckpt",),
        "train the scanline autoencoder on corridor data"),
    "gen-expert": _collect(
        "fake", "expert", "expert_data.bin",
        "collect corridor expert data for imitation"),
    "train-policy": Stage(
        _stage_train_policy, ("vae.ckpt", "expert_data.bin"),
        ("controller.ckpt", "evolution_history.csv"),
        "evolve the recurrent controller on frozen latents"),
    "build-pairs": Stage(
        _stage_build_pairs, ("vae.ckpt",), ("pairs.bin",),
        "pair cluttered-room scans with corridor latents"),
    "train-cheat": Stage(
        _stage_train_cheat, ("pairs.bin", "vae.ckpt", "controller.ckpt"),
        ("cheat.ckpt",),
        "train the substitute encoder; policy stays frozen"),
    "gen-real-data": _collect(
        "real", "real", "real_data.bin", "collect cluttered-room expert data"),
    "train-baseline": Stage(
        _stage_train_baseline, ("real_data.bin",), ("baseline.ckpt",),
        "behavioral-cloning regression baseline"),
    "eval": Stage(
        _stage_eval,
        ("vae.ckpt", "controller.ckpt", "cheat.ckpt", "baseline.ckpt"),
        ("eval_report.csv", "eval_report.txt"),
        "mean distance before crash across all methods"),
    "viz": Stage(
        _stage_viz, ("vae.ckpt", "controller.ckpt", "cheat.ckpt"),
        ("belief_strip.pgm",),
        "render a seen-vs-believed belief strip"),
}
STAGES = tuple(STAGE_TABLE)


def run_command(name: str, cfg: RunConfig) -> dict:
    """Execute one stage (or the whole pipeline) and return its summary.

    `pipeline` runs each stage through this module-level name, so a
    wrapper bound to it sees every stage.
    """
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
    if name not in STAGE_TABLE:
        raise ConfigError(f"unknown command {name!r}")
    stage = STAGE_TABLE[name]
    missing = [art for art in stage.inputs if not (out / art).exists()]
    if missing:
        raise DependencyError(
            f"{name}: missing artifact(s) {', '.join(missing)} in {out}; "
            "run the producing stage(s) first"
        )
    in_digests = {art: file_digest(out / art) for art in stage.inputs}
    try:
        metrics = stage.run(cfg, out, _stage_seed(cfg, name))
    except DependencyError:
        raise
    except CheatLabError as err:
        raise type(err)(f"{name}: {err}") from err
    out_digests = {art: file_digest(out / art) for art in stage.outputs}
    summary = {
        "stage": name,
        "seed": cfg["seed"],
        "inputs": in_digests,
        "outputs": out_digests,
        "metrics": metrics,
        "config": dict(cfg.values),
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
        **{name: stage.help for name, stage in STAGE_TABLE.items()},
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
