"""Sizing figures behind the benchmark's configs, printed as one table.

    python3 perfbench/sizing.py [--full]

Measures, with BLAS pinned to one thread: one evolution generation on
the shipped corridor expert set, evaluator construction, per-step cost
of the room expert and of the cheated stack, per-call cost of the scan
render, widest-gap gate, collision check and box rebuild, _solid_boxes
calls per room-expert step, eight repeats of one room-expert collection,
and the disagreement between the square collision rule and the disc
rule on random room points. --full also times every stage of one
pipeline run at shipped defaults with evolution cut to 5 generations
(a few minutes). Not part of a benchmark run.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import contextlib  # noqa: E402
import io  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import checks  # noqa: E402
from cheatlab import cheat, cli, expert, policy, vae, worldsim  # noqa: E402
from cheatlab.config import load_config  # noqa: E402
from workloads import MODEL_CONFIG, MODEL_SEED, Workload  # noqa: E402


def per_call(fn, *args, n=300) -> float:
    t0 = time.perf_counter()
    for _ in range(n):
        fn(*args)
    return (time.perf_counter() - t0) / n


def main() -> None:
    cfg = load_config(None, [])
    sim = cfg.sim()
    work = HERE / "_work" / f"sizing-{os.getpid()}"
    work.mkdir(parents=True)
    rows = []
    try:
        t0 = time.perf_counter()
        data = expert.collect_trajectories(
            "fake", cfg["data.expert_episodes"], cfg["data.expert_max_steps"],
            seed=worldsim._derive_seed(0, "gen-expert"), cfg=sim)
        rows.append(("corridor expert set", f"{len(data.episodes)} episodes, "
                     f"{data.total_steps} steps, {time.perf_counter() - t0:.2f} s"))
        Workload(0, work, None).run_pipeline(MODEL_CONFIG, MODEL_SEED, work / "models")
        model = vae.load_vae(work / "models" / "vae.ckpt")
        ctrl = policy.load_controller(work / "models" / "controller.ckpt")
        enc = cheat.load_cheat(work / "models" / "cheat.ckpt")
        template = policy.controller_template(k=model.k, cfg=sim)
        t0 = time.perf_counter()
        evaluator = policy.ImitationEvaluator(model, data, template)
        rows.append(("evaluator construction", f"{time.perf_counter() - t0:.2f} s"))
        t0 = time.perf_counter()
        policy.evolve(policy.EvolutionConfig(generations=1), evaluator,
                      policy.genome_size(template))
        rows.append(("one generation (64 genomes)", f"{time.perf_counter() - t0:.2f} s"))

        walls = []
        for _ in range(8):
            t0 = time.perf_counter()
            room = expert.collect_trajectories("real", 8, 300, seed=7, cfg=sim)
            walls.append(time.perf_counter() - t0)
        rows.append(("room expert, per step",
                     f"{1e6 * min(walls) / room.total_steps:.0f} us "
                     f"({room.total_steps} steps)"))
        rows.append(("8 repeats of that collection",
                     f"{min(walls):.2f} to {max(walls):.2f} s"))
        worlds = [worldsim.spawn_real_world(s, 0.4, cfg=sim) for s in range(8)]
        t0 = time.perf_counter()
        steps = sum(len(policy.rollout(w, model, ctrl, 300, encoder="cheat",
                                       cheat=enc, cfg=sim).steps) for w in worlds)
        rows.append(("cheated stack, per step",
                     f"{1e6 * (time.perf_counter() - t0) / steps:.0f} us "
                     f"({steps} steps)"))

        w = worlds[0]
        st = worldsim.start_state(w)
        x, y, _ = st.position
        for name, fn, args in (
            ("render_observation", worldsim.render_observation, (w, st, sim)),
            ("virtual_gate", worldsim.virtual_gate, (w, st, sim)),
            ("point_in_collision", worldsim.point_in_collision,
             (w, x, y, sim.collision_radius)),
            ("_solid_boxes", worldsim._solid_boxes, (w,)),
        ):
            rows.append((f"{name}, per call", f"{1e6 * per_call(fn, *args):.1f} us"))

        calls = [0]
        orig = worldsim._solid_boxes

        def counted(world):
            calls[0] += 1
            return orig(world)

        worldsim._solid_boxes = counted
        try:
            room = expert.collect_trajectories("real", 4, 300, seed=3, cfg=sim)
        finally:
            worldsim._solid_boxes = orig
        rows.append(("_solid_boxes calls, room expert",
                     f"{calls[0]} for {room.total_steps} steps"))

        rng = np.random.default_rng(0)
        rooms = [worldsim.spawn_real_world(s, 0.4, cfg=sim) for s in range(20)]
        r = sim.collision_radius
        differ = 0
        for i in range(20000):
            w = rooms[i % len(rooms)]
            px, py = rng.uniform(0.0, sim.room_size, 2)
            boxes = np.array([(o.min_x, o.min_y, o.max_x, o.max_y)
                              for o in w.obstacles])
            square = worldsim.point_in_collision(w, px, py, r)
            disc = not checks.disc_clear(px, py, boxes, w.bounds, r)
            differ += square != disc
        rows.append(("square vs disc collision rule",
                     f"disagree on {differ} of 20000 random room points"))

        if "--full" in sys.argv:
            clock_rows = []
            orig_run = cli.run_command

            def timed(name, run_cfg):
                t0 = time.perf_counter()
                out = orig_run(name, run_cfg)
                clock_rows.append((name, time.perf_counter() - t0))
                return out

            cli.run_command = timed
            cfg_path = work / "full.cfg"
            cfg_path.write_text(f"evolve.generations = 5\nout_dir = {work / 'full'}\n")
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(["pipeline", "--config", str(cfg_path)])
            cli.run_command = orig_run
            for name, wall in sorted(clock_rows, key=lambda r: -r[1]):
                rows.append((f"shipped defaults, 5 generations: {name}", f"{wall:.1f} s"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, value in rows:
        print(f"{name:<48} {value}")


if __name__ == "__main__":
    main()
