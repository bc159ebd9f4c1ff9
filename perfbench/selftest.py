"""Plant a wrong input for each benchmark check and make sure it fails.

    python3 perfbench/selftest.py

Each case first runs the check on the program's true output, which must
pass, then on a copy with one planted fault, which must fail. Exits 1 if
either expectation breaks. Takes a few seconds; its scratch directory
under perfbench/_work is removed at the end.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import checks  # noqa: E402
from cheatlab import cli, expert, policy, vae, worldsim  # noqa: E402
from workloads import MODEL_CONFIG, MODEL_SEED, Workload  # noqa: E402

RESULTS: list[bool] = []


def case(name: str, honest, planted) -> None:
    """honest() must pass and planted() must raise CheckFailed."""
    try:
        honest()
        ok_honest = True
    except checks.CheckFailed as err:
        print(f"FAIL {name}: rejected the true output: {err}")
        ok_honest = False
    try:
        planted()
        print(f"FAIL {name}: planted fault went unnoticed")
        ok_planted = False
    except checks.CheckFailed as err:
        ok_planted = True
        if ok_honest:
            print(f"ok   {name}: caught ({err})")
    RESULTS.append(ok_honest and ok_planted)


def best_fitness_case(sim) -> None:
    data = expert.collect_trajectories("fake", 1, 60, seed=5, cfg=sim)
    model = vae.vae_init(8, (32, 16), seed=1)
    template = policy.controller_template(k=8, cfg=sim)
    evaluator = policy.ImitationEvaluator(model, data, template)
    genome = np.random.default_rng(0).normal(0.0, 0.1, policy.genome_size(template))
    score = float(evaluator([genome])[0])
    zero = float(evaluator([np.zeros_like(genome)])[0])
    acts = np.array([(s.action.vx, s.action.vy, s.action.vz, s.action.yaw_rate)
                     for s in data.episodes[0]])
    own = checks.imitation_score(genome, [(evaluator.episodes[0][0], acts)],
                                 template.k, template.h_dim,
                                 template.mlp_hidden, template.out_scale)
    case("best fitness off by 1e-6",
         lambda: checks.check_close("best", score, own, 1e-9),
         lambda: checks.check_close("best", score + 1e-6, own, 1e-9))
    case("zero genome score",
         lambda: checks.check_close("zero", zero, -float(np.mean(acts ** 2)), 1e-12),
         lambda: checks.check_close("zero", zero * (1 + 1e-9),
                                    -float(np.mean(acts ** 2)), 1e-12))


def flight_case(sim) -> None:
    data = expert.collect_trajectories("real", 1, 120, seed=11, cfg=sim)
    world = worldsim.spawn_real_world(worldsim._derive_seed(11, 0), 0.4, False, sim)
    ep = data.episodes[0]
    boxes = np.array([(o.min_x, o.min_y, o.max_x, o.max_y) for o in world.obstacles])
    states = np.array([(*s.state.position[:2], s.state.odometer) for s in ep])
    flags = [s.state.crashed for s in ep]
    r = sim.collision_radius

    def run(st):
        checks.check_flight("episode", st, flags, False, len(ep), len(ep),
                            boxes, world.bounds, r)

    planted = states.copy()
    b = boxes[0]
    planted[len(ep) // 2, :2] = ((b[0] + b[2]) / 2, (b[1] + b[3]) / 2)
    case("state inside a box, not marked crashed",
         lambda: run(states), lambda: run(planted))

    s = ep[0]
    own = checks.render_scan(s.state.position[0], s.state.position[1], s.state.yaw,
                             boxes, world.bounds, sim.fov_deg, sim.scan_width,
                             sim.d_max)
    depth = s.observation.depth.copy()
    depth[np.argmax(depth)] -= 1e-6
    case("scan re-rendered by own ray-box code",
         lambda: checks.check_rerender("scan", s.observation.classes,
                                       s.observation.depth, own, sim.d_max),
         lambda: checks.check_rerender("scan", s.observation.classes, depth,
                                       own, sim.d_max))


def pipeline_cases(work: Path) -> None:
    out = work / "run"
    code, _ = Workload(0, work, None).run_pipeline(MODEL_CONFIG, MODEL_SEED, out)
    assert code == 0, f"pipeline exited {code}"
    summaries = {stage: json.loads(
        (out / f"{stage.replace('-', '_')}_summary.json").read_text())
        for stage in cli.STAGES}
    planted = json.loads(json.dumps(summaries))
    planted["train-vae"]["inputs"]["fake_data.bin"] = "0" * 64
    case("one altered link in the stage digest chain",
         lambda: checks.check_digest_chain(summaries, out),
         lambda: checks.check_digest_chain(planted, out))

    def digests(d):
        return {p.name: checks.sha256_file(p) for p in sorted(d.iterdir())
                if not p.name.endswith("_summary.json")}

    first = digests(out)
    same, flipped = work / "same", work / "flipped"
    shutil.copytree(out, same)
    shutil.copytree(out, flipped)
    blob = bytearray((flipped / "controller.ckpt").read_bytes())
    blob[100] ^= 1
    (flipped / "controller.ckpt").write_bytes(bytes(blob))
    case("repeat run with one differing artifact byte",
         lambda: checks.check_repeat(first, digests(same), 1),
         lambda: checks.check_repeat(first, digests(flipped), 1))
    case("frozen digests of the substitute encoder",
         lambda: checks.check_frozen(out, summaries["train-cheat"]),
         lambda: checks.check_frozen(flipped, summaries["train-cheat"]))


def main() -> int:
    sim = worldsim.DEFAULT_SIM
    work = HERE / "_work" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        best_fitness_case(sim)
        flight_case(sim)
        pipeline_cases(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{sum(RESULTS)}/{len(RESULTS)} checks behave")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
