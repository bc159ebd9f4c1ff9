"""The three workloads: set-up, one round of timed work, and checks.

Every workload reports all five end-to-end metrics. Its timed phase
measures its own headline metric; the others come from the part of the
run that does that kind of work (see README.md, "Where each metric comes
from"). All program calls go through module attributes, so a traced run
sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
from cheatlab import cli
from cheatlab import expert as ex
from cheatlab import policy as po
from cheatlab import vae as vb
from cheatlab import worldsim as ws
from cheatlab import cheat as ch
from cheatlab.config import load_config

# Criterion 8's reduced config and seed, with the shipped population (64)
# and elites (8) so its train-policy stage runs long enough to time:
# builds the models that corridor-evolve and room-flight use, the same
# models in every run. Its wall time is their pipeline_s.
MODEL_SEED = 3
MODEL_CONFIG = {
    "data.vae_episodes": 2, "data.vae_max_steps": 120,
    "data.expert_episodes": 2, "data.expert_max_steps": 150,
    "data.real_episodes": 3, "data.real_max_steps": 120,
    "vae.hidden": "48, 24", "vae.epochs": 20,
    "evolve.generations": 5,
    "cheat.n_poses": 40, "cheat.hidden": "48, 24", "cheat.epochs": 20,
    "baseline.hidden": "48, 24", "baseline.epochs": 20,
    "eval.episodes": 3, "eval.max_steps": 250, "viz.max_steps": 120,
}

# The pipeline workload: between criterion 8's config and the shipped
# defaults. Network sizes, population and densities stay at defaults.
PIPELINE_CONFIG = {
    "data.vae_episodes": 2, "data.vae_max_steps": 400,
    "data.expert_episodes": 2, "data.expert_max_steps": 300,
    "data.real_episodes": 4, "data.real_max_steps": 300,
    "vae.epochs": 40, "evolve.generations": 3,
    "cheat.n_poses": 500, "cheat.epochs": 40, "baseline.epochs": 40,
    "eval.episodes": 3, "eval.max_steps": 200, "viz.max_steps": 200,
}

# corridor-evolve: the shipped corridor expert set and evolution settings.
EVOLVE_GENERATIONS = 2  # per round
# room-flight: one round flies these episodes.
ROOM_EXPERT_EPISODES, ROOM_EXPERT_STEPS = 6, 300
CHEAT_EPISODES, CHEAT_STEPS = 12, 300
RERENDER_STRIDE = 10  # every 10th recorded scan is rendered again

FLIGHT_STAGES = ("gen-fake-data", "gen-expert", "gen-real-data")


def derive(seed: int, *parts) -> int:
    """63-bit input seed from the benchmark seed and a tag."""
    digest = hashlib.sha256(repr((seed, *parts)).encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def action_row(a) -> tuple[float, float, float, float]:
    return (a.vx, a.vy, a.vz, a.yaw_rate)


def params_hash(params) -> str:
    h = hashlib.sha256()
    for name, tensor in params.items():
        h.update(name.encode())
        h.update(np.ascontiguousarray(tensor.data, dtype="<f8").tobytes())
    return h.hexdigest()


class Workload:
    """Subclasses fill setup(i), round() -> (attempted, failed), check()
    and metrics() -> the three rate and time metrics."""

    name = ""
    setups = 3  # set-ups per run; setup_s is their median

    def __init__(self, seed: int, workdir: Path, clock):
        self.seed = seed
        self.workdir = workdir
        self.clock = clock
        self.setup_facts: list[dict] = []
        self.round_facts: list[dict] = []

    def build_models(self, i: int) -> tuple[Path, float, list]:
        """Run the model pipeline; returns its directory, wall time and
        stage records."""
        out = self.workdir / f"models{i}"
        code, wall = self.run_pipeline(MODEL_CONFIG, MODEL_SEED, out)
        checks.require(code == 0, f"model pipeline exited {code}")
        return out, wall, self.clock.take()

    def run_pipeline(self, config: dict, seed: int, out: Path) -> tuple[int, float]:
        """`cheatlab pipeline` through the CLI entry point; eval's report
        table goes to a buffer so stdout keeps only the benchmark's lines."""
        cfg_path = out.with_suffix(".cfg")
        lines = [f"{k} = {v}" for k, v in config.items()]
        lines += [f"seed = {seed}", f"out_dir = {out}"]
        cfg_path.write_text("\n".join(lines) + "\n")
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["pipeline", "--config", str(cfg_path)])
        return code, time.perf_counter() - t0

    @staticmethod
    def stage_work(stages) -> dict:
        """(work, seconds) of evolution and of expert flight inside one
        pipeline run, from its stage summaries and stage wall times."""
        by = {name: (wall, summary) for name, wall, summary in stages}
        cfg = by["train-policy"][1]["config"]
        expert_steps = by["gen-expert"][1]["metrics"]["total_steps"]
        work = cfg["evolve.population"] * expert_steps * cfg["evolve.generations"]
        flown = sum(by[s][1]["metrics"]["total_steps"] for s in FLIGHT_STAGES)
        return {
            "evolve": (work, by["train-policy"][0]),
            "flight": (flown, sum(by[s][0] for s in FLIGHT_STAGES)),
        }

    def round_figures(self) -> list[float]:
        """Each round's headline figure, for the stderr log."""
        key = self.headline
        return [f[key] if key == "pipeline_s" else f[key][0] / f[key][1]
                for f in self.round_facts]


def median_rate(facts: list[dict], key: str) -> float:
    """Median over rounds of work / seconds: a timed phase's headline."""
    return statistics.median(w / s for w, s in (f[key] for f in facts if key in f))


def pooled_rate(facts: list[dict], key: str) -> float:
    """Total work / total seconds over short samples, steadier than a
    median of a few."""
    pairs = [f[key] for f in facts if key in f]
    return sum(w for w, _ in pairs) / sum(s for _, s in pairs)


def mean_of(facts: list[dict], key: str) -> float:
    return statistics.fmean(f[key] for f in facts if key in f)


class CorridorEvolve(Workload):
    """Imitation evolution on the shipped corridor expert set."""

    name = "corridor-evolve"
    headline = "evolve"

    def setup(self, i: int) -> None:
        out, pipeline_s, _ = self.build_models(i)
        self.vae = vb.load_vae(out / "vae.ckpt")
        d = load_config(None, [])
        self.sim = d.sim()
        t0 = time.perf_counter()
        self.data = ex.collect_trajectories(
            "fake", d["data.expert_episodes"], d["data.expert_max_steps"],
            seed=derive(self.seed, "expert-set"), cfg=self.sim)
        collect_s = time.perf_counter() - t0
        self.template = po.controller_template(
            k=self.vae.k, h_dim=d["policy.h_dim"],
            mlp_hidden=d["policy.mlp_hidden"], cfg=self.sim)
        self.evaluator = po.ImitationEvaluator(self.vae, self.data, self.template)
        self.ecfg = po.EvolutionConfig(
            population=d["evolve.population"], elites=d["evolve.elites"],
            mutation_sigma=d["evolve.mutation_sigma"],
            generations=EVOLVE_GENERATIONS, seed=derive(self.seed, "evolve"))
        self.setup_facts.append({
            "pipeline_s": pipeline_s,
            "flight": (self.data.total_steps, collect_s),
        })

    def round(self) -> tuple[int, int]:
        t0 = time.perf_counter()
        best, history = po.evolve(self.ecfg, self.evaluator,
                                  po.genome_size(self.template))
        wall = time.perf_counter() - t0
        work = self.ecfg.population * self.data.total_steps * self.ecfg.generations
        if not self.round_facts:
            self.best, self.history = best, history
        self.round_facts.append({
            "evolve": (work, wall),
            "fingerprint": (best.fitness, [h.best for h in history]),
        })
        return self.ecfg.generations, 0

    def check(self) -> None:
        t = self.template
        episodes = [zs for zs, _ in self.evaluator.episodes]
        actions = [np.array([action_row(s.action) for s in ep])
                   for ep in self.data.episodes]
        own_best = checks.imitation_score(
            self.best.values, list(zip(episodes, actions)), t.k, t.h_dim,
            t.mlp_hidden, t.out_scale)
        zero = float(self.evaluator([np.zeros(po.genome_size(t))])[0])
        checks.check_evolution([h.best for h in self.history],
                               self.best.fitness, own_best, zero,
                               np.concatenate(actions))
        for i, facts in enumerate(self.round_facts[1:], 2):
            checks.require(facts["fingerprint"] == self.round_facts[0]["fingerprint"],
                           f"round {i} evolved differently from round 1")

    def metrics(self) -> dict[str, float]:
        return {
            "evolve_genome_steps_per_s": median_rate(self.round_facts, "evolve"),
            "flight_steps_per_s": pooled_rate(self.setup_facts, "flight"),
            "pipeline_s": mean_of(self.setup_facts, "pipeline_s"),
        }


class RoomFlight(Workload):
    """Room expert and cheated stack flying gate-free rooms."""

    name = "room-flight"
    headline = "flight"
    setups = 5

    def setup(self, i: int) -> None:
        out, pipeline_s, stages = self.build_models(i)
        self.vae = vb.load_vae(out / "vae.ckpt")
        self.ctrl = po.load_controller(out / "controller.ckpt")
        self.cheat = ch.load_cheat(out / "cheat.ckpt")
        d = load_config(None, [])
        self.sim = d.sim()
        self.density = d["eval.density"]
        self.expert_seed = derive(self.seed, "room-expert")
        self.worlds = [
            ws.spawn_real_world(derive(self.seed, "eval", j), self.density,
                                with_gates=False, cfg=self.sim)
            for j in range(CHEAT_EPISODES)
        ]
        self.frozen = (params_hash(self.vae.params), params_hash(self.ctrl.params))
        self.setup_facts.append({
            "pipeline_s": pipeline_s,
            "evolve": self.stage_work(stages)["evolve"],
        })

    def round(self) -> tuple[int, int]:
        t0 = time.perf_counter()
        data = ex.collect_trajectories(
            "real", ROOM_EXPERT_EPISODES, ROOM_EXPERT_STEPS,
            seed=self.expert_seed, cfg=self.sim, clutter_density=self.density)
        flights = [po.rollout(w, self.vae, self.ctrl, CHEAT_STEPS,
                              encoder="cheat", cheat=self.cheat, cfg=self.sim)
                   for w in self.worlds]
        wall = time.perf_counter() - t0
        steps = data.total_steps + sum(len(r.steps) for r in flights)
        if not self.round_facts:
            self.data, self.flights = data, flights
        self.round_facts.append({
            "flight": (steps, wall),
            "fingerprint": (
                [(len(ep), ep[-1].state.position) for ep in data.episodes],
                [(len(r.steps), r.final_state.position) for r in flights]),
        })
        return ROOM_EXPERT_EPISODES + CHEAT_EPISODES, 0

    def _check_episode(self, name, world, poses, actions, flags, ended_crashed,
                       steps, max_steps, scans):
        sim = self.sim
        boxes = np.array([(o.min_x, o.min_y, o.max_x, o.max_y)
                          for o in world.obstacles]).reshape(-1, 4)
        checks.require(not world.gates, f"{name}: room holds gates")
        for t in range(len(poses) - 1):
            x, y, yaw = checks.step_pose(*poses[t, :3], actions[t], sim.dt,
                                         sim.v_max, sim.yaw_rate_max)
            checks.require(abs(x - poses[t + 1, 0]) < 1e-9
                           and abs(y - poses[t + 1, 1]) < 1e-9,
                           f"{name}: step {t} does not follow the kinematics")
        states = poses[:, [0, 1, 3]]
        checks.check_flight(name, states, flags, ended_crashed, steps,
                            max_steps, boxes, world.bounds,
                            sim.collision_radius)
        for t, (classes, depth) in enumerate(scans):
            checks.check_scan_invariants(f"{name} scan {t}", classes, depth)
            if t % RERENDER_STRIDE == 0:
                own = checks.render_scan(poses[t, 0], poses[t, 1], poses[t, 2],
                                         boxes, world.bounds, sim.fov_deg,
                                         sim.scan_width, sim.d_max)
                checks.check_rerender(f"{name} scan {t}", classes, depth, own,
                                      sim.d_max)

    def check(self) -> None:
        sim = self.sim
        for i, ep in enumerate(self.data.episodes):
            # collect_trajectories seeds attempt i's room with
            # _derive_seed(seed, i) and keeps every room episode.
            world = ws.spawn_real_world(ws._derive_seed(self.expert_seed, i),
                                        self.density, False, sim)
            poses = np.array([(*s.state.position[:2], s.state.yaw,
                               s.state.odometer) for s in ep])
            actions = [action_row(s.action) for s in ep]
            flags = [s.state.crashed for s in ep]
            crashed = len(ep) < ROOM_EXPERT_STEPS
            if crashed:
                # The dataset records the state before each step, so the
                # crashed state the last step led to is integrated here.
                x, y, yaw = checks.step_pose(*poses[-1, :3], actions[-1], sim.dt,
                                             sim.v_max, sim.yaw_rate_max)
                odo = poses[-1, 3] + np.hypot(x - poses[-1, 0], y - poses[-1, 1])
                poses = np.vstack([poses, (x, y, yaw, odo)])
                flags.append(True)
            scans = [(s.observation.classes, s.observation.depth) for s in ep]
            self._check_episode(f"expert episode {i}", world, poses, actions,
                                flags, crashed, len(ep), ROOM_EXPERT_STEPS, scans)
        for i, (world, r) in enumerate(zip(self.worlds, self.flights)):
            states = [s.state for s in r.steps] + [r.final_state]
            poses = np.array([(*s.position[:2], s.yaw, s.odometer) for s in states])
            actions = [action_row(s.action) for s in r.steps]
            checks.require(r.final_state.crashed == r.crashed,
                           f"cheat flight {i}: crash flag disagrees")
            scans = [(s.observation.classes, s.observation.depth) for s in r.steps]
            self._check_episode(f"cheat flight {i}", world, poses, actions,
                                [s.crashed for s in states], r.crashed,
                                len(r.steps), CHEAT_STEPS, scans)
        checks.require(
            (params_hash(self.vae.params), params_hash(self.ctrl.params))
            == self.frozen, "flights changed the frozen VAE or controller")
        for i, facts in enumerate(self.round_facts[1:], 2):
            checks.require(facts["fingerprint"] == self.round_facts[0]["fingerprint"],
                           f"round {i} flew differently from round 1")

    def metrics(self) -> dict[str, float]:
        return {
            "evolve_genome_steps_per_s": pooled_rate(self.setup_facts, "evolve"),
            "flight_steps_per_s": median_rate(self.round_facts, "flight"),
            "pipeline_s": mean_of(self.setup_facts, "pipeline_s"),
        }


class Pipeline(Workload):
    """`cheatlab pipeline` at PIPELINE_CONFIG, every artifact on disk."""

    name = "pipeline"
    headline = "pipeline_s"
    setups = 7  # a CLI start takes a fraction of a second

    def setup(self, i: int) -> None:
        # What every CLI command pays before a stage runs: a fresh
        # interpreter importing the package and parsing the config.
        src = Path(cli.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-m", "cheatlab.cli", "print-config"],
                              env=env, capture_output=True, timeout=60)
        checks.require(proc.returncode == 0, "cheatlab print-config failed")

    def round(self) -> tuple[int, int]:
        rep = len(self.round_facts)
        out = self.workdir / f"rep{rep}"
        code, wall = self.run_pipeline(PIPELINE_CONFIG,
                                       derive(self.seed, "pipeline"), out)
        stages = self.clock.take()
        done = [s for s in stages if s[0] in cli.STAGES]
        facts = {"pipeline_s": wall, "code": code, "out": out,
                 "summaries": {name: summary for name, _, summary in done}}
        if code == 0:
            facts.update(self.stage_work(done))
        self.round_facts.append(facts)
        return len(cli.STAGES), len(cli.STAGES) - len(done)

    def check(self) -> None:
        first = None
        for rep, facts in enumerate(self.round_facts):
            checks.require(facts["code"] == 0, f"rep {rep}: exit code {facts['code']}")
            out, summaries = facts["out"], facts["summaries"]
            checks.check_digest_chain(summaries, out)
            checks.check_frozen(out, summaries["train-cheat"])
            checks.check_zero_policy(out)
            checks.check_training(summaries, out)
            cfg, viz = summaries["viz"]["config"], summaries["viz"]["metrics"]
            checks.require(viz["tiles"] == -(-viz["steps"] // cfg["viz.stride"]),
                           f"rep {rep}: {viz['tiles']} tiles for {viz['steps']} steps")
            checks.check_belief_strip(out / "belief_strip.pgm", viz["tiles"],
                                      cfg["world.scan_width"],
                                      cfg["viz.band_height"])
            digests = {p.name: checks.sha256_file(p) for p in sorted(out.iterdir())
                       if not p.name.endswith("_summary.json")}
            if first is None:
                first = digests
            else:
                checks.check_repeat(first, digests, rep)

    def metrics(self) -> dict[str, float]:
        return {
            "evolve_genome_steps_per_s": pooled_rate(self.round_facts, "evolve"),
            "flight_steps_per_s": pooled_rate(self.round_facts, "flight"),
            "pipeline_s": statistics.median(f["pipeline_s"] for f in self.round_facts),
        }


WORKLOADS = {w.name: w for w in (CorridorEvolve, RoomFlight, Pipeline)}
