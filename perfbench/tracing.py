"""Per-layer tracing from outside the program.

`StageClock` wraps only `cli.run_command`, which the pipeline calls once
per stage, so it is cheap enough for the untraced run; it records each
stage's wall time and summary.

`Tracer` wraps each listed public function of every cheatlab module at
every binding it is reachable through. Modules import names directly
(`from .worldsim import render_observation`), so `policy`, `expert`,
`cheat`, `evaluation` and `cli` each hold their own reference; patching
the defining module alone would miss those calls. Each wrapper counts
calls and accumulates self time (time inside the function minus the time
spent in traced calls it makes). Counters that measure wasted work sit at
the same boundaries:

- expert.collect_trajectories.accept_ratio: corridor episodes kept /
  corridor worlds flown (spawn_fake_world calls inside a corridor
  collection);
- cheat.build_pairs.accept_ratio: pairs kept / rooms tried
  (spawn_real_world calls inside build_pairs);
- policy.fitness.new_genome_ratio: genomes scored for the first time in
  their evolve call / genomes scored;
- container.bytes_written, container.bytes_read: file sizes.

A ratio reads 0 where its work never happens.

Figures are kept per scope ("setup" or "timed"); nothing is recorded
while the scope is None, so the benchmark's own checks stay out of them.
"""

from __future__ import annotations

import hashlib
import os
import sys
import time
from collections import defaultdict

TRACED = {
    "worldsim": ("render_observation", "step_dynamics", "point_in_collision",
                 "virtual_gate", "spawn_real_world", "spawn_fake_world",
                 "_solid_boxes"),
    "expert": ("expert_action", "collect_trajectories", "write_dataset",
               "read_dataset"),
    "vae": ("encode", "decode", "train_vae"),
    "policy": ("controller_step", "rollout", "evolve",
               "ImitationEvaluator.__init__", "ImitationEvaluator.__call__"),
    "cheat": ("cheat_encode", "matched_fake_observation", "build_pairs",
              "train_cheat"),
    "evaluation": ("eval_mean_distance", "baseline_action", "train_baseline",
                   "render_belief_strip"),
    "autodiff": ("backward", "Adam.step"),
    "container": ("write_container", "read_container"),
}

STAGES = ("gen-fake-data", "train-vae", "gen-expert", "train-policy",
          "build-pairs", "train-cheat", "gen-real-data", "train-baseline",
          "eval", "viz")

RATIOS = {
    "expert.collect_trajectories.accept_ratio": ("corridor_kept",
                                                 "corridor_flown"),
    "cheat.build_pairs.accept_ratio": ("pairs_kept", "pairs_tried"),
    "policy.fitness.new_genome_ratio": ("genomes_new", "genomes_scored"),
}
BYTE_COUNTS = ("container.bytes_written", "container.bytes_read")


def _cheatlab_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if name == "cheatlab" or name.startswith("cheatlab.")]


def _rebind(orig, wrapper) -> None:
    """Replace `orig` by `wrapper` wherever a cheatlab module binds it."""
    for module in _cheatlab_modules():
        for attr, value in list(vars(module).items()):
            if value is orig:
                setattr(module, attr, wrapper)


class StageClock:
    """Wall time and summary of every CLI stage run, with its scope."""

    def __init__(self, cli_module):
        self.history: list[tuple[str | None, str, float]] = []
        self.pending: list[tuple[str, float, dict]] = []
        self.scope: str | None = None
        orig = cli_module.run_command

        def run_command(name, cfg):
            t0 = time.perf_counter()
            summary = orig(name, cfg)
            wall = time.perf_counter() - t0
            self.history.append((self.scope, name, wall))
            self.pending.append((name, wall, summary))
            return summary

        cli_module.run_command = run_command

    def take(self) -> list[tuple[str, float, dict]]:
        """(stage, wall seconds, summary) of the stages run since the last take."""
        out, self.pending = self.pending, []
        return out


class Tracer:
    """Counts and self times for every function in TRACED."""

    def __init__(self):
        import cheatlab.cli  # noqa: F401  (loads every module to patch)

        self.scope: str | None = None
        self.calls = defaultdict(int)  # (scope, key) -> calls
        self.self_s = defaultdict(float)  # (scope, key) -> seconds
        self.counts = defaultdict(int)  # (scope, counter) -> count
        self._stack: list[list] = []  # [key, child seconds]
        self._seen_genomes: set[bytes] = set()
        for module_name, funcs in TRACED.items():
            module = sys.modules[f"cheatlab.{module_name}"]
            for func in funcs:
                key = f"{module_name}.{func}"
                if "." in func:
                    cls_name, meth = func.split(".")
                    cls = getattr(module, cls_name)
                    setattr(cls, meth, self._wrap(key, getattr(cls, meth)))
                else:
                    orig = getattr(module, func)
                    _rebind(orig, self._wrap(key, orig))

    def _active(self, key: str) -> bool:
        return any(frame[0] == key for frame in self._stack)

    def _before(self, key: str, args) -> None:
        scope, counts = self.scope, self.counts
        if key == "worldsim.spawn_fake_world" and self._active(
                "expert.collect_trajectories"):
            counts[scope, "corridor_flown"] += 1
        elif key == "worldsim.spawn_real_world" and self._active(
                "cheat.build_pairs"):
            counts[scope, "pairs_tried"] += 1
        elif key == "policy.evolve":
            self._seen_genomes.clear()
        elif key == "policy.ImitationEvaluator.__call__":
            for genome in args[1]:
                digest = hashlib.blake2b(genome.tobytes(), digest_size=16).digest()
                if digest not in self._seen_genomes:
                    self._seen_genomes.add(digest)
                    counts[scope, "genomes_new"] += 1
                counts[scope, "genomes_scored"] += 1
        elif key == "container.read_container":
            counts[scope, "container.bytes_read"] += os.path.getsize(args[0])

    def _after(self, key: str, args, result) -> None:
        scope, counts = self.scope, self.counts
        if key == "expert.collect_trajectories" and args[0] == "fake":
            counts[scope, "corridor_kept"] += len(result.episodes)
        elif key == "cheat.build_pairs":
            counts[scope, "pairs_kept"] += len(result)
        elif key == "container.write_container":
            counts[scope, "container.bytes_written"] += os.path.getsize(args[0])

    def _wrap(self, key: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.scope is None:
                return fn(*args, **kwargs)
            tracer._before(key, args)
            frame = [key, 0.0]
            tracer._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                wall = time.perf_counter() - t0
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][1] += wall
                tracer.calls[tracer.scope, key] += 1
                tracer.self_s[tracer.scope, key] += wall - frame[1]
            tracer._after(key, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", key)
        return traced

    def wrapper_cost(self, n: int = 20000) -> float:
        """Seconds a traced wrapper adds to one call, timed on a no-op."""
        def noop():
            return None

        wrapped = self._wrap("noop", noop)
        saved, self.scope = self.scope, "calibrate"
        t0 = time.perf_counter()
        for _ in range(n):
            noop()
        bare = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(n):
            wrapped()
        self.scope = saved
        return max(time.perf_counter() - t0 - bare, 0.0) / n

    def report(self, n_setups: int, n_rounds: int,
               stage_history) -> dict[str, float]:
        """Per-layer figures: totals per set-up plus totals per round.

        Every round of a workload repeats the same operations, so calls
        per round are whole numbers. A ratio is taken over the timed phase
        where that phase does the work it counts, else over set-up.
        """
        def per(table, key):
            return (table["setup", key] / n_setups
                    + table["timed", key] / n_rounds)

        out: dict[str, float] = {}
        for module_name, funcs in TRACED.items():
            for func in funcs:
                key = f"{module_name}.{func}"
                out[f"{key}.calls"] = per(self.calls, key)
                out[f"{key}.self_s"] = per(self.self_s, key)
        for name, (num, den) in RATIOS.items():
            scope = "timed" if self.counts["timed", den] else "setup"
            d = self.counts[scope, den]
            out[name] = self.counts[scope, num] / d if d else 0.0
        for name in BYTE_COUNTS:
            out[name] = per(self.counts, name)
        stage_wall = defaultdict(float)
        for scope, name, wall in stage_history:
            stage_wall[scope, name] += wall
        for stage in STAGES:
            out[f"cli.{stage}.wall_s"] = per(stage_wall, stage)
        return out
