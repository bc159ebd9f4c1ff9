"""Fly the scripted expert through seeded corridors.

The expert is a pure-pursuit tracker with privileged access to gate
poses. It is the teacher for everything downstream, so this script is
the sanity check that the teacher itself never crashes and threads every
gate across many seeds.
"""

import numpy as np

from cheatlab.expert import collect_trajectories, expert_action, next_gate_index
from cheatlab.worldsim import (
    DEFAULT_SIM,
    Drones,
    Flock,
    count_gates_passed,
    fly,
    spawn_fake_world,
    start_state,
    step_dynamics,
)

cfg = DEFAULT_SIM

# single verbose episode, stepped by hand: a batch of one world and drone
world = spawn_fake_world(3, cfg=cfg)
flock, drones = Flock([world]), Drones.of([start_state(world)])
positions = [world.start[:2]]
for step in range(1200):
    act = expert_action(flock, drones, cfg)
    drones = step_dynamics(flock, drones, act, cfg)
    (x, y, _, yaw, odometer), = drones.pose.T.tolist()
    positions.append((x, y))
    (tgt,) = next_gate_index(flock, drones).tolist()  # -1: every gate passed
    if step % 100 == 0:
        print(f"  t={step * cfg.dt:5.1f}s pos=({x:6.2f}, {y:+5.2f}) "
              f"yaw={np.degrees(yaw):+6.1f} deg next_gate={tgt}")
    if drones.crashed[0] or tgt < 0:
        break
print("episode ended:",
      "crashed" if drones.crashed[0] else "corridor complete",
      f"odometer={odometer:.1f} m",
      f"gates={count_gates_passed(world, positions)}/{len(world.gates)}")

# aggregate over seeds: the expert reads gate poses, not the scan, so the
# 30 corridors fly blind in one lock-step batch, and each flight ends once
# its drone has passed every gate
worlds = [spawn_fake_world(seed, cfg=cfg) for seed in range(30)]
expert = lambda flock, drones, _scans: expert_action(flock, drones, cfg)
record, ends = fly(worlds, expert, 2000, cfg, blind=True,
                   done=lambda flock, drones: next_gate_index(flock, drones) < 0)
crashes, gates = 0, []
for w, (lo, hi), end in zip(worlds, record.spans(), ends):
    # each recorded state's x, y, then where the drone ended
    path = record.states[lo:hi, :2].tolist() + [end.position[:2]]
    crashes += int(end.crashed)
    gates.append(count_gates_passed(w, path))
print(f"\n30 seeds: crashes={crashes}, gates passed mean={np.mean(gates):.2f} "
      f"of {cfg.n_gates}")

# and the dataset entry point the training stages actually use
data = collect_trajectories("fake", n_episodes=3, max_steps=500, seed=11, cfg=cfg)
n_steps = sum(len(ep) for ep in data.episodes)
print(f"collect_trajectories: {len(data.episodes)} episodes, {n_steps} steps,",
      "manifest:", data.manifest)
