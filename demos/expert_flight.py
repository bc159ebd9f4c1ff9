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
    count_gates_passed,
    fly,
    spawn_fake_world,
    start_state,
    step_dynamics,
)

cfg = DEFAULT_SIM

# single verbose episode
world = spawn_fake_world(3, cfg=cfg)
state = start_state(world)
positions = [(state.position[0], state.position[1])]
for step in range(1200):
    act = expert_action(world, state, cfg)
    state = step_dynamics(world, state, act, cfg.dt, cfg)
    positions.append((state.position[0], state.position[1]))
    if step % 100 == 0:
        tgt = next_gate_index(world, state)
        print(f"  t={step * cfg.dt:5.1f}s pos=({state.position[0]:6.2f}, "
              f"{state.position[1]:+5.2f}) yaw={np.degrees(state.yaw):+6.1f} "
              f"deg next_gate={tgt}")
    if state.crashed or next_gate_index(world, state) is None:
        break
print("episode ended:", "crashed" if state.crashed else "corridor complete",
      f"odometer={state.odometer:.1f} m",
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
