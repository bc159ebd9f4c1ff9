"""The headline trick: transfer by retraining perception only.

Trains a small corridor stack (VAE + evolved controller), freezes it,
builds paired supervision in cluttered rooms, and fits the substitute
encoder. The frozen controller then flies rooms it has never seen while
"believing" it is still in the corridor. Also writes the belief-strip
image that visualizes that illusion.
"""

import numpy as np

from cheatlab.cheat import CheatTrainConfig, build_pairs, cheat_encode, train_cheat
from cheatlab.container import params_digest
from cheatlab.evaluation import render_belief_strip
from cheatlab.expert import collect_trajectories
from cheatlab.policy import (
    EvolutionConfig,
    ImitationEvaluator,
    controller_from_genome,
    controller_template,
    evolve,
    genome_size,
    rollout,
)
from cheatlab.vae import VaeTrainConfig, train_vae
from cheatlab.worldsim import DEFAULT_SIM, _derive_seed, spawn_real_world

cfg = DEFAULT_SIM

print("stage 1: corridor stack (reduced sizes for the demo)")
data = collect_trajectories("fake", n_episodes=4, max_steps=400,
                            seed=_derive_seed(0, "transfer-demo"), cfg=cfg)
vae, _ = train_vae(data, VaeTrainConfig(k=8, hidden=(64, 32), epochs=40,
                                        batch=64, lr=1e-3, seed=0))
template = controller_template(k=vae.k, cfg=cfg)
best, _ = evolve(
    EvolutionConfig(population=32, elites=4, generations=30, seed=5),
    ImitationEvaluator(vae, data, template), genome_size(template),
)
ctrl = controller_from_genome(best.values, template)

print("stage 2: paired supervision in cluttered rooms")
pairs = build_pairs(real_seed=9, n_poses=300, vae=vae, density=0.4, cfg=cfg)
print(f"  {len(pairs)} pairs; first target_mu:",
      np.round(pairs.target_mu[0, :4], 2), "...")

print("stage 3: fit the substitute encoder against frozen targets")
cheat, history, digests = train_cheat(
    pairs, frozen=(vae, ctrl),
    cfg=CheatTrainConfig(epochs=60, batch=64, lr=1e-3, hidden=(64, 32), seed=0),
)
print(f"  loss {history[0]:.4f} -> {history[-1]:.4f}")
now = {"vae": params_digest(vae.params), "controller": params_digest(ctrl.params)}
for name, before in digests.items():
    print(f"  frozen {name}: digest unchanged = {before == now[name]}")

print("stage 4: the frozen controller flies a gate-free room")
room = spawn_real_world(_derive_seed(0, "transfer-demo-room"),
                        clutter_density=0.4, cfg=cfg)
res = rollout(room, vae, ctrl, max_steps=1500, encoder="cheat", cheat=cheat,
              cfg=cfg)
print(f"  odometer={res.odometer:.2f} m over {len(res.steps)} steps, "
      f"crashed={res.crashed}")

out = "belief_strip_demo.pgm"
render_belief_strip(res, cheat, vae, stride=25, path=out)
print(f"  belief strip written to {out} (top: real scan, bottom: what the "
      "controller believes)")

# what the controller "sees": latent agreement between both encoders on
# the same real observation is NOT expected; the cheat encoder reports
# corridor-like codes instead.
z_cheat = cheat_encode(cheat, res.record.features([0]))
print("cheat latent at start:", np.round(z_cheat[0], 2))
