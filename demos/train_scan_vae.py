"""Train a small scanline VAE and inspect what it learned.

Collects a few expert corridors, fits the autoencoder for a short run,
then prints the ELBO trajectory, a depth-profile reconstruction, and the
latent-space smoothness that the controller will later rely on.
"""

import numpy as np

from cheatlab.expert import collect_trajectories
from cheatlab.vae import VaeTrainConfig, decode, encode, train_vae
from cheatlab.worldsim import DEFAULT_SIM, _derive_seed

cfg = DEFAULT_SIM
data = collect_trajectories("fake", n_episodes=4, max_steps=400,
                            seed=_derive_seed(0, "vae-demo"), cfg=cfg)
n_obs = sum(len(ep) for ep in data.episodes)
print(f"dataset: {len(data.episodes)} episodes, {n_obs} observations")

model, history = train_vae(
    data, VaeTrainConfig(k=8, hidden=(64, 32), epochs=60, batch=64, lr=1e-3, seed=0)
)
print("ELBO per epoch (every 10th):",
      " ".join(f"{history[i]:.4f}" for i in range(0, len(history), 10)))
print(f"final/first ratio: {history[-1] / history[0]:.3f}")

# reconstruction of one scan: the nets take (B, 2W) feature rows, here one
rec = data.record
n = len(data.episodes[0]) // 2
mu, logvar = encode(model, rec.features([n]))
recon = decode(model, mu)
classes, depth = recon.class_channel[0], recon.depth_channel[0]
print("\nlatent mu:", np.round(mu[0], 2))
mid = rec.width // 2 - 4
print("depth (true) :", np.round(rec.depth[n, mid:mid + 8], 2))
print("depth (recon):", np.round(depth[mid:mid + 8], 2))
print("class (true) :", (rec.classes[n, mid:mid + 8] * 0.5).round(2))
print("class (recon):", np.round(classes[mid:mid + 8], 2))

# nearby scans should encode to nearby latents; encode gives every
# row the latent it has alone
x = rec.features(slice(*rec.spans()[0]))
z, _ = encode(model, x)
dz = np.linalg.norm(np.diff(z, axis=0), axis=1)
dobs = np.linalg.norm(np.diff(x, axis=0), axis=1)
corr = np.corrcoef(dobs, dz)[0, 1]
print(f"\nstep-to-step |dz| vs |dobs| correlation: {corr:.2f} "
      f"(positive = smooth latent)")
