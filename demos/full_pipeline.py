"""Run the whole pipeline end-to-end at toy sizes via the CLI entry point.

Writes a reduced config, invokes the same `pipeline` command the shell
exposes, and prints the artifact chain plus the final comparison table.
Expect a couple of minutes; the full-size defaults live in print-config.
"""

import pathlib
import tempfile

from cheatlab.cli import main

TOY = """
seed = 0
out_dir = {out}

data.vae_episodes = 2
data.vae_max_steps = 150
data.expert_episodes = 3
data.expert_max_steps = 200
data.real_episodes = 4
data.real_max_steps = 150

vae.hidden = 48, 24
vae.epochs = 30
evolve.population = 16
evolve.elites = 2
evolve.generations = 10
cheat.n_poses = 60
cheat.hidden = 48, 24
cheat.epochs = 30
baseline.hidden = 48, 24
baseline.epochs = 30
eval.episodes = 4
eval.max_steps = 300
viz.max_steps = 150
"""

with tempfile.TemporaryDirectory(prefix="cheatlab_demo_") as tmp:
    work = pathlib.Path(tmp)
    config = work / "toy.cfg"
    config.write_text(TOY.format(out=work / "run"))

    code = main(["pipeline", "--config", str(config)])
    print("\npipeline exit code:", code)

    run = work / "run"
    print("\nartifacts:")
    for p in sorted(run.iterdir()):
        print(f"  {p.name:28s} {p.stat().st_size:9d} bytes")

    print("\ncomparison table:")
    print((run / "eval_report.txt").read_text())
