"""Command-line orchestration: stages, summaries, determinism, exit codes."""

import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from cheatlab import cli
from cheatlab.config import KEYS, load_config
from cheatlab.container import (file_digest, load_checkpoint, read_container,
                                save_checkpoint, write_container)

TINY = {
    "data.vae_episodes": "1",
    "data.vae_max_steps": "80",
    "data.expert_episodes": "1",
    "data.expert_max_steps": "100",
    "data.real_episodes": "2",
    "data.real_max_steps": "80",
    "vae.k": "3",
    "vae.hidden": "16,8",
    "vae.epochs": "3",
    "policy.h_dim": "4",
    "policy.mlp_hidden": "8,6",
    "evolve.population": "6",
    "evolve.elites": "1",
    "evolve.generations": "3",
    "cheat.n_poses": "12",
    "cheat.epochs": "3",
    "cheat.hidden": "16,8",
    "baseline.hidden": "16,8",
    "baseline.epochs": "3",
    "eval.episodes": "3",
    "eval.max_steps": "100",
    "viz.max_steps": "40",
    "viz.stride": "8",
}


def tiny_args(out_dir, **extra):
    settings = dict(TINY, **{k: str(v) for k, v in extra.items()})
    settings["out_dir"] = str(out_dir)
    args = []
    for key, value in settings.items():
        args += ["--set", f"{key}={value}"]
    return args


ARTIFACTS = (
    "fake_data.bin", "vae.ckpt", "expert_data.bin", "controller.ckpt",
    "evolution_history.csv", "pairs.bin", "cheat.ckpt", "real_data.bin",
    "baseline.ckpt", "eval_report.csv", "eval_report.txt",
    "belief_strip.pgm",
)


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    code = cli.main(["pipeline", *tiny_args(out)])
    assert code == 0
    return out


def test_pipeline_writes_every_artifact_and_summary(pipeline_run):
    for name in ARTIFACTS:
        assert (pipeline_run / name).exists(), name
    for stage in cli.STAGES:
        summary_path = pipeline_run / f"{stage.replace('-', '_')}_summary.json"
        summary = json.loads(summary_path.read_text())
        assert summary["stage"] == stage
        assert set(summary["outputs"]) == set(cli.STAGE_TABLE[stage].outputs)
        for digest in {**summary["inputs"], **summary["outputs"]}.values():
            assert len(digest) == 64
    pipe = json.loads((pipeline_run / "pipeline_summary.json").read_text())
    assert pipe["stages"] == list(cli.STAGES)
    assert set(pipe["metrics"]["mean_distance"]) == {
        "cheat", "baseline", "random", "zero"
    }


def test_summary_digest_chain(pipeline_run):
    # Whoever produced a file recorded its digest; every later consumer
    # must have seen exactly those bytes.
    produced: dict[str, str] = {}
    for stage in cli.STAGES:
        summary = json.loads(
            (pipeline_run / f"{stage.replace('-', '_')}_summary.json").read_text()
        )
        for name, digest in summary["inputs"].items():
            assert name in produced, f"{stage} consumed unproduced {name}"
            assert digest == produced[name], f"digest chain broken at {name}"
        produced.update(summary["outputs"])


def test_pipeline_reruns_byte_identical(pipeline_run, tmp_path):
    twin = tmp_path / "twin"
    assert cli.main(["pipeline", *tiny_args(twin)]) == 0
    for name in ARTIFACTS:
        a = (pipeline_run / name).read_bytes()
        b = (twin / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"


def test_stagewise_equals_pipeline(pipeline_run, tmp_path):
    stepwise = tmp_path / "stepwise"
    for stage in cli.STAGES:
        assert cli.main([stage, *tiny_args(stepwise)]) == 0
    for name in ARTIFACTS:
        assert (stepwise / name).read_bytes() == (pipeline_run / name).read_bytes()


def test_eval_report_lists_all_methods(pipeline_run):
    csv_text = (pipeline_run / "eval_report.csv").read_text()
    lines = csv_text.strip().splitlines()
    assert lines[0] == "method,mean_distance_m,crash_rate,episodes"
    assert [ln.split(",")[0] for ln in lines[1:]] == [
        "baseline", "cheat", "random", "zero"
    ]


def test_print_config_covers_every_key(capsys):
    assert cli.main(["print-config"]) == 0
    text = capsys.readouterr().out
    keys = {line.split(" = ")[0] for line in text.strip().splitlines()}
    assert keys == set(KEYS)


def test_print_config_respects_overrides(capsys, tmp_path):
    assert cli.main(["print-config", "--set", "seed=42"]) == 0
    assert "seed = 42" in capsys.readouterr().out
    # The dump can be fed straight back in as a config file.
    assert cli.main(["print-config"]) == 0
    dump = capsys.readouterr().out
    path = tmp_path / "roundtrip.cfg"
    path.write_text(dump)
    assert load_config(path).dump() == dump


def test_usage_and_config_errors_exit_one(capsys):
    assert cli.main(["no-such-command"]) == 1
    assert cli.main(["eval", "--set", "popsize=3"]) == 1
    assert "popsize" in capsys.readouterr().err
    assert cli.main(["eval", "--set", "world.dt=7"]) == 1


def test_unreadable_or_non_finite_config_exits_one(tmp_path, capsys):
    assert cli.main(["print-config", "--config", str(tmp_path / "nope.cfg")]) == 1
    assert capsys.readouterr().err.startswith("config error: ")
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"seed = 3 # \xe9\n")
    assert cli.main(["print-config", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("config error: ")
    assert cli.main(["gen-real-data", "--set", "world.room_size=inf"]) == 1
    assert "world.room_size" in capsys.readouterr().err


@pytest.mark.parametrize("setting, keys", [
    ("world.z_max=1.2", ["world.z_min", "world.z_max"]),
    ("world.start_offset_max=2.9",
     ["world.start_offset_max", "world.corridor_half_width"]),
    ("world.gate_half_width=0.44",
     ["world.gate_half_width", "world.frame_thickness"]),
])
def test_a_geometry_that_spawns_invalid_worlds_exits_one(setting, keys,
                                                         tmp_path, capsys):
    # Each once ran: every corridor started above the altitude band, or a
    # start could sit in the wall, or no gate could be flown through.
    assert cli.main(["gen-fake-data", "--set", setting,
                     "--set", f"out_dir={tmp_path}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert all(key in err for key in keys)
    assert not any(tmp_path.iterdir())


def test_help_lists_every_stage_with_its_table_text(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit) as done:
        cli.main(["--help"])
    assert done.value.code == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    for name, stage in cli.STAGE_TABLE.items():
        assert [name, *stage.help.split()] in lines


def test_pipeline_runs_each_stage_through_run_command(tmp_path, monkeypatch):
    # The benchmark times each stage by rebinding cli.run_command, as
    # perfbench/tracing.py's StageClock does, and reads the summaries it
    # returns; pipeline must call every stage through that name.
    calls, orig = [], cli.run_command

    def run_command(name, cfg):
        summary = orig(name, cfg)
        calls.append((name, summary))
        return summary

    monkeypatch.setattr(cli, "run_command", run_command)
    assert cli.main(["pipeline", *tiny_args(tmp_path / "run")]) == 0
    assert [name for name, _ in calls] == [*cli.STAGES, "pipeline"]
    by = dict(calls)
    assert by["gen-expert"]["metrics"]["total_steps"] > 0
    assert by["train-policy"]["config"]["evolve.population"] == 6
    assert len(by["train-cheat"]["metrics"]["frozen"]) == 2


def test_missing_prerequisite_exits_two(tmp_path, capsys):
    code = cli.main(["eval", "--set", f"out_dir={tmp_path / 'empty'}"])
    assert code == 2
    err = capsys.readouterr().err
    assert "controller.ckpt" in err
    assert cli.main(["viz", "--set", f"out_dir={tmp_path / 'empty'}"]) == 2


def test_stage_failure_exits_three_with_stage_prefix(tmp_path, capsys):
    out = tmp_path / "broken"
    assert cli.main(["gen-fake-data", *tiny_args(out)]) == 0
    (out / "fake_data.bin").write_bytes(b"LCLBgarbage")
    code = cli.main(["train-vae", *tiny_args(out)])
    assert code == 3
    assert "train-vae:" in capsys.readouterr().err


def test_corrupted_checkpoint_exits_three(tmp_path, capsys):
    out = tmp_path / "flipped"
    for stage in ("gen-fake-data", "train-vae", "gen-expert"):
        assert cli.main([stage, *tiny_args(out)]) == 0
    ckpt = out / "vae.ckpt"
    blob = bytearray(ckpt.read_bytes())
    blob[16] ^= 0x80  # first byte of the first record name: no longer utf-8
    ckpt.write_bytes(bytes(blob))
    capsys.readouterr()
    assert cli.main(["train-policy", *tiny_args(out)]) == 3
    err = capsys.readouterr().err
    assert "train-policy:" in err and "checksum mismatch" in err


def test_mistyped_checkpoint_metadata_exits_three(tmp_path, capsys):
    out = tmp_path / "mistyped"
    for stage in ("gen-fake-data", "train-vae", "gen-expert"):
        assert cli.main([stage, *tiny_args(out)]) == 0
    ckpt = load_checkpoint(out / "vae.ckpt")
    meta = {key: ckpt.metadata[key] for key in ("hidden", "width")}
    save_checkpoint(out / "vae.ckpt", "vae", ckpt.params, {**meta, "k": "two"})
    capsys.readouterr()
    assert cli.main(["train-policy", *tiny_args(out)]) == 3
    err = capsys.readouterr().err
    assert "train-policy:" in err and "'k'" in err


def test_checkpoint_that_freezes_a_tensor_exits_three(tmp_path, capsys):
    out = tmp_path / "frozen"
    for stage in ("gen-fake-data", "train-vae", "gen-expert"):
        assert cli.main([stage, *tiny_args(out)]) == 0
    records, meta = read_container(out / "vae.ckpt")
    first = next(iter(records))
    write_container(out / "vae.ckpt", records,
                    {**meta, "trainable": {**meta["trainable"], first: False}})
    capsys.readouterr()
    assert cli.main(["train-policy", *tiny_args(out)]) == 3
    err = capsys.readouterr().err
    assert "train-policy:" in err and "'trainable'" in err


def test_a_checkpoint_its_metadata_misdescribes_exits_three(tmp_path, capsys):
    # A small VAE saved under the shipped sizes: the loader must refuse it
    # before train-policy multiplies by its weights.
    from cheatlab.vae import vae_init

    out = tmp_path / "misdescribed"
    for stage in ("gen-fake-data", "gen-expert"):
        assert cli.main([stage, *tiny_args(out)]) == 0
    save_checkpoint(out / "vae.ckpt", "vae", vae_init(4, (8,), 0, 8).params,
                    {"k": 8, "hidden": [128, 64], "width": 64})
    capsys.readouterr()
    assert cli.main(["train-policy", *tiny_args(out)]) == 3
    err = capsys.readouterr().err
    assert "train-policy:" in err and "do not match its metadata" in err
    assert "Traceback" not in err


def test_a_dataset_record_of_rank_zero_exits_three(tmp_path, capsys):
    out = tmp_path / "scalar"
    assert cli.main(["gen-fake-data", *tiny_args(out)]) == 0
    records, meta = read_container(out / "fake_data.bin")
    write_container(out / "fake_data.bin",
                    {**records, "classes": np.array(1.0)}, meta)
    capsys.readouterr()
    assert cli.main(["train-vae", *tiny_args(out)]) == 3
    err = capsys.readouterr().err
    assert "train-vae:" in err and "ranks" in err and "Traceback" not in err


def test_a_dataset_in_the_per_episode_layout_exits_three(tmp_path, capsys):
    # Datasets were once written as four records per episode, named
    # ep{i:05d}/{field}; such a file is refused, not read.
    out = tmp_path / "old"
    assert cli.main(["gen-fake-data", *tiny_args(out)]) == 0
    records, meta = read_container(out / "fake_data.bin")
    ends = np.cumsum([0] + meta["episode_lengths"]).tolist()
    old = {f"ep{e:05d}/{name}": arr[lo:hi]
           for e, (lo, hi) in enumerate(zip(ends, ends[1:]))
           for name, arr in records.items()}
    write_container(out / "fake_data.bin", old, meta)
    capsys.readouterr()
    assert cli.main(["train-vae", *tiny_args(out)]) == 3
    err = capsys.readouterr().err
    assert "train-vae:" in err and "ep00000/" in err and "Traceback" not in err


@pytest.mark.parametrize("trailer", [
    "list", "no world_kind", "no generator_seed", "lengths not a list"])
def test_a_malformed_dataset_trailer_exits_three(tmp_path, capsys, trailer):
    # The file keeps a valid checksum; only its trailer is wrong.
    out = tmp_path / "trailer"
    assert cli.main(["gen-fake-data", *tiny_args(out)]) == 0
    records, meta = read_container(out / "fake_data.bin")
    meta = {
        "list": [meta],
        "no world_kind": {k: v for k, v in meta.items() if k != "world_kind"},
        "no generator_seed": {k: v for k, v in meta.items()
                              if k != "generator_seed"},
        "lengths not a list": {**meta, "episode_lengths": 5},
    }[trailer]
    write_container(out / "fake_data.bin", records, meta)
    capsys.readouterr()
    assert cli.main(["train-vae", *tiny_args(out)]) == 3
    err = capsys.readouterr().err
    assert "train-vae:" in err and "Traceback" not in err


@pytest.mark.parametrize("size", ["1e200", "1e308"])
def test_a_huge_room_runs_without_a_traceback(tmp_path, size):
    # Squared distances and ray products past the float range become inf;
    # they must not raise OverflowError out of the room spawner, nor print
    # numpy's overflow warnings.
    out = tmp_path / "huge"
    proc = subprocess.run(
        [sys.executable, "-m", "cheatlab.cli", "gen-real-data",
         *tiny_args(out, **{"world.room_size": size})],
        capture_output=True, text=True,
    )
    assert "Traceback" not in proc.stderr, proc.stderr
    assert "RuntimeWarning" not in proc.stderr, proc.stderr
    assert proc.returncode == 0, proc.stderr
    assert (out / "real_data.bin").exists()


# load_config requires d_gate <= d_max and obstacle_min_side <=
# obstacle_max_side, so a huge value of the first needs one of the second.
_HUGE_TIES = {"world.d_gate": "world.d_max",
              "world.obstacle_min_side": "world.obstacle_max_side"}


@pytest.mark.parametrize("stage", ["gen-fake-data", "gen-real-data"])
@pytest.mark.parametrize("key", [key for key, spec in KEYS.items()
                                 if key.startswith("world.")
                                 and isinstance(spec.default, float)])
def test_a_huge_length_ends_in_an_exit_code_not_an_exception(tmp_path, capsys,
                                                             key, stage):
    # Every float world key at 1e200: the stage may refuse the config (1)
    # or the geometry (3), but an overflow must neither raise nor warn.
    huge = {key: "1e200", _HUGE_TIES.get(key, key): "1e200"}
    args = tiny_args(tmp_path, **huge, **{
        "data.vae_episodes": 2, "data.vae_max_steps": 20,
        "data.real_episodes": 2, "data.real_max_steps": 20})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main([stage, *args])
    assert code in (0, 1, 3), capsys.readouterr().err


def test_artifacts_identical_across_blas_thread_counts(tmp_path):
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "cheatlab.cli", "pipeline", *tiny_args(out)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        digests.append({name: file_digest(out / name) for name in ARTIFACTS})
    assert digests[0] == digests[1]


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "cheatlab.cli", "print-config"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "world.scan_width = 64" in proc.stdout
