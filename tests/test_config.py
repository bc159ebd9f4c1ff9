"""Run-configuration parsing, precedence, and validation."""

import pytest

from cheatlab.config import KEYS, load_config
from cheatlab.errors import ConfigError
from cheatlab.worldsim import DEFAULT_SIM


def test_no_sources_yields_all_defaults():
    cfg = load_config(None, None)
    assert cfg["seed"] == 0
    assert cfg["vae.k"] == 8
    assert cfg["vae.hidden"] == (128, 64)
    assert cfg["evolve.population"] == 64
    assert cfg.sim() == DEFAULT_SIM
    assert set(cfg.values) == set(KEYS)


def test_empty_file_yields_defaults(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("\n# just a comment\n\n")
    assert load_config(path).values == load_config(None).values


def test_override_beats_file_beats_default(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 3\nvae.k = 5\n")
    cfg = load_config(path, ["seed=7"])
    assert cfg["seed"] == 7  # override wins
    assert cfg["vae.k"] == 5  # file wins over default
    assert cfg["vae.epochs"] == 200  # untouched default


def test_unknown_key_names_key_and_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 1\npopsize = 64\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "popsize" in str(err.value)
    assert "line 2" in str(err.value)


def test_bad_value_names_key_and_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# leading comment\nworld.dt = 0.5\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "world.dt" in str(err.value) and "line 2" in str(err.value)
    path.write_text("vae.k = banana\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "vae.k" in str(err.value)


def test_malformed_line_and_override():
    with pytest.raises(ConfigError):
        load_config(None, ["seed"])
    with pytest.raises(ConfigError) as err:
        load_config(None, ["cheat.mode=telekinesis"])
    assert "cheat.mode" in str(err.value)
    with pytest.raises(ConfigError, match="unknown key 'evolve.fitness'"):
        load_config(None, ["evolve.fitness=imitation"])


def test_malformed_file_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed 3\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert "line 1" in str(err.value)


def test_inline_comments_and_spacing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("  seed=9   # trailing comment\n\nvae.hidden = 32,16\n")
    cfg = load_config(path)
    assert cfg["seed"] == 9
    assert cfg["vae.hidden"] == (32, 16)


def test_list_keys_validated():
    assert load_config(None, ["cheat.hidden=8"])["cheat.hidden"] == (8,)
    with pytest.raises(ConfigError):
        load_config(None, ["policy.mlp_hidden=8,8,8"])  # needs exactly 2
    with pytest.raises(ConfigError):
        load_config(None, ["vae.hidden=16,0"])


def test_cross_field_checks():
    with pytest.raises(ConfigError):
        load_config(None, ["world.z_max=0.4"])  # below z_min
    with pytest.raises(ConfigError):
        load_config(None, ["evolve.elites=64"])  # = population
    with pytest.raises(ConfigError):
        load_config(None, ["world.gate_half_width=2.5"])  # gate cannot fit
    with pytest.raises(ConfigError):
        load_config(None, ["world.d_gate=25"])  # beyond scan range
    with pytest.raises(ConfigError):
        load_config(None, ["world.obstacle_max_side=0.1"])
    with pytest.raises(ConfigError):
        load_config(None, ["world.room_size=6"])  # clearance cannot fit


def test_dump_reparses_to_identical_config(tmp_path):
    cfg = load_config(None, ["seed=11", "vae.hidden=24,12", "world.dt=0.04"])
    path = tmp_path / "dumped.cfg"
    path.write_text(cfg.dump())
    again = load_config(path)
    assert again.values == cfg.values
    assert again.dump() == cfg.dump()


def test_sim_reflects_world_keys():
    cfg = load_config(None, ["world.scan_width=32", "world.v_max=1.5"])
    sim = cfg.sim()
    assert sim.scan_width == 32
    assert sim.v_max == 1.5
    assert sim.d_max == DEFAULT_SIM.d_max
