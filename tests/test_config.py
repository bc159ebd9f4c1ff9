"""Run-configuration parsing, precedence, and validation."""

import dataclasses
import inspect
import math

import numpy as np
import pytest

from cheatlab.autodiff import DenseTrainConfig
from cheatlab.cheat import build_pairs
from cheatlab.config import KEYS, load_config
from cheatlab.errors import ConfigError
from cheatlab.evaluation import eval_mean_distance, render_belief_strip
from cheatlab.policy import EvolutionConfig, controller_template
from cheatlab.vae import VaeTrainConfig
from cheatlab import worldsim as ws
from cheatlab.worldsim import DEFAULT_SIM, SimConfig

# What RunConfig.section builds or calls from each prefix's keys.
SECTIONS = {
    "world": (SimConfig,),
    "vae": (VaeTrainConfig,),
    "policy": (controller_template,),
    "evolve": (EvolutionConfig,),
    "cheat": (DenseTrainConfig, build_pairs),
    "baseline": (DenseTrainConfig,),
    "eval": (eval_mean_distance,),
    "viz": (render_belief_strip,),
}
READ_BY_KEY = {"eval.episodes", "viz.max_steps"}  # stage code reads these


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
        load_config(None, ["vae.hidden=telekinesis"])
    assert "vae.hidden" in str(err.value)
    # print-config writes out_dir as it is, so it must read back as it is.
    for raw in ("runs/a#1", "runs/a\nseed=3", "runs/a\rb"):
        with pytest.raises(ConfigError, match="out_dir"):
            load_config(None, [f"out_dir={raw}"])
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


def up(x: float) -> str:
    return repr(float(np.nextafter(x, math.inf)))


def down(x: float) -> str:
    return repr(float(np.nextafter(x, -math.inf)))


def assert_boundary(accepted: list[str], rejected: list[list[str]],
                    keys: list[str]) -> ws.SimConfig:
    """`accepted` loads and its corridors and rooms are valid; each of
    `rejected` is a ConfigError naming every key in `keys`."""
    for settings in rejected:
        with pytest.raises(ConfigError) as err:
            load_config(None, settings)
        assert all(key in str(err.value) for key in keys), err.value
    cfg = load_config(None, accepted).sim()
    for seed in range(40):
        ws.validate_world(ws.spawn_fake_world(seed, cfg), cfg)
    for seed in range(5):
        ws.validate_world(ws.spawn_real_world(seed, 0.4, True, cfg), cfg)
    return cfg


def test_the_z_band_must_hold_the_spawn_altitude():
    assert ws.SPAWN_Z == 1.5
    keys = ["world.z_min", "world.z_max"]
    assert_boundary(["world.z_max=1.5"], [[f"world.z_max={down(1.5)}"]], keys)
    assert_boundary(["world.z_min=1.5"], [[f"world.z_min={up(1.5)}"]], keys)


def test_a_corridor_start_offset_must_keep_the_start_off_the_wall():
    edge = DEFAULT_SIM.corridor_half_width - DEFAULT_SIM.collision_radius
    cfg = assert_boundary(
        [f"world.start_offset_max={edge!r}"],
        [[f"world.start_offset_max={up(edge)}"]],
        ["world.start_offset_max", "world.corridor_half_width",
         "world.collision_radius"])
    # The rule is the crash rule's wall test: a start at the offset edge
    # is clear, one a rounding step further out is in the wall.
    world = ws.spawn_fake_world(0, cfg)
    r = cfg.collision_radius
    for y in (edge, -edge):
        assert not ws.point_in_collision(world, 0.0, y, r)
        assert ws.point_in_collision(world, 0.0, float(np.nextafter(y, 2 * y)), r)


def test_gates_must_be_passable_at_the_widest_yaw():
    t, r = DEFAULT_SIM.frame_thickness, DEFAULT_SIM.collision_radius
    keys = ["world.gate_half_width", "world.frame_thickness",
            "world.collision_radius"]
    for yaw_deg, widest in ((15.0, 15.0), (60.0, 45.0)):
        yaw = math.radians(widest)
        edge = (t + r) * (abs(math.cos(yaw)) + abs(math.sin(yaw)))
        assert_boundary(
            [f"world.gate_yaw_max_deg={yaw_deg}",
             f"world.gate_half_width={up(edge)}"],
            [[f"world.gate_yaw_max_deg={yaw_deg}",
              f"world.gate_half_width={edge!r}"]], keys)
    # The default gates admit a radius up to about 0.993.
    with pytest.raises(ConfigError):
        load_config(None, ["world.collision_radius=1.0"])
    load_config(None, ["world.collision_radius=0.99"])


def test_a_corridor_start_must_clear_its_back_wall_and_first_gate():
    keys = ["world.collision_radius", "world.gate_half_width",
            "world.gate_spacing"]
    wide = ["world.gate_half_width=5.5", "world.corridor_half_width=6.7",
            "world.room_size=24"]
    cfg = assert_boundary(wide + ["world.collision_radius=4.0"],
                          [wide + [f"world.collision_radius={up(4.0)}"]], keys)
    assert ws.spawn_fake_world(0, cfg).bounds[0] == -ws.CORRIDOR_MARGIN
    # The first gate's posts reach 8.7 * sin(60 deg) + 0.15 along x.
    tilted = ["world.gate_yaw_max_deg=60", "world.corridor_half_width=10"]
    assert_boundary(tilted + ["world.gate_half_width=8.7"],
                    [tilted + ["world.gate_half_width=8.75"]], keys)


def test_the_last_gates_posts_must_stay_inside_the_far_wall():
    short = ["world.gate_yaw_max_deg=60", "world.corridor_half_width=7.5",
             "world.d_max=1", "world.d_gate=1"]
    assert_boundary(short + ["world.gate_half_width=5.5"],
                    [short + ["world.gate_half_width=6"]],
                    ["world.gate_half_width", "world.d_max"])


def test_dump_reparses_to_identical_config(tmp_path):
    cfg = load_config(None, ["seed=11", "vae.hidden=24,12", "world.dt=0.04",
                             "out_dir=runs/a b"])
    assert cfg["out_dir"] == "runs/a b"
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


@pytest.mark.parametrize("raw", ["inf", "-inf", "1e999", "nan"])
def test_non_finite_floats_rejected(raw):
    with pytest.raises(ConfigError, match="world.room_size"):
        load_config(None, [f"world.room_size={raw}"])
    with pytest.raises(ConfigError, match="not finite"):
        load_config(None, [f"vae.beta={raw}"])


def test_unreadable_config_file_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="no-such.cfg"):
        load_config(tmp_path / "no-such.cfg")
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_config(tmp_path)  # a directory
    path = tmp_path / "latin1.cfg"
    path.write_bytes("# r\xe9glage\nseed = 3\n".encode("latin-1"))
    with pytest.raises(ConfigError, match="latin1.cfg"):
        load_config(path)


def _keys(prefix: str) -> dict:
    return {key.split(".", 1)[1]: spec.default for key, spec in KEYS.items()
            if key.startswith(prefix + ".") and key not in READ_BY_KEY}


@pytest.mark.parametrize("prefix", ["world", "vae", "evolve", "cheat", "baseline"])
def test_each_dataclass_field_but_the_seed_has_a_key(prefix):
    cls = SECTIONS[prefix][0]
    names = {f.name for f in dataclasses.fields(cls)} - {"seed"}
    assert names <= set(_keys(prefix))
    if prefix == "cheat":
        assert set(_keys(prefix)) - names == {"n_poses", "density"}


@pytest.mark.parametrize("prefix", sorted(SECTIONS))
def test_each_key_fills_a_parameter_and_shares_its_default(prefix):
    params = {}
    for fill in SECTIONS[prefix]:
        params.update(inspect.signature(fill).parameters)
    for name, default in _keys(prefix).items():
        assert name in params, f"{prefix}.{name}"
        if params[name].default is not inspect.Parameter.empty:
            assert default == params[name].default, f"{prefix}.{name}"


def test_section_builds_the_dataclass_from_its_keys():
    cfg = load_config(None, ["vae.k=5", "cheat.epochs=7", "baseline.lr=0.5"])
    assert cfg.section("vae", VaeTrainConfig, seed=9) == VaeTrainConfig(k=5, seed=9)
    assert cfg.section("cheat", DenseTrainConfig, seed=1) == DenseTrainConfig(
        epochs=7, seed=1)
    assert cfg.section("baseline", DenseTrainConfig) == DenseTrainConfig(lr=0.5)
    assert load_config().section("evolve", EvolutionConfig) == EvolutionConfig()
