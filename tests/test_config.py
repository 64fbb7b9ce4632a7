"""Config parsing, validation, and hashing."""

import dataclasses
import json

import numpy as np
import pytest

from shellwave import config
from shellwave.config import (
    ConfigError,
    GridPolicy,
    RunConfig,
    Tolerances,
    build_potential,
    check_eps,
    check_schedule,
    config_from_dict,
    first_bracket,
    load_config,
    omega_window,
    rho_bracket,
)
from shellwave.exceptions import OutOfConfigurationSet, SolverError

BASE = {
    "n": 2,
    "p": 3,
    "potential": {"family": "sine"},
    "schedule": [0.5, 0.45, 0.4],
    "C1": 0.5,
    "C2": 1.5,
    "t_bracket": [7.5, 9.5],
}


def make(**over):
    d = dict(BASE)
    d.update(over)
    return config_from_dict(d)


def test_roundtrip_defaults():
    cfg = make()
    cfg.validate()
    assert cfg.gamma == 2.0
    assert cfg.beta_floor == 0.05
    assert cfg.grid == GridPolicy()
    assert cfg.tolerances == Tolerances()
    assert isinstance(cfg.p, float) and isinstance(cfg.n, int)


def test_hash_ignores_outdir_only():
    a = make()
    b = dataclasses.replace(a, outdir="elsewhere")
    c = dataclasses.replace(a, C2=1.6)
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()
    assert len(a.config_hash()) == 64


def test_potential_spellings_hash_alike():
    # the potential table is stored with its family's parameters as floats
    # and defaults filled in, so one computation has one hash
    spellings = ({"family": "sine"}, {"family": "sine", "amplitude": 1},
                 {"family": "sine", "amplitude": 1.0})
    cfgs = [make(potential=pot) for pot in spellings]
    assert {c.config_hash() for c in cfgs} == {cfgs[0].config_hash()}
    assert cfgs[0].potential == {"family": "sine", "amplitude": 1.0,
                                 "frequency": 1.0, "phase": 0.0}
    other = make(potential={"family": "sine", "amplitude": 2})
    assert other.config_hash() != cfgs[0].config_hash()


def test_unknown_field_rejected():
    with pytest.raises(ConfigError, match="epsilon_list"):
        make(epsilon_list=[0.5])
    with pytest.raises(ConfigError, match="h_reduce_x"):
        make(grid={"h_reduce_x": 0.01})
    with pytest.raises(ConfigError, match="wobble"):
        make(potential={"family": "sine", "wobble": 2})


def test_missing_field_rejected():
    d = dict(BASE)
    del d["C1"]
    with pytest.raises(ConfigError, match="C1"):
        config_from_dict(d)


@pytest.mark.parametrize(
    "over,field",
    [
        ({"n": 1}, "n"),
        ({"n": 2.5}, "n"),
        ({"p": 1.0}, "p"),
        ({"schedule": []}, "schedule"),
        ({"schedule": [0.4, 0.5]}, "schedule"),
        ({"schedule": [0.5, 0.2]}, "schedule"),
        ({"schedule": [0.5, -0.4]}, "schedule"),
        ({"C1": -1.0}, "C1"),
        ({"C1": 7.0}, "C1"),  # needs C1 < 4 C2
        ({"t_bracket": [9.5, 7.5]}, "t_bracket"),
        ({"t_bracket": [40.0, 42.0]}, "window"),
        ({"gamma": 0.0}, "gamma"),
        ({"beta_floor": 1.5}, "beta_floor"),
        ({"rho_samples": 4}, "rho_samples"),
        ({"grid": {"h_reduce": 1e-3, "h_solve": 2e-3}}, "h_solve"),
        ({"tolerances": {"solve_tol_coeff": 0.0}}, "tolerances"),
        # nested numbers are coerced like top-level ones, bools rejected
        ({"grid": {"h_solve": [1]}}, r"grid\.h_solve"),
        ({"grid": {"h_reduce": True}}, r"grid\.h_reduce"),
        ({"tolerances": {"solve_tol_coeff": None}}, r"tolerances\.solve_tol_coeff"),
        ({"potential": {"family": "sine", "amplitude": "x"}}, r"potential\.amplitude"),
        # no family takes a list parameter, and poly names no family
        ({"potential": {"family": "sine", "coeffs": [1.0]}}, "unknown key 'coeffs'"),
        ({"potential": {"family": "poly", "coeffs": [0.0, 1.0]}}, "unknown family 'poly'"),
        ({"gamma": True}, "gamma"),
        ({"p": None}, "p"),
        # 1 - eps^2 sup|V| = 1 - 0.25 * 4 vanishes at the largest eps
        ({"potential": {"family": "sine", "amplitude": 4.0}}, "potential: ellipticity"),
        # eps^3 underflows to 0 in the window's 1/eps^3
        ({"schedule": [1e-120]}, "schedule: eps must be positive"),
        ({"outdir": 5}, "outdir: must be a string"),
        ({"outdir": None}, "outdir: must be a string"),
        ({"outdir": ["out"]}, "outdir: must be a string"),
        # the ansatz's floor, so no stage accepts a p that scan would refuse
        ({"p": 1.03}, "p"),
        # JSON's Infinity and NaN read as floats; every number must be finite
        ({"p": float("inf")}, "^p: must be finite$"),
        ({"potential": {"family": "sine", "phase": float("nan")}},
         r"^potential\.phase: must be finite$"),
        ({"grid": {"h_solve": float("inf")}}, r"^grid\.h_solve: must be finite$"),
        ({"trunc_K": float("inf")}, "^trunc_K: must be finite$"),
        # n = 2 is never supercritical, so a cap would be hashed but unread
        ({"trunc_K": 3.0}, "^trunc_K: needs a supercritical problem"),
    ],
)
def test_validation_errors_name_the_field(over, field):
    with pytest.raises(ConfigError, match=field):
        make(**over).validate()


@dataclasses.dataclass(frozen=True)
class Knobs:
    count: int = 1
    scale: float = 1.0
    cap: float | None = None
    label: str = "x"
    grid: GridPolicy = dataclasses.field(default_factory=GridPolicy)


@pytest.mark.parametrize("data, message", [
    ({"count": 2.0}, "^count: must be an integer$"),
    ({"scale": "x"}, "^scale: must be a number$"),
    ({"cap": float("inf")}, "^cap: must be finite$"),
    ({"label": 3}, "^label: must be a string$"),
    ({"grid": [1e-3]}, "^grid: need a table$"),
    ({"grid": {"h": 1e-3}}, "^grid: unknown field 'h'$"),
    ({"grid": {"h_solve": True}}, r"^grid\.h_solve: must be a number$"),
    ({"size": 1}, "^unknown field 'size'$"),
])
def test_a_field_is_refused_by_its_annotation(data, message):
    # config_from_dict coerces each field by its annotation, so a field new
    # to RunConfig is checked with no list of names to extend
    with pytest.raises(ConfigError, match=message):
        config._table(Knobs, data)


def test_a_field_is_read_by_its_annotation():
    knobs = config._table(Knobs, {"count": 2, "scale": 3, "cap": None,
                                  "grid": {"h_solve": 1e-3}})
    assert knobs == Knobs(count=2, scale=3.0, grid=GridPolicy(h_solve=1e-3))
    assert isinstance(knobs.scale, float)


def test_t_bracket_needs_two_entries():
    with pytest.raises(ConfigError, match="t_bracket"):
        make(t_bracket=[7.5, 8.0, 9.5])


def test_potential_families():
    assert build_potential({"family": "zero"}).family == "zero"
    s = build_potential({"family": "sine"})
    assert s.V(np.pi / 2) == pytest.approx(1.0)
    with pytest.raises(ConfigError, match="family"):
        build_potential({"family": "perlin"})
    with pytest.raises(ConfigError, match="family"):
        build_potential({})


def test_json_parse_error_has_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "n": 2,\n  "p": oops\n}\n')
    with pytest.raises(ConfigError, match=r"line 3"):
        load_config(str(path))


def test_numeric_coercion_and_bool_guard():
    cfg = make(p=3, C1=1, C2=2)
    assert cfg.p == 3.0 and isinstance(cfg.p, float)
    assert cfg.C1 == 1.0 and isinstance(cfg.C1, float)
    with pytest.raises(ConfigError, match="n"):
        make(n=True)
    with pytest.raises(ConfigError, match="schedule"):
        make(schedule="0.5")


def test_shipped_configs_validate():
    for name in ("configs/sine_n2.json", "configs/sine_n3_supercritical.json"):
        cfg = load_config(name)
        cfg.validate()
        assert isinstance(cfg, RunConfig)


def test_first_bracket_clips_to_the_window():
    # both shipped configs' first brackets lie inside their windows, so
    # they are t_bracket/eps exactly; at eps = 0.17 the window's lower end
    # C1/(2 eps^3) = 50.9 cuts 7.5/eps = 44.1, and at eps = 0.15 it leaves
    # nothing (74.1 > 9.5/eps = 63.3)
    for name in ("configs/sine_n2.json", "configs/sine_n3_supercritical.json"):
        cfg = load_config(name)
        e = cfg.schedule[0]
        want = (cfg.t_bracket[0] / e, cfg.t_bracket[1] / e)
        assert first_bracket(e, cfg.C1, cfg.C2, cfg.t_bracket) == want
    assert first_bracket(0.17, 0.5, 1.5, (7.5, 9.5)) == (0.5 / (2.0 * 0.17**3), 9.5 / 0.17)
    with pytest.raises(ConfigError, match="t_bracket: window empty at eps=0.15"):
        first_bracket(0.15, 0.5, 1.5, (7.5, 9.5))
    with pytest.raises(ConfigError, match="t_bracket: window empty at eps=0.15"):
        make(schedule=[0.15]).validate()


def test_later_brackets_share_the_clip_rule():
    # rho_bracket clips any t-interval to the window as first_bracket clips
    # t_bracket, but nothing left is a solver error, which ends a family
    # and keeps its members
    assert omega_window(0.3, 0.5, 1.5) == (0.5 / (2.0 * 0.3**3), 2.0 * 1.5 / 0.3**3)
    assert rho_bracket(0.17, 0.5, 1.5, (7.5, 9.5)) == first_bracket(0.17, 0.5, 1.5, (7.5, 9.5))
    with pytest.raises(OutOfConfigurationSet, match=r"t in \[7.5, 9.5\] leaves no rho "
                       r"in the configuration window \[74.0741, 888.889\] at eps=0.15"):
        rho_bracket(0.15, 0.5, 1.5, (7.5, 9.5))
    assert issubclass(OutOfConfigurationSet, SolverError)


@pytest.mark.parametrize("field", ["C1", "C2"])
@pytest.mark.parametrize("value", [float("inf"), float("nan"), 0.0, -1.0])
def test_window_constants_must_be_positive_and_finite(field, value):
    with pytest.raises(ConfigError, match=f"^{field}: must be positive and finite$"):
        make(**{field: value}).validate()


def test_overflowing_C2_in_a_file_names_the_field(tmp_path):
    # JSON reads 1e999 as inf: the window's upper end would be inf, and
    # a member's parameters at its centre would evaluate sin(inf)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(BASE).replace('"C2": 1.5', '"C2": 1e999'))
    with pytest.raises(ConfigError, match="^C2: must be positive and finite$"):
        load_config(str(path))


@pytest.mark.parametrize("eps", [0.0, -0.3, float("nan"), float("inf"), 1e-120, 1e-300, 1e200])
def test_check_eps_rejects_what_the_window_cannot_divide_by(eps):
    with pytest.raises(ConfigError, match="--eps: eps must be positive"):
        check_eps("--eps", eps)
    with pytest.raises(ConfigError, match="schedule: eps must be positive"):
        check_schedule([eps])


def test_check_eps_keeps_small_normal_eps():
    # 1e-100 cubed is 1e-300, still a normal float
    assert check_eps("--eps", 1e-100) == 1e-100
    assert check_eps("--eps", np.float64(0.3)) == 0.3
