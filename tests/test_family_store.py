"""The family store: every member field comes back bit for bit, and a
continuation takes a stored member only where it would derive the same one."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest
from numpy.lib import format as npy_format

from shellwave.config import GridPolicy, RunConfig, Tolerances, load_config
from shellwave.family_store import (FAMILY_FIELDS, INDEX, STORE_DIR, StoreUnusable,
                                    family_key, load_family, save_family)
from shellwave.full_solver import continuation_in_eps
from shellwave.grids import RadialGrid

from conftest import SINE_C1, SINE_C2, SINE_SCHEDULE, SINE_T_BRACKET, edit_store_index


def assert_bitwise(a, b, where="result"):
    """a and b hold the same fields with the same bits, arrays included."""
    if isinstance(a, RadialGrid):
        assert isinstance(b, RadialGrid), where
        assert (a.n, a.s_min, a.s_max, a.h) == (b.n, b.s_min, b.s_max, b.h), where
        assert_bitwise(a.nodes, b.nodes, f"{where}.nodes")
    elif dataclasses.is_dataclass(a):
        assert type(a) is type(b), where
        for f in dataclasses.fields(a):
            assert_bitwise(getattr(a, f.name), getattr(b, f.name), f"{where}.{f.name}")
    elif isinstance(a, np.ndarray):
        assert isinstance(b, np.ndarray) and a.dtype == b.dtype == np.float64, where
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), where
    elif isinstance(a, tuple):
        assert isinstance(b, tuple) and len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            assert_bitwise(x, y, f"{where}[{i}]")
    elif isinstance(a, float) and not isinstance(a, bool):
        assert isinstance(b, float), where
        assert np.float64(a).tobytes() == np.float64(b).tobytes(), (where, a, b)
    else:
        assert type(a) is type(b) and a == b, (where, a, b)


@pytest.fixture(scope="module")
def switched_family(sine_spec):
    # the partner root at eps = 0.3 switches branch at 0.29: one member, not completed
    res = continuation_in_eps(2, 3.0, sine_spec, (0.3, 0.29, 0.28), SINE_C1, SINE_C2,
                              (9.9, 10.6), gamma=0.6)
    assert (len(res.members), res.completed, res.failed_eps) == (1, False, 0.29)
    return res


@pytest.mark.parametrize("family", ["sine_family", "switched_family"])
def test_round_trip_is_bitwise(tmp_path, request, family):
    res = request.getfixturevalue(family)
    save_family(str(tmp_path), "abc", res)
    assert_bitwise(res, load_family(str(tmp_path), "abc"))


def test_saving_twice_writes_the_same_bytes(tmp_path, switched_family):
    save_family(str(tmp_path), "abc", switched_family)
    first = {p.name: p.read_bytes() for p in (tmp_path / STORE_DIR).iterdir()}
    save_family(str(tmp_path), "abc", switched_family)
    assert {p.name: p.read_bytes() for p in (tmp_path / STORE_DIR).iterdir()} == first
    assert sorted(first) == [INDEX, "omega_0.npy", "profile_0.npy"]


def test_a_save_replaces_the_whole_store(tmp_path, sine_family, switched_family):
    save_family(str(tmp_path), "abc", sine_family)
    save_family(str(tmp_path), "abc", switched_family)
    assert len(list((tmp_path / STORE_DIR).iterdir())) == 3


def test_family_key_hashes_the_fields_the_continuation_reads():
    # every RunConfig field is a continuation input or one of these three,
    # so a new field has to take a side
    unread = {"rho_samples", "beta_floor", "outdir"}
    assert {f.name for f in dataclasses.fields(RunConfig)} == set(FAMILY_FIELDS) | unread
    cfg = load_config(str(Path(__file__).resolve().parents[1] / "configs" / "sine_n2.json"))
    key = family_key(cfg)
    for name, value in (("rho_samples", 17), ("beta_floor", 0.1), ("outdir", "elsewhere")):
        assert family_key(dataclasses.replace(cfg, **{name: value})) == key, name
    for name, value in (("n", 3), ("p", 3.5), ("schedule", (0.5,)), ("C1", 0.6),
                        ("C2", 1.6), ("t_bracket", (7.0, 9.5)), ("gamma", 1.5),
                        ("trunc_K", 3.0), ("grid", GridPolicy(h_solve=1e-3)),
                        ("tolerances", Tolerances(solve_tol_coeff=1e-9)),
                        ("potential", {**cfg.potential, "phase": 0.1})):
        assert family_key(dataclasses.replace(cfg, **{name: value})) != key, name


def test_no_store_reads_none(tmp_path):
    assert load_family(str(tmp_path), "abc") is None


def test_another_config_hash_is_unusable(tmp_path, switched_family):
    save_family(str(tmp_path), "abc", switched_family)
    with pytest.raises(StoreUnusable, match="another config"):
        load_family(str(tmp_path), "abd")


@pytest.mark.parametrize("edit, why", [
    (lambda d: d["members"][0]["full"].update(newton_iters=2.0),
     r"members\[0\]\.full\.newton_iters: 2\.0 is not int"),
    (lambda d: d["members"][0]["full"].update(force_cap="3"), "'3' is not float [|] None"),
    (lambda d: d["members"][0]["params"].pop("rho"), "fields are not AnsatzParams's"),
    (lambda d: d["members"][0]["bracket"].append(1.0), r"bracket: .* is not tuple\[float, float\]"),
    (lambda d: d["members"][0]["full"]["grid"].update(size=5), "5 nodes do not end"),
    (lambda d: d["members"][0]["full"]["grid"].update(size=10**12), "not 1 to 8,388,608"),
    (lambda d: d["members"][0]["full"]["grid"].update(s_max=1.0), "do not end at s_max"),
    (lambda d: d.update(format=0), "format 0"),
])
def test_a_mistyped_store_is_unusable(tmp_path, switched_family, edit, why):
    save_family(str(tmp_path), "abc", switched_family)
    edit_store_index(tmp_path, edit)
    with pytest.raises(StoreUnusable, match=why):
        load_family(str(tmp_path), "abc")


@pytest.mark.parametrize("arr", [np.zeros(7), np.zeros(3865, dtype=np.float32)])
def test_an_array_of_another_length_or_dtype_is_unusable(tmp_path, switched_family, arr):
    save_family(str(tmp_path), "abc", switched_family)
    np.save(tmp_path / STORE_DIR / "omega_0.npy", arr)
    with pytest.raises(StoreUnusable, match=r"omega_0.npy: float(64 \(7,\)|32 \(3865,\))"):
        load_family(str(tmp_path), "abc")


def test_an_array_header_past_its_file_allocates_nothing(tmp_path, switched_family):
    # a header that claims 10^10 values over a file that holds 3,865 is
    # refused when the file is mapped, before 80 GB are asked for
    save_family(str(tmp_path), "abc", switched_family)
    with open(tmp_path / STORE_DIR / "omega_0.npy", "wb") as fh:
        npy_format.write_array_header_1_0(
            fh, {"descr": "<f8", "fortran_order": False, "shape": (10**10,)})
        fh.write(switched_family.members[0].reduced.solution.omega.tobytes())
    with pytest.raises(StoreUnusable, match="ValueError: mmap length is greater than file size"):
        load_family(str(tmp_path), "abc")


def run_sine(spec, known):
    return continuation_in_eps(2, 3.0, spec, SINE_SCHEDULE, SINE_C1, SINE_C2,
                               SINE_T_BRACKET, gamma=0.6, known=known)


def test_continuation_takes_every_matching_member(member_solves, sine_spec, sine_family):
    res = run_sine(sine_spec, sine_family.members)
    assert member_solves == []
    assert (res.completed, len(res.members)) == (True, 5)
    assert all(a is b for a, b in zip(res.members, sine_family.members))


def test_continuation_solves_from_the_first_member_that_differs(
        member_solves, sine_spec, sine_family):
    known = list(sine_family.members)
    lo, hi = known[2].bracket
    known[2] = dataclasses.replace(known[2], bracket=(lo, np.nextafter(hi, np.inf)))
    res = run_sine(sine_spec, known)
    assert member_solves == [0.4, 0.35, 0.3]
    assert all(a is b for a, b in zip(res.members[:2], sine_family.members))
    assert_bitwise(res, sine_family)


def test_continuation_solves_past_a_short_store(member_solves, sine_spec, sine_family):
    res = run_sine(sine_spec, sine_family.members[:3])
    assert member_solves == [0.35, 0.3]
    assert_bitwise(res, sine_family)
