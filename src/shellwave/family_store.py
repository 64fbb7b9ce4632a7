"""The family store: the members a continuation solved, kept in its run
directory so that a later stage can take them instead of solving again.

A store is the directory STORE_DIR of a run directory.  Its index,
members.json, holds the format number, the family key, the family's
outcome (completed, failed_eps, failure) and every scalar field of every
FamilyMember: its AnsatzParams, its RhoStarResult with the ReducedSolution
inside, and its FullSolution with the PohozaevAudit inside.  A grid is kept
as n, s_min, s_max, h and its node count, and rebuilt as
s_min + h*arange(size), the expression RadialGrid.make evaluates, so a grid
comes back with its own nodes even where re-making it would not.  Member
i's profile and omega are profile_<i>.npy and omega_<i>.npy, read back with
allow_pickle=False.

Floats are written as their shortest repr and arrays as raw float64, so
every field comes back bit for bit, and writing one family twice writes the
same bytes.  A save removes the old store first and writes the index last,
so a save cut short leaves no index and reads as no store.

The family key (family_key) hashes the config fields the continuation
reads, FAMILY_FIELDS, and no others, so a config that differs only in
rho_samples, beta_floor or outdir takes the store another one wrote.

This module only checks that a store is whole, well typed and written
under the family key that asks.  Whether a stored member may stand in for
a solve is continuation_in_eps's question: its eps, bracket and params
must equal the ones the continuation derives.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import shutil
import typing

import numpy as np

from .config import RunConfig
from .full_solver import ContinuationResult, FamilyMember
from .grids import MAX_NODES, RadialGrid
from .serialize import write_json

# the directory a store occupies in a run directory, and its index
STORE_DIR = "family_store"
INDEX = "members.json"

# bumped whenever the layout of members.json or the arrays changes
FORMAT = 2

# the RunConfig fields cli._run_family hands to continuation_in_eps
FAMILY_FIELDS = ("n", "p", "potential", "schedule", "C1", "C2", "t_bracket", "gamma",
                 "trunc_K", "grid", "tolerances")

# member field -> the array files that hold it, beside the index
_ARRAYS = {"profile": "profile_{}.npy", "omega": "omega_{}.npy"}

__all__ = ["StoreUnusable", "family_key", "save_family", "load_family"]


class StoreUnusable(Exception):
    """A store that cannot be read, or that another config wrote."""


_hints = functools.cache(typing.get_type_hints)


def family_key(cfg: RunConfig) -> str:
    """sha256 over cfg's FAMILY_FIELDS, the key a store is written under."""
    return cfg.config_hash(FAMILY_FIELDS)


def _encode(obj) -> dict:
    """The scalar fields of a dataclass, nested ones as dicts; a grid as its
    parameters and node count, arrays left to their own files."""
    if isinstance(obj, RadialGrid):
        return {"n": obj.n, "s_min": obj.s_min, "s_max": obj.s_max, "h": obj.h,
                "size": obj.size}
    out = {}
    for f in dataclasses.fields(obj):
        if f.name not in _ARRAYS:
            value = getattr(obj, f.name)
            out[f.name] = _encode(value) if dataclasses.is_dataclass(value) else value
    return out


def save_family(outdir: str, key: str, res: ContinuationResult) -> str:
    """Replace outdir's store with res under the family key; returns the
    index's path."""
    root = os.path.join(outdir, STORE_DIR)
    shutil.rmtree(root, ignore_errors=True)
    os.makedirs(root)
    for i, m in enumerate(res.members):
        for name, arr in (("profile", m.full.profile), ("omega", m.reduced.solution.omega)):
            np.save(os.path.join(root, _ARRAYS[name].format(i)), arr, allow_pickle=False)
    path = os.path.join(root, INDEX)
    write_json(path, {
        "format": FORMAT, "family_key": key, "completed": res.completed,
        "failed_eps": res.failed_eps, "failure": res.failure,
        "members": [_encode(m) for m in res.members],
    })
    return path


def _scalar(hint, value, where: str):
    """value as the field of type hint holds it, or StoreUnusable."""
    if typing.get_origin(hint) is tuple:
        args = typing.get_args(hint)
        ok = isinstance(value, list) and all(type(v) is float for v in value) and (
            args[-1] is Ellipsis or len(value) == len(args))
        value = tuple(value) if ok else value
    else:
        ok = type(value) in (typing.get_args(hint) or (hint,))
    if not ok:
        kind = hint.__name__ if isinstance(hint, type) else hint
        raise StoreUnusable(f"{where}: {value!r} is not {kind}")
    return value


def _grid(data, where: str) -> RadialGrid:
    if not (isinstance(data, dict) and data.keys() == {"n", "s_min", "s_max", "h", "size"}):
        raise StoreUnusable(f"{where}: not a grid")
    for key, hint in (("n", int), ("s_min", float), ("s_max", float), ("h", float),
                      ("size", int)):
        _scalar(hint, data[key], f"{where}.{key}")
    if not 0 < data["size"] <= MAX_NODES:
        raise StoreUnusable(f"{where}: {data['size']} nodes, not 1 to {MAX_NODES:,}")
    nodes = data["s_min"] + data["h"] * np.arange(data["size"])
    if float(nodes[-1]) != data["s_max"]:
        raise StoreUnusable(f"{where}: {data['size']} nodes do not end at s_max")
    return RadialGrid(n=data["n"], s_min=data["s_min"], s_max=data["s_max"],
                      h=data["h"], nodes=nodes)


def _decode(cls, data, array, where: str):
    """An instance of the dataclass cls from its _encode dict; array(name,
    size) reads the array field name, of the size of the grid field that
    precedes it."""
    names = [f.name for f in dataclasses.fields(cls)]
    if not (isinstance(data, dict) and data.keys() == set(names) - _ARRAYS.keys()):
        raise StoreUnusable(f"{where}: fields are not {cls.__name__}'s")
    hints = _hints(cls)
    values = {}
    for name in names:
        hint, at = hints[name], f"{where}.{name}"
        if name in _ARRAYS:
            values[name] = array(name, values["grid"].size)
        elif hint is RadialGrid:
            values[name] = _grid(data[name], at)
        elif dataclasses.is_dataclass(hint):
            values[name] = _decode(hint, data[name], array, at)
        else:
            values[name] = _scalar(hint, data[name], at)
    return cls(**values)


def _array(root: str, i: int, name: str, size: int) -> np.ndarray:
    """Member i's array name, which must hold size float64 values.  It is
    mapped before it is read, so a damaged header allocates nothing."""
    file = _ARRAYS[name].format(i)
    arr = np.load(os.path.join(root, file), mmap_mode="r", allow_pickle=False)
    if not (arr.dtype == np.float64 and arr.shape == (size,)):
        raise StoreUnusable(f"{file}: {arr.dtype} {arr.shape}, not float64 ({size},)")
    return np.array(arr)


def load_family(outdir: str, key: str) -> ContinuationResult | None:
    """outdir's stored family, or None when outdir holds no store.

    Raises StoreUnusable, naming the cause, when the store cannot be read
    whole or was written under another family key or format.
    """
    root = os.path.join(outdir, STORE_DIR)
    path = os.path.join(root, INDEX)
    if not os.path.exists(path):
        return None
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise StoreUnusable(f"{INDEX} is not an object")
        if doc.get("format") != FORMAT:
            raise StoreUnusable(f"format {doc.get('format')!r}, not {FORMAT}")
        if doc.get("family_key") != key:
            raise StoreUnusable("written for another config")
        members = doc.get("members")
        if not isinstance(members, list):
            raise StoreUnusable("no member list")
        return ContinuationResult(
            members=tuple(_decode(FamilyMember, m, functools.partial(_array, root, i),
                                  f"members[{i}]") for i, m in enumerate(members)),
            completed=_scalar(bool, doc.get("completed"), "completed"),
            failed_eps=_scalar(float | None, doc.get("failed_eps"), "failed_eps"),
            failure=_scalar(str | None, doc.get("failure"), "failure"))
    except (OSError, ValueError, EOFError) as exc:
        # json.JSONDecodeError and np.load's complaints are ValueErrors
        raise StoreUnusable(f"{type(exc).__name__}: {exc}") from None
