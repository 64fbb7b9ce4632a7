"""Every public function is run by the program, and every option it defaults
is set by some call the program makes.

Callers count only in src/, scripts/, perfbench/ (its tracer binds public
functions by name) and the acceptance battery, so a function or an option
that only unit tests reach fails here.
"""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import shellwave

ROOT = Path(__file__).resolve().parents[1]


def _caller_files():
    for top in ("src", "scripts", "perfbench"):
        yield from (ROOT / top).rglob("*.py")
    yield ROOT / "tests" / "test_acceptance.py"


def test_every_public_function_is_referenced():
    sources = {path: path.read_text(encoding="utf-8") for path in _caller_files()}
    unused = []
    for info in pkgutil.iter_modules(shellwave.__path__):
        mod = importlib.import_module(f"shellwave.{info.name}")
        own = ROOT / "src" / "shellwave" / f"{info.name}.py"
        for name in getattr(mod, "__all__", ()):
            if not inspect.isfunction(getattr(mod, name)):
                continue
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(text) for path, text in sources.items()
                       if path != own):
                unused.append(f"{info.name}.{name}")
    assert not unused, f"public functions nothing calls: {unused}"


def test_every_defaulted_option_is_set_by_some_call():
    # name -> argument positions and keywords that some call passes
    passed: dict[str, set] = {}
    for path in _caller_files():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            passed.setdefault(name, set()).update(
                [*range(len(node.args)), *(k.arg for k in node.keywords)])
    unset = []
    for info in pkgutil.iter_modules(shellwave.__path__):
        mod = importlib.import_module(f"shellwave.{info.name}")
        for name in getattr(mod, "__all__", ()):
            fn = inspect.unwrap(getattr(mod, name))
            if not inspect.isfunction(fn):
                continue
            got = passed.get(name, set())
            for i, prm in enumerate(inspect.signature(fn).parameters.values()):
                if prm.default is not prm.empty and not {i, prm.name} & got:
                    unset.append(f"{info.name}.{name}({prm.name})")
    assert not unset, f"options no call sets: {unset}"
