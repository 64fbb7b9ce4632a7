"""Every public function has a caller outside its own module."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import shellwave

ROOT = Path(__file__).resolve().parents[1]


def test_every_public_function_is_referenced():
    sources = {path: path.read_text(encoding="utf-8")
               for top in ("src", "tests", "scripts")
               for path in (ROOT / top).rglob("*.py")}
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
