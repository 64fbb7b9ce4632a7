"""The five LAPACK routines shellwave calls, loaded without the scipy package.

All of them live in SciPy's compiled module ``scipy/linalg/_flapack``, which
needs only numpy.  Reaching it through ``scipy.linalg`` first runs scipy's
package import, which also loads ``numpy.testing``, ``numpy.f2py`` and
``charset_normalizer`` and took about 0.34 s of a 0.73 s start-up.  Here
scipy's install directory is found with ``importlib.util.find_spec``, which
imports nothing, and the extension file alone is loaded under its own name,
``scipy.linalg._flapack``.  The routines are therefore the very objects that
``scipy.linalg.lapack`` exports, whichever of the two is imported first.
"""

from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import find_spec, module_from_spec, spec_from_loader
from pathlib import Path

__all__ = ["dgtsv", "dpttrf", "dpttrs", "dstebz", "dstein"]


def _load_flapack():
    name = "scipy.linalg._flapack"
    spec = find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("shellwave needs SciPy, and no scipy package was found", name=name)
    base = Path(spec.submodule_search_locations[0], "linalg")
    paths = [base / f"_flapack{suffix}" for suffix in EXTENSION_SUFFIXES]
    path = next((p for p in paths if p.is_file()), None)
    if path is None:
        raise ImportError(f"SciPy's compiled LAPACK module is missing: searched "
                          f"{', '.join(map(str, paths))}", name=name, path=str(base))
    loader = ExtensionFileLoader(name, str(path))
    module = module_from_spec(spec_from_loader(name, loader))
    loader.exec_module(module)
    return module


_flapack = _load_flapack()
dgtsv, dpttrf, dpttrs, dstebz, dstein = (getattr(_flapack, f) for f in __all__)
