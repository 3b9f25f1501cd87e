"""Import ``oqite`` from the checkout's ``src/``.

On Python >= 3.11 the package can fail to import with ``ValueError:
mutable default <class 'oqite.states.ShotModel'> for field shot``:
``ShotModel`` is a plain ``@dataclass``, hence unhashable, and it is the
default of the driver configs' ``shot`` field.  Only in that case the
loader imports ``oqite.states`` first, gives ``ShotModel`` identity
equality and hashing (what ``@dataclass(eq=False)`` would give), and then
runs the package ``__init__``.  No numerics change.  Once the package
imports cleanly the shim is skipped, and the caller records which way
the package was loaded.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path


class LoadError(RuntimeError):
    """The checkout holds no importable oqite package."""


def _forget_oqite() -> None:
    for name in [n for n in sys.modules if n == "oqite" or n.startswith("oqite.")]:
        del sys.modules[name]


def _is_shot_model_default_error(err: ValueError) -> bool:
    text = str(err)
    return "mutable default" in text and "ShotModel" in text


def _import_with_identity_hash(pkg_dir: Path) -> None:
    spec = importlib.util.spec_from_file_location(
        "oqite", pkg_dir / "__init__.py", submodule_search_locations=[str(pkg_dir)]
    )
    pkg = importlib.util.module_from_spec(spec)
    sys.modules["oqite"] = pkg
    states = importlib.import_module("oqite.states")
    states.ShotModel.__eq__ = object.__eq__
    states.ShotModel.__hash__ = object.__hash__
    spec.loader.exec_module(pkg)


def load(src: Path) -> bool:
    """Import oqite and oqite.cli from ``src``; True when the shim was needed."""
    pkg_dir = (src / "oqite").resolve()
    if not (pkg_dir / "__init__.py").is_file():
        raise LoadError(f"no oqite package under {src}")
    _forget_oqite()
    sys.path.insert(0, str(src.resolve()))
    shim = False
    try:
        try:
            importlib.import_module("oqite")
        except ValueError as err:
            if not _is_shot_model_default_error(err):
                raise
            _forget_oqite()
            _import_with_identity_hash(pkg_dir)
            shim = True
        importlib.import_module("oqite.cli")
    except ImportError as err:
        raise LoadError(f"cannot import oqite: {err}") from err
    origin = Path(sys.modules["oqite"].__file__).resolve().parent
    if origin != pkg_dir:
        raise LoadError(f"oqite imported from {origin}, not {pkg_dir}")
    return shim
