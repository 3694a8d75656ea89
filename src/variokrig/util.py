"""Small shared helpers: an in-order map on the calling thread, float
formatting for text output, numpy's linear percentile, the loader of single
scipy modules, and the option choices the CLI parser shares with the modules
that check them."""

import importlib.machinery
import importlib.util
import os
import sys
import threading

# Defined here, so the parser reads them without loading the modules they name.
FIT_METHODS = ("ols", "wls", "gls")
KRIGE_METHODS = ("simple", "ordinary", "universal", "bayes")
MIN_NEIGHBORS = 4  # map points need strictly more than this many neighbors


def parallel_map(fn, items, n_threads=None):
    """``[fn(it) for it in items]``, computed on the calling thread.

    The callers map per-item work through here, and the benchmark's tracer
    (``perfbench/tracing.py``) finds it as ``util.parallel_map``, rebinds it
    in each calling module to time every item, and passes ``n_threads``
    positionally. So the name and the signature stay, and ``n_threads`` is
    ignored. The run-scoped diagnostics collector of ROADMAP item 4 retires
    this hook.
    """
    return [fn(it) for it in items]


def percentiles(x, qs):
    """``np.percentile(x, qs)`` of a float sample for the default linear
    method, bit for bit, as an array with one value per percentile in
    ``qs``, without the `numpy.ma` import that ``np.percentile`` makes
    through ``np.unique``.

    It takes numpy's steps: the virtual index ``v = (n - 1) q / 100``, one
    partition of a copy of ``x`` on the sorted index set {0, floor(v),
    floor(v) + 1, n - 1}, where an index ``v >= n - 1`` takes the top
    element through index -1 (so its weight is ``v + 1``), and the
    interpolation of ``np.lib._function_base_impl._lerp``. A NaN in ``x``
    makes every value NaN.
    """
    import numpy as np

    arr = np.array(x, dtype=float).ravel()
    n = arr.size
    v = (n - 1) * np.true_divide(np.asarray(qs, dtype=float), 100)
    lo = np.floor(v)
    top = v >= n - 1
    lo[top] = -1
    lo = lo.astype(np.intp)
    hi = np.where(top, -1, lo + 1)
    arr.partition(sorted({0, -1, *lo.tolist(), *hi.tolist()}))
    below, above, t = arr[lo], arr[hi], v - lo
    diff = above - below
    out = below + diff * t
    np.subtract(above, diff * (1 - t), out=out, where=t >= 0.5)
    if np.isnan(arr[-1]):
        out[:] = arr[-1]
    return out


def fmt_float(x) -> str:
    """Shortest round-trip decimal representation of a float."""
    return repr(float(x))


def fmt_float_point(x) -> str:
    """Float representation guaranteed to carry a decimal point.

    Used by the model-spec key/value serialization where a decimal point
    is mandatory.
    """
    s = repr(float(x))
    if "." in s:
        return s
    if "e" in s or "E" in s:
        mant, _, expo = s.partition("e")
        if "." not in mant:
            mant += ".0"
        return mant + "e" + expo
    if s.lstrip("+-").isdigit():
        return s + ".0"
    return s  # inf / nan


_LOAD_LOCK = threading.Lock()


class _AttachToPackage:
    """Meta path finder that finds nothing. Asked for a submodule of a package
    that has been imported, it sets each extension `scipy_extension` loaded
    before that package as the package's attribute, as the import system does
    for a submodule it loads itself."""

    pending = {}  # package name -> {attribute: module}

    @classmethod
    def find_spec(cls, name, path=None, target=None):
        package = name.rpartition(".")[0]
        if package in sys.modules:
            for attr, module in cls.pending.pop(package, {}).items():
                setattr(sys.modules[package], attr, module)
        return None


def scipy_extension(subpackage: str, name: str, needs):
    """The module ``scipy.<subpackage>.<name>``, loaded by itself.

    The module's file, a compiled extension or Python source, is found in
    scipy's ``subpackage`` directory and executed alone, without the scipy
    packages above it (the scipy modules a Python module imports must be
    loaded this way first), and registered in
    sys.modules: a later import of the subpackage reuses this module and its
    objects, and has it as its attribute. A module already loaded is
    reused. Returns None when scipy or the file is missing, the file fails
    to load, or the module lacks one of the attribute names in ``needs``;
    the caller then imports the public scipy module instead.
    """
    full = f"scipy.{subpackage}.{name}"
    with _LOAD_LOCK:
        module = sys.modules.get(full)
        if module is None:
            scipy = importlib.util.find_spec("scipy")
            spec = scipy and importlib.machinery.PathFinder.find_spec(
                full, [os.path.join(d, subpackage) for d in scipy.submodule_search_locations])
            if spec is None:
                return None
            try:
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
            except ImportError:
                return None
            sys.modules[full] = module
            package = f"scipy.{subpackage}"
            if package not in sys.modules:
                _AttachToPackage.pending.setdefault(package, {})[name] = module
                if _AttachToPackage not in sys.meta_path:
                    sys.meta_path.insert(0, _AttachToPackage)
    return module if all(hasattr(module, n) for n in needs) else None
