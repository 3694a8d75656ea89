"""scipy's modules loaded alone (`util.scipy_extension`): they are
the objects scipy's packages hold, and where they cannot be loaded the
callers import the packages instead, with the same results."""

import importlib.machinery
import os
import subprocess
import sys
import types

import numpy as np
import pytest
import scipy
import scipy.linalg.lapack
import scipy.special

from variokrig import _linalg, specfun

UFUNCS = "scipy.special._special_ufuncs"
FLAPACK = "scipy.linalg._flapack"

# Run by a fresh interpreter: the first Bessel call and the first triangular
# solve load the compiled modules; scipy's packages imported afterwards hold
# the same objects. Prints whether the ufuncs came from their module alone.
LOADER_PROBE = """
import sys
import numpy as np
from variokrig import _linalg, copula, fit, specfun
specfun.log_bessel_k(1.5, np.array([0.5, 2.0]))
_linalg.chol_solve(np.linalg.cholesky(np.array([[2.0, 1.0], [1.0, 2.0]])), np.ones(2))
setulb = fit._setulb()
searches = copula._line_searches()
ufuncs = specfun._special()
direct = ufuncs.__name__ == "scipy.special._special_ufuncs"
if direct:
    assert not {"scipy.special", "scipy.linalg", "scipy.optimize"} & set(sys.modules)
import scipy.special, scipy.linalg.lapack, scipy.optimize
for name in ("kve", "gammaln", "ndtr", "gamma", "kv"):
    assert getattr(scipy.special, name) is getattr(ufuncs, name), name
assert scipy.linalg.lapack.dtrtrs is _linalg._dtrtrs
assert scipy.linalg._flapack.dtrtrs is _linalg._dtrtrs
assert setulb is None or scipy.optimize._lbfgsb.setulb is setulb
assert searches is None or (scipy.optimize._optimize.line_search_wolfe1,
                            scipy.optimize._optimize.line_search_wolfe2,
                            scipy.optimize._linesearch.LineSearchWarning) == searches
if direct:
    from scipy.special import _special_ufuncs
    assert scipy.special._special_ufuncs is _special_ufuncs is ufuncs
    assert sys.modules["scipy.special._special_ufuncs"] is ufuncs
print(direct)
"""


def test_scipy_packages_reuse_the_directly_loaded_modules():
    # a fresh interpreter: this one imported scipy's packages long ago
    src = os.path.dirname(os.path.dirname(specfun.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", LOADER_PROBE], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    direct = out.stdout.strip()
    assert direct in ("True", "False")
    if tuple(int(v) for v in scipy.__version__.split(".")[:2]) >= (1, 17):
        assert direct == "True"


def special_values():
    nu = np.array([0.0, 0.5, 1.5, 7.3, 40.0, 50.0])[:, None]
    x = np.logspace(-12.0, 2.8, 40)
    return [specfun.log_bessel_k(nu, x), specfun.log_gamma(x), specfun.normal_cdf(x - 3.0),
            [specfun.gamma_fn(v) for v in (0.5, 3.2, 170.0)],
            [specfun.bessel_k(n, 0.7) for n in (0.0, 2.5, 50.0)],
            [specfun.bessel_k_scaled(n, 600.0) for n in (0.0, 2.5, 50.0)]]


def triangular_solves():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((30, 30))
    L = np.linalg.cholesky(a @ a.T + 30.0 * np.eye(30))
    return [_linalg.chol_solve(L, rng.standard_normal(30)),
            _linalg.chol_solve(L, rng.standard_normal((30, 4)))]


def assert_bitwise(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert np.array_equal(np.asarray(g), np.asarray(e))


def without_file(monkeypatch, name):
    monkeypatch.delitem(sys.modules, name)
    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec",
                        classmethod(lambda cls, name, path=None, target=None: None))


@pytest.fixture
def fresh_special():
    yield
    specfun._special.cache_clear()


def test_special_falls_back_without_the_compiled_module(monkeypatch, fresh_special):
    expected = special_values()
    specfun._special.cache_clear()
    without_file(monkeypatch, UFUNCS)
    assert specfun._special() is scipy.special
    assert_bitwise(special_values(), expected)


@pytest.mark.parametrize("missing", ["kve", "kv", "gammaln", "gamma", "ndtr"])
def test_special_falls_back_when_a_ufunc_is_missing(monkeypatch, fresh_special, missing):
    expected = special_values()
    specfun._special.cache_clear()
    names = [n for n in specfun._UFUNCS if n != missing]
    monkeypatch.setitem(sys.modules, UFUNCS,
                        types.SimpleNamespace(**{n: getattr(scipy.special, n) for n in names}))
    assert specfun._special() is scipy.special
    assert_bitwise(special_values(), expected)


@pytest.mark.parametrize("stand_in", [None, types.SimpleNamespace()],
                         ids=["no-file", "no-dtrtrs"])
def test_triangular_solve_falls_back_to_scipy_linalg(monkeypatch, stand_in):
    expected = triangular_solves()
    if stand_in is None:
        without_file(monkeypatch, FLAPACK)
    else:
        monkeypatch.setitem(sys.modules, FLAPACK, stand_in)
    dtrtrs = _linalg._load_dtrtrs()
    assert dtrtrs is scipy.linalg.lapack.dtrtrs
    monkeypatch.setattr(_linalg, "_dtrtrs", dtrtrs)
    assert_bitwise(triangular_solves(), expected)

