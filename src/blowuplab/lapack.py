"""The package's LAPACK and BLAS: seven Fortran routines from scipy's f2py
extension modules scipy.linalg._flapack and _fblas, loaded without
scipy.linalg's package init.

`import scipy.linalg` also runs scipy._lib._util, whose array-API layer
clones numpy and with it imports numpy.f2py and numpy.testing. The two
extension modules need only numpy, and without that init a CLI start-up
(`import blowuplab.cli`) took a median 0.22 s against 0.41 s and peaked
at 41.5 MB of RSS against 58.6 (15 alternating pairs, 2-core x86_64,
scipy 1.17.1). So this module runs scipy's top-level init alone (on
Windows it sets up the vendored DLL path) and loads the extensions from
their files in scipy/linalg. It registers them in sys.modules under
their own names, so a later `import scipy.linalg` reuses the same
objects and the routines here are scipy.linalg.lapack's and
scipy.linalg.blas's; if scipy.linalg came first, they are taken from
sys.modules. There is no fallback: a missing extension raises an
ImportError that names it.

_flapack loads at import. _fblas serves one routine, dtrsv, for the
order-4 rectangle step, so it loads on the first access to
`lapack.dtrsv` (a module __getattr__): a start-up that never steps a
rectangle keeps its 1.3 MB of RSS out, and a start-up holds 34.6 MB
with numpy.random also left to its first use (41.5 MB with both).
"""

import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec
from os.path import join

import numpy as np
import scipy

# what scipy.linalg.LinAlgError is
LinAlgError = np.linalg.LinAlgError


def _extension(name):
    """scipy.linalg.<name>, loaded from its file unless already imported."""
    full = "scipy.linalg." + name
    if full not in sys.modules:
        finder = FileFinder(join(scipy.__path__[0], "linalg"),
                            (ExtensionFileLoader, EXTENSION_SUFFIXES))
        spec = finder.find_spec(full)
        if spec is None:
            raise ImportError(f"no extension module {full} in {finder.path}", name=full)
        module = module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[full] = module
    return sys.modules[full]


_flapack = _extension("_flapack")
dgbtrf, dgbtrs = _flapack.dgbtrf, _flapack.dgbtrs
dgttrf, dgttrs, dgtsv = _flapack.dgttrf, _flapack.dgttrs, _flapack.dgtsv
dpotrf = _flapack.dpotrf


def __getattr__(name):
    """dtrsv, from _fblas loaded on first access."""
    if name == "dtrsv":
        return _extension("_fblas").dtrsv
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def cho_factor(a):
    """The upper Cholesky factor of the symmetric positive definite a by
    the dpotrf call of scipy.linalg.cho_factor(a)[0], whose strict lower
    triangle keeps a's entries. Raises ValueError on a non-finite entry
    and LinAlgError when a is not positive definite."""
    c, info = dpotrf(np.asarray_chkfinite(a), lower=0, clean=0)
    if info > 0:
        raise LinAlgError(f"{info}-th leading minor of the array is not positive definite")
    if info < 0:
        raise ValueError(f"LAPACK reported an illegal value in {-info}-th argument "
                         f'on entry to "POTRF".')
    return c
