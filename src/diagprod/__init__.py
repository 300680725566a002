"""Diagonal-product images of the classical matrix groups.

Boundary-curve evaluation and polar inversion, membership oracles for the
SU(n)/U(n)/SO(n) images, construction and recognition of boundary-attaining
matrices, constructive preimages through a homotopy family, and seeded
numerical verification runs.

Each module's ``__all__`` is its public API, and the package re-exports it.
"""

from . import boundary, constructors, matrices, region, verify
from .boundary import *
from .constructors import *
from .matrices import *
from .region import *
from .verify import *

__version__ = "0.1.0"

__all__ = []
__all__ += boundary.__all__
__all__ += constructors.__all__
__all__ += matrices.__all__
__all__ += region.__all__
__all__ += verify.__all__
