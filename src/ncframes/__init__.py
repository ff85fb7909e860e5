"""Tight frames in finitely generated modules over block C*-algebras.

Construction, verification, factorization into the coisometry normal form,
ortho-decomposition, admissible-partition enumeration, and a frame-potential
optimizer, over algebras of the form ⊕_j M_{m_j}(C).

The package namespace republishes the __all__ of each library module.
"""

from .algebra import *
from .module import *
from .frames import *
from .decomposition import *
from .optimize import *

__version__ = "0.1.0"
