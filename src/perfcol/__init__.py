"""Perfect colorings of connected regular graphs.

Enumeration of color adjacency matrices, spectral filtering by exact
characteristic polynomial divisibility, constructive realization, and
exhaustive backtracking search, with the Platonic graphs as the worked
catalog.
"""

from . import cam, enumeration, graphs, search, spectral
from .cam import *
from .enumeration import *
from .graphs import *
from .search import *
from .spectral import *

__version__ = "0.1.0"

__all__ = [*cam.__all__, *enumeration.__all__, *spectral.__all__,
           *graphs.__all__, *search.__all__, "__version__"]
