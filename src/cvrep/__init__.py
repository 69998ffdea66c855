"""Replication codes for continuous-variable modes.

Build stabilizer codes that replicate one bosonic mode across causally
scattered regions, synthesize and rewrite the encoding/decoding circuits,
simulate them on Gaussian states at finite squeezing, and check the whole
story numerically — correctability, the chain-complex structure behind the
generators, and the closed-form recovery fidelities.

The package exports exactly the names in its submodules' ``__all__``
lists (``cvrep.circuits`` is one of them); each public name is written
down once, in the module that defines it.
"""

from . import codes, gaussian, homology, replication, tolerances, circuits
from .codes import *  # noqa: F403
from .gaussian import *  # noqa: F403
from .homology import *  # noqa: F403
from .replication import *  # noqa: F403
from .tolerances import *  # noqa: F403
from .circuits import *  # noqa: F403

__all__ = [
    *codes.__all__,
    *gaussian.__all__,
    *homology.__all__,
    *replication.__all__,
    *tolerances.__all__,
    *circuits.__all__,
]

__version__ = "0.1.0"
