"""Circuit IR, interpreter, synthesis, rewrite rules, and code recovery lines.

The package exports exactly the names in its submodules' ``__all__``
lists; each public name is written down once, in the module that defines
it.
"""

from . import interpreter, ir, recovery, rules, synthesis
from .interpreter import *  # noqa: F403
from .ir import *  # noqa: F403
from .recovery import *  # noqa: F403
from .rules import *  # noqa: F403
from .synthesis import *  # noqa: F403

__all__ = [*interpreter.__all__, *ir.__all__, *recovery.__all__, *rules.__all__, *synthesis.__all__]
