"""Circuit IR, interpreter, synthesis, rewriting, and code recovery lines.

The package exports exactly the names in its submodules' ``__all__``
lists; each public name is written down once, in the module that defines
it.
"""

from . import interpreter, ir, recovery, rewrite, synthesis

# Read before the star imports: they bind the function ``rewrite`` over the
# module of that name.
__all__ = [*interpreter.__all__, *ir.__all__, *recovery.__all__, *rewrite.__all__, *synthesis.__all__]

from .interpreter import *  # noqa: E402,F403
from .ir import *  # noqa: E402,F403
from .recovery import *  # noqa: E402,F403
from .rewrite import *  # noqa: E402,F403
from .synthesis import *  # noqa: E402,F403
