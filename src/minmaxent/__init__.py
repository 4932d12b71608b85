"""Single-shot conditional min- and max-entropies via semidefinite programming.

Compute H_min(A|B) and H_max(A|B) of finite-dimensional bipartite states
with certified primal/dual optimizers, together with the operational
quantities they equal: the optimal guessing probability, the maximal
singlet fraction with an explicit recovery channel, the key secrecy, and
the decoupling accuracy.  A built-in verification suite checks every
identity against independent oracles.

The package exports each module's ``__all__``, so a public name is
stated once, in the module that defines it.
"""

from . import channels, core, entropy, oracles, sdp
from .channels import *  # noqa: F401,F403
from .core import *  # noqa: F401,F403
from .entropy import *  # noqa: F401,F403
from .oracles import *  # noqa: F401,F403
from .sdp import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = channels.__all__ + core.__all__ + entropy.__all__ + oracles.__all__ + sdp.__all__
