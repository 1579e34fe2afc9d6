"""Budget-constrained resource allocation by randomized pairwise descent,
in systems where agents' cost functions are replaced while the algorithm
runs.

The package has three legs:

* simulation - :func:`run_trajectory` / :func:`run_ensemble` drive the
  pairwise update under a Bernoulli update/replacement schedule;
* analysis - :func:`evaluate_bounds` and the calculators in
  :mod:`openrcd.bounds` turn (n, alpha, beta, b, p_U, h) into contraction
  rates, additive offsets, and steady-state levels;
* adversarial search - :func:`maximize_displacement` looks for the
  single replacement that moves the constrained minimizer farthest.
"""

from . import allocation, bounds, config, functions, opensim, rcd, worstcase
from .allocation import *
from .bounds import *
from .config import *
from .functions import *
from .opensim import *
from .rcd import *
from .worstcase import *

__version__ = "0.1.0"

# each public name is declared once, in its module's __all__
__all__ = [name for module in (allocation, bounds, config, functions, opensim, rcd, worstcase)
           for name in module.__all__]
