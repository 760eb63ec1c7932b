"""Median-level FDP estimation and median-FDP control for multiple testing.

The package turns a vector of test statistics with noninferiority or
equivalence margins into:

* a median-unbiased estimate of the false discovery proportion at any
  rejection threshold (:mod:`artifact.estimators`),
* the largest threshold whose estimated FDP stays below a target, giving a
  rejection set whose FDP median is controlled (:mod:`artifact.control`),
* median-level p-values for use in standard step-up/step-down procedures
  (:mod:`artifact.control`),
* reference competitors -- SAM-style resampling bounds, BH, Lehmann-Romano,
  and exact sign-flip/permutation tests (:mod:`artifact.baselines`),
* a brute-force closed-testing oracle that certifies the fast shortcut
  criteria on small instances (:mod:`artifact.ct_oracle`), and
* a Monte Carlo harness for method comparisons (:mod:`artifact.simulate`).

The public API is the union of the seven modules' ``__all__`` lists: each
public name is declared once, in the ``__all__`` of the module that defines
it, and republished here unchanged.  Indices are 0-based everywhere.  See
the README for the CLI.
"""

from . import baselines, control, core, ct_oracle, estimators, simulate, stats
from .baselines import *  # noqa: F401,F403
from .control import *  # noqa: F401,F403
from .core import *  # noqa: F401,F403
from .ct_oracle import *  # noqa: F401,F403
from .estimators import *  # noqa: F401,F403
from .simulate import *  # noqa: F401,F403
from .stats import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *core.__all__,
    *estimators.__all__,
    *control.__all__,
    *stats.__all__,
    *baselines.__all__,
    *ct_oracle.__all__,
    *simulate.__all__,
]
