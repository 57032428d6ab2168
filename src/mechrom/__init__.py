"""Non-intrusive reduction of second-order mechanical models.

The package learns small mass-damping-stiffness models from trajectory
data of a large one: project snapshots onto an orthogonal basis, then
fit the reduced operators by regression, either in mass-normalized form
or with symmetric definiteness constraints enforced by an operator
splitting solver. A projection-based reduction of the known operators
serves as the reference these data-driven models are judged against.

The package exports every name in the ``__all__`` of the modules
imported below; ``mechrom.cli`` and ``mechrom.textio`` are imported as
modules.
"""

__version__ = "0.1.0"

from . import copinf, errors, evaluate, model, newmark, opinf, pod, snapshots
from .copinf import *
from .errors import *
from .evaluate import *
from .model import *
from .newmark import *
from .opinf import *
from .pod import *
from .snapshots import *

__all__ = ["__version__"] + [
    name
    for module in (errors, model, newmark, snapshots, pod, opinf, copinf,
                   evaluate)
    for name in module.__all__
]
