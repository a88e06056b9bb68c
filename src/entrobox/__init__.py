"""entrobox: desk-scale verification of entropic equalities and
inequalities for classical probability vectors and quantum density
matrices of a single, indivisible system.

The package rereads a plain probability vector (or density matrix) as a
joint object of artificial subsystems through an index bijection, and then
checks that the standard correlation inequalities (subadditivity, strong
subadditivity, conditional-entropy chain rules, their Tsallis analogs, the
basis-readout entropy bound, and a discord-type measure) all hold without
any physical subsystems being present.
"""

from . import errors, qstate, simplex, tomography
from .errors import *  # noqa: F403
from .qstate import *  # noqa: F403
from .report import GAP_TOLERANCE, IDENTITY_TOLERANCE, InequalityReport
from .simplex import *  # noqa: F403
from .tomography import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    "InequalityReport",
    "GAP_TOLERANCE",
    "IDENTITY_TOLERANCE",
    *simplex.__all__,
    *qstate.__all__,
    *tomography.__all__,
]
