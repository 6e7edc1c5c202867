"""Desk-scale capacity guards, and the named kind sets that options take.

Every expensive operation is capped at a weight where exact computation
stays in the seconds-to-minutes range.  Setting the environment variable
CONTINGENCY_MAX_N to a larger integer raises all guards at once; it can
never lower them below the built-in defaults.

The two kinds of contraction and the named sets of them live here too, so
that the command-line parser reads its ``--kind`` and ``--strat`` choices
without loading the library.
"""

import os

from .errors import CapacityError

ENV_VAR = "CONTINGENCY_MAX_N"

ENUMERATION_CAP = 7       # CM_n: its census, contraction order and label pairs
SPHERICITY_CAP = 6        # homology of every lower interval
ANODYNE_CAP = 5           # union-find over anodyne contractions
DOUBLE_COSET_CAP = 6      # orbit enumeration inside S_n
CONSTANT_SHEAF_CAP = 6    # constant sheaf: covers and diamonds of CM_n
SHEAF_DIM_CAP = 8         # dimension of one space of a representation
METAMATRIX_CAP = 40       # M(n), its identities, determinant and positivity
PARTITION_CAP = 20        # listing the ordered partitions of n

# a horizontal contraction merges adjacent rows, a vertical one columns
HORIZONTAL = "horizontal"
VERTICAL = "vertical"

# the kind sets of anodyne contractions, by the names `--kind` takes
ANODYNE_KINDS = {
    "horizontal": (HORIZONTAL,),
    "vertical": (VERTICAL,),
    "both": (HORIZONTAL, VERTICAL),
}

# stratification -> the kinds of anodyne cover whose maps must be invertible
STRATIFICATIONS = {
    "cont": (),
    "fnf": (HORIZONTAL,),
    "ifnf": (VERTICAL,),
    "complex": (HORIZONTAL, VERTICAL),
}


def effective_cap(default):
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return default
    try:
        return max(default, int(raw))
    except ValueError:
        return default


def guard(value, default_cap, what):
    """Raise CapacityError when value exceeds the (possibly raised) cap."""
    cap = effective_cap(default_cap)
    if value > cap:
        raise CapacityError(
            f"{what} is capped at {cap} (got {value}); "
            f"set {ENV_VAR} to raise the limit"
        )
