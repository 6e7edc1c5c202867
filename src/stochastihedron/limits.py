"""Desk-scale capacity guards, and the named kind sets that options take.

Every expensive operation is capped at a weight where exact computation
stays in the seconds-to-minutes range.  Setting the environment variable
CONTINGENCY_MAX_N to a larger integer raises all guards at once; it can
never lower them below the built-in defaults.  A run over all of CM_n
enters through ``census_guard``, which checks its weight and names |CM_n|
in a refusal, so the command-line interface holds no cap.

The two kinds of contraction and the named sets of them live here too, so
that the command-line parser reads its ``--kind`` and ``--strat`` choices
without loading the library.
"""

import os

from .errors import CapacityError, positive_weight

ENV_VAR = "CONTINGENCY_MAX_N"

ENUMERATION_CAP = 7       # CM_n: its census, contraction order and label pairs
SPHERICITY_CAP = 6        # homology of every lower interval
ANODYNE_CAP = 5           # union-find over anodyne contractions
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


def guard(value, default_cap, what):
    """Raise CapacityError when value exceeds the cap: the default, or the
    integer in CONTINGENCY_MAX_N when that is larger."""
    try:
        cap = max(default_cap, int(os.environ.get(ENV_VAR, default_cap)))
    except ValueError:
        cap = default_cap
    if value > cap:
        raise CapacityError(
            f"{what} is capped at {cap} (got {value}); "
            f"set {ENV_VAR} to raise the limit"
        )


def census_guard(n, cap, what):
    """The weight n of a run over all of CM_n, as ``positive_weight``
    returns it, once ``guard`` lets it through.  A refusal of an n within
    the meta-matrix cap ends with the size of the refused census,
    '; |CM_n| = N', counted in closed form, so that an API caller and the
    CLI read the same message."""
    n = positive_weight(n)
    try:
        guard(n, cap, what)
    except CapacityError as exc:
        if n > METAMATRIX_CAP:
            raise
        from .counting import total_count

        raise CapacityError(f"{exc}; |CM_{n}| = {total_count(n):,}") from None
    return n
