"""Desk-scale capacity guards, and the named kind sets that options take.

Every expensive operation is capped at a weight where exact computation
stays in the seconds-to-minutes range.  The caps are the constants below;
a cap is changed here, with a measured run at the new value.  ``guard``
is the one refusal: for a value within the meta-matrix cap its message
ends with the size of the refused run, which the caller counts in closed
form.  A run over all of CM_n enters through ``census_guard``, which
checks its weight and names |CM_n|, so the command-line interface holds
no cap.

The two kinds of contraction and the named sets of them live here too, so
that the command-line parser reads its ``--kind`` and ``--strat`` choices
without loading the library.
"""

from .errors import CapacityError, positive_weight

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


def guard(value, cap, what, size=None):
    """Raise CapacityError when value exceeds cap.  For a value within
    METAMATRIX_CAP the message ends with '; ' and ``size(value)``, the
    size of the refused run as text; above it a size is not counted, so
    a huge number is never printed."""
    if value > cap:
        message = f"{what} is capped at {cap} (got {value})"
        if size is not None and value <= METAMATRIX_CAP:
            message += f"; {size(value)}"
        raise CapacityError(message)


def _census_size(n):
    from .counting import total_count  # loaded only for a refusal

    return f"|CM_{n}| = {total_count(n):,}"


def census_guard(n, cap, what):
    """The weight n of a run over all of CM_n, as ``positive_weight``
    returns it, once ``guard`` lets it through.  A refusal of an n within
    the meta-matrix cap ends with the size of the refused census,
    '; |CM_n| = N', counted in closed form, so that an API caller and the
    CLI read the same message."""
    n = positive_weight(n)
    guard(n, cap, what, _census_size)
    return n
