"""The range check that every public numeric input of the package passes."""

import math


def in_range(name: str, x, lo, hi, ends: str = "[]", rule: str | None = None):
    """Return x if it is a real number in the interval from lo to hi, else raise ValueError.

    ends gives the brackets, "[" or "(" then "]" or ")".  NaN lies in no
    interval, and +-inf only in one closed at that infinity, such as
    [0, inf]; so no NaN reaches a clamp that would make it a plausible
    number.  The message is "<name> must lie in <interval>" (with "be
    finite and" for a non-finite x) or "<name> must <rule>".
    """
    try:
        if (lo < x if ends[0] == "(" else lo <= x) and (x < hi if ends[1] == ")" else x <= hi):
            return x
        finite = -math.inf < x < math.inf
    except TypeError:  # not a real number
        finite = False
    if rule is None:
        rule = f"lie in {ends[0]}{lo:g}, {hi:g}{ends[1]}"
        closed_at_inf = (ends[0] == "[" and lo == -math.inf) or (ends[1] == "]" and hi == math.inf)
        if not (finite or closed_at_inf):
            rule = "be finite and " + rule
    raise ValueError(f"{name} must {rule}, got {'NaN' if x != x else x}")
