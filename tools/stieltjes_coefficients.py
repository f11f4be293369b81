"""Print the Taylor coefficients of eps * zeta(1 + eps) as Python float literals.

    python3 tools/stieltjes_coefficients.py

eps * zeta(1 + eps) = 1 + sum_{n >= 0} (-1)^n gamma_n eps^(n+1) / n!
(DLMF 25.2.4), with gamma_n the Stieltjes constants.  The coefficients
c_0 = 1 and c_{n+1} = (-1)^n gamma_n / n! for n = 0 ... TERMS - 2 are formed
from mpmath.stieltjes at 50 digits and printed as the repr of the nearest
float, three to a line, ready to paste as analytic._EZ_COEFFS.  mpmath is the
test extra; the run takes a few seconds.
"""

from __future__ import annotations

import mpmath

TERMS = 32
DIGITS = 50
PER_LINE = 3


def coefficients(digits: int = DIGITS) -> list[mpmath.mpf]:
    """c_0 ... c_{TERMS-1} at the given working precision."""
    with mpmath.workdps(digits):
        return [mpmath.mpf(1)] + [
            (-1) ** n * mpmath.stieltjes(n) / mpmath.factorial(n)
            for n in range(TERMS - 1)
        ]


def main() -> None:
    reprs = [f"{float(c)!r}," for c in coefficients()]
    print("_EZ_COEFFS = (")
    for k in range(0, TERMS, PER_LINE):
        print("    " + " ".join(reprs[k : k + PER_LINE]))
    print(")")


if __name__ == "__main__":
    main()
