"""Section dimensions via the Poincare series of the graded coordinate ring.

For a quasi-smooth well-formed family the defining forms are a regular
sequence, so dim A_k is the t^k coefficient of prod(1 - t^d) / prod(1 - t^a);
otherwise the same coefficient is still returned but flagged as formal.
"""

from __future__ import annotations

from functools import reduce
from itertools import accumulate

from .errors import CeilingExceededError, UsageError
from .wci import WciFamily, _geometry

# A series to order n is n + 1 integers, each costing one pass per weight.
_MAX_SERIES_ORDER = 10**5


def series_coefficients(degrees, weights, upto: int) -> list[int]:
    """Coefficients 0..upto of prod_j (1-t^{d_j}) / prod_i (1-t^{a_i})."""
    if upto < 0:
        raise UsageError(f"series order must be nonnegative, got {upto}")
    if upto > _MAX_SERIES_ORDER:
        raise CeilingExceededError("series order", upto, _MAX_SERIES_ORDER)
    coeffs = reduce(_divide, weights, [1] + [0] * upto)
    for d in degrees:  # multiply by (1-t^d)
        coeffs[d:] = [x - y for x, y in zip(coeffs[d:], coeffs)]
    return coeffs


def _divide(series: list[int], a: int) -> list[int]:
    """series times 1/(1 - t^a): a prefix sum along each residue of a."""
    out = series[:]
    for r in range(min(a, len(out))):
        out[r::a] = accumulate(out[r::a])
    return out


def _check_k(k) -> None:
    if not isinstance(k, int) or k < 0:
        raise UsageError(f"k must be a nonnegative integer, got {k!r}")


def h0(family: WciFamily, k: int) -> int:
    """dim H^0(X, O_X(k)) for the general member (series coefficient)."""
    _check_k(k)
    return series_coefficients(family.degrees, family.weights.expand(), k)[k]


def series(family: WciFamily, upto: int) -> tuple[list[int], bool]:
    """(coefficients 0..upto, formal), with formal as in `section_dim`."""
    coeffs = series_coefficients(family.degrees, family.weights.expand(), upto)
    return coeffs, not _geometry(family).geometric


def section_dim(family: WciFamily, k: int) -> tuple[int, bool]:
    """(h0, formal) where formal means the geometric identification of the
    coefficient with a section count is not backed by the preconditions
    (quasi-smooth + well-formed, not a linear cone)."""
    _check_k(k)
    coeffs, formal = series(family, k)
    return coeffs[k], formal
