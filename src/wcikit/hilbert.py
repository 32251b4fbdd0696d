"""Section dimensions via the Poincare series of the graded coordinate ring.

For a quasi-smooth well-formed family the defining forms are a regular
sequence, so dim A_k is the t^k coefficient of prod(1 - t^d) / prod(1 - t^a);
otherwise the same coefficient is still returned but flagged as formal.
"""

from __future__ import annotations

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
    coeffs = [0] * (upto + 1)
    coeffs[0] = 1
    for a in weights:  # multiply by 1/(1-t^a): running prefix sums
        for i in range(a, upto + 1):
            coeffs[i] += coeffs[i - a]
    for d in degrees:  # multiply by (1-t^d), safely in place from the top
        for i in range(upto, d - 1, -1):
            coeffs[i] -= coeffs[i - d]
    return coeffs


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
