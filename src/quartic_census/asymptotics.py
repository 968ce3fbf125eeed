"""Leading constants and main terms, with every special value computed in
house: Lanczos gamma on one route, adaptive quadrature on the other.

Only the quadrature routes (`elliptic_integrals`, `preliminary_integrals`)
load scipy, on their first call; the main terms that a census summary
prints do not, so a census run never imports it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .densities import euler_product

SQRT2 = math.sqrt(2.0)

# Lanczos coefficients, g = 7, n = 9 (double-precision standard set).
_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def gamma(x: float) -> float:
    """Gamma function to ~15 significant digits (Lanczos; reflection for x<0.5)."""
    if x < 0.5:
        return math.pi / (math.sin(math.pi * x) * gamma(1.0 - x))
    x -= 1.0
    a = _LANCZOS[0]
    t = x + _LANCZOS_G + 0.5
    for i in range(1, len(_LANCZOS)):
        a += _LANCZOS[i] / (x + i)
    return math.sqrt(2.0 * math.pi) * t ** (x + 0.5) * math.exp(-t) * a


def zeta2() -> float:
    return math.pi * math.pi / 6.0


def elliptic_integrals() -> tuple[float, float]:
    """(I+, I-) = (int_1^inf dz/sqrt(z^4+1), int_1^inf dz/sqrt(z^4-1)).

    I+ is folded onto [0,1] by z -> 1/z; I- splits at z = 2 with the
    substitution z = 1 + t^2 absorbing the endpoint singularity.
    """
    from scipy.integrate import quad

    iplus, _ = quad(lambda t: 1.0 / math.sqrt(1.0 + t**4), 0.0, 1.0, epsabs=1e-13)

    def near(t: float) -> float:
        # z = 1 + t^2 turns dz/sqrt(z^4-1) into 2 dt/sqrt((z+1)(z^2+1))
        z = 1.0 + t * t
        return 2.0 / math.sqrt((z + 1.0) * (z * z + 1.0))

    i1, _ = quad(near, 0.0, 1.0, epsabs=1e-13)
    i2, _ = quad(lambda u: 1.0 / math.sqrt(1.0 - u**4), 0.0, 0.5, epsabs=1e-13)
    return iplus, i1 + i2


def iplus_closed_form() -> float:
    return gamma(0.25) ** 2 / (8.0 * math.sqrt(math.pi))


def preliminary_integrals(T: float) -> tuple[float, float, float]:
    """Quadrature values of the three truncated area integrals at cutoff T:
    int_0^1 sqrt(z^4+1), int_1^(sqrt2 T) (sqrt(z^4+1)-z^2), and
    int_1^(sqrt2 T) (sqrt(z^4+1)-sqrt(z^4-1)); each approaches its closed form
    with O(1/T) error."""
    from scipy.integrate import quad

    hi = SQRT2 * T
    v1, _ = quad(lambda z: math.sqrt(z**4 + 1.0), 0.0, 1.0, epsabs=1e-12)
    # difference forms rewritten as reciprocals: exact algebra, no cancellation
    v2, _ = quad(
        lambda z: 1.0 / (math.sqrt(z**4 + 1.0) + z * z), 1.0, hi, epsabs=1e-12, limit=200
    )
    v3, _ = quad(
        lambda z: 2.0 / (math.sqrt(z**4 + 1.0) + math.sqrt(z**4 - 1.0)),
        1.0,
        hi,
        epsabs=1e-12,
        limit=200,
    )
    return v1, v2, v3


def preliminary_closed_forms() -> tuple[float, float, float]:
    g = gamma(0.25) ** 2 / (4.0 * math.sqrt(math.pi))
    return (
        (SQRT2 + g) / 3.0,
        (-1.0 / (SQRT2 + 1.0) + g) / 3.0,
        (-SQRT2 + (1.0 + SQRT2) * g) / 3.0,
    )


#: real-signature weights of the conductor count, index r2 = 0, 1, 2.
R_WEIGHTS = (1.0, SQRT2, 1.0 + SQRT2)

#: area weights of the counting region, index r2 = 0, 1, 2.
S_WEIGHTS = (SQRT2, 1.0, 1.0)


def area_constants() -> dict:
    """Leading coefficients of Area(region(X))/X^(3/4), per r2 and total."""
    base = SQRT2 * gamma(0.25) ** 2 / (3.0 * math.sqrt(math.pi))
    per = [s * base for s in S_WEIGHTS]
    return {"per_r2": per, "total": sum(per)}


def r2_proportions() -> tuple[float, float, float]:
    tot = sum(R_WEIGHTS)
    return tuple(w / tot for w in R_WEIGHTS)


@dataclass(frozen=True)
class MainTerm:
    theorem: str
    X: float
    r2: int | None
    value: float
    components: dict = field(default_factory=dict)


def main_term(
    theorem: str, X: float, r2: int | None = None, prime_limit: int = 10**6
) -> MainTerm:
    """Main term of the displayed asymptotic count.

    d4_conductor: (r(r2)/zeta(2)) * sqrt2*Gamma(1/4)^2/(48 sqrt pi) * P * X^(3/4) log X,
    summed over r2 when r2 is None.  v4_disc: (7/8) * Gamma(1/3)^2/Gamma(2/3)
    * prod(1-(4p-3)/p^3) * X^(1/3), as displayed (see the v4 census notes on
    the 2-adic factor).
    """
    if theorem == "d4_conductor":
        gf = SQRT2 * gamma(0.25) ** 2 / (48.0 * math.sqrt(math.pi))
        zf = 1.0 / zeta2()
        P, _ = euler_product("carefree", prime_limit)
        rf = R_WEIGHTS[r2] if r2 is not None else sum(R_WEIGHTS)
        value = rf * zf * gf * P * X**0.75 * math.log(X)
        return MainTerm(
            theorem,
            X,
            r2,
            value,
            {"gamma_factor": gf, "zeta_factor": zf, "euler_product": P, "r_factor": rf},
        )
    if theorem == "v4_disc":
        if r2 is not None:
            raise ValueError("v4_disc has no real-signature split")
        gf = gamma(1.0 / 3.0) ** 2 / gamma(2.0 / 3.0)
        P, _ = euler_product("v4", prime_limit)
        value = 0.875 * gf * P * X ** (1.0 / 3.0)
        return MainTerm(
            theorem,
            X,
            None,
            value,
            {"gamma_factor": gf, "zeta_factor": 1.0, "euler_product": P, "r_factor": 0.875},
        )
    raise ValueError(f"unknown theorem {theorem!r}")


def v4_density_main_term(X: float, prime_limit: int = 10**6) -> float:
    """V4 main term assembled from the paper-internal density route:
    3*Gamma(1/3)^2 / (2^(2/3)*Gamma(2/3)) * prod_p(1 - rho0(p)/p^4) * (sqrt X/4)^(2/3),
    with the 2-adic factor taken from the computed rho_v4(2) = 10 rather than
    the displayed constant."""
    gf = 3.0 * gamma(1.0 / 3.0) ** 2 / (2.0 ** (2.0 / 3.0) * gamma(2.0 / 3.0))
    P, _ = euler_product("v4", prime_limit)
    from .densities import rho_v4

    # replace the odd-prime product's missing 2-factor by the computed one
    p2_true = 1.0 - rho_v4(2) / 16.0
    p2_formula = 1.0 - 5.0 / 8.0
    full = P / p2_formula * p2_true
    return gf * full * (math.sqrt(X) / 4.0) ** (2.0 / 3.0)
