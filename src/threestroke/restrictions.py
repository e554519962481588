"""Mixing caps induced by restricted bath couplings.

Two concrete restrictions are modeled: a truncated-ladder bath of d+1 equally
spaced levels coupled through an energy-preserving joint unitary, and a
resonant exchange coupling to a full bosonic mode.  Either one caps the
reachable mixing weight of the thermal strokes below 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import EngineParams, UndefinedEfficiencyError, elementwise
from .populations import check_beta, check_betas, check_size, check_unit_interval

__all__ = [
    "JC_BRANCH_POINT",
    "RestrictionModel",
    "engine_params_from",
    "eta_finite_bath",
    "lambda_max_finite_bath",
    "lambda_max_jc",
    "lambda_max_jc_raw",
]

JC_BRANCH_POINT = math.log(4.0) / 3.0


# The cap formulas below take floats with math's exp/expm1, or arrays with
# elementwise versions of them.  They use only + - * / besides, so both give
# the same bits.


def _ladder_cap(beta_omega, d: int, exp, expm1):
    """lambda_max_finite_bath at beta_omega > 0.

    Written as 1 minus the shortfall e^-bd (1 - e^-b) / (1 - e^-b(d+1)).
    Near 1 the plain ratio of the two expm1 terms jitters by an ulp and can
    fall as the temperature drops; 1 minus a small falling shortfall keeps
    rising and never exceeds 1.
    """
    return 1.0 - exp(-beta_omega * d) * expm1(-beta_omega) / expm1(-beta_omega * (d + 1.0))


def _jc_high_temperature(beta_omega, exp):
    """Stated exchange-coupling cap for beta_omega <= JC_BRANCH_POINT."""
    e = exp(-beta_omega)
    return (8.0 * e - e * e + exp(3.0 * beta_omega) + 8.0) / 16.0


def _jc_low_temperature(beta_omega, exp):
    """Stated exchange-coupling cap for beta_omega > JC_BRANCH_POINT."""
    return exp(-4.0 * beta_omega) - exp(-3.0 * beta_omega) + 1.0


def _check_bath_size(d: int) -> int:
    """d, if it is an integer in [1, 2**53]; above 2**53 float(d) is inexact,
    and d and d + 1 would give one cap."""
    d = check_size(d, "bath size", 1)
    if d > 2**53:
        raise ValueError(f"bath size must be <= 2**53, got {d}")
    return d


def _exp_each(values: np.ndarray) -> np.ndarray:
    return elementwise(math.exp, values)


def _expm1_each(values: np.ndarray) -> np.ndarray:
    return elementwise(math.expm1, values)


def lambda_max_finite_bath(beta_omega: float, d: int) -> float:
    """Largest mixing weight reachable with a (d+1)-level ladder bath.

    Monotone in both arguments: it rises from d / (d + 1) at infinite
    temperature (also the value used at beta_omega = 0) toward 1 as either
    the bath grows or the temperature drops.
    """
    beta_omega = check_beta(beta_omega)
    d = _check_bath_size(d)
    if beta_omega == 0.0:
        return d / (d + 1.0)
    return _ladder_cap(beta_omega, d, math.exp, math.expm1)


def lambda_max_jc_raw(beta_omega: float) -> float:
    """Resonant exchange-coupling cap, evaluated exactly as stated.

    The high-temperature branch below beta_omega = log(4)/3 exceeds 1 on part
    of its range and does not meet the other branch at the crossover; the
    stated expression is kept as is and lambda_max_jc clamps it.
    """
    beta_omega = check_beta(beta_omega)
    if beta_omega <= JC_BRANCH_POINT:
        return _jc_high_temperature(beta_omega, math.exp)
    return _jc_low_temperature(beta_omega, math.exp)


def lambda_max_jc(beta_omega: float) -> float:
    """lambda_max_jc_raw clamped into [0, 1]; RestrictionModel.resolve reports
    where it acted."""
    return min(1.0, max(0.0, lambda_max_jc_raw(beta_omega)))


_KINDS = ("unrestricted", "finite_bath", "jaynes_cummings", "explicit")


@dataclass(frozen=True)
class RestrictionModel:
    """How a stroke's mixing cap arises: free, ladder bath, exchange coupling,
    or an explicitly fixed value."""

    kind: str
    d: int | None = None
    lam: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown restriction kind {self.kind!r}")
        if self.kind == "finite_bath":
            object.__setattr__(self, "d", _check_bath_size(self.d))
        elif self.d is not None:
            raise ValueError(f"restriction {self.kind!r} takes no bath size")
        if self.kind == "explicit":
            object.__setattr__(self, "lam", check_unit_interval(self.lam, "explicit cap"))
        elif self.lam is not None:
            raise ValueError(f"restriction {self.kind!r} takes no explicit cap")

    @classmethod
    def unrestricted(cls) -> RestrictionModel:
        return cls("unrestricted")

    @classmethod
    def finite_bath(cls, d: int) -> RestrictionModel:
        return cls("finite_bath", d=d)

    @classmethod
    def jaynes_cummings(cls) -> RestrictionModel:
        return cls("jaynes_cummings")

    @classmethod
    def explicit(cls, lam: float) -> RestrictionModel:
        return cls("explicit", lam=lam)

    @classmethod
    def parse(cls, text: str) -> RestrictionModel:
        """Parse the command-line form: unrestricted | fb:D | jc | lam:X."""
        text = text.strip()
        if text == "unrestricted":
            return cls.unrestricted()
        if text == "jc":
            return cls.jaynes_cummings()
        if text.startswith("fb:"):
            try:
                return cls.finite_bath(int(text[3:]))
            except ValueError:
                raise ValueError(f"bad finite-bath spec {text!r}, expected fb:D") from None
        if text.startswith("lam:"):
            try:
                return cls.explicit(float(text[4:]))
            except ValueError:
                raise ValueError(f"bad explicit-cap spec {text!r}, expected lam:X") from None
        raise ValueError(
            f"bad restriction spec {text!r}, expected unrestricted, fb:D, jc or lam:X"
        )

    @property
    def label(self) -> str:
        if self.kind == "finite_bath":
            return f"fb{self.d}"
        if self.kind == "jaynes_cummings":
            return "jc"
        if self.kind == "explicit":
            # the short form only where it reads back as the same cap
            text = f"{self.lam:g}"
            return f"lam{text if float(text) == self.lam else repr(self.lam)}"
        return "unrestricted"

    def lambda_max(self, beta_omega: float) -> float:
        if self.kind == "finite_bath":
            return lambda_max_finite_bath(beta_omega, self.d)
        if self.kind == "jaynes_cummings":
            return lambda_max_jc(beta_omega)
        check_beta(beta_omega)
        return self.lam if self.kind == "explicit" else 1.0

    def resolve(self, beta_omega: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """lambda_max at every entry of a 1-d array of temperatures, and where
        it was clamped: only the jc cap is, where lambda_max_jc_raw leaves [0, 1].

        The array is validated as a whole first, and every cap equals
        lambda_max's result bit for bit.
        """
        beta = check_betas(beta_omega)
        clamped = np.zeros(beta.shape, dtype=bool)
        # Python floats overflow to inf without a word; so do these
        with np.errstate(all="ignore"):
            if self.kind == "finite_bath":
                caps = np.full(beta.shape, lambda_max_finite_bath(0.0, self.d))
                warm = beta > 0.0
                caps[warm] = _ladder_cap(beta[warm], self.d, _exp_each, _expm1_each)
            elif self.kind == "jaynes_cummings":
                raw = np.empty(beta.shape)
                high = beta <= JC_BRANCH_POINT
                raw[high] = _jc_high_temperature(beta[high], _exp_each)
                raw[~high] = _jc_low_temperature(beta[~high], _exp_each)
                clamped = (raw < 0.0) | (raw > 1.0)
                caps = np.clip(raw, 0.0, 1.0)
            else:
                caps = np.full(beta.shape, self.lambda_max(0.0))
        return caps, clamped


def engine_params_from(
    hot: RestrictionModel,
    cold: RestrictionModel,
    beta_h_omega: float,
    beta_c_omega: float,
) -> EngineParams:
    """Engine parameters with the caps resolved at the bath temperatures."""
    return EngineParams(
        beta_h_omega=beta_h_omega,
        beta_c_omega=beta_c_omega,
        lambda_h_max=hot.lambda_max(beta_h_omega),
        lambda_c_max=cold.lambda_max(beta_c_omega),
    )


def eta_finite_bath(beta_h_omega: float, beta_c_omega: float, d: int) -> float:
    """Optimal efficiency with (d+1)-level ladder baths on both strokes."""
    bh = check_beta(beta_h_omega)
    bc = check_beta(beta_c_omega)
    d = _check_bath_size(d)
    num = (
        -math.expm1(-d * bc) * -math.expm1(-bh) * -math.expm1(-(bc + d * bh))
    )
    den = (
        -math.expm1(-bc) * (math.exp(-bh) - math.exp(-d * bc)) * -math.expm1(-d * bh)
    )
    if den == 0.0:
        raise UndefinedEfficiencyError(
            f"efficiency undefined at beta_h_omega={bh!r}, beta_c_omega={bc!r}, d={d}"
        )
    return 1.0 - num / den
