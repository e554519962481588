"""50-digit mpmath recomputation of the outputs the benchmark samples.

Each function takes the same binary64 inputs the program used and evaluates
the stated formula at 50 significant digits, so the difference from the
program's output is the program's rounding error (plus, for CSV cells, the
9-digit formatting).
"""

from __future__ import annotations

import math

import mpmath

_DPS = 50
_JC_BRANCH_POINT = math.log(4.0) / 3.0  # branch choice follows the program's float test


def rel_err(value: float, reference) -> float:
    """|value - reference| / |reference|, 0 when both vanish."""
    with mpmath.workdps(_DPS):
        if reference == 0:
            return 0.0 if value == 0.0 else math.inf
        return float(abs((mpmath.mpf(value) - reference) / reference))


def cap(spec: str, beta: float):
    """Mixing cap of a restriction spec (unrestricted, fb:D, jc, lam:X) at beta."""
    with mpmath.workdps(_DPS):
        b = mpmath.mpf(beta)
        if spec == "unrestricted":
            return mpmath.mpf(1)
        if spec == "jc":
            return min(mpmath.mpf(1), max(mpmath.mpf(0), jc_raw(beta)))
        if spec.startswith("fb:"):
            d = int(spec[3:])
            if b == 0:
                return mpmath.mpf(d) / (d + 1)
            return mpmath.expm1(-b * d) / mpmath.expm1(-b * (d + 1))
        if spec.startswith("lam:"):
            return mpmath.mpf(float(spec[4:]))
    raise ValueError(f"unknown restriction spec {spec!r}")


def jc_raw(beta: float):
    """The stated exchange-coupling cap, before clamping."""
    with mpmath.workdps(_DPS):
        b = mpmath.mpf(beta)
        if beta <= _JC_BRANCH_POINT:
            e = mpmath.exp(-b)
            return (8 * e - e * e + mpmath.exp(3 * b) + 8) / 16
        return mpmath.exp(-4 * b) - mpmath.exp(-3 * b) + 1


def sweep_cell(spec: str, beta_h: float, beta_c: float):
    """The eta_* and bhw_* cells of one sweep point: optimal efficiency and beta_h * work."""
    with mpmath.workdps(_DPS):
        bh, bc = mpmath.mpf(beta_h), mpmath.mpf(beta_c)
        lh, lc = cap(spec, beta_h), cap(spec, beta_c)
        eh, ec, ehc = mpmath.exp(-bh), mpmath.exp(-bc), mpmath.exp(-(bh + bc))
        den = (
            2 - lc * (1 - lh) - lh - lc * (1 - lh) * ec - lh * (1 - lc) * eh + lh * lc * ehc
        )
        p_opt = (1 - lh * (1 - lc) - lc * (1 - lh) * ec) / den
        w_max = 1 - 2 * lh + 2 * (lh * eh - (1 - lh)) * p_opt
        eta_max = 1 - lc * (1 - lh * eh - (1 - lh) * ec) / (lh * (eh - (1 - lc) - lc * ehc))
        return eta_max, bh * w_max


def heat_and_swap(beta_h: float, lam: float, ground: float, excited: float):
    """q_hot and the swap work of the hot stroke at weight lam from (ground, excited)."""
    with mpmath.workdps(_DPS):
        e = mpmath.exp(-mpmath.mpf(beta_h))
        lam, g, x = mpmath.mpf(lam), mpmath.mpf(ground), mpmath.mpf(excited)
        hot_ground = lam * (1 - g * e) + (1 - lam) * g
        hot_excited = lam * (g * e) + (1 - lam) * x
        return hot_excited - x, hot_excited - hot_ground
