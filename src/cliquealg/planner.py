"""Round-complexity planning: exponent curves, regime dispatch, and the
shortest-path iteration tradeoff.

All quantities live on the exponent scale: for problem size n, a cost of
n**x is represented by x.  `a` is log k / log n (number of parallel product
instances), `b` is log m / log n (inner dimension).
"""

from __future__ import annotations

import bisect
import importlib.resources
import math
from dataclasses import dataclass
from typing import Callable, Sequence

# solve_maincond stops once the two load exponents differ by at most this.
MAINCOND_TOL = 1e-9
# zwick_exponent refines sigma* to an interval a tenth of this wide.
ZWICK_TOL = 1e-4


class RegimeError(ValueError):
    pass


class OmegaCurve:
    """gamma |-> omega(gamma): exponent of (n x n^gamma) by (n^gamma x n) products.

    Three flavors: the schoolbook curve 2 + gamma, a constant-level curve
    max(c, 1 + gamma), or a sampled nondecreasing curve with linear
    interpolation (slope-1 extrapolation beyond the last sample).
    """

    def __init__(self, fn: Callable[[float], float]):
        self._fn = fn

    def __call__(self, gamma: float) -> float:
        return self._fn(gamma)

    @staticmethod
    def trivial() -> "OmegaCurve":
        return OmegaCurve(lambda g: 2.0 + g)

    @staticmethod
    def constant(value: float) -> "OmegaCurve":
        if value < 2.0:
            raise ValueError("omega cannot be below 2")
        return OmegaCurve(lambda g: max(value, 1.0 + g))

    @staticmethod
    def strassen() -> "OmegaCurve":
        return OmegaCurve.constant(math.log2(7))

    @staticmethod
    def from_samples(pairs: Sequence[tuple[float, float]]) -> "OmegaCurve":
        pts = sorted((float(g), float(w)) for g, w in pairs)
        if not pts:
            raise ValueError("empty curve")
        gs = [g for g, _ in pts]
        ws = [w for _, w in pts]
        for i in range(1, len(ws)):
            if ws[i] < ws[i - 1] - 1e-12:
                raise ValueError("omega curve must be nondecreasing")
        for g, w in pts:
            if w < max(2.0, 1.0 + g) - 1e-9:
                raise ValueError(f"omega({g}) = {w} below the max(2, 1+gamma) floor")

        def fn(gamma: float) -> float:
            if gamma <= gs[0] or gamma < gs[-1]:
                return _interpolate(gs, ws, gamma)
            return max(ws[-1] + (gamma - gs[-1]), 1.0 + gamma)

        return OmegaCurve(fn)

    @staticmethod
    def for_kernel(kernel: str) -> "OmegaCurve":
        if kernel == "trivial":
            return OmegaCurve.trivial()
        if kernel == "strassen":
            return OmegaCurve.strassen()
        raise ValueError(f"unknown kernel {kernel!r}")


@dataclass(frozen=True)
class CostEstimate:
    exponent: float
    regime: str          # "small-m" | "medium-m" | "large-m"
    gamma: float


def _balance_functions(a: float, b: float, curve: OmegaCurve):
    # f: gather-and-multiply side; g: recombination side.  f decreases in
    # gamma, g increases; their crossing balances the two dominant loads.
    def f(g: float) -> float:
        w = curve(g)
        return a * (1 + g) / w + b + 1 - (1 + g) / w

    def g(gm: float) -> float:
        w = curve(gm)
        return 2 * a / w + 2 - 2 / w

    return f, g


def solve_maincond(a: float, b: float, curve: OmegaCurve) -> float:
    """gamma at which the two per-node load exponents coincide (middle regime)."""
    if not (0.0 <= a <= 1.0):
        raise RegimeError(f"a = {a} outside [0, 1]")
    if b < (1 + a) / 2 - 1e-12 or b >= 2 - a + 1e-12:
        raise RegimeError(
            f"(a, b) = ({a}, {b}) outside the middle regime; use the closed-form cases")
    f, g = _balance_functions(a, b, curve)
    lo, hi = 0.0, 40.0
    if f(lo) <= g(lo) + MAINCOND_TOL:
        return 0.0
    # the crossing escapes any fixed bracket as b approaches 2 - a; grow it
    while f(hi) > g(hi):
        hi *= 4.0
        if hi > 1e9:
            raise RegimeError("no crossing below gamma = 1e9")
    while hi - lo > 1e-13 * max(1.0, hi) and \
            abs(f(0.5 * (lo + hi)) - g(0.5 * (lo + hi))) > MAINCOND_TOL:
        mid = 0.5 * (lo + hi)
        if f(mid) > g(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def theorem1_exponent(a: float, b: float, curve: OmegaCurve) -> CostEstimate:
    """Round-complexity exponent for k = n^a products of n x n^b by n^b x n."""
    if a < 0 or b < 0:
        raise ValueError("exponents must be nonnegative")
    if a >= 1.0:
        # at least n instances: linear in k, plus the data term
        if b <= 1.0:
            return CostEstimate(a, "small-m", 0.0)
        return CostEstimate(a + b - 1, "large-m", 0.0)
    if b >= 2 - a:
        return CostEstimate(a + b - 1, "large-m", 0.0)
    if b <= (1 + a) / 2:
        return CostEstimate(a, "small-m", 0.0)
    gamma = solve_maincond(a, b, curve)
    w = curve(gamma)
    return CostEstimate(2 * a / w + 1 - 2 / w, "medium-m", gamma)


def _zwick_left_exponent(sigma: float) -> float:
    # direct semiring product of n x (n/s) by (n/s) x n
    return max(0.0, 2 * (1 - sigma) / 3 - 1 / 3)


def _zwick_right_exponent(sigma: float, curve: OmegaCurve) -> float:
    # batched algebraic product: k ~ s instances, inner dimension n/s
    est = theorem1_exponent(sigma, 1 - sigma, curve)
    return max(sigma, est.exponent)


class SampledCost:
    """sigma |-> cost exponent, linearly interpolated from file samples."""

    def __init__(self, pairs: Sequence[tuple[float, float]]):
        pts = sorted((float(s), float(v)) for s, v in pairs)
        if len(pts) < 2:
            raise ValueError("need at least two samples")
        self.xs = [s for s, _ in pts]
        self.ys = [v for _, v in pts]

    def __call__(self, sigma: float) -> float:
        return _interpolate(self.xs, self.ys, sigma)


def _interpolate(xs: Sequence[float], ys: Sequence[float], x: float) -> float:
    """Piecewise-linear through the samples (xs ascending), flat outside them."""
    if x <= xs[0]:
        return ys[0]
    if x >= xs[-1]:
        return ys[-1]
    hi = bisect.bisect_right(xs, x)
    lo = hi - 1
    frac = (x - xs[lo]) / (xs[hi] - xs[lo])
    return ys[lo] + frac * (ys[hi] - ys[lo])


def zwick_exponent(curve_or_pair) -> tuple[float, float]:
    """Optimal cutoff for the sampled-distance-product APSP iteration.

    The adversarial iteration parameter sigma = log s / log n maximizes the
    cheaper of the two available distance-product strategies; returns
    (sigma*, exponent) at that maximum.  Accepts either an OmegaCurve (both
    strategy costs derived analytically) or a (left, right) pair of
    SampledCost curves.
    """
    if isinstance(curve_or_pair, OmegaCurve):
        left = _zwick_left_exponent
        right = lambda s: _zwick_right_exponent(s, curve_or_pair)
    else:
        lcurve, rcurve = curve_or_pair
        left, right = lcurve, rcurve

    def value(s: float) -> float:
        return min(left(s), right(s))

    # coarse grid, then golden-section refinement around the best cell
    grid = [i / 2000 for i in range(0, 2001)]
    best = max(grid, key=value)
    lo = max(0.0, best - 1e-3)
    hi = min(1.0, best + 1e-3)
    phi = (math.sqrt(5) - 1) / 2
    x1 = hi - phi * (hi - lo)
    x2 = lo + phi * (hi - lo)
    while hi - lo > ZWICK_TOL * 0.1:
        if value(x1) < value(x2):
            lo, x1 = x1, x2
            x2 = lo + phi * (hi - lo)
        else:
            hi, x2 = x2, x1
            x1 = hi - phi * (hi - lo)
    sigma = 0.5 * (lo + hi)
    return sigma, value(sigma)


def load_curve_file(path) -> OmegaCurve:
    """Omega curve from a text file of 'gamma omega' lines ('#' comments)."""
    pairs = _read_pairs(path)
    return OmegaCurve.from_samples(pairs)


def load_cost_file(path) -> SampledCost:
    """Cost curve from a text file of 'sigma exponent' lines."""
    return SampledCost(_read_pairs(path))


def _read_pairs(path) -> list[tuple[float, float]]:
    pairs = []
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"malformed curve line: {line!r}")
            pairs.append((float(parts[0]), float(parts[1])))
    if not pairs:
        raise ValueError("empty curve file")
    return pairs


def bundled_zwick_curves() -> tuple[SampledCost, SampledCost]:
    """The two strategy cost curves sampled from the published optimization plot."""
    data = importlib.resources.files("cliquealg").joinpath("data")

    def load(name: str) -> SampledCost:
        with importlib.resources.as_file(data.joinpath(name)) as path:
            return load_cost_file(path)

    return load("zwick_semiring_cost.txt"), load("zwick_algebraic_cost.txt")
