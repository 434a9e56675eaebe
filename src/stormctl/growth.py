"""Broadcast storm build-up model.

A storm's packet transmission rate (PTR) over time is modeled as

    P(t) = a*t + b*t*exp(m*t)

with coefficients derived from the normal and peak traffic rates:

    a = 2*pi*(Pe - Ps) / m
    b = 2*pi*Ps

where Ps is the start-of-interval rate (packets per interval), Pe the
safe threshold rate, and m the growth constant (1/ms).  Time is in
milliseconds throughout.  P(0) == 0 exactly by construction.

`fit_model` recovers (Ps, Pe, m) from an observed trace.  For a fixed m
the curve is linear in its coefficients, so the least-squares a and b
are solved exactly (with Ps >= 0 and Pe >= 0 held), and only m is
searched: variable projection (Golub & Pereyra, SIAM J. Numer. Anal.
10(2), 1973).  Each solve also gives the derivative of the residual sum
of squares (RSS) in m, by the envelope theorem, from the loop that sums
the residuals.  The search scans a 5-cell geometric grid over a
declared domain of m, which only picks a basin, then starts at the
grid's best point and takes secant steps on that derivative inside the
grid cells beside it, with bisection as the safeguard and the lowest
RMSE solved kept (Brent, Algorithms for Minimization Without
Derivatives, 1973, ch. 4; Press et al.'s `dbrent`, Numerical Recipes,
10.3).  Where the RSS rises from a domain edge into the domain, the
edge is the minimum and no search runs.  A fit takes a median of 12
solves on the benchmark's captures, and 6, the grid's, on the
calibration inputs, whose RSS rises from the domain's floor.
The domain's top is lowered per trace so that e^(m t) stays finite over
the rise.  The least-squares sums that do not depend on m are taken once
per trace; the rest, once per m, in the one loop that builds the basis.
Every sum, the RMSE's and the derivative's too, is a plain loop in rise
order, never `sum()`, which Python 3.12+ compensates (Neumaier
summation): the fit's bits are the same on every Python version.  A
golden test fits under a `sum` that compensates as 3.12+ does; it has
not been run on a 3.12 interpreter.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

TAU = math.tau  # 2*pi

# domain of the growth constant m (1/ms) that the fit searches; declared
# constants so runs are reproducible
FIT_M_MIN = 0.025
FIT_M_MAX = 10.05

_GRID_CELLS = 5                          # geometric cells of the coarse grid
_M_RTOL = 1e-9                           # the search's tolerance, relative to m
_G_MAX_LOG = 256 * math.log(2.0)         # rises keep t*e^(m t) <= 2**256


class FitError(ValueError):
    """Raised when a trace cannot be fitted."""


class TracePoint(NamedTuple):
    t: float      # ms
    count: float  # packets observed in the interval ending at t


@dataclass(frozen=True)
class PtrModelParams:
    """Growth-curve parameters; a and b are derived, not free."""

    p_start: float  # Ps, packets per interval at t=0
    p_end: float    # Pe, safe threshold rate
    m: float        # growth constant, 1/ms
    a: float = field(init=False)
    b: float = field(init=False)

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.p_start, self.p_end, self.m))):
            raise ValueError("rates and growth constant m must be finite")
        if self.m == 0:
            raise ValueError("growth constant m must be nonzero")
        if self.p_start < 0 or self.p_end < 0:
            raise ValueError("rates must be nonnegative")
        object.__setattr__(self, "a", TAU * (self.p_end - self.p_start) / self.m)
        object.__setattr__(self, "b", TAU * self.p_start)


@dataclass(frozen=True)
class PtrArray:
    """Sampled PTR curve: values[k] is the rate at t_start + k*step."""

    t_start: float       # ms
    step: float          # ms
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.step <= 0:
            raise ValueError("step must be positive")
        if not self.values:
            raise ValueError("values must be non-empty")

    def __len__(self) -> int:
        return len(self.values)

    def t_at(self, k: int) -> float:
        return self.t_start + k * self.step


class FitResult(NamedTuple):
    params: PtrModelParams
    rmse: float


def make_params(p_start: float, p_end: float, m: float) -> PtrModelParams:
    """Build model parameters, deriving a and b from (Ps, Pe, m)."""
    return PtrModelParams(p_start=p_start, p_end=p_end, m=m)


def eval_ptr(params: PtrModelParams, t: float) -> float:
    """Instantaneous PTR at time t (ms).  t must be nonnegative."""
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    return params.a * t + params.b * t * math.exp(params.m * t)


def build_ptr_array(
    params: PtrModelParams,
    t_start: float,
    t_end: float,
    step: float = 1.0,
) -> PtrArray:
    """Sample the curve on [t_start, t_end] at the given step.

    Values are clamped to [0, p_end]: the array is a packet-rate plan, so
    it never dips below zero (a fit with p_start > p_end starts negative)
    and never runs past the threshold rate.  t_end == t_start yields one
    sample.
    """
    if t_start < 0:
        raise ValueError("t_start must be nonnegative")
    if t_end < t_start:
        raise ValueError(f"empty range: t_end {t_end} < t_start {t_start}")
    if step <= 0:
        raise ValueError("step must be positive")
    n = int((t_end - t_start) / step + 1e-9) + 1
    values = tuple(
        max(0.0, min(eval_ptr(params, t_start + k * step), params.p_end))
        for k in range(n)
    )
    return PtrArray(t_start=t_start, step=step, values=values)


def rise_segment(trace: Sequence[TracePoint]) -> list[TracePoint]:
    """The build-up portion of a trace: everything up to the first peak."""
    peak = max(range(len(trace)), key=lambda i: (trace[i].count, -i))
    return list(trace[: peak + 1])


def _as_points(trace: Iterable) -> list[TracePoint]:
    return [TracePoint(float(t), float(c)) for t, c in trace]


def _solver(ts: Sequence[float], ys: Sequence[float]):
    """Least-squares (a, b) for fixed m, honoring Ps >= 0 and Pe >= 0.

    Returns solve(m) -> (a, b, rmse, drss) for this rise, where drss is
    the derivative of the residual sum of squares in m.  At the least-
    squares (a, b) it is the partial derivative with a and b held (the
    envelope theorem), so with r = a*t + b*g - y and g = t*exp(m*t) it
    is 2b * sum(r*t*g) inside the constraints, 2b * sum(r*t*(g + 1/m^2))
    on Pe = 0, where a = -b/m moves with m, and 0 on Ps = 0.  The sums
    that do not depend on m are taken once, here.  Every sum is a plain
    loop that adds its products in rise order, never `sum()`, which
    Python 3.12+ compensates: the bits are the same on every version.
    Uses explicit normal equations so results do not depend on any
    linear-algebra backend.
    """
    n = len(ts)
    exp = math.exp
    s_tt = s_ty = 0.0
    for t, y in zip(ts, ys):
        s_tt += t * t
        s_ty += t * y

    def rmse_of(a: float, b: float, gs: list[float]):
        """The RMSE of a*t + b*g, and the sum of r*t*g."""
        acc = s_rtg = 0.0
        for t, g, y in zip(ts, gs, ys):
            r = a * t + b * g - y
            acc += r * r
            s_rtg += r * t * g
        return math.sqrt(acc / n), s_rtg

    def solve(m: float):
        gs = []
        s_gg = s_tg = s_gy = 0.0
        for t, y in zip(ts, ys):
            g = t * exp(m * t)
            gs.append(g)
            s_gg += g * g
            s_tg += t * g
            s_gy += g * y
        det = s_tt * s_gg - s_tg * s_tg
        if det > 0:
            a = (s_ty * s_gg - s_gy * s_tg) / det
            b = (s_gy * s_tt - s_ty * s_tg) / det
            # Ps = b/tau, Pe = Ps + a*m/tau
            if b >= 0 and b + a * m >= 0:
                rmse, s_rtg = rmse_of(a, b, gs)
                return a, b, rmse, 2 * b * s_rtg

        candidates = []
        # boundary Ps = 0: pure linear term, need Pe >= 0 i.e. a >= 0
        if s_tt > 0:
            a0 = max(s_ty / s_tt, 0.0)
            candidates.append((a0, 0.0))
        # boundary Pe = 0: a = -b/m, basis h = t*exp(m*t) - t/m
        s_hh = s_gg - 2 * s_tg / m + s_tt / (m * m)
        s_hy = s_gy - s_ty / m
        if s_hh > 0:
            b0 = max(s_hy / s_hh, 0.0)
            candidates.append((-b0 / m, b0))
        candidates.append((0.0, 0.0))
        a, b, rmse, s_rtg = min(
            ((a, b, *rmse_of(a, b, gs)) for a, b in candidates),
            key=lambda c: c[2],
        )
        if not b:
            return a, b, rmse, 0.0
        # on Pe = 0, a = -b/m moves with m too
        s_rt = 0.0
        for t, g, y in zip(ts, gs, ys):
            s_rt += (a * t + b * g - y) * t
        return a, b, rmse, 2 * b * (s_rtg + s_rt / (m * m))

    return solve


def _m_top(t_end: float) -> float:
    """Top of the m domain for a rise that ends at t_end (ms).

    It keeps t*e^(m t) <= 2**256 at every time of the rise, so every sum
    of `_solver`, and every product of two sums, stays finite.
    """
    if t_end <= 0:
        return FIT_M_MAX
    return min(FIT_M_MAX, (_G_MAX_LOG - math.log(t_end)) / t_end)


def _grid(top: float) -> list[float]:
    """The coarse grid: _GRID_CELLS geometric cells from FIT_M_MIN to top."""
    ratio = top / FIT_M_MIN
    return [FIT_M_MIN * ratio ** (k / _GRID_CELLS)
            for k in range(_GRID_CELLS)] + [top]


def _search(solve, lo: float, x: float, sx, hi: float, w: float,
            dw: float):
    """(m, solve(m)) at a local minimum of the RMSE between lo and hi.

    x is the lowest point solved and sx its solve; the RMSE at lo and hi
    is no lower, or x is on one of them, a domain edge.  w is a point
    solved beside x and dw its derivative.  Each step solves the zero
    of the derivative's secant through x and the last other point
    solved, or the midpoint of x's longer side where that zero falls
    outside the bracket or the step does not halve the step before last
    (Brent's safeguard); a step shorter than _M_RTOL x is lengthened to
    that.  A point lower than x becomes x, and one no lower an end.

    Once a step changes the RMSE by no more than _M_RTOL of itself, the
    RMSE's differences are rounding, and the sign of the derivative at x
    rules out one side of it.  Not before: near an exact fit the RMSE
    falls linearly into its minimum, and the derivative there can be
    all rounding, from the ill-conditioned least-squares (a, b), while
    the RMSE is not.  Stops once both sides of x are within 2 _M_RTOL x,
    or the derivative at x is 0.
    """
    last = before = hi - lo
    while True:
        dx = sx[3]
        tol = _M_RTOL * x
        if not dx or max(x - lo, hi - x) <= 2 * tol:
            return x, sx
        far = lo if x - lo > hi - x else hi
        u = x - dx * (w - x) / (dw - dx) if dw != dx else far
        if lo < u < hi and abs(u - x) < 0.5 * before:
            before, last = last, abs(u - x)
        else:
            u = 0.5 * (x + far)
            before = last = abs(u - x)
        if last < tol:
            u = x + math.copysign(tol, far - x)
        su = solve(u)
        flat = abs(su[2] - sx[2]) <= _M_RTOL * sx[2]
        if su[2] < sx[2]:
            if u > x:
                lo = x
            else:
                hi = x
            w, dw = x, dx
            x, sx = u, su
        else:
            if u > x:
                hi = u
            else:
                lo = u
            w, dw = u, su[3]
        if flat:
            if sx[3] > 0:
                hi = x
            elif sx[3] < 0:
                lo = x


def fit_model(trace: Iterable) -> FitResult:
    """Fit (Ps, Pe, m) to a trace, minimizing RMSE over its rise segment.

    The trace is (t, count) pairs with strictly increasing t.  A leading
    (0, 0) point is prepended when absent.  Deterministic: the same
    input always produces bitwise-identical parameters.

    m is searched on the grid, then by `_search` in the cell between the
    grid's best point and its neighbour on the side where the RSS falls.
    Where that side is off the domain, the edge is the fit, from the
    grid's solves alone.
    """
    points = _as_points(trace)
    if not all(map(math.isfinite, itertools.chain.from_iterable(points))):
        raise FitError("trace times and counts must be finite")
    if any(b.t <= a.t for a, b in zip(points, points[1:])):
        raise FitError("trace times must be strictly increasing")
    if points and points[0].t < 0:
        raise FitError("trace times must be nonnegative")
    if points and points[0].t > 0:
        points.insert(0, TracePoint(0.0, 0.0))
    rise = rise_segment(points) if points else []
    if len(rise) < 4:
        raise FitError(f"need at least 4 points in the rise, got {len(rise)}")
    peak = rise[-1].count
    if peak <= 0:
        raise FitError("trace shows no growth to fit")
    top = _m_top(rise[-1].t)
    if top < FIT_M_MIN:
        raise FitError(f"a rise of {rise[-1].t:g} ms is too long to fit: "
                       f"t*e^(m t) passes 2**256 for every m from "
                       f"{FIT_M_MIN:g}")

    # the counts are solved with their peak in [0.5, 1): scaling by a
    # power of two is exact, and the squared residuals of tiny counts no
    # longer underflow, nor those of huge ones overflow
    scale = math.frexp(peak)[1]
    solve = _solver([p.t for p in rise],
                    [math.ldexp(p.count, -scale) for p in rise])
    grid = _grid(top)
    sols = [solve(m) for m in grid]
    i = min(range(len(grid)), key=lambda k: sols[k][2])
    best_m, best = grid[i], sols[i]
    # the search runs in the grid's cells on both sides of its best point,
    # starting toward the one its derivative points down into; where that
    # is off the domain's edge, the edge is the minimum
    k = i - 1 if best[3] > 0 else i + 1
    if best[3] and 0 <= k < len(grid):
        best_m, best = _search(solve, grid[max(i - 1, 0)], best_m, best,
                               grid[min(i + 1, len(grid) - 1)],
                               grid[k], sols[k][3])

    a, b, rmse = (math.ldexp(x, scale) for x in best[:3])
    p_start = b / TAU
    p_end = max(p_start + a * best_m / TAU, 0.0)
    return FitResult(make_params(p_start, p_end, best_m), rmse)
