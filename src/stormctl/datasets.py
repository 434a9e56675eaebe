"""Bundled reference traces; the packet traces are loadable by name.

Packet traces are (t_ms, packets-per-interval) pairs sampled on a 0.1 ms
grid (with a few gaps, kept as-is):

  table1 -- full broadcast storm: build-up to peak, then decline to zero.
  table3 -- the same storm's rise, ending just past the peak; the usual
            fitting input.
  table4 -- normal broadcast traffic: a ~3 ms burst hump that returns to
            zero, repeating; the second partial hump is kept verbatim.
            Source rows past t=7.5 carry no counts and are omitted.
  table5 -- byte-denominated control run: (t_s, broadcast MB per
            interval, threshold MB) under one-second suppression windows.
            Kept as `TABLE5`; it holds no packet counts, so no command
            loads it.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter

from .growth import TracePoint

TABLE1 = (
    (0.0, 0), (0.1, 1900), (0.2, 3200), (0.3, 4200), (0.4, 5200),
    (0.5, 6600), (0.6, 7600), (0.7, 8900), (0.8, 9900), (0.9, 11100),
    (1.0, 16400), (1.1, 25900), (1.2, 35300), (1.3, 44500), (1.4, 54300),
    (1.5, 63300), (1.6, 72700), (1.7, 82000), (1.8, 91300), (1.9, 107200),
    (2.2, 90720), (2.3, 79000), (2.4, 68400), (2.5, 57900), (2.7, 47600),
    (2.8, 26300), (2.9, 15800), (3.0, 5200), (3.1, 0),
)

TABLE3 = TABLE1[:22]     # the rise, through 2.3 ms, just past the peak

TABLE4 = (
    (0.0, 0), (0.1, 400), (0.2, 1400), (0.3, 2400), (0.4, 3750),
    (0.5, 5000), (0.6, 6400), (0.7, 8150), (0.8, 10000), (0.9, 12500),
    (1.0, 14650), (1.1, 18760), (1.2, 21800), (1.3, 24800), (1.4, 28000),
    (1.5, 30800), (1.6, 33400), (1.7, 36000), (1.8, 40000), (1.9, 32000),
    (2.2, 25000), (2.3, 18000), (2.4, 14400), (2.5, 11800), (2.7, 7000),
    (2.8, 4000), (2.9, 1800), (3.0, 0), (3.1, 0), (4.0, 0), (5.0, 0),
    (6.0, 0), (6.1, 800), (6.2, 1800), (6.3, 3100), (6.4, 4200),
    (6.5, 5700), (6.6, 6200), (6.7, 10800), (6.8, 11000), (7.0, 15000),
    (7.1, 17000), (7.3, 22000), (7.4, 25000), (7.5, 26200),
)

# (t_s, broadcast MB in the interval, configured threshold MB)
TABLE5 = (
    (0.00, 0.0, 2.5), (0.10, 0.0, 2.5), (0.25, 0.6, 2.5), (0.50, 1.5, 2.5),
    (0.75, 2.5, 2.5), (0.77, 2.5, 2.5), (0.90, 0.0, 2.5), (1.00, 0.0, 2.5),
    (1.10, 0.0, 2.5), (1.25, 0.5, 2.5), (1.50, 1.4, 2.5), (1.75, 2.5, 2.5),
    (1.78, 2.5, 2.5), (1.90, 0.0, 2.5), (2.00, 0.0, 2.5), (2.10, 0.0, 2.5),
    (2.25, 0.4, 2.5), (2.50, 1.1, 2.5), (2.75, 2.5, 2.5), (2.78, 2.5, 2.5),
    (2.90, 0.0, 2.5), (3.00, 0.0, 2.5), (3.10, 0.0, 2.5), (3.25, 0.4, 2.5),
    (3.50, 1.2, 2.5), (3.70, 2.5, 2.5), (3.74, 2.5, 2.5), (3.90, 0.0, 2.5),
    (4.00, 0.0, 2.5),
)

PACKET_TRACES = {
    "table1": TABLE1,
    "table3": TABLE3,
    "table4": TABLE4,
}


def dataset_names() -> list[str]:
    """The traces `load_trace` reads: the packet traces."""
    return sorted(PACKET_TRACES)


def load_trace(name: str) -> list[TracePoint]:
    """A bundled packet trace as TracePoints; KeyError for unknown names."""
    try:
        rows = PACKET_TRACES[name]
    except KeyError:
        raise KeyError(
            f"unknown dataset {name!r}; packet traces: {sorted(PACKET_TRACES)}"
        ) from None
    return [TracePoint(t, float(c)) for t, c in rows]


def table4_hump() -> list[TracePoint]:
    """The canonical normal burst: the t <= 3.0 ms segment of table4."""
    return [TracePoint(t, float(c)) for t, c in TABLE4 if t <= 3.0]


def interpolate(points: list[TracePoint], t: float) -> float:
    """Piecewise-linear value of a trace at time t; 0 outside its span.

    `points` must be sorted by time; repeated times are allowed.  The
    value comes from the first segment that ends at or after t.
    """
    if not points or t < points[0].t or t > points[-1].t:
        return 0.0
    i = bisect_left(points, t, 1, key=itemgetter(0))
    if i == len(points):        # a single point
        return float(points[-1].count)
    (t0, c0), (t1, c1) = points[i - 1], points[i]
    if t1 == t0:
        return float(c1)
    return c0 + (c1 - c0) * (t - t0) / (t1 - t0)
