"""Open-arrival traffic processes for client populations.

A closed-loop terminal (the paper's MPL-1 client) submits its next
transaction only after the previous one finishes; response time feeds
back into offered load. An *open* arrival process decouples the two: the
population submits work at a rate of its own, and the system either
keeps up or visibly saturates — the regime that matters at 10⁴–10⁶
logical users.

Three processes, all driven by one dedicated ``random.Random`` stream
per client site so trajectories replay bit-identically:

* :class:`PoissonArrivals` — homogeneous Poisson: exponential
  inter-arrival times at a constant rate (inversion sampling).
* :class:`BurstArrivals` — on/off modulated Poisson: the first
  ``on_fraction`` of every ``period`` runs at ``burst_factor`` times the
  base rate, the remainder at a reduced rate chosen so the *long-run
  mean equals the base rate* (burstiness is redistribution, not extra
  load).
* :class:`DiurnalArrivals` — sinusoidally modulated Poisson:
  ``rate(t) = base * (1 + amplitude * sin(2*pi*t/period))``.

The modulated processes sample by Lewis-Shedler thinning against their
peak rate: candidate points from a homogeneous Poisson at ``peak_rate``
are accepted with probability ``rate(t)/peak_rate``. Thinning is exact
(no discretisation) and deterministic given the stream.
"""

import math


def _exponential(random, rate):
    """One Exp(rate) draw by inversion (1-u keeps log's argument > 0)."""
    return -math.log(1.0 - random()) / rate


class PoissonArrivals:
    """Homogeneous Poisson arrivals at a constant ``rate``."""

    __slots__ = ("rate", "_random")

    def __init__(self, rng, rate):
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate!r}")
        self.rate = rate
        self._random = rng.random

    def rate_at(self, when):
        return self.rate

    def next_arrival(self, now):
        """Absolute time of the next arrival after ``now``."""
        return now + _exponential(self._random, self.rate)


class _ModulatedArrivals:
    """Non-homogeneous Poisson via thinning; subclasses define rate_at."""

    __slots__ = ("rate", "peak_rate", "_random")

    def __init__(self, rng, rate, peak_rate):
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate!r}")
        self.rate = rate
        self.peak_rate = peak_rate
        self._random = rng.random

    def rate_at(self, when):
        raise NotImplementedError

    def next_arrival(self, now):
        random = self._random
        peak = self.peak_rate
        when = now
        while True:
            when += _exponential(random, peak)
            if random() * peak <= self.rate_at(when):
                return when


class BurstArrivals(_ModulatedArrivals):
    """On/off bursts with the long-run mean pinned to the base rate.

    Within each ``period``: the on-phase (first ``on_fraction``) runs at
    ``burst_factor * rate``; the off-phase at
    ``rate * (1 - on_fraction*burst_factor) / (1 - on_fraction)`` ≥ 0
    (validated), so ``mean == rate`` exactly.
    """

    __slots__ = ("period", "on_fraction", "on_rate", "off_rate")

    def __init__(self, rng, rate, burst_factor=6.0, on_fraction=0.1,
                 period=2000.0):
        if not 0.0 < on_fraction < 1.0:
            raise ValueError(f"on_fraction must be in (0, 1), "
                             f"got {on_fraction!r}")
        if burst_factor < 1.0:
            raise ValueError(f"burst_factor must be >= 1, "
                             f"got {burst_factor!r}")
        if burst_factor * on_fraction > 1.0:
            raise ValueError(
                f"burst_factor {burst_factor!r} x on_fraction "
                f"{on_fraction!r} > 1: off-phase rate would be negative")
        if period <= 0:
            raise ValueError(f"period must be positive, got {period!r}")
        on_rate = rate * burst_factor
        super().__init__(rng, rate, peak_rate=on_rate)
        self.period = period
        self.on_fraction = on_fraction
        self.on_rate = on_rate
        self.off_rate = (rate * (1.0 - on_fraction * burst_factor)
                         / (1.0 - on_fraction))

    def rate_at(self, when):
        phase = (when % self.period) / self.period
        return self.on_rate if phase < self.on_fraction else self.off_rate


class DiurnalArrivals(_ModulatedArrivals):
    """Sinusoidal day/night modulation around the base rate."""

    __slots__ = ("period", "amplitude")

    def __init__(self, rng, rate, period=20000.0, amplitude=0.8):
        if period <= 0:
            raise ValueError(f"period must be positive, got {period!r}")
        if not 0.0 <= amplitude < 1.0:
            raise ValueError(f"amplitude must be in [0, 1), "
                             f"got {amplitude!r}")
        super().__init__(rng, rate, peak_rate=rate * (1.0 + amplitude))
        self.period = period
        self.amplitude = amplitude

    def rate_at(self, when):
        return self.rate * (1.0 + self.amplitude
                            * math.sin(2.0 * math.pi * when / self.period))


def make_arrivals(config, rng, rate):
    """The configured arrival process for one site at ``rate`` txn/unit."""
    kind = config.arrival
    if kind == "poisson":
        return PoissonArrivals(rng, rate)
    if kind == "burst":
        return BurstArrivals(rng, rate)
    if kind == "diurnal":
        return DiurnalArrivals(rng, rate)
    raise ValueError(f"unknown arrival process {kind!r}")
