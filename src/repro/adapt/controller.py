"""The hybrid protocol's contention controller and its estimator.

Everything here is pure arithmetic over streamed observations — no
simulator handles, no message types, no randomness — so the controller
is unit-testable in isolation and reusable by both the simulated and
live protocol stacks.
"""


class EwmaEstimator:
    """Exponentially weighted moving average with a "no sample yet" state.

    ``alpha`` is the weight of the newest sample: ``1.0`` tracks the last
    sample exactly, small values average over roughly ``1/alpha`` samples.
    """

    __slots__ = ("alpha", "value", "samples")

    def __init__(self, alpha):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self.value = None
        self.samples = 0

    def observe(self, sample):
        if self.value is None:
            self.value = float(sample)
        else:
            self.value += self.alpha * (float(sample) - self.value)
        self.samples += 1
        return self.value


class ContentionController:
    """Streaming contention score with hysteresis for one item.

    The raw signal is the window depth at each freeze — how many requests
    piled up while the item was away, i.e. the item's wait-for degree.
    Its EWMA ``d`` is squashed to a score in [0, 1)::

        score = d / (d + scale)

    ``scale`` is the depth at which the score reads 0.5. The mode is a
    hysteresis loop over the score:

    - score < ``low``  -> ``"single"``: s-2PL-equivalent service — one
      grant unit (one writer or one shared read group) per chain, reads
      graft onto writer-free chains exactly as a shared lock would grant,
      releases come home each round.
    - score > ``high`` -> ``"grouped"``: full g-2PL windows — batch the
      backlog into one forward list and pay one grant round for all of it.

    Between the thresholds the item keeps its current mode, so modes
    cannot flap on boundary noise. Each switch bumps the item's mode
    epoch; the switch takes effect at the *next* freeze, which is what
    makes transitions drain-safe (an in-flight chain is never reshaped).
    """

    __slots__ = ("low", "high", "scale", "depth", "mode", "epoch",
                 "switches")

    def __init__(self, low, high, ewma_alpha=0.3, scale=3.0,
                 initial_mode="grouped"):
        self.low = low
        self.high = high
        self.scale = scale
        self.depth = EwmaEstimator(ewma_alpha)
        self.mode = initial_mode
        self.epoch = 0
        self.switches = 0

    def score(self):
        d = self.depth.value
        if d is None:
            return 0.0
        return d / (d + self.scale)

    def observe(self, depth):
        self.depth.observe(depth)

    def decide(self):
        """Re-evaluate the mode; returns the new mode if it switched,
        else ``None``."""
        score = self.score()
        if self.mode == "grouped" and score < self.low:
            self.mode = "single"
        elif self.mode == "single" and score > self.high:
            self.mode = "grouped"
        else:
            return None
        self.epoch += 1
        self.switches += 1
        return self.mode

