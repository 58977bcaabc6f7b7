"""Measurement: metrics collection, warmup elimination, confidence intervals.

The paper's methodology (§5): the transient phase is eliminated, each run
generates a fixed number of transactions after it, and 95% confidence
intervals on the mean response time are computed from independent
replications (relative precision ≤ 2% in the paper's full-scale runs).
"""

from repro._lazy import lazy_exports

__all__ = [
    "ConfidenceInterval",
    "MetricsCollector",
    "ReservoirSampler",
    "RunMetrics",
    "RunningStat",
    "StreamingMetrics",
    "Welford",
    "WindowedThroughput",
    "mean_confidence_interval",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.stats.ci": ("ConfidenceInterval", "mean_confidence_interval"),
    "repro.stats.collector": ("MetricsCollector", "RunMetrics",
                              "StreamingMetrics"),
    "repro.stats.streaming": ("ReservoirSampler", "RunningStat", "Welford",
                              "WindowedThroughput"),
})
