"""Student-t confidence intervals over replication means."""

import math
from dataclasses import dataclass

# Two-sided Student-t critical values, complete for dof 1-30 at the three
# standard confidence levels; past dof 30 the normal quantile is used (the
# conventional large-sample approximation, within 0.05 of the exact value).
# scipy, when installed, serves any other confidence level exactly; without
# scipy a non-tabulated level raises rather than silently answering the
# 95% question.
_T_TABLES = {
    0.90: ({1: 6.314, 2: 2.920, 3: 2.353, 4: 2.132, 5: 2.015, 6: 1.943,
            7: 1.895, 8: 1.860, 9: 1.833, 10: 1.812, 11: 1.796, 12: 1.782,
            13: 1.771, 14: 1.761, 15: 1.753, 16: 1.746, 17: 1.740, 18: 1.734,
            19: 1.729, 20: 1.725, 21: 1.721, 22: 1.717, 23: 1.714, 24: 1.711,
            25: 1.708, 26: 1.706, 27: 1.703, 28: 1.701, 29: 1.699, 30: 1.697},
           1.645),
    0.95: ({1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447,
            7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228, 11: 2.201, 12: 2.179,
            13: 2.160, 14: 2.145, 15: 2.131, 16: 2.120, 17: 2.110, 18: 2.101,
            19: 2.093, 20: 2.086, 21: 2.080, 22: 2.074, 23: 2.069, 24: 2.064,
            25: 2.060, 26: 2.056, 27: 2.052, 28: 2.048, 29: 2.045, 30: 2.042},
           1.960),
    0.99: ({1: 63.657, 2: 9.925, 3: 5.841, 4: 4.604, 5: 4.032, 6: 3.707,
            7: 3.499, 8: 3.355, 9: 3.250, 10: 3.169, 11: 3.106, 12: 3.055,
            13: 3.012, 14: 2.977, 15: 2.947, 16: 2.921, 17: 2.898, 18: 2.878,
            19: 2.861, 20: 2.845, 21: 2.831, 22: 2.819, 23: 2.807, 24: 2.797,
            25: 2.787, 26: 2.779, 27: 2.771, 28: 2.763, 29: 2.756, 30: 2.750},
           2.576),
}


def _t_critical(confidence, dof):
    if dof < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {dof}")
    for level, (table, normal) in _T_TABLES.items():
        if abs(confidence - level) < 1e-9:
            return table[dof] if dof <= 30 else normal
    try:
        from scipy import stats as scipy_stats

        return float(scipy_stats.t.ppf(0.5 + confidence / 2.0, dof))
    except ImportError:
        raise ValueError(
            f"confidence level {confidence} is not tabulated "
            f"({sorted(_T_TABLES)} are) and scipy is not installed; "
            f"install scipy or use a tabulated level") from None


@dataclass(frozen=True)
class ConfidenceInterval:
    """A sample mean with its two-sided confidence half-width."""

    mean: float
    half_width: float
    confidence: float
    n: int

    def __str__(self):
        return f"{self.mean:.4g} ± {self.half_width:.3g} ({self.n} runs)"


def mean_confidence_interval(samples, confidence=0.95):
    """95% (by default) CI on the mean of independent ``samples``.

    A single sample yields a zero-width interval (no variance estimate),
    which the caller should treat as "precision unknown".
    """
    samples = [float(s) for s in samples]
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    mean = sum(samples) / n
    if n == 1:
        return ConfidenceInterval(mean=mean, half_width=0.0,
                                  confidence=confidence, n=1)
    variance = sum((s - mean) ** 2 for s in samples) / (n - 1)
    half = _t_critical(confidence, n - 1) * math.sqrt(variance / n)
    return ConfidenceInterval(mean=mean, half_width=half,
                              confidence=confidence, n=n)
