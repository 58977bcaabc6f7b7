"""repro.adapt — the online controller that turns g-2PL into the
``hybrid`` protocol.

:class:`~repro.adapt.controller.ContentionController` keeps a streaming
contention score with hysteresis and drives per-item switching between
s-2PL-like single service and g-2PL grouped service
(:mod:`repro.protocols.adaptive`);
:class:`~repro.adapt.controller.EwmaEstimator` is its smoother.
"""

from repro._lazy import lazy_exports

__all__ = [
    "ContentionController",
    "EwmaEstimator",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.adapt.controller": ("ContentionController", "EwmaEstimator"),
})
