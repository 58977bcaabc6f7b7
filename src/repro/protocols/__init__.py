"""Concurrency-control protocols for the data-shipping client-server system.

* :mod:`repro.protocols.s2pl` — the server-based strict two-phase locking
  baseline (§3.1 of the paper).
* :mod:`repro.protocols.g2pl` — the group two-phase locking protocol: lock
  grouping with forward lists and collection windows (§3.2), precedence-graph
  deadlock avoidance (§3.3) and MR1W (§3.4), plus the paper's future-work
  read-only optimization and forward-list ordering disciplines.
* :mod:`repro.protocols.c2pl` — caching 2PL with server callbacks (the
  s-2PL variation sketched in §3.1, used by the A5 ablation).
"""

from repro._lazy import lazy_exports

__all__ = [
    "FLEntry",
    "ForwardList",
    "PrecedenceGraph",
    "ProtocolClient",
    "ProtocolServer",
    "Transaction",
    "TxnOutcome",
    "TxnRef",
    "TxnStatus",
    "available_protocols",
    "make_protocol",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.protocols.base": ("ProtocolClient", "ProtocolServer",
                             "TxnOutcome"),
    "repro.protocols.forward_list": ("FLEntry", "ForwardList", "TxnRef"),
    "repro.protocols.precedence": ("PrecedenceGraph",),
    "repro.protocols.registry": ("available_protocols", "make_protocol"),
    "repro.protocols.transaction": ("Transaction", "TxnStatus"),
})
