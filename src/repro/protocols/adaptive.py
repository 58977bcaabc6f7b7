"""Hybrid g-2PL: the server behind the ``hybrid`` protocol.

Each item hops between two service modes on a streaming contention
score (:class:`~repro.adapt.controller.ContentionController`).
``"single"`` is s-2PL-equivalent service expressed in the g-2PL chassis:
one grant unit per chain (one writer, or one shared read group), readers
graft onto writer-free chains exactly as a shared lock would admit them,
and every release comes home before the next grant — the 2-hop
release/grant round of a central lock manager. ``"grouped"`` is full
g-2PL batching. Transitions are epoch-stamped and apply at the next
window freeze, so an in-flight chain is never reshaped — that is the
whole drain story.

The clients are plain :class:`~repro.protocols.g2pl.G2PLClient`: both
modes ship ordinary forward lists.
"""

from repro.adapt.controller import ContentionController
from repro.locking.modes import LockMode
from repro.protocols.g2pl import G2PLServer


class AdaptiveG2PLServer(G2PLServer):
    """g-2PL server with a per-item contention controller."""

    gauges = G2PLServer.gauges + (
        ("hybrid_single_items", "single_mode_items"),)

    #: every item's controller settings. A freeze depth of 1 scores 0.25
    #: at this scale, so low=0.3 ~= "windows are mostly singletons" and
    #: high=0.5 ~= "three-deep backlogs".
    tuning = dict(low=0.3, high=0.5, ewma_alpha=0.3, scale=3.0)

    def __init__(self, sim, config, store, history, **kwargs):
        super().__init__(sim, config, store, history, **kwargs)
        self._contention_ctls = {}        # item_id -> ContentionController
        # statistics
        self.mode_switches = 0
        self.windows_single = 0
        self.windows_grouped = 0

    def _contention(self, item_id):
        ctl = self._contention_ctls.get(item_id)
        if ctl is None:
            ctl = self._contention_ctls[item_id] = ContentionController(
                **self.tuning)
        return ctl

    # -- hook overrides ------------------------------------------------------

    def _graft_allowed(self, info):
        if self._contention(info.item_id).mode == "single":
            # Single mode == shared-lock compatibility: a reader joins a
            # writer-free grant unit unconditionally.
            return True
        return super()._graft_allowed(info)

    def _select_window(self, info, order):
        if self._contention(info.item_id).mode == "single":
            self.windows_single += 1
            mode_of = {w.ref.txn_id: w.mode for w in info.window}
            cut = 1
            if mode_of[order[0]] is LockMode.READ:
                while (cut < len(order)
                       and mode_of[order[cut]] is LockMode.READ):
                    cut += 1
            return order[:cut], order[cut:]
        self.windows_grouped += 1
        return super()._select_window(info, order)

    def _maybe_dispatch(self, info):
        if info.chain is not None or not info.window:
            return
        # Observe the depth this freeze sees, then decide: a switch
        # applies to this window onward, never to a chain in flight.
        item_id = info.item_id
        ctl = self._contention(item_id)
        ctl.observe(len(info.window))
        switched = ctl.decide()
        if switched is not None:
            self.mode_switches += 1
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.row("hybrid.switch", item_id, switched, ctl.epoch,
                           round(ctl.score(), 4))
        super()._maybe_dispatch(info)

    # -- diagnostics ---------------------------------------------------------

    def single_mode_items(self):
        """Items currently routed to s-2PL-equivalent single mode."""
        return sum(1 for ctl in self._contention_ctls.values()
                   if ctl.mode == "single")

    def stats(self):
        """The g-2PL counters plus the window ledger and the controller's
        counters (plain runs must keep their fingerprints, so only this
        class reports them)."""
        stats = super().stats()
        stats["window_enqueued"] = self.window_enqueued
        stats["window_frozen"] = self.window_frozen
        stats["window_purged"] = self.window_purged
        stats["mode_switches"] = self.mode_switches
        stats["windows_single"] = self.windows_single
        stats["windows_grouped"] = self.windows_grouped
        return stats
