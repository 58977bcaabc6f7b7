"""Adaptive g-2PL: the protocol pair behind ``g2pl-adaptive``,
``hybrid`` and ``g2pl-spec``.

One server/client pair serves all three registry entries; which
controllers are live is decided by the ``adapt_window`` / ``hybrid`` /
``speculate`` config flags (the registry pins one per entry, and the
flags compose — ``--protocol hybrid --speculate`` runs both).

**Adaptive window sizing** (``adapt_window``): plain g-2PL only batches
while an item is away — a home item freezes whatever single request
arrives. The :class:`~repro.adapt.controller.WindowController` may hold
a home item's window open for a bounded, feedback-tuned interval so a
window can form *at* the server, trading first-request delay for longer
forward lists.

**Hybrid switching** (``hybrid``): each item hops between two service
modes on a streaming contention score. ``"single"`` is s-2PL-equivalent
service expressed in the g-2PL chassis: one grant unit per chain (one
writer, or one shared read group), readers graft onto writer-free
chains exactly as a shared lock would admit them, and every release
comes home before the next grant — the 2-hop release/grant round of a
central lock manager. ``"grouped"`` is full g-2PL batching. Transitions
are epoch-stamped and apply at the next window freeze, so an in-flight
chain is never reshaped — that is the whole drain story.

**Speculative dispatch** (``speculate``): with synchronized clocks and
a latency bound, quiescence of ``spec_margin x latency`` proves an away
item's window is final; the server pre-freezes it and ships it to the
chain's tail writer as a :class:`SpecExtend`, which splices it onto the
tail's forward list — the next window costs one handoff hop instead of
a return + grant round. A tail that already released declines (or is
simply missed), and the server re-dispatches the pre-frozen list itself
under a bumped epoch when the item lands: the same shape as PR 2's
chain repair, minus the fault reasoning (speculation rejects fault
injection outright, see config validation).
"""

from dataclasses import replace

from repro.adapt.controller import (
    ContentionController,
    SpeculationController,
    WindowController,
)
from repro.locking.modes import LockMode
from repro.protocols.forward_list import ForwardList
from repro.protocols.g2pl import G2PLClient, G2PLServer, dispatch_chain
from repro.protocols.messages import CONTROL_SIZE, SpecAck, SpecExtend
from repro.sim.timers import Timer


class _Speculation:
    """One outstanding pre-frozen window: the tail it was shipped to and
    the forward list it froze."""

    __slots__ = ("tail_txn", "fl")

    def __init__(self, tail_txn, fl):
        self.tail_txn = tail_txn
        self.fl = fl


class AdaptiveG2PLServer(G2PLServer):
    """g-2PL server with the repro.adapt controllers wired in."""

    # The window-occupancy signal the window controller feeds on (the same
    # reading as the lock-queue gauge), plus live controller state.
    gauges = G2PLServer.gauges + (
        ("window_occupancy", "queue_depth"),
        ("adapt_hold_pending", "hold_pending"),
        ("hybrid_single_items", "single_mode_items"),
        ("spec_outstanding", "spec_outstanding"))

    def __init__(self, sim, config, store, wal, history, **kwargs):
        super().__init__(sim, config, store, wal, history, **kwargs)
        self._adapt_window = config.adapt_window
        self._hybrid = config.hybrid
        self._speculate = config.speculate
        self._rng = None                  # dedicated adapt.controller stream
        self._window_ctls = {}            # item_id -> WindowController
        self._contention_ctls = {}        # item_id -> ContentionController
        self._spec_ctl = SpeculationController(
            config.spec_margin, config.network_latency)
        self._hold_timers = {}            # item_id -> Timer (home-item hold)
        self._spec_timers = {}            # item_id -> Timer (quiescence)
        self._spec = {}                   # item_id -> _Speculation
        self._tail = {}                   # item_id -> (TxnRef, LockMode)
        # statistics
        self.window_holds = 0
        self.mode_switches = 0
        self.windows_single = 0
        self.windows_grouped = 0
        self.spec_extensions = 0
        self.spec_hits = 0
        self.spec_misses = 0

    def attach_adapt_rng(self, rng):
        """Install the dedicated ``adapt.controller`` RNG stream (hold
        dither). Never drawn unless a hold is armed, so static-mode runs
        stay byte-identical to plain g-2PL."""
        self._rng = rng

    # -- controllers ---------------------------------------------------------

    def _window(self, item_id):
        ctl = self._window_ctls.get(item_id)
        if ctl is None:
            c = self.config
            lat = c.network_latency
            ctl = self._window_ctls[item_id] = WindowController(
                gain=c.window_gain, target_depth=c.window_target_depth,
                min_hold=c.window_min * lat, max_hold=c.window_max * lat,
                latency=lat, ewma_alpha=c.adapt_ewma)
        return ctl

    def _contention(self, item_id):
        ctl = self._contention_ctls.get(item_id)
        if ctl is None:
            c = self.config
            ctl = self._contention_ctls[item_id] = ContentionController(
                low=c.hybrid_low, high=c.hybrid_high,
                ewma_alpha=c.adapt_ewma, scale=c.hybrid_scale)
        return ctl

    # -- hook overrides ------------------------------------------------------

    def on_LockRequest(self, msg):
        item_id = msg.item_id
        if self._adapt_window and msg.txn_id not in self._dead:
            self._window(item_id).observe_arrival(self.sim.now)
        info = self._items[item_id]
        before = len(info.window)
        super().on_LockRequest(msg)
        if (self._speculate and not info.at_server
                and len(info.window) > before):
            self._arm_spec_timer(item_id)

    def _graft_allowed(self, info):
        if info.item_id in self._spec:
            # Never graft while an extension is in flight: the graft would
            # bump expected_returns under the acceptor's feet.
            return False
        if self._hybrid and self._contention(info.item_id).mode == "single":
            # Single mode == shared-lock compatibility: a reader joins a
            # writer-free grant unit unconditionally.
            return True
        return super()._graft_allowed(info)

    def _select_window(self, info, order):
        if self._hybrid:
            ctl = self._contention(info.item_id)
            if ctl.mode == "single":
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
        item_id = info.item_id
        if info.at_server:
            spec = self._spec.pop(item_id, None)
            if spec is not None:
                # The item landed with an extension unresolved: the tail
                # released before (or instead of) accepting. Mis-spec
                # repair — dispatch the pre-frozen list ourselves.
                self._cancel_hold(item_id)
                self._dispatch_prefrozen(info, spec)
                return
        if not info.at_server or not info.window:
            return
        timer = self._hold_timers.get(item_id)
        if timer is not None:
            # Collecting under a hold; cut it short once the window hits
            # the depth setpoint (holding past it only adds latency).
            if len(info.window) >= self._window(item_id).target_depth:
                self._cancel_hold(item_id)
                self._dispatch_now(info)
            return
        if self._adapt_window:
            ctl = self._window(item_id)
            if len(info.window) < ctl.target_depth:
                hold = ctl.hold_time(self._rng)
                if hold > 0.0:
                    self._arm_hold(info, hold)
                    return
        self._dispatch_now(info)

    # -- dispatch paths ------------------------------------------------------

    def _dispatch_now(self, info):
        item_id = info.item_id
        depth = len(info.window)
        mode_of = {w.ref.txn_id: w.mode for w in info.window}
        if self._hybrid:
            ctl = self._contention(item_id)
            ctl.observe(depth)
            switched = ctl.decide()
            if switched is not None:
                self.mode_switches += 1
                tracer = self.sim.tracer
                if tracer is not None:
                    tracer.row("hybrid.switch", item_id, switched, ctl.epoch,
                               round(ctl.score(), 4))
        if self._adapt_window:
            self._window(item_id).observe_freeze(depth)
        super()._maybe_dispatch(info)
        if not info.at_server and info.chain_all:
            tail = info.chain_all[-1]
            self._tail[item_id] = (tail, mode_of[tail.txn_id])

    def _arm_hold(self, info, duration):
        item_id = info.item_id
        self.window_holds += 1
        self._hold_timers[item_id] = Timer(
            self.sim, duration, self._hold_fire, item_id)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.row("window.hold", item_id, round(duration, 3),
                       len(info.window))

    def _hold_fire(self, item_id):
        self._hold_timers.pop(item_id, None)
        info = self._items[item_id]
        if info.at_server and info.window:
            self._dispatch_now(info)

    def _cancel_hold(self, item_id):
        timer = self._hold_timers.pop(item_id, None)
        if timer is not None:
            timer.cancel()

    # -- speculation ---------------------------------------------------------

    def _arm_spec_timer(self, item_id):
        timer = self._spec_timers.get(item_id)
        if timer is not None:
            timer.cancel()
        self._spec_timers[item_id] = Timer(
            self.sim, self._spec_ctl.bound, self._try_speculate, item_id)

    def _try_speculate(self, item_id):
        self._spec_timers.pop(item_id, None)
        info = self._items[item_id]
        if info.at_server or not info.window or item_id in self._spec:
            return
        tail = self._tail.get(item_id)
        if tail is None or tail[1] is not LockMode.WRITE:
            # Extensions splice after a single writer only: a read-group
            # tail releases to the server per reader, and an FL entry
            # after a reader must be a writer (ReaderRelease routing).
            return
        if info.expected_returns - info.returns_received != 1:
            return
        tail_ref = tail[0]
        fl = self._begin_speculation(info)
        self._spec[item_id] = _Speculation(tail_ref.txn_id, fl)
        self.spec_extensions += 1
        self._spec_ctl.extensions += 1
        self.send(tail_ref.client_id,
                  SpecExtend(txn_id=tail_ref.txn_id, item_id=item_id,
                             fl=fl, epoch=info.epoch),
                  size=CONTROL_SIZE + fl.transfer_size())
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.row("spec.extend", item_id, tail_ref.txn_id, fl.txn_count())

    def _begin_speculation(self, info):
        """Freeze the away item's window into an FL without dispatching:
        the quiescence bound proved no earlier request can still arrive,
        so the freeze is exactly the one the item's return would run."""
        selected, fl = self._freeze_window(info)
        # The pre-frozen members join the live chain immediately: later
        # requests must order after them exactly as after dispatched
        # members, and aborts must know which item holds their position.
        info.chain_all.extend(w.ref for w in selected)
        for w in selected:
            if w.ref.txn_id not in self._dead:
                info.chain_live.add(w.ref.txn_id)
        info.chain_has_writer = info.chain_has_writer or any(
            entry.mode is LockMode.WRITE for entry in fl.entries)
        self.windows_dispatched += 1
        self.fl_lengths.append(fl.txn_count())
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.row("fl.window_close", info.item_id, len(selected))
            tracer.row("fl.window_open", info.item_id, len(info.window))
        return fl

    def on_SpecAck(self, msg):
        spec = self._spec.get(msg.item_id)
        if spec is None or spec.tail_txn != msg.from_txn:
            return  # resolved by a home landing (or superseded) meanwhile
        info = self._items[msg.item_id]
        tracer = self.sim.tracer
        if not msg.accepted:
            # The tail could not take the extension; its return (if any)
            # reaches us on the same FIFO link *before* this ack, so if
            # the spec is still registered the item is still in flight.
            # Leave it: the landing runs the mis-spec repair.
            if tracer is not None:
                tracer.row("spec.decline", msg.item_id, msg.from_txn)
            return
        del self._spec[msg.item_id]
        last = spec.fl.entries[-1]
        info.expected_returns = len(last.txns) if last.is_read_group else 1
        info.returns_received = 0
        if last.is_read_group:
            self._tail[msg.item_id] = (last.txns[-1], LockMode.READ)
        else:
            self._tail[msg.item_id] = (last.writer, LockMode.WRITE)
        self.spec_hits += 1
        self._spec_ctl.hits += 1
        if tracer is not None:
            tracer.row("spec.accept", msg.item_id, msg.from_txn,
                       spec.fl.txn_count())

    def _dispatch_prefrozen(self, info, spec):
        """Mis-speculation repair: the item came home with its pre-frozen
        window undispatched — dispatch it from the server under a bumped
        epoch (the grant round the speculation tried to save)."""
        item_id = info.item_id
        fl = spec.fl
        entries = fl.entries
        refs = fl.all_txns()
        info.epoch += 1
        info.at_server = False
        info.chain_all = list(refs)
        info.chain_live = {r.txn_id for r in refs
                           if r.txn_id not in self._dead}
        info.chain_has_writer = any(
            entry.mode is LockMode.WRITE for entry in entries)
        last = entries[-1]
        info.expected_returns = len(last.txns) if last.is_read_group else 1
        info.returns_received = 0
        info.returned_version = -1
        for ref in refs:
            entry = self._txns.get(ref.txn_id)
            if entry is not None:
                entry.chain_items.add(item_id)
        if last.is_read_group:
            self._tail[item_id] = (last.txns[-1], LockMode.READ)
        else:
            self._tail[item_id] = (last.writer, LockMode.WRITE)
        self.spec_misses += 1
        self._spec_ctl.misses += 1
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.row("spec.repair", item_id, info.epoch, fl.txn_count())
        item = self.store.read(item_id)
        dispatch_chain(self, item_id, item.version, item.value, fl,
                       mr1w=self.config.mr1w, epoch=info.epoch)

    # -- diagnostics ---------------------------------------------------------

    def hold_pending(self):
        """Home items currently collecting under a window hold."""
        return len(self._hold_timers)

    def single_mode_items(self):
        """Items currently routed to s-2PL-equivalent single mode."""
        return sum(1 for ctl in self._contention_ctls.values()
                   if ctl.mode == "single")

    def spec_outstanding(self):
        """Speculative extensions awaiting acceptance or repair."""
        return len(self._spec)

    def stats(self):
        """The g-2PL counters plus the window ledger and the live
        controllers' counters (plain runs must keep their fingerprints, so
        only this class reports them)."""
        stats = super().stats()
        stats["window_enqueued"] = self.window_enqueued
        stats["window_frozen"] = self.window_frozen
        stats["window_purged"] = self.window_purged
        if self._adapt_window:
            stats["window_holds"] = self.window_holds
        if self._hybrid:
            stats["mode_switches"] = self.mode_switches
            stats["windows_single"] = self.windows_single
            stats["windows_grouped"] = self.windows_grouped
        if self._speculate:
            stats["spec_extensions"] = self.spec_extensions
            stats["spec_hits"] = self.spec_hits
            stats["spec_misses"] = self.spec_misses
        return stats


class AdaptiveG2PLClient(G2PLClient):
    """g-2PL client that can accept speculative chain extensions."""

    def __init__(self, sim, client_id, config, history, **kwargs):
        super().__init__(sim, client_id, config, history, **kwargs)
        # (txn_id, item_id) -> ForwardList accepted before the data copy
        # arrived; spliced onto the incoming FL tail at delivery.
        self._pending_ext = {}

    def reset_protocol_state(self):
        super().reset_protocol_state()
        self._pending_ext.clear()

    def _splice(self, fl_tail, ext):
        base = tuple(fl_tail.entries) if fl_tail is not None else ()
        return ForwardList(base + tuple(ext.entries))

    def on_GShip(self, msg):
        ext = self._pending_ext.pop((msg.txn_id, msg.item_id), None)
        if ext is not None:
            msg = replace(msg, fl_tail=self._splice(msg.fl_tail, ext))
        super().on_GShip(msg)

    def on_ReaderRelease(self, msg):
        # Basic mode (mr1w off): a writer's data and FL arrive with the
        # first reader release; an extension accepted early splices here.
        ext = self._pending_ext.pop((msg.to_txn, msg.item_id), None)
        if ext is not None and msg.carries_data:
            msg = replace(msg,
                          fl_from_writer=self._splice(msg.fl_from_writer,
                                                      ext))
        elif ext is not None:
            self._pending_ext[(msg.to_txn, msg.item_id)] = ext
        super().on_ReaderRelease(msg)

    def on_SpecExtend(self, msg):
        key = (msg.txn_id, msg.item_id)
        hold = self._holds.get(key)
        tracer = self.sim.tracer
        if hold is not None and not hold.released:
            accepted = True
            if hold.fl_tail is not None:
                hold.fl_tail = self._splice(hold.fl_tail, msg.fl)
            else:
                self._pending_ext[key] = msg.fl
        elif hold is None and msg.txn_id in self._active:
            # Our own copy is still in flight from the predecessor; stash
            # the extension and splice it onto the FL when the data lands.
            accepted = True
            self._pending_ext[key] = msg.fl
        else:
            accepted = False
        if tracer is not None:
            tracer.row("spec.splice" if accepted else "spec.refuse",
                       msg.txn_id, msg.item_id)
        self.send_control(self.home_of(msg.item_id),
                          SpecAck(item_id=msg.item_id, from_txn=msg.txn_id,
                                  accepted=accepted, epoch=msg.epoch))
