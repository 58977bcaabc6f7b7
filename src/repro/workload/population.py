"""Multiplexed client populations: 10⁴–10⁶ logical users per run.

The paper's client model is one closed-loop MPL-1 terminal per site —
one coroutine each, fine at 50 clients, hopeless at a million. A
population run keeps the protocol stack exactly as-is (the same
``n_clients`` protocol client sites, locks, 2PL rounds) but replaces
each site's terminal loop with a :class:`PopulationDriver`: a state
machine multiplexing that site's share of ``config.population`` logical
users. Traffic arrives via an open arrival process
(:mod:`repro.workload.arrivals`); each arrival picks a logical user, a
transaction class from the configured mix, and Zipf-skewed items, and
runs the transaction through the site's protocol client.

Memory stays bounded no matter the population or run length: the driver
tracks only *busy* users (a sparse dict, capped by admission control at
``max_inflight_per_site``), never a per-user object for the idle
millions. Arrivals landing on a busy user are counted and skipped (a
user submits one transaction at a time, as in the closed loop); arrivals
beyond the in-flight cap are shed — a saturated front door, not an
infinite backlog.

Determinism: each site draws from two dedicated named streams
(``client{id}.arrival`` for arrival times, ``client{id}.popn`` for user
picks and spec draws), so population runs replay bit-identically at any
``jobs=`` fan-out and never perturb the closed-loop streams.

Saturated sites
---------------
An overloaded run costs what it *admits*, not what it is *offered*. Each
site keeps one heap entry: its next arrival. A site that has reached its
cap — ``max_inflight``, or every one of its users when it has fewer —
keeps none: every arrival until one of its own transactions completes is
refused (shed, or busy-skipped) whatever else happens in the system,
so the site draws the next arrival's timestamp, remembers it, and goes to
sleep. When one of its transactions completes (or its counters are read,
or the run ends) it *replays* the arrivals it slept through — the same
user draw from ``popn`` and the same gap draw from ``arrival`` per
arrival, in the same order, against the active set as it was while
asleep — counts each as a busy-skip or a shed, and re-arms one real heap
entry. A refused arrival therefore costs two random draws, not a heap
event, a ``Timeout`` and three coroutine hops; the trajectory (every
admission decision, draw and timestamp) is the one a driver paying a heap
entry per arrival produces, which ``tests/helpers.EagerPopulationDriver``
keeps as a reference implementation.

*Timestamps.* The arrival after the one at ``t`` lands at
``t + (A(t) - t)`` with ``A = arrivals.next_arrival`` — what a
``Timeout(A(t) - t)`` armed at ``t`` puts on the heap. That is not
``A(t)`` in floating point, and the burst/diurnal thinning reads
``rate_at`` of the timestamp, so the formula, not a simplification of
it, is the contract; slept-through arrivals use it too.

*Ties.* An arrival whose timestamp is bit-equal to the completion that
wakes its site is handled after that completion (the replay stops
strictly before ``sim.now``); a heap holding both could order them
either way. Likewise a counter read at an instant bit-equal to an
arrival's does not yet include it.

*What counts heap entries.* The entries a sleeping site never pushes are
missing from ``engine_stats.processed_events`` / ``peak_heap_depth``
and, in a traced run, from ``trace_summary.processed_events`` /
``peak_heap_depth`` and the ``heap_pending`` probe series. Nothing else
moves.
"""

import bisect
import itertools
from dataclasses import dataclass, field

from repro.protocols.transaction import Transaction
from repro.sim.rng import below
from repro.workload.generator import READ, WRITE
from repro.workload.spec import Operation, TransactionSpec


@dataclass(frozen=True)
class TransactionClass:
    """One class in a mixed workload profile (size range + read ratio)."""

    name: str
    weight: float
    min_ops: int
    max_ops: int
    read_probability: float

    def __post_init__(self):
        if not self.name:
            raise ValueError("transaction class needs a name")
        if self.weight <= 0:
            raise ValueError(
                f"class {self.name!r}: weight must be positive, "
                f"got {self.weight!r}")
        if not 1 <= self.min_ops <= self.max_ops:
            raise ValueError(
                f"class {self.name!r}: need 1 <= min_ops <= max_ops, "
                f"got {self.min_ops}..{self.max_ops}")
        if not 0.0 <= self.read_probability <= 1.0:
            raise ValueError(
                f"class {self.name!r}: read_probability "
                f"{self.read_probability!r} outside [0, 1]")


def parse_txn_mix(text, n_items):
    """Parse ``"name:weight:min-max:read_prob,..."`` into classes.

    Example: ``"browse:6:1-3:0.9,update:3:2-5:0.3"`` — six browses for
    every three updates; browses touch 1–3 items at 90% reads.
    """
    classes = []
    seen = set()
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 4:
            raise ValueError(
                f"malformed transaction class {chunk!r} "
                f"(expected name:weight:min-max:read_prob)")
        name, weight_text, ops_text, pr_text = parts
        ops_parts = ops_text.split("-")
        if len(ops_parts) != 2:
            raise ValueError(
                f"class {name!r}: malformed ops range {ops_text!r} "
                f"(expected min-max)")
        try:
            weight = float(weight_text)
            min_ops = int(ops_parts[0])
            max_ops = int(ops_parts[1])
            read_probability = float(pr_text)
        except ValueError as exc:
            raise ValueError(
                f"malformed transaction class {chunk!r}: {exc}") from None
        if name in seen:
            raise ValueError(f"duplicate transaction class {name!r}")
        seen.add(name)
        cls = TransactionClass(name, weight, min_ops, max_ops,
                               read_probability)
        if cls.max_ops > n_items:
            raise ValueError(
                f"class {name!r}: max_ops {cls.max_ops} exceeds the "
                f"{n_items}-item pool")
        classes.append(cls)
    if not classes:
        raise ValueError(f"empty transaction mix {text!r}")
    return tuple(classes)


def default_classes(params):
    """The single-class mix matching the closed-loop workload knobs."""
    return (TransactionClass("default", 1.0, params.min_ops, params.max_ops,
                             params.read_probability),)


def split_population(population, n_clients):
    """Users per site: as even as possible, remainder to the early sites."""
    base, remainder = divmod(population, n_clients)
    return [base + (1 if index < remainder else 0)
            for index in range(n_clients)]


class ZipfItemSampler:
    """Draws distinct items under the workload's popularity law.

    Single draws are O(log n) (cumulative weights + bisect); distinct
    sets use rejection against already-chosen items with a deterministic
    rank-order fill as the bounded fallback, so a draw never loops
    unboundedly even when ``n_ops`` approaches ``n_items`` under extreme
    skew.
    """

    def __init__(self, params):
        self.n_items = params.n_items
        self._cumulative = list(itertools.accumulate(params.item_weights()))

    def sample_one(self, rng):
        point = rng.random() * self._cumulative[-1]
        index = bisect.bisect_right(self._cumulative, point)
        return min(index, self.n_items - 1)

    def sample(self, rng, n_ops):
        """``n_ops`` distinct items (popularity-weighted, unordered set
        semantics but deterministic order)."""
        chosen = []
        seen = set()
        attempts_left = 16 * n_ops + 32
        while len(chosen) < n_ops and attempts_left > 0:
            attempts_left -= 1
            item = self.sample_one(rng)
            if item not in seen:
                seen.add(item)
                chosen.append(item)
        if len(chosen) < n_ops:
            # Pathological skew: fill from the most popular ranks down.
            for item in range(self.n_items):
                if item not in seen:
                    seen.add(item)
                    chosen.append(item)
                    if len(chosen) == n_ops:
                        break
        return chosen


class OpenArrivalGenerator:
    """Per-site spec factory for population runs.

    Unlike :class:`~repro.workload.generator.WorkloadGenerator` (one
    stream per closed-loop client), all of a site's logical users share
    the site's ``popn`` stream — per-user streams at population 10⁶
    would defeat the bounded-memory design for no statistical gain.
    The :class:`ZipfItemSampler` keeps no per-site state, so a run builds
    one and hands it to every site's generator as ``sampler``.
    """

    def __init__(self, params, classes, rng, sampler=None):
        self.params = params
        self.classes = classes
        self.sampler = (ZipfItemSampler(params) if sampler is None
                        else sampler)
        self._rng = rng
        self._class_cumulative = list(itertools.accumulate(
            cls.weight for cls in classes))
        self.generated = 0
        self.by_class = {cls.name: 0 for cls in classes}

    def _pick_class(self, rng):
        cumulative = self._class_cumulative
        if len(cumulative) == 1:
            return self.classes[0]
        point = rng.random() * cumulative[-1]
        index = bisect.bisect_right(cumulative, point)
        return self.classes[min(index, len(self.classes) - 1)]

    def next_spec(self):
        rng = self._rng
        cls = self._pick_class(rng)
        n_ops = cls.min_ops + below(rng.getrandbits,
                                    cls.max_ops - cls.min_ops + 1)
        items = self.sampler.sample(rng, n_ops)
        read_probability = cls.read_probability
        think_min = self.params.think_min
        span = self.params.think_max - think_min
        random = rng.random
        operations = tuple([
            Operation(item, READ if random() < read_probability else WRITE,
                      think_min + span * random())
            for item in items])
        self.generated += 1
        self.by_class[cls.name] += 1
        return TransactionSpec(operations=operations)


@dataclass
class PopulationState:
    """One site's population counters (all O(1) memory except ``active``,
    which holds only busy users and is capped by admission control)."""

    n_users: int
    arrivals: int = 0
    busy_skipped: int = 0
    shed: int = 0
    started: int = 0
    peak_active: int = 0
    active: dict = field(default_factory=dict)  # user index -> txn id

    @property
    def inflight(self):
        return len(self.active)


class PopulationDriver:
    """Multiplexes one site's share of the logical-user population.

    One heap entry per site for the next arrival plus one short-lived
    coroutine per *in-flight* transaction (capped at ``max_inflight``) —
    never a coroutine per user, and no arrival entry at all while the
    site sits at its cap (see the module docstring, "Saturated sites").
    Outcome handling (collector, tracer, run control) mirrors
    :class:`~repro.workload.driver.ClientDriver` exactly, so metrics and
    traces mean the same thing in both models.
    """

    def __init__(self, sim, client_id, protocol_client, generator, control,
                 collector, arrivals, n_users, user_rng, max_inflight=256):
        if n_users < 1:
            raise ValueError("a population site needs >= 1 logical user")
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.sim = sim
        self.client_id = client_id
        self.protocol_client = protocol_client
        self.generator = generator
        self.control = control
        self.collector = collector
        self.arrivals = arrivals
        self.max_inflight = max_inflight
        # At this many in flight every arrival is refused: shed at
        # max_inflight, busy-skipped once all of a smaller site's users
        # are in flight.
        self._cap = min(max_inflight, n_users)
        self._state = PopulationState(n_users=n_users)
        self._user_rng = user_rng
        # Timestamp of the next arrival while the site sleeps at its cap
        # (that arrival has no heap entry); None while one is armed, and
        # for good once the run is over.
        self._slept = None

    @property
    def state(self):
        """The site's :class:`PopulationState`, counters current to
        ``sim.now``: arrivals a saturated site slept through are replayed
        before the state is handed out."""
        self._replay()
        return self._state

    def start(self):
        """Arm the site's first arrival."""
        self.sim.call_soon(self._arm)
        self.control.done_event.add_callback(self._on_done)

    def _after(self, fire):
        """Timestamp of the arrival that follows the one at ``fire``:
        ``fire + (A(fire) - fire)``, kept in exactly that form because it
        is not ``A(fire)`` in floating point (module docstring)."""
        return fire + (self.arrivals.next_arrival(fire) - fire)

    def _arm(self):
        """Draw the next arrival; put it on the heap, or — at the cap,
        where nothing but one of this site's own completions can change
        what it does — only remember it."""
        fire = self._after(self.sim.now)
        if len(self._state.active) >= self._cap:
            self._slept = fire
        else:
            self.sim.schedule_at(fire, self._arrive)

    def _arrive(self):
        if self.control.done:
            return
        self._on_arrival()
        self._arm()

    def _on_arrival(self):
        state = self._state
        state.arrivals += 1
        user = self._user_rng.randrange(state.n_users)
        if user in state.active:
            # This user still has a transaction in flight; a logical user
            # submits one at a time (as in the closed loop), so the
            # arrival is counted and dropped, not queued.
            state.busy_skipped += 1
            return
        if len(state.active) >= self.max_inflight:
            state.shed += 1
            return
        spec = self.generator.next_spec()
        txn = Transaction(self.control.next_txn_id(), self.client_id, spec)
        state.active[user] = txn.txn_id
        state.started += 1
        if len(state.active) > state.peak_active:
            state.peak_active = len(state.active)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.txn_begin(txn)
        self.sim.spawn(self._run(user, txn))

    def _replay(self):
        """Count the arrivals a sleeping site was offered before now.

        The site is at its cap for the whole stretch and ``active`` has
        not changed, so each is :meth:`_on_arrival` minus the branch that
        cannot be taken: the same user draw, a busy-skip or a shed, and
        the same draw for the next timestamp.
        """
        fire = self._slept
        now = self.sim.now
        if fire is None or fire >= now:
            return
        state = self._state
        active = state.active
        n_users = state.n_users
        randrange = self._user_rng.randrange
        next_arrival = self.arrivals.next_arrival
        arrivals = busy = 0
        while fire < now:
            arrivals += 1
            if randrange(n_users) in active:
                busy += 1
            fire = fire + (next_arrival(fire) - fire)  # _after, inlined
        state.arrivals += arrivals
        state.busy_skipped += busy
        state.shed += arrivals - busy
        self._slept = fire

    def _on_done(self, _event):
        # The run is over: count what a sleeping site was offered up to
        # this instant, then stop for good (a later read replays nothing).
        self._replay()
        self._slept = None

    def _run(self, user, txn):
        # Inlined rather than spawned as a nested process: with crash
        # faults excluded for population runs there is nothing to
        # interrupt, and one coroutine per transaction (not two) is what
        # keeps 10⁵ transactions/run cheap.
        try:
            outcome = yield from self.protocol_client.execute(txn)
            # Normal completion only (not a generator closed at teardown):
            # the slept arrivals saw this user busy, so replay them before
            # it leaves the active set.
            self._replay()
        finally:
            self._state.active.pop(user, None)
        if self.control.done:
            return  # the run closed while this transaction was in flight
        self.collector.record_outcome(outcome)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.txn_finished(outcome, measured=self.collector.measuring)
        self.control.transaction_finished()
        if self._slept is not None and not self.control.done:
            # Below the cap again: wake, with one real heap entry.
            fire, self._slept = self._slept, None
            self.sim.schedule_at(fire, self._arrive)
