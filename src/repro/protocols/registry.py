"""Protocol registry: the one declared capability table.

Every protocol name maps to a :class:`Protocol` row — its server and
client classes, the config fields the name pins, and what the pair
supports: sharding and client-crash recovery. A row names its classes
as ``"module:Class"``, so everything but :func:`make_protocol` reads the
table without importing a protocol.
:data:`REJECTIONS` lists, one row each with its reason, the
combinations nothing implements. Everything that needs to know what runs
with what reads these two tables: :func:`make_protocol` (the one factory,
single-server and sharded), ``SimulationConfig`` validation (through
:func:`rejection`, at construction time), ``--protocol`` help and
``repro-experiment list`` (:func:`capability_table`), and the tier-1
capability battery.

A family class supports whatever its chassis supports without naming it:
``hybrid`` shards because :class:`~repro.protocols.g2pl.G2PLServer` does.
:func:`register` adds a row for a protocol of your own; one registered
without capabilities is single-server with no crash recovery.
"""

import importlib
from dataclasses import dataclass, field


def _resolve(ref):
    """A class, or the class a ``"module:Class"`` string names (imported
    here, on first use)."""
    if not isinstance(ref, str):
        return ref
    module, _, name = ref.partition(":")
    return getattr(importlib.import_module(module), name)


@dataclass(frozen=True)
class Protocol:
    """One row of the capability table. ``server_ref`` / ``client_ref``
    are classes or ``"module:Class"`` names; :attr:`server` /
    :attr:`client` return the classes."""

    server_ref: object
    client_ref: object
    #: config fields the name forces (``g2pl-basic`` -> ``mr1w=False``)
    pins: dict = field(default_factory=dict)
    #: runs as N home servers with cross-shard atomic commit
    shardable: bool = False
    #: survives client crashes (s-2PL's sweep, g-2PL's chain repair)
    crash_recovery: bool = False
    summary: str = ""

    @property
    def server(self):
        return _resolve(self.server_ref)

    @property
    def client(self):
        return _resolve(self.client_ref)


_S2PL = "repro.protocols.s2pl:S2PLServer", "repro.protocols.s2pl:S2PLClient"
_G2PL = "repro.protocols.g2pl:G2PLServer", "repro.protocols.g2pl:G2PLClient"
_STATIC = dict(shardable=True, crash_recovery=True)

PROTOCOLS = {
    "s2pl": Protocol(
        *_S2PL, **_STATIC,
        summary="server-based strict 2PL, the paper's baseline"),
    "g2pl": Protocol(
        *_G2PL, **_STATIC,
        summary="lock grouping + avoidance + MR1W (the paper's g-2PL)"),
    "g2pl-basic": Protocol(
        *_G2PL, {"mr1w": False}, **_STATIC,
        summary="lock grouping + avoidance, no MR1W"),
    "g2pl-ro": Protocol(
        *_G2PL, {"expand_read_groups": True}, **_STATIC,
        summary="g-2PL + read-only forward-list expansion (future work)"),
    "hybrid": Protocol(
        "repro.protocols.adaptive:AdaptiveG2PLServer", _G2PL[1],
        shardable=True,
        summary="per-item single/grouped mode switching"),
    "c2pl": Protocol(
        "repro.protocols.c2pl:C2PLServer", "repro.protocols.c2pl:C2PLClient",
        summary="caching 2PL with callbacks (ablation A5)"),
    "2v2pl": Protocol(
        "repro.protocols.twoversion:TwoVersionServer",
        "repro.protocols.twoversion:TwoVersionClient",
        summary="two-version 2PL, the §3.4 comparator (A7)"),
}

def register(name, server_cls, client_cls, **capabilities):
    """Add a protocol of your own under ``name``. ``capabilities`` are
    :class:`Protocol` fields; without any the protocol is single-server
    with no crash recovery."""
    PROTOCOLS[name] = Protocol(server_cls, client_cls, **capabilities)


def available_protocols():
    """Names accepted by :func:`make_protocol` / ``SimulationConfig.protocol``."""
    return sorted(PROTOCOLS)


def protocols_with(capability):
    """Sorted names whose row declares ``capability`` (a boolean field)."""
    return sorted(name for name, row in PROTOCOLS.items()
                  if getattr(row, capability))


def _lookup(name):
    try:
        return PROTOCOLS[name]
    except KeyError:
        raise ValueError(
            f"unknown protocol {name!r}; available: {available_protocols()}"
        ) from None


# ---------------------------------------------------------------------------
# Combinations nothing implements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Rejection:
    """One unsupported combination: when it applies and why it cannot run."""

    name: str
    #: ``(config, row) -> bool``
    applies: object
    #: the error message, a format string over ``config`` and ``row``
    #: plus the capability lists ``shardable`` / ``crash_capable``
    reason: str


def _crashes(config):
    return config.faults.crashes if config.faults is not None else ()


REJECTIONS = (
    Rejection(
        "regions-need-shards",
        lambda c, row: c.n_regions > 1 and c.n_shards == 1,
        "n_regions={config.n_regions} needs n_shards > 1: regions place "
        "shard servers and their co-located clients, and a single server "
        "has one placement, so the run would silently use a uniform "
        "topology; raise n_shards or drop n_regions"),
    Rejection(
        "single-server-protocol",
        lambda c, row: c.n_shards > 1 and not row.shardable,
        "protocol {config.protocol!r} is single-server: its row does not "
        "declare that its server can run as one shard of several (c-2PL's "
        "cached-copy registry and 2V-2PL's certification assume they own "
        "every item, and no cross-shard commit is defined for them); "
        "n_shards={config.n_shards} needs a sharded protocol "
        "({shardable})"),
    Rejection(
        "crash-with-population",
        lambda c, row: _crashes(c) and c.population is not None,
        "crash faults are not supported with open-arrival populations: "
        "the population driver multiplexes users with no per-site crash "
        "machinery; use the closed-loop model (population=None) for "
        "crash experiments"),
    Rejection(
        "crash-without-recovery",
        lambda c, row: _crashes(c) and not row.crash_recovery,
        "protocol {config.protocol!r} has no client-crash recovery (it "
        "still runs under message loss, duplication, jitter and "
        "partitions, which the reliable channel masks, but has no story "
        "for a dead site); crash faults require one of {crash_capable}"),
    Rejection(
        "crash-with-2pc-opt",
        lambda c, row: (_crashes(c) and c.n_shards > 1
                        and c.commit_protocol == "2pc-opt"),
        "commit_protocol '2pc-opt' cannot recover from client crashes: "
        "its commit decisions carry the updates, so a surviving "
        "participant could learn the outcome but not the data; use "
        "'2pc' when combining sharding with crash faults"),
    Rejection(
        "crash-of-unknown-client",
        lambda c, row: any(not 1 <= crash.client_id <= c.n_clients
                           for crash in _crashes(c)),
        "crash faults name unknown client sites (this run has clients "
        "1..{config.n_clients})"),
)


def rejection(config):
    """Why ``config`` asks for a combination nothing implements, or
    ``None``. Raises ``ValueError`` itself for an unknown protocol."""
    row = _lookup(config.protocol)
    for rule in REJECTIONS:
        if rule.applies(config, row):
            return rule.reason.format(
                config=config, row=row,
                shardable=", ".join(protocols_with("shardable")),
                crash_capable=protocols_with("crash_recovery"))
    return None


def capability_table():
    """The supported-combination table as text (``repro-experiment
    list``; README "Sharding and geo-topology" carries a copy)."""
    mark = {True: "yes", False: "-"}
    lines = [f"{'protocol':<14} {'shards':<7} {'crash':<6} summary",
             f"{'-' * 14} {'-' * 7} {'-' * 6} {'-' * 7}"]
    for name in available_protocols():
        row = PROTOCOLS[name]
        lines.append(
            f"{name:<14} {mark[row.shardable]:<7} "
            f"{mark[row.crash_recovery]:<6} {row.summary}".rstrip())
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# The factory
# ---------------------------------------------------------------------------

def make_protocol(name, sim, config, store, wal, history, client_ids,
                  shard_map=None):
    """Instantiate the protocol's server(s) and one client per id.

    Single-server callers pass one ``store`` and one ``wal`` and get
    ``(server, clients)``. A sharded deployment passes its ``shard_map``
    and ``store`` / ``wal`` as dicts keyed by the site ids of the home
    servers, and gets ``(servers, clients)`` with ``servers`` keyed the
    same way.

    The row's pins are applied to ``config`` first (``g2pl-basic`` runs
    with ``mr1w=False`` whatever the config says).
    """
    row = _lookup(name)
    if row.pins:
        config = config.replace(**row.pins)
    server_cls, client_cls = row.server, row.client
    if shard_map is None:
        server = server_cls(sim, config, store, wal, history)
        clients = {client_id: client_cls(sim, client_id, config, history)
                   for client_id in client_ids}
        return server, clients
    shared = server_cls.cross_shard_state()
    servers = {site_id: server_cls(sim, config, store[site_id], wal[site_id],
                                   history, site_id=site_id,
                                   shard_map=shard_map, **shared)
               for site_id in store}
    clients = {client_id: client_cls(sim, client_id, config, history,
                                     shard_map=shard_map)
               for client_id in client_ids}
    return servers, clients
