#!/usr/bin/env python
"""Extending the library: plug in your own concurrency-control protocol.

The protocol layer is a pair of sites (server + client) behind the
registry's capability table; everything else (kernel, network, workload,
metrics, serializability validation) is reusable. This example implements
"no-wait 2PL" — a textbook variant in which a conflicting lock request is
never queued: the requester is aborted immediately (abort-and-restart
instead of blocking). It then races it against s-2PL and g-2PL.

The implementation subclasses the s-2PL server and overrides exactly one
decision point: what to do when a lock cannot be granted.

    python examples/custom_protocol.py
"""

from repro import SimulationConfig
from repro.core.runner import run_simulation
from repro.locking.lock_table import LockRequestState
from repro.protocols import registry
from repro.protocols.s2pl import S2PLClient, S2PLServer


class NoWait2PLServer(S2PLServer):
    """s-2PL, except a blocked request aborts the requester on the spot.

    No wait-for graph is ever needed: nothing waits, so nothing deadlocks.
    The price is a much higher abort rate under contention.
    """

    def on_LockRequest(self, msg):
        if msg.txn_id in self._dead:
            return
        if msg.txn_id not in self._txns:
            self._txns[msg.txn_id] = msg.client_id
        state = self.lock_table.acquire(msg.txn_id, msg.item_id, msg.mode)
        if state is LockRequestState.GRANTED:
            self._ship(msg.txn_id, msg.item_id, msg.mode)
        else:
            self.lock_table.drop_queued(msg.txn_id)
            self._abort(msg.txn_id, reason="no-wait-conflict")


def register_no_wait():
    """Add the protocol to the registry under the name 'nowait2pl'.

    Registered without capabilities it is single-server with no crash
    recovery: ``SimulationConfig(protocol="nowait2pl", n_shards=2)`` is
    refused with the table's reason. The s-2PL chassis it subclasses does
    shard, so ``register(..., shardable=True)`` would be all it takes —
    once you have checked your override against cross-shard commit.
    """
    registry.register("nowait2pl", NoWait2PLServer, S2PLClient)


def main():
    register_no_wait()
    config = SimulationConfig(
        n_clients=20, n_items=25, read_probability=0.5,
        network_latency=250.0, total_transactions=500,
        warmup_transactions=50)
    print(f"workload: {config.describe()}\n")
    print(f"  {'protocol':10} {'response':>12} {'aborted':>9} "
          f"{'serializable':>13}")
    for protocol in ("s2pl", "g2pl", "nowait2pl"):
        result = run_simulation(config.replace(protocol=protocol))
        print(f"  {protocol:10} {result.mean_response_time:12,.0f} "
              f"{result.abort_percentage:8.1f}% "
              f"{str(result.serializability.ok):>13}")
    print("\nno-wait trades waiting for aborts: deadlock-free by "
          "construction, still serializable (the validator just checked), "
          "but the abort rate explodes under contention.")


if __name__ == "__main__":
    main()
