"""Unit tests for protocol plumbing: messages, registry, transactions,
and the payload dispatcher."""

import pytest

from repro.core.config import SimulationConfig
from repro.locking.modes import LockMode
from repro.network.transport import Network
from repro.network.topology import UniformTopology
from repro.protocols.base import _Dispatcher
from repro.protocols.forward_list import FLEntry, ForwardList, TxnRef
from repro.protocols.messages import (
    CONTROL_SIZE,
    FL_ENTRY_SIZE,
    GShip,
    LockRequest,
)
from repro.protocols.registry import available_protocols, make_protocol
from repro.protocols.transaction import Transaction, TxnOutcome, TxnStatus
from repro.sim.engine import Simulator
from repro.storage.store import VersionedStore
from repro.storage.wal import WriteAheadLog
from repro.validate.history import HistoryRecorder
from repro.workload.spec import Operation, TransactionSpec


def one_op_spec():
    return TransactionSpec(operations=(
        Operation(item_id=0, mode=LockMode.WRITE, think_time=1.0),))


class TestTransaction:
    def make(self):
        return Transaction(1, client_id=2, spec=one_op_spec())

    def test_initial_state(self):
        txn = self.make()
        assert txn.running
        assert txn.status is TxnStatus.RUNNING
        assert (txn.txn_id, txn.client_id, txn.ops_done) == (1, 2, 0)

    def test_commit(self):
        txn = self.make()
        txn.commit()
        assert txn.status is TxnStatus.COMMITTED
        with pytest.raises(RuntimeError):
            txn.commit()
        with pytest.raises(RuntimeError):
            txn.abort("too late")

    def test_abort_keeps_first_reason(self):
        txn = self.make()
        txn.abort("deadlock")
        txn.abort("other")
        assert txn.abort_reason == "deadlock"

    def test_outcome_response_time(self):
        outcome = TxnOutcome(txn_id=1, client_id=1, committed=True,
                             start_time=10.0, end_time=35.0, n_ops=2,
                             n_writes=1)
        assert outcome.response_time == 25.0


class TestMessages:
    def test_lock_request_is_a_slotted_value(self):
        # Not frozen at run time (that cost one object.__setattr__ call
        # per field of every message built); nobody writes to a payload
        # because test_structure's AST gate fails the module that does.
        msg = LockRequest(txn_id=1, item_id=2, mode=LockMode.READ,
                          client_id=3)
        assert msg == LockRequest(txn_id=1, item_id=2, mode=LockMode.READ,
                                  client_id=3)
        assert msg != LockRequest(txn_id=9, item_id=2, mode=LockMode.READ,
                                  client_id=3)
        assert not hasattr(msg, "__dict__")
        with pytest.raises(AttributeError):
            msg.not_a_field = 9  # slots: only the declared fields exist
        with pytest.raises(TypeError):
            hash(msg)  # a mutable-by-type value is not a dict key

    def test_fl_transfer_size_scales_with_members(self):
        refs = [(TxnRef(i, i), LockMode.READ) for i in range(4)]
        fl = ForwardList.from_requests(refs)
        assert fl.transfer_size() == pytest.approx(4 * FL_ENTRY_SIZE)

    def test_control_size_positive(self):
        assert CONTROL_SIZE > 0

    def test_gship_defaults(self):
        fl = ForwardList([FLEntry(LockMode.WRITE, (TxnRef(1, 1),))])
        msg = GShip(txn_id=1, item_id=0, version=0, value=None,
                    mode=LockMode.WRITE, fl_tail=fl)
        assert msg.group == ()
        assert msg.epoch == 0
        assert msg.await_releases_from == ()


class TestRegistry:
    def test_available_protocols(self):
        names = available_protocols()
        assert "s2pl" in names and "g2pl" in names
        assert names == sorted(names)

    def _build(self, name, config=None):
        sim = Simulator()
        config = config or SimulationConfig(n_clients=2, n_items=2)
        store = VersionedStore(range(2))
        server, clients = make_protocol(
            name, sim, config, store, WriteAheadLog(), HistoryRecorder(),
            [1, 2])
        return server, clients

    def test_variant_pins_override_config(self):
        server, clients = self._build("g2pl-basic")
        assert server.config.mr1w is False
        server, clients = self._build("g2pl-ro")
        assert server.config.expand_read_groups is True

    def test_plain_g2pl_keeps_config(self):
        config = SimulationConfig(n_clients=2, n_items=2, mr1w=False)
        server, _ = self._build("g2pl", config)
        assert server.config.mr1w is False

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            self._build("zpl")

    def test_one_client_per_id(self):
        _server, clients = self._build("s2pl")
        assert set(clients) == {1, 2}
        assert clients[1].client_id == 1


class TestDispatcher:
    def test_dispatch_by_payload_type(self):
        sim = Simulator()
        seen = []

        class Probe(_Dispatcher):
            def on_LockRequest(self, msg):
                seen.append(msg)

        net = Network(sim, UniformTopology(1.0))
        probe = net.add_site(Probe(0))
        net.add_site(Probe(1))
        msg = LockRequest(txn_id=1, item_id=0, mode=LockMode.READ,
                          client_id=1)
        net.send(1, 0, msg)
        sim.run()
        assert seen == [msg]

    def test_missing_handler_raises(self):
        sim = Simulator()

        class Probe(_Dispatcher):
            pass

        net = Network(sim, UniformTopology(1.0))
        net.add_site(Probe(0))
        net.add_site(Probe(1))
        net.send(1, 0, LockRequest(txn_id=1, item_id=0,
                                   mode=LockMode.READ, client_id=1))
        with pytest.raises(TypeError, match="no handler"):
            sim.run()

    def test_handler_cache(self):
        sim = Simulator()
        calls = []

        class Probe(_Dispatcher):
            def on_LockRequest(self, msg):
                calls.append(msg.txn_id)

        net = Network(sim, UniformTopology(1.0))
        probe = net.add_site(Probe(0))
        net.add_site(Probe(1))
        for i in range(3):
            net.send(1, 0, LockRequest(txn_id=i, item_id=0,
                                       mode=LockMode.READ, client_id=1))
        sim.run()
        assert calls == [0, 1, 2]
        assert LockRequest in probe._handlers
