"""Structure gate: sharding is a property of the chassis, not a subclass.

Read from the syntax trees of ``src/repro`` (not grepped from prose), so
a comment or docstring that *mentions* an old name cannot trip it and a
re-introduced copy cannot hide behind one:

* no class named ``Sharded*`` under ``repro.protocols`` — one class per
  (family, role) runs one shard or the whole database;
* each 2PC handler exists once — the participant and coordinator mixins
  the families inherit, not a copy per family;
* the runner and the probe sampler discover nothing on a server with
  ``hasattr`` — servers declare ``stats()``, ``assert_invariants()`` and
  ``gauges``;
* the second factory, the second assembly, the second way to run (LP
  partitioning) and the scattered capability lists are gone, and so is
  the attribute tuple the two stats merges copied from each other;
* only the ``--jobs`` pool starts processes, and every run flag is
  declared once, on its config field;
* a response's account (its components, sub-accounts, residual and
  phases) is declared once, in ``repro.obs.schema``;
* one s-2PL client loop and one s-2PL request handler: c-2PL and 2V-2PL
  run ``S2PLClient.execute`` through its hooks, their servers are
  ``S2PLServer``s (2V-2PL's on a two-version ``LockTable``), and none
  re-defines ``on_LockRequest``;
* every entry of ``scripts/reach_allowlist.txt`` (the functions
  ``scripts/reach.py --check`` lets no entry point enter) names a
  function the package still declares, with a reason.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "repro")


def _trees(*relative):
    """``(path, ast)`` of the named files, or of every module under the
    named directories."""
    paths = []
    for name in relative:
        path = os.path.join(SRC, name)
        if os.path.isdir(path):
            for folder, _dirs, files in os.walk(path):
                paths.extend(os.path.join(folder, file) for file in files
                             if file.endswith(".py"))
        else:
            paths.append(path)
    for path in sorted(paths):
        with open(path, encoding="utf-8") as handle:
            yield path, ast.parse(handle.read(), filename=path)


def _calls_to(tree, name):
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == name]


def _calls_to_method(tree, name):
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func,
                                                         ast.Attribute)
            and node.func.attr == name]


def test_no_sharded_subclasses():
    sharded = [f"{os.path.basename(path)}:{node.name}"
               for path, tree in _trees("protocols")
               for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)
               and node.name.startswith("Sharded")]
    assert sharded == []


def _classes():
    """name -> (base names, names of the methods it defines) for every
    class in the package."""
    classes = {}
    for _path, tree in _trees(""):
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                classes[node.name] = (
                    [base.id for base in node.bases
                     if isinstance(base, ast.Name)],
                    {item.name for item in node.body
                     if isinstance(item, ast.FunctionDef)})
    return classes


def test_one_client_loop_per_family_and_one_s2pl_request_handler():
    classes = _classes()

    def inherits(name, root):
        return name == root or any(inherits(base, root)
                                   for base in classes.get(name, ((),))[0])

    loops = sorted(name for name, (_bases, methods) in classes.items()
                   if "execute" in methods
                   and inherits(name, "ProtocolClient"))
    # ProtocolClient's is the abstract one
    assert loops == ["G2PLClient", "ProtocolClient", "S2PLClient"]
    handlers = sorted(name for name, (_bases, methods) in classes.items()
                      if "on_LockRequest" in methods
                      and inherits(name, "S2PLServer"))
    assert handlers == ["S2PLServer"]
    assert inherits("C2PLServer", "S2PLServer")
    # 2V-2PL is a certify mode on the s-2PL lock table, not a second
    # lock manager
    assert inherits("TwoVersionServer", "S2PLServer")
    assert inherits("TwoVersionLockTable", "LockTable")
    assert inherits("TwoVersionClient", "S2PLClient")


def test_each_2pc_handler_is_defined_once():
    handlers = ("on_PrepareRequest", "on_OutcomeQuery", "on_OutcomeReply",
                "on_PrepareVote", "on_DecisionAck")
    defined = {name: [] for name in handlers}
    for path, tree in _trees("protocols"):
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in defined:
                defined[node.name].append(os.path.basename(path))
    assert defined == {name: ["sharded.py"] for name in handlers}


def test_one_coordinator_sequence():
    # whoever sends a PrepareRequest is the coordinator sequence
    senders = [os.path.basename(path)
               for path, tree in _trees("protocols")
               for _call in _calls_to(tree, "PrepareRequest")]
    assert senders == ["sharded.py"]


def test_runner_discovers_nothing_with_hasattr():
    [(_path, tree)] = _trees("core/runner.py")
    assert _calls_to(tree, "hasattr") == []


def test_probes_use_hasattr_on_no_server():
    [(_path, tree)] = _trees("obs/probes.py")
    # the one survivor asks a *driver* whether it carries population state
    probed = [ast.unparse(call.args[0]) for call in _calls_to(tree, "hasattr")]
    assert probed == ["d"]


def test_servers_declare_their_reporting_surface():
    from repro.protocols.base import ProtocolClient, ProtocolServer

    assert ProtocolServer.gauges == () == ProtocolClient.gauges
    for name in ("stats", "assert_invariants", "cross_shard_state"):
        assert callable(getattr(ProtocolServer, name))


def test_retired_names_resolve_nowhere():
    retired = {"make_sharded_protocol", "make_lp_shard", "_variant_config",
               "_build_lp", "_validate_faults", "validate_lp_config",
               "SHARDED_PROTOCOLS", "CRASH_CAPABLE_PROTOCOLS",
               "ADAPTIVE_PROTOCOLS", "run_window", "derive_lookahead",
               "run_lp_simulation", "QuotaRunControl", "home_clients",
               "lp_eligible", "in_worker_process",
               # config fields every run held at their defaults, and
               # the code only their other values reached
               "trace_engine", "engine_events", "engine_dispatch",
               "_engine_hook", "data_item_size", "burst_fraction",
               "burst_period", "diurnal_period", "diurnal_amplitude",
               "victim_policy", "VICTIM_POLICIES", "choose_victim",
               "_first_seen", "first_seen", "cache_capacity",
               "_cache_order", "_cache_drop", "streaming_threshold",
               "DEFAULT_STREAMING_THRESHOLD",
               # the test-only knobs, the server CPU queue they reached,
               # and wire fields no handler read
               "mpl", "server_processing_time", "queue_charge",
               "_cpu_free_at", "from_cache_grant",
               # the write-ahead log nothing read, its recovery only tests
               # ran, and kernel and precedence APIs no entry point reached
               "WriteAheadLog", "LogRecord", "LogRecordType",
               "RecoveryManager", "take_checkpoint", "truncate_log",
               "checkpoint_interval", "idle_min", "idle_max", "Mailbox",
               "AllOf", "AnyOf", "all_of", "any_of", "would_cycle",
               "CycleError",
               # the component nothing charged, the two verbs ``run
               # --trace`` took over, and the lists of names the account's
               # one declaration replaced
               "server_queue", "server_queue_sum", "_cmd_trace",
               "_cmd_decompose", "_COMPONENT_KEYS", "_PHASE_KEYS",
               # the deadlock search's sorted-blocker cache and the extra
               # edge map, both gone with the ordered decision, and the
               # graph object only tests build
               "waits_for_ordered", "_extra_wait_edges", "WaitForGraph",
               # properties nothing read
               "perturbs_messages", "response_time_std",
               # 2V-2PL's own lock manager, each part a scan of every item
               "_drain_queues", "_release_everything", "_wait_edges",
               # hybrid's tuning fields only tests set off their defaults,
               # the trace logs' rows no producer wrote, and accessors
               # nothing called
               "hybrid_low", "hybrid_high", "hybrid_scale", "adapt_ewma",
               "_adapt", "_ADAPT", "_set_aside", "_flat_with_odd",
               "_triple", "loose", "mean_abort_percentage"}
    found = []
    for path, tree in _trees(""):
        for node in ast.walk(tree):
            names = ()
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = (node.name,)
            elif isinstance(node, ast.Name):
                names = (node.id,)
            elif isinstance(node, ast.Attribute):
                names = (node.attr,)
            elif isinstance(node, ast.ImportFrom):
                names = tuple(alias.name for alias in node.names)
            found.extend(f"{os.path.relpath(path, SRC)}:{name}"
                         for name in names if name in retired)
    assert found == []
    # a method name other classes still use (``endpoint`` is a local
    # throughout repro.live), so asked of its one class
    import repro.locking
    from repro.live.results import MergedRun
    from repro.locking.lock_table import _ItemLock

    assert not hasattr(MergedRun, "endpoint")
    # g-2PL keeps an ``_ItemState`` of its own; 2V-2PL's is gone
    from repro.protocols import twoversion

    assert not hasattr(twoversion, "_ItemState")
    # likewise ``order`` (the tracer's staged rows keep one), and the
    # facade's lazy name
    assert "order" not in _ItemLock.__slots__
    assert not hasattr(repro.locking, "WaitForGraph")


def test_only_the_jobs_pool_starts_processes():
    importers = sorted(os.path.relpath(path, SRC)
                       for path, tree in _trees("") for name in _imports(tree)
                       if name.split(".")[0] in ("multiprocessing",
                                                 "concurrent"))
    assert set(importers) == {os.path.join("core", "parallel.py")}


def test_hashlib_is_imported_only_as_the_digest_fallback():
    # hashlib maps OpenSSL's libcrypto; the package takes SHA-256 from the
    # interpreter's built-in module and names hashlib once, in the
    # ``except ImportError`` that covers an interpreter without one
    importers = []
    for path, tree in _trees(""):
        fallbacks = {id(inner) for node in ast.walk(tree)
                     if isinstance(node, ast.ExceptHandler)
                     and ast.unparse(node.type) == "ImportError"
                     for inner in node.body}
        importers.extend(
            (os.path.relpath(path, SRC), id(node) in fallbacks)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and any(name.split(".")[0] == "hashlib"
                    for name in _imports(node)))
    assert importers == [(os.path.join("sim", "rng.py"), True)]


def test_no_run_flag_is_declared_outside_its_config_field():
    """Every option whose dest is a flagged config field comes from
    ``_add_workload_args``' one loop (``report`` builds no
    ``SimulationConfig``: its ``--seed`` is its own)."""
    import dataclasses

    from repro.core.config import SimulationConfig

    fields = {spec.name for spec in dataclasses.fields(SimulationConfig)
              if "flag" in spec.metadata}
    [(_path, tree)] = _trees("cli.py")
    derived, stray = [], []
    for function in [n for n in tree.body if isinstance(n, ast.FunctionDef)]:
        for node in _calls_to_method(function, "add_argument"):
            dest = {k.arg: k.value for k in node.keywords}.get("dest")
            if dest is not None and not isinstance(dest, ast.Constant):
                derived.append(function.name)
                continue
            # argparse's rule: an explicit dest, else the first long option
            options = [arg.value for arg in node.args]
            longs = [o for o in options if o.startswith("--")] or options
            name = (dest.value if dest is not None
                    else longs[0].lstrip("-").replace("-", "_"))
            if name in fields and ast.unparse(node.func.value) \
                    != "report_parser":
                stray.append(f"{function.name}: {ast.unparse(node)[:60]}")
    assert (derived, stray) == (["_add_workload_args"], [])


def test_the_copied_attribute_tuple_is_gone():
    for path, tree in _trees(""):
        for node in ast.walk(tree):
            if isinstance(node, (ast.Tuple, ast.List)):
                literals = {element.value for element in node.elts
                            if isinstance(element, ast.Constant)}
                assert not {"deadlocks_found",
                            "windows_dispatched"} <= literals, path


def test_a_single_server_stays_on_the_inline_attribute_fast_path():
    """CPython (3.11+) keeps an instance's attributes inline, and its
    specialized attribute loads and method calls fast, only below 30
    attributes. Everything sharding adds is therefore set on the instance
    only when sharded (class-level defaults otherwise); the g-2PL server
    has 26, and crossing the limit cost every g-2PL workload about 2%
    with not one bytecode more executed (appendix M)."""
    from helpers import Harness

    for protocol in ("s2pl", "g2pl"):
        server = Harness(protocol).server
        assert len(vars(server)) < 30, protocol
        assert "shard_map" not in vars(server)
        assert "_prepared" not in vars(server)


# -- value objects: immutable by gate, not by a per-field runtime tax ----------

#: names a payload or value-object instance goes by in ``src/repro``:
#: handler parameters, ``envelope.payload``, a spec's operations, forward
#: list references, the outcome handed to the collector
_VALUE_NAMES = {"msg", "payload", "op", "spec", "ref", "outcome"}


def _is_value_object(node):
    """``msg`` / ``envelope.payload`` / ``txn.spec`` — an expression that
    names a value object (by its last component)."""
    if isinstance(node, ast.Name):
        return node.id in _VALUE_NAMES
    return isinstance(node, ast.Attribute) and node.attr in _VALUE_NAMES


def _mutations(tree):
    """Source of every statement that assigns, aug-assigns, deletes or
    ``setattr``s an attribute of a value object."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = list(node.targets)
        elif (isinstance(node, ast.Call) and node.args
              and ast.unparse(node.func) in ("setattr", "delattr",
                                             "object.__setattr__",
                                             "object.__delattr__")):
            if _is_value_object(node.args[0]):
                yield ast.unparse(node)
            continue
        else:
            continue
        flat = []
        for target in targets:
            flat.extend(target.elts if isinstance(target, (ast.Tuple, ast.List))
                        else [target])
        for target in flat:
            if (isinstance(target, ast.Attribute)
                    and _is_value_object(target.value)):
                yield ast.unparse(node)


def test_no_module_mutates_a_value_object():
    """The payloads, ``TxnRef``, ``Operation``/``TransactionSpec`` and
    ``TxnOutcome`` are plain slotted dataclasses: ``frozen=True`` charged
    one ``object.__setattr__`` call per field of every message built, to
    stop a write nobody makes. This gate is what stops it now — a handler
    that assigns to a payload field fails here, not mid-run."""
    found = [f"{os.path.relpath(path, SRC)}: {source}"
             for path, tree in _trees("") for source in _mutations(tree)]
    assert found == []


def test_the_mutation_gate_sees_each_form():
    sources = ("msg.txn_id = 9", "msg.epoch += 1", "del op.mode",
               "envelope.payload.vote = True", "txn.spec.operations = ()",
               "a, ref.client_id = (1, 2)", "setattr(outcome, 'committed', 1)",
               "object.__setattr__(payload, 'seq', 3)", "msg.n: int = 1")
    for source in sources:
        assert list(_mutations(ast.parse(source))) == [source], source
    for source in ("self.payload = payload", "hold.version = msg.version",
                   "msg = other", "envelope.deliver_time = 2.0"):
        assert list(_mutations(ast.parse(source))) == [], source


def test_every_payload_is_a_slotted_dataclass():
    import dataclasses

    from repro.live.codec import MESSAGE_TYPES
    from repro.network.reliable import Reliable, ReliableAck
    from repro.protocols import messages
    from repro.protocols.forward_list import TxnRef
    from repro.protocols.transaction import TxnOutcome
    from repro.workload.spec import Operation, TransactionSpec

    payloads = [obj for obj in vars(messages).values()
                if isinstance(obj, type) and obj.__module__ == messages.__name__]
    assert len(payloads) == 22 == len(MESSAGE_TYPES)
    for cls in [*payloads, Reliable, ReliableAck, TxnRef, TxnOutcome,
                Operation, TransactionSpec]:
        assert dataclasses.is_dataclass(cls), cls
        assert not cls.__dataclass_params__.frozen, cls
        assert cls.__dataclass_params__.eq, cls  # still values
        names = tuple(field.name for field in dataclasses.fields(cls))
        assert cls.__slots__ == names, cls
        # no instance __dict__: nothing but the declared fields can be set
        assert cls.__bases__ == (object,) and "__dict__" not in vars(cls), cls
    # hashed only where an instance really is: FLEntry.__hash__ -> TxnRef
    assert hash(TxnRef(1, 2)) == hash(TxnRef(1, 2))
    assert messages.LockRequest.__hash__ is None



# -- the lock table's wait-edge cache ---------------------------------------

_LOCK_STATE = {"queue", "holders"}
_MUTATORS = {"append", "appendleft", "extend", "extendleft", "insert", "pop",
             "popleft", "popitem", "remove", "clear", "update", "setdefault",
             "move_to_end", "rotate"}


def _is_lock_state(node):
    """``lock.queue`` / ``lock.holders``, or a local alias of one."""
    return ((isinstance(node, ast.Attribute) and node.attr in _LOCK_STATE)
            or (isinstance(node, ast.Name) and node.id in _LOCK_STATE))


def _lock_state_mutations(function):
    """Source of every statement in ``function`` that rebinds an item
    lock's ``queue`` / ``holders`` or changes one in place."""
    for node in ast.walk(function):
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = list(node.targets)
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr in _MUTATORS
              and _is_lock_state(node.func.value)):
            yield ast.unparse(node)
            continue
        else:
            continue
        for target in targets:
            for leaf in (target.elts if isinstance(target, ast.Tuple)
                         else [target]):
                if (isinstance(leaf, ast.Attribute) and _is_lock_state(leaf)
                        or isinstance(leaf, ast.Subscript)
                        and _is_lock_state(leaf.value)):
                    yield ast.unparse(node)


_CACHES = {"edges"}  # an item lock's cached wait edges


def _resets_edge_cache(function):
    """Does ``function`` set an item lock's edge cache to None?"""
    reset = {target.attr for node in ast.walk(function)
             if isinstance(node, ast.Assign)
             and isinstance(node.value, ast.Constant)
             and node.value.value is None
             for target in node.targets
             if isinstance(target, ast.Attribute)}
    return _CACHES <= reset


def test_whatever_changes_an_item_lock_resets_its_edge_cache():
    """A stale wait-edge cache is a wrong deadlock victim, and no golden
    names the line that forgot: every function of either lock table that
    changes a queue or a holder set must also set ``edges`` to None."""
    mutating = {}
    for path, tree in _trees(os.path.join("locking", "lock_table.py"),
                             os.path.join("locking", "two_version.py")):
        mutating[os.path.basename(path)] = [
            node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            and list(_lock_state_mutations(node))]
    assert {name: [node.name for node in nodes]
            for name, nodes in mutating.items()} == {
        "lock_table.py": ["__init__", "acquire", "drop_queued",
                          "release_all", "_grant_from_queue"],
        "two_version.py": ["acquire", "certify", "drop_queued",
                           "_grant_from_queue"]}
    assert [node.name for nodes in mutating.values() for node in nodes
            if not _resets_edge_cache(node)] == []


def test_the_edge_cache_gate_sees_each_form():
    for source in ("lock.queue = deque()", "lock.holders[txn] = mode",
                   "holders[txn] = mode", "queue.popleft()",
                   "lock.queue.appendleft((txn, mode))",
                   "lock.holders.pop(txn, None)", "del lock.holders[txn]",
                   "a, lock.queue = (1, deque())"):
        function = ast.parse(f"def f():\n    {source}")
        assert list(_lock_state_mutations(function)) == [source], source
        assert not _resets_edge_cache(function)
    for source in ("queue, holders = lock.queue, lock.holders",
                   "mode = lock.holders[txn]", "n = len(lock.queue)",
                   "lock.edges = None", "granted.append(lock.queue[0])"):
        function = ast.parse(f"def f():\n    {source}")
        assert list(_lock_state_mutations(function)) == [], source
    assert _resets_edge_cache(ast.parse("def f():\n    lock.edges = None"))
    assert not _resets_edge_cache(ast.parse("def f():\n    lock.edges = {}"))


def test_item_locks_stay_slotted():
    from repro.locking.lock_table import _ItemLock

    assert _ItemLock.__slots__ == ("holders", "queue", "edges")
    assert not hasattr(_ItemLock(), "__dict__")


def _imports(tree):
    """Every module name an ``import`` / ``from ... import`` names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""   # ``from . import x``
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


# -- tracing: one declared schema, positional rows ------------------------------

def _recorded_rows():
    """``(where, kind expression, value count)`` of every event the package
    records positionally: ``x.row(kind, *values)`` calls, and the tuples
    ``(time, *values)`` the tracer's own hooks stage under
    ``self._staged["kind"]``."""
    for path, tree in _trees(""):
        where = os.path.relpath(path, SRC)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            if node.func.attr == "row":
                assert node.args and not node.keywords, (where, node.lineno)
                assert not any(isinstance(arg, ast.Starred)
                               for arg in node.args), (where, node.lineno)
                yield (f"{where}:{node.lineno}", node.args[0],
                       len(node.args) - 1)
            elif (node.func.attr == "append" and where == "obs/tracer.py"
                  and isinstance(node.func.value, ast.Subscript)
                  and ast.unparse(node.func.value.value) == "self._staged"
                  and isinstance(node.func.value.slice, ast.Constant)):
                assert isinstance(node.args[0], ast.Tuple), node.lineno
                yield (f"{where}:{node.lineno}", node.func.value.slice,
                       len(node.args[0].elts) - 1)


def _literal_kinds(expression):
    """The kinds a ``row`` call can name: a string literal, or a
    conditional expression choosing between string literals."""
    if isinstance(expression, ast.IfExp):
        return _literal_kinds(expression.body) + _literal_kinds(
            expression.orelse)
    assert (isinstance(expression, ast.Constant)
            and isinstance(expression.value, str)), ast.unparse(expression)
    return [expression.value]


def test_no_keyword_emit_is_left_in_the_package():
    """In-tree events are positional rows of a declared kind; keyword
    ``emit`` is for kinds the schema does not know (tests, the ledger's
    ``obs.ns_per_emit`` cell)."""
    calls = [f"{os.path.relpath(path, SRC)}:{node.lineno}"
             for path, tree in _trees("")
             for node in _calls_to_method(tree, "emit")]
    assert calls == []


def test_every_row_names_a_declared_kind_and_fills_its_columns():
    from repro.obs.schema import EVENT_SCHEMA

    recorded = set()
    for where, expression, n_values in _recorded_rows():
        for kind in _literal_kinds(expression):
            assert kind in EVENT_SCHEMA, (where, kind)
            assert n_values == len(EVENT_SCHEMA[kind]), (where, kind)
            recorded.add(kind)
    assert recorded == set(EVENT_SCHEMA)   # and nothing declared is dead


def test_no_declared_column_is_a_reserved_key():
    from repro.obs.schema import EVENT_SCHEMA
    from repro.obs.tracer import RESERVED_FIELDS

    assert set(RESERVED_FIELDS) == {"type", "t", "kind"}
    for kind, columns in EVENT_SCHEMA.items():
        assert type(columns) is tuple and len(set(columns)) == len(columns)
        assert not set(columns) & set(RESERVED_FIELDS), kind


def test_the_message_number_rides_in_the_slot_the_global_id_had():
    """The tracer's stamp took over ``Envelope.envelope_id``: no eighth
    slot on the one object allocated per send, no process-global counter
    behind it, and no attribute added to the g-2PL server (29, one under
    the inline-attribute limit) for the occupancy gauge."""
    from helpers import Harness
    from repro.network import message
    from repro.network.message import Envelope

    assert len(Envelope.__slots__) == 7
    assert Envelope(0, 1, "payload").envelope_id is None
    assert not [name for name, value in vars(message).items()
                if type(value).__module__ == "itertools"]
    assert len(vars(Harness("g2pl").server)) <= 29


def _names_held(node, names):
    """How many of ``names`` a tuple, list, set or dict literal spells."""
    if isinstance(node, ast.Dict):
        elements = [*node.keys, *node.values]
    elif isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        elements = node.elts
    else:
        return 0
    return sum(isinstance(element, ast.Constant) and element.value in names
               for element in elements)


def test_the_account_is_declared_once():
    from repro.obs.schema import ACCOUNT, PHASES

    names = set(ACCOUNT) | set(PHASES)
    spelled = [f"{os.path.relpath(path, SRC)}:{node.lineno}"
               for path, tree in _trees("") if not path.endswith("schema.py")
               for node in ast.walk(tree) if _names_held(node, names) >= 2]
    assert spelled == []   # and the gate sees each literal form:
    for text in ('("slack", "overhead")', '["network", "lock_wait"]',
                 '{"network", "slack"}', '{"slack": "network"}'):
        assert _names_held(ast.parse(text).body[0].value, names) == 2


def test_every_reach_allowlist_entry_names_a_declared_function():
    """The allowlist is read, not driven: each entry a function the AST
    still finds, each with its reason, the entries sorted and unique."""
    import importlib.util

    path = os.path.join(os.path.dirname(os.path.dirname(SRC)), "scripts",
                        "reach.py")
    spec = importlib.util.spec_from_file_location("reach", path)
    reach = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reach)
    declared = {qualname for qualname, _ in reach.functions().values()}
    entries = reach.read_allowlist()
    names = [name for name, _ in entries]
    assert entries and names == sorted(set(names))
    assert [name for name in names if name not in declared] == []
    assert [name for name, reason in entries if not reason] == []
