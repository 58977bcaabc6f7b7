"""Structure gate: sharding is a property of the chassis, not a subclass.

Read from the syntax trees of ``src/repro`` (not grepped from prose), so
a comment or docstring that *mentions* an old name cannot trip it and a
re-introduced copy cannot hide behind one:

* no class named ``Sharded*`` under ``repro.protocols`` — one class per
  (family, role) runs one shard or the whole database;
* each 2PC handler exists once — the participant and coordinator mixins
  the families inherit, not a copy per family;
* the runner, the LP runner and the probe sampler discover nothing on a
  server with ``hasattr`` — servers declare ``stats()``,
  ``assert_invariants()`` and ``gauges``;
* the second factory, the second assembly and the scattered capability
  lists are gone, and so is the attribute tuple the two stats merges
  copied from each other.
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


def test_no_sharded_subclasses():
    sharded = [f"{os.path.basename(path)}:{node.name}"
               for path, tree in _trees("protocols")
               for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)
               and node.name.startswith("Sharded")]
    assert sharded == []


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


def test_runner_and_lp_discover_nothing_with_hasattr():
    for path, tree in _trees("core/runner.py", "core/lp.py"):
        assert _calls_to(tree, "hasattr") == [], path


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
               "ADAPTIVE_PROTOCOLS", "run_window", "derive_lookahead"}
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
    sits one attribute under the limit, and crossing it cost every g-2PL
    workload about 2% with not one bytecode more executed (appendix M)."""
    from helpers import Harness

    for protocol in ("s2pl", "g2pl"):
        server = Harness(protocol).server
        assert len(vars(server)) < 30, protocol
        assert "shard_map" not in vars(server)
        assert "_prepared" not in vars(server)
