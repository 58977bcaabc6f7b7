"""Roll a cProfile run up by layer.

Layers are this repo's packages.  A function's self time belongs to the
layer its file is in; self time of builtins, the standard library and
the ledger's own frames is pushed up the pstats caller table to the
``repro`` layer that called them (``heappush`` called from
``sim/engine.py`` is ``sim`` time), splitting by per-caller time where a
callee has several callers.  What reaches no layer is ``other``.

No ``repro`` import: files are classified by path alone.
"""

import os

#: directory under src/repro/ -> layer; ``protocols`` splits by module
PACKAGE_LAYERS = {
    "sim": "sim", "network": "network", "locking": "locking",
    "storage": "storage", "workload": "workload", "stats": "stats",
    "obs": "obs", "adapt": "adapt", "validate": "validate", "core": "core",
    "analysis": "analysis", "live": "live", "perf": "perf",
    "protocols": "protocols.other",
}
PROTOCOL_MODULE_LAYERS = {
    "s2pl": "protocols.s2pl", "g2pl": "protocols.g2pl",
    "precedence": "protocols.precedence",
    "forward_list": "protocols.forward_list",
    "sharded": "protocols.sharded", "sharding": "protocols.sharded",
    "base": "protocols.base", "messages": "protocols.base",
    "transaction": "protocols.base", "registry": "protocols.base",
}
#: src/repro/*.py (cli, __main__, __init__): the front door of ``core``
TOP_LEVEL_LAYER = "core"
OTHER = "other"
LAYERS = tuple(sorted(set(PACKAGE_LAYERS.values())
                      | set(PROTOCOL_MODULE_LAYERS.values()))) + (OTHER,)


def layer_of(filename, package_root):
    """The layer owning ``filename``, or None outside ``package_root``."""
    root = package_root.rstrip(os.sep) + os.sep
    if not filename.startswith(root):
        return None
    parts = filename[len(root):].split(os.sep)
    if len(parts) == 1:
        return TOP_LEVEL_LAYER
    if parts[0] == "protocols":
        module = os.path.splitext(parts[1])[0]
        return PROTOCOL_MODULE_LAYERS.get(module, PACKAGE_LAYERS["protocols"])
    return PACKAGE_LAYERS.get(parts[0], OTHER)


def roll_up(stats, package_root):
    """``pstats.Stats(...).stats`` -> per-layer self seconds and calls.

    Returns ``{"total_s", "self_s": {layer: s}, "calls_in": {layer: n}}``
    where ``calls_in`` counts calls entering a layer from outside it.
    """
    layer = {func: layer_of(func[0], package_root) for func in stats}
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls_in = dict.fromkeys(LAYERS, 0)
    memo = {}

    def owners(func, trail):
        """{layer: fraction} of an unowned function's time, by caller."""
        if func in memo:
            return memo[func]
        callers = stats[func][4]
        if not callers or func in trail:
            return {OTHER: 1.0}
        weights = {caller: edge[3] for caller, edge in callers.items()}
        if not any(weights.values()):
            weights = {caller: edge[0] for caller, edge in callers.items()}
        total = float(sum(weights.values())) or 1.0
        split = {}
        for caller, weight in weights.items():
            share = weight / total
            if layer[caller] is not None:
                split[layer[caller]] = split.get(layer[caller], 0.0) + share
            else:
                for name, part in owners(caller, trail | {func}).items():
                    split[name] = split.get(name, 0.0) + share * part
        memo[func] = split
        return split

    total_s = 0.0
    for func, (_cc, _nc, own_s, _ct, callers) in stats.items():
        total_s += own_s
        home = layer[func]
        if home is not None:
            self_s[home] += own_s
            calls_in[home] += sum(
                edge[0] for caller, edge in callers.items()
                if layer[caller] != home)
            continue
        unclaimed = own_s
        for caller, edge in callers.items():
            unclaimed -= edge[2]
            if layer[caller] is not None:
                self_s[layer[caller]] += edge[2]
            else:
                for name, part in owners(caller, frozenset((func,))).items():
                    self_s[name] += edge[2] * part
        self_s[OTHER] += unclaimed  # called from no profiled frame
    return {"total_s": total_s, "self_s": self_s, "calls_in": calls_in}
