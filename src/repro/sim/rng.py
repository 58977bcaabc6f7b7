"""Reproducible named random streams.

Each simulation entity (workload generator, per-client arrival process, ...)
draws from its own stream so that changing one entity's consumption pattern
does not perturb the others — the standard variance-reduction discipline for
comparing protocols under common random numbers (Jain, ch. 25).

A stream's seed is the first eight bytes of SHA-256 over
``"{root_seed}:{name}"``. The digest comes from the interpreter's built-in
module (``_sha2`` from Python 3.12, ``_sha256`` before), as CPython's own
``random`` takes its ``sha512``: ``hashlib`` maps OpenSSL's libcrypto,
which a simulator process has no other use for (DESIGN.md §8 gives its
resident cost). The bytes are SHA-256's either way, so every seed is the
same. This is the package's only digest import
(:mod:`repro.perf.fingerprint` takes ``sha256`` from here).
"""

import random
from math import ceil, log

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256


def below(getrandbits, n):
    """``Random._randbelow(n)`` from a stream's ``getrandbits``: the same
    integer from the same bits (``n == 1`` still draws one bit)."""
    bits = n.bit_length()
    value = getrandbits(bits)
    while value >= n:
        value = getrandbits(bits)
    return value


def sample_indices(getrandbits, n, k):
    """``Random.sample(range(n), k)`` from a stream's ``getrandbits``: the
    same indices in the same order from the same bits, through CPython's
    n-long pool or, past its ``setsize`` rule, its rejection of repeats."""
    setsize = 21
    if k > 5:
        setsize += 4 ** ceil(log(k * 3, 4))
    chosen = []
    if n <= setsize:
        pool = list(range(n))
        for left in range(n, n - k, -1):
            index = below(getrandbits, left)
            chosen.append(pool[index])
            pool[index] = pool[left - 1]
        return chosen
    bits = n.bit_length()
    while len(chosen) < k:
        index = getrandbits(bits)
        if index < n and index not in chosen:
            chosen.append(index)
    return chosen


def _derive_seed(root_seed, name):
    digest = sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RandomStreams:
    """A family of independent ``random.Random`` streams under one root seed."""

    def __init__(self, root_seed):
        self.root_seed = root_seed
        self._streams = {}

    def stream(self, name):
        """Return the stream for ``name``, creating it deterministically."""
        stream = self._streams.get(name)
        if stream is None:
            stream = random.Random(_derive_seed(self.root_seed, name))
            self._streams[name] = stream
        return stream

    def spawn(self, name):
        """Derive a child :class:`RandomStreams` namespace."""
        return RandomStreams(_derive_seed(self.root_seed, name))

    def __repr__(self):
        return f"RandomStreams(root_seed={self.root_seed!r})"
