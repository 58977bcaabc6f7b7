"""Reproducible named random streams.

Each simulation entity (workload generator, per-client arrival process, ...)
draws from its own stream so that changing one entity's consumption pattern
does not perturb the others — the standard variance-reduction discipline for
comparing protocols under common random numbers (Jain, ch. 25).
"""

import hashlib
import random


def _derive_seed(root_seed, name):
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
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

    def uniform(self, name, low, high):
        """Draw U(low, high) from stream ``name``."""
        return self.stream(name).uniform(low, high)

    def randint(self, name, low, high):
        """Draw a uniform integer in [low, high] from stream ``name``."""
        return self.stream(name).randint(low, high)

    def spawn(self, name):
        """Derive a child :class:`RandomStreams` namespace."""
        return RandomStreams(_derive_seed(self.root_seed, name))

    def __repr__(self):
        return f"RandomStreams(root_seed={self.root_seed!r})"
