"""Named, reproducible random streams.

Every stochastic component (each replica's fetch sampling, each client's
arrival process, the jitter on each link, ...) draws from its own named
child stream derived from a single root seed. Runs are therefore
bit-for-bit reproducible, and adding a new consumer does not perturb the
draws seen by existing ones.
"""

from __future__ import annotations

import hashlib
import random


class RngRegistry:
    """Factory for deterministic per-component ``random.Random`` streams."""

    def __init__(self, root_seed: int) -> None:
        self._root_seed = int(root_seed)
        self._streams: dict[str, random.Random] = {}

    @property
    def root_seed(self) -> int:
        return self._root_seed

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use.

        The child seed is an SHA-256 digest of ``(root_seed, name)`` so
        streams are statistically independent and stable across runs and
        Python versions (unlike ``hash()``, which is salted).
        """
        if name not in self._streams:
            material = f"{self._root_seed}:{name}".encode()
            digest = hashlib.sha256(material).digest()
            child_seed = int.from_bytes(digest[:8], "big")
            self._streams[name] = random.Random(child_seed)
        return self._streams[name]

    def derive_seed(self, name: str) -> int:
        """Derive a stable integer child seed for ``name``.

        Used where a plain integer is needed rather than a stream — e.g.
        the scenario fuzzer stamps each generated experiment with
        ``derive_seed(f"scenario.{i}")`` so one root seed reproduces the
        whole composition (topology, workload, fault schedule, and the
        run itself) bit-for-bit.
        """
        material = f"{self._root_seed}:seed:{name}".encode()
        digest = hashlib.sha256(material).digest()
        return int.from_bytes(digest[:8], "big")
