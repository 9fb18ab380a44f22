"""Deterministic random-number management.

Every stochastic component in the repository (weight init, data synthesis,
batch sampling, simulated compute/communication jitter) draws from a
:class:`RngTree` so that a single experiment seed reproduces the entire run
bit-for-bit.  Children are derived with :meth:`numpy.random.SeedSequence.spawn`
semantics, keyed by *name* rather than call order, so adding a new consumer
never perturbs existing streams.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional, Union

import numpy as np

SeedLike = Union[int, np.random.Generator, "RngTree", None]

#: the seed behind :func:`fallback_rng` — arbitrary but stable, so code
#: paths that never received an explicit seed are still reproducible
FALLBACK_SEED = 0x5EED


def fallback_rng() -> np.random.Generator:
    """A fresh, deterministically-seeded Generator for optional-``rng`` APIs.

    Layers and tensor factories accept ``rng=None`` for convenience; the
    fallback used to be an *unseeded* ``default_rng()``, which made "I
    forgot to pass an rng" silently nondeterministic.  Every such call
    now starts from :data:`FALLBACK_SEED` instead.  Each call returns an
    independent Generator with the same initial state — two layers
    built without an rng will draw identical streams, which is
    the price of determinism by default; pass explicit generators (e.g.
    from an :class:`RngTree`) where streams must differ.
    """
    return np.random.default_rng(FALLBACK_SEED)


def _hash_name(name: str) -> int:
    """Map a child name to a stable 64-bit integer."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class RngTree:
    """A named tree of independent :class:`numpy.random.Generator` streams.

    Parameters
    ----------
    seed:
        Root seed of the tree.  Two trees built from the same seed produce
        identical streams for identical child names.

    Examples
    --------
    >>> tree = RngTree(1234)
    >>> init_rng = tree.generator("weight-init")
    >>> sampler = tree.child("worker-3").generator("batches")
    """

    def __init__(self, seed: int = 0) -> None:
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self._seed = int(seed)
        self._children: Dict[str, "RngTree"] = {}
        self._generators: Dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """Root seed this tree was built from."""
        return self._seed

    def child(self, name: str) -> "RngTree":
        """Return (and memoize) the child tree for ``name``."""
        if name not in self._children:
            mixed = (self._seed * 0x9E3779B97F4A7C15 + _hash_name(name)) % (2**63)
            self._children[name] = RngTree(mixed)
        return self._children[name]

    def generator(self, name: str = "default") -> np.random.Generator:
        """Return (and memoize) a Generator keyed by ``name``."""
        if name not in self._generators:
            mixed = (self._seed * 0xC2B2AE3D27D4EB4F + _hash_name(name)) % (2**63)
            self._generators[name] = np.random.default_rng(mixed)
        return self._generators[name]

    def fresh_generator(self, name: str = "default") -> np.random.Generator:
        """Return a *new* generator each call (same starting state per name)."""
        mixed = (self._seed * 0xC2B2AE3D27D4EB4F + _hash_name(name)) % (2**63)
        return np.random.default_rng(mixed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngTree(seed={self._seed}, children={sorted(self._children)})"


def as_generator(seed: SeedLike, name: str = "default") -> np.random.Generator:
    """Coerce ``seed`` (int / Generator / RngTree / None) to a Generator.

    ``None`` coerces to the deterministic :func:`fallback_rng`, keeping
    seedless call sites reproducible rather than silently random.
    """
    if seed is None:
        return fallback_rng()
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, RngTree):
        return seed.generator(name)
    if isinstance(seed, (int, np.integer)):
        return np.random.default_rng(int(seed))
    raise TypeError(f"cannot coerce {type(seed).__name__} to a Generator")
