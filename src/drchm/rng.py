"""Deterministic stream seeding.

Every sampling routine takes a (master_seed, stream) pair.  Streams are
derived with SeedSequence spawn keys, so distinct streams are statistically
independent and a given pair always produces the same generator, regardless
of how many other streams were used before it.  Replicates can therefore be
distributed across processes in any order.
"""

from __future__ import annotations

# Imported by name: numpy loads numpy.random on first attribute access,
# which would otherwise fall inside the first timed draw.
from numpy.random import PCG64, Generator, SeedSequence


def stream_generator(master_seed: int, stream: int = 0) -> Generator:
    """Generator for the given replicate stream of a master seed."""
    ss = SeedSequence(master_seed, spawn_key=(stream,))
    return Generator(PCG64(ss))


def substream_generator(master_seed: int, stream: int, tag: int) -> Generator:
    """Independent sub-generator, e.g. one per weight band within a stream."""
    ss = SeedSequence(master_seed, spawn_key=(stream, tag))
    return Generator(PCG64(ss))
