"""Counter-based deterministic randomness.

Every random decision in the toolkit is a pure function of
(seed_root, stream label, counter), derived through BLAKE2b. No state
is carried between draws, so results are identical across platforms,
process counts, and call orders.
"""

from __future__ import annotations

import hashlib


def _checked_seed(seed_root: int) -> int:
    """``seed_root`` as an int; one outside [0, 2**64), the seeds 8 bytes hold, raises ValueError."""
    if not 0 <= int(seed_root) < 1 << 64:
        raise ValueError("seed must be in [0, 2**64), got %r" % seed_root)
    return int(seed_root)


def derive_u64(seed_root: int, label: str, counter: int) -> int:
    """64-bit value keyed by (seed_root, label, counter)."""
    h = hashlib.blake2b(digest_size=8)
    h.update(_checked_seed(seed_root).to_bytes(8, "little"))
    h.update(label.encode("utf-8"))
    h.update(b"\x00")  # separator so label boundaries are unambiguous
    h.update(int(counter).to_bytes(8, "little", signed=False))
    return int.from_bytes(h.digest(), "little")


def draw_index(seed_root: int, label: str, counter: int, n: int) -> int:
    """Uniform index in [0, n) via the multiply-shift reduction.

    Bias is at most n / 2**64, negligible for any voxel count.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    return (derive_u64(seed_root, label, counter) * n) >> 64


def shuffle_key(seed_root: int, label: str) -> bytes:
    """Sort key for deterministic shuffles (order items by this digest)."""
    h = hashlib.blake2b(digest_size=16)
    h.update(_checked_seed(seed_root).to_bytes(8, "little"))
    h.update(label.encode("utf-8"))
    return h.digest()
