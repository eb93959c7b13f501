"""Counter-based random numbers keyed by (seed, replicate, tree position).

Every subdivision-tree node gets one uniform in [0, 1) computed as a
stateless hash of ``(master seed, sample index, level, cell index)``. This
makes sampling deterministic, order-insensitive and embarrassingly
parallel: replicates and tree branches never share generator state, and a
realization regenerated at a coarser level reproduces the coarse cells
bit for bit. Because the survival probability does not enter the hash,
grids drawn for different ``p`` from the same seed are coupled through
shared uniforms (cell-wise monotone in ``p``).

The hash runs in two steps: ``node_key`` folds (seed, sample index, level)
into one key per level of a replicate, and ``cell_uniforms`` hashes each
cell index under its key, so a stack of replicates hashes its keys once
per level. The mixer is the 64-bit xor-shift-multiply finalizer used by
splitmix-style generators, applied after each key word is folded in.
"""

from __future__ import annotations

import numpy as np

_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_SAMPLE_SALT = np.uint64(0xD6E8FEB86659FD93)
_LEVEL_SALT = np.uint64(0xA5CB3F6DC3E1A7A9)
_U53_INV = 1.0 / float(1 << 53)


def _mix(z):
    """64-bit finalizer; diffuses every input bit across the word."""
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def node_key(seed: int, sample_index, level: int):
    """Key shared by all cells of one level of one replicate.

    ``sample_index`` may be a scalar (one key) or an array (one key per
    element, same shape).
    """
    with np.errstate(over="ignore"):
        z = _mix(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + _GOLDEN)
        z = _mix(z ^ (np.uint64(sample_index) + np.uint64(1)) * _SAMPLE_SALT)
        z = _mix(z ^ (np.uint64(level) + np.uint64(1)) * _LEVEL_SALT)
    return z


def cell_uniforms(key, cell_indices) -> np.ndarray:
    """Uniforms in [0, 1) of the given cells under level keys from :func:`node_key`.

    ``key`` may be one key or an array of keys broadcastable against
    ``cell_indices`` (one key per cell serves a stack of replicates).
    """
    idx = np.asarray(cell_indices, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = _mix(_mix(key ^ (idx + np.uint64(1)) * _GOLDEN))
    return (z >> np.uint64(11)).astype(np.float64) * _U53_INV


def node_uniforms(seed: int, sample_index, level: int, cell_indices) -> np.ndarray:
    """Uniforms in [0, 1) for the given cells of one subdivision level.

    ``cell_indices`` are row-major cell positions within the level's grid;
    ``sample_index`` may be a scalar or an array broadcastable against
    them (the vector form serves bulk statistical tests).
    """
    return cell_uniforms(node_key(seed, sample_index, level), cell_indices)


def derive_seed(seed: int, tag: str) -> int:
    """Deterministic sub-seed for independent streams (e.g. one per p value)."""
    h = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    with np.errstate(over="ignore"):
        for byte in tag.encode("utf-8"):
            h = _mix((h ^ np.uint64(byte)) + _GOLDEN)
    return int(h)
