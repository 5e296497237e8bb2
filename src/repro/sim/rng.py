"""Deterministic randomness shared by every simulated component.

Each subsystem that needs noise (sensor jitter, tenant burstiness, placement)
derives a named child stream from one root seed, so adding a new consumer
never perturbs the draws seen by existing ones.

Two families of streams live here:

* **Stateful streams** (:meth:`DeterministicRNG.stream`): named
  ``random.Random`` generators. Draw values depend on *visit order*, so
  they suit consumers that tick on a fixed schedule (sensor noise per
  sample). They cannot be vectorized and they go wrong the moment two
  call sites share a stream or a coalescing engine skips a visit.
* **Keyed streams** (:meth:`DeterministicRNG.keyed` and the module-level
  ``keyed_*`` functions): stateless draws addressed by ``(stream key,
  integer index)``. Draw ``i`` is a splitmix64 finalizer mix of the key
  and index — pure 64-bit integer arithmetic, so the scalar Python path
  and the numpy vector path produce **bit-identical** floats for the
  same ``(key, index)``. This is what lets the columnar tenant
  population (:mod:`repro.datacenter.population`) reproduce per-object
  :class:`~repro.datacenter.tenants.DiurnalTenantDriver` traces exactly,
  and what makes draws immune to visit order and tick coalescing
  (``day-factor@<day>``, ``burst@<adjust#>`` — the same addressing
  pattern the fault injector uses for ``oom-victim@t#label``).
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict

import numpy as np

_MASK64 = (1 << 64) - 1
#: splitmix64 constants (Steele, Lea & Flood; same mix java.util uses)
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
#: one draw carries 53 mantissa bits into [0, 1)
_U01_SCALE = 2.0**-53
#: the mix's shift and multiplier operands as numpy uint64 scalars
_S11, _S27, _S30, _S31 = (np.uint64(n) for n in (11, 27, 30, 31))
_U_MIX1, _U_MIX2 = np.uint64(_MIX1), np.uint64(_MIX2)


def stream_key(seed: int, name: str) -> int:
    """The 64-bit key of stream ``name`` under ``seed`` (sha256-derived)."""
    digest = hashlib.sha256(f"{seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def splitmix64(value: int) -> int:
    """The splitmix64 finalizer over one 64-bit integer."""
    value &= _MASK64
    value = ((value ^ (value >> 30)) * _MIX1) & _MASK64
    value = ((value ^ (value >> 27)) * _MIX2) & _MASK64
    return value ^ (value >> 31)


def keyed_u64(key: int, index: int) -> int:
    """Draw ``index`` of the keyed stream ``key`` as a uint64."""
    return splitmix64((key + (index + 1) * _GAMMA) & _MASK64)


def keyed_u01(key: int, index: int) -> float:
    """Draw ``index`` as a float in [0, 1) (top 53 bits of the mix)."""
    return (keyed_u64(key, index) >> 11) * _U01_SCALE


def keyed_uniform(key: int, index: int, lo: float, hi: float) -> float:
    """Draw ``index`` as a uniform float in [lo, hi)."""
    return lo + (hi - lo) * keyed_u01(key, index)


def keyed_u01_array(keys: "np.ndarray", index: int) -> "np.ndarray":
    """Vector form of :func:`keyed_u01` over a uint64 key array.

    Pure uint64 wraparound arithmetic plus an exact int→float convert,
    so element ``i`` equals ``keyed_u01(int(keys[i]), index)`` bit for
    bit regardless of array length.
    """
    inc = ((index + 1) * _GAMMA) & _MASK64
    with np.errstate(over="ignore"):
        return _mixed_u01(keys + np.uint64(inc))


def _mixed_u01(x: "np.ndarray") -> "np.ndarray":
    """The splitmix64 finalizer over the uint64 array ``x``, in place, as
    floats in [0, 1) from the top 53 bits (array uint64 arithmetic wraps
    silently)."""
    x ^= x >> _S30
    x *= _U_MIX1
    x ^= x >> _S27
    x *= _U_MIX2
    x ^= x >> _S31
    x >>= _S11
    return x.astype(np.float64) * _U01_SCALE


def keyed_u01_at(keys: "np.ndarray", indices: "np.ndarray") -> "np.ndarray":
    """Per-element-index vector form of :func:`keyed_u01`.

    Like :func:`keyed_u01_array` but each key draws at its *own* index:
    element ``i`` equals ``keyed_u01(int(keys[i]), int(indices[i]))`` bit
    for bit. This is what lets per-host draw cursors advance independently
    (hosts materialize and demote at different times) while staying on the
    same keyed streams the scalar subsystems read.
    """
    with np.errstate(over="ignore"):
        inc = (indices.astype(np.uint64) + np.uint64(1)) * np.uint64(_GAMMA)
        x = keys + inc
        x = (x ^ (x >> np.uint64(30))) * np.uint64(_MIX1)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(_MIX2)
        x = x ^ (x >> np.uint64(31))
    return (x >> np.uint64(11)).astype(np.float64) * _U01_SCALE


def keyed_uniform_array(
    keys: "np.ndarray", index: int, lo: float, hi: float
) -> "np.ndarray":
    """Vector form of :func:`keyed_uniform` (same expression shape)."""
    return lo + (hi - lo) * keyed_u01_array(keys, index)


def keyed_gauss_array(keys: "np.ndarray", index: int, sigma: float) -> "np.ndarray":
    """Vector N(0, sigma) draws via Box–Muller over sub-draws 2i, 2i+1.

    The transcendental steps (log1p/sqrt/cos) run through numpy ufuncs in
    both the scalar and vector paths — :func:`keyed_gauss` wraps this on a
    one-element array — so the two paths cannot diverge by a libm ULP.
    Both sub-draws mix in one ``(2, n)`` pass.
    """
    incs = np.array(
        [[((2 * index + 1) * _GAMMA) & _MASK64], [((2 * index + 2) * _GAMMA) & _MASK64]],
        dtype=np.uint64,
    )
    u = _mixed_u01(keys + incs)
    radius = np.sqrt(-2.0 * np.log1p(-u[0]))
    return sigma * (radius * np.cos((2.0 * np.pi) * u[1]))


def keyed_gauss(key: int, index: int, sigma: float) -> float:
    """Scalar N(0, sigma) draw; bit-identical to :func:`keyed_gauss_array`."""
    out = keyed_gauss_array(np.array([key], dtype=np.uint64), index, sigma)
    return float(out[0])


def randint(getrandbits, a: int, b: int) -> int:
    """``random.Random.randint(a, b)``, draw for draw, from ``getrandbits``.

    Pass a stream's bound ``getrandbits``: the same rejection sampling as
    CPython's ``Random._randbelow`` (``k = n.bit_length()`` bits per
    try), minus the argument-normalising layers of ``randint`` →
    ``randrange``, which dominate a hot loop of small draws.
    """
    n = b - a + 1
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return a + r


class KeyedStream:
    """Stateless draws for one named stream: address by integer index.

    Unlike ``random.Random`` streams, a keyed stream has no cursor —
    ``u01(7)`` returns the same float whether it is the first call or the
    millionth, and the numpy batch helpers reproduce it exactly.
    """

    __slots__ = ("key",)

    def __init__(self, key: int):
        self.key = int(key) & _MASK64

    def u01(self, index: int) -> float:
        return keyed_u01(self.key, index)

    def uniform(self, index: int, lo: float, hi: float) -> float:
        return keyed_uniform(self.key, index, lo, hi)

    def gauss(self, index: int, sigma: float) -> float:
        return keyed_gauss(self.key, index, sigma)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KeyedStream(key={self.key:#018x})"


class DeterministicRNG:
    """A tree of named ``random.Random`` streams under one root seed.

    ``rng.stream("power-noise")`` always returns the same generator object
    for a given name, seeded from ``(root_seed, name)``; two
    :class:`DeterministicRNG` instances with equal seeds produce identical
    streams for identical names.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: Dict[str, random.Random] = {}
        self._keyed: Dict[str, KeyedStream] = {}

    def stream(self, name: str) -> random.Random:
        """Return (creating if needed) the child stream called ``name``."""
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        digest = hashlib.sha256(f"{self.seed}:{name}".encode("utf-8")).digest()
        child = random.Random(int.from_bytes(digest[:8], "big"))
        self._streams[name] = child
        return child

    def keyed(self, name: str) -> KeyedStream:
        """Return the stateless keyed stream called ``name``.

        The key is derived exactly like :meth:`stream` seeds
        (``sha256(f"{seed}:{name}")``), so two trees with equal seeds
        agree on every keyed draw — including across process boundaries
        and between scalar and vectorized consumers.
        """
        existing = self._keyed.get(name)
        if existing is not None:
            return existing
        child = KeyedStream(stream_key(self.seed, name))
        self._keyed[name] = child
        return child

    def fork(self, name: str) -> "DeterministicRNG":
        """Derive an independent child RNG tree (e.g. one per server)."""
        digest = hashlib.sha256(f"{self.seed}/{name}".encode("utf-8")).digest()
        return DeterministicRNG(int.from_bytes(digest[:8], "big"))

    def uniform(self, name: str, lo: float, hi: float) -> float:
        """Convenience: one uniform draw from the named stream."""
        return self.stream(name).uniform(lo, hi)

    def gauss(self, name: str, mu: float, sigma: float) -> float:
        """Convenience: one Gaussian draw from the named stream."""
        return self.stream(name).gauss(mu, sigma)

    def hex_token(self, name: str, nbytes: int = 16) -> str:
        """A reproducible hex token (used for boot_id-style identifiers)."""
        return "".join(
            f"{self.stream(name).randrange(256):02x}" for _ in range(nbytes)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DeterministicRNG(seed={self.seed})"
