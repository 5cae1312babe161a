"""Reference kernel: fixed work whose time tracks the machine's current speed.

The benchmark runs this immediately before and after every timed
operation and divides the operation's time by the mean of the two, so a
CPU that slows down or speeds up mid-run cancels out of the ratio.

The code is deliberately frozen and self-contained (standard library
only, nothing from ``power_forge``): if it changed, every calibrated
figure would change with it.  It mixes the three kinds of work the
program's hot paths do: small-int bytecode loops, big-int multiply and
modulo, and a binary-search integer root over a Horner-evaluated big
value.
"""

from time import perf_counter

_BIG = (1 << 2203) - 1
_MOD = (1 << 1279) - 1
_COEFFS = tuple((_MOD >> (3 * j)) + j for j in range(40))


def _root(n, e):
    lo = 1 << ((n.bit_length() - 1) // e)
    hi = (lo << 1) - 1
    while lo < hi:
        mid = (lo + hi + 1) >> 1
        if mid**e <= n:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _bytecode_and_modmul(rounds):
    acc = 0
    x = 0x9E3779B97F4A7C15
    for i in range(rounds):
        for _ in range(200):
            x = (x * 1103515245 + 12345) & 0xFFFFFFFF
            acc += (x >> 7) % 13
        y = _BIG + i
        for _ in range(6):
            y = (y * y) % _MOD + x
        acc ^= y & 0xFFFF
    return acc


def _horner_and_root(rounds):
    acc = 0
    for i in range(rounds):
        u, v = 3 + i, 7
        a, vp = 0, 1
        for c in _COEFFS:
            a = a * u + c * vp
            vp *= v
        acc ^= a % 1000003
        acc ^= _root(a, 5) & 0xFF
        d = {}
        for j in range(300):
            d[j & 63] = d.get(j & 63, 0) + (j * j) % 11
        acc += sum(d.values()) & 0xF
    return acc


def kernel():
    """One unit of reference work (about 6 ms on a 2-core x86 sandbox)."""
    return _bytecode_and_modmul(20) ^ _horner_and_root(5)


def timed_kernel() -> float:
    """Seconds taken by one ``kernel()`` call; run.py and setup_probe.py both time it so."""
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0
