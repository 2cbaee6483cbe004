"""A fixed kernel that measures how fast the host runs at the moment."""
import hashlib
import statistics
from time import perf_counter

import numpy as np


def calibration_s() -> float:
    """Median seconds of a fixed kernel that mixes the work dlab does: keyed
    blake2b hashing with dict updates in the interpreter, and small numpy
    matrix products. It is the benchmark's own code, so a change to dlab
    cannot move it; only the host's speed does."""
    times = []
    x = np.linspace(0.0, 1.0, 32 * 1024).reshape(32, 1024)
    for _ in range(9):
        start = perf_counter()
        acc: dict[int, float] = {}
        for i in range(20000):
            digest = hashlib.blake2b(f"w{i % 997} x{i % 31}".encode(), digest_size=8,
                                     key=b"perfbench").digest()
            h = int.from_bytes(digest, "little")
            acc[h % 1024] = acc.get(h % 1024, 0.0) + (1.0 if h >> 63 else -1.0)
        w = np.zeros((2, 1024))
        for _ in range(300):
            z = x @ w.T
            p = np.exp(z - z.max(axis=1, keepdims=True))
            w -= 1e-3 * (p.T @ x)
        times.append(perf_counter() - start)
    return statistics.median(times)
