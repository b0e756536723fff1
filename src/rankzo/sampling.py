"""Gaussian direction batches, the rank oracle, and the query ledger.

The sampler draws ``n`` i.i.d. standard normal directions per iteration
from a counter-based Philox generator (64-bit seed), so every batch is
reproducible bit for bit across platforms.  ``n`` must be a positive
multiple of 4 (:func:`check_sample_size`) because the selected index set
splits into a best quartile and a worst quartile.

:class:`DrawAhead` draws a stream's samples a block ahead on one drawer
thread: a run's directions, and the E1..E5 pass's trial batches.  The
values come off the generator in the same order whatever the block
sizes, so no output depends on them; :func:`draw_blocks` sets them.

The rank oracle evaluates the ``n`` probe points ``x + alpha * u_i``
through the run's :class:`QueryLedger`, the one place queries are
charged, and returns the stable ascending permutation of the values
together with the values.  Callers in the practical regime consume
nothing but the permutation; the raw values are an instrumentation
side channel for theory validation.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from .objective import Objective, evaluate, evaluate_batch

__all__ = [
    "DrawAhead",
    "draw_blocks",
    "QueryLedger",
    "NonFiniteValueError",
    "check_sample_size",
    "new_generator",
    "sample_directions",
    "rank_oracle",
    "selected_ranks",
]


class NonFiniteValueError(ValueError):
    """A probe returned nan/inf; ``index`` is the offending sample."""

    def __init__(self, index: int, value: float):
        self.index = index
        self.value = value
        super().__init__(f"non-finite objective value {value!r} at sample index {index}")


def check_sample_size(n: int) -> None:
    """Reject a batch size ``n`` that is not a positive multiple of 4."""
    if n < 4 or n % 4 != 0:
        raise ValueError(f"n must be >= 4 and divisible by 4, got {n}")


def new_generator(seed: int) -> np.random.Generator:
    """Philox-backed generator for a documented 64-bit seed."""
    return np.random.Generator(np.random.Philox(seed))


@dataclass
class QueryLedger:
    """A run's one query path: ``value(x)`` is :func:`evaluate` and
    ``values(points)`` :func:`evaluate_batch` on ``obj``, each charging
    one query per point that returned.  A run's uncharged diagnostics
    (f(x_t), the gradient, the final f) read ``obj`` directly."""

    obj: Objective
    _total: int = field(default=0, init=False)

    @property
    def total_queries(self) -> int:
        return self._total

    def value(self, x: np.ndarray) -> float:
        f = evaluate(self.obj, x)
        self.charge(1)
        return f

    def values(self, points: np.ndarray) -> np.ndarray:
        fvals = evaluate_batch(self.obj, points)
        self.charge(len(fvals))
        return fvals

    def charge(self, n: int) -> None:
        if n < 0:
            raise ValueError("cannot charge a negative query count")
        self._total += int(n)


#: most float64 values one block of a draw holds (400 KB)
_BLOCK_VALUES = 50_000
#: most samples the first block of a draw holds
_FIRST_BLOCK = 8


def draw_blocks(values_per_sample: int, samples: int) -> List[int]:
    """Sample counts of the blocks that draw ``samples`` samples of
    ``values_per_sample`` values each; the one layout of every draw: a
    run's directions and the E1..E5 pass's trials, each through a
    :class:`DrawAhead`, and each appendix check's trials.

    The first block holds at most :data:`_FIRST_BLOCK` samples, as
    nothing overlaps its draw and a stream that stops early wastes the
    rest of its block and the one drawn ahead; each later one twice the
    one before, up to :data:`_BLOCK_VALUES` values (24 samples at
    n = 16, d = 128; 15 trials of the pass at n = 32, d = 100), so a
    block fits in a 1-2 MB L2 cache; a block holds at least one sample.
    A DrawAhead holds two blocks, an appendix check about one, and the
    E1..E5 pass about five: two draw buffers, one probe buffer, and the
    quadratic's ``z`` and ``z @ a``.  The values come off each generator
    in order, so no output depends on this layout.
    """
    most = max(1, _BLOCK_VALUES // values_per_sample)
    sizes, size = [], min(_FIRST_BLOCK, most)
    while samples > 0:
        sizes.append(min(size, samples))
        samples -= size
        size = min(2 * size, most)
    return sizes


class DrawAhead:
    """Standard normal samples of ``shape``, drawn from ``rng`` a block
    ahead on one drawer thread.

    ``sizes`` lists the sample count of each block in turn, each at
    least one.  The constructor, on the calling thread, allocates two
    buffers of the largest block's size once, and starts the drawer,
    which fills blocks into them in turn: block k+1 while the caller
    consumes block k, and never block k+2 before the caller has moved on
    to block k+1.  The values come off ``rng`` in order, so they are
    those of one draw whatever the sizes, and no draw is made past the
    last block.  A caller that stops early leaves ``rng`` up to two
    blocks past what it used.  Nothing else may draw from ``rng`` until
    :meth:`close`.

    Consume it one way only: iterating gives whole blocks, each a view
    of shape ``(m,) + shape`` that stays intact until the next block is
    asked for; :meth:`standard_normal` gives one sample at a time, the
    one ``Generator`` method :func:`sample_directions` calls.  An error
    the drawer meets re-raises in the caller, at the block it was
    drawing.  :meth:`close` (or leaving a ``with`` block) stops and
    joins the drawer.
    """

    def __init__(self, rng: np.random.Generator, shape: Tuple[int, ...],
                 sizes: Sequence[int]):
        if min(sizes, default=1) < 1:
            raise ValueError("every block must hold at least one sample")
        self._shape = tuple(shape)
        self._bufs = np.empty((2, max(sizes, default=0)) + self._shape)
        self._free = threading.Semaphore(2)   # buffers the drawer may fill
        self._ready = threading.Semaphore(0)  # blocks, or the end, handed over
        self._blocks = [None, None]           # block k is in slot k % 2
        self._end = None                      # blocks drawn, once the drawer stops
        self._error = None
        self._stop = False
        self._k = 0                           # blocks handed to the caller
        self._block = self._bufs[0][:0]       # the block standard_normal reads
        self._i = 0
        self._drawer = threading.Thread(target=self._draw, args=(rng, sizes),
                                        name="rankzo-draw-ahead", daemon=True)
        self._drawer.start()

    def _draw(self, rng, sizes) -> None:
        drawn = 0
        try:
            for m in sizes:
                self._free.acquire()
                if self._stop:
                    return
                slot = drawn % 2
                self._blocks[slot] = rng.standard_normal(out=self._bufs[slot][:m])
                self._ready.release()
                drawn += 1
        except Exception as exc:
            self._error = exc
        self._end = drawn
        self._ready.release()

    def __iter__(self):
        return self

    def __next__(self) -> np.ndarray:
        k = self._k
        if k:  # the caller is done with block k-1: its buffer takes block k+1
            self._free.release()
        self._ready.acquire()
        if k == self._end:
            self._ready.release()  # every later call ends here too
            if self._error is not None:
                raise self._error
            raise StopIteration
        self._k = k + 1
        return self._blocks[k % 2]

    def standard_normal(self, size: Tuple[int, ...]) -> np.ndarray:
        """The next sample, a view that stays intact until the next call;
        ``size`` must be the stream's sample shape."""
        if size != self._shape:
            raise ValueError(f"this stream draws samples of shape {self._shape}, "
                             f"not {size}")
        i = self._i
        if i == len(self._block):
            self._block = next(self)
            i = 0
        self._i = i + 1
        return self._block[i]

    def close(self) -> None:
        """Stop the drawer after the block it is drawing, and join it."""
        self._stop = True
        self._free.release()
        self._drawer.join()

    def __enter__(self) -> "DrawAhead":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def sample_directions(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """Draw an ``n x d`` standard normal batch, advancing ``rng``.

    Same generator state in, same batch out (bitwise).  ``rng`` may also
    be a :class:`DrawAhead` of ``(n, d)`` samples, as in
    :func:`~rankzo.optimizer.run`; the batch is then a view into its
    buffers, valid only until the next sample is drawn.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    check_sample_size(n)
    return rng.standard_normal((n, d))


def rank_oracle(ledger: QueryLedger, x: np.ndarray, alpha: float,
                u: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Evaluate the probes ``x + alpha*u_i`` through ``ledger`` and return
    ``(perm, fvals)``.

    ``perm[j]`` is the sample index of the (j+1)-th smallest probe value,
    i.e. ``fvals[perm[0]] <= fvals[perm[1]] <= ...`` with ties broken by
    ascending index.  ``fvals`` is instrumentation only.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    fvals = ledger.values(alpha * u + np.asarray(x, dtype=float))
    perm = fvals.argsort(kind="stable")
    # the sort puts -inf first and +inf, then nan, last: the two ends are
    # finite exactly when every value is
    if perm.size and not (-math.inf < fvals[perm[0]] and fvals[perm[-1]] < math.inf):
        bad = int(np.flatnonzero(~np.isfinite(fvals))[0])
        raise NonFiniteValueError(bad, float(fvals[bad]))
    return perm, fvals


def selected_ranks(n: int) -> np.ndarray:
    """The selected index set: 1-based ranks 1..n/4 (best quartile), then
    3n/4+1..n (worst quartile).

    These n/2 ranks receive the nonzero weights.
    """
    check_sample_size(n)
    return np.concatenate([np.arange(1, n // 4 + 1),
                           np.arange(3 * n // 4 + 1, n + 1)])
