"""How fast the machine runs right now, read from fixed reference kernels.

On a shared machine the same work runs up to 1.6 times slower for
stretches of seconds to minutes, as other tenants load the caches, memory
and cores the benchmark shares with them; CPU time slows with wall time, so
it does not help.  A run therefore times four small kernels between
samples, none of which calls gopnet: a pure-Python loop, a small-array
numpy loop, a mini-batch SGD loop on a two-feature toy network shaped like
``moons_gop``'s finetune, and elementwise numpy work on 3-D arrays like the
nodal tensors.  Load slows kinds of code by different amounts (the Python
loop the most, the 3-D numpy work the least), and which kind it hits
hardest changes with what the other tenants run, so the mean of all four
tracks the workloads better than any one of them (README.md).

``slowdown()`` is the mean of the kernels' times, each divided by its time
on an unloaded machine (``NOMINAL_S``): about 1 when the machine is quiet,
1.5 when everything runs half as fast again.  A time divided by the
slowdown measured around it is the time the same work takes at the nominal
speed, still in seconds.  The kernels are part of the benchmark and must
not change, or times before and after stop comparing.
"""

from __future__ import annotations

import time

import numpy as np

# Time of each kernel on a 2-vCPU virtual machine, numpy 2.4.6 with
# scipy-openblas 0.3.31 on one thread: the fastest tenth of 474
# readings over 40 seconds, rounded.  They set the scale of the times
# reported, not their spread.
NOMINAL_S = {"python": 0.0050, "small_numpy": 0.0070, "sgd": 0.0056,
             "nodal_numpy": 0.0073}

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((64, 40))
_W0 = 0.1 * _rng.standard_normal((40, 40))
_A = _rng.standard_normal((32, 32, 32))
_XS = _rng.standard_normal((300, 2))
_YS = np.eye(2)[_rng.integers(0, 2, 300)]
_P0 = {"W1": 0.5 * _rng.standard_normal((2, 40)),
       "W2": 0.1 * _rng.standard_normal((40, 2)), "b2": np.zeros(2)}
# Results of at least a page go into these buffers: a kernel that allocated
# them would run at a speed set by the state of the process's allocator,
# which the workload before it leaves behind, and not only by the machine's.
_W, _DW = np.empty_like(_W0), np.empty_like(_W0)
_H, _G, _T = (np.empty((64, 40)) for _ in range(3))
_B, _C = np.empty_like(_A), np.empty((32, 32))


def _python(reps: int = 25_000) -> float:
    start = time.perf_counter()
    counts, total = {}, 0
    for i in range(reps):
        counts[i % 97] = counts.get(i % 97, 0) + i
        total += len(str(i)) * (i & 7)
    return time.perf_counter() - start


def _small_numpy(reps: int = 300) -> float:
    np.copyto(_W, _W0)
    start = time.perf_counter()
    for _ in range(reps):
        np.tanh(np.matmul(_X, _W, out=_H), out=_H)
        np.subtract(1, np.multiply(_H, _H, out=_G), out=_G)
        np.multiply(_G, np.subtract(_H, 0.5, out=_T), out=_G)
        np.multiply(np.matmul(_X.T, _G, out=_DW), 0.001, out=_DW)
        np.subtract(_W, _DW, out=_W)
        float(_G.sum())
    return time.perf_counter() - start


def _sgd(epochs: int = 6, batch: int = 32, lr: float = 0.01) -> float:
    """Multiplication nodal, summation pool, batch standardizing, tanh,
    dropout, a linear head, MSE and a max-norm limit: 10 batches an epoch."""
    rng = np.random.default_rng(1)
    p = {k: v.copy() for k, v in _P0.items()}
    start = time.perf_counter()
    for _ in range(epochs):
        order = rng.permutation(len(_XS))
        for first in range(0, len(_XS), batch):
            idx = order[first:first + batch]
            with np.errstate(over="ignore", invalid="ignore"):
                x, y = _XS[idx], _YS[idx]
                a = (x[:, :, None] * p["W1"][None]).sum(axis=1)
                h = np.tanh((a - a.mean(axis=0)) / (a.std(axis=0) + 1e-5))
                mask = (rng.random(h.shape) > 0.3) / 0.7
                out = (h * mask) @ p["W2"] + p["b2"]
                d = 2 * (out - y) / len(idx)
                dh = (d @ p["W2"].T) * mask * (1 - h * h)
                grads = {"W1": (dh[:, None, :] * x[:, :, None]).sum(axis=0),
                         "W2": (h * mask).T @ d, "b2": d.sum(axis=0)}
                float(((out - y) ** 2).mean())
                int((out.argmax(axis=1) == y.argmax(axis=1)).sum())
            for name, grad in grads.items():
                p[name] -= lr * grad
            norms = np.sqrt((p["W1"] ** 2).sum(axis=0))
            p["W1"] *= np.minimum(1.0, 2.0 / np.maximum(norms, 1e-12))
    return time.perf_counter() - start


def _nodal_numpy(reps: int = 60) -> float:
    start = time.perf_counter()
    for _ in range(reps):
        np.exp(np.negative(np.multiply(_A, _A, out=_B), out=_B), out=_B)
        _B.sum(axis=1, out=_C)
        np.maximum(_A, 0, out=_B).max(axis=1, out=_C)
    return time.perf_counter() - start


KERNELS = {"python": _python, "small_numpy": _small_numpy, "sgd": _sgd,
           "nodal_numpy": _nodal_numpy}


def kernel_times() -> dict[str, float]:
    """Seconds each reference kernel takes once, now."""
    return {name: kernel() for name, kernel in KERNELS.items()}


def slowdown(times: dict[str, float] | None = None) -> float:
    """Mean of the kernels' times (``times``, or timed now) over their
    nominal times, about 1 when the machine runs at its nominal speed."""
    times = times or kernel_times()
    return sum(times[name] / NOMINAL_S[name] for name in KERNELS) / len(KERNELS)
