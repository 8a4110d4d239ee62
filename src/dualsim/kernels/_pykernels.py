"""Pure-Python simulation kernels: the fallback twin of the compiled
``_ckernels``.

The kernel contract (arguments, result rows, grid sampling, the stop rule,
the table format, status and rate-law codes, seed masking) is written once,
in the docstring of the ``dualsim.kernels`` package.  What is particular to
this backend:

- it backs the package when the extension was not built (no C compiler at
  install time);
- result rows view one ``array('d')``, built by ``_recorder``, which alone
  knows whether a run records per event or on a grid;
- ``_rng`` draws the package's one stream from numpy's ``SFC64``, so both
  backends return the same rows for a seed;
- the loops are written for speed under CPython: bound locals, flat floats,
  no per-event allocation beyond the output samples;
- where Python's scalar arithmetic raises (a division by 0, or
  ``math.pow`` off its domain or range), ``_ieee`` gives C's inf or nan;
- ``write_rows`` maps ``repr`` over each replicate's columns and hands
  ``write`` one piece per replicate; like the C twin it is kept out of
  ``kernels.__all__`` (see the package docstring).
"""

from __future__ import annotations

import math
from array import array
from itertools import chain, repeat
from numbers import Real
from operator import index, lt

import numpy as np

_INF = math.inf

_MAX_HALVINGS = 40  # per micro-step, before giving up on positivity
_GRID_ERROR = "grid must be a non-empty contiguous 1-D buffer of doubles"
_REL_UNDERSHOOT_TOL = 1e-12
_MAX_STEPS = 5e7  # ssa.DEFAULT_MAX_EVENTS, the step cap of ssa._check_steps
_STEP_ERROR = "need a finite dt > 0 and a finite t_end >= 0, with t_end / dt at most 5e7"
_END_ERROR = "need a finite t_end >= 0"
_GRID_TIME_ERROR = "grid times must be finite, >= 0 and strictly increasing"
_KIND_ERROR = "kind must be 0 (power law) or 1 (Gompertz)"
# seeds each run's SFC64 before its state is set, so a start draws no OS entropy
_SEED_SEQUENCE = np.random.SeedSequence(0)


def _pow(x: float, e: float) -> float:
    # Fast paths are exact, which keeps equivalent rate formulations
    # (e.g. frozen cohorts vs live channels) bitwise identical.
    if e == 1.0:
        return x
    if e == 2.0:
        return x * x
    if e == 0.0:
        return 1.0
    try:
        return math.pow(x, e)
    except (OverflowError, ValueError):
        return _ieee(np.power, x, e)


def _ieee(op, x: float, *ys: float) -> float:
    """``op(x, *ys)`` on doubles as C computes it, an inf or a nan, where
    Python's scalar arithmetic or ``math`` raises instead."""
    with np.errstate(all="ignore"):
        return float(op(np.float64(x), *ys))


def _doubles(*xs):
    """``xs`` as floats, as the compiled kernels parse each double argument
    ("d"): a str or bytes raises TypeError rather than being parsed."""
    for x in xs:
        if isinstance(x, (str, bytes, bytearray)):
            raise TypeError(f"must be real number, not {type(x).__name__}")
    return map(float, xs)


def _ints(fmt, *xs):
    """``xs`` as ints, as the compiled kernels parse each integer argument ("i"
    or "l", ``fmt``): TypeError without ``__index__``, OverflowError out of range."""
    return array(fmt, map(index, xs))


def _check_steps(dt: float, t_end: float) -> None:
    """ValueError unless the fixed-step kernels (``_rk4``, ``tau_leap``) take
    ``dt`` and ``t_end``; twin of the compiled ``check_steps``."""
    if not (0.0 < dt < _INF and 0.0 <= t_end < _INF and t_end / dt <= _MAX_STEPS):
        raise ValueError(_STEP_ERROR)


def _check_end(t_end: float) -> None:
    """ValueError unless the event-driven kernels (``ssa``, ``ssa_frozen``)
    take ``t_end``; twin of the compiled ``check_end``."""
    if not 0.0 <= t_end < _INF:
        raise ValueError(_END_ERROR)


def _recorder(grid, a: float, b: float):
    """``(push, finish)`` for the (t, a, b) rows of one run, which starts at
    (0, a, b).

    ``push(t, a, b)`` records a sample.  Without a grid every sample is kept.
    With one, a sample at time t gives every unfilled grid point before t
    the previous sample and is then held; ``finish(status)`` gives the
    remaining grid points the last sample (``hold=False``: only the next).
    It returns ``(rows, status)``, ``rows`` an (n, 3) memoryview of doubles.
    """
    flat: list[float] = []
    extend = flat.extend
    if grid is None:
        def push(t, a, b):
            extend((t, a, b))

        def fill(hold):
            pass
    else:
        try:
            view = memoryview(grid)
        except TypeError:
            view = None
        if (view is None or view.ndim != 1 or view.format != "d" or not view.c_contiguous
                or not view.shape[0]):
            raise TypeError(_GRID_ERROR)
        points = view.tolist()
        if not (points[0] >= 0.0 and points[-1] < _INF and all(map(lt, points, points[1:]))):  # false for nan
            raise ValueError(_GRID_TIME_ERROR)
        points.append(_INF)  # a sentinel no sample passes
        k = 0
        held = (0.0, a, b)

        def push(t, a, b):
            nonlocal k, held
            while points[k] < t:
                extend(held)
                k += 1
            held = (t, a, b)

        def fill(hold):
            extend(held * (len(points) - 1 - len(flat) // 3 if hold else 1))

    def finish(status, hold=True):
        fill(hold)
        return memoryview(array("d", flat)).cast("B").cast("d", (len(flat) // 3, 3)), status

    push(0.0, a, b)
    return push, finish


def _stop_status(push, R: float, t: float, t_end: float, a: float, b: float) -> int:
    """The status of a run whose total rate R left (0, inf): 2 when R == 0
    (no event can fire), which holds (a, b) until ``t_end``, else 5 (R
    negative, inf or nan); twin of the compiled ``stop_status``."""
    if R != 0.0:
        return 5
    if t < t_end:
        push(t_end, a, b)
    return 2


# ---------------------------------------------------------------------------
# deterministic fixed-step integration (classic 4th-order Runge-Kutta)
# ---------------------------------------------------------------------------

def _rk4(f, T, E, dt, t_end, grid, blowup):
    """The one RK4 stepper, twin of the compiled ``rk4_run``.

    ``f(T, E)`` returns (dT/dt, dE/dt); a one-species law keeps E at 0.  It
    refuses a step rule outside the kernels' domain, then records one row at
    each time of ``grid`` it reaches and steps on to ``t_end`` unrecorded;
    steps of ``dt`` end exactly on each of these targets.  A step that would
    undershoot zero by more than a relative 1e-12 is halved locally (at most
    40 times, else status 6; status 6 at once when it undershoots a stock at
    0 whose drift there points below zero), a component beyond ``blowup`` or
    nan stops the run with status 1, and small negative residues are clamped
    to 0.  The grid rule (``_recorder``) makes the targets increase, so the
    run travels to the later of ``t_end`` and the last grid time, which the
    step cap bounds too.
    """
    _check_steps(dt, t_end)
    if grid is None:  # which _recorder takes for "no grid"
        raise TypeError(_GRID_ERROR)
    t = 0.0
    push, finish = _recorder(grid, T, E)
    points = memoryview(grid).tolist()
    _check_steps(dt, max(t_end, points[-1]))
    for k, target in enumerate(points + [t_end]):
        while t < target - 1e-12:
            h = dt if t + dt <= target else target - t
            halvings = 0
            while True:
                kT1, kE1 = f(T, E)
                kT2, kE2 = f(T + 0.5 * h * kT1, E + 0.5 * h * kE1)
                kT3, kE3 = f(T + 0.5 * h * kT2, E + 0.5 * h * kE2)
                kT4, kE4 = f(T + h * kT3, E + h * kE3)
                Tn = T + (h / 6.0) * (kT1 + 2.0 * kT2 + 2.0 * kT3 + kT4)
                En = E + (h / 6.0) * (kE1 + 2.0 * kE2 + 2.0 * kE3 + kE4)
                tolT = _REL_UNDERSHOOT_TOL * (T if T > 1.0 else 1.0)
                tolE = _REL_UNDERSHOOT_TOL * (E if E > 1.0 else 1.0)
                # false for nan, inf, big, undershoot
                if -tolT <= Tn <= blowup and -tolE <= En <= blowup:
                    break
                # nan can only come from overflow (negative stages evaluate
                # to rate 0), so it classifies as a blow-up too
                if Tn != Tn or En != En or Tn > blowup or En > blowup:
                    return finish(1, hold=False)
                # genuine undershoot: retry with a locally halved step, unless it undershoots a stock at 0
                # whose drift points below zero, which only steps of about 1e-12 / |drift| would settle
                halvings += 1
                if (halvings > _MAX_HALVINGS or (T == 0.0 and kT1 < 0.0 and Tn < -tolT)
                        or (E == 0.0 and kE1 < 0.0 and En < -tolE)):
                    return finish(6, hold=False)
                h *= 0.5
            T = Tn if Tn > 0.0 else 0.0
            E = En if En > 0.0 else 0.0
            t += h
        t = target
        if k < len(points):
            push(t, T, E)
    return finish(0, hold=False)


def rk4_growth(kind, a, b, alpha, beta, T0, dt, t_end, grid, blowup, /):
    """Integrate a one-equation growth law with the shared stepper ``_rk4``.
    Returns (rows, status), (t, T, 0) rows."""
    kind, = _ints("i", kind)
    a, b, alpha, beta, T0, dt, t_end, blowup = _doubles(a, b, alpha, beta, T0, dt, t_end, blowup)
    if kind not in (0, 1):
        raise ValueError(_KIND_ERROR)
    ea = alpha + 1.0
    eb = beta + 1.0
    log = math.log
    if kind == 0:
        def f(T, E):
            return (0.0 if T <= 0.0 else a * _pow(T, ea) - b * _pow(T, eb)), 0.0
    else:
        def f(T, E):
            return (0.0 if T <= 0.0 else a * T - b * T * log(T)), 0.0
    return _rk4(f, T0, 0.0, dt, t_end, grid, blowup)


def rk4_kuznetsov(a, b, g, m, n, p, d, s, T0, E0, dt, t_end, grid, blowup, /):
    """Integrate the tumour-effector system with the shared stepper ``_rk4``.
    Returns (rows, status), (t, T, E) rows."""
    a, b, g, m, n, p, d, s, T0, E0, dt, t_end, blowup = _doubles(a, b, g, m, n, p, d, s, T0, E0, dt, t_end,
                                                                 blowup)

    def f(T, E):
        mm = p * T * E / (g + T) if g + T else _ieee(np.divide, p * T * E, g + T)  # C's nan or inf at g + T == 0
        return a * T * (1.0 - b * T) - n * T * E, mm - m * T * E - d * E + s
    return _rk4(f, T0, E0, dt, t_end, grid, blowup)


# ---------------------------------------------------------------------------
# channel tables
# ---------------------------------------------------------------------------

def _table(table):
    """The channel rows (code, c, e, g, dT, dE), an int and five floats, twin
    of the compiled ``table_read``: a table that is not a sequence of tuples
    of six numbers raises TypeError, more than 16 rows or a rate-law code
    outside 0..5 ValueError."""
    rows = tuple(table)
    if len(rows) > 16:
        raise ValueError(f"at most 16 channels supported, got {len(rows)}")
    for row in rows:
        if not (isinstance(row, tuple) and len(row) == 6 and all(isinstance(x, Real) for x in row)):
            raise TypeError("a channel row must be a tuple of six numbers (code, c, e, g, dT, dE)")
        if _ints("l", row[0])[0] not in (0, 1, 2, 3, 4, 5):  # C reads a code as a long
            raise ValueError(f"unknown rate-law code {row[0]}")
    return tuple((index(row[0]), *map(float, row[1:])) for row in rows)


def _rates(table, T, E, floor_t, floor_e, rates):
    """Fills ``rates`` with each channel's rate at (T, E) and returns their
    sum, or -1.0 when a rate is negative or nan; twin of the compiled
    ``table_rates``.  A channel that would take a population below its floor
    gets rate 0."""
    R = 0.0
    for i, (code, c, e, g, dT, dE) in enumerate(table):
        if code == 1:
            r = c * T if e == 1.0 else (c * T * T if e == 2.0 else c * _pow(T, e))
        elif code == 4:
            r = c * T * E
        elif code == 5:
            r = c * T * E / (g + T) if g + T else _ieee(np.divide, c * T * E, g + T)
        elif code == 3:
            r = c * E
        elif code == 2:
            r = c * T * math.log(T) if T > 0.0 else 0.0
        else:
            r = c
        if not r >= 0.0:
            return -1.0
        if T + dT < floor_t or E + dE < floor_e:
            r = 0.0
        rates[i] = r
        R += r
    return R


def _absorb(table, T, E, floor_t, floor_e, cap):
    """The absorption rule (see the package docstring), twin of the compiled
    ``table_absorb``: ``(table, watch)``, the table without the rows that a
    species absorbed at 0 silences and the species (bit 0: T, bit 1: E) to watch."""
    watch = s = 0
    if not (0.0 <= T <= cap and 0.0 <= E <= cap and floor_t >= 0.0 and floor_e >= 0.0):
        return table, 0
    while s < 2:
        reads = [code >= 3 if s else code not in (0, 3) for code, *_ in table]
        silenced = [c == 0.0 if not code else r and abs(c) * cap < _INF and (code != 1 or e > 0.0)
                    and (code != 5 or g > 0.0) for r, (code, c, e, g, *_) in zip(reads, table)]
        kept = tuple(row for row, q in zip(table, silenced) if not q)
        if (floor_e if s else floor_t) == 0.0 and all(q or not r and row[4 + s] <= 0.0
                                                      for row, r, q in zip(table, reads, silenced)):
            if (E if s else T) != 0.0:
                watch |= 1 << s
            elif len(kept) < len(table):  # the drop may let the other species be absorbed: check both again
                table, watch, s = kept, 0, -1
        s += 1
    return table, watch


# ---------------------------------------------------------------------------
# exact stochastic simulation (Gillespie direct method)
# ---------------------------------------------------------------------------

def _rng(seed):
    """The run's uniform draws, twin of the compiled ``rng_seed`` and
    ``rng_uniform``, served in blocks that grow from 64 words to 4096, so
    that a run of few draws converts few.  Raw words, not ``Generator``
    draws: numpy keeps a bit generator's raw stream stable across versions."""
    mask = 2**64 - 1
    st = index(seed) & mask
    words = []
    for _ in range(4):
        st = (st + 0x9E3779B97F4A7C15) & mask
        z = ((st ^ (st >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        words.append(z ^ (z >> 31))
    bits = np.random.SFC64(_SEED_SEQUENCE)
    bits.state = {"bit_generator": "SFC64", "state": {"state": np.array(words, dtype=np.uint64)},
                  "has_uint32": 0, "uinteger": 0}
    blocks = (((bits.random_raw(n) >> 11) * 2.0**-53).tolist() for n in chain((64, 256, 1024), repeat(4096)))
    return chain.from_iterable(blocks).__next__


def ssa(table, T0, E0, t_end, seed, floor_t, floor_e, cap, max_events, grid=None, /):
    """Event-driven simulation of a channel table over integer populations.

    A channel whose delta would push a floored population below its floor
    contributes rate 0.  Returns (rows, status), (t, T, E) rows per event or
    held on ``grid``.
    """
    T, E, t_end, floor_t, floor_e, cap = _doubles(T0, E0, t_end, floor_t, floor_e, cap)
    max_events, = _ints("l", max_events)
    table = _table(table)
    rr = _rng(seed)
    _check_end(t_end)
    log = math.log
    nch = len(table)
    rates = [0.0] * nch
    t = 0.0
    nev = 0
    watch = 3  # the species that _absorb may yet absorb
    push, finish = _recorder(grid, T, E)
    while True:
        if watch and (watch & 1 and T == 0.0 or watch & 2 and E == 0.0):
            table, watch = _absorb(table, T, E, floor_t, floor_e, cap)
            nch = len(table)
        R = _rates(table, T, E, floor_t, floor_e, rates)
        if not 0.0 < R < _INF:
            return finish(_stop_status(push, R, t, t_end, T, E))
        t += -log(1.0 - rr()) / R
        if t >= t_end:
            push(t_end, T, E)
            return finish(0)
        u = rr() * R
        acc = 0.0
        pick = nch - 1
        for i in range(nch):
            acc += rates[i]
            if u < acc:
                pick = i
                break
        T += table[pick][4]
        E += table[pick][5]
        nev += 1
        if T > cap or E > cap:
            return finish(3)
        push(t, T, E)
        if nev >= max_events:
            return finish(4)


def ssa_frozen(table, T0, t_end, seed, floor_t, cap, max_events, grid=None, /):
    """One-species exact simulation with death rates frozen at birth.

    ``table`` holds a birth row c * T**e (code 1, jump (1, 0)), then a death
    row of code 1 or 2 and jump (-1, 0); any other table raises ValueError.
    Each agent's per-capita death rate, c * T**(e - 1) for code 1 and
    c * ln(T) for code 2, is evaluated once, at the population size that
    includes the agent itself at its creation instant, and kept for life.
    Agents sharing a frozen rate are held as one cohort, so the state is a
    (rate -> count) table rather than one object per agent.  The birth
    channel stays live.  Returns (rows, status), (t, T, 0) rows per event or
    held on ``grid``.
    """
    T, t_end, floor_t, cap = _doubles(T0, t_end, floor_t, cap)
    max_events, = _ints("l", max_events)
    rows = _table(table)
    rr = _rng(seed)
    _check_end(t_end)
    if not (len(rows) == 2 and rows[0][0] == 1 and rows[0][4:] == (1, 0)
            and rows[1][0] in (1, 2) and rows[1][4:] == (-1, 0)):
        raise ValueError("ssa_frozen needs a birth-death table")
    (_, a, ea, _, _, _), (death_code, b, eb, _, _, _) = rows
    tlogt = death_code == 2
    eb -= 1.0  # the per-capita exponent of a power-law death row
    log = math.log
    crates: list[float] = []
    ccounts: list[float] = []
    if T > 0.0:
        d0 = b * log(T) if tlogt else b * _pow(T, eb)
        crates.append(d0)
        ccounts.append(T)
    t = 0.0
    nev = 0
    push, finish = _recorder(grid, T, 0.0)
    while True:
        B = a * T if ea == 1.0 else (a * T * T if ea == 2.0 else a * _pow(T, ea))  # as _rates
        D = 0.0
        for i in range(len(crates)):
            D += crates[i] * ccounts[i]
        # no death below the floor
        R = B + (0.0 if T - 1.0 < floor_t else D) if B >= 0.0 and D >= 0.0 else -1.0
        if not 0.0 < R < _INF:
            return finish(_stop_status(push, R, t, t_end, T, 0.0))
        t += -log(1.0 - rr()) / R
        if t >= t_end:
            push(t_end, T, 0.0)
            return finish(0)
        u = rr() * R
        if u < B:
            T += 1.0
            # at T <= 0, which only a start below 0 reaches, C's -inf or nan where math.log raises
            dnew = (b * log(T) if T > 0.0 else b * _ieee(np.log, T)) if tlogt else b * _pow(T, eb)
            for i in range(len(crates)):
                if crates[i] == dnew:
                    ccounts[i] += 1.0
                    break
            else:
                crates.append(dnew)
                ccounts.append(1.0)
        else:
            u -= B
            acc = 0.0
            for i in range(len(crates)):
                acc += crates[i] * ccounts[i]
                if u < acc:
                    ccounts[i] -= 1.0
                    if ccounts[i] <= 0.0:  # the last cohort takes the slot, as in C
                        crates[i], ccounts[i] = crates[-1], ccounts[-1]
                        del crates[-1], ccounts[-1]
                    break
            T -= 1.0
        nev += 1
        if T > cap:
            return finish(3)
        push(t, T, 0.0)
        if nev >= max_events:
            return finish(4)


# ---------------------------------------------------------------------------
# approximate stochastic simulation (Poisson tau-leaping)
# ---------------------------------------------------------------------------

def _poisson(rr, lam: float) -> int:
    # Knuth's product method for small means, a rounded normal beyond; the
    # large-mean branch only matters for blow-up detection, not statistics.
    if lam < 30.0:
        L = math.exp(-lam)
        k = 0
        prod = rr()
        while prod > L:
            k += 1
            prod *= rr()
        return k
    u1 = 1.0 - rr()
    u2 = rr()
    z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
    k = int(math.floor(lam + math.sqrt(lam) * z + 0.5))
    return k if k > 0 else 0


def tau_leap(table, T0, E0, t_end, dt, seed, floor_t, floor_e, cap, grid=None, /):
    """Fixed-step leaping: each channel fires Poisson(rate*dt) times per step,
    deltas apply simultaneously, components below their floor clamp to it.
    Returns (rows, status), (t, T, E) rows per leap or held on ``grid``."""
    T, E, t_end, dt, floor_t, floor_e, cap = _doubles(T0, E0, t_end, dt, floor_t, floor_e, cap)
    table = _table(table)
    rr = _rng(seed)
    _check_steps(dt, t_end)
    rates = [0.0] * len(table)
    t = 0.0
    watch = 3  # as in ssa
    push, finish = _recorder(grid, T, E)
    while t < t_end - 1e-12:
        if watch and (watch & 1 and T == 0.0 or watch & 2 and E == 0.0):
            table, watch = _absorb(table, T, E, floor_t, floor_e, cap)
        h = dt if t + dt <= t_end else t_end - t
        # leaping clamps to the floors after the step instead
        R = _rates(table, T, E, -_INF, -_INF, rates)
        if not 0.0 < R < _INF:
            return finish(_stop_status(push, R, t, t_end, T, E))
        nT = T
        nE = E
        for r, row in zip(rates, table):
            lam = r * h
            if lam > 0.0:
                k = _poisson(rr, lam)
                if k:
                    nT += row[4] * k
                    nE += row[5] * k
        if nT < floor_t:
            nT = floor_t
        if nE < floor_e:
            nE = floor_e
        if nT > cap or nE > cap:
            return finish(3)
        t = t + h if t + h < t_end - 1e-12 else t_end
        T = nT
        E = nE
        push(t, T, E)
    return finish(0)


# ---------------------------------------------------------------------------
# CSV rows
# ---------------------------------------------------------------------------

_ROWS_ERROR = "values must be a 2-D or 3-D buffer of doubles, times a 1-D one"


def write_rows(values, times, write, /):
    """Hands ``write`` the CSV rows ``[r,]time,v1,...,vk\\n`` of a (n, k) or
    (reps, n, k) buffer of values at ``n`` times: f"{t:.6f}" and
    repr(float(v)) per cell, one piece per replicate."""
    try:
        view, times = memoryview(values), memoryview(times)
    except TypeError:
        raise TypeError(_ROWS_ERROR) from None
    if view.ndim not in (2, 3) or view.format != "d" or times.ndim != 1 or times.format != "d":
        raise TypeError(_ROWS_ERROR)
    n = view.shape[-2]
    if times.shape[0] != n:
        raise ValueError(f"{n} rows of values but {times.shape[0]} times")
    if n == 0:
        return
    stamps = [f"{t:.6f}" for t in times.tolist()]
    values = np.asarray(view)
    for i, block in enumerate(values if view.ndim == 3 else [values]):
        label = (repeat(str(i)),) if view.ndim == 3 else ()
        columns = [map(repr, column) for column in block.T.tolist()]
        write("\n".join(map(",".join, zip(*label, stamps, *columns))) + "\n")
