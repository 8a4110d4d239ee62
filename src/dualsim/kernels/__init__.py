"""Hot-loop kernels with a compiled core and a pure-Python fallback.

The compiled extension (``_ckernels``, built by ``setup.py`` from the
hand-written C99 source ``_ckernels.c``) and the pure-Python module
(``_pykernels``) implement the five simulation kernels and the row
formatter below to the one contract written here; each backend's own
docstring adds only its RNG and build notes.  Which backend runs is decided
once, at import time: ``c`` when the extension imports, else
``pure-python``.  The extension is optional: a build without a C compiler
skips it and the package runs on the pure-Python kernels, which return the
same rows.

Entry points.  Every argument is positional only; a keyword call raises
TypeError::

    rk4_growth(kind, a, b, alpha, beta, T0, dt, t_end, grid, blowup)
    rk4_kuznetsov(a, b, g, m, n, p, d, s, T0, E0, dt, t_end, grid, blowup)
    ssa(table, T0, E0, t_end, seed, floor_t, floor_e, cap, max_events[, grid])
    ssa_frozen(table, T0, t_end, seed, floor_t, cap, max_events[, grid])
    tau_leap(table, T0, E0, t_end, dt, seed, floor_t, floor_e, cap[, grid])
    write_rows(values, times, write)

Result rows.  Every simulation kernel returns ``(rows, status)``, where
``rows`` is a C-contiguous ``(n, 3)`` memoryview of doubles, one
``(t, T, E)`` sample per row, so ``len(rows)`` is the sample count and
``np.asarray(rows)`` views it without a copy.  The compiled backend's rows
view one ``bytearray``, the pure backend's one ``array('d')``.  One-species
kernels (``rk4_growth``, ``ssa_frozen``) write E = 0.

RK4.  In each backend, ``rk4_growth`` (``kind`` 0: power law, 1: Gompertz)
and ``rk4_kuznetsov`` only parse their arguments and name the model's
derivative, which one shared RK4 stepper (``rk4_run`` in C, ``_rk4`` in
Python) integrates over the state (T, E) to ``t_end``.  It cuts its steps
of ``dt`` to land on each time of ``grid``, where it records one row, halves
a step that would undershoot zero by more than a relative 1e-12 (status 6
after 40 halvings), stops with status 1 at the last grid time reached when
a component passes ``blowup`` or is nan, and clamps small negative residues
to 0.  It steps forward only, to a grid time past ``t_end`` too, as the
grid times increase.  A step that undershoots a stock at 0 whose drift
there points below zero (``rk4_kuznetsov`` with s < 0 at E = 0) stops the
run with status 6 at once, at the last grid time reached: only steps of
about 1e-12 / |drift| days would keep that stock within the tolerance, so
halving would crawl.

Domain.  Each kernel refuses the arguments below, on which it would run for
ever or past the step cap, with one ``ValueError`` of the same text on both
backends, before it reads its grid:

- the fixed-step kernels (``rk4_growth``, ``rk4_kuznetsov``, ``tau_leap``)
  need ``dt`` finite and > 0, ``t_end`` finite and >= 0, and ``t_end / dt``
  at most 5e7, the step cap of ``ssa._check_steps``, else "need a finite
  dt > 0 and a finite t_end >= 0, with t_end / dt at most 5e7";
- the RK4 kernels refuse with the same ValueError, once they have read the
  grid, a run that travels more than 5e7 steps of ``dt``: to the later of
  ``t_end`` and the last grid time (see Grid sampling);
- the event-driven kernels (``ssa``, ``ssa_frozen``) need ``t_end`` finite
  and >= 0, else "need a finite t_end >= 0"; ``max_events`` bounds their
  events;
- ``rk4_growth`` needs ``kind`` 0 or 1, else "kind must be 0 (power law)
  or 1 (Gompertz)".

Threads.  A compiled kernel that records on a grid (the RK4 kernels
always, the stochastic ones when given a ``grid``) releases the GIL while
it steps, once its arguments are read, so other threads run beside it:
``ssa.run_ensemble`` runs replicates on one thread per usable CPU, and the
CLI the SDS beside the ensemble, both through ``ssa._beside``, which
starts and joins every helper thread.  A run per event holds it, to grow
its rows, as do ``write_rows`` and every pure-Python kernel; out of
memory, a compiled run stops at once and raises MemoryError.

Table format.  The one model input of ``ssa``, ``ssa_frozen`` and
``tau_leap`` is a channel table (``models.ChannelSet.table``, which refuses
any table a kernel would): a sequence of at most ``MAX_CHANNELS`` (16)
tuples ``(code, c, e, g, dT, dE)``, one per channel, read by ``table_read``
in C and ``_table`` in Python.  A malformed table raises TypeError; more
rows or a rate-law code outside 0..5 raise ValueError.  The rate-law codes
(the ``R_*`` constants below)::

    0 CONST      rate = c
    1 POW_T      rate = c * T**e
    2 TLOGT      rate = c * T * ln(T)   (0 at T = 0)
    3 LIN_E      rate = c * E
    4 MASS_TE    rate = c * T * E
    5 MM_TE      rate = c * T * E / (g + T)

``ssa`` and ``tau_leap`` evaluate the table with ``table_rates`` and
``_rates``.  In ``ssa`` a channel whose jump would take a population below
its floor gets rate 0, and an event of total rate R fires the first channel
whose running sum of rates exceeds u*R (u uniform on [0, 1)), else the last;
``tau_leap`` instead clamps each population to its floor after the leap.

``ssa_frozen`` needs a birth row ``c*T**e`` (code 1, jump (1, 0)), then a
death row of code 1 or 2 and jump (-1, 0), else ValueError; each agent keeps
its per-capita death rate at birth, ``c*T**(e-1)`` or ``c*ln(T)``, while
the birth row's rate is the live one, so a death row of e = 1 gives the
rows of ``ssa``.

Absorption.  ``ssa`` and ``tau_leap`` drop the rows that a species X
absorbed at 0 silences, which changes no row or status: a silenced row's
rate is 0, and neither a pick nor a leap fires a rate of 0.  A row is
silenced by X when it is a code-0 row with c = 0, or when it reads X (T:
codes 1, 2, 4, 5; E: codes 3, 4, 5) with c*cap finite, e > 0 for code 1 and
g > 0 for code 5.  X is absorbed when its floor is 0, the other floor is at
least 0, both populations lie in [0, cap], and every row is silenced by X
or neither reads nor raises X.  Each time such an X reaches 0, the start
included, its silenced rows leave the kernel's working table, the others
keep their order, and the rule is applied again to the shorter table.

Stop rule and status codes (the ``ST_*`` constants below).  The stochastic
kernels stop by one rule on the total rate R: while 0 < R < inf they step
on; R == 0 stops with status 2 after holding the state until ``t_end``, and
any other R (negative, infinite or nan), or a leap of ``tau_leap`` whose
mean ``R * h`` is infinite, with status 5.  A rate that is negative or nan
(``!(r >= 0)``) makes R negative before any floor zeroes it, so it stops
the run with status 5 whatever the floors.  An event or leap that takes a
population above ``cap`` stops the run with status 3; the initial state is
the caller's to bound.  ``ssa`` and ``ssa_frozen`` stop with status 4 after
``max_events`` events.  A run that reaches ``t_end`` ends with status 0.

Grid sampling.  Called without their optional trailing ``grid``, the
stochastic kernels return one row per event or leap, framed by the initial
state and, when the run reaches ``t_end``, a final hold row there.  Every
kernel's ``grid`` is a non-empty contiguous 1-D buffer of doubles, else
TypeError, and ``ValueError("grid times must be finite, >= 0 and strictly
increasing")`` unless they are: one rule, checked before a step, by which
row i holds the state at grid[i].  Given one, the stochastic kernels
record only the sample held at each grid time, the last one at or before
it, into ``len(grid)`` rows whose t column gives each held sample's time:
the per-event rows indexed by ``searchsorted(t, grid, side="right") - 1``,
at a cost per grid point instead of per event.  Grid points past the last
sample hold the last sample.  A run goes on to ``t_end`` past a grid that
stops short of it, so the last row names the last event only if the grid
reaches ``t_end`` (as ``ssa.EnsembleSpec`` makes it do).

CSV rows.  ``write_rows(values, times, write)`` hands ``write`` the rows of
a 2-D ``(n, k)`` or 3-D ``(reps, n, k)`` buffer of doubles ``values``
recorded at the ``n`` times of the 1-D buffer of doubles ``times`` (either
with any strides): one line ``[r,]time,v1,...,vk`` and a newline per row,
the replicate label ``r``, counted from 0, only for a 3-D buffer.  Each time
is formatted once per call and written as ``f"{t:.6f}"``, each value as
``repr(float(v))``, so the text is the same on either backend.  The rows
reach ``write`` as ``str`` pieces in order, whose join is the CSV text, so
no file's whole text is held: pieces of about 64 KiB from the compiled
backend, one per replicate from the pure one.  An empty buffer makes no
call, an exception raised by ``write`` propagates at once, and the call
returns None.  Another rank or item format raises TypeError, a ``times`` of
another length ValueError.  It stays out of
``__all__``: the benchmark's tracer (``e2ebench/tracing.py``) wraps every
callable listed there and has no metric for this one, so its time counts
under its caller's.

Seeds.  Both backends draw one stream: SFC64 (as numpy's ``SFC64`` steps
it) from four splitmix64 outputs of the seed masked to its low 64 bits, each
64-bit word ``x`` giving the uniform ``(x >> 11) * 2**-53``.  Seeds s and
s + 2**64 therefore give one stream and s and -s two.  ``ssa`` and
``ssa_frozen`` add ``E / R`` to the time at each step, E a standard
exponential drawn by a 256-layer ziggurat (Marsaglia & Tsang, J. Stat.
Softw. 5(8), 2000): each attempt takes one word, whose low 8 bits pick the
layer i and whose top 53 bits ``j = x >> 11`` give the value ``j * we[i]``,
taken when ``j < ke[i]`` (about 98.9% of words).  Otherwise layer 0 takes
its tail, ``r - log(1 - u)`` with r = 7.697117470131487 and u the next
uniform, and another layer the wedge test ``fe[i] + u * (fe[i-1] - fe[i]) <
exp(-j * we[i])`` with u the next uniform, drawing a fresh word when it
fails.  The tables are built once, at import, by Marsaglia & Tsang's
recurrence with the same libm calls in both backends.  Every kernel draws
the same words in the same order with the same scalar libm arithmetic, so
a seed gives the same rows and status on either backend.  ``RNG`` names it.
"""

try:
    from . import _ckernels as backend

    BACKEND_NAME = "c"
except ImportError:
    from . import _pykernels as backend  # type: ignore[no-redef]

    BACKEND_NAME = "pure-python"

RNG = "sfc64-splitmix64-ziggurat"

rk4_growth = backend.rk4_growth
rk4_kuznetsov = backend.rk4_kuznetsov
ssa = backend.ssa
ssa_frozen = backend.ssa_frozen
tau_leap = backend.tau_leap
write_rows = backend.write_rows

# Status codes returned by every kernel.
ST_OK = 0
ST_BLOWUP = 1
ST_EXTINCT = 2
ST_CAP = 3
ST_MAX_EVENTS = 4
ST_BAD_RATE = 5
ST_STEP_FAIL = 6

# The most rows a channel table may have, the limit both backends enforce.
MAX_CHANNELS = 16

# Rate-law codes understood by the channel-table simulators.
R_CONST = 0
R_POW_T = 1
R_TLOGT = 2
R_LIN_E = 3
R_MASS_TE = 4
R_MM_TE = 5

__all__ = [
    "backend",
    "BACKEND_NAME",
    "RNG",
    "rk4_growth",
    "rk4_kuznetsov",
    "ssa",
    "ssa_frozen",
    "tau_leap",
    "ST_OK",
    "ST_BLOWUP",
    "ST_EXTINCT",
    "ST_CAP",
    "ST_MAX_EVENTS",
    "ST_BAD_RATE",
    "ST_STEP_FAIL",
    "MAX_CHANNELS",
    "R_CONST",
    "R_POW_T",
    "R_TLOGT",
    "R_LIN_E",
    "R_MASS_TE",
    "R_MM_TE",
]
