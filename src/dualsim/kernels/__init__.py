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
    format_rows(values, times)

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
a step that would undershoot zero (status 6 after 40 halvings), stops with
status 1 at the last grid time reached when a component passes ``blowup``
or is nan, and clamps small negative residues to 0.

Table format.  The one model input of ``ssa``, ``ssa_frozen`` and
``tau_leap`` is a channel table (``ssa.ChannelSet.table``): a sequence of at
most 16 tuples ``(code, c, e, g, dT, dE)``, one per channel, read by
``table_read`` in C and ``_table`` in Python.  A malformed table raises
TypeError; more rows or a rate-law code outside 0..5 raise ValueError.  The
rate-law codes (the ``R_*`` constants below)::

    0 CONST      rate = c
    1 POW_T      rate = c * T**e
    2 TLOGT      rate = c * T * ln(T)   (0 at T = 0)
    3 LIN_E      rate = c * E
    4 MASS_TE    rate = c * T * E
    5 MM_TE      rate = c * T * E / (g + T)

``ssa`` and ``tau_leap`` evaluate the table with ``table_rates`` and
``_rates``.  In ``ssa`` a channel whose jump would take a population below
its floor gets rate 0; ``tau_leap`` instead clamps each population to its
floor after the leap.  ``ssa_frozen`` needs a birth row ``c*T**e`` (code 1,
jump (1, 0)), then a death row of code 1 or 2 and jump (-1, 0), else
ValueError; each agent keeps its per-capita death rate at birth,
``c*T**(e-1)`` or ``c*ln(T)``.

Stop rule and status codes (the ``ST_*`` constants below).  The stochastic
kernels stop by one rule on the total rate R: while 0 < R < inf they step
on; R == 0 stops with status 2 after holding the state until ``t_end``, and
any other R (negative, infinite or nan) with status 5.  An event or leap
that takes a population above ``cap`` stops the run with status 3; the
initial state is the caller's to bound.  ``ssa`` and ``ssa_frozen`` stop
with status 4 after ``max_events`` events.  A run that reaches ``t_end``
ends with status 0.

Grid sampling.  Called without their optional trailing ``grid``, the
stochastic kernels return one row per event or leap, framed by the initial
state and, when the run reaches ``t_end``, a final hold row there.  Given a
``grid`` (a non-empty contiguous 1-D buffer of doubles, as every kernel's
grid; anything else raises TypeError), they record only the sample held at
each grid time, the last one at or before it, into ``len(grid)`` rows whose
t column gives each held sample's time: the per-event rows indexed by
``searchsorted(t, grid, side="right") - 1``, at a cost per grid point
instead of per event.  Grid points past the last sample hold the last
sample, so the last row always names the last event.

CSV rows.  ``format_rows(values, times)`` returns, as one ``str``, the
rows of a 2-D ``(n, k)`` or 3-D ``(reps, n, k)`` buffer of doubles
``values`` recorded at the ``n`` times of the 1-D buffer of doubles
``times`` (either with any strides): one line ``[r,]time,v1,...,vk`` and a
newline per row, the replicate index ``r`` only for a 3-D buffer.  Each time
is written as ``f"{t:.6f}"`` and each value as ``repr(float(v))``, so the
text is the same on either backend.  Another rank or item format raises
TypeError, a ``times`` of another length ValueError.  It stays out of
``__all__``: the benchmark's tracer (``e2ebench/tracing.py``) wraps every
callable listed there and has no metric for this one, so its time counts
under its caller's.

Seeds.  Both backends draw one stream: SFC64 (as numpy's ``SFC64`` steps
it) from four splitmix64 outputs of the seed masked to its low 64 bits, each
64-bit word ``x`` giving the uniform ``(x >> 11) * 2**-53``.  Seeds s and
s + 2**64 therefore give one stream and s and -s two.  Every kernel draws
the same uniforms in the same order with the same scalar libm arithmetic, so
a seed gives the same rows and status on either backend.
"""

try:
    from . import _ckernels as backend

    BACKEND_NAME = "c"
except ImportError:
    from . import _pykernels as backend  # type: ignore[no-redef]

    BACKEND_NAME = "pure-python"

rk4_growth = backend.rk4_growth
rk4_kuznetsov = backend.rk4_kuznetsov
ssa = backend.ssa
ssa_frozen = backend.ssa_frozen
tau_leap = backend.tau_leap
format_rows = backend.format_rows

# Status codes returned by every kernel.
ST_OK = 0
ST_BLOWUP = 1
ST_EXTINCT = 2
ST_CAP = 3
ST_MAX_EVENTS = 4
ST_BAD_RATE = 5
ST_STEP_FAIL = 6

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
    "R_CONST",
    "R_POW_T",
    "R_TLOGT",
    "R_LIN_E",
    "R_MASS_TE",
    "R_MM_TE",
]
