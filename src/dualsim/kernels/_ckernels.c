/*
 * Compiled simulation kernels: the C99 twin of ``_pykernels``.
 *
 * The kernel contract (arguments, result rows, grid sampling, the stop rule,
 * the table format, status and rate-law codes, seed masking) is written once,
 * in the docstring of the ``dualsim.kernels`` package.  What is particular
 * to this backend:
 *
 * - result rows view one ``bytearray``, returned by ``rec_finish``; it,
 *   ``rec_init`` and ``rec_push`` alone know whether a run records per event
 *   or on a grid.  Either way the rows are written straight into that
 *   bytearray, so that no second copy is made: sized by the grid on a grid,
 *   else begun at 4096 rows and doubled when full.  Only that growth needs
 *   the GIL, so a run on a grid steps without it (``rec_unlock``, taken back
 *   by ``rec_finish``) and a run per event holds it;
 * - ``rng_next`` steps the SFC64 state that ``rng_seed`` fills with
 *   splitmix64 outputs: the stream ``_pykernels._rng`` draws through numpy,
 *   so both backends return the same rows for a seed;
 * - keep the arithmetic as written and build without -ffast-math or fused
 *   multiply-adds (setup.py passes -ffp-contract=off): outputs are pinned
 *   byte for byte per seed, and equal the pure backend's;
 * - an event loop's common path calls no libm function, and its rare paths
 *   live out of line (``COLD``, as ``rng_exp_rest``): every xmm register is
 *   caller-saved on x86-64, so a call inside the loop makes the compiler keep
 *   the state (T, E, t, R) on the stack around every event.  For the same
 *   reason ``table_rates`` flags a bad rate and sums on instead of returning;
 * - ``write_rows`` prints each value as repr(float(v)) and each time as
 *   f"{t:.6f}" by exact integer arithmetic, which gives the bytes of
 *   CPython's dtoa (``PyOS_double_to_string``) by construction, and calls
 *   dtoa only where that arithmetic cannot settle the digits.  An integral
 *   |v| < 1e16 is its digits and ".0".  Any other 1e-4 <= |v| < 2^52 is
 *   scaled to v 10^q of 17-18 digits in 128-bit integers, where the ends of
 *   its rounding interval are never integral: repr's shortest digits are
 *   the multiple of the largest power of ten inside it that lies nearest v
 *   (Steele & White, PLDI 1990; Adams, PLDI 2018).  A time of 2^-60 <= |t|
 *   < 2^44 is t 10^6 rounded half up from its exact remainder.  Left to
 *   dtoa: a power of two (its interval is narrower below), an exact tie of
 *   either rounding, any value or time outside those ranges (inf, nan,
 *   subnormals and -0.0 among them), and everything where the compiler has
 *   no ``__SIZEOF_INT128__``.  The times are printed once per call, into
 *   one buffer.  The rows fill one buffer of ``CHUNK`` (64 KiB) characters
 *   plus a row, handed to ``write`` as a str each time it holds ``CHUNK``
 *   characters and once at the end.  It is kept out of ``kernels.__all__``
 *   (see the package docstring).
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <math.h>
#include <stdint.h>
#include <string.h>

#ifndef M_PI
#define M_PI 3.14159265358979323846
#endif

#define REL_UNDERSHOOT_TOL 1e-12
#define MAX_HALVINGS 40
#define MAX_CHANNELS 16
#define MAX_STEPS 5e7 /* ssa.DEFAULT_MAX_EVENTS, the step cap of ssa._check_steps */

#ifdef __GNUC__ /* a rare path, out of line (see the header) */
#define COLD __attribute__((noinline, cold))
#else
#define COLD
#endif

/* ---- RNG: splitmix64 -> SFC64 ------------------------------------------ */

typedef struct {
    uint64_t s[4];
} Rng;

static inline uint64_t rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

/* four splitmix64 outputs of the seed masked to 64 bits */
static int rng_seed(Rng *r, PyObject *seed)
{
    uint64_t st = PyLong_AsUnsignedLongLongMask(seed);
    if (st == (uint64_t)-1 && PyErr_Occurred())
        return -1;
    for (int i = 0; i < 4; i++) {
        uint64_t z = (st += 0x9E3779B97F4A7C15ULL);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        r->s[i] = z ^ (z >> 31);
    }
    return 0;
}

/* one SFC64 step, laid out as numpy's SFC64 steps it: s[3] is the counter */
static inline uint64_t rng_next(Rng *r)
{
    uint64_t *s = r->s;
    uint64_t tmp = s[0] + s[1] + s[3]++;
    s[0] = s[1] ^ (s[1] >> 11);
    s[1] = s[2] + (s[2] << 3);
    s[2] = rotl(s[2], 24) + tmp;
    return tmp;
}

/* uniform on [0, 1) with 53 random bits */
static inline double rng_uniform(Rng *r)
{
    return (double)(rng_next(r) >> 11) * (1.0 / 9007199254740992.0);
}

/* The standard exponential by a 256-layer ziggurat (Marsaglia & Tsang, J.
 * Stat. Softw. 5(8), 2000).  Layer i, of right edge x_i (x_255 = r), has
 * the value bound ke[i] = x_(i-1) / x_i 2^53, the width we[i] = x_i 2^-53
 * and the height fe[i] = exp(-x_i); layer 0 lies under fe[255] and spans
 * q = v / fe[255] and the tail.  Filled at module init, read-only after. */
#define ZIG_R 7.697117470131487
static uint64_t ke[256];
static double we[256], fe[256];

static void zig_init(void)
{
    /* volatile, so that each exp and log runs in libm, as in Python, and
     * none is folded at compile time; v is the area of each layer */
    volatile double r = ZIG_R, v = 3.949659822581572e-3;
    double x = r;
    we[0] = v / exp(-x) * 0x1p-53, fe[0] = 1.0;
    for (int i = 255; i > 0; i--) {
        we[i] = x * 0x1p-53, fe[i] = exp(-x);
        x = -log(v / x + fe[i]);
    }
    for (int i = 0; i < 256; i++) /* ke[0] reads we[255]; ke[1] = 0, as x_0 = 0 */
        ke[i] = i == 1 ? 0 : (uint64_t)(we[(i + 255) % 256] / we[i] * 0x1p53);
}

/* The rest of a draw whose word ``w`` failed its layer's bound, about 1.1%
 * of words: layer 0's tail, else the wedge test, else fresh words. */
static COLD double rng_exp_rest(Rng *r, uint64_t w)
{
    for (;;) {
        uint64_t j = w >> 11;
        int i = w & 255;
        if (i == 0)
            return ZIG_R - log(1.0 - rng_uniform(r));
        double x = (double)j * we[i];
        if (fe[i] + rng_uniform(r) * (fe[i - 1] - fe[i]) < exp(-x))
            return x;
        w = rng_next(r), j = w >> 11, i = w & 255;
        if (j < ke[i])
            return (double)j * we[i];
    }
}

/* one word per attempt: its low 8 bits pick the layer, its top 53 the value */
static inline double rng_exp(Rng *r)
{
    uint64_t w = rng_next(r), j = w >> 11;
    int i = w & 255;
    return j < ke[i] ? (double)j * we[i] : rng_exp_rest(r, w);
}

/* Knuth's product method for small means, a rounded normal beyond (the
 * large-mean branch only matters for blow-up detection, not statistics).
 * The count is a double, so that one past long's range still passes the
 * cap. */
static double rng_poisson(Rng *r, double lam)
{
    if (lam < 30.0) {
        double L = exp(-lam);
        long k = 0;
        for (double prod = rng_uniform(r); prod > L; k++)
            prod *= rng_uniform(r);
        return k;
    }
    double u1 = 1.0 - rng_uniform(r);
    double u2 = rng_uniform(r);
    double z = sqrt(-2.0 * log(u1)) * cos(2.0 * M_PI * u2);
    double k = floor(lam + sqrt(lam) * z + 0.5);
    return k > 0.0 ? k : 0.0;
}

/* ---- the kernels' domain (see the package docstring) ------------------ */

#define STEP_ERROR "need a finite dt > 0 and a finite t_end >= 0, with t_end / dt at most 5e7"
#define END_ERROR "need a finite t_end >= 0"

/* 0 when the fixed-step kernels (``rk4_run``, ``tau_leap``) take ``dt`` and
 * ``t_end``, else -1 with ValueError set */
static int check_steps(double dt, double t_end)
{
    if (isfinite(dt) && dt > 0.0 && isfinite(t_end) && t_end >= 0.0 && t_end / dt <= MAX_STEPS)
        return 0;
    PyErr_SetString(PyExc_ValueError, STEP_ERROR);
    return -1;
}

/* 0 when the event-driven kernels (``ssa``, ``ssa_frozen``) take ``t_end``,
 * else -1 with ValueError set */
static int check_end(double t_end)
{
    if (isfinite(t_end) && t_end >= 0.0)
        return 0;
    PyErr_SetString(PyExc_ValueError, END_ERROR);
    return -1;
}

/* ---- recorded samples: (t, T, E) rows of one bytearray ---------------- */

typedef struct {
    int oom;
    Py_ssize_t n, cap;
    double *rows; /* the buffer of ``bytes``: n rows of (t, T, E), room for cap */
    PyObject *bytes;
    /* grid mode: the grid (grid.obj is NULL without one) and the last
     * sample pushed, which rows n.. will hold until a later sample passes
     * their grid time */
    Py_buffer grid;
    double held[3];
    PyThreadState *unlocked; /* set while a run on a grid steps without the GIL */
} Rec;

static void rec_free(Rec *rec)
{
    Py_XDECREF(rec->bytes);
    if (rec->grid.obj != NULL)
        PyBuffer_Release(&rec->grid);
}

/* Appends one sample or, in grid mode, gives every unfilled grid point
 * before ``t`` the previous sample and holds this one.  Per event it doubles
 * the bytearray when full, which needs the GIL; in grid mode it only copies
 * doubles into rows already allocated, which does not.  When memory runs out
 * it sets ``oom``, on which the kernels stop, and rec_finish raises
 * MemoryError. */
static inline void rec_push(Rec *rec, double t, double a, double b)
{
    if (rec->grid.obj != NULL) {
        const double *grid = rec->grid.buf;
        for (; rec->n < rec->cap && grid[rec->n] < t; rec->n++)
            memcpy(rec->rows + 3 * rec->n, rec->held, sizeof rec->held);
        rec->held[0] = t;
        rec->held[1] = a;
        rec->held[2] = b;
        return;
    }
    if (rec->n == rec->cap) {
        if (rec->oom || PyByteArray_Resize(rec->bytes, 6 * rec->cap * sizeof(double)) < 0) {
            rec->oom = 1;
            return;
        }
        rec->rows = (double *)PyByteArray_AS_STRING(rec->bytes); /* the resize may move it */
        rec->cap *= 2;
    }
    double *row = rec->rows + 3 * rec->n++;
    row[0] = t;
    row[1] = a;
    row[2] = b;
}

#define GRID_ERROR "grid must be a non-empty contiguous 1-D buffer of doubles"
#define GRID_TIME_ERROR "grid times must be finite, >= 0 and strictly increasing"

/* Starts the rows with the sample (0, a, b): room for one row per grid
 * point when ``grid`` is not None, else for 4096 rows.  The one check of a
 * kernel's grid, whose times must hold 0 <= grid[0] < grid[1] < ... < inf. */
static int rec_init(Rec *rec, PyObject *grid, double a, double b)
{
    *rec = (Rec){0, 0, 4096, NULL, NULL, {NULL}, {0.0, a, b}, NULL};
    if (grid != NULL && grid != Py_None) {
        int typed = PyObject_GetBuffer(grid, &rec->grid, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) == 0 &&
                    rec->grid.ndim == 1 && strcmp(rec->grid.format, "d") == 0 && rec->grid.shape[0] > 0;
        const double *points = rec->grid.buf;
        rec->cap = typed ? rec->grid.shape[0] : 0;
        int ok = typed && points[0] >= 0.0 && points[rec->cap - 1] < INFINITY; /* each test is false for nan */
        for (Py_ssize_t i = 1; ok && i < rec->cap; i++)
            ok = points[i - 1] < points[i];
        if (!ok) {
            rec_free(rec);
            PyErr_SetString(typed ? PyExc_ValueError : PyExc_TypeError, typed ? GRID_TIME_ERROR : GRID_ERROR);
            return -1;
        }
    }
    rec->bytes = PyByteArray_FromStringAndSize(NULL, 3 * rec->cap * sizeof(double));
    if (rec->bytes == NULL) {
        rec_free(rec);
        return -1;
    }
    rec->rows = (double *)PyByteArray_AS_STRING(rec->bytes);
    rec_push(rec, 0.0, a, b);
    return 0;
}

/* Lets a run on a grid step without the GIL until rec_finish: from here it
 * may call no Python API, and grid-mode rec_push calls none. */
static void rec_unlock(Rec *rec)
{
    if (rec->grid.obj != NULL)
        rec->unlocked = PyEval_SaveThread();
}

/* The status of a run whose total rate R left (0, inf): 2 when R == 0 (no
 * event can fire), which holds (a, b) until t_end, else 5 (R negative, inf
 * or nan). */
static int stop_status(Rec *rec, double R, double t, double t_end, double a, double b)
{
    if (R != 0.0)
        return 5;
    if (t < t_end)
        rec_push(rec, t_end, a, b);
    return 2;
}

/* Takes the GIL back if rec_unlock released it, releases the recorder and
 * returns (rows, status), ``rows`` an (n, 3) memoryview of doubles over its
 * bytearray cut to n rows, or NULL with an exception set when ``status`` is
 * negative, memory ran out or the result cannot be built. */
static PyObject *rec_finish(Rec *rec, int status)
{
    PyObject *rows = NULL;
    if (rec->unlocked != NULL)
        PyEval_RestoreThread(rec->unlocked);
    if (rec->grid.obj != NULL)
        for (; rec->n < rec->cap; rec->n++)
            memcpy(rec->rows + 3 * rec->n, rec->held, sizeof rec->held);
    if (rec->oom)
        PyErr_NoMemory();
    else if (status >= 0 && PyByteArray_Resize(rec->bytes, 3 * rec->n * sizeof(double)) == 0) {
        /* memoryview(bytes).cast("d", (n, 3)) */
        PyObject *view = PyMemoryView_FromObject(rec->bytes);
        if (view != NULL)
            rows = PyObject_CallMethod(view, "cast", "s(nn)", "d", rec->n, (Py_ssize_t)3);
        Py_XDECREF(view);
    }
    rec_free(rec);
    return rows == NULL ? NULL : Py_BuildValue("(Ni)", rows, status);
}

/* ---- deterministic fixed-step integration (classic RK4) ---------------- */

/* exact fast paths keep equivalent rate formulations bitwise identical */
static inline double powfast(double x, double e)
{
    if (e == 1.0)
        return x;
    if (e == 2.0)
        return x * x;
    if (e == 0.0)
        return 1.0;
    return pow(x, e);
}

/* d(T, E)/dt of one model with parameters ``par``, written to ``dx`` */
typedef void (*Deriv)(const double *par, const double x[2], double dx[2]);

/* The one RK4 stepper.  The state is (T, E); a one-species law keeps E at
 * 0.  It refuses a step rule outside the kernels' domain, then pushes one
 * sample at each grid time it reaches and steps on to ``t_end``; steps of
 * ``dt`` end exactly on each target.  A step that would undershoot zero by
 * more than a relative 1e-12 is halved locally (at most MAX_HALVINGS times,
 * else status 6; status 6 at once when it undershoots a stock at 0 whose
 * drift there points below zero), a component beyond ``blowup`` or nan
 * (only overflow makes one) stops the run with status 1, and small negative
 * residues are clamped to 0.  The grid rule (``rec_init``) makes the
 * targets increase, so the run travels to the later of ``t_end`` and the
 * last grid time, which the step cap bounds too.  It steps without the GIL
 * (``rec_unlock``).  Inlined per model, so ``f`` is a direct call. */
static inline PyObject *rk4_run(Deriv f, const double *par, double x[2], double dt, double t_end,
                                PyObject *grid, double blowup)
{
    Rec rec;
    if (check_steps(dt, t_end) < 0)
        return NULL;
    if (grid == Py_None) /* which rec_init takes for "no grid" */
        return PyErr_Format(PyExc_TypeError, GRID_ERROR);
    if (rec_init(&rec, grid, x[0], x[1]) < 0)
        return NULL;
    const double *points = rec.grid.buf;
    Py_ssize_t npoints = rec.cap;
    double t = 0.0;
    if (check_steps(dt, fmax(t_end, points[npoints - 1])) < 0) {
        rec_free(&rec);
        return NULL;
    }
    int status = 0;
    rec_unlock(&rec);
    for (Py_ssize_t kk = 0; kk <= npoints; kk++) {
        double target = kk < npoints ? points[kk] : t_end;
        while (t < target - 1e-12) {
            double h = t + dt <= target ? dt : target - t;
            double k1[2], k2[2], k3[2], k4[2], xn[2];
            int halvings = 0;
            for (;;) {
                f(par, x, k1);
                double y2[2] = {x[0] + 0.5 * h * k1[0], x[1] + 0.5 * h * k1[1]};
                f(par, y2, k2);
                double y3[2] = {x[0] + 0.5 * h * k2[0], x[1] + 0.5 * h * k2[1]};
                f(par, y3, k3);
                double y4[2] = {x[0] + h * k3[0], x[1] + h * k3[1]};
                f(par, y4, k4);
                int ok = 1, blown = 0;
                for (int i = 0; i < 2; i++) {
                    xn[i] = x[i] + (h / 6.0) * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
                    double tol = REL_UNDERSHOOT_TOL * (x[i] > 1.0 ? x[i] : 1.0);
                    ok &= -tol <= xn[i] && xn[i] <= blowup;
                    blown |= xn[i] != xn[i] || xn[i] > blowup;
                }
                if (ok)
                    break;
                /* a stock at 0 whose drift points below zero: only steps of
                 * about 1e-12 / |drift| days would pass, so status 6 at once */
                int stuck = 0;
                for (int i = 0; i < 2; i++)
                    stuck |= x[i] == 0.0 && k1[i] < 0.0 && xn[i] < -REL_UNDERSHOOT_TOL;
                if (blown || stuck || ++halvings > MAX_HALVINGS) {
                    status = blown ? 1 : 6;
                    goto stop;
                }
                h *= 0.5;
            }
            for (int i = 0; i < 2; i++)
                x[i] = xn[i] > 0.0 ? xn[i] : 0.0;
            t += h;
        }
        t = target;
        if (kk < npoints)
            rec_push(&rec, t, x[0], x[1]);
    }
stop:
    rec.cap = rec.n + 1; /* rec_finish adds only the row held at the last grid time reached */
    return rec_finish(&rec, status);
}

/* par: a, b, alpha + 1, beta + 1 */
static void power_law_deriv(const double *par, const double x[2], double dx[2])
{
    double T = x[0];
    dx[0] = T <= 0.0 ? 0.0 : par[0] * powfast(T, par[2]) - par[1] * powfast(T, par[3]);
    dx[1] = 0.0;
}

/* par: a, b */
static void gompertz_deriv(const double *par, const double x[2], double dx[2])
{
    double T = x[0];
    dx[0] = T <= 0.0 ? 0.0 : par[0] * T - par[1] * T * log(T);
    dx[1] = 0.0;
}

/* par: a, b, g, m, n, p, d, s */
static void kuznetsov_deriv(const double *par, const double x[2], double dx[2])
{
    double a = par[0], b = par[1], g = par[2], m = par[3], n = par[4], p = par[5], d = par[6],
           s = par[7], T = x[0], E = x[1];
    dx[0] = a * T * (1.0 - b * T) - n * T * E;
    dx[1] = p * T * E / (g + T) - m * T * E - d * E + s;
}

#define KIND_ERROR "kind must be 0 (power law) or 1 (Gompertz)"

static PyObject *rk4_growth(PyObject *self, PyObject *args)
{
    int kind;
    PyObject *grid;
    double a, b, alpha, beta, dt, t_end, blowup, x[2] = {0.0, 0.0};
    if (!PyArg_ParseTuple(args, "idddddddOd", &kind, &a, &b, &alpha, &beta, &x[0], &dt, &t_end,
                          &grid, &blowup))
        return NULL;
    if (kind != 0 && kind != 1)
        return PyErr_Format(PyExc_ValueError, KIND_ERROR);
    double par[4] = {a, b, alpha + 1.0, beta + 1.0};
    /* two call sites, so that each inlined stepper calls its law directly */
    if (kind == 0)
        return rk4_run(power_law_deriv, par, x, dt, t_end, grid, blowup);
    return rk4_run(gompertz_deriv, par, x, dt, t_end, grid, blowup);
}

static PyObject *rk4_kuznetsov(PyObject *self, PyObject *args)
{
    PyObject *grid;
    double par[8], x[2], dt, t_end, blowup;
    if (!PyArg_ParseTuple(args, "ddddddddddddOd", &par[0], &par[1], &par[2], &par[3], &par[4],
                          &par[5], &par[6], &par[7], &x[0], &x[1], &dt, &t_end, &grid, &blowup))
        return NULL;
    return rk4_run(kuznetsov_deriv, par, x, dt, t_end, grid, blowup);
}

/* ---- channel tables ---------------------------------------------------- */

typedef struct {
    int n;
    long code[MAX_CHANNELS];
    double coef[MAX_CHANNELS], expo[MAX_CHANNELS], sat[MAX_CHANNELS];
    double dT[MAX_CHANNELS], dE[MAX_CHANNELS];
} Table;

#define ROW_ERROR "a channel row must be a tuple of six numbers (code, c, e, g, dT, dE)"

/* ``table``: a sequence of at most MAX_CHANNELS rows, each a tuple of six
 * numbers (code, c, e, g, dT, dE), one PyArg_ParseTuple per row; anything
 * else raises TypeError, too many rows or a rate-law code outside 0..5
 * ValueError */
static int table_read(Table *tab, PyObject *table)
{
    PyObject *rows = PySequence_Fast(table, "the channel table must be a sequence of rows");
    if (rows == NULL)
        return -1;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(rows);
    if (n > MAX_CHANNELS) {
        PyErr_Format(PyExc_ValueError, "at most %d channels supported, got %zd", MAX_CHANNELS, n);
        n = 0;
    }
    tab->n = (int)n;
    for (int i = 0; i < tab->n && !PyErr_Occurred(); i++) {
        PyObject *row = PySequence_Fast_GET_ITEM(rows, i);
        if (!PyTuple_Check(row))
            PyErr_SetString(PyExc_TypeError, ROW_ERROR);
        else if (PyArg_ParseTuple(row, "lddddd;" ROW_ERROR, &tab->code[i], &tab->coef[i],
                                  &tab->expo[i], &tab->sat[i], &tab->dT[i], &tab->dE[i]) &&
                 (tab->code[i] < 0 || tab->code[i] > 5))
            PyErr_Format(PyExc_ValueError, "unknown rate-law code %ld", tab->code[i]);
    }
    Py_DECREF(rows);
    return PyErr_Occurred() ? -1 : 0;
}

static inline double channel_rate(const Table *tab, int i, double T, double E)
{
    double c = tab->coef[i], e = tab->expo[i];
    switch (tab->code[i]) {
    case 1:
        return e == 1.0 ? c * T : (e == 2.0 ? c * T * T : c * pow(T, e));
    case 2:
        return T > 0.0 ? c * T * log(T) : 0.0;
    case 3:
        return c * E;
    case 4:
        return c * T * E;
    case 5:
        return c * T * E / (tab->sat[i] + T);
    default: /* 0: table_read admits no other code */
        return c;
    }
}

/* Fills ``out`` with the rates, or their running sums if ``sums``, and returns the last
 * running sum, or -1 on a negative or nan rate; a channel that would break a floor gets rate 0.
 * A bad rate is flagged, not returned at once, so that R and the sums stay in registers. */
static inline double table_rates(const Table *tab, double T, double E, double floor_t,
                                 double floor_e, int sums, double *out)
{
    double R = 0.0;
    int bad = 0;
    for (int i = 0; i < tab->n; i++) {
        double r = channel_rate(tab, i, T, E);
        bad |= !(r >= 0.0);
        r = (T + tab->dT[i] < floor_t) | (E + tab->dE[i] < floor_e) ? 0.0 : r;
        R += r;
        out[i] = sums ? R : r;
    }
    return bad ? -1.0 : R;
}

/* The absorption rule (see the package docstring): drops from ``tab`` the rows that a
 * species absorbed at 0 silences; returns the species (bit 0: T, bit 1: E) to watch. */
static int table_absorb(Table *tab, double T, double E, double floor_t, double floor_e, double cap)
{
    int watch = 0;
    if (!(0.0 <= T && T <= cap && 0.0 <= E && E <= cap && floor_t >= 0.0 && floor_e >= 0.0))
        return 0;
    for (int s = 0; s < 2; s++) {
        Table k = *tab;
        int ok = (s ? floor_e : floor_t) == 0.0;
        k.n = 0;
        for (int i = 0; i < tab->n; i++) {
            long c = tab->code[i];
            int reads = s ? c >= 3 : c != 0 && c != 3;
            int silenced = !c ? tab->coef[i] == 0.0 : reads && fabs(tab->coef[i]) * cap < INFINITY &&
                                  (c != 1 || tab->expo[i] > 0.0) && (c != 5 || tab->sat[i] > 0.0);
            ok &= silenced || (!reads && (s ? tab->dE : tab->dT)[i] <= 0.0);
            k.code[k.n] = c, k.coef[k.n] = tab->coef[i], k.expo[k.n] = tab->expo[i];
            k.sat[k.n] = tab->sat[i], k.dT[k.n] = tab->dT[i], k.dE[k.n] = tab->dE[i];
            k.n += !silenced;
        }
        if (ok && (s ? E : T) != 0.0)
            watch |= 1 << s;
        else if (ok && k.n < tab->n) { /* the drop may let the other species be absorbed: check both again */
            *tab = k;
            watch = 0, s = -1;
        }
    }
    return watch;
}

/* ---- exact stochastic simulation (Gillespie direct method) ------------- */

static PyObject *ssa(PyObject *self, PyObject *args)
{
    PyObject *table, *seed, *grid = NULL;
    double T0, E0, t_end, floor_t, floor_e, cap;
    long max_events;
    if (!PyArg_ParseTuple(args, "OdddOdddl|O", &table, &T0, &E0, &t_end, &seed, &floor_t,
                          &floor_e, &cap, &max_events, &grid))
        return NULL;
    Table tab;
    Rng rng;
    if (table_read(&tab, table) < 0 || rng_seed(&rng, seed) < 0 || check_end(t_end) < 0)
        return NULL;
    double sums[MAX_CHANNELS];
    double T = T0, E = E0, t = 0.0;
    long nev = 0;
    int watch = 3, status = -1; /* the species that table_absorb may yet absorb */
    Rec rec;
    if (rec_init(&rec, grid, T, E) < 0)
        return NULL;
    rec_unlock(&rec);
    while (!rec.oom) {
        if (watch && (((watch & 1) && T == 0.0) || ((watch & 2) && E == 0.0)))
            watch = table_absorb(&tab, T, E, floor_t, floor_e, cap);
        double R = table_rates(&tab, T, E, floor_t, floor_e, 1, sums);
        if (!(0.0 < R && R < INFINITY)) {
            status = stop_status(&rec, R, t, t_end, T, E);
            break;
        }
        t += rng_exp(&rng) / R;
        if (t >= t_end) {
            rec_push(&rec, t_end, T, E);
            status = 0;
            break;
        }
        /* the pick rule as a count: running sums never decrease */
        double u = rng_uniform(&rng) * R;
        int pick = 0;
        for (int i = 0; i < tab.n - 1; i++)
            pick += sums[i] <= u;
        T += tab.dT[pick];
        E += tab.dE[pick];
        nev += 1;
        if (T > cap || E > cap) {
            status = 3;
            break;
        }
        rec_push(&rec, t, T, E);
        if (nev >= max_events) {
            status = 4;
            break;
        }
    }
    return rec_finish(&rec, status);
}

/* One species whose agents keep the death rate of the population size at
 * their creation; agents of equal rate share a cohort. */
typedef struct {
    double rate, count;
} Cohort;

static PyObject *ssa_frozen(PyObject *self, PyObject *args)
{
    PyObject *table, *seed, *grid = NULL;
    double T0, t_end, floor_t, cap;
    long max_events;
    if (!PyArg_ParseTuple(args, "OddOddl|O", &table, &T0, &t_end, &seed, &floor_t, &cap,
                          &max_events, &grid))
        return NULL;
    Table tab;
    Rng rng;
    if (table_read(&tab, table) < 0 || rng_seed(&rng, seed) < 0 || check_end(t_end) < 0)
        return NULL;
    /* birth c * T^e (code 1, jump (1, 0)), then death (code 1 or 2, jump
     * (-1, 0)) with the per-capita rate c * T^(e - 1) or c * ln T */
    if (tab.n != 2 || tab.code[0] != 1 || tab.dT[0] != 1.0 || tab.dE[0] != 0.0 ||
        (tab.code[1] != 1 && tab.code[1] != 2) || tab.dT[1] != -1.0 || tab.dE[1] != 0.0) {
        PyErr_SetString(PyExc_ValueError, "ssa_frozen needs a birth-death table");
        return NULL;
    }
    double b = tab.coef[1], eb = tab.expo[1] - 1.0;
    int tlogt = tab.code[1] == 2;
    double T = T0, t = 0.0;
    long nev = 0;
    int status = -1;
    Py_ssize_t ncoh = 0, ccap = 64;
    /* the raw allocator needs no GIL: out of cohorts, the run sets rec.oom */
    Cohort *coh = PyMem_RawMalloc(ccap * sizeof *coh);
    if (coh == NULL)
        return PyErr_NoMemory();
    Rec rec;
    if (rec_init(&rec, grid, T, 0.0) < 0) {
        PyMem_RawFree(coh);
        return NULL;
    }
    rec_unlock(&rec);
#define DEATH_RATE(T) (tlogt ? b * log(T) : b * powfast((T), eb))
    if (T > 0.0) {
        coh[0].rate = DEATH_RATE(T);
        coh[0].count = T;
        ncoh = 1;
    }
    while (!rec.oom) {
        double B = channel_rate(&tab, 0, T, 0.0); /* the live birth rate, as ssa takes it */
        double D = 0.0;
        for (Py_ssize_t i = 0; i < ncoh; i++)
            D += coh[i].rate * coh[i].count;
        /* no death below the floor */
        double R = B >= 0.0 && D >= 0.0 ? B + (T - 1.0 < floor_t ? 0.0 : D) : -1.0;
        if (!(0.0 < R && R < INFINITY)) {
            status = stop_status(&rec, R, t, t_end, T, 0.0);
            break;
        }
        t += rng_exp(&rng) / R;
        if (t >= t_end) {
            rec_push(&rec, t_end, T, 0.0);
            status = 0;
            break;
        }
        double u = rng_uniform(&rng) * R;
        if (u < B) {
            T += 1.0;
            double dnew = DEATH_RATE(T);
            Py_ssize_t i = 0;
            while (i < ncoh && coh[i].rate != dnew)
                i++;
            if (i == ncoh) {
                if (ncoh == ccap) {
                    Cohort *grown = PyMem_RawRealloc(coh, 2 * ccap * sizeof *coh);
                    if (grown == NULL) {
                        rec.oom = 1;
                        break;
                    }
                    coh = grown;
                    ccap *= 2;
                }
                coh[ncoh++] = (Cohort){dnew, 0.0};
            }
            coh[i].count += 1.0;
        } else {
            u -= B;
            double acc = 0.0;
            for (Py_ssize_t i = 0; i < ncoh; i++) {
                acc += coh[i].rate * coh[i].count;
                if (u < acc) {
                    coh[i].count -= 1.0;
                    if (coh[i].count <= 0.0)
                        coh[i] = coh[--ncoh];
                    break;
                }
            }
            T -= 1.0;
        }
        nev += 1;
        if (T > cap) {
            status = 3;
            break;
        }
        rec_push(&rec, t, T, 0.0);
        if (nev >= max_events) {
            status = 4;
            break;
        }
    }
#undef DEATH_RATE
    PyMem_RawFree(coh);
    return rec_finish(&rec, status);
}

/* ---- approximate stochastic simulation (Poisson tau-leaping) ----------- */

static PyObject *tau_leap(PyObject *self, PyObject *args)
{
    PyObject *table, *seed, *grid = NULL;
    double T0, E0, t_end, dt, floor_t, floor_e, cap;
    if (!PyArg_ParseTuple(args, "OddddOddd|O", &table, &T0, &E0, &t_end, &dt, &seed, &floor_t,
                          &floor_e, &cap, &grid))
        return NULL;
    Table tab;
    Rng rng;
    if (table_read(&tab, table) < 0 || rng_seed(&rng, seed) < 0 || check_steps(dt, t_end) < 0)
        return NULL;
    double rates[MAX_CHANNELS];
    double T = T0, E = E0, t = 0.0;
    int watch = 3, status = -1; /* as in ssa */
    Rec rec;
    if (rec_init(&rec, grid, T, E) < 0)
        return NULL;
    rec_unlock(&rec);
    while (t < t_end - 1e-12 && !rec.oom) {
        if (watch && (((watch & 1) && T == 0.0) || ((watch & 2) && E == 0.0)))
            watch = table_absorb(&tab, T, E, floor_t, floor_e, cap);
        double h = t + dt <= t_end ? dt : t_end - t;
        /* leaping clamps to the floors after the step instead */
        double R = table_rates(&tab, T, E, -INFINITY, -INFINITY, 0, rates);
        if (!(0.0 < R && R < INFINITY)) {
            status = stop_status(&rec, R, t, t_end, T, E);
            break;
        }
        double nT = T, nE = E;
        for (int i = 0; i < tab.n; i++) {
            double lam = rates[i] * h;
            if (lam > 0.0) {
                double k = rng_poisson(&rng, lam);
                if (k != 0.0) {
                    nT += tab.dT[i] * k;
                    nE += tab.dE[i] * k;
                }
            }
        }
        if (nT < floor_t)
            nT = floor_t;
        if (nE < floor_e)
            nE = floor_e;
        if (nT > cap || nE > cap) {
            status = 3;
            break;
        }
        t = t + h < t_end - 1e-12 ? t + h : t_end;
        T = nT;
        E = nE;
        rec_push(&rec, t, T, E);
    }
    return rec_finish(&rec, status == -1 ? 0 : status);
}

/* ---- CSV rows ---------------------------------------------------------- */

#define ROWS_ERROR "values must be a 2-D or 3-D buffer of doubles, times a 1-D one"
#define CELL_CHARS 32 /* ',' plus a repr, at most 24 characters */
#define LABEL_CHARS 24 /* a replicate label and its ',' */
#define STAMP_CHARS 320 /* f"{t:.6f}" of a double, at most 317 characters */
#define CHUNK (1 << 16) /* the characters of a piece handed to ``write`` */

/* Writes the decimal u * 10^p, p <= 0, with a '-' if ``neg``, in fixed
 * notation: every digit of u, after "0." and zeros when p moves the point
 * past them, and ".0" after them when p = 0.  Returns the characters
 * written. */
static inline size_t write_fixed(char *out, int neg, uint64_t u, int p)
{
    char digits[20]; /* least significant first */
    int n = 0;
    do
        digits[n++] = (char)('0' + u % 10);
    while ((u /= 10) != 0);
    int point = n + p; /* the digits before the point */
    char *o = out;
    if (neg)
        *o++ = '-';
    if (point <= 0) {
        *o++ = '0';
        *o++ = '.';
        for (int i = point; i < 0; i++)
            *o++ = '0';
    }
    for (int i = n; i-- > 0;) {
        *o++ = digits[i];
        if (n - i == point)
            *o++ = '.';
    }
    if (point == n)
        *o++ = '0';
    return o - out;
}

/* Copies PyOS_double_to_string(x, code, precision, flags, NULL) to out:
 * its length, or -1 with an exception set. */
static Py_ssize_t write_dtoa(char *out, double x, char code, int precision, int flags)
{
    char *text = PyOS_double_to_string(x, code, precision, flags, NULL);
    if (text == NULL)
        return -1;
    size_t len = strlen(text);
    memcpy(out, text, len);
    PyMem_Free(text);
    return (Py_ssize_t)len;
}

#ifdef __SIZEOF_INT128__
typedef unsigned __int128 u128;

static const uint64_t POW5[22] = {
    1, 5, 25, 125, 625, 3125, 15625, 78125, 390625, 1953125, 9765625, 48828125, 244140625,
    1220703125, 6103515625, 30517578125, 152587890625, 762939453125, 3814697265625,
    19073486328125, 95367431640625, 476837158203125,
};
#endif

/* repr(float(v)) into out (see the header): its length, or -1 with an
 * exception set */
static Py_ssize_t write_repr(char *out, double v)
{
    int neg = signbit(v) != 0;
    double a = fabs(v);
    /* the range test first: the cast of a value outside it is undefined */
    if (a < 1e16 && a == (double)(long long)a && !(a == 0.0 && neg))
        return write_fixed(out, neg, (uint64_t)a, 0);
#ifdef __SIZEOF_INT128__
    uint64_t bits;
    memcpy(&bits, &a, sizeof bits);
    uint64_t m = bits & ((1ULL << 52) - 1);
    if (a >= 1e-4 && a < 0x1p52 && m != 0) {
        /* a = m 2^(E - 52), E in [-14, 51]; k = floor(E log10 2), so
         * a 10^q lies in [1e16, 2e17) and its rounding interval, the odd
         * multiples (2m -+ 1) 5^q of 2^-b (b >= 1), is at least 1.1 wide
         * and has no integral end */
        int E = (int)(bits >> 52) - 1023, k = ((E * 1233 + (16 << 12)) >> 12) - 16, q = 16 - k,
            b = 37 - E + k, j = 0;
        u128 five = POW5[q], twice = (u128)(m | 1ULL << 52) * five << 1;
        uint64_t lo = (uint64_t)((twice - five) >> b), hi = (uint64_t)((twice + five) >> b), p10 = 1;
        /* the interval holds the integers in (lo, hi]: find the largest
         * power of ten 10^j with a multiple there, then the multiple
         * nearest a 10^q = twice / 2^b; no shorter decimal rounds to v */
        for (; hi / 10 > lo / 10; j++, p10 *= 10)
            hi /= 10, lo /= 10;
        uint64_t centre = (uint64_t)(twice >> b);
        u128 rest = ((u128)(centre % p10) << b) + (twice & (((u128)1 << b) - 1)),
             half = (u128)p10 << (b - 1);
        if (rest != half) /* else a tie, which repr breaks to the even digit */
            return write_fixed(out, neg, centre / p10 + (rest > half), j - q);
    }
#endif
    return write_dtoa(out, v, 'r', 0, Py_DTSF_ADD_DOT_0);
}

/* f"{t:.6f}" into out (see the header): its length, or -1 with an
 * exception set */
static Py_ssize_t write_stamp(char *out, double t)
{
#ifdef __SIZEOF_INT128__
    double a = fabs(t);
    if (a >= 0x1p-60 && a < 0x1p44) {
        /* a 10^6 = x / 2^s exactly, s in [9, 112]: round it half up, and
         * its whole part fits 64 bits */
        uint64_t bits;
        memcpy(&bits, &a, sizeof bits);
        int s = 1075 - (int)(bits >> 52);
        u128 x = (u128)((bits & ((1ULL << 52) - 1)) | 1ULL << 52) * 1000000,
             rest = x & (((u128)1 << s) - 1), half = (u128)1 << (s - 1);
        if (rest != half) /* else a tie, which dtoa breaks to the even digit */
            return write_fixed(out, signbit(t) != 0, (uint64_t)(x >> s) + (rest > half), -6);
    }
#endif
    return write_dtoa(out, t, 'f', 6, 0);
}

/* Hands the len characters of text to write as one str. */
static int write_piece(PyObject *write, const char *text, Py_ssize_t len)
{
    PyObject *ret = PyObject_CallFunction(write, "s#", text, len);
    Py_XDECREF(ret);
    return ret == NULL ? -1 : 0;
}

/* The CSV rows "[r,]time,v1,...,vk\n" of every (r, row), handed to ``write``
 * in pieces (see the header). */
static PyObject *write_rows(PyObject *self, PyObject *args)
{
    PyObject *values_obj, *times_obj, *write, *result = NULL;
    Py_buffer vals = {NULL}, times = {NULL};
    char *stamps = NULL, *text = NULL;
    size_t *ends = NULL;
    Py_ssize_t n = 0, len = 0;
    if (!PyArg_ParseTuple(args, "OOO", &values_obj, &times_obj, &write))
        return NULL;
    if (PyObject_GetBuffer(values_obj, &vals, PyBUF_RECORDS_RO) < 0 ||
        PyObject_GetBuffer(times_obj, &times, PyBUF_RECORDS_RO) < 0 || vals.ndim < 2 ||
        vals.ndim > 3 || strcmp(vals.format, "d") != 0 || times.ndim != 1 ||
        strcmp(times.format, "d") != 0) {
        PyErr_SetString(PyExc_TypeError, ROWS_ERROR);
        goto done;
    }
    /* a 2-D buffer is one replicate, with no index column */
    int indexed = vals.ndim == 3;
    Py_ssize_t reps = indexed ? vals.shape[0] : 1, k = vals.shape[vals.ndim - 1];
    Py_ssize_t rep_step = indexed ? vals.strides[0] : 0, row_step = vals.strides[vals.ndim - 2],
               col_step = vals.strides[vals.ndim - 1];
    if (times.shape[0] != vals.shape[vals.ndim - 2]) {
        PyErr_Format(PyExc_ValueError, "%zd rows of values but %zd times", vals.shape[vals.ndim - 2],
                     times.shape[0]);
        goto done;
    }
    n = times.shape[0];
    /* a piece and one more row; so many columns or times that a row's or
     * the stamps' size overflows fit no memory */
    if (k > PY_SSIZE_T_MAX / (2 * CELL_CHARS) || n > PY_SSIZE_T_MAX / (2 * STAMP_CHARS) ||
        (text = PyMem_Malloc(CHUNK + LABEL_CHARS + STAMP_CHARS + (size_t)k * CELL_CHARS + 1)) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    /* every stamp in one buffer, stamp j from ends[j] to ends[j + 1]: at
     * most 22 characters below 2^44 (by either path), else STAMP_CHARS */
    size_t room = 1;
    for (Py_ssize_t j = 0; j < n; j++) {
        double t = *(const double *)((const char *)times.buf + j * times.strides[0]);
        room += fabs(t) < 0x1p44 ? 24 : STAMP_CHARS;
    }
    if ((ends = PyMem_Calloc(n + 1, sizeof *ends)) == NULL || (stamps = PyMem_Malloc(room)) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t j = 0; j < n; j++) {
        Py_ssize_t stamp_len =
            write_stamp(stamps + ends[j], *(const double *)((const char *)times.buf + j * times.strides[0]));
        if (stamp_len < 0)
            goto done;
        ends[j + 1] = ends[j] + stamp_len;
    }
    for (Py_ssize_t i = 0; i < reps; i++) {
        char label[LABEL_CHARS] = "";
        size_t label_len = indexed ? (size_t)snprintf(label, sizeof label, "%zd,", i) : 0;
        for (Py_ssize_t j = 0; j < n; j++) {
            const char *row = (const char *)vals.buf + i * rep_step + j * row_step;
            memcpy(text + len, label, label_len);
            memcpy(text + len + label_len, stamps + ends[j], ends[j + 1] - ends[j]);
            len += label_len + ends[j + 1] - ends[j];
            for (Py_ssize_t l = 0; l < k; l++) {
                text[len++] = ',';
                Py_ssize_t cell_len = write_repr(text + len, *(const double *)(row + l * col_step));
                if (cell_len < 0)
                    goto done;
                len += cell_len;
            }
            text[len++] = '\n';
            if (len >= CHUNK) {
                if (write_piece(write, text, len) < 0)
                    goto done;
                len = 0;
            }
        }
    }
    if (len == 0 || write_piece(write, text, len) == 0)
        result = Py_NewRef(Py_None);
done:
    PyMem_Free(text);
    PyMem_Free(stamps);
    PyMem_Free(ends);
    if (vals.obj != NULL)
        PyBuffer_Release(&vals);
    if (times.obj != NULL)
        PyBuffer_Release(&times);
    return result;
}

/* ---- module ------------------------------------------------------------ */

#define KERNEL(name, doc) {#name, name, METH_VARARGS, doc}

static PyMethodDef methods[] = {
    KERNEL(rk4_growth, "Integrate a one-equation growth law. Returns (rows, status), "
                       "(t, T, 0) rows."),
    KERNEL(rk4_kuznetsov, "Integrate the tumour-effector system. Returns (rows, status), "
                          "(t, T, E) rows."),
    KERNEL(ssa, "Exact simulation of a channel table. Returns (rows, status), (t, T, E) rows "
                "per event or held on a non-empty ``grid``."),
    KERNEL(ssa_frozen, "Exact simulation of a birth-death table, death rates fixed at birth. "
                       "Returns (rows, status), (t, T, 0) rows per event or held on a "
                       "non-empty ``grid``."),
    KERNEL(tau_leap, "Poisson tau-leaping of a channel table. Returns (rows, status), "
                     "(t, T, E) rows per leap or held on a non-empty ``grid``."),
    KERNEL(write_rows, "write_rows(values, times, write): the CSV rows of a (n, k) or "
                       "(reps, n, k) array of values at n times, handed to ``write`` as str "
                       "pieces of about 64 KiB."),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_ckernels",
    .m_doc = "Compiled simulation kernels (C twin of ``_pykernels``).",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC PyInit__ckernels(void)
{
    zig_init();
    return PyModule_Create(&module);
}
