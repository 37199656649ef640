/*
 * Compiled scalar kernels: the functions of _kernels_py, written against
 * the CPython C API.
 *
 * _kernels_py is the reference.  Each function here performs the IEEE
 * operations of its Python version in the same order, with the same
 * parenthesisation, so the two backends give the same bits for every
 * input, and raise the same exception where the Python version raises.
 * Exact products come from Dekker splits as in Python, never from fma(),
 * and the file must be compiled with -ffp-contract=off (setup.py does)
 * and never with -ffast-math, so that the compiler neither fuses nor
 * reorders operations.
 *
 * Vectors are 3-sequences of floats, matrices 9-sequences in row-major
 * order; results are tuples of floats.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>

#define SPLIT 134217729.0 /* 2**27 + 1, Dekker splitting constant */

/* x = hi + lo with hi holding at most 26 significant bits */
#define SPLIT_HI(x, hi)              \
    do {                             \
        double t_ = SPLIT * (x);     \
        (hi) = t_ - (t_ - (x));      \
    } while (0)

/* ------------------------------------------------------ argument handling */

static int
check_nargs(const char *name, Py_ssize_t nargs, Py_ssize_t n)
{
    if (nargs == n) {
        return 0;
    }
    PyErr_Format(PyExc_TypeError,
                 "%s() takes %zd positional arguments but %zd were given",
                 name, n, nargs);
    return -1;
}

/* Reads n floats from arg.  With exact unset the sequence may be longer,
   and a shorter one raises IndexError, as indexing a[i] does; with exact
   set any other length raises ValueError, as unpacking x, y, z = v does. */
static int
load(PyObject *arg, double *out, Py_ssize_t n, int exact)
{
    PyObject *seq = PySequence_Fast(arg, "kernel argument must be a sequence");
    if (seq == NULL) {
        return -1;
    }
    Py_ssize_t len = PySequence_Fast_GET_SIZE(seq);
    if (exact && len != n) {
        PyErr_Format(PyExc_ValueError,
                     "expected a sequence of %zd values, got %zd", n, len);
        Py_DECREF(seq);
        return -1;
    }
    if (len < n) {
        PyErr_SetString(PyExc_IndexError, "sequence index out of range");
        Py_DECREF(seq);
        return -1;
    }
    PyObject **items = PySequence_Fast_ITEMS(seq);
    for (Py_ssize_t i = 0; i < n; i++) {
        out[i] = PyFloat_AsDouble(items[i]);
        if (out[i] == -1.0 && PyErr_Occurred()) {
            Py_DECREF(seq);
            return -1;
        }
    }
    Py_DECREF(seq);
    return 0;
}

static PyObject *
tuple_of(const double *v, Py_ssize_t n)
{
    PyObject *t = PyTuple_New(n);
    if (t == NULL) {
        return NULL;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *f = PyFloat_FromDouble(v[i]);
        if (f == NULL) {
            Py_DECREF(t);
            return NULL;
        }
        PyTuple_SET_ITEM(t, i, f);
    }
    return t;
}

/* -------------------------------------------- arithmetic shared by kernels */

/* The correctly rounded sum of n <= 8 terms, in the order given: the
   partial-sum algorithm of CPython's math.fsum, with its result for
   infinities and NaNs and its OverflowError and ValueError. */
static int
fsum(const double *terms, int n_terms, double *out)
{
    double p[8];
    double x, y, t, hi, yr, lo = 0.0;
    double special_sum = 0.0, inf_sum = 0.0;
    int i, j, n = 0;

    for (int k = 0; k < n_terms; k++) {
        double xsave = terms[k];
        x = xsave;
        for (i = j = 0; j < n; j++) {
            y = p[j];
            if (fabs(x) < fabs(y)) {
                t = x;
                x = y;
                y = t;
            }
            hi = x + y;
            yr = hi - x;
            lo = y - yr;
            if (lo != 0.0) {
                p[i++] = lo;
            }
            x = hi;
        }
        n = i;
        if (x != 0.0) {
            if (!isfinite(x)) {
                if (isfinite(xsave)) {
                    PyErr_SetString(PyExc_OverflowError,
                                    "intermediate overflow in fsum");
                    return -1;
                }
                if (isinf(xsave)) {
                    inf_sum += xsave;
                }
                special_sum += xsave;
                n = 0;
            }
            else {
                p[n++] = x;
            }
        }
    }

    if (special_sum != 0.0) {
        if (isnan(inf_sum)) {
            PyErr_SetString(PyExc_ValueError, "-inf + inf in fsum");
            return -1;
        }
        *out = special_sum;
        return 0;
    }

    hi = 0.0;
    if (n > 0) {
        hi = p[--n];
        while (n > 0) {
            x = hi;
            y = p[--n];
            hi = x + y;
            yr = hi - x;
            lo = y - yr;
            if (lo != 0.0) {
                break;
            }
        }
        if (n > 0 && ((lo < 0.0 && p[n - 1] < 0.0) ||
                      (lo > 0.0 && p[n - 1] > 0.0))) {
            y = lo * 2.0;
            x = hi + y;
            yr = x - hi;
            if (y == yr) {
                hi = x;
            }
        }
    }
    *out = hi;
    return 0;
}

/* The exact product a*b as p + its error, from the splits of a and b. */
static inline double
prod_err(double p, double ah, double al, double bh, double bl)
{
    return ((ah * bh - p) + ah * bl + al * bh) + al * bl;
}

/* The sum of squares s = (*s0, *s1) of (x, y, z) in double-double, from
   their splits, as the Cayley kernels form it. */
static inline void
sum_squares(const double *v, const double *vh, const double *vl,
            double *s0, double *s1)
{
    double p, e, c, f, s, t, g;
    p = v[0] * v[0];
    e = prod_err(p, vh[0], vl[0], vh[0], vl[0]);
    c = v[1] * v[1];
    f = prod_err(c, vh[1], vl[1], vh[1], vl[1]);
    s = p + c;
    t = s - p;
    g = (p - (s - t)) + (c - t);
    g += e + f;
    p = s + g;
    e = g - (p - s);
    c = v[2] * v[2];
    f = prod_err(c, vh[2], vl[2], vh[2], vl[2]);
    s = p + c;
    t = s - p;
    g = (p - (s - t)) + (c - t);
    g += e + f;
    p = s + g;
    e = g - (p - s);
    *s0 = p;
    *s1 = e;
}

/* den = (*d0, *d1) = s + 1 in double-double, and the split dh + dl of d0. */
static inline void
one_plus(double p, double e, double *d0, double *d1, double *dh, double *dl)
{
    double s, t, g;
    s = p + 1.0;
    t = s - p;
    g = (p - (s - t)) + (1.0 - t);
    g += e;
    *d0 = s + g;
    *d1 = g - (*d0 - s);
    SPLIT_HI(*d0, *dh);
    *dl = *d0 - *dh;
}

/* The quotient q1 + q2 + q3 of (n0, n1)/den, each q removing q*den from
   the remainder, rounded to one double. */
static inline double
dd_quotient(double n0, double n1, double d0, double d1, double dh, double dl)
{
    double q1, q2, q3, c, ch, cl, p, e, s, t, g;
    q1 = n0 / d0;
    c = -q1;
    SPLIT_HI(c, ch);
    cl = c - ch;
    p = d0 * c;
    e = prod_err(p, dh, dl, ch, cl);
    e += d1 * c;
    s = p + e;
    e = e - (s - p);
    p = s;
    s = n0 + p;
    t = s - n0;
    g = (n0 - (s - t)) + (p - t);
    g += n1 + e;
    n0 = s + g;
    n1 = g - (n0 - s);
    q2 = n0 / d0;
    c = -q2;
    SPLIT_HI(c, ch);
    cl = c - ch;
    p = d0 * c;
    e = prod_err(p, dh, dl, ch, cl);
    e += d1 * c;
    s = p + e;
    e = e - (s - p);
    p = s;
    s = n0 + p;
    t = s - n0;
    g = (n0 - (s - t)) + (p - t);
    g += n1 + e;
    n0 = s + g;
    q3 = n0 / d0;
    s = q1 + q2;
    e = q2 - (s - q1);
    n0 = s + q3;
    t = n0 - s;
    g = (s - (n0 - t)) + (q3 - t);
    g += e;
    s = n0 + g;
    return s + (g - (s - n0));
}

/* ---------------------------------------------------------------- kernels */

static PyObject *
dot3(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    double a[3], b[3];
    if (check_nargs("dot3", nargs, 2) || load(args[0], a, 3, 0) ||
        load(args[1], b, 3, 0)) {
        return NULL;
    }
    return PyFloat_FromDouble(a[0] * b[0] + a[1] * b[1] + a[2] * b[2]);
}

static PyObject *
cross3(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    double a[3], b[3];
    if (check_nargs("cross3", nargs, 2) || load(args[0], a, 3, 0) ||
        load(args[1], b, 3, 0)) {
        return NULL;
    }
    double out[3] = {
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    };
    return tuple_of(out, 3);
}

static PyObject *
norm3(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    double a[3];
    if (check_nargs("norm3", nargs, 1) || load(args[0], a, 3, 0)) {
        return NULL;
    }
    /* a sum of squares is never negative, so math.sqrt cannot raise */
    return PyFloat_FromDouble(sqrt(a[0] * a[0] + a[1] * a[1] + a[2] * a[2]));
}

static PyObject *
matvec(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    double m[9], v[3];
    if (check_nargs("matvec", nargs, 2) || load(args[1], v, 3, 1) ||
        load(args[0], m, 9, 0)) {
        return NULL;
    }
    double out[3] = {
        m[0] * v[0] + m[1] * v[1] + m[2] * v[2],
        m[3] * v[0] + m[4] * v[1] + m[5] * v[2],
        m[6] * v[0] + m[7] * v[1] + m[8] * v[2],
    };
    return tuple_of(out, 3);
}

static PyObject *
matmul(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    double a[9], b[9];
    if (check_nargs("matmul", nargs, 2) || load(args[0], a, 9, 0) ||
        load(args[1], b, 9, 0)) {
        return NULL;
    }
    double out[9] = {
        a[0] * b[0] + a[1] * b[3] + a[2] * b[6],
        a[0] * b[1] + a[1] * b[4] + a[2] * b[7],
        a[0] * b[2] + a[1] * b[5] + a[2] * b[8],
        a[3] * b[0] + a[4] * b[3] + a[5] * b[6],
        a[3] * b[1] + a[4] * b[4] + a[5] * b[7],
        a[3] * b[2] + a[4] * b[5] + a[5] * b[8],
        a[6] * b[0] + a[7] * b[3] + a[8] * b[6],
        a[6] * b[1] + a[7] * b[4] + a[8] * b[7],
        a[6] * b[2] + a[7] * b[5] + a[8] * b[8],
    };
    return tuple_of(out, 9);
}

static PyObject *
matmul_comp(PyObject *Py_UNUSED(module), PyObject *const *args,
            Py_ssize_t nargs)
{
    double a[9], b[9], out[9];
    if (check_nargs("matmul_comp", nargs, 2) || load(args[0], a, 9, 1) ||
        load(args[1], b, 9, 1)) {
        return NULL;
    }
    /* u[0..2] are the rows of a, u[3..5] the columns of b */
    double u[6][3], uh[6][3], ul[6][3];
    for (int r = 0; r < 6; r++) {
        for (int k = 0; k < 3; k++) {
            double v = r < 3 ? a[3 * r + k] : b[3 * k + (r - 3)];
            u[r][k] = v;
            SPLIT_HI(v, uh[r][k]);
            ul[r][k] = v - uh[r][k];
        }
    }
    for (int i = 0; i < 3; i++) {
        for (int j = 3; j < 6; j++) {
            double terms[6];
            for (int k = 0; k < 3; k++) {
                double p = u[i][k] * u[j][k];
                terms[2 * k] = p;
                terms[2 * k + 1] =
                    prod_err(p, uh[i][k], ul[i][k], uh[j][k], ul[j][k]);
            }
            if (fsum(terms, 6, &out[3 * i + (j - 3)])) {
                return NULL;
            }
        }
    }
    return tuple_of(out, 9);
}

static PyObject *
euler_rodrigues9(PyObject *Py_UNUSED(module), PyObject *const *args,
                 Py_ssize_t nargs)
{
    double n[3];
    if (check_nargs("euler_rodrigues9", nargs, 2) || load(args[0], n, 3, 1)) {
        return NULL;
    }
    double theta = PyFloat_AsDouble(args[1]);
    if (theta == -1.0 && PyErr_Occurred()) {
        return NULL;
    }
    double x = n[0], y = n[1], z = n[2];
    double c = cos(theta);
    double s = sin(theta);
    /* math.cos and math.sin raise where a non-NaN argument gives NaN */
    if (isnan(c) && !isnan(theta)) {
        PyErr_SetString(PyExc_ValueError, "math domain error");
        return NULL;
    }
    double cc = 1.0 - c;
    double out[9] = {
        c + cc * x * x,
        cc * x * y - s * z,
        cc * x * z + s * y,
        cc * x * y + s * z,
        c + cc * y * y,
        cc * y * z - s * x,
        cc * x * z - s * y,
        cc * y * z + s * x,
        c + cc * z * z,
    };
    return tuple_of(out, 9);
}

static PyObject *
rot_from_rod9(PyObject *Py_UNUSED(module), PyObject *const *args,
              Py_ssize_t nargs)
{
    double q[3];
    if (check_nargs("rot_from_rod9", nargs, 1) || load(args[0], q, 3, 1)) {
        return NULL;
    }
    double x = q[0], y = q[1], z = q[2];
    /* 1 + Q.Q is at least 1 or NaN, so the division cannot raise */
    double c = 2.0 / (1.0 + (x * x + y * y + z * z));
    double out[9] = {
        1.0 - c * (y * y + z * z),
        c * (x * y - z),
        c * (x * z + y),
        c * (x * y + z),
        1.0 - c * (x * x + z * z),
        c * (y * z - x),
        c * (x * z - y),
        c * (y * z + x),
        1.0 - c * (x * x + y * y),
    };
    return tuple_of(out, 9);
}

static PyObject *
half_turn9(PyObject *Py_UNUSED(module), PyObject *const *args,
           Py_ssize_t nargs)
{
    double n[3];
    if (check_nargs("half_turn9", nargs, 1) || load(args[0], n, 3, 1)) {
        return NULL;
    }
    double x = n[0], y = n[1], z = n[2];
    double out[9] = {
        2.0 * x * x - 1.0,
        2.0 * x * y,
        2.0 * x * z,
        2.0 * x * y,
        2.0 * y * y - 1.0,
        2.0 * y * z,
        2.0 * x * z,
        2.0 * y * z,
        2.0 * z * z - 1.0,
    };
    return tuple_of(out, 9);
}

static PyObject *
cayley_inv9(PyObject *Py_UNUSED(module), PyObject *const *args,
            Py_ssize_t nargs)
{
    double q[3], qh[3], ql[3];
    if (check_nargs("cayley_inv9", nargs, 1) || load(args[0], q, 3, 1)) {
        return NULL;
    }
    for (int i = 0; i < 3; i++) {
        SPLIT_HI(q[i], qh[i]);
        ql[i] = q[i] - qh[i];
    }
    double p, e, d0, d1, dh, dl;
    sum_squares(q, qh, ql, &p, &e);
    one_plus(p, e, &d0, &d1, &dh, &dl);

    double x = q[0], y = q[1], z = q[2];
    const double k[9] = {1.0, -z, y, z, 1.0, -x, -y, x, 1.0};
    double out[9];
    for (int i = 0; i < 3; i++) {
        for (int j = 0; j < 3; j++) {
            /* numerator (n0, n1) = q_i*q_j + c */
            double c = k[3 * i + j];
            double s, t, g, n0;
            p = q[i] * q[j];
            e = prod_err(p, qh[i], ql[i], qh[j], ql[j]);
            s = p + c;
            t = s - p;
            g = (p - (s - t)) + (c - t);
            g += e;
            n0 = s + g;
            out[3 * i + j] =
                dd_quotient(n0, g - (n0 - s), d0, d1, dh, dl);
        }
    }
    return tuple_of(out, 9);
}

static PyObject *
cayley_rot9(PyObject *Py_UNUSED(module), PyObject *const *args,
            Py_ssize_t nargs)
{
    double q[3], qh[3], ql[3];
    if (check_nargs("cayley_rot9", nargs, 1) || load(args[0], q, 3, 1)) {
        return NULL;
    }
    for (int i = 0; i < 3; i++) {
        SPLIT_HI(q[i], qh[i]);
        ql[i] = q[i] - qh[i];
    }
    double p, e, d0, d1, dh, dl;
    sum_squares(q, qh, ql, &p, &e);
    double m0 = -p, m1 = -e;
    one_plus(p, e, &d0, &d1, &dh, &dl);

    /* B = 1 + (Qx): entry (k, j) is b[k][j] with split bh[k][j] + bl[k][j] */
    double x = q[0], y = q[1], z = q[2];
    double mx = -x, my = -y, mz = -z, mxh, myh, mzh;
    SPLIT_HI(mx, mxh);
    SPLIT_HI(my, myh);
    SPLIT_HI(mz, mzh);
    const double b[3][3] = {{1.0, mz, y}, {z, 1.0, mx}, {my, x, 1.0}};
    const double bh[3][3] = {
        {1.0, mzh, qh[1]}, {qh[2], 1.0, mxh}, {myh, qh[0], 1.0}};
    const double bl[3][3] = {
        {0.0, mz - mzh, ql[1]}, {ql[2], 0.0, mx - mxh}, {my - myh, ql[0], 0.0}};
    const double k[9] = {0.0, mz, y, z, 0.0, mx, my, x, 0.0};
    double out[9];
    for (int i = 0; i < 3; i++) {
        /* row i of N: N_ij = q_i*q_j - s + den on the diagonal,
           q_i*q_j + (Qx)_ij off it, as (n0, n1) and the split of n0 */
        double r0[3], r1[3], rh[3], rl[3];
        for (int j = 0; j < 3; j++) {
            double s, t, g, n0;
            p = q[i] * q[j];
            e = prod_err(p, qh[i], ql[i], qh[j], ql[j]);
            if (i == j) {
                s = p + m0;
                t = s - p;
                g = (p - (s - t)) + (m0 - t);
                g += e + m1;
                p = s + g;
                e = g - (p - s);
                s = p + d0;
                t = s - p;
                g = (p - (s - t)) + (d0 - t);
                g += e + d1;
            }
            else {
                double c = k[3 * i + j];
                s = p + c;
                t = s - p;
                g = (p - (s - t)) + (c - t);
                g += e;
            }
            n0 = s + g;
            r0[j] = n0;
            r1[j] = g - (n0 - s);
            SPLIT_HI(n0, rh[j]);
            rl[j] = n0 - rh[j];
        }
        for (int j = 0; j < 3; j++) {
            /* (n0, n1) = sum of N_ik * B_kj over the nonzero B_kj */
            double n0 = 0.0, n1 = 0.0;
            for (int kk = 0; kk < 3; kk++) {
                double bkj = b[kk][j];
                if (bkj != 0.0) {
                    double s, t, g;
                    p = r0[kk] * bkj;
                    e = prod_err(p, rh[kk], rl[kk], bh[kk][j], bl[kk][j]);
                    e += r1[kk] * bkj;
                    s = p + e;
                    e = e - (s - p);
                    p = s;
                    s = n0 + p;
                    t = s - n0;
                    g = (n0 - (s - t)) + (p - t);
                    g += n1 + e;
                    n0 = s + g;
                    n1 = g - (n0 - s);
                }
            }
            out[3 * i + j] = dd_quotient(n0, n1, d0, d1, dh, dl);
        }
    }
    return tuple_of(out, 9);
}

static PyObject *
rod_from_rot9(PyObject *Py_UNUSED(module), PyObject *const *args,
              Py_ssize_t nargs)
{
    double m[9];
    if (check_nargs("rod_from_rot9", nargs, 1) || load(args[0], m, 9, 0)) {
        return NULL;
    }
    double t = 1.0 + m[0] + m[4] + m[8];
    if (t == 0.0) {
        /* Python's float division raises where C's gives inf or NaN */
        PyErr_SetString(PyExc_ZeroDivisionError, "float division by zero");
        return NULL;
    }
    double out[3] = {(m[7] - m[5]) / t, (m[2] - m[6]) / t, (m[3] - m[1]) / t};
    return tuple_of(out, 3);
}

static PyObject *
rot_residuals9(PyObject *Py_UNUSED(module), PyObject *const *args,
               Py_ssize_t nargs)
{
    double m[9];
    if (check_nargs("rot_residuals9", nargs, 1) || load(args[0], m, 9, 1)) {
        return NULL;
    }
    double g[6] = {
        fabs(m[0] * m[0] + m[3] * m[3] + m[6] * m[6] - 1.0),
        fabs(m[1] * m[1] + m[4] * m[4] + m[7] * m[7] - 1.0),
        fabs(m[2] * m[2] + m[5] * m[5] + m[8] * m[8] - 1.0),
        fabs(m[0] * m[1] + m[3] * m[4] + m[6] * m[7]),
        fabs(m[0] * m[2] + m[3] * m[5] + m[6] * m[8]),
        fabs(m[1] * m[2] + m[4] * m[5] + m[7] * m[8]),
    };
    /* max() keeps the first of its arguments unless a later one compares
       greater, so a NaN in first place wins and a later NaN never does */
    double r = g[0];
    for (int i = 1; i < 6; i++) {
        if (g[i] > r) {
            r = g[i];
        }
    }
    double det = m[0] * (m[4] * m[8] - m[5] * m[7])
                 - m[1] * (m[3] * m[8] - m[5] * m[6])
                 + m[2] * (m[3] * m[7] - m[4] * m[6]);
    double out[2] = {r, fabs(det - 1.0)};
    return tuple_of(out, 2);
}

/* ----------------------------------------------------------------- module */

#define KERNEL(name)                                                  \
    {                                                                 \
        #name, (PyCFunction)(void (*)(void))name, METH_FASTCALL, NULL \
    }

static PyMethodDef kernel_methods[] = {
    KERNEL(dot3),
    KERNEL(cross3),
    KERNEL(norm3),
    KERNEL(matvec),
    KERNEL(matmul),
    KERNEL(matmul_comp),
    KERNEL(euler_rodrigues9),
    KERNEL(rot_from_rod9),
    KERNEL(half_turn9),
    KERNEL(cayley_inv9),
    KERNEL(cayley_rot9),
    KERNEL(rod_from_rot9),
    KERNEL(rot_residuals9),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernels_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "rodvec._kernels_c",
    .m_doc = "Compiled scalar kernels; the same operations, in the same "
             "order, as rodvec._kernels_py.",
    .m_size = -1,
    .m_methods = kernel_methods,
};

PyMODINIT_FUNC
PyInit__kernels_c(void)
{
    PyObject *m = PyModule_Create(&kernels_module);
    if (m == NULL) {
        return NULL;
    }
    if (PyModule_AddStringConstant(m, "BACKEND", "compiled") < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
