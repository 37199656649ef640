/*
 * Compiled scalar kernels: the five matrix kernels of _kernels_py, written
 * against the CPython C API.
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
 * order, each of exactly that length; results are tuples of floats.
 *
 * _kernels_py forms each distinct product once per call, where this file
 * may form a repeated one twice: cayley_inv9 forms each square again for
 * the diagonal, the same operation on the same operands, and q_j q_i for
 * entry (j, i) with the operands of q_i q_j swapped, whose product is the
 * same and whose Dekker error adds its exact partial sums in the other
 * order; inverse_residuals9 forms a product for each entry that uses it.
 * Either way the bits are the same.
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

/* Reads n floats from arg.  Any other length raises ValueError, as
   unpacking x, y, z = v does in every Python kernel. */
static int
load(PyObject *arg, double *out, Py_ssize_t n)
{
    PyObject *seq = PySequence_Fast(arg, "kernel argument must be a sequence");
    if (seq == NULL) {
        return -1;
    }
    Py_ssize_t len = PySequence_Fast_GET_SIZE(seq);
    if (len != n) {
        PyErr_Format(PyExc_ValueError,
                     "expected a sequence of %zd values, got %zd", n, len);
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

/* cayley_inv9 returns an entry after two quotient terms when hi +- m
   round to hi, with m = |lo| + Q3_BOUND |q2| and |hi| >= EXIT_FLOOR; the
   argument is in _kernels_py.cayley_inv9's docstring. */
#define Q3_BOUND 0x1p-45
#define EXIT_FLOOR 1e-290

/* The quotient q1 + q2 + q3 of (n0, n1)/den, each q removing q*den from
   the remainder, rounded to one double: hi + lo = q1 + q2 where q3 cannot
   move the rounding, else (hi, lo) + q3. */
static inline double
dd_quotient(double n0, double n1, double d0, double d1, double dh, double dl)
{
    double q1, q2, q3, hi, lo, m, c, ch, cl, p, e, s, t, g;
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
    q2 = n0 / d0;
    hi = q1 + q2;
    lo = q2 - (hi - q1);
    m = fabs(lo) + Q3_BOUND * fabs(q2);
    if (fabs(hi) >= EXIT_FLOOR && hi + m == hi && hi - m == hi) {
        return hi;
    }
    n1 = g - (n0 - s);
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
    n0 = hi + q3;
    t = n0 - hi;
    g = (hi - (n0 - t)) + (q3 - t);
    g += lo;
    s = n0 + g;
    return s + (g - (s - n0));
}

/* ---------------------------------------------------------------- kernels */

/* (max |(1 - Qx) M - 1|, max |M (1 - Qx) - 1|), each NaN where one of its
   entries is.  Each entry is the fsum of the two exact off-diagonal
   products p + e and of M's own entry with the error term of its unit
   product, 0.0 * ml: the terms of _kernels_py.inverse_residuals9, in its
   order.  Where that file adds -p and -e of c*m, this one forms (-c)*m
   from the split of -c: the same bits. */
static PyObject *
inverse_residuals9(PyObject *Py_UNUSED(module), PyObject *const *args,
                   Py_ssize_t nargs)
{
    double q[3], m[9];
    if (check_nargs("inverse_residuals9", nargs, 2) || load(args[0], q, 3) ||
        load(args[1], m, 9)) {
        return NULL;
    }
    /* 1 - Qx, with a unit diagonal and -q or q off it */
    const double a[9] = {1.0, q[2], -q[1], -q[2], 1.0, q[0], q[1], -q[0], 1.0};
    double ah[9], al[9], mh[9], ml[9], u[9];
    for (int i = 0; i < 9; i++) {
        SPLIT_HI(a[i], ah[i]);
        al[i] = a[i] - ah[i];
        SPLIT_HI(m[i], mh[i]);
        ml[i] = m[i] - mh[i];
        u[i] = 0.0 * ml[i];
    }
    double out[2];
    for (int side = 0; side < 2; side++) {
        double d[9];
        for (int i = 0; i < 3; i++) {
            for (int j = 0; j < 3; j++) {
                double terms[6], v;
                for (int k = 0; k < 3; k++) {
                    /* (1 - Qx) M sums a_ik m_kj, M (1 - Qx) sums m_ik a_kj */
                    int ia = side ? 3 * k + j : 3 * i + k;
                    int im = side ? 3 * i + k : 3 * k + j;
                    if (ia % 4 == 0) {
                        terms[2 * k] = m[im];
                        terms[2 * k + 1] = u[im];
                    }
                    else {
                        double p = a[ia] * m[im];
                        terms[2 * k] = p;
                        terms[2 * k + 1] =
                            prod_err(p, ah[ia], al[ia], mh[im], ml[im]);
                    }
                }
                if (fsum(terms, 6, &v)) {
                    return NULL;
                }
                d[3 * i + j] = fabs(i == j ? v - 1.0 : v);
            }
        }
        /* the sum is NaN exactly when a residual is; past that test the
           residuals are +0.0 or larger, and the if-chain takes the bits
           of the Python kernel */
        double r = d[0];
        for (int i = 1; i < 9; i++) {
            r += d[i];
        }
        if (r == r) {
            r = d[0];
            for (int i = 1; i < 9; i++) {
                if (d[i] > r) {
                    r = d[i];
                }
            }
        }
        out[side] = r;
    }
    return tuple_of(out, 2);
}

static PyObject *
euler_rodrigues9(PyObject *Py_UNUSED(module), PyObject *const *args,
                 Py_ssize_t nargs)
{
    double n[3];
    if (check_nargs("euler_rodrigues9", nargs, 2) || load(args[0], n, 3)) {
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
    if (check_nargs("rot_from_rod9", nargs, 1) || load(args[0], q, 3)) {
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
cayley_inv9(PyObject *Py_UNUSED(module), PyObject *const *args,
            Py_ssize_t nargs)
{
    double q[3], qh[3], ql[3];
    if (check_nargs("cayley_inv9", nargs, 1) || load(args[0], q, 3)) {
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
rot_residuals9(PyObject *Py_UNUSED(module), PyObject *const *args,
               Py_ssize_t nargs)
{
    double m[9];
    if (check_nargs("rot_residuals9", nargs, 1) || load(args[0], m, 9)) {
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
    KERNEL(inverse_residuals9),
    KERNEL(euler_rodrigues9),
    KERNEL(rot_from_rod9),
    KERNEL(cayley_inv9),
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
