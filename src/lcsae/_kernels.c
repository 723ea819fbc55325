/*
 * Compiled hot-path kernels.  Three entry points, one contract: batches in,
 * finished results out, never sums for the caller to finish:
 *
 *     forward_batch    the outputs of many networks on each input of a
 *                      batch, with no update;
 *     predict_batch    the fitness-weighted mean output of the networks
 *                      that match each input of a batch, with no update;
 *     reinforce_batch  one trial's reinforcement of a match set: one fused
 *                      momentum-SGD step toward the input for every
 *                      prediction net, returning the fitness-weighted mean
 *                      of the nets' pre-update outputs, then the XCS update
 *                      of each rule's error, fitness, set size and
 *                      experience in the population's state columns from
 *                      the net's mean squared error.
 *
 * A hand-written CPython extension with the functions and signatures of
 * the numpy twin ``_kernels_py``, which is its executable specification:
 * the twin performs the operations below in the same order, with the
 * plain-C exp below (only + - * / and unsigned integer steps, no libm) and
 * libm's expm1, and gives the same bits.  Every network is one SELU
 * hidden layer plus one logistic output layer and reaches every entry point
 * as one 12-tuple
 *
 *     (w1, b1, mask1, mw1, mb1, eta1, w2, b2, mask2, mw2, mb2, eta2)
 *
 * with, for an input ``x`` of length n,
 *
 *     w1, mask1, mw1  (h, n)        w2, mask2, mw2  (n_out, h)
 *     b1, mb1         (h,)          b2, mb2         (n_out,)
 *
 * all float64 except the uint8 masks, native byte order, aligned and
 * C-contiguous, and float etas.  forward_batch and predict_batch read only
 * w1, b1, w2 and b2 and take a float64 batch x (rows, n); forward_batch
 * writes net i's output for input r to row i * rows + r of ys_out, the (nets,
 * rows) order of predict_batch's bool match matrix.  predict_batch also takes
 * a float64 fitness per net, and writes a float64 (rows, n_out) out that it
 * never reads.  The rule state reaches reinforce_batch as four 1-D columns
 * of one length, float64 err, fit and set_size and int64 exp, and the int64
 * positions of the match set's rows in them, one per net, increasing and in
 * range; its input and output are float64 (n,) rows.  Every entry point
 * checks what it reads, the tuple sizes, the positions and the writability
 * of what it updates before any loop reads the data or any output is
 * written, and so guards the arrays of the package's plain-data layers at
 * run time: a wrong type, dtype or tuple size raises TypeError, a wrong
 * shape or layout, a read-only output or a bad position raises ValueError.
 *
 * Keep the order of every floating-point operation, and change the twin
 * with it: fixed seeds reproduce metrics.csv and population.ckpt byte for
 * byte on either backend.  Every entry point computes the hidden layers of
 * its nets for an input first, four hidden units at a time, each unit its
 * own sum in input order, so each output is the double a one-net,
 * one-input call gives: reinforce_batch reads every hidden layer before it
 * updates any net, forward_batch takes a batch one input at a time, and
 * predict_batch one net and one matched input at a time, net by net.
 * A no-update output adds the products of w2 and the hidden activations to b2
 * in hidden order; for a net with one hidden unit it is one pass per output,
 * b2 + w2 * a1, which rounds the product once and the sum once as that sum
 * does, so both give the same double.  Each net's outputs take two passes:
 * the pre-activations into a row, then one branch-free logistic_row over
 * the row (forward_batch: over all of ys_out at the end).  predict_batch
 * adds each rounded product fit * y to its row's sum and fit to its row's
 * total, both from 0.0, so every row adds its nets in list order, and
 * divides at the end (0.0 / 0.0, NaN, for a row no net matches).
 * reinforce_batch forms its output the same way after each net's step, from
 * the rules' fitnesses before the XCS update, so its output is the double
 * predict_batch gives for the same nets and input.  Each reinforce step
 * computes the outputs, then their gradients and squared errors (in one
 * pass per output for a net with one hidden unit), adds the hidden gradient
 * in output order from the pre-update w2, and updates w2, b2 and then the
 * hidden layer element by element.  Each net's error is the double
 * ``np.mean(np.square(y - x))`` gives: numpy's pairwise sum of the squares
 * (eight partial sums up to 128 terms, halving above that at a multiple of
 * 8) divided by n.  After every step the XCS update runs in
 * the order of the twin's array update, which is that of the per-rule loop:
 * libm ``pow`` is the function ``math.pow`` calls, and the normaliser of the
 * relative accuracies is the same pairwise sum, which is ``ndarray.sum`` of a
 * contiguous float64 array.
 *
 * Build: cc -O3 -funroll-loops -shared -fPIC -I<numpy include> -I<python
 * include> -DNPY_NO_DEPRECATED_API=NPY_1_7_API_VERSION _kernels.c -o <module>
 * and no -ffast-math or -march: reassociated sums or fused multiply-adds
 * would change the bits.  logistic_row alone is built once per instruction
 * set, AVX-512F, AVX2 and the default, and the loader picks the widest the
 * CPU runs; its attributes name no FMA and no -march, and switch off
 * contraction (fp-contract=off), so every clone gives the same bits, which
 * tests/test_build_flags.py and the per-clone parity test check.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <numpy/arrayobject.h>

#define SELU_LAMBDA 1.0507009873554805
#define SELU_ALPHA 1.6732632423543772

/* the fitness floor of the XCS update, ``_kernels_py.F_FLOOR`` */
#define F_FLOOR 1e-300

static const double SELU_LA = SELU_LAMBDA * SELU_ALPHA;

/* One network's checked data; a net with no update fills no masks, m* or
 * etas.  `a1` points at the net's hidden activations in the batch scratch. */
typedef struct {
    double *w1, *b1, *mw1, *mb1, *w2, *b2, *mw2, *mb2, *a1, eta1, eta2;
    unsigned char *mask1, *mask2;
    npy_intp h, n_out;
} net_t;

/* The checked rule state of a match set: the row of each of its rules in
 * the columns, and the XCS rates. */
typedef struct {
    const npy_int64 *pos;
    npy_int64 *exp;
    double *err, *fit, *set_size, beta, epsilon0, alpha, nu;
} rules_t;

static inline double
selu(double z)
{
    if (z > 0.0)
        return SELU_LAMBDA * z;
    return SELU_LA * expm1(z);
}

/* 1/n! for n = 0..13, rounded: the Taylor polynomial of exp(r) */
static const double EXP_TAYLOR[14] = {
    0x1p+0, 0x1p+0, 0x1p-1, 0x1.5555555555555p-3, 0x1.5555555555555p-5,
    0x1.1111111111111p-7, 0x1.6c16c16c16c17p-10, 0x1.a01a01a01a01ap-13,
    0x1.a01a01a01a01ap-16, 0x1.71de3a556c734p-19, 0x1.27e4fb7789f5cp-22,
    0x1.ae64567f544e4p-26, 0x1.1eed8eff8d898p-29, 0x1.6124613a86d09p-33,
};

/* exp(x) for -750 <= x <= 0 (and NaN), within 1 ulp of glibc's down to
 * -745, where it rounds to 0; below -708 a normal result times 2^-64 is
 * rounded once more, into the subnormals.  Cody-Waite: k = x / ln 2
 * rounded by adding 1.5 * 2^52, whose low bits then hold k; x - k ln 2 =
 * hi - lo with ln 2 split so that k * LN2_HI is exact; exp(r) = 1 + hi - lo
 * + r^2 p(r), with the rounding error of 1 + hi recovered, and 2^k from the
 * bits of the rounded multiple as 2^(k + 64) times 2^-64, so every
 * intermediate stays normal for k >= -1086.  Only unsigned integer
 * operations touch those bits.  It carries logistic_row's optimize
 * attribute, without which gcc does not inline it there. */
__attribute__((optimize("fp-contract=off", "no-trapping-math"))) static inline double
exp_nonpositive(double x)
{
    const double shift = 0x1.8p52;
    double kd = x * 0x1.71547652b82fep+0 + shift, hi, lo, r, p, big, s;
    npy_uint64 ki;
    int n;

    memcpy(&ki, &kd, sizeof ki);
    kd -= shift;
    hi = x - kd * 0x1.62e42fefa3800p-1;
    lo = kd * 0x1.ef35793c76730p-45;
    r = hi - lo;
    p = EXP_TAYLOR[13];
    for (n = 12; n >= 2; n--)
        p = EXP_TAYLOR[n] + r * p;
    big = 1.0 + hi;
    ki = (ki + 1087) << 52;
    memcpy(&s, &ki, sizeof s);
    return ((big + ((1.0 - big + hi - lo) + r * r * p)) * s) * 0x1p-64;
}

/* y[i] = 1 / (1 + exp(-z[i])) for z[i] >= 0 and e / (1 + e), e = exp(z[i]),
 * otherwise, as one branch-free loop over the pre-activations `z`; `y`
 * may be `z`.  The exp takes -|z| through a select that keeps a NaN's
 * sign, raised to -750 if lower: beyond +-750 the logistic has long
 * rounded to 0 or 1.  Each clone runs the scalar operations lane by lane,
 * each rounded once, so every clone gives the same bits: fp-contract=off
 * keeps the AVX-512F clone from fusing a * b + c (AVX-512F has FMA
 * instructions even without -mfma), and no-trapping-math allows gcc to
 * turn the selects into blends (gcc 12.2 does so here without it too). */
__attribute__((target_clones("avx512f", "avx2", "default"),
               optimize("fp-contract=off", "no-trapping-math"))) static void
logistic_row(const double *z, double *y, npy_intp n)
{
    npy_intp i;
    double v, a, e;

    for (i = 0; i < n; i++) {
        v = z[i];
        a = v >= 0.0 ? -v : v;
        e = exp_nonpositive(a < -750.0 ? -750.0 : a);
        y[i] = (v >= 0.0 ? 1.0 : e) / (1.0 + e);
    }
}

/* The hidden activations of every net of `nets` for the input `x`, into
 * `a1`, which holds the hidden units of all nets one after another; each
 * net's `a1` is pointed at its own.  `rows` is scratch of the same length.
 * Four units, of one net or of several, are summed at a time, but each is
 * its own chain from b1 in input order, so every activation is the double
 * a one-unit loop gives and does not depend on the rest of the batch. */
static void
hidden_batch(net_t *nets, npy_intp m, npy_intp n_in, const double *x,
             double *a1, const double **rows)
{
    npy_intp total = 0, k, j, u, i;
    double z0, z1, z2, z3;

    for (k = 0; k < m; k++) {
        nets[k].a1 = a1 + total;
        for (j = 0; j < nets[k].h; j++) {
            rows[total] = nets[k].w1 + j * n_in;
            a1[total++] = nets[k].b1[j];
        }
    }
    for (u = 0; u + 4 <= total; u += 4) {
        const double *r0 = rows[u], *r1 = rows[u + 1], *r2 = rows[u + 2],
                     *r3 = rows[u + 3];
        z0 = a1[u], z1 = a1[u + 1], z2 = a1[u + 2], z3 = a1[u + 3];
        for (i = 0; i < n_in; i++) {
            z0 += r0[i] * x[i];
            z1 += r1[i] * x[i];
            z2 += r2[i] * x[i];
            z3 += r3[i] * x[i];
        }
        a1[u] = selu(z0), a1[u + 1] = selu(z1);
        a1[u + 2] = selu(z2), a1[u + 3] = selu(z3);
    }
    for (; u < total; u++) {
        z0 = a1[u];
        for (i = 0; i < n_in; i++)
            z0 += rows[u][i] * x[i];
        a1[u] = selu(z0);
    }
}

/* The output pre-activations of a net whose hidden activations are in
 * `a1`, into `z`; logistic_row turns them into outputs.  A net with one
 * hidden unit takes one pass per output: b2 + w2 * a1 rounds the product
 * once and the sum once, as the general loop does, so both give the same
 * double. */
static void
preactivations(const net_t *p, double *z)
{
    const double *w2 = p->w2, *b2 = p->b2, *a1 = p->a1;
    npy_intp h = p->h, i, j;
    double s;

    if (h == 1) {
        for (i = 0; i < p->n_out; i++)
            z[i] = b2[i] + w2[i] * a1[0];
        return;
    }
    for (i = 0; i < p->n_out; i++) {
        s = b2[i];
        for (j = 0; j < h; j++)
            s += w2[i * h + j] * a1[j];
        z[i] = s;
    }
}

/* numpy's pairwise sum of `a` (pairwise_sum in loops_utils.h.src): eight
 * partial sums up to 128 terms, halving above that at a multiple of 8.
 * ``np.mean`` adds it to 0.0, which changes no sum of squares. */
static double
pairwise_sum(const double *a, npy_intp n)
{
    double r[8], res;
    npy_intp i, k, n2;

    if (n < 8) {
        res = 0.0;
        for (i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        for (k = 0; k < 8; k++)
            r[k] = a[k];
        for (i = 8; i < n - n % 8; i += 8)
            for (k = 0; k < 8; k++)
                r[k] += a[i + k];
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

/* One momentum-SGD step on the MSE toward the input `x` itself, so
 * n_out == n_in, from the hidden activations `p->a1`.  `y` receives the
 * pre-update outputs; returns their mean squared error from `x`, the
 * double ``np.mean(np.square(y - x))`` gives.  `g` and `sq` are scratch of
 * length n_in, `e1` of length h.  Masked weights are exactly zero, so the
 * mask factor makes the updates branchless (and vectorisable) without
 * changing any value. */
static double
fused_sgd(const net_t *p, double omega, npy_intp n_in, const double *x,
          double *y, double *g, double *sq, double *e1)
{
    double *w1 = p->w1, *b1 = p->b1, *mw1 = p->mw1, *mb1 = p->mb1;
    double *w2 = p->w2, *b2 = p->b2, *mw2 = p->mw2, *mb2 = p->mb2;
    const double *a1 = p->a1;
    const unsigned char *mask1 = p->mask1, *mask2 = p->mask2;
    double eta1 = p->eta1, eta2 = p->eta2, d, e, dw, ap;
    const double c = 2.0 / (double)p->n_out;
    npy_intp h = p->h, n_out = p->n_out, i, j;

    /* the outputs, then their gradients and squared errors; with one
     * hidden unit in one pass per output, together with the hidden
     * gradient, which adds g * w2 in output order before w2 is updated */
    preactivations(p, y);
    logistic_row(y, y, n_out);
    if (h == 1) {
        e = 0.0;
        for (i = 0; i < n_out; i++) {
            d = y[i] - x[i];
            g[i] = c * d * y[i] * (1.0 - y[i]);
            sq[i] = d * d;
            e += g[i] * w2[i];
        }
        e1[0] = e;
        for (i = 0; i < n_out; i++) {
            dw = (-eta2 * g[i] * a1[0] + omega * mw2[i]) * (double)mask2[i];
            w2[i] += dw;
            mw2[i] = dw;
        }
    } else {
        for (i = 0; i < n_out; i++) {
            d = y[i] - x[i];
            g[i] = c * d * y[i] * (1.0 - y[i]);
            sq[i] = d * d;
        }
        /* the hidden gradient, in output order, before w2 is updated */
        for (j = 0; j < h; j++)
            e1[j] = 0.0;
        for (i = 0; i < n_out; i++)
            for (j = 0; j < h; j++) {
                e1[j] += g[i] * w2[i * h + j];
                dw = (-eta2 * g[i] * a1[j] + omega * mw2[i * h + j])
                     * (double)mask2[i * h + j];
                w2[i * h + j] += dw;
                mw2[i * h + j] = dw;
            }
    }
    for (i = 0; i < n_out; i++) {
        dw = -eta2 * g[i] + omega * mb2[i];
        b2[i] += dw;
        mb2[i] = dw;
    }
    for (j = 0; j < h; j++) {
        ap = a1[j] > 0.0 ? SELU_LAMBDA : a1[j] + SELU_LA;
        d = e1[j] * ap;
        for (i = 0; i < n_in; i++) {
            dw = (-eta1 * d * x[i] + omega * mw1[j * n_in + i]) * (double)mask1[j * n_in + i];
            w1[j * n_in + i] += dw;
            mw1[j * n_in + i] = dw;
        }
        dw = -eta1 * d + omega * mb1[j];
        b1[j] += dw;
        mb1[j] = dw;
    }
    return pairwise_sum(sq, n_out) / (double)n_out;
}

/* The XCS update of the m rules of a match set, from their reconstruction
 * errors `mse`, in the order of the twin's array update: each error moves
 * toward its mse, each accuracy is 1 below epsilon0 and alpha *
 * (err / epsilon0)^-nu otherwise, each fitness moves toward its share of the
 * accuracies (never below F_FLOOR) and each set size toward m; each
 * experience grows by one.  `w` is scratch of length m. */
static void
xcs_update(const rules_t *r, npy_intp m, const double *mse, double *w)
{
    const double beta = r->beta, epsilon0 = r->epsilon0;
    double e, f, total;
    npy_intp i, k;

    for (i = 0; i < m; i++) {
        k = r->pos[i];
        e = r->err[k] + beta * (mse[i] - r->err[k]);
        r->err[k] = e;
        /* a NaN error takes the power branch, as ``~(err < epsilon0)`` */
        w[i] = e < epsilon0 ? 1.0 : r->alpha * pow(e / epsilon0, -r->nu);
    }
    total = pairwise_sum(w, m);
    for (i = 0; i < m; i++) {
        k = r->pos[i];
        f = r->fit[k] + beta * (w[i] / total - r->fit[k]);
        /* as np.maximum, a NaN fitness stays NaN */
        r->fit[k] = f < F_FLOOR ? F_FLOOR : f;
        r->set_size[k] = r->set_size[k] + beta * ((double)m - r->set_size[k]);
        r->exp[k] += 1;
    }
}

/* Data of `obj` if it is an array of `type` and shape (d0,) or (d0, d1)
 * (d1 < 0 means 1-D, d0 < 0 any length), writable when asked; otherwise
 * NULL with TypeError or ValueError set. */
static void *
array_data(PyObject *obj, const char *name, int type, npy_intp d0, npy_intp d1,
           int writable)
{
    PyArrayObject *a = (PyArrayObject *)obj;
    int ndim = d1 < 0 ? 1 : 2;

    if (!PyArray_Check(obj) || PyArray_TYPE(a) != type || !PyArray_ISNOTSWAPPED(a))
        return PyErr_Format(PyExc_TypeError, "%s must be a native %s array", name,
                            type == NPY_DOUBLE ? "float64"
                            : type == NPY_UINT8 ? "uint8"
                            : type == NPY_BOOL ? "bool" : "int64");
    if (!PyArray_IS_C_CONTIGUOUS(a) || !PyArray_ISALIGNED(a))
        return PyErr_Format(PyExc_ValueError, "%s must be aligned and C-contiguous", name);
    if (PyArray_NDIM(a) != ndim || (d0 >= 0 && PyArray_DIM(a, 0) != d0)
        || (ndim == 2 && PyArray_DIM(a, 1) != d1))
        return PyErr_Format(PyExc_ValueError, "%s has the wrong shape", name);
    if (writable && !PyArray_ISWRITEABLE(a))
        return PyErr_Format(PyExc_ValueError, "%s must be writable", name);
    return PyArray_DATA(a);
}

static int
eta_value(PyObject *obj, const char *name, double *out)
{
    /* a float subclass converts without running Python code */
    if (!PyFloat_Check(obj)) {
        PyErr_Format(PyExc_TypeError, "%s must be a float", name);
        return -1;
    }
    *out = PyFloat_AS_DOUBLE(obj);
    return 0;
}

/* Check the 12-tuple `v` as a network for an input of length n_in and an
 * output of width n_out and fill `p`.  A forward pass reads w1, b1, w2 and
 * b2; a training step (`train`) reads all twelve, and its weights must be
 * writable. */
static int
check_net(PyObject *const *v, int train, npy_intp n_in, npy_intp n_out, net_t *p)
{
    if (!(p->w1 = array_data(v[0], "w1", NPY_DOUBLE, -1, n_in, train)))
        return -1;
    p->h = PyArray_DIM((PyArrayObject *)v[0], 0);
    if (!(p->w2 = array_data(v[6], "w2", NPY_DOUBLE, n_out, p->h, train)))
        return -1;
    p->n_out = PyArray_DIM((PyArrayObject *)v[6], 0);
    if (!(p->b1 = array_data(v[1], "b1", NPY_DOUBLE, p->h, -1, train))
        || !(p->b2 = array_data(v[7], "b2", NPY_DOUBLE, p->n_out, -1, train)))
        return -1;
    if (!train)
        return 0;
    if (!(p->mask1 = array_data(v[2], "mask1", NPY_UINT8, p->h, n_in, 0))
        || !(p->mw1 = array_data(v[3], "mw1", NPY_DOUBLE, p->h, n_in, 1))
        || !(p->mb1 = array_data(v[4], "mb1", NPY_DOUBLE, p->h, -1, 1))
        || eta_value(v[5], "eta1", &p->eta1) < 0
        || !(p->mask2 = array_data(v[8], "mask2", NPY_UINT8, p->n_out, p->h, 0))
        || !(p->mw2 = array_data(v[9], "mw2", NPY_DOUBLE, p->n_out, p->h, 1))
        || !(p->mb2 = array_data(v[10], "mb2", NPY_DOUBLE, p->n_out, -1, 1))
        || eta_value(v[11], "eta2", &p->eta2) < 0)
        return -1;
    return 0;
}

/* Check every 12-tuple of `list` as a network and return them in a new
 * array, with the total of their hidden widths; NULL on error. */
static net_t *
check_nets(PyObject *list, int train, npy_intp n_in, npy_intp n_out, npy_intp *total)
{
    Py_ssize_t m = PyList_GET_SIZE(list), i;
    net_t *nets = PyMem_New(net_t, m);

    *total = 0;
    if (!nets)
        return (net_t *)PyErr_NoMemory();
    for (i = 0; i < m; i++) {
        PyObject *t = PyList_GET_ITEM(list, i);
        if (!PyTuple_Check(t) || PyTuple_GET_SIZE(t) != 12) {
            PyErr_Format(PyExc_TypeError, "item %zd must be a 12-tuple", i);
            goto fail;
        }
        if (check_net(&PyTuple_GET_ITEM(t, 0), train, n_in, n_out, &nets[i]) < 0)
            goto fail;
        *total += nets[i].h;
    }
    return nets;
fail:
    PyMem_Free(nets);
    return NULL;
}

/* Check the state columns `cols` (err, fit, set_size, exp) and the m
 * match-set positions `po`, which must be increasing rows of the columns,
 * so the first and the last bound them all, and fill `r`; the columns the
 * update writes must be writable. */
static int
check_rules(PyObject *const *cols, PyObject *po, npy_intp m, rules_t *r)
{
    npy_intp rows, i;

    if (!(r->err = array_data(cols[0], "err", NPY_DOUBLE, -1, -1, 1)))
        return -1;
    rows = PyArray_DIM((PyArrayObject *)cols[0], 0);
    if (!(r->fit = array_data(cols[1], "fit", NPY_DOUBLE, rows, -1, 1))
        || !(r->set_size = array_data(cols[2], "set_size", NPY_DOUBLE, rows, -1, 1))
        || !(r->exp = array_data(cols[3], "exp", NPY_INT64, rows, -1, 1))
        || !(r->pos = array_data(po, "pos", NPY_INT64, m, -1, 0)))
        return -1;
    for (i = 1; i < m; i++)
        if (r->pos[i] <= r->pos[i - 1]) {
            PyErr_SetString(PyExc_ValueError, "pos is not increasing");
            return -1;
        }
    if (m && (r->pos[0] < 0 || r->pos[m - 1] >= rows)) {
        PyErr_SetString(PyExc_ValueError, "pos holds a row out of range");
        return -1;
    }
    return 0;
}

/* `doubles` doubles of scratch and `total` row pointers for hidden_batch;
 * NULL with MemoryError set. */
static double *
new_scratch(npy_intp doubles, npy_intp total, const double ***rows)
{
    double *s = PyMem_New(double, doubles);

    if (s && (*rows = PyMem_New(const double *, total)))
        return s;
    PyMem_Free(s);
    return (double *)PyErr_NoMemory();
}

static void
free_scratch(double *s, const double **rows, net_t *nets)
{
    PyMem_Free(s);
    PyMem_Free((void *)rows);
    PyMem_Free(nets);
}

/* The width of a 2-D array `obj`, else 0, which array_data then refuses.
 * The width of an output array fixes every net's output width. */
static npy_intp
width(PyObject *obj)
{
    return PyArray_Check(obj) && PyArray_NDIM((PyArrayObject *)obj) == 2
           ? PyArray_DIM((PyArrayObject *)obj, 1) : 0;
}

static PyObject *
py_forward_batch(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwargs)
{
    static char *kw[] = {"nets", "x", "ys_out", NULL};
    PyObject *list, *xo, *yo;
    const double *x, **rows;
    double *ys, *a1;
    npy_intp n, m, batch, n_out, total, i, r;
    net_t *nets;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "O!OO:forward_batch", kw,
                                     &PyList_Type, &list, &xo, &yo)
        || !(x = array_data(xo, "x", NPY_DOUBLE, -1, width(xo), 0)))
        return NULL;
    m = PyList_GET_SIZE(list);
    batch = PyArray_DIM((PyArrayObject *)xo, 0);
    n = width(xo);
    n_out = width(yo);
    if (m && batch > NPY_MAX_INTP / m)
        return PyErr_Format(PyExc_ValueError, "x has too many rows for %zd nets", m);
    if (!(ys = array_data(yo, "ys_out", NPY_DOUBLE, m * batch, n_out, 1))
        || !(nets = check_nets(list, 0, n, n_out, &total)))
        return NULL;
    if (!(a1 = new_scratch(total, total, &rows))) {
        PyMem_Free(nets);
        return NULL;
    }
    /* row i * batch + r of ys_out is net i's output for input r: every
     * pre-activation first, then one logistic pass over them all */
    for (r = 0; r < batch; r++) {
        hidden_batch(nets, m, n, x + r * n, a1, rows);
        for (i = 0; i < m; i++)
            preactivations(&nets[i], ys + (i * batch + r) * n_out);
    }
    logistic_row(ys, ys, m * batch * n_out);
    free_scratch(a1, rows, nets);
    Py_RETURN_NONE;
}

static PyObject *
py_predict_batch(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwargs)
{
    static char *kw[] = {"nets", "x", "matched", "fit", "out", NULL};
    PyObject *list, *xo, *mo, *fo, *oo;
    const double *x, *fit, **rows;
    const npy_bool *matched;
    double *out, *fsum, *a1, *y, f;
    npy_intp n, m, batch, n_out, total, i, r, q;
    net_t *nets;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "O!OOOO:predict_batch", kw,
                                     &PyList_Type, &list, &xo, &mo, &fo, &oo)
        || !(x = array_data(xo, "x", NPY_DOUBLE, -1, width(xo), 0)))
        return NULL;
    m = PyList_GET_SIZE(list);
    batch = PyArray_DIM((PyArrayObject *)xo, 0);
    n = width(xo);
    n_out = width(oo);
    if (!(matched = array_data(mo, "matched", NPY_BOOL, m, batch, 0))
        || !(fit = array_data(fo, "fit", NPY_DOUBLE, m, -1, 0))
        || !(out = array_data(oo, "out", NPY_DOUBLE, batch, n_out, 1))
        || !(nets = check_nets(list, 0, n, n_out, &total)))
        return NULL;
    /* one net's hidden activations at a time, its outputs, and the fitness
     * total of every row */
    if (!(a1 = new_scratch(total + n_out + batch, total, &rows))) {
        PyMem_Free(nets);
        return NULL;
    }
    y = a1 + total;
    fsum = y + n_out;
    memset(fsum, 0, batch * sizeof(double));
    memset(out, 0, batch * n_out * sizeof(double));
    /* net by net, so every row adds its nets in list order */
    for (i = 0; i < m; i++) {
        f = fit[i];
        for (r = 0; r < batch; r++) {
            if (!matched[i * batch + r])
                continue;
            hidden_batch(&nets[i], 1, n, x + r * n, a1, rows);
            preactivations(&nets[i], y);
            logistic_row(y, y, n_out);
            for (q = 0; q < n_out; q++)
                out[r * n_out + q] += f * y[q];
            fsum[r] += f;
        }
    }
    for (r = 0; r < batch; r++)
        for (q = 0; q < n_out; q++)
            out[r * n_out + q] /= fsum[r];
    free_scratch(a1, rows, nets);
    Py_RETURN_NONE;
}

static PyObject *
py_reinforce_batch(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwargs)
{
    static char *kw[] = {"preds", "x", "omega", "out", "pos", "err", "fit",
                         "set_size", "exp", "beta", "epsilon0", "alpha", "nu",
                         NULL};
    PyObject *preds, *xo, *oo, *po, *cols[4];
    const double *x, **rows;
    double omega, *out, *mse, *a1, *y, f, fsum = 0.0;
    npy_intp n, m, total, i, q;
    net_t *nets;
    rules_t r;

    if (!PyArg_ParseTupleAndKeywords(
            args, kwargs, "O!OdOOOOOOdddd:reinforce_batch", kw, &PyList_Type,
            &preds, &xo, &omega, &oo, &po, &cols[0], &cols[1], &cols[2],
            &cols[3], &r.beta, &r.epsilon0, &r.alpha, &r.nu))
        return NULL;
    m = PyList_GET_SIZE(preds);
    if (!(x = array_data(xo, "x", NPY_DOUBLE, -1, -1, 0)))
        return NULL;
    n = PyArray_DIM((PyArrayObject *)xo, 0);
    /* every net reconstructs its n inputs */
    if (!(out = array_data(oo, "out", NPY_DOUBLE, n, -1, 1))
        || !(nets = check_nets(preds, 1, n, n, &total)))
        return NULL;
    if (check_rules(cols, po, m, &r) < 0) {
        PyMem_Free(nets);
        return NULL;
    }
    /* the hidden activations of every net, then g, sq and y (n each), e1
     * (no longer than the hidden total), the errors and the accuracies
     * (m each) */
    if (!(a1 = new_scratch(2 * total + 3 * n + 2 * m, total, &rows))) {
        PyMem_Free(nets);
        return NULL;
    }
    y = a1 + 2 * total + 2 * n;
    mse = y + n;
    for (q = 0; q < n; q++)
        out[q] = 0.0;
    /* every hidden layer is computed before any net is updated */
    hidden_batch(nets, m, n, x, a1, rows);
    for (i = 0; i < m; i++) {
        mse[i] = fused_sgd(&nets[i], omega, n, x, y, a1 + total,
                           a1 + total + n, a1 + total + 2 * n);
        /* the rule's fitness before its XCS update weighs its output */
        f = r.fit[r.pos[i]];
        for (q = 0; q < n; q++)
            out[q] += f * y[q];
        fsum += f;
    }
    xcs_update(&r, m, mse, mse + m);
    for (q = 0; q < n; q++)
        out[q] /= fsum;
    free_scratch(a1, rows, nets);
    Py_RETURN_NONE;
}

#define KW_METHOD(name, fn, doc) \
    {name, (PyCFunction)(void (*)(void))fn, METH_VARARGS | METH_KEYWORDS, doc}

static PyMethodDef methods[] = {
    KW_METHOD("forward_batch", py_forward_batch,
              "forward_batch(nets, x, ys_out)\n--\n\n"
              "Forward pass of every net of ``nets`` on each input of the batch\n"
              "``x`` (rows, n), with no update; row i * rows + r of ``ys_out``\n"
              "receives net i's output for input r."),
    KW_METHOD("predict_batch", py_predict_batch,
              "predict_batch(nets, x, matched, fit, out)\n--\n\n"
              "Fitness-weighted mean outputs of ``nets`` on the inputs ``x``\n"
              "(rows, n), with no update: row r of ``out``, which is never read,\n"
              "receives the sum of ``fit[i]`` times net i's output over the nets\n"
              "that match it (``matched[i, r]``), in list order, divided by the\n"
              "sum of their ``fit[i]`` (0.0 / 0.0 for a row no net matches)."),
    KW_METHOD("reinforce_batch", py_reinforce_batch,
              "reinforce_batch(preds, x, omega, out, pos, err, fit, set_size, exp,\n"
              "                beta, epsilon0, alpha, nu)\n--\n\n"
              "One momentum-SGD step on the MSE toward ``x`` for every net of\n"
              "``preds``, then the XCS update of their rules: ``out`` receives the\n"
              "mean of the nets' pre-update outputs weighted by ``fit[pos[i]]``\n"
              "before the update, added in list order, and row ``pos[i]`` of the\n"
              "state columns ``err``, ``fit``, ``set_size`` and ``exp`` is updated\n"
              "from net i's mean squared error from ``x``."),
    {NULL, NULL, 0, NULL},
};

static int
exec_module(PyObject *module)
{
    (void)module;
    import_array1(-1);
    return 0;
}

static PyModuleDef_Slot slots[] = {
    {Py_mod_exec, (void *)exec_module},
    {0, NULL},
};

static struct PyModuleDef moduledef = {
    PyModuleDef_HEAD_INIT, "_kernels",
    "Compiled hot-path kernels; see ``lcsae._kernels_py`` for the semantics.",
    0, methods, slots, NULL, NULL, NULL,
};

/* multi-phase init, so the module can be loaded without entering
 * sys.modules */
PyMODINIT_FUNC
PyInit__kernels(void)
{
    return PyModuleDef_Init(&moduledef);
}
