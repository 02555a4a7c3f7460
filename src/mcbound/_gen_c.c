/* Compiled kernel for topology canonicalization and layer extension.

   Same interface, results and ValueErrors as mcbound._gen_py, the
   reference that the parity tests compare it against.  Gate sides are bit
   masks (bit i-1 set means gate i is wired in) and a topology is encoded as
   the bytes L1 R1 L2 R2 ... in gate order.  Build it with
   `python setup.py build_ext --inplace`. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <string.h>

#define MAX_GATES 7

/* extend builds candidate gates only for parents of fewer than MAX_GATES
   gates: at most 2^6 - 1 left sides times 2^6 right sides. */
#define MAX_CANDS (((1 << (MAX_GATES - 1)) - 1) << (MAX_GATES - 1))

typedef struct {
    int q;                    /* gates */
    int nlayers;
    int sizes[MAX_GATES];     /* gates per layer, in order */
    int left[MAX_GATES];
    int right[MAX_GATES];
} topo;

/* Steps perm[0..n) to the next permutation in lexicographic order and
   returns 1; after the last one, sorts it back to the first and returns 0. */
static int
next_perm(int *perm, int n)
{
    int i = n - 2, j, t;
    while (i >= 0 && perm[i] > perm[i + 1])
        i--;
    if (i >= 0) {
        j = n - 1;
        while (perm[j] < perm[i])
            j--;
        t = perm[i]; perm[i] = perm[j]; perm[j] = t;
    }
    for (j = i + 1, t = n - 1; j < t; j++, t--) {
        int s = perm[j]; perm[j] = perm[t]; perm[t] = s;
    }
    return i >= 0;
}

/* mask with each bit j moved to bit pi[j] */
static int
relabel(int mask, const int *pi)
{
    int out = 0;
    for (; mask; mask &= mask - 1)
        out |= 1 << pi[__builtin_ctz(mask)];
    return out;
}

/* topology.gate_fault(a, b) is None, for sides a <= b */
static int
gate_ok(int a, int b)
{
    int shared = a & b;
    if (a && !(a & ~b))
        return 0;
    if (b && !(b & ~a))
        return 0;
    return !shared || (shared < (a & ~b) && shared < (b & ~a));
}

/* Least encodings of t over every permutation of gate positions within
   each layer, each gate's sides put smaller first.  best_any gets the least
   overall and best_min the least whose gates all pass gate_ok; returns
   whether any variant passed.  The layers' permutations are stepped like
   an odometer, the last layer fastest. */
static int
canon(const topo *t, unsigned char *best_any, unsigned char *best_min)
{
    int pi[MAX_GATES], start[MAX_GATES];
    unsigned char enc[2 * MAX_GATES];
    int n = 2 * t->q, have_any = 0, have_min = 0, i, m;

    for (i = 0; i < t->q; i++)
        pi[i] = i;
    for (m = 0, i = 0; m < t->nlayers; i += t->sizes[m++])
        start[m] = i;
    do {
        int minimal = 1;
        for (i = 0; i < t->q; i++) {
            int a = relabel(t->left[i], pi), b = relabel(t->right[i], pi);
            if (b < a) {
                int s = a; a = b; b = s;
            }
            if (minimal)
                minimal = gate_ok(a, b);
            enc[2 * pi[i]] = (unsigned char)a;
            enc[2 * pi[i] + 1] = (unsigned char)b;
        }
        if (!have_any || memcmp(enc, best_any, n) < 0) {
            memcpy(best_any, enc, n);
            have_any = 1;
        }
        if (minimal && (!have_min || memcmp(enc, best_min, n) < 0)) {
            memcpy(best_min, enc, n);
            have_min = 1;
        }
        for (m = t->nlayers - 1; m >= 0; m--)
            if (next_perm(pi + start[m], t->sizes[m]))
                break;
    } while (m >= 0);
    return have_min;
}

/* (key_any, key_min) of t as a new tuple */
static PyObject *
keys_of(const topo *t)
{
    unsigned char best_any[2 * MAX_GATES], best_min[2 * MAX_GATES];
    Py_ssize_t n = 2 * t->q;
    if (canon(t, best_any, best_min))
        return Py_BuildValue("(y#y#)", best_any, n, best_min, n);
    return Py_BuildValue("(y#O)", best_any, n, Py_None);
}

/* The int value of obj in *out, with *over set to -1 or 1 when it does not
   fit in an int; returns -1 with an exception set when obj is no int. */
static int
int_value(PyObject *obj, int *out, int *over)
{
    long v = PyLong_AsLongAndOverflow(obj, over);
    if (v == -1 && PyErr_Occurred())
        return -1;
    if (!*over && (v > INT_MAX || v < INT_MIN))
        *over = v > 0 ? 1 : -1;
    *out = *over ? 0 : (int)v;
    return 0;
}

/* Reads side `side` of pair into *mask; bad_neg and bad_big record a
   negative mask and one of 2^q or more. */
static int
read_side(PyObject *pair, int side, int q, int *mask, int *bad_neg, int *bad_big)
{
    int over, rc;
    PyObject *obj = PySequence_GetItem(pair, side);
    if (obj == NULL)
        return -1;
    rc = int_value(obj, mask, &over);
    Py_DECREF(obj);
    if (rc < 0)
        return -1;
    if (over < 0 || *mask < 0)
        *bad_neg = 1;
    else if (over > 0 || *mask >= 1 << q)
        *bad_big = 1;
    return 0;
}

PyDoc_STRVAR(canonical_keys_doc,
"canonical_keys(pairs, layer_sizes)\n--\n\n"
"Least encodings of a well-layered topology over gate relabelings, as\n"
"(key_any, key_min): the least encoding overall, and the least whose gates\n"
"all satisfy the minimality conditions (None when no variant does).");

static PyObject *
canonical_keys(PyObject *self, PyObject *args)
{
    PyObject *pairs_arg, *sizes_arg, *pairs = NULL, *sizes = NULL, *result = NULL;
    Py_ssize_t q, nsizes, i;
    long long total = 0;
    int bad_cover = 0, bad_size = 0, bad_neg = 0, bad_big = 0;
    topo t;

    if (!PyArg_ParseTuple(args, "OO:canonical_keys", &pairs_arg, &sizes_arg))
        return NULL;
    pairs = PySequence_Fast(pairs_arg, "pairs must be a sequence");
    if (pairs == NULL)
        return NULL;
    q = PySequence_Fast_GET_SIZE(pairs);
    if (q == 0) {
        result = Py_BuildValue("(y#y#)", "", (Py_ssize_t)0, "", (Py_ssize_t)0);
        goto done;
    }
    if (q > MAX_GATES) {
        PyErr_Format(PyExc_ValueError, "kernel supports at most %d gates, got %zd",
                     MAX_GATES, q);
        goto done;
    }
    sizes = PySequence_Tuple(sizes_arg);
    if (sizes == NULL)
        goto done;
    nsizes = PyTuple_GET_SIZE(sizes);
    for (i = 0; i < nsizes; i++) {
        int size, over;
        if (int_value(PyTuple_GET_ITEM(sizes, i), &size, &over) < 0)
            goto done;
        if (over)
            bad_cover = 1;
        total += size;
        if (size < 1)
            bad_size = 1;
        else if (i < MAX_GATES)
            t.sizes[i] = size;
    }
    if (bad_cover || total != q) {
        PyErr_SetString(PyExc_ValueError, "layer sizes do not cover the gate list");
        goto done;
    }
    for (i = 0; i < q; i++) {
        PyObject *pair = PySequence_Fast_GET_ITEM(pairs, i);
        if (read_side(pair, 0, (int)q, &t.left[i], &bad_neg, &bad_big) < 0
            || read_side(pair, 1, (int)q, &t.right[i], &bad_neg, &bad_big) < 0)
            goto done;
    }
    if (bad_neg)
        PyErr_SetString(PyExc_ValueError, "side masks must not be negative");
    else if (bad_size)
        PyErr_Format(PyExc_ValueError, "layer sizes must be at least 1, got %R", sizes);
    else if (bad_big)
        PyErr_Format(PyExc_ValueError, "side masks of %zd gates must be below %d",
                     q, 1 << q);
    else {
        t.q = (int)q;
        t.nlayers = (int)nsizes;
        result = keys_of(&t);
    }
done:
    Py_DECREF(pairs);
    Py_XDECREF(sizes);
    return result;
}

/* Adds the keys of every child of parent with one new layer of 1..k-q of
   the ncand candidate gates (with repetition) to out. */
static int
add_children(PyObject *out, const topo *parent, int k,
             const int *cand_left, const int *cand_right, int ncand)
{
    topo child = *parent;
    int idx[MAX_GATES], width, j;

    child.nlayers = parent->nlayers + 1;
    for (width = 1; width <= k - parent->q; width++) {
        child.q = parent->q + width;
        child.sizes[parent->nlayers] = width;
        memset(idx, 0, sizeof idx);
        for (;;) {
            PyObject *keys;
            int rc;
            for (j = 0; j < width; j++) {
                child.left[parent->q + j] = cand_left[idx[j]];
                child.right[parent->q + j] = cand_right[idx[j]];
            }
            keys = keys_of(&child);
            if (keys == NULL)
                return -1;
            rc = PyDict_SetItem(out, PyTuple_GET_ITEM(keys, 0), PyTuple_GET_ITEM(keys, 1));
            Py_DECREF(keys);
            if (rc < 0)
                return -1;
            /* next non-decreasing index tuple */
            for (j = width - 1; j >= 0 && idx[j] == ncand - 1; j--)
                ;
            if (j < 0)
                break;
            idx[j]++;
            for (int s = j + 1; s < width; s++)
                idx[s] = idx[j];
        }
    }
    return 0;
}

PyDoc_STRVAR(extend_doc,
"extend(enc, k)\n--\n\n"
"All one-new-layer extensions of a partial topology, as canonical keys.\n\n"
"Appends a layer of 1..k-q new gates; every new gate must touch the\n"
"current last layer and neither side may nest inside the other.  Returns\n"
"the deduplicated extensions as sorted (key_any, key_min) pairs.");

static PyObject *
extend(PyObject *self, PyObject *args)
{
    Py_buffer enc;
    PyObject *k_arg, *out = NULL, *result = NULL;
    const unsigned char *bytes;
    int cand_left[MAX_CANDS], cand_right[MAX_CANDS];
    int k, over, q, i, cur, last, full, left, right, ncand = 0;
    topo parent;

    if (!PyArg_ParseTuple(args, "y*O:extend", &enc, &k_arg))
        return NULL;
    bytes = enc.buf;
    if (enc.len < 2) {
        PyErr_SetString(PyExc_ValueError, "cannot extend an empty topology");
        goto done;
    }
    if (int_value(k_arg, &k, &over) < 0)
        goto done;
    if (over > 0 || k > MAX_GATES) {
        PyErr_Format(PyExc_ValueError, "kernel supports at most %d gates, got k=%S",
                     MAX_GATES, k_arg);
        goto done;
    }
    /* a byte cannot reach past the eighth gate */
    for (i = 0; i < enc.len / 2 && i < 8; i++)
        if ((bytes[2 * i] | bytes[2 * i + 1]) >> i) {
            PyErr_Format(PyExc_ValueError,
                         "gate %d references a gate numbered %d or later", i + 1, i + 1);
            goto done;
        }
    if (over < 0 || enc.len / 2 >= k) {
        result = PyList_New(0);
        goto done;
    }

    /* greedy maximal layering of the parent, as _gen_py.layer_masks */
    q = parent.q = (int)(enc.len / 2);
    parent.nlayers = 0;
    cur = 0;
    for (i = 0; i < q; i++) {
        parent.left[i] = bytes[2 * i];
        parent.right[i] = bytes[2 * i + 1];
        if (cur & (parent.left[i] | parent.right[i])) {
            parent.sizes[parent.nlayers++] = __builtin_popcount(cur);
            cur = 0;
        }
        cur |= 1 << i;
    }
    parent.sizes[parent.nlayers++] = __builtin_popcount(cur);
    last = cur;

    /* candidate gates, ascending; (right, left) is skipped when (left, right)
       is listed, because keys ignore side order */
    full = (1 << q) - 1;
    for (left = 1; left <= full; left++) {
        if (!(left & last))
            continue;
        for (right = 0; right <= full; right++) {
            if (right & last && right < left)
                continue;
            if (!(left & ~right) || (right && !(right & ~left)))
                continue;
            cand_left[ncand] = left;
            cand_right[ncand] = right;
            ncand++;
        }
    }

    out = PyDict_New();
    if (out == NULL)
        goto done;
    if (ncand && add_children(out, &parent, k, cand_left, cand_right, ncand) < 0)
        goto done;
    result = PyDict_Items(out);
    if (result != NULL && PyList_Sort(result) < 0)
        Py_CLEAR(result);
done:
    Py_XDECREF(out);
    PyBuffer_Release(&enc);
    return result;
}

static PyMethodDef methods[] = {
    {"canonical_keys", canonical_keys, METH_VARARGS, canonical_keys_doc},
    {"extend", extend, METH_VARARGS, extend_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_gen_c",
    "Compiled kernel for topology canonicalization and layer extension.",
    0, methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC
PyInit__gen_c(void)
{
    PyObject *m = PyModule_Create(&module);
    if (m == NULL)
        return NULL;
    if (PyModule_AddStringConstant(m, "BACKEND", "c") < 0
        || PyModule_AddIntConstant(m, "MAX_GATES", MAX_GATES) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
