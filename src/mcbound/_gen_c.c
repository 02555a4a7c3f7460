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

/* _gen_py.gate_fault(a, b) is None, for sides a <= b */
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

/* Steps pi to the next permutation of gate positions within each layer of
   t, stepping the layers like an odometer, the last layer fastest; returns
   0, with pi back at the identity, after the last one.  start[m] is the
   first gate of layer m. */
static int
next_relabeling(int *pi, const topo *t, const int *start)
{
    int m;
    for (m = t->nlayers - 1; m >= 0; m--)
        if (next_perm(pi + start[m], t->sizes[m]))
            return 1;
    return 0;
}

/* The identity permutation in pi and each layer's first gate in start. */
static void
first_relabeling(int *pi, const topo *t, int *start)
{
    int i, m;
    for (i = 0; i < t->q; i++)
        pi[i] = i;
    for (m = 0, i = 0; m < t->nlayers; i += t->sizes[m++])
        start[m] = i;
}

/* The encoding of t relabeled by pi in enc, each gate's sides smaller
   first; returns whether every gate passes gate_ok. */
static int
encode(const topo *t, const int *pi, unsigned char *enc)
{
    int minimal = 1, i;
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
    return minimal;
}

/* Least encodings of t over every permutation of gate positions within
   each layer, each gate's sides put smaller first.  best_any gets the least
   overall and best_min the least whose gates all pass gate_ok; returns
   whether any variant passed. */
static int
canon(const topo *t, unsigned char *best_any, unsigned char *best_min)
{
    int pi[MAX_GATES], start[MAX_GATES];
    unsigned char enc[2 * MAX_GATES];
    int n = 2 * t->q, have_any = 0, have_min = 0;

    first_relabeling(pi, t, start);
    do {
        int minimal = encode(t, pi, enc);
        if (!have_any || memcmp(enc, best_any, n) < 0) {
            memcpy(best_any, enc, n);
            have_any = 1;
        }
        if (minimal && (!have_min || memcmp(enc, best_min, n) < 0)) {
            memcpy(best_min, enc, n);
            have_min = 1;
        }
    } while (next_relabeling(pi, t, start));
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

/* One relabeling pi of an extend parent: the parent's encoding under it,
   zero past the parent's gates; whether the parent's gates all pass
   gate_ok; and its row of candidate images, or -1 when no child needs
   them. */
typedef struct {
    int pi[MAX_GATES];
    unsigned char enc[2 * MAX_GATES];
    int minimal;
    int row;
} relabeling;

static int
enc_order(const void *x, const void *y)
{
    return memcmp((*(const relabeling *const *)x)->enc,
                  (*(const relabeling *const *)y)->enc, 2 * MAX_GATES);
}

/* The new layer of candidates idx[0..width) under one relabeling, from its
   row of images a << 8 | b, sorted and written as the bytes a b a b ... */
static void
sorted_layer(const unsigned short *codes, const int *idx, int width, unsigned char *out)
{
    unsigned short layer[MAX_GATES];
    int i, j;
    for (i = 0; i < width; i++) {
        unsigned short c = codes[idx[i]];
        for (j = i; j > 0 && layer[j - 1] > c; j--)
            layer[j] = layer[j - 1];
        layer[j] = c;
    }
    for (i = 0; i < width; i++) {
        out[2 * i] = (unsigned char)(layer[i] >> 8);
        out[2 * i + 1] = (unsigned char)(layer[i] & 0xFF);
    }
}

/* prefix, n bytes, followed by layer, m bytes, as a new bytes. */
static PyObject *
child_key(const unsigned char *prefix, int n, const unsigned char *layer, int m)
{
    unsigned char key[2 * MAX_GATES];
    memcpy(key, prefix, n);
    memcpy(key + n, layer, m);
    return PyBytes_FromStringAndSize((const char *)key, n + m);
}

/* Adds the keys of every child of parent with one new layer of 1..k-q of
   the ncand candidate gates (with repetition) to out, as _gen_py.extend:
   the parent's relabelings are walked once, and a child's are a parent
   relabeling followed by sorting the new layer. */
static int
add_children(PyObject *out, const topo *parent, int k,
             const int *cand_left, const int *cand_right, int ncand)
{
    /* a parent has at most MAX_GATES - 1 gates, so at most 6! relabelings */
    relabeling rel[720], *autos[720], *mins[720];
    int pi[MAX_GATES], start[MAX_GATES], idx[MAX_GATES];
    unsigned char layer[2 * MAX_GATES], best[2 * MAX_GATES];
    unsigned short *codes = NULL;
    unsigned char *ok = NULL;
    int n = 2 * parent->q, nrel = 0, nautos = 0, nmins = 0, nrows = 0;
    int least = 0, width, i, j, c, rc = -1;

    first_relabeling(pi, parent, start);
    do {
        relabeling *r = &rel[nrel];
        memcpy(r->pi, pi, sizeof pi);
        memset(r->enc, 0, sizeof r->enc);
        r->minimal = encode(parent, pi, r->enc);
        r->row = -1;
        if (memcmp(r->enc, rel[least].enc, n) < 0)
            least = nrel;
        nrel++;
    } while (next_relabeling(pi, parent, start));

    /* rows of images for the parent's least relabelings and for the ones
       that leave its gates minimal */
    for (i = 0; i < nrel; i++) {
        int is_auto = !memcmp(rel[i].enc, rel[least].enc, n);
        if (is_auto)
            autos[nautos++] = &rel[i];
        if (rel[i].minimal)
            mins[nmins++] = &rel[i];
        if (is_auto || rel[i].minimal)
            rel[i].row = nrows++;
    }
    qsort(mins, nmins, sizeof mins[0], enc_order);
    codes = PyMem_Malloc((size_t)nrows * ncand * sizeof *codes);
    ok = PyMem_Malloc((size_t)nrows * ncand);
    if (codes == NULL || ok == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (i = 0; i < nrel; i++) {
        if (rel[i].row < 0)
            continue;
        for (c = 0; c < ncand; c++) {
            int a = relabel(cand_left[c], rel[i].pi), b = relabel(cand_right[c], rel[i].pi);
            if (b < a) {
                int s = a; a = b; b = s;
            }
            codes[rel[i].row * ncand + c] = (unsigned short)(a << 8 | b);
            ok[rel[i].row * ncand + c] = (unsigned char)gate_ok(a, b);
        }
    }

    for (width = 1; width <= k - parent->q; width++) {
        memset(idx, 0, sizeof idx);
        for (;;) {
            PyObject *key_any, *key_min = Py_None;
            const relabeling *found = NULL;
            int g, end;

            for (i = 0; i < nautos; i++) {
                sorted_layer(codes + autos[i]->row * ncand, idx, width, layer);
                if (!i || memcmp(layer, best, 2 * width) < 0)
                    memcpy(best, layer, 2 * width);
            }
            key_any = child_key(rel[least].enc, n, best, 2 * width);
            if (key_any == NULL)
                goto done;
            c = PyDict_Contains(out, key_any);
            if (c) {
                Py_DECREF(key_any);
                if (c < 0)
                    goto done;
                goto next;
            }
            /* key_min: the least parent encoding among the groups of minimal
               relabelings that leave every new gate minimal too, then the
               least new layer in that group */
            for (g = 0; g < nmins && found == NULL; g = end)
                for (end = g; end < nmins && !memcmp(mins[end]->enc, mins[g]->enc, n); end++) {
                    const unsigned char *row_ok = ok + mins[end]->row * ncand;
                    for (j = 0; j < width && row_ok[idx[j]]; j++)
                        ;
                    if (j < width)
                        continue;
                    sorted_layer(codes + mins[end]->row * ncand, idx, width, layer);
                    if (found == NULL || memcmp(layer, best, 2 * width) < 0) {
                        memcpy(best, layer, 2 * width);
                        found = mins[end];
                    }
                }
            if (found != NULL)
                key_min = child_key(found->enc, n, best, 2 * width);
            else
                Py_INCREF(Py_None);
            if (key_min == NULL) {
                Py_DECREF(key_any);
                goto done;
            }
            c = PyDict_SetItem(out, key_any, key_min);
            Py_DECREF(key_any);
            Py_DECREF(key_min);
            if (c < 0)
                goto done;
        next:
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
    rc = 0;
done:
    PyMem_Free(codes);
    PyMem_Free(ok);
    return rc;
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
