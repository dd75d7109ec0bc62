/* Compiled core of the multilevel V-cycle: heavy-edge matching, graph
 * contraction and the whole p-way KL refinement.  Each kernel has a
 * numpy/Python reference that stays the fallback and the parity oracle:
 *
 *   hem_match   ~ repro.graph.matching._match_rounds
 *   contract    ~ repro.graph.contract._contract_py
 *   kl_refine   ~ repro.partition.kl._kl_refine_py
 *
 * and every kernel must stay *bit-identical* to its reference
 * (tests/test_multilevel_native.py, tests/test_kl_native.py).
 *
 * Determinism contract
 * --------------------
 * hem_match: with unique edge ranks, mutual-proposal rounds and one greedy
 * scan in descending rank build the same matching (the best surviving edge
 * is always mutual; induct on rounds), so the scan needs no float at all.
 *
 * kl_refine: the Python engine orders its heap by the tuple (-gain,
 * counter): the counter is unique, so the ordering is *total* and the pop
 * sequence is independent of the heap's internal layout.  This kernel
 * assigns counters in the same program order and compares (key, counter)
 * the same way, so any correct binary heap — including this one — pops in
 * exactly the order heapq does.  All gain arithmetic is IEEE double in the
 * same operation order as the Python expressions (no -ffast-math, no FMA
 * contraction; see _klnative.py), so keys are bit-identical and the chosen
 * moves match the pure path exactly.
 *
 * Summation-order rule: wherever the reference reduces floats with numpy,
 * the kernel reduces in numpy's order.  ``bincount`` adds sequentially in
 * index order; ``ndarray.sum()`` is ``pairwise_sum`` below over the whole
 * array; ``np.add.reduceat`` is ``first + pairwise_sum(rest)`` per segment.
 *
 * Every kernel writes only to caller-provided output buffers; the two that
 * allocate scratch return a negative status if that failed, and the caller
 * then falls back to the reference on its untouched inputs.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

/* ------------------------------------------------------------------ */
/* allocation (with a test hook that makes the k-th request fail)      */
/* ------------------------------------------------------------------ */

static int64_t fail_countdown = -1; /* < 0: never fail */

/* Test hook: the (k+1)-th allocation from now fails; k < 0 disarms. */
void klcore_fail_after(int64_t k) { fail_countdown = k; }

static void *xrealloc(void *ptr, size_t size)
{
    if (fail_countdown >= 0 && fail_countdown-- == 0)
        return NULL;
    return realloc(ptr, size ? size : 1);
}

#define ALLOC(type, count) ((type *)xrealloc(NULL, (size_t)(count) * sizeof(type)))

/* ------------------------------------------------------------------ */
/* numpy's pairwise summation (loops_utils.h.src), contiguous doubles  */
/* ------------------------------------------------------------------ */

static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = 0.0;
        int64_t i;
        for (i = 0; i < n; i++)
            res += a[i];
        return res;
    } else if (n <= 128) {
        double r[8], res;
        int64_t i, j;
        for (j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - (n % 8); i += 8)
            for (j = 0; j < 8; j++)
                r[j] += a[i + j];
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    } else {
        int64_t n2 = n / 2;
        n2 -= n2 % 8;
        return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
    }
}

/* ------------------------------------------------------------------ */
/* heavy-edge matching: one greedy scan in descending rank             */
/* ------------------------------------------------------------------ */

/* ``order`` lists the m candidate edges (es[e], ed[e]) by ascending
 * priority; ``match`` receives the involution (unmatched: itself). */
void hem_match(int64_t n, int64_t m, const int64_t *es, const int64_t *ed,
               const int64_t *order, int64_t *match)
{
    int64_t t, v;
    for (v = 0; v < n; v++)
        match[v] = -1;
    for (t = m - 1; t >= 0; t--) {
        int64_t e = order[t], a = es[e], b = ed[e];
        if (match[a] < 0 && match[b] < 0) {
            match[a] = b;
            match[b] = a;
        }
    }
    for (v = 0; v < n; v++)
        if (match[v] < 0)
            match[v] = v;
}

/* ------------------------------------------------------------------ */
/* contraction                                                         */
/* ------------------------------------------------------------------ */

static int cmp_i64(const void *x, const void *y)
{
    int64_t a = *(const int64_t *)x, b = *(const int64_t *)y;
    return (a > b) - (a < b);
}

static void sort_i64(int64_t *a, int64_t n)
{
    if (n <= 16) { /* mesh dual graphs: a handful of neighbours per row */
        int64_t i, j;
        for (i = 1; i < n; i++) {
            int64_t x = a[i];
            for (j = i; j > 0 && a[j - 1] > x; j--)
                a[j] = a[j - 1];
            a[j] = x;
        }
    } else {
        qsort(a, (size_t)n, sizeof(int64_t), cmp_i64);
    }
}

/* Collapse ``match``.  Outputs: cmap[n], cvw[n] (coarse vertex weights),
 * cxadj[n+1], cadj/cew[nnz] (coarse CSR, rows and neighbours ascending —
 * exactly what WeightedGraph.from_edges emits for the reference's edge
 * list, parallel edges summed in reduceat's order: the entries of the
 * *lower* coarse endpoint's fine rows, in CSR order).  Returns the number
 * of coarse vertices, or -1 if the reference must run instead (``match``
 * is not an involution, the adjacency is asymmetric, or an allocation
 * failed). */
int64_t contract(int64_t n, const int64_t *xadj, const int64_t *adjncy,
                 const double *ewts, const double *vwts, const int64_t *match,
                 int64_t *cmap, double *cvw, int64_t *cxadj, int64_t *cadj,
                 double *cew)
{
    int64_t nnz = xadj[n], nc = 0, nf = 0, nfmax = nnz / 2 + 1, v, c, t, k;
    int64_t *ibuf = NULL, *owner, *frow, *fcol, *slot, *stamp, *pos;
    int64_t *gcol, *gcnt, *goff, *tcol;
    double *dbuf = NULL, *fw, *tw, *buf;
    int64_t maxrow = 0, status = -1;

    for (v = 0; v < n; v++)
        if (match[v] < 0 || match[v] >= n || match[match[v]] != v)
            return -1;

    /* coarse ids: the smaller endpoint of a pair owns it, ids dealt in
     * owner order; bincount-order weight accumulation */
    for (v = 0; v < n; v++) {
        if (v <= match[v]) {
            int64_t deg = xadj[v + 1] - xadj[v], u = match[v];
            if (u != v)
                deg += xadj[u + 1] - xadj[u];
            if (deg > maxrow)
                maxrow = deg;
            cvw[nc] = 0.0;
            cmap[v] = nc++;
        } else {
            cmap[v] = cmap[match[v]];
        }
    }
    for (v = 0; v < n; v++)
        cvw[cmap[v]] += vwts[v];

    /* scratch, carved from one block per element type */
    ibuf = ALLOC(int64_t, 4 * nc + 1 + 2 * nfmax + 4 * maxrow);
    dbuf = ALLOC(double, nfmax + 2 * maxrow);
    if (!ibuf || !dbuf)
        goto done;
    owner = ibuf;           /* nc: the fine owner of each coarse vertex */
    slot = owner + nc;      /* nc: group index of a neighbour in this row */
    stamp = slot + nc;      /* nc: last row that saw this neighbour */
    pos = stamp + nc;       /* nc+1: CSR write cursors */
    frow = pos + nc + 1;    /* forward triples (row, col, weight) */
    fcol = frow + nfmax;
    gcol = fcol + nfmax;    /* one row's distinct higher neighbours, */
    gcnt = gcol + maxrow;   /* their multiplicities and offsets, */
    goff = gcnt + maxrow;
    tcol = goff + maxrow;   /* and its raw (col, weight) entries */
    fw = dbuf;
    tw = fw + nfmax;
    buf = tw + maxrow;
    for (v = 0; v < n; v++)
        if (v <= match[v])
            owner[cmap[v]] = v;
    for (c = 0; c < nc; c++)
        stamp[c] = -1;
    for (c = 0; c <= nc; c++)
        cxadj[c] = 0;

    /* forward half: for every coarse row c its neighbours d > c, merged */
    for (c = 0; c < nc; c++) {
        int64_t nt = 0, ng = 0, half, f = owner[c];
        for (half = 0; half < 2; half++) {
            for (t = xadj[f]; t < xadj[f + 1]; t++) {
                int64_t d = cmap[adjncy[t]];
                if (d > c) {
                    tcol[nt] = d;
                    tw[nt++] = ewts[t];
                    if (stamp[d] != c) {
                        stamp[d] = c;
                        gcol[ng++] = d;
                    }
                }
            }
            if (match[f] == f)
                break;
            f = match[f];
        }
        if (!ng)
            continue;
        sort_i64(gcol, ng);
        for (k = 0; k < ng; k++) {
            slot[gcol[k]] = k;
            gcnt[k] = 0;
        }
        for (k = 0; k < nt; k++)
            gcnt[slot[tcol[k]]]++;
        goff[0] = 0;
        for (k = 1; k < ng; k++)
            goff[k] = goff[k - 1] + gcnt[k - 1];
        for (k = 0; k < nt; k++) /* stable: encounter order per group */
            buf[goff[slot[tcol[k]]]++] = tw[k];
        if (2 * (nf + ng) > nnz)
            goto done; /* asymmetric adjacency: would overrun cadj/cew */
        for (k = 0; k < ng; k++) {
            int64_t d = gcol[k], start = goff[k] - gcnt[k];
            /* np.add.reduceat: first element, plus the pairwise rest */
            double w = buf[start];
            if (gcnt[k] > 1)
                w += pairwise_sum(buf + start + 1, gcnt[k] - 1);
            frow[nf] = c;
            fcol[nf] = d;
            fw[nf++] = w;
            cxadj[c + 1]++;
            cxadj[d + 1]++;
        }
    }

    for (c = 0; c < nc; c++)
        cxadj[c + 1] += cxadj[c];
    memcpy(pos, cxadj, (size_t)(nc + 1) * sizeof(int64_t));
    /* forward triples arrive (row, col) ascending, so each row receives its
     * lower neighbours (from earlier rows) before its own higher ones */
    for (k = 0; k < nf; k++) {
        int64_t r = frow[k], d = fcol[k];
        cadj[pos[r]] = d;
        cew[pos[r]++] = fw[k];
        cadj[pos[d]] = r;
        cew[pos[d]++] = fw[k];
    }
    status = nc;

done:
    free(ibuf);
    free(dbuf);
    return status;
}

/* ------------------------------------------------------------------ */
/* KL refinement                                                       */
/* ------------------------------------------------------------------ */

typedef struct {
    double key; /* -static_gain: min-heap top = best candidate */
    int64_t k;  /* unique push counter: total order, heapq-compatible */
    int64_t v;  /* vertex */
    int64_t j;  /* destination subset */
    int64_t s;  /* generation stamp at push time */
} entry;

typedef struct {
    entry *a;
    int64_t len, cap;
} vec;

static int vec_push(vec *h, entry e)
{
    if (h->len == h->cap) {
        int64_t nc = h->cap ? h->cap * 2 : 64;
        entry *na = (entry *)xrealloc(h->a, (size_t)nc * sizeof(entry));
        if (!na)
            return -1;
        h->a = na;
        h->cap = nc;
    }
    h->a[h->len++] = e;
    return 0;
}

/* strict "less" on (key, counter) — the tuple order heapq sees */
static inline int entry_lt(const entry *x, const entry *y)
{
    if (x->key < y->key)
        return 1;
    if (x->key > y->key)
        return 0;
    return x->k < y->k;
}

static void sift_down(entry *a, int64_t n, int64_t i)
{
    entry t = a[i];
    for (;;) {
        int64_t c = 2 * i + 1;
        if (c >= n)
            break;
        if (c + 1 < n && entry_lt(&a[c + 1], &a[c]))
            c++;
        if (!entry_lt(&a[c], &t))
            break;
        a[i] = a[c];
        i = c;
    }
    a[i] = t;
}

static void sift_up(entry *a, int64_t i)
{
    entry t = a[i];
    while (i > 0) {
        int64_t par = (i - 1) / 2;
        if (!entry_lt(&t, &a[par]))
            break;
        a[i] = a[par];
        i = par;
    }
    a[i] = t;
}

static int heap_push(vec *h, entry e)
{
    if (vec_push(h, e))
        return -1;
    sift_up(h->a, h->len - 1);
    return 0;
}

static entry heap_pop(vec *h)
{
    entry top = h->a[0];
    h->len--;
    if (h->len > 0) {
        h->a[0] = h->a[h->len];
        sift_down(h->a, h->len, 0);
    }
    return top;
}

/* The immutable problem plus one workspace, allocated per kl_refine and
 * reset between passes by touched lists (move log, row stamps), never by
 * clearing O(n*p) memory. */
typedef struct {
    int64_t n, p;
    const int64_t *xadj, *adjncy, *hom;
    const double *ewts, *vw;
    double alpha, beta, mean, maxcap, floor_w, min_gain;
    int64_t deadband, window_n, stall_limit, in_band_tail;
    int64_t moves, kept; /* over all passes: moves applied, moves not rolled back */

    int64_t *asg;     /* n: the live assignment */
    double *wt;       /* p: live subset weights */
    double *connf;    /* n*p: conn[v,s], row valid iff rowstamp[v]==pass */
    int64_t *gen;     /* n*p: candidate stamps, valid with the row */
    int64_t *rowstamp; /* n */
    int64_t pass;
    unsigned char *locked; /* n: moved this pass; cleared from the log */
    unsigned char *over;   /* p */
    int64_t *mv_v, *mv_i;  /* n: move log */
    double *wfull;         /* look-ahead window: full gains, entries, */
    entry *went, *carry;   /* and the leftovers carried between moves */
    vec heap, *def_tgt, *def_src;
    double *sumbuf; /* max(nnz, n, p): operand gather of exact reductions */
} klws;

/* conn row of v from the live assignment, in bincount's add order */
static void build_row(klws *w, int64_t v)
{
    int64_t p = w->p, vb = v * p, t;
    double *row = w->connf + vb;
    memset(row, 0, (size_t)p * sizeof(double));
    memset(w->gen + vb, 0, (size_t)p * sizeof(int64_t));
    for (t = w->xadj[v]; t < w->xadj[v + 1]; t++)
        row[w->asg[w->adjncy[t]]] += w->ewts[t];
    w->rowstamp[v] = w->pass;
}

/* _KLState.objective(): C_cut + alpha*C_migrate + beta*sum(phi(W_i)),
 * each reduction in numpy's order */
static double objective(klws *w)
{
    int64_t n = w->n, p = w->p, v, t, k = 0, s;
    double *buf = w->sumbuf, obj;
    for (v = 0; v < n; v++) {
        int64_t a = w->asg[v];
        for (t = w->xadj[v]; t < w->xadj[v + 1]; t++)
            if (w->asg[w->adjncy[t]] != a)
                buf[k++] = w->ewts[t];
    }
    obj = pairwise_sum(buf, k) / 2.0;
    if (w->alpha != 0.0) {
        k = 0;
        for (v = 0; v < n; v++)
            if (w->asg[v] != w->hom[v])
                buf[k++] = w->vw[v];
        obj += w->alpha * pairwise_sum(buf, k);
    }
    if (w->beta != 0.0) {
        double *sw = w->wt; /* scratch between passes */
        for (s = 0; s < p; s++)
            sw[s] = 0.0;
        for (v = 0; v < n; v++)
            sw[w->asg[v]] += w->vw[v];
        for (s = 0; s < p; s++) {
            if (w->deadband) {
                double over = sw[s] - w->maxcap, under = w->floor_w - sw[s];
                if (!(over > 0.0))
                    over = 0.0;
                if (!(under > 0.0))
                    under = 0.0;
                buf[s] = over * over + under * under;
            } else {
                double d = sw[s] - w->mean;
                buf[s] = d * d;
            }
        }
        obj += w->beta * pairwise_sum(buf, p);
    }
    return obj;
}

/* One KL pass with rollback (kl.py: _kl_pass + _kl_pass_py).  Stores the
 * kept cumulative gain; returns -1 if an allocation failed. */
static int kl_pass(klws *w, double *kept)
{
    const int64_t n = w->n, p = w->p;
    const int64_t *xadj = w->xadj, *adjncy = w->adjncy, *hom = w->hom;
    const double *ewts = w->ewts, *vw = w->vw;
    const double alpha = w->alpha, beta = w->beta, maxcap = w->maxcap;
    const double floor_w = w->floor_w, min_gain = w->min_gain;
    const int64_t window_n = w->window_n, stall_limit = w->stall_limit;
    const int64_t in_band_tail = w->in_band_tail;
    int64_t *asg = w->asg, *gen = w->gen;
    double *wt = w->wt, *connf = w->connf;
    unsigned char *locked = w->locked;
    vec *heap = &w->heap;
    double best_cum = 0.0, cum = 0.0;
    int64_t nmoves = 0, best_len = 0, counter = 0, ncarry = 0, wlen, t, v, s;
    int64_t light0 = -1, any_over = 0;
    int status = -1;

    w->pass++;
    heap->len = 0;
    for (s = 0; s < p; s++) {
        wt[s] = 0.0;
        w->def_tgt[s].len = 0;
        w->def_src[s].len = 0;
    }
    for (v = 0; v < n; v++)
        wt[asg[v]] += vw[v];
    if (beta != 0.0) {
        /* under heavy imbalance the boundary alone may not free enough
         * weight: also seed every vertex of an overweight subset, and
         * offer the lightest subset to every candidate vertex */
        light0 = 0;
        for (s = 0; s < p; s++) {
            w->over[s] = wt[s] > maxcap;
            any_over |= w->over[s];
            if (wt[s] < wt[light0])
                light0 = s;
        }
    }

    /* initial candidates in np.nonzero order: v ascending, j ascending */
    for (v = 0; v < n; v++) {
        int64_t i = asg[v], vb = v * p, j;
        int ext = 0, seeded = any_over && w->over[i];
        for (t = xadj[v]; t < xadj[v + 1]; t++)
            if (asg[adjncy[t]] != i) {
                ext = 1;
                break;
            }
        if (!ext && !seeded)
            continue; /* row sum == internal degree exactly: not boundary */
        build_row(w, v);
        if (!seeded &&
            !(pairwise_sum(connf + vb, p) - connf[vb + i] > 0.0))
            continue;
        for (j = 0; j < p; j++) {
            double cw = connf[vb + j], g;
            if (j == i || !(cw > 0.0 || j == light0))
                continue;
            g = cw - connf[vb + i];
            if (alpha != 0.0) {
                int64_t hh = hom[v];
                g = g - (alpha * vw[v]) *
                            ((double)(j != hh) - (double)(i != hh));
            }
            gen[vb + j] = 1;
            {
                entry e = {-g, counter++, v, j, 1};
                if (vec_push(heap, e))
                    goto done;
            }
        }
    }
    for (t = heap->len / 2 - 1; t >= 0; t--)
        sift_down(heap->a, heap->len, t);

/* re-stamp destination JT of u after its gain changed (kl.py `touch`) */
#define TOUCH(JT)                                                        \
    do {                                                                 \
        int64_t idx_ = ub + (JT);                                        \
        double cw_ = connf[idx_];                                        \
        if (cw_ > 0.0 || (JT) == light) {                                \
            double g_ = cw_ - base;                                      \
            if (alpha != 0.0) {                                          \
                int64_t hu_ = hom[u];                                    \
                double t1_ = ((JT) != hu_) ? alpha * vw[u] : 0.0;        \
                double t2_ = (au != hu_) ? alpha * vw[u] : 0.0;          \
                g_ -= (t1_ - t2_);                                       \
            }                                                            \
            int64_t s_ = gen[idx_] + 1;                                  \
            gen[idx_] = s_;                                              \
            entry ne_ = {-g_, counter++, u, (JT), s_};                   \
            if (heap_push(heap, ne_))                                    \
                goto done;                                               \
        } else if (gen[idx_]) {                                          \
            gen[idx_] += 1;                                              \
        }                                                                \
    } while (0)

/* wake the candidates deferred on subset S (kl.py `revive`) */
#define REVIVE(DEF, S)                                                   \
    do {                                                                 \
        vec *dv_ = &(DEF)[S];                                            \
        for (t = 0; t < dv_->len; t++) {                                 \
            entry le_ = dv_->a[t];                                       \
            int64_t idx_ = le_.v * p + le_.j, s2_;                       \
            if (locked[le_.v] || gen[idx_] != le_.s)                     \
                continue; /* superseded (dedups the twin listing) */     \
            s2_ = gen[idx_] + 1;                                         \
            gen[idx_] = s2_;                                             \
            {                                                            \
                entry ne_ = {le_.key, counter++, le_.v, le_.j, s2_};     \
                if (heap_push(heap, ne_))                                \
                    goto done;                                           \
            }                                                            \
        }                                                                \
        dv_->len = 0;                                                    \
    } while (0)

    /* The reference pops up to `window` valid candidates per move, takes
     * the best by full gain and pushes the rest back.  Pop order is the
     * total order on (key, counter), so the rest can wait in a sorted
     * side list (`carry`) and be merged with the heap's top on the next
     * move: same candidates in the same order, without ~2*window heap
     * operations per move. */
    while (heap->len > 0 || ncarry > 0) {
        int64_t ci = 0, tail = nmoves - best_len;
        if (stall_limit) {
            /* converged: the remaining tail would be rolled back.  Inside
             * the balance band a short tail suffices, outside it the
             * climb may still be crossing a valley toward balance. */
            if (tail >= stall_limit)
                break;
            if (tail >= in_band_tail) {
                for (s = 0; s < p; s++)
                    if (!(wt[s] >= floor_w && wt[s] <= maxcap))
                        break;
                if (s == p)
                    break;
            }
        }
        wlen = 0;
        while (wlen < window_n) {
            entry e;
            int64_t j, i;
            double wv, wj_after, full, Wi, Wj, bg, d;
            if (ci < ncarry &&
                (heap->len == 0 || entry_lt(&w->carry[ci], &heap->a[0])))
                e = w->carry[ci++];
            else if (heap->len > 0)
                e = heap_pop(heap);
            else
                break;
            v = e.v;
            if (locked[v])
                continue;
            j = e.j;
            if (gen[v * p + j] != e.s)
                continue; /* stale: superseded by a fresher entry */
            i = asg[v];
            wv = vw[v];
            wj_after = wt[j] + wv;
            if (!(wj_after <= maxcap || wj_after <= wt[i])) {
                if (vec_push(&w->def_tgt[j], e) || vec_push(&w->def_src[i], e))
                    goto done;
                continue;
            }
            full = -e.key;
            if (beta == 0.0) {
                w->wfull[wlen] = full;
                w->went[wlen] = e;
                wlen++;
                break; /* static key == full gain: first valid pop wins */
            }
            Wi = wt[i];
            Wj = wt[j];
            if (w->deadband) {
                bg = 0.0;
                d = Wi - maxcap;
                if (d > 0.0)
                    bg += d * d;
                d = floor_w - Wi;
                if (d > 0.0)
                    bg += d * d;
                d = Wj - maxcap;
                if (d > 0.0)
                    bg += d * d;
                d = floor_w - Wj;
                if (d > 0.0)
                    bg += d * d;
                Wi -= wv;
                Wj += wv;
                d = Wi - maxcap;
                if (d > 0.0)
                    bg -= d * d;
                d = floor_w - Wi;
                if (d > 0.0)
                    bg -= d * d;
                d = Wj - maxcap;
                if (d > 0.0)
                    bg -= d * d;
                d = floor_w - Wj;
                if (d > 0.0)
                    bg -= d * d;
            } else {
                bg = 2.0 * wv * (Wi - Wj - wv);
            }
            full += beta * bg;
            w->wfull[wlen] = full;
            w->went[wlen] = e;
            wlen++;
        }
        for (; ci < ncarry; ci++) /* displaced by better heap entries */
            if (heap_push(heap, w->carry[ci]))
                goto done;
        ncarry = 0;
        if (wlen == 0)
            break;
        {
            int64_t best_t = 0, j, i, light, nb;
            double bf = w->wfull[0], full, wv;
            entry e;
            for (t = 1; t < wlen; t++)
                if (w->wfull[t] > bf) {
                    bf = w->wfull[t];
                    best_t = t;
                }
            full = w->wfull[best_t];
            e = w->went[best_t];
            v = e.v;
            j = e.j;
            i = asg[v];
            wv = vw[v];
            /* neighbours not seen yet this pass get their row now, while
             * the assignment still reads as it did at pass start */
            for (nb = xadj[v]; nb < xadj[v + 1]; nb++)
                if (w->rowstamp[adjncy[nb]] != w->pass)
                    build_row(w, adjncy[nb]);
            asg[v] = j;
            wt[i] -= wv;
            wt[j] += wv;
            locked[v] = 1;
            w->mv_v[nmoves] = v;
            w->mv_i[nmoves] = i;
            nmoves++;
            cum += full;
            if (cum > best_cum + min_gain) {
                best_cum = cum;
                best_len = nmoves;
            }

            light = -1;
            if (beta != 0.0) {
                double wl = wt[0];
                light = 0;
                for (t = 1; t < p; t++)
                    if (wt[t] < wl) {
                        wl = wt[t];
                        light = t;
                    }
            }

            for (nb = xadj[v]; nb < xadj[v + 1]; nb++) {
                int64_t u = adjncy[nb], ub, au;
                double w_uv = ewts[nb], base;
                if (locked[u])
                    continue; /* its row is never read again this pass */
                ub = u * p;
                connf[ub + i] -= w_uv;
                connf[ub + j] += w_uv;
                au = asg[u];
                base = connf[ub + au];
                if (au == i || au == j) {
                    /* u's internal degree changed: every destination */
                    for (t = 0; t < p; t++) {
                        if (t != au)
                            TOUCH(t);
                    }
                } else {
                    TOUCH(i);
                    TOUCH(j);
                    if (light >= 0 && light != i && light != j)
                        TOUCH(light);
                }
            }

            /* window leftovers (still in pop order) carry to the next
             * move; the ones this move's refreshes superseded drop out
             * there, at the same validity checks */
            for (t = 0; t < wlen; t++)
                if (t != best_t)
                    w->carry[ncarry++] = w->went[t];
            /* wake candidates whose envelope this move's weights affect */
            REVIVE(w->def_tgt, i);
            REVIVE(w->def_src, j);
        }
    }
#undef TOUCH
#undef REVIVE

    /* roll back the suffix after the best prefix */
    for (t = nmoves - 1; t >= best_len; t--)
        asg[w->mv_v[t]] = w->mv_i[t];
    *kept = best_cum;
    w->moves += nmoves;
    w->kept += best_len;
    status = 0;

done:
    for (t = 0; t < nmoves; t++)
        locked[w->mv_v[t]] = 0;
    return status;
}

/* kl.py: the pass loop of kl_refine with its monotone-or-rollback guard.
 * ``asg`` holds the start assignment and receives the result; ``stats``
 * receives (passes run, seconds inside them, best objective seen — the
 * returned partition's unless a tie kept a later one —, moves tried, moves
 * kept).  Returns 0, or -1 if an allocation failed (``asg`` is then
 * unspecified — pass a copy). */
int64_t kl_refine(int64_t n, int64_t p, const int64_t *xadj,
                  const int64_t *adjncy, const double *ewts, const double *vw,
                  const int64_t *hom, double alpha, double beta,
                  int64_t deadband, double mean, double maxcap,
                  double floor_w, int64_t window_n, int64_t stall_limit,
                  int64_t in_band_tail, double min_gain, int64_t max_passes,
                  int64_t *asg, double *stats)
{
    klws w;
    int64_t nnz = xadj[n], wcap = window_n > 0 ? window_n : 1, s, it;
    int64_t sumcap = nnz > n ? nnz : n, passes = 0, status = -1;
    int64_t *ibuf = NULL, *best;
    double *dbuf = NULL, best_obj, obj, seconds = 0.0;
    entry *ebuf = NULL;
    vec *vbuf = NULL;
    unsigned char *bbuf = NULL;

    if (sumcap < p)
        sumcap = p;
    memset(&w, 0, sizeof(w));
    w.n = n;
    w.p = p;
    w.xadj = xadj;
    w.adjncy = adjncy;
    w.ewts = ewts;
    w.vw = vw;
    w.hom = hom;
    w.alpha = alpha;
    w.beta = beta;
    w.deadband = deadband;
    w.mean = mean;
    w.maxcap = maxcap;
    w.floor_w = floor_w;
    w.window_n = window_n;
    w.stall_limit = stall_limit;
    w.in_band_tail = in_band_tail;
    w.min_gain = min_gain;
    w.asg = asg;

    /* the workspace, carved from one block per element type */
    ibuf = ALLOC(int64_t, 4 * n + n * p);
    dbuf = ALLOC(double, p + n * p + wcap + sumcap);
    ebuf = ALLOC(entry, 2 * wcap);
    vbuf = ALLOC(vec, 2 * p);
    bbuf = ALLOC(unsigned char, n + p);
    if (vbuf) /* before any exit: `done` frees what the vectors hold */
        memset(vbuf, 0, (size_t)(2 * p) * sizeof(vec));
    if (!ibuf || !dbuf || !ebuf || !vbuf || !bbuf)
        goto done;
    best = ibuf;
    w.rowstamp = best + n;
    w.mv_v = w.rowstamp + n;
    w.mv_i = w.mv_v + n;
    w.gen = w.mv_i + n;
    w.wt = dbuf;
    w.wfull = w.wt + p;
    w.sumbuf = w.wfull + wcap;
    w.connf = w.sumbuf + sumcap;
    w.went = ebuf;
    w.carry = ebuf + wcap;
    w.def_tgt = vbuf;
    w.def_src = vbuf + p;
    w.locked = bbuf;
    w.over = bbuf + n;
    memset(w.rowstamp, 0, (size_t)n * sizeof(int64_t));
    memset(w.locked, 0, (size_t)n);

    /* Track the best-seen partition under the *full* objective: a pass
     * whose bookkeeping drifts, or a later pass that trades away an
     * earlier gain, can never make the result worse than the best state
     * ever reached — in particular never worse than the input. */
    memcpy(best, asg, (size_t)n * sizeof(int64_t));
    best_obj = obj = objective(&w);
    for (it = 0; it < max_passes; it++) {
        struct timespec t0, t1;
        double improved;
        clock_gettime(CLOCK_MONOTONIC, &t0);
        if (kl_pass(&w, &improved))
            goto done;
        clock_gettime(CLOCK_MONOTONIC, &t1);
        seconds += (double)(t1.tv_sec - t0.tv_sec) +
                   1e-9 * (double)(t1.tv_nsec - t0.tv_nsec);
        passes++;
        obj = objective(&w);
        if (obj < best_obj - min_gain) {
            best_obj = obj;
            memcpy(best, asg, (size_t)n * sizeof(int64_t));
        }
        if (improved <= min_gain)
            break;
    }
    if (obj > best_obj + min_gain)
        memcpy(asg, best, (size_t)n * sizeof(int64_t));
    stats[0] = (double)passes;
    stats[1] = seconds;
    stats[2] = best_obj;
    stats[3] = (double)w.moves;
    stats[4] = (double)w.kept;
    status = 0;

done:
    free(w.heap.a);
    for (s = 0; vbuf && s < 2 * p; s++)
        free(vbuf[s].a);
    free(ibuf);
    free(dbuf);
    free(ebuf);
    free(vbuf);
    free(bbuf);
    return status;
}
