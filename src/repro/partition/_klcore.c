/* Compiled core of the multilevel V-cycle: heavy-edge matching, graph
 * contraction, the whole p-way KL refinement, and the two fused entries
 * that run a V-cycle in two calls.  It is the only implementation the
 * package runs; each kernel has one numpy/Python oracle under tests/
 * (tests/_kl_oracle.py):
 *
 *   hem_match          ~ _match_rounds
 *   contract           ~ _contract_py
 *   kl_refine          ~ _kl_refine_py
 *   grow               ~ greedy_graph_growing
 *   pcg64_permutation  ~ numpy.random.default_rng(seed).permutation(m)
 *   pcg64_integers     ~ numpy.random.default_rng(seed).integers(high), drawn
 *                        in turn
 *   coarsen            ~ build_hierarchy (heavy_edge_matching's filter and
 *                        tie order, contract, _project_down)
 *   refine             ~ v_cycle as configured by multilevel_partition /
 *                        multilevel_repartition (the coarsest rule — greedy
 *                        growing or the projected home — included), with
 *                        the latter's repartition_cost identity guard
 *
 * and every kernel must stay *bit-identical* to its oracle
 * (tests/test_multilevel_native.py, tests/test_kl_native.py).
 *
 * Determinism contract
 * --------------------
 * hem_match: with unique edge ranks, mutual-proposal rounds and one greedy
 * scan in descending rank build the same matching (the best surviving edge
 * is always mutual; induct on rounds), so the scan needs no float at all.
 *
 * pcg64_permutation: numpy's Generator.permutation(m) is a Fisher-Yates
 * shuffle of arange(m) from the top, each index drawn by random_interval
 * (masked rejection over 32-bit draws, two per 64-bit PCG64 output).
 * pcg64_integers: Generator.integers(high) is Lemire's bounded draw over
 * the same 32-bit draws.  The ports start from the state numpy's seeding
 * produced (read once per seed in Python), so the tie order of every
 * matching and the start vertices of greedy growing are numpy's; the
 * wrapper checks a few draws of each against numpy when the core loads
 * and refuses to load on any mismatch.
 *
 * grow: heapq orders the oracle's growth heap by the tuple (-gain,
 * vertex), a total order up to identical tuples, so this kernel's heap on
 * the same pair pops the same sequence.
 *
 * kl_refine: the oracle engine orders its heap by the tuple (-gain,
 * counter): the counter is unique, so the ordering is *total* and the pop
 * sequence is independent of the heap's internal layout.  This kernel
 * assigns counters in the same program order and compares (key, counter)
 * the same way, so any correct heap — here a 4-ary one popped bottom-up,
 * its top merged with the window's carry — pops in exactly the order
 * heapq's binary heap does.  A heap entry is just (key, counter); the counter indexes the
 * candidate's vertex, destination and stamp.  All gain arithmetic is IEEE
 * double in the same operation order as the Python expressions (no
 * -ffast-math, no FMA contraction; see _klnative.py), so keys are
 * bit-identical and the chosen moves match the oracle's exactly.
 *
 * Summation-order rule: wherever the oracle reduces floats with numpy,
 * the kernel reduces in numpy's order.  ``bincount`` adds sequentially in
 * index order; ``ndarray.sum()`` is ``pairwise_sum`` below over the whole
 * array; ``np.add.reduceat`` is ``first + pairwise_sum(rest)`` per segment.
 *
 * Every kernel writes only to caller-provided output buffers.  A kernel
 * that allocates scratch returns KL_NOMEM if that failed, and one that
 * validates its input returns KL_BADARG on one it cannot take (a match
 * that is no involution, an asymmetric adjacency, p < 1); either way the
 * caller's inputs are untouched and it raises.  ``coarsen`` returns
 * KL_GROW when an output buffer is too small, and the caller grows them
 * all and calls again.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

#define KL_NOMEM (-1)  /* a scratch allocation failed */
#define KL_GROW (-2)   /* an output buffer is too small: grow, call again */
#define KL_BADARG (-3) /* an input the kernel cannot take */

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

static double now_s(void)
{
    struct timespec t;
    clock_gettime(CLOCK_MONOTONIC, &t);
    return (double)t.tv_sec + 1e-9 * (double)t.tv_nsec;
}

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

/* np.bincount(asg, weights=vw, minlength=p): sequential, index order */
static void part_weights(int64_t n, int64_t p, const int64_t *asg,
                         const double *vw, double *w)
{
    int64_t v, s;
    for (s = 0; s < p; s++)
        w[s] = 0.0;
    for (v = 0; v < n; v++)
        w[asg[v]] += vw[v];
}

/* ------------------------------------------------------------------ */
/* numpy's PCG64 (XSL-RR 128/64), Generator.permutation and .integers  */
/* ------------------------------------------------------------------ */

typedef struct {
    uint64_t hi, lo, inc_hi, inc_lo;
    int has32;
    uint32_t buf32;
} pcg64;

#define PCG_MULT_HI 2549297995355413924ULL
#define PCG_MULT_LO 4865540595714422341ULL

static uint64_t mulhi64(uint64_t a, uint64_t b)
{
    uint64_t a0 = (uint32_t)a, a1 = a >> 32, b0 = (uint32_t)b, b1 = b >> 32;
    uint64_t p00 = a0 * b0, p01 = a0 * b1, p10 = a1 * b0, p11 = a1 * b1;
    uint64_t mid = (p00 >> 32) + (uint32_t)p01 + (uint32_t)p10;
    return p11 + (p01 >> 32) + (p10 >> 32) + (mid >> 32);
}

/* state = state * MULT + inc (mod 2^128), then XSL-RR of the new state */
static uint64_t pcg_next64(pcg64 *g)
{
    uint64_t lo = g->lo * PCG_MULT_LO;
    uint64_t hi = mulhi64(g->lo, PCG_MULT_LO) + g->lo * PCG_MULT_HI +
                  g->hi * PCG_MULT_LO;
    uint64_t x;
    unsigned rot;
    g->lo = lo + g->inc_lo;
    g->hi = hi + g->inc_hi + (g->lo < lo);
    x = g->hi ^ g->lo;
    rot = (unsigned)(g->hi >> 58);
    return (x >> rot) | (x << ((64 - rot) & 63));
}

/* the low half of a 64-bit draw now, the high half on the next call */
static uint32_t pcg_next32(pcg64 *g)
{
    uint64_t next;
    if (g->has32) {
        g->has32 = 0;
        return g->buf32;
    }
    next = pcg_next64(g);
    g->has32 = 1;
    g->buf32 = (uint32_t)(next >> 32);
    return (uint32_t)next;
}

/* numpy's random_interval: uniform on [0, max] by masked rejection */
static uint64_t random_interval(pcg64 *g, uint64_t max)
{
    uint64_t mask = max, value;
    if (max == 0)
        return 0;
    mask |= mask >> 1;
    mask |= mask >> 2;
    mask |= mask >> 4;
    mask |= mask >> 8;
    mask |= mask >> 16;
    mask |= mask >> 32;
    if (max <= 0xffffffffULL) {
        while ((value = (pcg_next32(g) & mask)) > max)
            ;
    } else {
        while ((value = (pcg_next64(g) & mask)) > max)
            ;
    }
    return value;
}

/* default_rng(seed).permutation(m) into ``out``, from that generator's
 * state ``st`` = (state_hi, state_lo, inc_hi, inc_lo) */
void pcg64_permutation(const uint64_t *st, int64_t m, int64_t *out)
{
    pcg64 g = {st[0], st[1], st[2], st[3], 0, 0};
    int64_t i;
    for (i = 0; i < m; i++)
        out[i] = i;
    for (i = m - 1; i > 0; i--) {
        int64_t j = (int64_t)random_interval(&g, (uint64_t)i), t = out[i];
        out[i] = out[j];
        out[j] = t;
    }
}

/* numpy's bounded draw behind Generator.integers(high) for 1 <= high <=
 * 2^32: Lemire's multiply-shift of one 32-bit draw, redrawn while the low
 * half of the product falls below the threshold that would bias it */
static int64_t random_below(pcg64 *g, int64_t high)
{
    uint32_t rng = (uint32_t)(high - 1), excl;
    uint64_t m;
    if (rng == 0)
        return 0;
    if (rng == UINT32_MAX)
        return pcg_next32(g);
    excl = rng + 1;
    m = (uint64_t)pcg_next32(g) * excl;
    if ((uint32_t)m < excl) {
        uint32_t threshold = (UINT32_MAX - rng) % excl;
        while ((uint32_t)m < threshold)
            m = (uint64_t)pcg_next32(g) * excl;
    }
    return (int64_t)(m >> 32);
}

/* out[k] = default_rng(seed).integers(highs[k]) for k < count, drawn in
 * turn from one generator started at ``st`` (as pcg64_permutation's) */
void pcg64_integers(const uint64_t *st, int64_t count, const int64_t *highs,
                    int64_t *out)
{
    pcg64 g = {st[0], st[1], st[2], st[3], 0, 0};
    int64_t k;
    for (k = 0; k < count; k++)
        out[k] = random_below(&g, highs[k]);
}

/* ------------------------------------------------------------------ */
/* heavy-edge matching: one greedy scan in descending rank             */
/* ------------------------------------------------------------------ */

/* ``order`` lists the m candidate edges (es[e], ed[e]) by ascending
 * priority; ``match`` receives the involution (unmatched: itself).
 * Returns the number of matched vertices. */
int64_t hem_match(int64_t n, int64_t m, const int64_t *es, const int64_t *ed,
                  const int64_t *order, int64_t *match)
{
    int64_t t, v, matched = 0;
    for (v = 0; v < n; v++)
        match[v] = -1;
    for (t = m - 1; t >= 0; t--) {
        int64_t e = order[t], a = es[e], b = ed[e];
        if (match[a] < 0 && match[b] < 0) {
            match[a] = b;
            match[b] = a;
            matched += 2;
        }
    }
    for (v = 0; v < n; v++)
        if (match[v] < 0)
            match[v] = v;
    return matched;
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

/* Collapse ``match`` into cmap[n], cvw[nc], cxadj[nc+1] and at most
 * ``cap_e`` entries of cadj/cew (coarse CSR, rows and neighbours
 * ascending — exactly what WeightedGraph.from_edges emits for the
 * oracle's edge list, parallel edges summed in reduceat's order: the
 * entries of the *lower* coarse endpoint's fine rows, in CSR order).
 * Returns the number of coarse vertices; KL_BADARG if ``match`` is not
 * an involution or the adjacency is asymmetric, KL_NOMEM if an allocation
 * failed, KL_GROW if the coarse CSR needs more than ``cap_e`` entries. */
static int64_t contract_into(int64_t n, const int64_t *xadj,
                             const int64_t *adjncy, const double *ewts,
                             const double *vwts, const int64_t *match,
                             int64_t *cmap, double *cvw, int64_t *cxadj,
                             int64_t *cadj, double *cew, int64_t cap_e)
{
    int64_t nnz = xadj[n], nc = 0, nf = 0, nfmax = nnz / 2 + 1, v, c, t, k;
    int64_t *ibuf = NULL, *owner, *frow, *fcol, *slot, *stamp, *pos;
    int64_t *gcol, *gcnt, *goff, *tcol;
    double *dbuf = NULL, *fw, *tw, *buf;
    int64_t maxrow = 0, status = KL_NOMEM;

    for (v = 0; v < n; v++)
        if (match[v] < 0 || match[v] >= n || match[match[v]] != v)
            return KL_BADARG;

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
        if (2 * (nf + ng) > nnz) {
            status = KL_BADARG; /* asymmetric adjacency: would overrun cadj/cew */
            goto done;
        }
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
    if (2 * nf > cap_e) {
        status = KL_GROW;
        goto done;
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

/* Outputs: cmap[n], cvw[n] (coarse vertex weights), cxadj[n+1] and
 * cadj/cew[nnz]; returns the number of coarse vertices, KL_BADARG or
 * KL_NOMEM. */
int64_t contract(int64_t n, const int64_t *xadj, const int64_t *adjncy,
                 const double *ewts, const double *vwts, const int64_t *match,
                 int64_t *cmap, double *cvw, int64_t *cxadj, int64_t *cadj,
                 double *cew)
{
    return contract_into(n, xadj, adjncy, ewts, vwts, match, cmap, cvw,
                         cxadj, cadj, cew, xadj[n]);
}

/* ------------------------------------------------------------------ */
/* coarsen: every level of build_hierarchy in one call                 */
/* ------------------------------------------------------------------ */

typedef struct {
    double w;  /* candidate edge weight */
    int64_t e; /* candidate edge index */
} witem;

/* numpy's float order: NaN sorts after every number */
static inline int w_lt(double a, double b)
{
    return a < b || (b != b && a == a);
}

/* Stable sort of ``a`` by weight (insertion-sorted runs of 16, then
 * bottom-up merges); returns whichever of ``a`` / ``tmp`` holds the
 * result. */
static witem *stable_sort(witem *a, witem *tmp, int64_t n)
{
    int64_t i, j, width;
    for (i = 0; i < n; i += 16) {
        int64_t hi = i + 16 < n ? i + 16 : n;
        for (j = i + 1; j < hi; j++) {
            witem x = a[j];
            int64_t k = j;
            while (k > i && w_lt(x.w, a[k - 1].w)) {
                a[k] = a[k - 1];
                k--;
            }
            a[k] = x;
        }
    }
    for (width = 16; width < n; width *= 2) {
        witem *sw;
        for (i = 0; i < n; i += 2 * width) {
            int64_t mid = i + width < n ? i + width : n;
            int64_t hi = i + 2 * width < n ? i + 2 * width : n;
            int64_t l = i, r = mid, k = i;
            while (l < mid && r < hi)
                tmp[k++] = w_lt(a[r].w, a[l].w) ? a[r++] : a[l++];
            while (l < mid)
                tmp[k++] = a[l++];
            while (r < hi)
                tmp[k++] = a[r++];
        }
        sw = a;
        a = tmp;
        tmp = sw;
    }
    return a;
}

/* Stable counting sort of ``a`` by weight into ``out`` when every weight
 * is an integer in [0, range) — dual-graph weights count shared facets —
 * which is the comparison sort's order in linear time; ``count`` holds
 * range + 1 entries.  Returns NULL (``out`` untouched) otherwise. */
static witem *counting_sort(const witem *a, witem *out, int64_t n,
                            int64_t *count, int64_t range)
{
    int64_t i, top = 0;
    for (i = 0; i < n; i++) {
        double x = a[i].w;
        if (!(x >= 0.0 && x < (double)range) || x != (double)(int64_t)x)
            return NULL;
        if ((int64_t)x > top)
            top = (int64_t)x;
    }
    memset(count, 0, (size_t)(top + 2) * sizeof(int64_t));
    for (i = 0; i < n; i++)
        count[(int64_t)a[i].w + 1]++;
    for (i = 1; i <= top; i++) /* count[w]: first slot of weight w */
        count[i] += count[i - 1];
    for (i = 0; i < n; i++)
        out[count[(int64_t)a[i].w]++] = a[i];
    return out;
}

/* One heavy_edge_matching on the graph (n, xadj, adjncy, ewts) with the
 * constraint ``label`` (NULL: none) and the tie order of the generator
 * state ``st``; returns the number of matched vertices.  ``es``/``ed``/
 * ``tie``/``count`` hold at least xadj[n] entries (``count`` one more),
 * ``items``/``tmp`` too. */
static int64_t hem_level(int64_t n, const int64_t *xadj, const int64_t *adjncy,
                         const double *ewts, const int64_t *label,
                         const uint64_t *st, int64_t *es, int64_t *ed,
                         int64_t *tie, int64_t *count, witem *items,
                         witem *tmp, int64_t *match)
{
    int64_t m = 0, v, t, k;
    witem *sorted;
    /* _candidate_edges: each undirected edge once, in CSR order */
    for (v = 0; v < n; v++)
        for (t = xadj[v]; t < xadj[v + 1]; t++) {
            int64_t u = adjncy[t];
            if (v < u && (!label || label[v] == label[u])) {
                es[m] = v;
                ed[m] = u;
                items[m].w = ewts[t]; /* staged: ew[e] */
                m++;
            }
        }
    /* the edges laid out in tie order, stable-sorted by weight */
    pcg64_permutation(st, m, tie);
    for (k = 0; k < m; k++)
        tmp[tie[k]].e = k; /* by_tie */
    for (k = 0; k < m; k++)
        tmp[k].w = items[tmp[k].e].w;
    sorted = counting_sort(tmp, items, m, count, xadj[n] + 1);
    if (!sorted)
        sorted = stable_sort(tmp, items, m);
    for (k = 0; k < m; k++)
        tie[k] = sorted[k].e; /* order */
    return hem_match(n, m, es, ed, tie, match);
}

/* build_hierarchy(graph, coarsen_to, seed, home, constrain) with its loop
 * bounds ``max_levels`` / ``min_shrink``.  ``states`` holds the PCG64
 * state of default_rng(seed + l) for l < nstates (4 words each).
 *
 * Outputs, level-concatenated (level 0 is the input and is not copied):
 * nv/ne[l] vertex and CSR-entry counts per level; the CSR of levels 1, 2,
 * … back to back in cxadj (n_l + 1 entries each; capacity cap_v +
 * max_levels), cadj/cew (capacity cap_e) and cvw (capacity cap_v); cmap
 * the maps of levels 0, 1, … (capacity n + cap_v); chome the projected
 * home of levels 1, 2, … (capacity cap_v; unused without ``home``).
 * ``stats`` receives (matchings tried, levels built, seconds matching,
 * seconds contracting).  Returns the number of levels including level 0,
 * KL_NOMEM, KL_BADARG (fewer ``states`` than levels to build), or
 * KL_GROW. */
int64_t coarsen(int64_t n, const int64_t *xadj, const int64_t *adjncy,
                const double *ewts, const double *vwts, const int64_t *home,
                int64_t constrain, int64_t coarsen_to, int64_t max_levels,
                double min_shrink, const uint64_t *states, int64_t nstates,
                int64_t cap_v, int64_t cap_e, int64_t *nv, int64_t *ne,
                int64_t *cxadj, int64_t *cadj, double *cew, double *cvw,
                int64_t *cmap, int64_t *chome, double *stats)
{
    int64_t nnz0 = xadj[n], levels = 1, tried = 0, status = KL_NOMEM;
    int64_t voff = 0, xoff = 0, eoff = 0, moff = 0;
    const int64_t *X = xadj, *A = adjncy, *H = home;
    const double *EW = ewts, *VW = vwts;
    int64_t *ibuf = NULL, *es, *ed, *tie, *count, *match;
    witem *wbuf = NULL;
    double t_hem = 0.0, t_con = 0.0;

    nv[0] = n;
    ne[0] = nnz0;
    ibuf = ALLOC(int64_t, 4 * nnz0 + 2 + n);
    wbuf = ALLOC(witem, 2 * nnz0);
    if (!ibuf || !wbuf)
        goto done;
    es = ibuf;
    ed = es + nnz0;
    tie = ed + nnz0;
    count = tie + nnz0;
    match = count + nnz0 + 2;

    while (nv[levels - 1] > coarsen_to && levels - 1 < max_levels) {
        int64_t l = levels - 1, nl = nv[l], nc, matched, v;
        double t0 = now_s(), t1;
        if (l >= nstates) {
            status = KL_BADARG;
            goto done;
        }
        matched = hem_level(nl, X, A, EW, constrain ? H : NULL, states + 4 * l,
                            es, ed, tie, count, wbuf, wbuf + nnz0, match);
        tried++;
        t1 = now_s();
        t_hem += t1 - t0;
        /* every matched pair removes one vertex: decide before contracting */
        nc = nl - matched / 2;
        if ((double)nc >= (double)nl * min_shrink)
            break;
        if (voff + nc > cap_v) {
            status = KL_GROW;
            goto done;
        }
        nc = contract_into(nl, X, A, EW, VW, match, cmap + moff, cvw + voff,
                           cxadj + xoff, cadj + eoff, cew + eoff, cap_e - eoff);
        if (nc < 0) {
            status = nc;
            goto done;
        }
        if (H) {
            const int64_t *cm = cmap + moff;
            int64_t *dst = chome + voff;
            if (constrain) {
                for (v = 0; v < nl; v++)
                    dst[cm[v]] = H[v]; /* all constituents agree */
            } else {
                /* _project_down: the heavier constituent's subset, ties to
                 * the lower-indexed one */
                for (v = 0; v < nl; v++) {
                    int64_t f2 = match[v], s1, s2;
                    if (v > f2)
                        continue;
                    s1 = H[v];
                    s2 = H[f2];
                    dst[cm[v]] = (s2 != s1 && VW[f2] > VW[v]) ? s2 : s1;
                }
            }
        }
        t_con += now_s() - t1;
        nv[levels] = nc;
        ne[levels] = cxadj[xoff + nc];
        X = cxadj + xoff;
        A = cadj + eoff;
        EW = cew + eoff;
        VW = cvw + voff;
        H = H ? chome + voff : NULL;
        moff += nl;
        xoff += nc + 1;
        eoff += ne[levels];
        voff += nc;
        levels++;
    }
    stats[0] = (double)tried;
    stats[1] = (double)(levels - 1);
    stats[2] = t_hem;
    stats[3] = t_con;
    status = levels;

done:
    free(ibuf);
    free(wbuf);
    return status;
}

/* ------------------------------------------------------------------ */
/* KL refinement                                                       */
/* ------------------------------------------------------------------ */

/* What a heap orders: 16 bytes.  The rest of the candidate sits in the
 * pass's table (cand) at index ``k``, its unique push counter. */
typedef struct {
    uint64_t key; /* key_of(-static_gain): min-heap top = best candidate */
    int64_t k;    /* push counter: total order, heapq-compatible */
} entry;

/* A float key as an integer that orders like it: the sign bit flipped on
 * numbers >= 0, every bit on negative ones.  -0.0 first becomes 0.0, which
 * it equals; no key is NaN (weights are finite). */
static inline uint64_t key_of(double x)
{
    uint64_t u;
    x += 0.0;
    memcpy(&u, &x, sizeof u);
    return u >> 63 ? ~u : u | (1ULL << 63);
}

static inline double key_value(uint64_t key)
{
    double x;
    key = key >> 63 ? key & ~(1ULL << 63) : ~key;
    memcpy(&x, &key, sizeof x);
    return x;
}

typedef struct {
    int32_t v;  /* vertex (klws_init refuses n >= 2^31) */
    int32_t j;  /* destination subset */
    int64_t s;  /* generation stamp at push time */
} cand;

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

/* strict "less" on (key, counter) — the tuple order heapq sees — as one
 * 128-bit comparison, without the branches a heap's comparisons of random
 * keys would mispredict */
static inline int entry_lt(const entry *x, const entry *y)
{
    return (((unsigned __int128)x->key << 64) | (uint64_t)x->k) <
           (((unsigned __int128)y->key << 64) | (uint64_t)y->k);
}

/* the least of the children a[c], ..., a[min(c + 4, n) - 1]: a full set
 * as two pairs, then their winners */
static inline int64_t least_child(const entry *a, int64_t c, int64_t n)
{
    int64_t m = c, x, y;
    if (c + 4 <= n) {
        x = c + entry_lt(&a[c + 1], &a[c]);
        y = c + 2 + entry_lt(&a[c + 3], &a[c + 2]);
        return entry_lt(&a[y], &a[x]) ? y : x;
    }
    for (x = c + 1; x < n; x++)
        if (entry_lt(&a[x], &a[m]))
            m = x;
    return m;
}

/* A 4-ary min-heap: half the levels of a binary one, and pushes (twice as
 * many as pops in a KL pass) sift up through fewer of them. */
static void sift_down(entry *a, int64_t n, int64_t i)
{
    entry t = a[i];
    for (;;) {
        int64_t m;
        if (4 * i + 1 >= n)
            break;
        m = least_child(a, 4 * i + 1, n);
        if (!entry_lt(&a[m], &t))
            break;
        a[i] = a[m];
        i = m;
    }
    a[i] = t;
}

static void sift_up(entry *a, int64_t i)
{
    entry t = a[i];
    while (i > 0) {
        int64_t par = (i - 1) / 4;
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

/* Bottom-up pop: the hole left at the root descends along the least
 * children to a leaf without comparing against the last entry, which then
 * sifts up from there (it belongs near the bottom). */
static entry heap_pop(vec *h)
{
    entry *a = h->a, top = a[0], last;
    int64_t n = --h->len, i = 0;
    if (n == 0)
        return top;
    last = a[n];
    for (;;) {
        int64_t m;
        if (4 * i + 1 >= n)
            break;
        m = least_child(a, 4 * i + 1, n);
        a[i] = a[m];
        i = m;
    }
    while (i > 0) {
        int64_t par = (i - 1) / 4;
        if (!entry_lt(&last, &a[par]))
            break;
        a[i] = a[par];
        i = par;
    }
    a[i] = last;
    return top;
}

/* One kl_refine call's problem (graph, configuration, balance bounds) and
 * a workspace sized for the largest graph it will see.  The workspace
 * outlives the call — ``refine`` binds every level to one — and is reset
 * by touched lists (move log, row stamps against a pass counter that only
 * grows), never by clearing O(n*p) memory. */
typedef struct {
    int64_t n, p;
    const int64_t *xadj, *adjncy, *hom;
    const double *ewts, *vw;
    double alpha, beta, mean, maxcap, floor_w, min_gain;
    int64_t deadband, window_n, stall_limit, in_band_tail;
    int64_t moves, kept; /* over all passes: moves applied, moves not rolled back */

    int64_t *asg;     /* n: the live assignment */
    int64_t *best;    /* n: the best assignment seen */
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
    cand *tab;             /* the pass's candidates, by push counter */
    int64_t ncand, tabcap;
    double *sumbuf; /* max(nnz, n, p): operand gather of exact reductions */

    int64_t *ibuf; /* the blocks the pointers above are carved from */
    double *dbuf;
    entry *ebuf;
    vec *vbuf;
    unsigned char *bbuf;
} klws;

static void klws_free(klws *w)
{
    int64_t s;
    free(w->heap.a);
    free(w->tab);
    for (s = 0; w->vbuf && s < 2 * w->p; s++)
        free(w->vbuf[s].a);
    free(w->ibuf);
    free(w->dbuf);
    free(w->ebuf);
    free(w->vbuf);
    free(w->bbuf);
}

/* Workspace for graphs of up to n vertices and nnz CSR entries, p parts
 * and look-ahead windows of up to wcap.  Returns -1 if an allocation
 * failed (klws_free is still due). */
static int klws_init(klws *w, int64_t n, int64_t nnz, int64_t p, int64_t wcap)
{
    int64_t sumcap = nnz > n ? nnz : n;
    if (sumcap < p)
        sumcap = p;
    if (wcap < 1)
        wcap = 1;
    memset(w, 0, sizeof(*w));
    w->p = p;
    if (n > INT32_MAX || p > INT32_MAX)
        return -1; /* candidates hold int32 vertex and subset ids */
    w->ibuf = ALLOC(int64_t, 4 * n + n * p);
    w->dbuf = ALLOC(double, p + n * p + wcap + sumcap);
    w->ebuf = ALLOC(entry, 2 * wcap);
    w->vbuf = ALLOC(vec, 2 * p);
    w->bbuf = ALLOC(unsigned char, n + p);
    if (w->vbuf) /* before any exit: klws_free frees what the vectors hold */
        memset(w->vbuf, 0, (size_t)(2 * p) * sizeof(vec));
    if (!w->ibuf || !w->dbuf || !w->ebuf || !w->vbuf || !w->bbuf)
        return -1;
    w->best = w->ibuf;
    w->rowstamp = w->best + n;
    w->mv_v = w->rowstamp + n;
    w->mv_i = w->mv_v + n;
    w->gen = w->mv_i + n;
    w->wt = w->dbuf;
    w->wfull = w->wt + p;
    w->sumbuf = w->wfull + wcap;
    w->connf = w->sumbuf + sumcap;
    w->went = w->ebuf;
    w->carry = w->ebuf + wcap;
    w->def_tgt = w->vbuf;
    w->def_src = w->vbuf + p;
    w->locked = w->bbuf;
    w->over = w->bbuf + n;
    memset(w->rowstamp, 0, (size_t)n * sizeof(int64_t));
    memset(w->locked, 0, (size_t)n);
    return 0;
}

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

/* A new candidate (v, j, stamp s) keyed ``key``: its table row and heap
 * entry ``e``.  Returns -1 if the table could not grow. */
static inline int new_cand(klws *w, uint64_t key, int64_t v, int64_t j,
                           int64_t s, entry *e)
{
    int64_t k = w->ncand;
    if (k == w->tabcap) {
        int64_t nc = w->tabcap ? 2 * w->tabcap : 1024;
        cand *nt = (cand *)xrealloc(w->tab, (size_t)nc * sizeof(cand));
        if (!nt)
            return -1;
        w->tab = nt;
        w->tabcap = nc;
    }
    w->tab[k].v = (int32_t)v;
    w->tab[k].j = (int32_t)j;
    w->tab[k].s = s;
    w->ncand = k + 1;
    e->key = key;
    e->k = k;
    return 0;
}

/* graph_cut: the crossing entries in CSR order, pairwise-summed, halved
 * (gathered without a branch: every entry is written, only crossing ones
 * advance the cursor) */
static double cut_of(klws *w, const int64_t *asg)
{
    int64_t v, t, k = 0;
    double *buf = w->sumbuf;
    for (v = 0; v < w->n; v++) {
        int64_t a = asg[v];
        for (t = w->xadj[v]; t < w->xadj[v + 1]; t++) {
            buf[k] = w->ewts[t];
            k += asg[w->adjncy[t]] != a;
        }
    }
    return pairwise_sum(buf, k) / 2.0;
}

/* graph_migration: float(vwts[moved].sum()) */
static double migration_of(klws *w, const int64_t *asg, const int64_t *hom)
{
    int64_t v, k = 0;
    for (v = 0; v < w->n; v++) {
        w->sumbuf[k] = w->vw[v];
        k += asg[v] != hom[v];
    }
    return pairwise_sum(w->sumbuf, k);
}

/* _KLState.objective(): C_cut + alpha*C_migrate + beta*sum(phi(W_i)),
 * each reduction in numpy's order */
static double objective(klws *w)
{
    int64_t p = w->p, s;
    double *buf = w->sumbuf, obj;
    obj = cut_of(w, w->asg);
    if (w->alpha != 0.0)
        obj += w->alpha * migration_of(w, w->asg, w->hom);
    if (w->beta != 0.0) {
        double *sw = w->wt; /* scratch between passes */
        part_weights(w->n, p, w->asg, w->vw, sw);
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
    int64_t nmoves = 0, best_len = 0, ncarry = 0, wlen, t, v, s;
    int64_t light0 = -1, any_over = 0;
    int status = -1;

    w->pass++;
    w->ncand = 0;
    heap->len = 0;
    for (s = 0; s < p; s++) {
        w->def_tgt[s].len = 0;
        w->def_src[s].len = 0;
    }
    part_weights(n, p, asg, vw, wt);
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
            entry e;
            if (j == i || !(cw > 0.0 || j == light0))
                continue;
            g = cw - connf[vb + i];
            if (alpha != 0.0) {
                int64_t hh = hom[v];
                g = g - (alpha * vw[v]) *
                            ((double)(j != hh) - (double)(i != hh));
            }
            gen[vb + j] = 1;
            if (new_cand(w, key_of(-g), v, j, 1, &e) || vec_push(heap, e))
                goto done;
        }
    }
    for (t = heap->len > 1 ? (heap->len - 2) / 4 : -1; t >= 0; t--)
        sift_down(heap->a, heap->len, t); /* from the last parent */

/* re-stamp destination JT of u after its gain changed (kl.py `touch`) */
#define TOUCH(JT)                                                        \
    do {                                                                 \
        int64_t idx_ = ub + (JT);                                        \
        double cw_ = connf[idx_];                                        \
        if (cw_ > 0.0 || (JT) == light) {                                \
            double g_ = cw_ - base;                                      \
            int64_t s_;                                                  \
            entry ne_;                                                   \
            if (alpha != 0.0) {                                          \
                int64_t hu_ = hom[u];                                    \
                double t1_ = ((JT) != hu_) ? alpha * vw[u] : 0.0;        \
                double t2_ = (au != hu_) ? alpha * vw[u] : 0.0;          \
                g_ -= (t1_ - t2_);                                       \
            }                                                            \
            s_ = gen[idx_] + 1;                                          \
            gen[idx_] = s_;                                              \
            if (new_cand(w, key_of(-g_), u, (JT), s_, &ne_) ||           \
                heap_push(heap, ne_))                                    \
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
            entry le_ = dv_->a[t], ne_;                                  \
            cand c_ = w->tab[le_.k];                                     \
            int64_t idx_ = c_.v * p + c_.j;                              \
            if (locked[c_.v] || gen[idx_] != c_.s)                       \
                continue; /* superseded (dedups the twin listing) */     \
            gen[idx_] = c_.s + 1;                                        \
            if (new_cand(w, le_.key, c_.v, c_.j, c_.s + 1, &ne_) ||      \
                heap_push(heap, ne_))                                    \
                goto done;                                               \
        }                                                                \
        dv_->len = 0;                                                    \
    } while (0)

    /* The oracle pops up to `window` valid candidates per move, takes
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
            cand c;
            int64_t j, i;
            double wv, wj_after, full, Wi, Wj, bg, d;
            if (ci < ncarry &&
                (heap->len == 0 || entry_lt(&w->carry[ci], &heap->a[0])))
                e = w->carry[ci++];
            else if (heap->len > 0)
                e = heap_pop(heap);
            else
                break;
            c = w->tab[e.k];
            v = c.v;
            if (locked[v])
                continue;
            j = c.j;
            if (gen[v * p + j] != c.s)
                continue; /* stale: superseded by a fresher entry */
            i = asg[v];
            wv = vw[v];
            wj_after = wt[j] + wv;
            if (!(wj_after <= maxcap || wj_after <= wt[i])) {
                if (vec_push(&w->def_tgt[j], e) || vec_push(&w->def_src[i], e))
                    goto done;
                continue;
            }
            full = -key_value(e.key);
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
            for (t = 1; t < wlen; t++)
                if (w->wfull[t] > bf) {
                    bf = w->wfull[t];
                    best_t = t;
                }
            full = w->wfull[best_t];
            v = w->tab[w->went[best_t].k].v;
            j = w->tab[w->went[best_t].k].j;
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

/* kl.py: the pass loop of kl_refine with its monotone-or-rollback guard,
 * on the problem bound to ``w``; ``w->asg`` holds the start assignment and
 * receives the result.  ``stats`` receives (passes run, seconds inside
 * them, best objective seen — the returned partition's unless a tie kept a
 * later one —, moves tried, moves kept).  Returns 0, or -1 if an
 * allocation failed (``w->asg`` is then unspecified). */
static int kl_run(klws *w, int64_t max_passes, double *stats)
{
    int64_t n = w->n, passes = 0, it;
    double best_obj, obj, seconds = 0.0;

    w->moves = w->kept = 0;
    /* Track the best-seen partition under the *full* objective: a pass
     * whose bookkeeping drifts, or a later pass that trades away an
     * earlier gain, can never make the result worse than the best state
     * ever reached — in particular never worse than the input. */
    memcpy(w->best, w->asg, (size_t)n * sizeof(int64_t));
    best_obj = obj = objective(w);
    for (it = 0; it < max_passes; it++) {
        double improved, t0 = now_s();
        int64_t kept_before = w->kept;
        if (kl_pass(w, &improved))
            return -1;
        seconds += now_s() - t0;
        passes++;
        if (w->kept != kept_before) /* else rolled back to the same state */
            obj = objective(w);
        if (obj < best_obj - w->min_gain) {
            best_obj = obj;
            memcpy(w->best, w->asg, (size_t)n * sizeof(int64_t));
        }
        if (improved <= w->min_gain)
            break;
    }
    if (obj > best_obj + w->min_gain)
        memcpy(w->asg, w->best, (size_t)n * sizeof(int64_t));
    stats[0] = (double)passes;
    stats[1] = seconds;
    stats[2] = best_obj;
    stats[3] = (double)w->moves;
    stats[4] = (double)w->kept;
    return 0;
}

static void bind_graph(klws *w, int64_t n, const int64_t *xadj,
                       const int64_t *adjncy, const double *ewts,
                       const double *vw)
{
    w->n = n;
    w->xadj = xadj;
    w->adjncy = adjncy;
    w->ewts = ewts;
    w->vw = vw;
}

/* ``asg`` holds the start assignment and receives the result (pass a
 * copy: after a failed allocation, KL_NOMEM, it is unspecified); ``stats`` as
 * kl_run's.  ``mean``/``maxcap``/``floor_w`` are _KLState's. */
int64_t kl_refine(int64_t n, int64_t p, const int64_t *xadj,
                  const int64_t *adjncy, const double *ewts, const double *vw,
                  const int64_t *hom, double alpha, double beta,
                  int64_t deadband, double mean, double maxcap,
                  double floor_w, int64_t window_n, int64_t stall_limit,
                  int64_t in_band_tail, double min_gain, int64_t max_passes,
                  int64_t *asg, double *stats)
{
    klws w;
    int64_t status = KL_NOMEM;
    if (klws_init(&w, n, xadj[n], p, window_n) == 0) {
        bind_graph(&w, n, xadj, adjncy, ewts, vw);
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
        status = kl_run(&w, max_passes, stats);
    }
    klws_free(&w);
    return status;
}

/* ------------------------------------------------------------------ */
/* greedy graph growing: the coarsest assignment from scratch          */
/* ------------------------------------------------------------------ */

/* The first vertex of the last level of a breadth-first search from
 * ``from`` over the unassigned vertices (asg -1), neighbours in CSR order;
 * ``seen`` is stamped with ``mark``, ``q`` holds n. */
static int64_t bfs_last(const int64_t *xadj, const int64_t *adjncy,
                        const int64_t *asg, int64_t from, int64_t *seen,
                        int64_t mark, int64_t *q)
{
    int64_t lo = 0, hi = 1, tail = 1, last = from, k, t;
    q[0] = from;
    seen[from] = mark;
    while (lo < hi) {
        for (k = lo; k < hi; k++)
            for (t = xadj[q[k]]; t < xadj[q[k] + 1]; t++) {
                int64_t u = adjncy[t];
                if (asg[u] == -1 && seen[u] != mark) {
                    seen[u] = mark;
                    q[tail++] = u;
                }
            }
        if (tail > hi)
            last = q[hi];
        lo = hi;
        hi = tail;
    }
    return last;
}

/* greedy_graph_growing(graph, p, seed, targets) (tests/_kl_oracle.py)
 * into asg[n].  Subsets 0 .. p-2 grow in turn from a pseudo-peripheral
 * unassigned vertex (two sweeps from one drawn with Generator.integers),
 * best first in heapq's (-gain, vertex) order, until they reach their
 * target — skipping a vertex that would overshoot it by a quarter — and
 * whatever is left goes to subset p-1.  ``st`` is default_rng(seed)'s
 * state; ``targets`` NULL means W/p each.  Returns 0, KL_NOMEM with
 * ``asg`` untouched, or KL_BADARG (p < 1, n >= 2^31). */
int64_t grow(int64_t n, const int64_t *xadj, const int64_t *adjncy,
             const double *ewts, const double *vwts, int64_t p,
             const uint64_t *st, const double *targets, int64_t *asg)
{
    pcg64 g = {st[0], st[1], st[2], st[3], 0, 0};
    int64_t *ibuf, *seen, *q, *gpart, part, v, t, nrem = n, mark = 0;
    double *gain, even;
    vec heap = {NULL, 0, xadj[n] + 1};
    if (p < 1 || n > INT32_MAX)
        return KL_BADARG;
    if (p == 1 || n == 0) {
        for (v = 0; v < n; v++)
            asg[v] = 0;
        return 0;
    }
    ibuf = ALLOC(int64_t, 3 * n);
    gain = ALLOC(double, n);
    heap.a = ALLOC(entry, heap.cap);
    if (!ibuf || !gain || !heap.a) {
        free(ibuf);
        free(gain);
        free(heap.a);
        return KL_NOMEM;
    }
    seen = ibuf;
    q = seen + n;
    gpart = q + n; /* the part whose growth set gain[v] */
    for (v = 0; v < n; v++) {
        asg[v] = -1;
        seen[v] = -1;
        gpart[v] = -1;
    }
    even = targets ? 0.0 : pairwise_sum(vwts, n) / (double)p;
    for (part = 0; part < p - 1 && nrem > 0; part++) {
        double target = targets ? targets[part] : even, wpart = 0.0;
        int64_t r = random_below(&g, nrem), far, got = 0;
        for (far = 0; asg[far] != -1 || r-- > 0; far++)
            ; /* the r-th unassigned vertex */
        far = bfs_last(xadj, adjncy, asg, far, seen, mark++, q);
        far = bfs_last(xadj, adjncy, asg, far, seen, mark++, q);
        heap.len = 0;
        heap.a[heap.len++] = (entry){key_of(-0.0), far};
        while (heap.len > 0 && wpart < target) {
            v = heap_pop(&heap).k;
            if (asg[v] != -1)
                continue;
            /* stop growing rather than badly overshoot on a heavy vertex */
            if (wpart > 0.0 && wpart + vwts[v] > target * 1.25)
                continue;
            asg[v] = part;
            wpart += vwts[v];
            got++;
            nrem--;
            for (t = xadj[v]; t < xadj[v + 1]; t++) {
                int64_t u = adjncy[t];
                if (asg[u] == -1) {
                    gain[u] = (gpart[u] == part ? gain[u] : 0.0) + ewts[t];
                    gpart[u] = part;
                    /* fits: a part pushes at most nnz + 1 */
                    heap_push(&heap, (entry){key_of(-gain[u]), u});
                }
            }
        }
        if (!got) { /* target too small for any vertex: the seed anyway */
            asg[far] = part;
            nrem--;
        }
    }
    for (v = 0; v < n; v++)
        if (asg[v] == -1)
            asg[v] = p - 1;
    free(ibuf);
    free(gain);
    free(heap.a);
    return 0;
}

/* ------------------------------------------------------------------ */
/* refine: project and refine every level in one call                  */
/* ------------------------------------------------------------------ */

/* one KLConfig as the wrapper packs it */
enum { C_ALPHA, C_BETA, C_TOL, C_MIN_GAIN, C_DEADBAND, C_WINDOW, C_STALL,
       C_PASSES, C_FIELDS };

/* kl_refine(graph bound to w, w->asg, p, home=hom, config=cfg): bind the
 * configuration and _KLState's bounds, then run; the counters add to acc
 * (kl_refine calls, seconds in them, passes, seconds in those, moves
 * tried, moves kept). */
static int kl_call(klws *w, const double *cfg, const int64_t *hom,
                   int64_t in_band_tail, double *acc)
{
    int64_t v, p = w->p;
    double band, wmax = 0.0, stats[5], t0 = now_s();
    part_weights(w->n, p, w->asg, w->vw, w->wt);
    w->mean = pairwise_sum(w->wt, p) / (double)p;
    for (v = 0; v < w->n; v++)
        if (v == 0 || w->vw[v] > wmax)
            wmax = w->vw[v];
    /* the envelope cannot be tighter than the vertex-weight granularity */
    band = cfg[C_TOL] * w->mean;
    if (0.5 * wmax > band)
        band = 0.5 * wmax;
    w->maxcap = w->mean + band;
    w->floor_w = w->mean - band;
    w->hom = hom;
    w->alpha = hom ? cfg[C_ALPHA] : 0.0;
    w->beta = cfg[C_BETA];
    w->min_gain = cfg[C_MIN_GAIN];
    w->deadband = (int64_t)cfg[C_DEADBAND];
    w->window_n = (int64_t)cfg[C_WINDOW];
    w->stall_limit = (int64_t)cfg[C_STALL];
    w->in_band_tail = in_band_tail;
    if (kl_run(w, (int64_t)cfg[C_PASSES], stats))
        return -1;
    acc[0] += 1.0;
    acc[1] += now_s() - t0;
    acc[2] += stats[0];
    acc[3] += stats[1];
    acc[4] += stats[3];
    acc[5] += stats[4];
    return 0;
}

/* graph_imbalance(graph bound to w, w->asg, p) */
static double imbalance_of(klws *w)
{
    int64_t s, p = w->p;
    double mean, wmax;
    part_weights(w->n, p, w->asg, w->vw, w->wt);
    mean = pairwise_sum(w->wt, p) / (double)p;
    wmax = w->wt[0];
    for (s = 1; s < p; s++)
        if (w->wt[s] > wmax)
            wmax = w->wt[s];
    return mean != 0.0 ? wmax / mean - 1.0 : 0.0;
}

/* repartition_cost(graph bound to w, hom, asg, p, alpha, beta).total */
static double eq1_cost(klws *w, const int64_t *hom, const int64_t *asg,
                       double alpha, double beta)
{
    int64_t s, p = w->p;
    double cut = cut_of(w, asg), migrate = migration_of(w, asg, hom), mean;
    part_weights(w->n, p, asg, w->vw, w->wt);
    mean = pairwise_sum(w->wt, p) / (double)p;
    for (s = 0; s < p; s++) {
        double d = w->wt[s] - mean;
        w->sumbuf[s] = d * d;
    }
    return cut + alpha * migrate + beta * pairwise_sum(w->sumbuf, p);
}

/* The project-and-refine half of the V-cycle over a hierarchy ``coarsen``
 * built (nlev levels; level 0 is the graph xadj/adjncy/ewts/vwts, the rest
 * the level-concatenated outputs).  The coarsest level starts from
 * greedy growing with the generator state ``grow_state`` or, when that is
 * NULL, from its home.
 *
 * Without ``home`` (multilevel_partition), each level runs cfgs[0] if
 * graph_imbalance exceeds ``rebalance_above`` and then cfgs[1].  With it
 * (multilevel_repartition), each level runs cfgs[0] against the level's
 * home (``home`` on level 0, ``chome`` above), and the result must not
 * score worse under Equation 1 (cfgs[0]'s alpha and beta) than ``home``
 * itself, else ``out`` receives ``home``.  ``stats`` receives the KL
 * counters of kl_call.  Returns 0, KL_NOMEM (an allocation failed) or
 * KL_BADARG (``p`` < 1, or neither a grow state nor a home). */
int64_t refine(int64_t nlev, const int64_t *nv, const int64_t *ne,
               const int64_t *xadj, const int64_t *adjncy, const double *ewts,
               const double *vwts, const int64_t *cxadj, const int64_t *cadj,
               const double *cew, const double *cvw, const int64_t *cmap,
               const int64_t *home, const int64_t *chome, int64_t p,
               const double *cfgs, int64_t ncfg, double rebalance_above,
               int64_t in_band_tail, const uint64_t *grow_state,
               int64_t *out, double *stats)
{
    int64_t n0 = nv[0], top = nlev - 1, l, v, k, wcap = 1, status = KL_NOMEM;
    int64_t *off = NULL, *cur, *nxt, *sw;
    klws w;

    memset(&w, 0, sizeof(w));
    if (p < 1 || (!grow_state && !home))
        return KL_BADARG;
    for (k = 0; k < ncfg; k++)
        if ((int64_t)cfgs[k * C_FIELDS + C_WINDOW] > wcap)
            wcap = (int64_t)cfgs[k * C_FIELDS + C_WINDOW];
    /* per level: first vertex, first CSR entry, first cmap entry */
    off = ALLOC(int64_t, 3 * nlev + 2 * n0);
    if (!off || klws_init(&w, n0, ne[0], p, wcap))
        goto done;
    for (l = 1; l < nlev; l++) {
        off[l] = l > 1 ? off[l - 1] + nv[l - 1] : 0;
        off[nlev + l] = l > 1 ? off[nlev + l - 1] + ne[l - 1] : 0;
    }
    for (l = 0; l < nlev; l++)
        off[2 * nlev + l] = l ? off[2 * nlev + l - 1] + nv[l - 1] : 0;
    cur = off + 3 * nlev;
    nxt = cur + n0;
    for (k = 0; k < 6; k++)
        stats[k] = 0.0;

    for (l = top; l >= 0; l--) {
        const int64_t *hom = NULL;
        if (l < top) {
            const int64_t *cm = cmap + off[2 * nlev + l];
            for (v = 0; v < nv[l]; v++)
                nxt[v] = cur[cm[v]];
            sw = cur;
            cur = nxt;
            nxt = sw;
        }
        if (l == 0) {
            bind_graph(&w, n0, xadj, adjncy, ewts, vwts);
            hom = home;
        } else {
            int64_t vo = off[l], eo = off[nlev + l];
            bind_graph(&w, nv[l], cxadj + vo + (l - 1), cadj + eo, cew + eo,
                       cvw + vo);
            hom = home ? chome + vo : NULL;
        }
        if (l == top) { /* the coarsest assignment */
            if (!grow_state)
                memcpy(cur, hom, (size_t)w.n * sizeof(int64_t));
            else if (grow(w.n, w.xadj, w.adjncy, w.ewts, w.vw, p, grow_state,
                          NULL, cur))
                goto done; /* KL_NOMEM: n and p passed klws_init */
        }
        w.asg = cur;
        if (home) {
            if (kl_call(&w, cfgs, hom, in_band_tail, stats))
                goto done;
        } else {
            if (ncfg > 1 && imbalance_of(&w) > rebalance_above &&
                kl_call(&w, cfgs, NULL, in_band_tail, stats))
                goto done;
            if (kl_call(&w, cfgs + C_FIELDS * (ncfg - 1), NULL, in_band_tail,
                        stats))
                goto done;
        }
    }
    /* monotone-or-rollback: identity is always a candidate */
    if (home && eq1_cost(&w, home, cur, cfgs[C_ALPHA], cfgs[C_BETA]) >
                    eq1_cost(&w, home, home, cfgs[C_ALPHA], cfgs[C_BETA]) + 1e-9)
        cur = (int64_t *)home;
    memcpy(out, cur, (size_t)n0 * sizeof(int64_t));
    status = 0;

done:
    klws_free(&w);
    free(off);
    return status;
}
