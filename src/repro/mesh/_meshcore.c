/* Compiled core of the 2-D mesh kernel: the whole Rivara wave loop of
 * repro.mesh.rivara2d.refine2d in one call, and the adjacency stitch that
 * refinement and coarsening (TriMesh._merge_many) end in.  It is the only
 * implementation the package runs; the numpy code it replaced is its
 * oracle in tests/_mesh_oracle.py:
 *
 *   refine2d  ~ the numpy wave loop refine2d: TriMesh.lepp_next,
 *               bisect_many, midpoints, _split_many,
 *               RefinementForest.split_many, _grow_adjacency, _stitch_py
 *   stitch    ~ _stitch_py
 *
 * and both must leave every array *id for id* as the oracle leaves it
 * (tests/test_mesh_native.py).
 *
 * Determinism contract
 * --------------------
 * A wave is a function of the set of remaining LEAF targets: walk every
 * target's longest-edge path to its terminal pair, then bisect the union
 * of terminal pairs in ascending id order.  Fresh children take
 * consecutive id pairs in that order (INACTIVE children are reactivated
 * instead), missing midpoints are created in ascending edge-key order as
 * 0.5 * (a + b) per coordinate, and the longest-edge rule of new cells is
 * TriMesh._longest_local's, operation for operation (no -ffast-math, no
 * FMA contraction; see repro/_native.py).  The stitch pairs equal edge keys;
 * on a conformal mesh a key occurs at most twice among the slots it
 * rewrites, so the pairing does not depend on the order keys are visited.
 *
 * Storage is the Python side's: the growable arrays of the forest, the
 * cells, vertices, _nbr / _le / _ekey and the midpoint IntMap, passed with
 * their capacities.  A wave is planned read-only (walk, guards, midpoint
 * lookups) and applied only if it fits and its scratch is allocated, so a
 * wave applies completely or not at all, and a call that stops early
 * leaves a conformal mesh of whole waves behind:
 *
 *   MESH_GROW   a wave needs more capacity: st[S_NEED_*] say what is short
 *               and by how much; the caller grows and calls again (the
 *               walk is replayed from the remaining LEAF targets, hence
 *               exactly);
 *   MESH_NOMEM  a scratch allocation failed;
 *   MESH_LIMIT  the next wave would walk past the step limit;
 *   MESH_GUARD  a guard failed (a non-LEAF parent, reactivated children
 *               that are not INACTIVE): the mesh is corrupt;
 *
 * and the caller raises on the last three.  The stitch alone returns
 * MESH_NOMEM, or MESH_NONMANIFOLD when an edge key occurs three times, and
 * writes nothing then.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MESH_DONE 0
#define MESH_NOMEM (-1)
#define MESH_GROW (-2)
#define MESH_LIMIT (-3)
#define MESH_GUARD (-4)
#define MESH_NONMANIFOLD (-5)

enum { LEAF = 0, INTERIOR = 1, INACTIVE = 2 };

/* refine2d's arrays, in the order of the pointer table */
enum {
    A_PARENT, A_CHILD0, A_CHILD1, A_ROOT, A_DEPTH, A_STATUS,
    A_CELLS, A_NBR, A_LE, A_EKEY, A_PTS,
    A_MSLOT, A_MKEYS, A_MVALS, A_TARGETS, A_BISECTED, A_COUNT
};

/* refine2d's state words: inputs, then in/out lengths and counters */
enum {
    S_ECAP, S_VCAP, S_MCAP, S_MBITS, S_NTARGETS, S_LIMIT,
    S_NELEM, S_NVERTS, S_NMEMO, S_STEPS, S_NBISECTED, S_WAVES,
    S_NEED_ELEM, S_NEED_VERTS, S_NEED_MEMO, S_COUNT
};

static const int NEXT[3] = {1, 2, 0};
static const int PREV[3] = {2, 0, 1};

/* test hook: make the k-th scratch allocation from now fail (-1: never) */
static int64_t fail_countdown = -1;

void meshcore_fail_after(int64_t k) { fail_countdown = k; }

static void *xalloc(size_t size)
{
    if (fail_countdown >= 0 && fail_countdown-- == 0)
        return NULL;
    return malloc(size ? size : 1);
}

/* ------------------------------------------------------------------ */
/* hashing: Fibonacci, top bits, linear probing (repro.mesh.growable)   */
/* ------------------------------------------------------------------ */

#define GOLD 0x9E3779B97F4A7C15ULL

static inline uint64_t fib(int64_t key, int bits)
{
    return ((uint64_t)key * GOLD) >> (64 - bits);
}

typedef struct {
    int64_t *slot, *keys, *vals;
    int bits;
    int64_t n;
} Memo;

static int64_t memo_get(const Memo *m, int64_t key)
{
    uint64_t mask = ((uint64_t)1 << m->bits) - 1;
    for (uint64_t h = fib(key, m->bits);; h = (h + 1) & mask) {
        int64_t i = m->slot[h];
        if (i < 0)
            return -1;
        if (m->keys[i] == key)
            return m->vals[i];
    }
}

static void memo_add(Memo *m, int64_t key, int64_t val)
{
    uint64_t mask = ((uint64_t)1 << m->bits) - 1;
    uint64_t h = fib(key, m->bits);
    while (m->slot[h] >= 0)
        h = (h + 1) & mask;
    m->slot[h] = m->n;
    m->keys[m->n] = key;
    m->vals[m->n] = val;
    m->n++;
}

/* ------------------------------------------------------------------ */
/* sorting non-negative int64: LSD radix over the bytes that vary       */
/* ------------------------------------------------------------------ */

static void sort_ids(int64_t *a, int64_t n, int64_t *tmp)
{
    if (n < 2)
        return;
    if (n <= 32) {
        for (int64_t i = 1; i < n; i++) {
            int64_t v = a[i], j = i;
            for (; j > 0 && a[j - 1] > v; j--)
                a[j] = a[j - 1];
            a[j] = v;
        }
        return;
    }
    uint64_t all_or = 0, all_and = ~(uint64_t)0;
    for (int64_t i = 0; i < n; i++) {
        all_or |= (uint64_t)a[i];
        all_and &= (uint64_t)a[i];
    }
    int64_t *src = a, *dst = tmp;
    for (int shift = 0; shift < 64; shift += 8) {
        if ((((all_or ^ all_and) >> shift) & 0xFF) == 0)
            continue; /* this byte is the same in every key */
        int64_t count[257] = {0};
        for (int64_t i = 0; i < n; i++)
            count[(((uint64_t)src[i] >> shift) & 0xFF) + 1]++;
        for (int b = 0; b < 256; b++)
            count[b + 1] += count[b];
        for (int64_t i = 0; i < n; i++)
            dst[count[((uint64_t)src[i] >> shift) & 0xFF]++] = src[i];
        int64_t *t = src;
        src = dst;
        dst = t;
    }
    if (src != a)
        memcpy(a, src, (size_t)n * sizeof(int64_t));
}

static inline int64_t pair_key(int64_t a, int64_t b)
{
    return a < b ? (a << 32) | b : (b << 32) | a;
}

/* ------------------------------------------------------------------ */
/* the stitch                                                           */
/* ------------------------------------------------------------------ */

typedef struct {
    int64_t *slots, *partner, *hkey, *hpos;
    int64_t cap; /* slots the buffers hold; the table has room for 2 cap */
} StitchScratch;

static void stitch_free(StitchScratch *s)
{
    free(s->slots);
    free(s->partner);
    free(s->hkey);
    free(s->hpos);
    memset(s, 0, sizeof(*s));
}

static int table_bits(int64_t n)
{
    int bits = 4;
    while (((int64_t)1 << bits) < 2 * n)
        bits++;
    return bits;
}

/* room for ``cap`` slots (grow only); -1 with everything freed on failure */
static int stitch_reserve(StitchScratch *s, int64_t cap)
{
    if (cap <= s->cap && s->slots)
        return 0;
    stitch_free(s);
    size_t hsize = (size_t)1 << table_bits(cap);
    s->cap = cap;
    s->slots = xalloc((size_t)cap * sizeof(int64_t));
    s->partner = xalloc((size_t)cap * sizeof(int64_t));
    s->hkey = xalloc(hsize * sizeof(int64_t));
    s->hpos = xalloc(hsize * sizeof(int64_t));
    if (!s->slots || !s->partner || !s->hkey || !s->hpos) {
        stitch_free(s);
        return -1;
    }
    return 0;
}

/* TriMesh._stitch: every slot (3 * element + local edge) of a born element,
 * and every slot through which a surviving LEAF saw a died element, is
 * reset to boundary; then equal edge keys are paired.  Returns the number
 * of keys met a third time (0 on a conformal mesh); with ``strict`` set,
 * such a call writes nothing. */
static int64_t stitch_run(const int64_t *born, int64_t nborn,
                          const int64_t *died, int64_t ndied, int64_t *nbr,
                          const int64_t *ekey, const uint8_t *status,
                          StitchScratch *s, int strict)
{
    int64_t n = 0, triples = 0;
    for (int64_t i = 0; i < nborn; i++)
        for (int j = 0; j < 3; j++)
            s->slots[n++] = 3 * born[i] + j;
    for (int64_t i = 0; i < ndied; i++) {
        int64_t d = died[i];
        for (int j = 0; j < 3; j++) {
            int64_t sv = nbr[3 * d + j];
            if (sv < 0 || status[sv] != LEAF)
                continue;
            int back = 0; /* numpy's argmax: first match, else 0 */
            for (int k = 0; k < 3; k++)
                if (nbr[3 * sv + k] == d) {
                    back = k;
                    break;
                }
            s->slots[n++] = 3 * sv + back;
        }
    }
    int bits = table_bits(n);
    uint64_t mask = ((uint64_t)1 << bits) - 1;
    memset(s->hpos, 0xFF, (mask + 1) * sizeof(int64_t));
    for (int64_t i = 0; i < n; i++) {
        int64_t key = ekey[s->slots[i]];
        s->partner[i] = -1;
        uint64_t h = fib(key, bits);
        while (s->hpos[h] >= 0 && s->hkey[h] != key)
            h = (h + 1) & mask;
        int64_t first = s->hpos[h];
        if (first < 0) {
            s->hkey[h] = key;
            s->hpos[h] = i;
        } else if (s->partner[first] < 0) {
            s->partner[first] = i;
            s->partner[i] = first;
        } else {
            triples++;
        }
    }
    if (strict && triples)
        return triples;
    for (int64_t i = 0; i < n; i++)
        nbr[s->slots[i]] = -1;
    for (int64_t i = 0; i < n; i++)
        if (s->partner[i] >= 0)
            nbr[s->slots[i]] = s->slots[s->partner[i]] / 3;
    return triples;
}

/* The stitch alone: MESH_DONE, or MESH_NOMEM / MESH_NONMANIFOLD (a key
 * occurs three times) with nothing written. */
int64_t stitch(const int64_t *born, int64_t nborn, const int64_t *died,
               int64_t ndied, int64_t *nbr, const int64_t *ekey,
               const uint8_t *status)
{
    StitchScratch s = {0};
    if (stitch_reserve(&s, 3 * (nborn + ndied)) < 0)
        return MESH_NOMEM;
    int64_t triples = stitch_run(born, nborn, died, ndied, nbr, ekey, status, &s, 1);
    stitch_free(&s);
    return triples ? MESH_NONMANIFOLD : MESH_DONE;
}

/* ------------------------------------------------------------------ */
/* refine2d                                                             */
/* ------------------------------------------------------------------ */

/* TriMesh._longest_local for one cell */
static int64_t longest_local(const int64_t *cell, const int64_t *keys,
                             const double *pts)
{
    double lens[3];
    for (int j = 0; j < 3; j++) {
        const double *p = pts + 2 * cell[NEXT[j]], *q = pts + 2 * cell[PREV[j]];
        double dx = p[0] - q[0], dy = p[1] - q[1];
        double xx = dx * dx, yy = dy * dy;
        lens[j] = xx + yy;
    }
    int64_t best = 0, best_key = keys[0];
    double best_len = lens[0];
    for (int j = 1; j < 3; j++) {
        double lj = lens[j];
        int longer = lj > best_len * (1.0 + 1e-12);
        int take = longer || (lj >= best_len * (1.0 - 1e-12) && keys[j] < best_key);
        if (take) {
            best = j;
            best_key = keys[j];
        }
        if (longer)
            best_len = lj;
    }
    return best;
}

typedef struct {
    int64_t *targets, *cur, *nxt, *ready, *miss, *tmp, *born;
    int32_t *seen, *inready;
} Scratch;

static void scratch_free(Scratch *w)
{
    free(w->targets);
    free(w->cur);
    free(w->nxt);
    free(w->ready);
    free(w->miss);
    free(w->tmp);
    free(w->born);
    free(w->seen);
    free(w->inready);
}

int64_t refine2d(void **arr, int64_t *st)
{
    int64_t *parent = arr[A_PARENT], *child0 = arr[A_CHILD0];
    int64_t *child1 = arr[A_CHILD1], *root = arr[A_ROOT];
    int32_t *depth = arr[A_DEPTH];
    uint8_t *status = arr[A_STATUS];
    int64_t *cells = arr[A_CELLS], *nbr = arr[A_NBR], *le = arr[A_LE];
    int64_t *ekey = arr[A_EKEY], *bisected = arr[A_BISECTED];
    double *pts = arr[A_PTS];
    Memo memo = {arr[A_MSLOT], arr[A_MKEYS], arr[A_MVALS], (int)st[S_MBITS], st[S_NMEMO]};
    const int64_t ecap = st[S_ECAP];
    int64_t nelem = st[S_NELEM], nverts = st[S_NVERTS];
    int64_t nt = st[S_NTARGETS];

    /* every id a wave handles is below ecap, and so is every list */
    Scratch w;
    size_t ids = (size_t)ecap * sizeof(int64_t);
    w.targets = xalloc((size_t)nt * sizeof(int64_t));
    w.cur = xalloc(ids);
    w.nxt = xalloc(ids);
    w.ready = xalloc(ids);
    w.miss = xalloc(ids);
    w.tmp = xalloc(ids);
    w.born = xalloc(2 * ids);
    w.seen = xalloc((size_t)ecap * sizeof(int32_t));
    w.inready = xalloc((size_t)ecap * sizeof(int32_t));
    if (!w.targets || !w.cur || !w.nxt || !w.ready || !w.miss || !w.tmp ||
        !w.born || !w.seen || !w.inready) {
        scratch_free(&w);
        return MESH_NOMEM;
    }
    memcpy(w.targets, arr[A_TARGETS], (size_t)nt * sizeof(int64_t));
    memset(w.seen, 0, (size_t)ecap * sizeof(int32_t));
    memset(w.inready, 0, (size_t)ecap * sizeof(int32_t));
    int32_t step_id = 0, wave_id = 0;
    int64_t result = MESH_DONE;
    StitchScratch ss = {0};

    for (;;) {
        /* the remaining LEAF targets */
        int64_t k = 0;
        for (int64_t i = 0; i < nt; i++)
            if (status[w.targets[i]] == LEAF)
                w.targets[k++] = w.targets[i];
        nt = k;
        if (!nt)
            break;

        /* walk every path to its terminal pair (read-only) */
        int64_t steps = st[S_STEPS], ncur = nt, nready = 0;
        int64_t *cur = w.cur, *nxt = w.nxt;
        memcpy(cur, w.targets, (size_t)nt * sizeof(int64_t));
        wave_id++;
        int over = 0;
        while (ncur) {
            steps += ncur;
            if (steps > st[S_LIMIT]) {
                over = 1;
                break;
            }
            step_id++;
            int64_t nn = 0;
            for (int64_t i = 0; i < ncur; i++) {
                int64_t e = cur[i], nb = nbr[3 * e + le[e]];
                if (nb < 0 || nbr[3 * nb + le[nb]] == e) {
                    if (w.inready[e] != wave_id) {
                        w.inready[e] = wave_id;
                        w.ready[nready++] = e;
                    }
                    if (nb >= 0 && w.inready[nb] != wave_id) {
                        w.inready[nb] = wave_id;
                        w.ready[nready++] = nb;
                    }
                } else if (w.seen[nb] != step_id) {
                    w.seen[nb] = step_id;
                    nxt[nn++] = nb;
                }
            }
            int64_t *t = cur;
            cur = nxt;
            nxt = t;
            ncur = nn;
        }
        if (over) {
            result = MESH_LIMIT;
            break;
        }
        sort_ids(w.ready, nready, w.tmp);

        /* guards (split_many's), fresh count, missing midpoints */
        int64_t fresh = 0, nmiss = 0;
        for (int64_t i = 0; i < nready; i++) {
            int64_t r = w.ready[i], c0 = child0[r];
            if (status[r] != LEAF)
                over = 1;
            if (c0 < 0)
                fresh++;
            else if (status[c0] != INACTIVE || status[child1[r]] != INACTIVE)
                over = 1;
            int64_t key = ekey[3 * r + le[r]];
            if (memo_get(&memo, key) < 0)
                w.miss[nmiss++] = key;
        }
        if (over) {
            result = MESH_GUARD;
            break;
        }
        sort_ids(w.miss, nmiss, w.tmp);
        k = 0;
        for (int64_t i = 0; i < nmiss; i++)
            if (!k || w.miss[i] != w.miss[k - 1])
                w.miss[k++] = w.miss[i];
        nmiss = k;

        /* what is short, by how much (the memo stays at most half full) */
        int64_t nmemo = memo.n + nmiss;
        st[S_NEED_ELEM] = nelem + 2 * fresh > ecap ? 2 * fresh : 0;
        st[S_NEED_VERTS] = nverts + nmiss > st[S_VCAP] ? nmiss : 0;
        st[S_NEED_MEMO] = nmemo > st[S_MCAP] || 2 * nmemo > ((int64_t)1 << memo.bits)
                              ? nmiss : 0;
        if (st[S_NEED_ELEM] || st[S_NEED_VERTS] || st[S_NEED_MEMO]) {
            result = MESH_GROW;
            break;
        }
        /* born slots, then at most three survivor slots per parent */
        if (stitch_reserve(&ss, 9 * nready) < 0) {
            result = MESH_NOMEM;
            break;
        }

        /* apply: midpoints in ascending key order */
        for (int64_t i = 0; i < nmiss; i++) {
            int64_t key = w.miss[i], a = key >> 32, b = key & 0xFFFFFFFF;
            pts[2 * nverts] = 0.5 * (pts[2 * a] + pts[2 * b]);
            pts[2 * nverts + 1] = 0.5 * (pts[2 * a + 1] + pts[2 * b + 1]);
            memo_add(&memo, key, nverts++);
        }
        /* split in ascending parent order: (a, m, apex) and (m, b, apex) */
        for (int64_t i = 0; i < nready; i++) {
            int64_t r = w.ready[i], c0 = child0[r], c1;
            if (c0 < 0) {
                c0 = nelem;
                c1 = nelem + 1;
                nelem += 2;
                int li = (int)le[r];
                int64_t apex = cells[3 * r + li];
                int64_t a = cells[3 * r + NEXT[li]], b = cells[3 * r + PREV[li]];
                int64_t m = memo_get(&memo, ekey[3 * r + li]);
                int64_t kid[2][3] = {{a, m, apex}, {m, b, apex}};
                for (int c = 0; c < 2; c++) {
                    int64_t e = c0 + c, *cell = cells + 3 * e, *keys = ekey + 3 * e;
                    parent[e] = r;
                    child0[e] = child1[e] = -1;
                    root[e] = root[r];
                    depth[e] = depth[r] + 1;
                    for (int j = 0; j < 3; j++)
                        cell[j] = kid[c][j];
                    for (int j = 0; j < 3; j++) {
                        keys[j] = pair_key(cell[NEXT[j]], cell[PREV[j]]);
                        nbr[3 * e + j] = -1;
                    }
                    le[e] = longest_local(cell, keys, pts);
                }
                child0[r] = c0;
                child1[r] = c1;
            } else {
                c1 = child1[r];
            }
            status[c0] = status[c1] = LEAF;
            status[r] = INTERIOR;
            w.born[i] = c0;
            w.born[nready + i] = c1;
        }
        stitch_run(w.born, 2 * nready, w.ready, nready, nbr, ekey, status, &ss, 0);
        memcpy(bisected + st[S_NBISECTED], w.ready, (size_t)nready * sizeof(int64_t));
        st[S_NBISECTED] += nready;
        st[S_STEPS] = steps;
        st[S_WAVES]++;
    }
    st[S_NELEM] = nelem;
    st[S_NVERTS] = nverts;
    st[S_NMEMO] = memo.n;
    stitch_free(&ss);
    scratch_free(&w);
    return result;
}
