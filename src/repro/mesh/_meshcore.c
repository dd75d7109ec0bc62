/* Compiled core of the mesh kernels: the whole Rivara wave loop of
 * repro.mesh.rivara2d.refine2d and repro.mesh.rivara3d.refine3d in one
 * call, its read-only first-wave walk, the rows of freshly stored cells
 * (a mesh's roots), the adjacency stitch that construction, refinement
 * and coarsening (SimplexMesh._merge_many) end in, and the
 * counts read off the leaves' _nbr rows (phase P1's weights of the coarse
 * dual graph, the cut and the shared vertices), in both dimensions.  It is
 * the only implementation the package runs; the numpy/Python code it
 * replaced is its oracle in tests/_mesh_oracle.py:
 *
 *   refine     ~ 2-D: the numpy wave loop refine2d (_walk2d, bisect_many,
 *                midpoints, _split_many, RefinementForest.split_many,
 *                grow_adjacency, _stitch_py); 3-D: the Python wave loop
 *                refine3d (_star, _walk3d, _bisect_stars, grow_adjacency)
 *   walk_once  ~ walk
 *   fresh      ~ grow_adjacency (the numpy longest_local)
 *   stitch     ~ _stitch_py (2-D); check_adjacency's brute force (3-D)
 *   weigh      ~ coarse_dual_graph (the numpy slot walk)
 *   cut_count  ~ cut_size
 *   shared_count ~ shared_vertex_count
 *
 * and each must leave every array *id for id* as the oracle leaves it
 * (tests/test_mesh_native.py).
 *
 * Determinism contract
 * --------------------
 * A wave is a function of the set of remaining LEAF targets: walk every
 * target to the terminal stars of longest edges (a star whose members all
 * have its edge as their longest: in 2-D a pair, or one triangle on the
 * boundary; a non-terminal star walks on from its other members, each
 * element at most once per wave), then bisect their union in ascending id
 * order.  Fresh children take consecutive id pairs in that order
 * (INACTIVE children are reactivated instead), missing midpoints are
 * created in ascending edge-key order as 0.5 * (a + b) per coordinate, and
 * the longest-edge rule of every cell, roots included, is the oracle's
 * longest_local, operation for operation (no -ffast-math, no FMA
 * contraction; see repro/_native.py).  The stitch pairs equal facets; on
 * a conformal mesh a facet occurs at most twice among the slots it
 * rewrites, so the pairing does not depend on the order they are visited.
 *
 * Storage is the Python side's: the growable arrays of the forest, the
 * cells, vertices, _nbr / _le and the midpoint IntMap, whose addresses
 * every entry takes first as one pointer table (the A_* enum), then the
 * mesh's dimension.  A wave is planned read-only (walk,
 * guards, midpoint lookups) and applied only if it fits and its scratch is
 * allocated, so a wave applies completely or not at all, and a call that
 * stops early leaves a conformal mesh of whole waves behind:
 *
 *   MESH_GROW   a wave needs more capacity: st[S_NEED_*] say what is short
 *               and by how much; the caller grows and calls again (the
 *               walk is replayed from the remaining LEAF targets, hence
 *               exactly);
 *   MESH_NOMEM  a scratch allocation failed;
 *   MESH_LIMIT  the next wave would walk past the step limit;
 *   MESH_GUARD  a guard failed (a non-LEAF parent, reactivated children
 *               that are not INACTIVE, a 3-D star walk that does not
 *               close): the mesh is corrupt;
 *
 * and the caller raises on the last three.  The stitch alone returns
 * MESH_NOMEM, or MESH_NONMANIFOLD when a facet occurs three times, and
 * writes nothing then.  The counts write nothing but weigh's weights; weigh
 * returns MESH_NOSLOT or MESH_EMPTY_SLOT when the leaves are no conformal
 * refinement of M^0 (the caller raises ValueError).
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
#define MESH_NOSLOT (-6)
#define MESH_EMPTY_SLOT (-7)

enum { LEAF = 0, INTERIOR = 1, INACTIVE = 2 };

/* the mesh's storage, in the order of the pointer table every entry takes
 * first (repro.mesh._meshnative._table) */
enum {
    A_PARENT, A_CHILD0, A_CHILD1, A_ROOT, A_DEPTH, A_STATUS,
    A_CELLS, A_NBR, A_LE, A_PTS, A_MKEYS, A_MVALS, A_MSLOT, A_COUNT
};

/* the wave loop's state words: inputs, then in/out lengths and counters */
enum {
    S_ECAP, S_VCAP, S_MCAP, S_MBITS, S_NTARGETS, S_LIMIT,
    S_NELEM, S_NVERTS, S_NMEMO, S_STEPS, S_NBISECTED, S_WAVES,
    S_NEED_ELEM, S_NEED_VERTS, S_NEED_MEMO, S_COUNT
};

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
    int64_t *slots, *partner, *fkey, *hpos;
    int64_t cap; /* slots the buffers hold; the table has room for 2 cap */
} StitchScratch;

static void stitch_free(StitchScratch *s)
{
    free(s->slots);
    free(s->partner);
    free(s->fkey);
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
    s->fkey = xalloc(2 * (size_t)cap * sizeof(int64_t));
    s->hpos = xalloc(hsize * sizeof(int64_t));
    if (!s->slots || !s->partner || !s->fkey || !s->hpos) {
        stitch_free(s);
        return -1;
    }
    return 0;
}

/* The facet of a cell of ``npc`` vertices opposite its local vertex
 * ``slot % npc``, as two words: the packed pair of its two smallest
 * vertex ids, and its largest id (-1 for an edge). */
static void facet_key(const int64_t *cells, int npc, int64_t slot, int64_t *key)
{
    const int64_t *c = cells + slot - slot % npc;
    int64_t v[3];
    int k = 0;
    for (int j = 0; j < npc; j++)
        if (j != slot % npc)
            v[k++] = c[j];
    for (int i = 1; i < k; i++)
        for (int j = i; j > 0 && v[j - 1] > v[j]; j--) {
            int64_t t = v[j];
            v[j] = v[j - 1];
            v[j - 1] = t;
        }
    key[0] = (v[0] << 32) | v[1];
    key[1] = k == 3 ? v[2] : -1;
}

/* SimplexMesh._stitch: every slot (npc * element + local vertex) of a born
 * element, and every slot through which a surviving LEAF saw a died
 * element, is reset to boundary; then equal facets are paired.  Returns
 * the number of facets met a third time (0 on a conformal mesh); with
 * ``strict`` set, such a call writes nothing. */
static int64_t stitch_run(const int64_t *born, int64_t nborn,
                          const int64_t *died, int64_t ndied, int64_t *nbr,
                          const int64_t *cells, int npc, const uint8_t *status,
                          StitchScratch *s, int strict)
{
    int64_t n = 0, triples = 0;
    for (int64_t i = 0; i < nborn; i++)
        for (int j = 0; j < npc; j++)
            s->slots[n++] = npc * born[i] + j;
    for (int64_t i = 0; i < ndied; i++) {
        int64_t d = died[i];
        for (int j = 0; j < npc; j++) {
            int64_t sv = nbr[npc * d + j];
            if (sv < 0 || status[sv] != LEAF)
                continue;
            int back = 0; /* numpy's argmax: first match, else 0 */
            for (int k = 0; k < npc; k++)
                if (nbr[npc * sv + k] == d) {
                    back = k;
                    break;
                }
            s->slots[n++] = npc * sv + back;
        }
    }
    int bits = table_bits(n);
    uint64_t mask = ((uint64_t)1 << bits) - 1;
    memset(s->hpos, 0xFF, (mask + 1) * sizeof(int64_t));
    for (int64_t i = 0; i < n; i++) {
        int64_t *key = s->fkey + 2 * i;
        facet_key(cells, npc, s->slots[i], key);
        s->partner[i] = -1;
        uint64_t h = fib((int64_t)((uint64_t)key[0] * GOLD + (uint64_t)key[1]), bits);
        int64_t first;
        while ((first = s->hpos[h]) >= 0 &&
               (s->fkey[2 * first] != key[0] || s->fkey[2 * first + 1] != key[1]))
            h = (h + 1) & mask;
        if (first < 0)
            s->hpos[h] = i;
        else if (s->partner[first] < 0) {
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
            nbr[s->slots[i]] = s->slots[s->partner[i]] / npc;
    return triples;
}

/* The stitch alone: MESH_DONE, or MESH_NOMEM / MESH_NONMANIFOLD (a facet
 * occurs three times) with nothing written. */
int64_t stitch(void **arr, int64_t dim, const int64_t *born, int64_t nborn,
               const int64_t *died, int64_t ndied)
{
    StitchScratch s = {0};
    if (stitch_reserve(&s, (dim + 1) * (nborn + ndied)) < 0)
        return MESH_NOMEM;
    int64_t triples = stitch_run(born, nborn, died, ndied, arr[A_NBR], arr[A_CELLS],
                                 (int)dim + 1, arr[A_STATUS], &s, 1);
    stitch_free(&s);
    return triples ? MESH_NONMANIFOLD : MESH_DONE;
}

/* ------------------------------------------------------------------ */
/* the wave loop and its walk                                           */
/* ------------------------------------------------------------------ */

/* local edge j joins local vertices EA[j] and EB[j]: a triangle's edge j
 * is the one opposite vertex j, a tet's six run in combinations order;
 * OFF3[j] are a tet's two local vertices off edge j */
static const int EA2[3] = {1, 2, 0}, EB2[3] = {2, 0, 1};
static const int EA3[6] = {0, 0, 0, 1, 1, 2}, EB3[6] = {1, 2, 3, 2, 3, 3};
static const int OFF3[6][2] = {{2, 3}, {1, 3}, {1, 2}, {0, 3}, {0, 2}, {0, 1}};

typedef struct {
    int dim, npc, nedges;
    const int *ea, *eb;
    uint8_t *status;
    int64_t *cells, *nbr, *le;
    double *pts;
} Mesh;

/* the pointer table as a mesh of dimension dim */
static Mesh mesh_view(void **arr, int64_t dim)
{
    Mesh m = {(int)dim, (int)dim + 1, dim == 2 ? 3 : 6, dim == 2 ? EA2 : EA3,
              dim == 2 ? EB2 : EB3, arr[A_STATUS], arr[A_CELLS], arr[A_NBR],
              arr[A_LE], arr[A_PTS]};
    return m;
}

/* packed key of local edge j of element e */
static inline int64_t edge_key(const Mesh *m, int64_t e, int j)
{
    const int64_t *c = m->cells + m->npc * e;
    return pair_key(c[m->ea[j]], c[m->eb[j]]);
}

/* the longest-edge rule for one cell (the oracle's longest_local) */
static int64_t longest_local(const Mesh *m, const int64_t *cell)
{
    double lens[6];
    int64_t keys[6];
    for (int j = 0; j < m->nedges; j++) {
        const double *p = m->pts + m->dim * cell[m->ea[j]];
        const double *q = m->pts + m->dim * cell[m->eb[j]];
        double len = 0.0;
        for (int k = 0; k < m->dim; k++) {
            double dk = p[k] - q[k];
            double sq = dk * dk;
            len = k ? len + sq : sq;
        }
        lens[j] = len;
        keys[j] = pair_key(cell[m->ea[j]], cell[m->eb[j]]);
    }
    int64_t best = 0, best_key = keys[0];
    double best_len = lens[0];
    for (int j = 1; j < m->nedges; j++) {
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

/* the rows of the n freshly stored cells [first, first + n): _nbr all
 * boundary, _le each cell's longest local edge */
static void fresh_rows(const Mesh *m, int64_t first, int64_t n)
{
    for (int64_t e = first; e < first + n; e++) {
        for (int v = 0; v < m->npc; v++)
            m->nbr[m->npc * e + v] = -1;
        m->le[e] = longest_local(m, m->cells + m->npc * e);
    }
}

/* fresh_rows for a mesh's roots at construction; MESH_DONE */
int64_t fresh(void **arr, int64_t dim, int64_t first, int64_t n)
{
    Mesh m = mesh_view(arr, dim);
    fresh_rows(&m, first, n);
    return MESH_DONE;
}

/* A wave's scratch over ids below ecap: the walk's queue, seen marks and
 * edge star (at most two members in 2-D); a refinement's also the ready
 * set, the missing midpoint keys, a sort buffer and the born children
 * (NULL in a read-only walk). */
typedef struct {
    int64_t *queue, *star, *ready, *miss, *tmp, *born;
    int32_t *seen, *inready;
    int32_t wave_id;
    int64_t starcap;
} Scratch;

static void scratch_free(Scratch *w)
{
    free(w->queue);
    free(w->star);
    free(w->ready);
    free(w->miss);
    free(w->tmp);
    free(w->born);
    free(w->seen);
    free(w->inready);
}

/* The walk's scratch, and a refinement's too when ``waves`` is set; every
 * id a wave handles is below ecap, and so is every list. */
static int scratch_alloc(Scratch *w, int dim, int64_t ecap, int waves)
{
    size_t ids = (size_t)ecap * sizeof(int64_t);
    memset(w, 0, sizeof(*w));
    w->starcap = dim == 2 ? 2 : ecap;
    w->queue = xalloc(ids);
    w->star = xalloc((size_t)w->starcap * sizeof(int64_t));
    w->seen = xalloc((size_t)ecap * sizeof(int32_t));
    int ok = w->queue && w->star && w->seen;
    if (ok && waves) {
        w->ready = xalloc(ids);
        w->miss = xalloc(ids);
        w->tmp = xalloc(ids);
        w->born = xalloc(2 * ids);
        w->inready = xalloc((size_t)ecap * sizeof(int32_t));
        ok = w->ready && w->miss && w->tmp && w->born && w->inready;
    }
    if (!ok) {
        scratch_free(w);
        return -1;
    }
    memset(w->seen, 0, (size_t)ecap * sizeof(int32_t));
    if (waves)
        memset(w->inready, 0, (size_t)ecap * sizeof(int32_t));
    return 0;
}

static inline void mark_ready(Scratch *w, int64_t e, int64_t *nready)
{
    if (w->inready[e] != w->wave_id) {
        w->inready[e] = w->wave_id;
        w->ready[(*nready)++] = e;
    }
}

/* The leaves around the longest edge of leaf e into w->star, e first: in
 * 2-D e and the leaf across that edge (none on the boundary), in 3-D
 * walked face to face over _nbr (both ways from e when the edge is on the
 * boundary); returns their number, -1 if a 3-D walk does not close. */
static int64_t edge_star(const Mesh *m, Scratch *w, int64_t e)
{
    const int64_t *cells = m->cells, *nbr = m->nbr;
    int j = (int)m->le[e];
    int64_t ns = 0;
    w->star[ns++] = e;
    if (m->dim == 2) {
        int64_t nb = nbr[3 * e + j];
        if (nb >= 0)
            w->star[ns++] = nb;
        return ns;
    }
    int64_t a = cells[4 * e + EA3[j]], b = cells[4 * e + EB3[j]];
    for (int dir = 0; dir < 2; dir++) {
        int64_t prev = e, t = nbr[4 * e + OFF3[j][dir]];
        while (t >= 0 && t != e) {
            if (ns == w->starcap)
                return -1;
            w->star[ns++] = t;
            int off[2], k = 0;
            for (int i = 0; i < 4; i++) {
                int64_t v = cells[4 * t + i];
                if (v != a && v != b) {
                    if (k == 2)
                        return -1;
                    off[k++] = i;
                }
            }
            if (k != 2)
                return -1;
            int64_t n0 = nbr[4 * t + off[0]], n1 = nbr[4 * t + off[1]];
            int64_t next = n0 == prev ? n1 : n0;
            prev = t;
            t = next;
        }
        if (t == e)
            break;
    }
    return ns;
}

/* whether s, a member of the star of e's longest edge, has that edge as
 * its longest too (in 2-D: its longest edge is the one it shares with e) */
static inline int shares_longest(const Mesh *m, int64_t e, int64_t s)
{
    if (m->dim == 2)
        return m->nbr[3 * s + m->le[s]] == e;
    return edge_key(m, s, (int)m->le[s]) == edge_key(m, e, (int)m->le[e]);
}

/* Walk breadth-first from the nt targets that are LEAF (in any order,
 * repeats walk once): a walker's star whose members all have its edge as
 * their longest is terminal and goes to w->ready whole (a refinement's
 * walk), any other sends its non-conforming members on.  Each element
 * walks at most once per wave, one step per walker; the walked ones end in
 * w->queue, their number in *nwalked.  MESH_DONE, MESH_LIMIT or MESH_GUARD
 * (a 3-D star walk that does not close). */
static int64_t walk(const Mesh *m, Scratch *w, const int64_t *targets, int64_t nt,
                    int64_t *steps, int64_t limit, int64_t *nready, int64_t *nwalked)
{
    int64_t *queue = w->queue, tail = 0;
    for (int64_t i = 0; i < nt; i++) {
        int64_t t = targets[i];
        if (m->status[t] == LEAF && w->seen[t] != w->wave_id) {
            w->seen[t] = w->wave_id;
            queue[tail++] = t;
        }
    }
    for (int64_t head = 0, end; head < tail; head = end) {
        end = tail; /* one path step: every walker queued so far */
        *steps += end - head;
        if (*steps > limit)
            return MESH_LIMIT;
        for (int64_t i = head; i < end; i++) {
            int64_t e = queue[i], ns = edge_star(m, w, e);
            if (ns < 0)
                return MESH_GUARD;
            int terminal = 1;
            for (int64_t k = 1; k < ns; k++) {
                int64_t s = w->star[k];
                if (shares_longest(m, e, s))
                    continue;
                terminal = 0;
                if (w->seen[s] != w->wave_id) {
                    w->seen[s] = w->wave_id;
                    queue[tail++] = s;
                }
            }
            for (int64_t k = 0; terminal && w->ready && k < ns; k++)
                mark_ready(w, w->star[k], nready);
        }
    }
    *nwalked = tail;
    return MESH_DONE;
}

/* the two children of parent cell ``c`` bisected across its local edge j
 * at vertex mid: 2-D (a, m, apex) and (m, b, apex) with a, b the edge's
 * ends in local order; 3-D (a, m, c, d) and (m, b, c, d) with a < b and
 * c, d the off-edge vertices in local order */
static void children(const Mesh *m, const int64_t *c, int j, int64_t mid,
                     int64_t kid[2][4])
{
    if (m->dim == 2) {
        int64_t a = c[EA2[j]], b = c[EB2[j]], apex = c[j];
        kid[0][0] = a;
        kid[0][1] = kid[1][0] = mid;
        kid[1][1] = b;
        kid[0][2] = kid[1][2] = apex;
        return;
    }
    int64_t a = c[EA3[j]], b = c[EB3[j]];
    kid[0][0] = a < b ? a : b;
    kid[0][1] = kid[1][0] = mid;
    kid[1][1] = a < b ? b : a;
    kid[0][2] = kid[1][2] = c[OFF3[j][0]];
    kid[0][3] = kid[1][3] = c[OFF3[j][1]];
}

/* The Rivara wave loop of a mesh of dimension dim (2 or 3) from the
 * st[S_NTARGETS] targets until no target is a LEAF, each wave's parents
 * appended to ``bisected``; see the head of this file for what it returns. */
int64_t refine(void **arr, int64_t dim, const int64_t *targets, int64_t *bisected,
               int64_t *st)
{
    int64_t *parent = arr[A_PARENT], *child0 = arr[A_CHILD0];
    int64_t *child1 = arr[A_CHILD1], *root = arr[A_ROOT];
    int32_t *depth = arr[A_DEPTH];
    Mesh m = mesh_view(arr, dim);
    uint8_t *status = m.status;
    const int npc = m.npc;
    Memo memo = {arr[A_MSLOT], arr[A_MKEYS], arr[A_MVALS], (int)st[S_MBITS], st[S_NMEMO]};
    const int64_t ecap = st[S_ECAP];
    int64_t nelem = st[S_NELEM], nverts = st[S_NVERTS];
    const int64_t nt = st[S_NTARGETS];

    Scratch w;
    if (scratch_alloc(&w, m.dim, ecap, 1) < 0)
        return MESH_NOMEM;
    int64_t result = MESH_DONE;
    StitchScratch ss = {0};

    for (;;) {
        /* walk (read-only) from the targets still LEAF to the terminal
         * stars; none left: done */
        int64_t steps = st[S_STEPS], nready = 0, nwalked;
        w.wave_id++;
        result = walk(&m, &w, targets, nt, &steps, st[S_LIMIT], &nready, &nwalked);
        if (result != MESH_DONE || !nwalked)
            break;
        sort_ids(w.ready, nready, w.tmp);

        /* guards (split_many's), fresh count, missing midpoints */
        int64_t fresh = 0, nmiss = 0;
        int bad = 0;
        for (int64_t i = 0; i < nready; i++) {
            int64_t r = w.ready[i], c0 = child0[r];
            if (status[r] != LEAF)
                bad = 1;
            if (c0 < 0)
                fresh++;
            else if (status[c0] != INACTIVE || status[child1[r]] != INACTIVE)
                bad = 1;
            int64_t key = edge_key(&m, r, (int)m.le[r]);
            if (memo_get(&memo, key) < 0)
                w.miss[nmiss++] = key;
        }
        if (bad) {
            result = MESH_GUARD;
            break;
        }
        sort_ids(w.miss, nmiss, w.tmp);
        int64_t k = 0;
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
        /* born slots, then at most npc survivor slots per parent */
        if (stitch_reserve(&ss, 3 * npc * nready) < 0) {
            result = MESH_NOMEM;
            break;
        }

        /* apply: midpoints in ascending key order */
        double *pts = m.pts;
        for (int64_t i = 0; i < nmiss; i++) {
            int64_t key = w.miss[i], a = key >> 32, b = key & 0xFFFFFFFF;
            for (int d = 0; d < m.dim; d++)
                pts[m.dim * nverts + d] = 0.5 * (pts[m.dim * a + d] + pts[m.dim * b + d]);
            memo_add(&memo, key, nverts++);
        }
        /* split in ascending parent order */
        for (int64_t i = 0; i < nready; i++) {
            int64_t r = w.ready[i], c0 = child0[r], c1;
            if (c0 < 0) {
                c0 = nelem;
                c1 = nelem + 1;
                nelem += 2;
                int j = (int)m.le[r];
                int64_t kid[2][4];
                children(&m, m.cells + npc * r, j,
                         memo_get(&memo, edge_key(&m, r, j)), kid);
                for (int c = 0; c < 2; c++) {
                    int64_t e = c0 + c;
                    parent[e] = r;
                    child0[e] = child1[e] = -1;
                    root[e] = root[r];
                    depth[e] = depth[r] + 1;
                    memcpy(m.cells + npc * e, kid[c], (size_t)npc * sizeof(int64_t));
                }
                fresh_rows(&m, c0, 2);
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
        stitch_run(w.born, 2 * nready, w.ready, nready, m.nbr, m.cells, npc, status,
                   &ss, 0);
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

/* The elements the first wave of refine(dim) from the nt targets walks,
 * read-only: written ascending to ``walked`` (room for every element),
 * their number returned; MESH_NOMEM, MESH_LIMIT past ``limit`` steps, or
 * MESH_GUARD. */
int64_t walk_once(void **arr, int64_t dim, int64_t nelem, const int64_t *targets,
                  int64_t nt, int64_t limit, int64_t *walked)
{
    Mesh m = mesh_view(arr, dim);
    Scratch w;
    if (scratch_alloc(&w, m.dim, nelem, 0) < 0)
        return MESH_NOMEM;
    int64_t steps = 0, nwalked = 0;
    w.wave_id = 1;
    int64_t result = walk(&m, &w, targets, nt, &steps, limit, NULL, &nwalked);
    if (result == MESH_DONE) {
        memcpy(walked, w.queue, (size_t)nwalked * sizeof(int64_t));
        sort_ids(walked, nwalked, w.queue);
        result = nwalked;
    }
    scratch_free(&w);
    return result;
}

/* ------------------------------------------------------------------ */
/* the counts over the leaves: P1's weights, the cut, shared vertices   */
/* ------------------------------------------------------------------ */

/* Phase P1's recount (repro.mesh.dualgraph.coarse_dual_graph): for each of
 * the nroots roots (all 0..nroots-1 when ``roots`` is NULL) walk its
 * tree's leaves depth first, count them into vw[root], and count every
 * leaf across a facet that lies in another tree into the slot of that
 * tree's root in the root's row of the skeleton (xadj, adjncy: M^0's dual
 * graph, rows ascending).  Only the given roots' entries and rows are
 * written, each from zero (a root given twice counts once), and only their
 * trees' elements are read.
 * A leaf pair across trees whose roots share no slot returns MESH_NOSLOT,
 * a slot of a given row that no pair filled MESH_EMPTY_SLOT, a tree that
 * reaches an INACTIVE element MESH_GUARD; MESH_NOMEM if the walk's stack
 * (room for every element) cannot be allocated. */
int64_t weigh(void **arr, int64_t dim, int64_t nelem, const int64_t *roots, int64_t nroots,
              const int64_t *xadj, const int64_t *adjncy, int64_t *vw, int64_t *ew)
{
    const int64_t *child0 = arr[A_CHILD0], *child1 = arr[A_CHILD1], *root = arr[A_ROOT];
    const Mesh m = mesh_view(arr, dim);
    int64_t *stack = xalloc((size_t)nelem * sizeof(int64_t));
    if (!stack)
        return MESH_NOMEM;
    int64_t result = MESH_DONE;
    for (int64_t i = 0; i < nroots && result == MESH_DONE; i++) {
        int64_t r = roots ? roots[i] : i, lo = xadj[r], deg = xadj[r + 1] - lo;
        const int64_t *row = adjncy + lo;
        int64_t leaves = 0, top = 0;
        memset(ew + lo, 0, (size_t)deg * sizeof(int64_t));
        stack[top++] = r;
        while (top && result == MESH_DONE) {
            int64_t x = stack[--top];
            if (m.status[x] == INTERIOR) {
                stack[top++] = child1[x];
                stack[top++] = child0[x];
                continue;
            }
            if (m.status[x] != LEAF) {
                result = MESH_GUARD;
                break;
            }
            leaves++;
            for (int j = 0; j < m.npc; j++) {
                int64_t y = m.nbr[m.npc * x + j];
                if (y < 0 || root[y] == r)
                    continue;
                /* the slot of root[y] in the sorted row: the entries below it */
                int64_t b = root[y], s = 0;
                for (int64_t k = 0; k < deg; k++)
                    s += row[k] < b;
                if (s == deg || row[s] != b) {
                    result = MESH_NOSLOT;
                    break;
                }
                ew[lo + s]++;
            }
        }
        vw[r] = leaves;
    }
    free(stack);
    for (int64_t i = 0; i < nroots && result == MESH_DONE; i++) {
        int64_t r = roots ? roots[i] : i;
        for (int64_t s = xadj[r]; s < xadj[r + 1]; s++)
            if (!ew[s])
                result = MESH_EMPTY_SLOT;
    }
    return result;
}

/* The cut of the labels ``part`` (any int64 values) on the nleaves
 * leaves (ascending ids) of a mesh of dimension dim: the facets whose
 * two leaves carry different labels (repro.mesh.metrics.cut_size).  Each
 * facet is read from its higher-numbered side's label and counted from
 * the lower side; a boundary or lower neighbour reads the leaf's own
 * label, which adds nothing, so the sweep does not branch on the labels.
 * Returns the count, MESH_NOMEM, or MESH_GUARD when a leaf's higher
 * neighbour is no leaf. */
int64_t cut_count(void **arr, int64_t dim, int64_t nelem, const int64_t *leaves,
                  int64_t nleaves, const int64_t *part)
{
    const Mesh m = mesh_view(arr, dim);
    int64_t *label = xalloc((size_t)nelem * sizeof(int64_t));
    if (!label)
        return MESH_NOMEM;
    for (int64_t i = 0; i < nleaves; i++)
        label[leaves[i]] = part[i];
    int64_t cut = 0;
    uint8_t stale = 0;
    for (int64_t i = 0; i < nleaves; i++) {
        int64_t x = leaves[i], px = part[i];
        for (int j = 0; j < m.npc; j++) {
            int64_t y = m.nbr[m.npc * x + j], z = y > x ? y : x;
            stale |= m.status[z]; /* LEAF is 0 */
            cut += label[z] != px;
        }
    }
    free(label);
    return stale ? MESH_GUARD : cut;
}

/* The vertices (nverts of them) of the same leaves whose incident leaves
 * carry more than one label (repro.mesh.metrics.shared_vertex_count): one
 * reference label per vertex (the last scattered), then every incidence
 * compared with it, so a vertex is shared iff one differs.  Returns the
 * count or MESH_NOMEM. */
int64_t shared_count(void **arr, int64_t dim, int64_t nverts, const int64_t *leaves,
                     int64_t nleaves, const int64_t *part)
{
    const Mesh m = mesh_view(arr, dim);
    int64_t *ref = xalloc((size_t)nverts * sizeof(int64_t));
    uint8_t *shared = xalloc((size_t)nverts);
    if (!ref || !shared) {
        free(ref);
        free(shared);
        return MESH_NOMEM;
    }
    memset(shared, 0, (size_t)nverts);
    for (int64_t i = 0; i < nleaves; i++)
        for (int j = 0; j < m.npc; j++)
            ref[m.cells[m.npc * leaves[i] + j]] = part[i];
    for (int64_t i = 0; i < nleaves; i++)
        for (int j = 0; j < m.npc; j++) {
            int64_t v = m.cells[m.npc * leaves[i] + j];
            shared[v] |= ref[v] != part[i];
        }
    int64_t count = 0;
    for (int64_t v = 0; v < nverts; v++)
        count += shared[v];
    free(ref);
    free(shared);
    return count;
}
