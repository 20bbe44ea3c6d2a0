/* Blocks of single-item collapsed Gibbs sweeps over flat arrays, the block
 * moves and records run between them, and the reader of the trace files
 * they end up in.
 *
 * This is the compiled form of ChainState.reallocate_item (gibbs.py) applied
 * to items 0..n-1 in order, `sweeps` times over. It repeats the Python sweep
 * operation for operation: every log marginal through log_marginal, the one
 * compiled port of NIGEngine.log_marginal_z (one engine per prior, shared by
 * the colours that have it), the candidates in the insertion order of the
 * live clusters (existing ones, then one new cluster per colour) priced
 * through the prior's urn tables, and the draw of _draw, one uniform against
 * the running totals of exp(logw - max). Built without fast-math and without
 * contraction into fused multiply-adds, it gives the same doubles as the
 * interpreter, so a seeded chain draws the same states.
 *
 * A block can also record chosen sweeps as it goes: the canonical labelling
 * of the state (see canonical: clusters numbered by least member) and the live
 * clusters' log marginals in insertion order, which is all a trace record
 * needs besides the prior.
 *
 * Clusters live in slots 0..n-1, ChainState's ids; `order` lists the live
 * slots in insertion order and `free_slots` stacks the others. Per colour c
 * the static tables are laid out as [c][item][pmax] (xi), [c][item] (yy,
 * singles), [c][count][pmax] (reciprocals) and [c][count] (posterior shape
 * and constant), for counts 0..n+1.
 *
 * The prior enters only through its urn tables (priors.py, urn_tables): with
 * item i withdrawn, d clusters left and m items of colour c, an existing
 * cluster of colour c and size s weighs (s + offsets[c]) * factors[c][m] and
 * a new one new[c][m] * by_degree[d], for m and d in 0..n. The kernel knows
 * no prior family.
 *
 * The library's exports:
 *   cdpmix_sweeps       runs a block of sweeps, recording the sweeps asked for;
 *   cdpmix_withdraw     takes a block of co-clustered items out of their
 *                       cluster (ChainState._withdraw);
 *   cdpmix_price_block  reports, per live cluster, what the prior needs to
 *                       price the withdrawn block into it, and the block's
 *                       log marginal in it and alone in a new cluster per
 *                       colour (ChainState.subset_candidates' marginals);
 *   cdpmix_place        puts the block into a cluster or a new one
 *                       (ChainState._place), re-pricing it on request;
 *   cdpmix_record       takes a record of the state now;
 *   cdpmix_read_trace   reads the body of a trace.csv as write_trace writes it.
 * The block moves' draws and prior stay in Python: these exports only move
 * items and price marginals, so a chain's state stays in these arrays from
 * its first block to its last, subset moves and records included. They refuse
 * a block they cannot act on (BAD_BLOCK) before writing anything.
 * Chains revisit few states, so the reader parses each distinct
 * label-and-colour text once: a line whose text it has seen before is matched
 * against a copy of that text and not parsed again.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

enum { OK = 0, RATE_COLLAPSED = 1, WEIGHTS_VANISHED = 2, BAD_BLOCK = 3 };

typedef struct {
    /* the prior's urn tables and the data: read only */
    int64_t n, n_colours, pmax;
    const double *offsets;   /* [colour] */
    const double *factors;   /* [colour][items of the colour]: 0..n */
    const double *new;       /* [colour][items of the colour]: 0..n */
    const double *by_degree; /* [clusters]: 0..n */
    const int64_t *p;        /* coordinates per colour */
    const double *rate_base; /* per colour */
    const double *z0;        /* [colour][pmax] */
    const double *xi;        /* [colour][item][pmax] */
    const double *yy;        /* [colour][item] */
    const double *singles;   /* [colour][item]: the item alone in a new cluster */
    const double *recips;    /* [colour][count][pmax] */
    const double *a_post;    /* [colour][count] */
    const double *cnst;      /* [colour][count] */
    /* the chain state: read and written */
    int64_t *n_clusters, *n_free;
    int64_t *order, *free_slots;            /* [n] */
    int64_t *colour, *count;                /* per slot */
    double *z, *yty, *log_m;                /* per slot ([slot][pmax] for z) */
    int64_t *item_slot;                     /* [n] */
    int64_t *colour_totals;                 /* [n_colours] */
    /* scratch of n + n_colours entries */
    double *logw, *after, *totals;
    int64_t *target;                        /* slot, or -1 - colour for a new cluster */
    int64_t *rank;                          /* [n]: a slot's canonical or insertion number */
    double *zs;                             /* [pmax]: a block's summed statistics */
} Kernel;

/* log_marginal_z(count, z, yty, dz, dyy) of a colour-c cluster: dz may be
 * NULL (then dyy is 0.0) for the cluster as it stands */
static int log_marginal(const Kernel *k, int64_t c, int64_t count, const double *z,
                        double yty, const double *dz, double dyy, double *out)
{
    const int64_t row = c * (k->n + 2) + count;
    const double *r = k->recips + row * k->pmax;
    double quad = 0.0;
    for (int64_t d = 0; d < k->p[c]; d++) {
        const double t = dz ? z[d] + dz[d] : z[d];
        quad += t * t * r[d];
    }
    const double b_post = k->rate_base[c] + 0.5 * (yty + dyy - quad);
    if (!(b_post > 0))
        return RATE_COLLAPSED;
    *out = k->cnst[row] - k->a_post[row] * log(b_post);
    return OK;
}

/* ChainState._withdraw: items[0..m) leave their one cluster, whose
 * statistics lose each item's (xi, yy) in turn and whose marginal is priced
 * once */
static int withdraw(Kernel *k, const int64_t *items, int64_t m)
{
    const int64_t s = k->item_slot[items[0]], c = k->colour[s], pmax = k->pmax;
    k->count[s] -= m;
    k->colour_totals[c] -= m;
    for (int64_t j = 0; j < m; j++)
        k->item_slot[items[j]] = -1;
    if (k->count[s] == 0) {
        int64_t j = 0;
        while (k->order[j] != s)
            j++;
        memmove(k->order + j, k->order + j + 1,
                (size_t)(*k->n_clusters - j - 1) * sizeof(int64_t));
        *k->n_clusters -= 1;
        k->free_slots[(*k->n_free)++] = s;
        return OK;
    }
    double *z = k->z + s * pmax;
    for (int64_t j = 0; j < m; j++) {
        const double *x = k->xi + (c * k->n + items[j]) * pmax;
        for (int64_t d = 0; d < k->p[c]; d++)
            z[d] = z[d] - x[d];
        k->yty[s] -= k->yy[c * k->n + items[j]];
    }
    return log_marginal(k, c, k->count[s], z, k->yty[s], NULL, 0.0, &k->log_m[s]);
}

/* item_candidates: fills logw, after and target; returns their number or an error */
static int64_t candidates(Kernel *k, int64_t i, int *status)
{
    const int64_t n = k->n, C = k->n_colours, pmax = k->pmax;
    const double degree = k->by_degree[*k->n_clusters];
    int64_t m = 0;
    for (int64_t j = 0; j < *k->n_clusters; j++) {
        const int64_t s = k->order[j], c = k->colour[s], size = k->count[s];
        const double w = ((double)size + k->offsets[c])
                         * k->factors[c * (n + 1) + k->colour_totals[c]];
        if (w <= 0)
            continue;
        double lm;
        *status = log_marginal(k, c, size + 1, k->z + s * pmax, k->yty[s],
                               k->xi + (c * n + i) * pmax, k->yy[c * n + i], &lm);
        if (*status != OK)
            return 0;
        k->target[m] = s;
        k->logw[m] = log(w) + lm - k->log_m[s];
        k->after[m] = lm;
        m++;
    }
    for (int64_t c = 0; c < C; c++) {
        const double w = k->new[c * (n + 1) + k->colour_totals[c]] * degree;
        if (w <= 0)
            continue;
        const double lm = k->singles[c * n + i];
        k->target[m] = -1 - c;
        k->logw[m] = log(w) + lm;
        k->after[m] = lm;
        m++;
    }
    *status = OK;
    return m;
}

/* _draw: the first running total above u * total, found as bisect_right finds it */
static int draw(Kernel *k, int64_t m, double u, int64_t *idx)
{
    if (m == 0)
        return WEIGHTS_VANISHED;
    double top = k->logw[0];
    for (int64_t j = 1; j < m; j++)
        if (k->logw[j] > top)
            top = k->logw[j];
    if (top == -INFINITY)
        return WEIGHTS_VANISHED;
    double acc = 0.0;
    for (int64_t j = 0; j < m; j++) {
        const double e = exp(k->logw[j] - top);
        acc = j ? acc + e : e;
        k->totals[j] = acc;
    }
    const double x = u * k->totals[m - 1];
    int64_t lo = 0, hi = m;
    while (lo < hi) {
        const int64_t mid = (lo + hi) / 2;
        if (x < k->totals[mid])
            hi = mid;
        else
            lo = mid + 1;
    }
    *idx = lo < m - 1 ? lo : m - 1;
    return OK;
}

static void insert(Kernel *k, int64_t i, int64_t target, double log_m_after)
{
    const int64_t n = k->n, pmax = k->pmax;
    int64_t s, c;
    if (target >= 0) {
        s = target;
        c = k->colour[s];
        double *z = k->z + s * pmax;
        const double *x = k->xi + (c * n + i) * pmax;
        for (int64_t d = 0; d < k->p[c]; d++)
            z[d] = z[d] + x[d];
        k->yty[s] += k->yy[c * n + i];
        k->count[s] += 1;
    } else {
        c = -1 - target;
        s = k->free_slots[--(*k->n_free)];
        double *z = k->z + s * pmax;
        const double *z0 = k->z0 + c * pmax, *x = k->xi + (c * n + i) * pmax;
        for (int64_t d = 0; d < k->p[c]; d++)
            z[d] = z0[d] + x[d];
        k->yty[s] = 0.0 + k->yy[c * n + i];
        k->count[s] = 1;
        k->colour[s] = c;
        k->order[(*k->n_clusters)++] = s;
    }
    k->log_m[s] = log_m_after;
    k->item_slot[i] = s;
    k->colour_totals[c] += 1;
}

/* The canonical labelling of the state, as Partition.allocation() gives it:
 * labels[i] numbers item i's cluster by least member and colours[i] is its
 * colour, and canonical cluster j has colour cl_colour[j] and size cl_size[j].
 * Returns the number of clusters. */
static int64_t canonical(Kernel *k, int32_t *labels, int32_t *colours,
                         int64_t *cl_colour, int64_t *cl_size)
{
    int64_t d = 0;
    for (int64_t j = 0; j < *k->n_clusters; j++)
        k->rank[k->order[j]] = -1;
    for (int64_t i = 0; i < k->n; i++) {
        const int64_t s = k->item_slot[i];
        if (k->rank[s] < 0) {
            cl_colour[d] = k->colour[s];
            cl_size[d] = k->count[s];
            k->rank[s] = d++;
        }
        labels[i] = (int32_t)k->rank[s];
        colours[i] = (int32_t)k->colour[s];
    }
    return d;
}

/* The sweeps a block records and where it writes them: after block-relative
 * sweep at[r] (increasing) record r is canonical into row r of labels and
 * colours ([record][n]) and the cluster count into degree[r], then the
 * clusters' colours and sizes and their log marginals in insertion order
 * into cl_colour, cl_size and log_m, packed record after record. */
typedef struct {
    int64_t count;
    const int64_t *at;
    int32_t *labels, *colours;
    int64_t *degree, *cl_colour, *cl_size;
    double *log_m;
} Records;

/* Takes the state as record r, its clusters packed from `packed`; returns
 * the number of clusters. */
static int64_t take(Kernel *k, Records *rec, int64_t r, int64_t packed)
{
    const int64_t d = canonical(k, rec->labels + r * k->n, rec->colours + r * k->n,
                                rec->cl_colour + packed, rec->cl_size + packed);
    for (int64_t j = 0; j < d; j++)
        rec->log_m[packed + j] = k->log_m[k->order[j]];
    rec->degree[r] = d;
    return d;
}

/* Runs `sweeps` sweeps, drawing item i of sweep t with uniforms[t * n + i]
 * and taking the records `rec` asks for (none when it is NULL). Returns OK
 * or the error that stopped it; the state is then mid-move. */
int cdpmix_sweeps(Kernel *k, const double *uniforms, int64_t sweeps, Records *rec)
{
    const int64_t n = k->n;
    int64_t r = 0, packed = 0;
    for (int64_t t = 0; t < sweeps; t++) {
        for (int64_t i = 0; i < n; i++) {
            int status = withdraw(k, &i, 1);
            if (status != OK)
                return status;
            const int64_t m = candidates(k, i, &status);
            if (status != OK)
                return status;
            int64_t idx;
            status = draw(k, m, uniforms[t * n + i], &idx);
            if (status != OK)
                return status;
            insert(k, i, k->target[idx], k->after[idx]);
        }
        if (rec && r < rec->count && rec->at[r] == t) {
            packed += take(k, rec, r, packed);
            r++;
        }
    }
    return OK;
}

/* Takes the state now as record 0 of `rec` (`count` and `at` unread);
 * returns the number of clusters. */
int64_t cdpmix_record(Kernel *k, Records *rec)
{
    return take(k, rec, 0, 0);
}

/* A block of m co-clustered items, increasing, moved together, and what
 * cdpmix_price_block reports once it is withdrawn: per live cluster j, in
 * insertion order, its colour, size, least member and log marginal, and in
 * after[j] its log marginal with the block added; in after[live + c] the
 * block's log marginal alone in a new cluster of colour c. */
typedef struct {
    int64_t m, live;
    const int64_t *items;
    int64_t *colour, *size, *least; /* [live] */
    double *log_m, *after;          /* [live], [live + n_colours] */
} Block;

/* Whether the block holds 1..n increasing items, all withdrawn or else all
 * in one cluster: the exports below check it before touching the state. */
static int block_ok(const Kernel *k, const Block *b, int withdrawn)
{
    if (b->m < 1 || b->m > k->n)
        return 0;
    for (int64_t j = 0; j < b->m; j++) {
        const int64_t i = b->items[j];
        if (i < 0 || i >= k->n || (j > 0 && i <= b->items[j - 1]))
            return 0;
        const int64_t s = k->item_slot[i];
        if (withdrawn ? s != -1 : (s < 0 || s != k->item_slot[b->items[0]]))
            return 0;
    }
    return 1;
}

int cdpmix_withdraw(Kernel *k, const Block *b)
{
    if (!block_ok(k, b, 0))
        return BAD_BLOCK;
    return withdraw(k, b->items, b->m);
}

/* _summed: z is `start` (zeros when NULL) plus each block item's xi of
 * colour c in turn; returns 0.0 plus their yy in turn */
static double summed(const Kernel *k, int64_t c, const Block *b, const double *start, double *z)
{
    double yty = 0.0;
    for (int64_t d = 0; d < k->p[c]; d++)
        z[d] = start ? start[d] : 0.0;
    for (int64_t j = 0; j < b->m; j++) {
        const double *x = k->xi + (c * k->n + b->items[j]) * k->pmax;
        for (int64_t d = 0; d < k->p[c]; d++)
            z[d] = z[d] + x[d];
        yty += k->yy[c * k->n + b->items[j]];
    }
    return yty;
}

/* The marginals subset_candidates prices: a live cluster's with the block's
 * statistics, summed from zero, added to its own, and a new cluster's from
 * the colour's z0 and the items added one by one. */
int cdpmix_price_block(Kernel *k, Block *b)
{
    const int64_t pmax = k->pmax, m = b->m, live = *k->n_clusters;
    double *z = k->zs;
    if (!block_ok(k, b, 1))
        return BAD_BLOCK;
    b->live = live;
    for (int64_t j = 0; j < live; j++) {
        const int64_t s = k->order[j];
        b->colour[j] = k->colour[s];
        b->size[j] = k->count[s];
        b->least[j] = -1;
        b->log_m[j] = k->log_m[s];
        k->rank[s] = j;
    }
    for (int64_t i = 0; i < k->n; i++) {
        const int64_t s = k->item_slot[i];
        if (s >= 0 && b->least[k->rank[s]] < 0)
            b->least[k->rank[s]] = i;
    }
    for (int64_t c = 0; c < k->n_colours; c++) {
        double yty = summed(k, c, b, NULL, z);
        for (int64_t j = 0; j < live; j++) {
            const int64_t s = k->order[j];
            if (k->colour[s] != c)
                continue;
            const int status = log_marginal(k, c, k->count[s] + m, k->z + s * pmax, k->yty[s],
                                            z, yty, &b->after[j]);
            if (status != OK)
                return status;
        }
        yty = summed(k, c, b, k->z0 + c * pmax, z);
        const int status = log_marginal(k, c, m, z, yty, NULL, 0.0, &b->after[live + c]);
        if (status != OK)
            return status;
    }
    return OK;
}

/* ChainState._place: the first item goes to `target` (a slot, or -1 - colour
 * for a new cluster), the rest beside it, each setting the cluster's
 * marginal to log_m_after. With `reprice` the marginal is then priced from
 * the statistics the items were added to, as putting a rejected block back
 * prices it. */
int cdpmix_place(Kernel *k, const Block *b, int64_t target, double log_m_after, int reprice)
{
    if (!block_ok(k, b, 1) || target >= k->n || target < -k->n_colours
        || (target >= 0 && k->count[target] == 0))
        return BAD_BLOCK;
    for (int64_t j = 0; j < b->m; j++) {
        insert(k, b->items[j], target, log_m_after);
        target = k->item_slot[b->items[j]];
    }
    if (!reprice)
        return OK;
    return log_marginal(k, k->colour[target], k->count[target], k->z + target * k->pmax,
                        k->yty[target], NULL, 0.0, &k->log_m[target]);
}

/* The trace reader's buffers, all owned by the caller: it sizes the per-line
 * ones for the whole body and grows the others when the reader asks for
 * room. A line is `chain,sweep,` and then its row: `cells` (at least 1)
 * comma-separated cells. The distinct rows are numbered in order of first
 * occurrence; their texts lie one after another in `arena`, row r's ending at
 * ends[r], and `slots` is an open-addressing table over their hashes. */
typedef struct {
    int64_t cells;
    int32_t *chain, *sweep;  /* [max_lines] */
    int64_t *index;          /* [max_lines]: the line's row */
    int64_t lines, max_lines;
    int32_t *rows;           /* [max_rows][cells] */
    uint64_t *hashes;        /* [max_rows]: hash of the row's text */
    int64_t *ends;           /* [max_rows] */
    int64_t n_rows, max_rows;
    unsigned char *arena;    /* [arena_size] */
    int64_t arena_size;
    int64_t *slots;          /* [n_slots], a power of two above 2 * max_rows: row + 1, or 0 */
    int64_t n_slots, hashed; /* rows below `hashed` are in `slots` */
} Trace;

enum { READ_OK = 0, READ_BAD = 1, ROOM_ROWS = 2, ROOM_TEXT = 3 };

/* Four independent lanes of eight bytes, so hashing a line costs little
 * next to reading it. */
static uint64_t hash_text(const unsigned char *p, int64_t len)
{
    const uint64_t m = 0xBF58476D1CE4E5B9u;
    uint64_t h[4] = {0x9E3779B97F4A7C15u ^ (uint64_t)len, 1, 2, 3}, w;
    for (; len >= 32; p += 32, len -= 32)
        for (int j = 0; j < 4; j++) {
            memcpy(&w, p + 8 * j, 8);
            h[j] = (h[j] ^ w) * m;
            h[j] ^= h[j] >> 31;
        }
    for (; len > 0; p += 8, len -= 8) {
        w = 0;
        memcpy(&w, p, (size_t)(len < 8 ? len : 8));
        h[0] = (h[0] ^ w) * m;
        h[0] ^= h[0] >> 31;
    }
    uint64_t out = h[0];
    for (int j = 1; j < 4; j++)
        out = ((out ^ h[j]) * 0x94D049BB133111EBu) ^ (out >> 29);
    return out ^ (out >> 32);
}

/* The slot holding the row whose text is [p, p + len), or the empty slot
 * where that text goes. */
static int64_t *find_slot(const Trace *t, const unsigned char *p, int64_t len, uint64_t h)
{
    const uint64_t mask = (uint64_t)t->n_slots - 1;
    for (uint64_t s = h & mask;; s = (s + 1) & mask) {
        int64_t *slot = t->slots + s;
        if (*slot == 0)
            return slot;
        const int64_t r = *slot - 1, start = r ? t->ends[r - 1] : 0;
        if (t->hashes[r] == h && t->ends[r] - start == len
            && memcmp(t->arena + start, p, (size_t)len) == 0)
            return slot;
    }
}

/* One non-negative decimal int32 cell at *pp, which is left after it; -1 if
 * there is none. Every line ends in '\n', so the digits stop within it. */
static int64_t parse_cell(const unsigned char **pp)
{
    const unsigned char *p = *pp;
    uint64_t v = (uint64_t)*p - '0', digit;
    if (v > 9)
        return -1;
    while ((digit = (uint64_t)*++p - '0') <= 9) {
        v = 10 * v + digit;
        if (v > INT32_MAX)
            return -1;
    }
    *pp = p;
    return (int64_t)v;
}

/* `cells` comma-separated cells from p, the last one ending at the newline. */
static int parse_row(const unsigned char *p, int64_t cells, int32_t *row)
{
    for (int64_t col = 0; col < cells; col++) {
        const int64_t v = parse_cell(&p);
        if (v < 0 || *p++ != (col + 1 < cells ? ',' : '\n'))
            return READ_BAD;
        row[col] = (int32_t)v;
    }
    return READ_OK;
}

/* Reads the complete lines at the start of buf[0, len), setting *used to the
 * bytes they take; the partial line after them is left for the next call.
 * A line must be `2 + cells` comma-separated non-negative decimal int32 cells
 * ending in '\n', the form write_trace writes. Per line it writes the chain,
 * the sweep and the index of its row; a row whose text is new is parsed into
 * the next row of `rows` and its text copied to the arena. Returns READ_OK,
 * READ_BAD at the first line outside that form (a sign, a space, '\r', an
 * empty line or cell, a value above INT32_MAX, a wrong cell count, a line
 * beyond max_lines), or a ROOM_ code when the rows or the arena are full:
 * *used is then the start of the line to read again once the caller has
 * grown them. After growing `slots` (zeroed) the caller sets `hashed` to 0,
 * and the rows are hashed in again here. */
int cdpmix_read_trace(Trace *t, const unsigned char *buf, int64_t len, int64_t *used)
{
    const uint64_t mask = (uint64_t)t->n_slots - 1;
    for (; t->hashed < t->n_rows; t->hashed++) {
        uint64_t s = t->hashes[t->hashed] & mask;
        while (t->slots[s])
            s = (s + 1) & mask;
        t->slots[s] = t->hashed + 1;
    }
    const unsigned char *p = buf, *nl;
    *used = 0;
    while ((nl = memchr(p, '\n', (size_t)(buf + len - p))) != NULL) {
        const unsigned char *q = p;
        const int64_t chain = parse_cell(&q);
        if (chain < 0 || *q++ != ',')
            return READ_BAD;
        const int64_t sweep = parse_cell(&q);
        if (sweep < 0 || *q++ != ',')
            return READ_BAD;
        if (t->lines == t->max_lines)
            return READ_BAD;
        const int64_t size = nl - q;
        const uint64_t h = hash_text(q, size);
        int64_t *slot = find_slot(t, q, size, h);
        if (*slot == 0) {
            const int64_t r = t->n_rows, start = r ? t->ends[r - 1] : 0;
            if (r == t->max_rows)
                return ROOM_ROWS;
            if (start + size > t->arena_size)
                return ROOM_TEXT;
            if (parse_row(q, t->cells, t->rows + r * t->cells) != READ_OK)
                return READ_BAD;
            memcpy(t->arena + start, q, (size_t)size);
            t->hashes[r] = h;
            t->ends[r] = start + size;
            t->hashed = t->n_rows = r + 1;
            *slot = r + 1;
        }
        t->chain[t->lines] = (int32_t)chain;
        t->sweep[t->lines] = (int32_t)sweep;
        t->index[t->lines++] = *slot - 1;
        p = nl + 1;
        *used = p - buf;
    }
    return READ_OK;
}
