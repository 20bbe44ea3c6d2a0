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
 * Kernel holds one chain: its tables, its state, the scratch of a move, the
 * block a block move acts on and the records a block takes. Each sampler
 * export takes the kernel and scalars, and cdpmix_sweeps its uniforms too:
 *   cdpmix_sweeps       runs a block of sweeps, taking the first `records` of
 *                       the records that `at` asks for;
 *   cdpmix_withdraw     takes the block's m co-clustered items out of their
 *                       cluster (ChainState._withdraw);
 *   cdpmix_price_block  reports, per live cluster, what the prior needs to
 *                       price the withdrawn block into it, and the block's
 *                       log marginal in it and alone in a new cluster per
 *                       colour (ChainState.subset_candidates' marginals);
 *   cdpmix_place        puts the block into a cluster or a new one
 *                       (ChainState._place), re-pricing it on request;
 *   cdpmix_record       takes the state now as record 0;
 *   cdpmix_read_trace   indexes a mapped trace.csv body as write_trace writes it;
 *   cdpmix_parse_rows   then parses each distinct row of it once.
 * The block moves' draws and prior stay in Python: these exports only move
 * items and price marginals, so a chain's state stays in these arrays from
 * its first block to its last, subset moves and records included. They refuse
 * a block they cannot act on (BAD_BLOCK) before writing anything.
 * Chains revisit few states, so the reader parses each distinct
 * label-and-colour text once: a line whose text it has seen before is matched
 * against that text where it first occurs in the body, and not parsed.
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
    /* a block of m co-clustered items, increasing, moved together, and what
     * cdpmix_price_block reports once it is withdrawn: per live cluster j,
     * in insertion order, its colour, size, least member and log marginal,
     * and in block_after[j] its log marginal with the block added; in
     * block_after[live + c] the block's log marginal alone in a new cluster
     * of colour c */
    int64_t *block;                                   /* [n] */
    int64_t *block_colour, *block_size, *block_least; /* [live] */
    double *block_log_m, *block_after;                /* [live], [live + n_colours] */
    /* the records a block takes: after block-relative sweep at[r]
     * (increasing) record r is canonical into row r of labels and colours
     * ([record][n]) and the cluster count into degree[r], then the clusters'
     * colours and sizes and their log marginals in insertion order into
     * cl_colour, cl_size and cl_log_m, packed record after record */
    int64_t *at, *degree;                   /* [records] */
    int32_t *labels, *colours;              /* [records][n] */
    int64_t *cl_colour, *cl_size;           /* [records * n] */
    double *cl_log_m;                       /* [records * n] */
    int64_t m, live;          /* the block's size; the live clusters it was priced against */
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

/* Takes the state as record r, its clusters packed from `packed`; returns
 * the number of clusters. */
static int64_t take(Kernel *k, int64_t r, int64_t packed)
{
    const int64_t d = canonical(k, k->labels + r * k->n, k->colours + r * k->n,
                                k->cl_colour + packed, k->cl_size + packed);
    for (int64_t j = 0; j < d; j++)
        k->cl_log_m[packed + j] = k->log_m[k->order[j]];
    k->degree[r] = d;
    return d;
}

/* Runs `sweeps` sweeps, drawing item i of sweep t with uniforms[t * n + i]
 * and taking records 0..records-1 at the sweeps `at` names. Returns OK or
 * the error that stopped it; the state is then mid-move. */
int cdpmix_sweeps(Kernel *k, const double *uniforms, int64_t sweeps, int64_t records)
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
        if (r < records && k->at[r] == t) {
            packed += take(k, r, packed);
            r++;
        }
    }
    return OK;
}

/* Takes the state now as record 0 (`at` unread). */
void cdpmix_record(Kernel *k)
{
    take(k, 0, 0);
}

/* Whether the block holds 1..n increasing items, all withdrawn or else all
 * in one cluster: the exports below check it before touching the state. */
static int block_ok(const Kernel *k, int withdrawn)
{
    if (k->m < 1 || k->m > k->n)
        return 0;
    for (int64_t j = 0; j < k->m; j++) {
        const int64_t i = k->block[j];
        if (i < 0 || i >= k->n || (j > 0 && i <= k->block[j - 1]))
            return 0;
        const int64_t s = k->item_slot[i];
        if (withdrawn ? s != -1 : (s < 0 || s != k->item_slot[k->block[0]]))
            return 0;
    }
    return 1;
}

int cdpmix_withdraw(Kernel *k)
{
    if (!block_ok(k, 0))
        return BAD_BLOCK;
    return withdraw(k, k->block, k->m);
}

/* _summed: z is `start` (zeros when NULL) plus each block item's xi of
 * colour c in turn; returns 0.0 plus their yy in turn */
static double summed(const Kernel *k, int64_t c, const double *start, double *z)
{
    double yty = 0.0;
    for (int64_t d = 0; d < k->p[c]; d++)
        z[d] = start ? start[d] : 0.0;
    for (int64_t j = 0; j < k->m; j++) {
        const double *x = k->xi + (c * k->n + k->block[j]) * k->pmax;
        for (int64_t d = 0; d < k->p[c]; d++)
            z[d] = z[d] + x[d];
        yty += k->yy[c * k->n + k->block[j]];
    }
    return yty;
}

/* The marginals subset_candidates prices: a live cluster's with the block's
 * statistics, summed from zero, added to its own, and a new cluster's from
 * the colour's z0 and the items added one by one. */
int cdpmix_price_block(Kernel *k)
{
    const int64_t pmax = k->pmax, m = k->m, live = *k->n_clusters;
    double *z = k->zs;
    if (!block_ok(k, 1))
        return BAD_BLOCK;
    k->live = live;
    for (int64_t j = 0; j < live; j++) {
        const int64_t s = k->order[j];
        k->block_colour[j] = k->colour[s];
        k->block_size[j] = k->count[s];
        k->block_least[j] = -1;
        k->block_log_m[j] = k->log_m[s];
        k->rank[s] = j;
    }
    for (int64_t i = 0; i < k->n; i++) {
        const int64_t s = k->item_slot[i];
        if (s >= 0 && k->block_least[k->rank[s]] < 0)
            k->block_least[k->rank[s]] = i;
    }
    for (int64_t c = 0; c < k->n_colours; c++) {
        double yty = summed(k, c, NULL, z);
        for (int64_t j = 0; j < live; j++) {
            const int64_t s = k->order[j];
            if (k->colour[s] != c)
                continue;
            const int status = log_marginal(k, c, k->count[s] + m, k->z + s * pmax, k->yty[s],
                                            z, yty, &k->block_after[j]);
            if (status != OK)
                return status;
        }
        yty = summed(k, c, k->z0 + c * pmax, z);
        const int status = log_marginal(k, c, m, z, yty, NULL, 0.0, &k->block_after[live + c]);
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
int cdpmix_place(Kernel *k, int64_t target, double log_m_after, int reprice)
{
    if (!block_ok(k, 1) || target >= k->n || target < -k->n_colours
        || (target >= 0 && k->count[target] == 0))
        return BAD_BLOCK;
    for (int64_t j = 0; j < k->m; j++) {
        insert(k, k->block[j], target, log_m_after);
        target = k->item_slot[k->block[j]];
    }
    if (!reprice)
        return OK;
    return log_marginal(k, k->colour[target], k->count[target], k->z + target * k->pmax,
                        k->yty[target], NULL, 0.0, &k->log_m[target]);
}

/* The trace reader's buffers, all owned by the caller, which maps the body
 * read-only and sizes them once: no body has more distinct rows than lines.
 * A line is `chain,sweep,` and then its row: `cells` (at least 1)
 * comma-separated cells. The distinct rows are numbered in order of first
 * occurrence, row r's text running from body + starts[r] to the next newline,
 * and `slots` is an open-addressing table over their hashes. */
typedef struct {
    const unsigned char *body; /* [size] */
    int64_t size, cells;
    int32_t *chain, *sweep;  /* [max_lines] */
    int64_t *index;          /* [max_lines]: the line's row */
    int64_t lines, max_lines;
    int32_t *rows;           /* [n_rows][cells], bound once the body is indexed */
    uint64_t *hashes;        /* [max_lines]: hash of the row's text */
    int64_t *starts;         /* [max_lines]: where the row's text first occurs in the body */
    int64_t n_rows;
    int64_t *slots;          /* [n_slots], a power of two above 2 * max_lines: row + 1, or 0 */
    int64_t n_slots;
} Trace;

enum { READ_OK = 0, READ_BAD = 1 };

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
 * where that text goes. A row's text lies wholly before the line at p, so
 * its first len + 1 bytes are within the body. */
static int64_t *find_slot(const Trace *t, const unsigned char *p, int64_t len, uint64_t h)
{
    const uint64_t mask = (uint64_t)t->n_slots - 1;
    for (uint64_t s = h & mask;; s = (s + 1) & mask) {
        int64_t *slot = t->slots + s;
        if (*slot == 0)
            return slot;
        const int64_t r = *slot - 1;
        const unsigned char *text = t->body + t->starts[r];
        if (t->hashes[r] == h && memcmp(text, p, (size_t)len) == 0 && text[len] == '\n')
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

/* The indexing pass. Per line, `chain,sweep,` and then text ending in '\n',
 * it writes the chain, the sweep and the index of its row; a new text is the
 * next row, kept as its hash and where it starts, and is parsed later.
 * Returns READ_OK, or READ_BAD at the first line outside that form (a sign, a
 * space, an empty line, chain or sweep, a value above INT32_MAX, no final
 * '\n', a line beyond max_lines). */
int cdpmix_read_trace(Trace *t)
{
    for (int64_t pos = 0; pos < t->size;) {
        const unsigned char *q = t->body + pos;
        const unsigned char *nl = memchr(q, '\n', (size_t)(t->size - pos));
        if (nl == NULL)
            return READ_BAD;
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
            const int64_t r = t->n_rows++;
            t->hashes[r] = h;
            t->starts[r] = q - t->body;
            *slot = r + 1;
        }
        t->chain[t->lines] = (int32_t)chain;
        t->sweep[t->lines] = (int32_t)sweep;
        t->index[t->lines++] = *slot - 1;
        pos = nl + 1 - t->body;
    }
    return READ_OK;
}

/* The parsing pass, once `rows` is bound: each distinct row from its first
 * text, which its later lines repeat byte for byte, as `cells` non-negative
 * decimal int32 cells. READ_BAD at a row outside that form (a sign, a space,
 * '\r', an empty cell, a value above INT32_MAX, a wrong cell count). */
int cdpmix_parse_rows(Trace *t)
{
    for (int64_t r = 0; r < t->n_rows; r++)
        if (parse_row(t->body + t->starts[r], t->cells, t->rows + r * t->cells) != READ_OK)
            return READ_BAD;
    return READ_OK;
}
