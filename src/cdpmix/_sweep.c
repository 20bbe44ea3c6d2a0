/* Blocks of single-item collapsed Gibbs sweeps over flat arrays, and the
 * reader of the trace files they end up in.
 *
 * This is the compiled form of ChainState.reallocate_item (gibbs.py) applied
 * to items 0..n-1 in order, `sweeps` times over. It repeats the Python sweep
 * operation for operation: every log marginal through log_marginal, the one
 * compiled port of the engine's log_m, the candidates in the insertion order
 * of the live clusters (existing ones, then one new cluster per colour)
 * priced through the prior's urn tables, and the draw of _draw, one uniform
 * against the running totals of exp(logw - max). Built without fast-math and without
 * contraction into fused multiply-adds, it gives the same doubles as the
 * interpreter, so a seeded chain draws the same states.
 *
 * A block can also record chosen sweeps as it goes: the canonical labelling
 * of the state (see canonical: clusters numbered by least member) and the live
 * clusters' log marginals in insertion order, which is all a trace record
 * needs besides the prior.
 *
 * Clusters live in slots 0..n-1; `order` lists the live slots in insertion
 * order and `free_slots` is a stack of the others. Per colour c the static
 * tables are laid out as [c][item][pmax] (xi), [c][item] (yy, singles),
 * [c][count][pmax] (reciprocals) and [c][count] (posterior shape and
 * constant), for counts 0..n+1.
 *
 * The prior enters only through its urn tables (priors.py, urn_tables): with
 * item i withdrawn, d clusters left and m items of colour c, an existing
 * cluster of colour c and size s weighs (s + offsets[c]) * factors[c][m] and
 * a new one new[c][m] * by_degree[d], for m and d in 0..n. The kernel knows
 * no prior family.
 *
 * The library has two exports: cdpmix_sweeps runs the blocks, and
 * cdpmix_read_trace reads the body of a trace.csv as write_trace writes it.
 * Chains revisit few states, so the reader parses each distinct
 * label-and-colour text once: a line whose text it has seen before is matched
 * against a copy of that text and not parsed again.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

enum { OK = 0, RATE_COLLAPSED = 1, WEIGHTS_VANISHED = 2 };

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
    int64_t *n_clusters, *next_cid, *n_free;
    int64_t *order, *free_slots;            /* [n] */
    int64_t *cid, *colour, *count;          /* per slot */
    double *z, *yty, *log_m;                /* per slot ([slot][pmax] for z) */
    int64_t *item_slot;                     /* [n] */
    int64_t *colour_totals;                 /* [n_colours] */
    /* scratch of n + n_colours entries */
    double *logw, *after, *totals;
    int64_t *target;                        /* slot, or -1 - colour for a new cluster */
    int64_t *rank;                          /* [n]: a slot's canonical number, for labelling */
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

static int withdraw(Kernel *k, int64_t i)
{
    const int64_t s = k->item_slot[i], c = k->colour[s], pmax = k->pmax;
    k->count[s] -= 1;
    k->colour_totals[c] -= 1;
    k->item_slot[i] = -1;
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
    const double *x = k->xi + (c * k->n + i) * pmax;
    for (int64_t d = 0; d < k->p[c]; d++)
        z[d] = z[d] - x[d];
    k->yty[s] -= k->yy[c * k->n + i];
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
        k->cid[s] = (*k->next_cid)++;
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

/* Runs `sweeps` sweeps, drawing item i of sweep t with uniforms[t * n + i]
 * and taking the records `rec` asks for (none when it is NULL). Returns OK
 * or the error that stopped it; the state is then mid-move. */
int cdpmix_sweeps(Kernel *k, const double *uniforms, int64_t sweeps, Records *rec)
{
    const int64_t n = k->n;
    int64_t r = 0, packed = 0;
    for (int64_t t = 0; t < sweeps; t++) {
        for (int64_t i = 0; i < n; i++) {
            int status = withdraw(k, i);
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
            const int64_t d = canonical(k, rec->labels + r * n, rec->colours + r * n,
                                        rec->cl_colour + packed, rec->cl_size + packed);
            for (int64_t j = 0; j < d; j++)
                rec->log_m[packed + j] = k->log_m[k->order[j]];
            rec->degree[r++] = d;
            packed += d;
        }
    }
    return OK;
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
