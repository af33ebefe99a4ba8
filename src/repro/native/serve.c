/*
 * Serve core of the fast kernel (repro.sim.fastkernel).
 *
 * repro_serve_coupled walks one batch of requests in arrival order through
 * each disk's FIFO queue and DPM-ladder descent schedule: the Lindley
 * recursion of paper Figure 1, extended to multi-rung ladders.  Every
 * batch of a run goes through it: read-only and write streams, fixed and
 * controlled thresholds, scheduled releases and chunks.  With a shared
 * whole-file cache (LRU, FIFO, CLOCK or LFU, kept in per-file-id arrays)
 * the walk also drains the pending cache admissions due before each
 * arrival, looks the file up, and serves only misses and writes; without
 * one it serves every request.  A write of an unmapped file is placed
 * here, by the run's row of the write-placement rule table
 * (repro.system.placement), against the bank's live spin state, free
 * bytes and load.  The arithmetic is the Python reference's, term for
 * term and in the same order, so starts, per-disk state, placements, cache
 * state and every logged record come out bit for bit equal to it (build
 * with -ffp-contract=off and without -ffast-math).
 *
 * Gap-log records are sorted by disk (arrival order inside each disk) and
 * span records by (kind, rung) (arrival order inside each key) before they
 * are handed back.  A call stops early when a record buffer could overflow,
 * at a write no disk has room for and at a read of an unmapped file, and
 * returns the position reached; the caller drains the records, acts, and
 * calls again with that position to resume the walk.
 */

#include <stdint.h>
#include <string.h>

typedef struct {
    /* pool constants */
    int64_t D;            /* disks */
    int64_t maxR;         /* residency row width (deepest ladder) */
    int64_t W;            /* schedule row width, max(maxR, 2) */
    double T;             /* horizon */
    double ci;            /* control interval (controlled runs) */
    const double *oh;     /* [D] access overhead */
    const int64_t *R;     /* [D] rungs per ladder */
    const double *dn;     /* [D*maxR] descent time per rung */
    const double *wk;     /* [D*maxR] wake time per rung */
    /* per-disk state, copied in and out by the caller */
    double *avail, *load, *pt, *pv;  /* [D] */
    int64_t *n_up, *n_down;          /* [D] */
    double *park, *down, *wake;      /* [D*maxR] residencies */
    /* descent schedules: fixed runs [D*W]; controlled runs one [D*W]
     * block per control interval, with thresholds [(k+1)*D] */
    const double *ent;
    const double *th;     /* NULL for fixed thresholds */
    int64_t k;            /* current interval row */
    int64_t *first;       /* [D+1] (work space) */
    /* gap log (controlled): records of this call, sorted by disk, with
     * per-disk counts (gap_d and gap_tmp are work space) */
    int64_t gap_cap, n_gap;
    double *gap_g, *gap_th;
    int64_t *gap_d;
    double *gap_tmp;      /* [2*gap_cap] */
    int64_t *gap_n;       /* [D] */
    /* spans: raw records of this call, then sorted by key */
    int64_t span_cap, n_span;
    int64_t *span_key, *span_d;
    double *span_s, *span_e;
    int64_t *out_d;
    double *out_s, *out_e;
    int64_t *key_n;       /* [3*maxR] records per key */
} serve_args;

enum { PARK = 0, DOWN = 1, WAKE = 2 };

/* Lets the loader check its ctypes mirror of serve_args. */
int64_t repro_serve_args_size(void)
{
    return (int64_t)sizeof(serve_args);
}

static inline void put_span(serve_args *a, int64_t kind, int64_t i,
                            int64_t d, double s, double e)
{
    int64_t m = a->n_span++;
    a->span_key[m] = kind * a->maxR + i;
    a->span_d[m] = d;
    a->span_s[m] = s;
    a->span_e[m] = e;
}

static inline double clip(double x, double T)
{
    return T < x ? T : x;  /* Python's min(x, T) */
}

/* Walk the idle gap [av, t) down disk d's ladder; returns the wake
 * completion (service start) and bills every residency touched. */
static double descend(serve_args *a, int64_t d, double av, double t,
                      const double *E, int spans)
{
    const double T = a->T;
    const int64_t R = a->R[d];
    const double *dn = a->dn + d * a->maxR;
    double *down_t = a->down + d * a->maxR;
    double *park_t = a->park + d * a->maxR;
    double g = t - av;
    int64_t i = 1;
    while (i + 1 < R && g > E[i + 1])
        i++;
    for (int64_t j = 1; j < i; j++) {
        /* Rungs fully traversed before the arrival. */
        double ds = av + E[j];
        double de = ds + dn[j];
        down_t[j] += de - ds;
        if (spans)
            put_span(a, DOWN, j, d, ds, de);
        double pe = av + E[j + 1];
        if (pe > de) {
            park_t[j] += pe - de;
            if (spans)
                put_span(a, PARK, j, d, de, pe);
        }
    }
    double ds = av + E[i];
    double de = ds + dn[i];
    double ws;
    a->n_down[d] += i;
    down_t[i] += clip(de, T) - ds;
    if (spans)
        put_span(a, DOWN, i, d, ds, de);
    if (t >= de) {
        park_t[i] += t - de;
        if (spans)
            put_span(a, PARK, i, d, de, t);
        ws = t;
    } else {
        ws = de;  /* arrived mid-descent: not abortable */
    }
    double we = ws + a->wk[d * a->maxR + i];
    if (ws < T) {
        a->n_up[d] += 1;
        a->wake[d * a->maxR + i] += clip(we, T) - ws;
        if (spans)
            put_span(a, WAKE, i, d, ws, we);
    }
    return we;
}

/* Sort this call's span records by key (stable) into the out arrays. */
static void sort_spans(serve_args *a)
{
    const int64_t keys = 3 * a->maxR;
    int64_t *key_n = a->key_n;
    memset(key_n, 0, (size_t)keys * sizeof *key_n);
    for (int64_t m = 0; m < a->n_span; m++)
        key_n[a->span_key[m]]++;
    int64_t pos = 0;
    for (int64_t key = 0; key < keys; key++) {
        int64_t c = key_n[key];
        key_n[key] = pos;
        pos += c;
    }
    for (int64_t m = 0; m < a->n_span; m++) {
        int64_t q = key_n[a->span_key[m]]++;
        a->out_d[q] = a->span_d[m];
        a->out_s[q] = a->span_s[m];
        a->out_e[q] = a->span_e[m];
    }
    /* Back from end offsets to counts. */
    int64_t prev = 0;
    for (int64_t key = 0; key < keys; key++) {
        int64_t end = key_n[key];
        key_n[key] = end - prev;
        prev = end;
    }
}

/* Log one closed idle gap of disk d: the gap and the threshold in effect
 * at its drain instant. */
static inline void put_gap(serve_args *a, int64_t d, double g, double th)
{
    int64_t m = a->n_gap++;
    a->gap_g[m] = g;
    a->gap_th[m] = th;
    a->gap_d[m] = d;
    a->gap_n[d]++;
}

/* Whether one more request could overflow a record buffer. */
static inline int records_full(const serve_args *a, int spans)
{
    return (spans && a->n_span + 2 * a->maxR > a->span_cap)
        || (a->th != NULL && a->n_gap == a->gap_cap);
}

/* Queue a request arriving at t with transfer time tr on disk d, whose
 * state st = {avail, load, pt, pv} and schedule *E are updated in place;
 * returns the service start. */
static inline double step(serve_args *a, int64_t d, double st[4],
                          const double **E, double oh, double t, double tr,
                          int spans)
{
    const double av = st[0];
    double s;
    if (t != st[2]) {
        st[2] = t;
        st[3] = av;
    }
    if (t > av) {
        if (a->th != NULL) {
            /* The threshold in effect at the drain instant. */
            double q = av / a->ci;
            int64_t row = q < (double)a->k ? (int64_t)q : a->k;
            put_gap(a, d, t - av, a->th[row * a->D + d]);
            *E = a->ent + (row * a->D + d) * a->W;
        }
        s = (t - av <= (*E)[1]) ? t : descend(a, d, av, t, *E, spans);
    } else {
        s = av;
    }
    st[0] = s + oh + tr;
    st[1] += oh + tr;
    return s;
}

/* ---------------------------------------------------------------------
 * The walk, and the shared whole-file cache it may run in front of the
 * disks.
 * ------------------------------------------------------------------- */

enum { LRU = 0, FIFO = 1, CLOCK = 2, LFU = 3 };
enum { EV_HIT = 0, EV_MISS = 1, EV_ADMIT = 2, EV_EVICT = 3 };
enum {
    STOP_DONE = 0,      /* batch served (or horizon drain done) */
    STOP_FULL = 1,      /* a record or event buffer is full: drain, resume */
    STOP_NO_ROOM = 2,   /* write of an unmapped file no disk has room for */
    STOP_UNMAPPED = 3,  /* read of an unmapped file (its miss is counted) */
    STOP_BAD_FILE = 4,  /* file id outside the catalog */
    STOP_BAD_DISK = 5,  /* mapping names a disk outside the pool */
};

typedef struct {        /* a pending admission: a miss's completion */
    double c;
    int64_t seq, f;
    double size;
} admission;

typedef struct {        /* an LFU (frequency, seq, file) snapshot */
    int64_t freq, seq, f;
} snapshot;

typedef struct {
    serve_args *s;        /* the bank */
    int64_t cached;       /* 0: no cache, every request is served */
    int64_t policy;       /* LRU, FIFO, CLOCK or LFU */
    int64_t nf;           /* catalog files: stream ids must be below */
    double capacity;
    const double *size;   /* [nf] catalog sizes */
    int64_t *map;         /* [nf] file -> disk, -1 until a write places it */
    const double *rate;   /* [D] transfer rates */
    /* write placement: free bytes each placement debits, the active power
     * key, the rule-table row (candidates, key, direction, fallback) and
     * the round-robin cursor */
    double *free;         /* [D] */
    const double *ap;     /* [D] */
    int64_t pl_spin, pl_key, pl_max, pl_fallback, cursor;
    /* placements of this call (pl_cap 0: not recorded) */
    int64_t pl_cap, pl_n;
    double *pl_t;
    int64_t *pl_f, *pl_d;
    /* cache state, per file id: resident size, eviction-order list
     * (head is the next victim), residency, CLOCK reference bit and LFU
     * frequency */
    double *csize;
    int64_t *nxt, *prv;
    uint8_t *res, *ref;
    int64_t *freq;
    int64_t head, tail, count;
    double used;
    int64_t hits, misses, insertions, evictions, rejected;
    double bytes_hit, bytes_missed;
    /* LFU lazy snapshot heap, in heapq's exact layout */
    snapshot *lh;
    int64_t lh_n, lh_cap, lh_seq;
    /* pending admissions, a min-heap on (completion, global seq) */
    admission *ad;
    int64_t ad_n, ad_cap;
    /* the batch (final: no batch, admit everything due before T) */
    int64_t n, base, final;
    const int64_t *fid;
    const double *t;
    const uint8_t *w;     /* NULL: no writes in the batch */
    double *starts;
    int64_t *dreq;        /* serving disk, -1 for a hit */
    /* cache events of this call (ev_cap 0: not recorded) */
    int64_t ev_cap, ev_n;
    double *ev_t;
    int8_t *ev_k;
    int64_t *ev_f;
    int64_t stop;
} coupled_args;

int64_t repro_coupled_args_size(void)
{
    return (int64_t)sizeof(coupled_args);
}

static inline void emit(coupled_args *c, double t, int8_t kind, int64_t f)
{
    if (c->ev_cap) {
        int64_t m = c->ev_n++;
        c->ev_t[m] = t;
        c->ev_k[m] = kind;
        c->ev_f[m] = f;
    }
}

static inline void unlink_file(coupled_args *c, int64_t f)
{
    int64_t p = c->prv[f], q = c->nxt[f];
    if (p >= 0)
        c->nxt[p] = q;
    else
        c->head = q;
    if (q >= 0)
        c->prv[q] = p;
    else
        c->tail = p;
}

static inline void append_file(coupled_args *c, int64_t f)
{
    c->prv[f] = c->tail;
    c->nxt[f] = -1;
    if (c->tail >= 0)
        c->nxt[c->tail] = f;
    else
        c->head = f;
    c->tail = f;
}

/* heapq's tuple order on (freq, seq, file). */
static inline int snap_less(const snapshot *x, const snapshot *y)
{
    if (x->freq != y->freq)
        return x->freq < y->freq;
    if (x->seq != y->seq)
        return x->seq < y->seq;
    return x->f < y->f;
}

/* heapq._siftdown */
static void snap_siftdown(snapshot *h, int64_t start, int64_t pos)
{
    snapshot item = h[pos];
    while (pos > start) {
        int64_t parent = (pos - 1) >> 1;
        if (!snap_less(&item, &h[parent]))
            break;
        h[pos] = h[parent];
        pos = parent;
    }
    h[pos] = item;
}

/* heapq._siftup */
static void snap_siftup(snapshot *h, int64_t end, int64_t pos)
{
    const int64_t start = pos;
    snapshot item = h[pos];
    int64_t child = 2 * pos + 1;
    while (child < end) {
        int64_t right = child + 1;
        if (right < end && !snap_less(&h[child], &h[right]))
            child = right;
        h[pos] = h[child];
        pos = child;
        child = 2 * pos + 1;
    }
    h[pos] = item;
    snap_siftdown(h, start, pos);
}

static void lfu_push(coupled_args *c, int64_t f)
{
    snapshot *x = &c->lh[c->lh_n];
    x->freq = c->freq[f];
    x->seq = c->lh_seq++;
    x->f = f;
    snap_siftdown(c->lh, 0, c->lh_n++);
}

static void lfu_pop(coupled_args *c)
{
    snapshot last = c->lh[--c->lh_n];
    if (c->lh_n) {
        c->lh[0] = last;
        snap_siftup(c->lh, c->lh_n, 0);
    }
}

/* A hit, or the admission of a resident file. */
static inline void on_hit(coupled_args *c, int64_t f)
{
    switch (c->policy) {
    case LRU:
        unlink_file(c, f);
        append_file(c, f);
        break;
    case CLOCK:
        c->ref[f] = 1;
        break;
    case LFU:
        c->freq[f]++;
        lfu_push(c, f);
        break;
    }
}

/* Remove the next victim from the eviction order; returns its id. */
static int64_t pop_victim(coupled_args *c)
{
    int64_t f;
    switch (c->policy) {
    case CLOCK:
        for (;;) {
            f = c->head;
            unlink_file(c, f);
            if (!c->ref[f])
                break;
            c->ref[f] = 0;  /* second chance: behind the hand */
            append_file(c, f);
        }
        break;
    case LFU:
        for (;;) {
            /* A valid top snapshot stays on the heap (LFUCache does the
             * same): a re-admitted file ranks by it until it is popped. */
            f = c->lh[0].f;
            if (c->res[f] && c->freq[f] == c->lh[0].freq) {
                unlink_file(c, f);
                break;
            }
            lfu_pop(c);  /* stale snapshot */
        }
        break;
    default:
        f = c->head;
        unlink_file(c, f);
    }
    c->res[f] = 0;
    c->count--;
    return f;
}

static void admit(coupled_args *c, int64_t f, double size, double now)
{
    if (size > c->capacity) {
        c->rejected++;
        return;
    }
    if (c->res[f]) {
        on_hit(c, f);
        return;
    }
    while (c->count && c->used + size > c->capacity) {
        int64_t v = pop_victim(c);
        c->used -= c->csize[v];
        if (!c->count)
            c->used = 0.0;  /* no float residue in an empty cache */
        c->evictions++;
        emit(c, now, EV_EVICT, v);
    }
    append_file(c, f);
    c->res[f] = 1;
    c->csize[f] = size;
    c->count++;
    c->used += size;
    c->insertions++;
    if (c->policy == LFU) {
        c->freq[f] = 1;
        lfu_push(c, f);
    }
}

static inline int lookup(coupled_args *c, int64_t f, double size)
{
    if (c->res[f]) {
        c->hits++;
        c->bytes_hit += size;
        on_hit(c, f);
        return 1;
    }
    c->misses++;
    c->bytes_missed += size;
    return 0;
}

static inline int ad_less(const admission *x, const admission *y)
{
    return x->c < y->c || (x->c == y->c && x->seq < y->seq);
}

static void ad_push(coupled_args *c, double done, int64_t seq, int64_t f,
                    double size)
{
    admission *h = c->ad;
    int64_t pos = c->ad_n++;
    admission item = {done, seq, f, size};
    while (pos > 0) {
        int64_t parent = (pos - 1) >> 1;
        if (!ad_less(&item, &h[parent]))
            break;
        h[pos] = h[parent];
        pos = parent;
    }
    h[pos] = item;
}

static admission ad_pop(coupled_args *c)
{
    admission *h = c->ad;
    admission top = h[0];
    admission last = h[--c->ad_n];
    int64_t n = c->ad_n, pos = 0;
    if (n) {
        for (;;) {
            int64_t child = 2 * pos + 1;
            if (child >= n)
                break;
            if (child + 1 < n && ad_less(&h[child + 1], &h[child]))
                child++;
            if (!ad_less(&h[child], &last))
                break;
            h[pos] = h[child];
            pos = child;
        }
        h[pos] = last;
    }
    return top;
}

/* Admit the pending completions before limit (at it too when inclusive),
 * in (completion, seq) order; -1 if the event buffer fills first. */
static int drain(coupled_args *c, double limit, int inclusive)
{
    while (c->ad_n) {
        const double top = c->ad[0].c;
        if (inclusive ? !(top <= limit) : !(top < limit))
            break;
        if (c->ev_cap && c->ev_n + 1 + c->count > c->ev_cap)
            return -1;  /* room for the admit and every eviction */
        admission x = ad_pop(c);
        emit(c, x.c, EV_ADMIT, x.f);
        admit(c, x.f, x.size, x.c);
    }
    return 0;
}

/* ---------------------------------------------------------------------
 * Write placement: one rule-table row, evaluated on the bank's arrays.
 * ------------------------------------------------------------------- */

enum { KEY_FREE = 0, KEY_ID = 1, KEY_LOAD = 2, KEY_POWER = 3, KEY_CURSOR = 4 };
enum { FALLBACK_NONE = 0, FALLBACK_WORST = 1, FALLBACK_BEST = 2 };

/* Whether disk d is spinning at t: not parked in its deepest rung.  A
 * drained disk spins until its last descent ends, and a working one
 * always does.  Serves earlier in the same instant are not seen: the
 * disk's avail as of the start of instant t (pv) stands in, as the event
 * engine's drive processes have not run yet.  The last descent starts at
 * the schedule row in effect at the drain instant; an inf entry never
 * parks. */
static inline int spinning(const serve_args *a, int64_t d, double t)
{
    const double av = a->pt[d] == t ? a->pv[d] : a->avail[d];
    int64_t row = 0;
    if (a->th != NULL) {
        const double q = av / a->ci;
        row = q < (double)a->k ? (int64_t)q : a->k;
    }
    const int64_t R = a->R[d];
    const double last = a->ent[(row * a->D + d) * a->W + (R > 2 ? R - 1 : 1)];
    return t < (av + last) + a->dn[d * a->maxR + R - 1];
}

/* The disk with room (and spinning, with spin) whose key is smallest
 * (largest, with max) for a size-byte file written at t, or -1.  Ties go
 * to the lowest disk id, as NumPy's argmin and argmax keep the first. */
static int64_t pick(const coupled_args *c, double size, double t, int spin,
                    int64_t key_code, int max)
{
    const serve_args *a = c->s;
    const double *key = key_code == KEY_FREE ? c->free
        : key_code == KEY_LOAD ? a->load
        : key_code == KEY_POWER ? c->ap : NULL;
    int64_t best = -1;
    double bk = 0.0;
    for (int64_t d = 0; d < a->D; d++) {
        if (!(c->free[d] >= size) || (spin && !spinning(a, d, t)))
            continue;
        const double v = key != NULL ? key[d] : (double)d;
        if (best < 0 || (max ? v > bk : v < bk)) {
            best = d;
            bk = v;
        }
    }
    return best;
}

/* The disk the rule row places a size-byte file written at t on, or -1
 * when no disk has room. */
static int64_t place(coupled_args *c, double size, double t)
{
    const int64_t D = c->s->D;
    if (c->pl_key == KEY_CURSOR) {
        int64_t d = c->cursor % D;
        if (d < 0)
            d += D;
        for (int64_t j = 0; j < D; j++, d = d + 1 == D ? 0 : d + 1) {
            if (c->free[d] >= size) {
                c->cursor = d + 1 == D ? 0 : d + 1;
                return d;
            }
        }
        return -1;
    }
    int64_t d = pick(c, size, t, c->pl_spin != 0, c->pl_key, c->pl_max != 0);
    if (d < 0 && c->pl_spin && c->pl_fallback != FALLBACK_NONE)
        /* No spinning disk has room: worst-fit (most room) or best-fit. */
        d = pick(c, size, t, 0, KEY_FREE, c->pl_fallback == FALLBACK_WORST);
    return d;
}

/* Stable counting sort of this call's arrival-order gap records by
 * disk. */
static void sort_gaps(serve_args *a)
{
    const int64_t m = a->n_gap;
    int64_t *first = a->first;
    double *tg = a->gap_tmp, *tth = a->gap_tmp + a->gap_cap;
    first[0] = 0;
    for (int64_t d = 0; d < a->D; d++)
        first[d + 1] = first[d] + a->gap_n[d];
    for (int64_t r = 0; r < m; r++) {
        int64_t q = first[a->gap_d[r]]++;
        tg[q] = a->gap_g[r];
        tth[q] = a->gap_th[r];
    }
    memcpy(a->gap_g, tg, (size_t)m * sizeof *tg);
    memcpy(a->gap_th, tth, (size_t)m * sizeof *tth);
}

/* Walk the batch in arrival order from position pos; returns the position
 * reached, with the reason in c->stop.  The caller takes the records,
 * placements and cache events at every stop and zeroes their counts; the
 * records are sorted at every stop. */
int64_t repro_serve_coupled(coupled_args *c, int64_t pos)
{
    serve_args *a = c->s;
    const int spans = a->span_cap > 0;
    const int cached = c->cached != 0;
    const int64_t D = a->D;
    c->stop = STOP_DONE;
    int64_t i = pos;
    if (c->final) {
        /* The horizon: admissions at or after T never happen. */
        if (drain(c, a->T, 0) < 0)
            c->stop = STOP_FULL;
        return i;
    }
    for (; i < c->n; i++) {
        const double t = c->t[i];
        if (drain(c, t, 1) < 0) {
            c->stop = STOP_FULL;
            break;
        }
        const int64_t f = c->fid[i];
        if (f < 0 || f >= c->nf) {
            c->stop = STOP_BAD_FILE;
            break;
        }
        const double size = c->size[f];
        const int write = c->w != NULL && c->w[i];
        if (records_full(a, spans) || (c->ev_cap && c->ev_n == c->ev_cap)
            || (c->pl_cap && c->pl_n == c->pl_cap)) {
            c->stop = STOP_FULL;
            break;
        }
        if (!write && cached) {
            if (lookup(c, f, size)) {
                emit(c, t, EV_HIT, f);
                c->starts[i] = t;  /* a hit completes at its arrival */
                c->dreq[i] = -1;
                continue;
            }
            emit(c, t, EV_MISS, f);
        }
        int64_t d = c->map[f];
        if (d < 0) {
            if (!write) {
                c->stop = STOP_UNMAPPED;
                break;
            }
            d = place(c, size, t);
            if (d < 0) {
                c->stop = STOP_NO_ROOM;
                break;
            }
            c->map[f] = d;
            c->free[d] -= size;
            if (c->pl_cap) {
                const int64_t m = c->pl_n++;
                c->pl_t[m] = t;
                c->pl_f[m] = f;
                c->pl_d[m] = d;
            }
        } else if (d >= D) {
            c->stop = STOP_BAD_DISK;
            break;
        }
        const double tr = size / c->rate[d];
        const double oh = a->oh[d];
        double st[4] = {a->avail[d], a->load[d], a->pt[d], a->pv[d]};
        const double *E = a->ent + d * a->W;
        const double s = step(a, d, st, &E, oh, t, tr, spans);
        a->avail[d] = st[0];
        a->load[d] = st[1];
        a->pt[d] = st[2];
        a->pv[d] = st[3];
        c->starts[i] = s;
        c->dreq[i] = d;
        if (!write && cached) {
            const double done = s + oh + tr;
            if (done < a->T)
                ad_push(c, done, c->base + i, f, size);
        }
    }
    if (a->th != NULL && a->n_gap)
        sort_gaps(a);
    if (spans)
        sort_spans(a);
    return i;
}

/* The resident files in eviction order (head first) into out[count]. */
void repro_cache_order(const coupled_args *c, int64_t *out)
{
    int64_t m = 0;
    for (int64_t f = c->head; f >= 0; f = c->nxt[f])
        out[m++] = f;
}
