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
 * with -ffp-contract=off and without -ffast-math).  The walk also writes
 * each request's completion (start + overhead + transfer) and response,
 * and bills its seek and transfer time before the horizon and its count
 * to its disk, in arrival order: the serial order of the NumPy
 * scatter-adds it replaced, so the per-disk sums are bit for bit theirs.
 *
 * repro_stable_order puts a run's completions in order: a counting sort
 * on a monotone bucket key, then a stable sort inside each bucket, the
 * permutation of NumPy's stable argsort.
 *
 * repro_p2_fold folds a batch of observations into one P² percentile
 * estimator's markers (the running p95/p99 the slo_feedback controller
 * steers by, and the streaming metrics' percentiles), statement for
 * statement the Python loop of repro.control.telemetry.
 *
 * repro_release decides the release times of one block of arrivals for
 * the forecasting request schedulers (slack_defer, spinup_coalesce) and
 * updates their two-state disk forecast, statement for statement the
 * Python loops of repro.system.scheduling.
 *
 * repro_bin_spans adds the overlap seconds of logged state spans with the
 * control-interval windows (a controlled run's per-interval power trace),
 * pass for pass the NumPy scatter-adds it replaced.
 *
 * Gap-log records are handed back in arrival order, and span records
 * sorted by (kind, rung) (arrival order inside each key).  A call stops
 * early when a record buffer could overflow, at a write no disk has room
 * for and at a read of an unmapped file, and returns the position reached;
 * the caller drains the records, acts, and calls again with that position
 * to resume the walk.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
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
    /* service accounting: seek and transfer seconds before T, requests */
    double *seek_t, *active_t;       /* [D] */
    int64_t *n_req;                  /* [D] */
    /* descent schedules: fixed runs [D*W]; controlled runs one [D*W]
     * block per control interval, with thresholds [(k+1)*D] */
    const double *ent;
    const double *th;     /* NULL for fixed thresholds */
    int64_t k;            /* current interval row */
    /* gap log (controlled): records of this call in arrival order */
    int64_t gap_cap, n_gap;
    double *gap_g, *gap_th;
    int64_t *gap_d;
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
    double *starts;       /* service start (NULL: not recorded) */
    int64_t *dreq;        /* serving disk, -1 for a hit (with starts) */
    double *comp, *resp;  /* completion; response from the arrival */
    const double *hold;   /* NULL, or each request's scheduler hold */
    double hit_lat;       /* a hit's response */
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

/* NumPy's clip(x, 0, hi): NaN passes through. */
static inline double clip0(double x, double hi)
{
    if (x != x)
        return x;
    x = x > 0.0 ? x : 0.0;
    return x < hi ? x : hi;
}

/* Bill a request served on disk d from s, with overhead oh and transfer
 * tr, truncated at the horizon; requests are billed in arrival order. */
static inline void bill(serve_args *a, int64_t d, double s, double oh,
                        double tr)
{
    a->seek_t[d] += clip0(a->T - s, oh);
    a->active_t[d] += clip0(a->T - (s + oh), tr);
    a->n_req[d] += 1;
}

/* Record request i's completion and its response: from the arrival t,
 * plus the hit latency for a hit, plus the request's scheduler hold. */
static inline void complete(coupled_args *c, int64_t i, double t,
                            double done, int hit)
{
    double r = done - t;
    if (hit)
        r += c->hit_lat;
    if (c->hold != NULL)
        r += c->hold[i];
    c->comp[i] = done;
    c->resp[i] = r;
}

/* Walk the batch in arrival order from position pos; returns the position
 * reached, with the reason in c->stop.  The caller takes the records,
 * placements and cache events at every stop and zeroes their counts; the
 * span records are sorted at every stop. */
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
                /* A hit completes at its arrival (the served formula
                 * with no overhead or transfer) and bills no disk. */
                if (c->starts != NULL) {
                    c->starts[i] = t;
                    c->dreq[i] = -1;
                }
                complete(c, i, t, t + 0.0, 1);
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
        const double done = s + oh + tr;
        if (c->starts != NULL) {
            c->starts[i] = s;
            c->dreq[i] = d;
        }
        complete(c, i, t, done, 0);
        bill(a, d, s, oh, tr);
        if (!write && cached && done < a->T)
            ad_push(c, done, c->base + i, f, size);
    }
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

/* ---------------------------------------------------------------------
 * Completion order: the stable argsort of a run's completion (or release)
 * times, NumPy's np.argsort(x, kind="stable") permutation.
 * ------------------------------------------------------------------- */

/* Buckets of more values than this are merge-sorted, so clustered values
 * cost O(m log m), never O(m^2). */
enum { SMALL_BUCKET = 32 };

/* NumPy's sort order: NaN after every number. */
static inline int before(double x, double y)
{
    return x < y || (y != y && x == x);
}

static inline int is_finite(double x)
{
    return x - x == 0.0;
}

/* Stable insertion sort of the indices ix[m] by their values in x. */
static void insertion_sort(const double *x, int64_t *ix, int64_t m)
{
    for (int64_t i = 1; i < m; i++) {
        const int64_t k = ix[i];
        const double v = x[k];
        int64_t j = i;
        for (; j > 0 && before(v, x[ix[j - 1]]); j--)
            ix[j] = ix[j - 1];
        ix[j] = k;
    }
}

/* Stable merge sort of the indices ix[m] by their values in x, with work
 * space for m / 2 indices in tmp. */
static void merge_sort(const double *x, int64_t *ix, int64_t m, int64_t *tmp)
{
    if (m <= SMALL_BUCKET) {
        insertion_sort(x, ix, m);
        return;
    }
    const int64_t h = m / 2;
    merge_sort(x, ix, h, tmp);
    merge_sort(x, ix + h, m - h, tmp);
    if (!before(x[ix[h]], x[ix[h - 1]]))
        return;  /* the halves are already in order */
    memcpy(tmp, ix, (size_t)h * sizeof *tmp);
    /* Merge the left half (now in tmp) with the right one in place: the
     * write position never passes the right half's read position.  Ties
     * take the left index first. */
    int64_t i = 0, j = h, k = 0;
    while (i < h && j < m)
        ix[k++] = before(x[ix[j]], x[tmp[i]]) ? ix[j++] : tmp[i++];
    while (i < h)
        ix[k++] = tmp[i++];
}

/* The monotone bucket of x among nb buckets over [lo, lo + nb / scale]. */
static inline int64_t bucket(double x, double lo, double scale, int64_t nb)
{
    const double q = (x - lo) * scale;
    return q < (double)nb ? (int64_t)q : nb - 1;
}

/* The stable argsort of x[n] into out[n]; returns 0, or -1 when work space
 * could not be allocated.
 *
 * Finite values with a positive spread go through a counting sort on the
 * monotone bucket key floor((x - lo) * n / (hi - lo)), clamped to the last
 * bucket: no value is larger than one in a later bucket, and the scatter
 * keeps index order inside each bucket.  Buckets of more than SMALL_BUCKET
 * values (clustered completions) are merge-sorted; then one insertion pass
 * finishes the rest, moving each index fewer than SMALL_BUCKET places, as
 * none passes an equal or smaller value.  Anything else (NaN, infinities,
 * one distinct value, a spread too small to scale) is merge-sorted
 * whole. */
int64_t repro_stable_order(const double *x, int64_t n, int64_t *out)
{
    if (n <= 0)
        return 0;
    double lo = x[0], hi = x[0];
    int finite = 1;
    for (int64_t i = 0; i < n; i++) {
        const double xi = x[i];
        finite &= is_finite(xi);
        lo = xi < lo ? xi : lo;
        hi = xi > hi ? xi : hi;
    }
    const double scale = (double)n / (hi - lo);
    if (!(finite && hi > lo && is_finite(scale))) {
        int64_t *tmp = malloc((size_t)(n / 2 + 1) * sizeof *tmp);
        if (tmp == NULL)
            return -1;
        for (int64_t i = 0; i < n; i++)
            out[i] = i;
        merge_sort(x, out, n, tmp);
        free(tmp);
        return 0;
    }
    /* Bucket starts, then ends; then merge work space for the largest
     * oversize bucket. */
    int64_t *first = calloc((size_t)n + 1, sizeof *first);
    if (first == NULL)
        return -1;
    for (int64_t i = 0; i < n; i++)
        first[bucket(x[i], lo, scale, n) + 1]++;
    int64_t largest = 0;
    for (int64_t b = 0; b < n; b++) {
        largest = first[b + 1] > largest ? first[b + 1] : largest;
        first[b + 1] += first[b];
    }
    for (int64_t i = 0; i < n; i++)
        out[first[bucket(x[i], lo, scale, n)]++] = i;
    if (largest > SMALL_BUCKET) {
        int64_t *tmp = malloc((size_t)(largest / 2) * sizeof *tmp);
        if (tmp == NULL) {
            free(first);
            return -1;
        }
        for (int64_t b = 0, start = 0; b < n; start = first[b++]) {
            if (first[b] - start > SMALL_BUCKET)
                merge_sort(x, out + start, first[b] - start, tmp);
        }
        free(tmp);
    }
    free(first);
    insertion_sort(x, out, n);
    return 0;
}

/* ---------------------------------------------------------------------
 * P² streaming percentile (Jain & Chlamtac, CACM 1985): the marker
 * recursion of repro.control.telemetry.P2Quantile.add_many.
 * ------------------------------------------------------------------- */

/* Fold xs[n] into one estimator, in order.  s[15] holds the marker
 * heights q[0..4], positions n[0..4] and desired positions np[0..4];
 * dn[5] are the desired-position increments.  The statements are the
 * Python loop's, in its order (classification from the middle marker out,
 * then markers 1, 2 and 3 nudged by the parabolic step, or the linear one
 * when the parabola leaves the neighbours' interval), so every marker
 * comes out bit for bit equal to it.  n[0] and np[0] never move, and
 * np[4] only counts observations. */
void repro_p2_fold(double *s, const double *dn, const double *xs, int64_t n)
{
    double q0 = s[0], q1 = s[1], q2 = s[2], q3 = s[3], q4 = s[4];
    double n1 = s[6], n2 = s[7], n3 = s[8], n4 = s[9];
    double np1 = s[11], np2 = s[12], np3 = s[13];
    const double d1 = dn[1], d2 = dn[2], d3 = dn[3];
    for (int64_t i = 0; i < n; i++) {
        const double x = xs[i];
        if (x < q2) {
            if (x < q1) {
                if (x < q0)
                    q0 = x;
                n1 += 1.0;
            }
            n2 += 1.0;
            n3 += 1.0;
        } else if (x < q3) {
            n3 += 1.0;
        } else if (x >= q4) {
            q4 = x;
        }
        n4 += 1.0;
        np1 += d1;
        np2 += d2;
        np3 += d3;
        /* Marker 1 (neighbours: 0 at position 0, and 2). */
        double d = np1 - n1;
        if ((d >= 1.0 && n2 - n1 > 1.0) || (d <= -1.0 && n1 > 1.0)) {
            const double step = d > 0 ? 1.0 : -1.0;
            double cand = q1 + step / n2 * (
                (n1 + step) * (q2 - q1) / (n2 - n1)
                + (n2 - n1 - step) * (q1 - q0) / n1);
            if (!(q0 < cand && cand < q2)) {
                if (step > 0)
                    cand = q1 + (q2 - q1) / (n2 - n1);
                else
                    cand = q1 - (q0 - q1) / -n1;
            }
            q1 = cand;
            n1 += step;
        }
        /* Marker 2 (neighbours: 1 and 3). */
        d = np2 - n2;
        if ((d >= 1.0 && n3 - n2 > 1.0) || (d <= -1.0 && n1 - n2 < -1.0)) {
            const double step = d > 0 ? 1.0 : -1.0;
            double cand = q2 + step / (n3 - n1) * (
                (n2 - n1 + step) * (q3 - q2) / (n3 - n2)
                + (n3 - n2 - step) * (q2 - q1) / (n2 - n1));
            if (!(q1 < cand && cand < q3)) {
                if (step > 0)
                    cand = q2 + (q3 - q2) / (n3 - n2);
                else
                    cand = q2 - (q1 - q2) / (n1 - n2);
            }
            q2 = cand;
            n2 += step;
        }
        /* Marker 3 (neighbours: 2 and 4). */
        d = np3 - n3;
        if ((d >= 1.0 && n4 - n3 > 1.0) || (d <= -1.0 && n2 - n3 < -1.0)) {
            const double step = d > 0 ? 1.0 : -1.0;
            double cand = q3 + step / (n4 - n2) * (
                (n3 - n2 + step) * (q4 - q3) / (n4 - n3)
                + (n4 - n3 - step) * (q3 - q2) / (n3 - n2));
            if (!(q2 < cand && cand < q4)) {
                if (step > 0)
                    cand = q3 + (q4 - q3) / (n4 - n3);
                else
                    cand = q3 - (q2 - q3) / (n2 - n3);
            }
            q3 = cand;
            n3 += step;
        }
    }
    s[0] = q0;
    s[1] = q1;
    s[2] = q2;
    s[3] = q3;
    s[4] = q4;
    s[6] = n1;
    s[7] = n2;
    s[8] = n3;
    s[9] = n4;
    s[11] = np1;
    s[12] = np2;
    s[13] = np3;
    /* Exact: an integer-valued count far below 2**53. */
    s[14] += (double)n;
}

/* ---------------------------------------------------------------------
 * Release decisions of the forecasting request schedulers: the block
 * loops of repro.system.scheduling's slack_defer and spinup_coalesce,
 * with the two-state disk forecast they read and write.
 * ------------------------------------------------------------------- */

typedef struct {
    int64_t rule;         /* SLACK_DEFER or SPINUP_COALESCE */
    int64_t nf;           /* files in the mapping */
    const int64_t *map;   /* [nf] file -> disk, negative: not yet placed */
    const double *size;   /* [nf] bytes */
    /* forecast constants: access overhead, transfer rate, idle threshold,
     * spin-down and spin-up time */
    const double *oh, *rate, *th, *down, *up;  /* [D] */
    double *avail;        /* [D] forecast next-free time */
    double *group_until;  /* [D] open spinup_coalesce group deadline */
    double budget, window, max_hold;
} sched_args;

/* The rule numbers of repro.native.RULES. */
enum { SLACK_DEFER = 0, SPINUP_COALESCE = 1 };

/* Lets the loader check its ctypes mirror of sched_args. */
int64_t repro_sched_args_size(void)
{
    return (int64_t)sizeof(sched_args);
}

/* Forecast service start for a request reaching disk d at t: behind the
 * backlog, or after the spin-down the idle gap triggers and a spin-up. */
static inline double projected_start(const sched_args *a, int64_t d, double t)
{
    const double av = a->avail[d];
    if (t <= av)
        return av;
    if (t - av > a->th[d]) {
        const double sd_end = av + a->th[d] + a->down[d];
        return (t >= sd_end ? t : sd_end) + a->up[d];
    }
    return t;
}

/* The first multiple of the window at or after t, in doubles: infinite
 * when t / window overflows.  Adding 0.0 turns ceil's -0.0 into the +0.0
 * of Python's integer ceil. */
static inline double next_epoch(double t, double window)
{
    return (ceil(t / window) + 0.0) * window;
}

/* Release times out[n] for the arrivals t[n] of files fid[n], in arrival
 * order.  stressed (slack_defer only): the controller's running
 * percentile estimate exceeds the budget, so nothing is deferred.  Each
 * statement is the Python loop's, in its order, so releases and forecast
 * state come out bit for bit equal to it. */
void repro_release(sched_args *a, const double *ts, const int64_t *fid,
                   int64_t n, int64_t stressed, double *out)
{
    for (int64_t i = 0; i < n; i++) {
        const double t = ts[i];
        const int64_t f = fid[i];
        const int64_t d = 0 <= f && f < a->nf ? a->map[f] : -1;
        if (d < 0) {
            out[i] = t;  /* not yet placed: pass through, forecast untouched */
            continue;
        }
        const double service = a->oh[d] + a->size[f] / a->rate[d];
        double r = t;
        if (a->rule == SLACK_DEFER) {
            if (!stressed) {
                /* All or nothing: land on a finite epoch within max_hold
                 * whose forecast response fits the budget, else pass
                 * through. */
                const double epoch = next_epoch(t, a->window);
                if (epoch > t && epoch - t <= a->max_hold && epoch < INFINITY
                    && (projected_start(a, d, epoch) - t) + service
                           <= a->budget)
                    r = epoch;
            }
        } else {
            double until = a->group_until[d];
            if (t >= until)
                until = a->group_until[d] = -INFINITY;  /* released */
            if (until > t) {
                r = until;  /* join the open group */
            } else if (t >= a->avail[d] + a->th[d] + a->down[d]) {
                r = t + a->max_hold;  /* asleep: open a group */
                a->group_until[d] = r;
            }
        }
        a->avail[d] = projected_start(a, d, r) + service;
        out[i] = r;
    }
}

/* ---------------------------------------------------------------------
 * Span binning: the overlap seconds of logged [start, end) state spans
 * with the control-interval windows, from which a controlled run builds
 * its per-interval per-disk power trace.
 * ------------------------------------------------------------------- */

/* The window of x in edges[0..K]: searchsorted(edges, x, "right") - 1
 * clipped to [0, K-1], tried first at the window w of the previous span
 * (spans come nearly in time order), by binary search otherwise. */
static inline int64_t window_of(const double *edges, int64_t K, double x,
                                int64_t w)
{
    if (edges[w] <= x && x < edges[w + 1])
        return w;
    int64_t lo = 0, hi = K + 1;  /* the edges <= x */
    while (lo < hi) {
        const int64_t mid = lo + ((hi - lo) >> 1);
        if (edges[mid] <= x)
            lo = mid + 1;
        else
            hi = mid;
    }
    lo -= 1;
    return lo < 0 ? 0 : (lo > K - 1 ? K - 1 : lo);
}

/* Span m clipped to [edges[0], edges[K]] the way NumPy's clip does it
 * (NaN passes through) into *x and *y, with its first and last windows
 * in w[0] and w[1] (hints in, windows out); returns 0 for a span that
 * clips to nothing (end not after start: empty, reversed or NaN), which
 * no pass bins. */
static inline int span_windows(const double *s, const double *e, int64_t m,
                               const double *edges, int64_t K, double *x,
                               double *y, int64_t w[2])
{
    const double a = edges[0], b = edges[K];
    double u = s[m], v = e[m];
    if (u == u) {
        u = u > a ? u : a;
        u = u < b ? u : b;
    }
    if (v == v) {
        v = v > a ? v : a;
        v = v < b ? v : b;
    }
    if (!(v > u))
        return 0;
    *x = u;
    *y = v;
    w[0] = window_of(edges, K, u, w[0]);
    w[1] = window_of(edges, K, v, w[1]);
    return 1;
}

/* Add the overlap seconds of the n spans [s[m], e[m]) on disks d[m] with
 * the K windows [edges[k], edges[k+1]) into out[K*D] (row k, column d),
 * in the passes and order of the NumPy scatter-adds this replaced, so
 * out comes out bit for bit theirs: the spans inside one window in span
 * order, then every crossing span's first partial window, then every
 * crossing span's last one, then the windows a span covers fully, as
 * per-column cover counts (a K*D work space) times the window widths.
 * Returns 0; -1 when the edges are not finite and ascending (ties
 * allowed); -2 when the work space could not be allocated; or m + 1 for
 * the first binned span m whose disk lies outside [0, D).  On an error
 * out is partly written. */
int64_t repro_bin_spans(const int64_t *d, const double *s, const double *e,
                        int64_t n, const double *edges, int64_t K,
                        int64_t D, double *out)
{
    for (int64_t k = 0; k <= K; k++)
        if (!isfinite(edges[k]) || (k && !(edges[k] >= edges[k - 1])))
            return -1;
    double x, y;
    int64_t w[2] = {0, 0};
    int64_t *cross = NULL;  /* the crossing spans, in order */
    int64_t nc = 0;
    for (int64_t m = 0; m < n; m++) {
        if (!span_windows(s, e, m, edges, K, &x, &y, w))
            continue;
        if (d[m] < 0 || d[m] >= D) {
            free(cross);
            return m + 1;
        }
        if (w[0] == w[1]) {
            out[w[0] * D + d[m]] += y - x;
            continue;
        }
        if (cross == NULL) {
            cross = malloc((size_t)(n - m) * sizeof *cross);
            if (cross == NULL)
                return -2;
        }
        cross[nc++] = m;
    }
    if (!nc)
        return 0;
    /* Rows lo + 1 .. hi - 1 covered: +1 at lo + 1, -1 at hi. */
    int64_t *cover = calloc((size_t)(K * D), sizeof *cover);
    if (cover == NULL) {
        free(cross);
        return -2;
    }
    for (int64_t j = 0; j < nc; j++) {
        const int64_t m = cross[j];
        span_windows(s, e, m, edges, K, &x, &y, w);
        out[w[0] * D + d[m]] += edges[w[0] + 1] - x;
    }
    for (int64_t j = 0; j < nc; j++) {
        const int64_t m = cross[j];
        span_windows(s, e, m, edges, K, &x, &y, w);
        /* A span ending exactly on an edge adds 0 here. */
        out[w[1] * D + d[m]] += y - edges[w[1]];
        cover[(w[0] + 1) * D + d[m]] += 1;
        cover[w[1] * D + d[m]] -= 1;
    }
    free(cross);
    for (int64_t k = 0; k < K; k++) {
        const double width = edges[k + 1] - edges[k];
        for (int64_t j = 0; j < D; j++) {
            int64_t *c = cover + k * D + j;
            if (k)
                *c += c[-D];
            /* Adding 0 * width would leave out as it is: every entry is
             * +0.0 or a sum of positive overlaps. */
            if (*c)
                out[k * D + j] += (double)*c * width;
        }
    }
    free(cover);
    return 0;
}
