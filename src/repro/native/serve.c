/*
 * Per-disk serve core of the fast kernel (repro.sim.fastkernel).
 *
 * One call replays a read-only segment of requests through each disk's
 * FIFO queue and DPM-ladder descent schedule: the Lindley recursion of
 * paper Figure 1, extended to multi-rung ladders.  The arithmetic is the
 * Python recursion's, term for term and in the same order, so starts,
 * per-disk state and every logged record come out bit for bit equal to it
 * (build with -ffp-contract=off and without -ffast-math).
 *
 * Requests are walked disk-major, in arrival order inside each disk (a
 * stable counting sort by disk), which is the order the gap-log and span
 * records are kept in.  A call stops early when a record buffer could
 * overflow and returns the position reached; the caller drains the
 * records and calls again with that position to resume the walk.
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
    /* the segment */
    int64_t n;
    const int64_t *disk;
    const double *t, *tr;
    double *starts;
    int64_t *order;       /* [n] disk-major permutation (work space) */
    int64_t *first;       /* [D+1] (work space) */
    /* gap log (controlled): records of this call, per-disk counts */
    int64_t gap_cap, n_gap;
    double *gap_g, *gap_th;
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

/* Stable counting sort of the segment by disk into a->order; -1 if a
 * disk index is out of range. */
static int group_by_disk(serve_args *a)
{
    const int64_t D = a->D, n = a->n;
    int64_t *first = a->first;
    memset(first, 0, (size_t)(D + 1) * sizeof *first);
    for (int64_t p = 0; p < n; p++) {
        int64_t d = a->disk[p];
        if (d < 0 || d >= D)
            return -1;
        first[d + 1]++;
    }
    for (int64_t d = 0; d < D; d++)
        first[d + 1] += first[d];
    for (int64_t p = 0; p < n; p++)
        a->order[first[a->disk[p]]++] = p;
    return 0;
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

/* Serve the segment from disk-major position pos; returns the position
 * reached (n when done), or -1 for a disk index out of range. */
int64_t repro_serve_segment(serve_args *a, int64_t pos)
{
    const int64_t n = a->n, W = a->W;
    const int spans = a->span_cap > 0;
    const int64_t room = 2 * a->maxR;  /* records one request may log */
    if (pos == 0 && group_by_disk(a) < 0)
        return -1;
    memset(a->gap_n, 0, (size_t)a->D * sizeof *a->gap_n);
    a->n_gap = 0;
    a->n_span = 0;
    int64_t p = pos;
    int full = 0;
    while (p < n && !full) {
        const int64_t d = a->disk[a->order[p]];
        double av = a->avail[d], ld = a->load[d];
        double pt = a->pt[d], pv = a->pv[d];
        const double oh = a->oh[d];
        const double *E = a->ent + d * W;
        for (; p < n; p++) {
            const int64_t j = a->order[p];
            if (a->disk[j] != d)
                break;
            if ((spans && a->n_span + room > a->span_cap)
                || (a->th != NULL && a->n_gap == a->gap_cap)) {
                full = 1;
                break;
            }
            const double t = a->t[j], tr = a->tr[j];
            double s;
            if (t != pt) {
                pt = t;
                pv = av;
            }
            if (t > av) {
                if (a->th != NULL) {
                    /* The threshold in effect at the drain instant. */
                    double q = av / a->ci;
                    int64_t row = q < (double)a->k ? (int64_t)q : a->k;
                    double th = a->th[row * a->D + d];
                    a->gap_g[a->n_gap] = t - av;
                    a->gap_th[a->n_gap] = th;
                    a->n_gap++;
                    a->gap_n[d]++;
                    E = a->ent + (row * a->D + d) * W;
                }
                s = (t - av <= E[1]) ? t : descend(a, d, av, t, E, spans);
            } else {
                s = av;
            }
            a->starts[j] = s;
            av = s + oh + tr;
            ld += oh + tr;
        }
        a->avail[d] = av;
        a->load[d] = ld;
        a->pt[d] = pt;
        a->pv[d] = pv;
    }
    if (spans)
        sort_spans(a);
    return p;
}
