/* The slot recursion of schedlab.simulator.run_replications, draws included.
 *
 * Each of R rows runs its replication's T slots in chunks of `chunk` slots,
 * drawing each chunk from the row's own numpy bit generator (gens[r], the
 * bitgen_t behind its numpy Generator) in the order and with the values of
 * numpy's own calls on that Generator: chunk channel uniforms
 * (Generator.random), each mapped to the count of cum <= u
 * (np.searchsorted(cum, u, side="right")), summed entry by entry with no
 * data-dependent branch; chunk x n Poisson counts, slot-major
 * (Generator.poisson), or lam itself for fluid arrivals; then, for uniform
 * ties, chunk tie uniforms (Generator.random).
 *
 * A row reads its uniforms from a buffer of STREAM_LEN doubles filled by its
 * generator's next_double; a refill moves the unread entries to the front
 * and tops the buffer up. So the generator runs ahead of what the row
 * consumes, and used[r] returns the uniforms row r consumed: the caller
 * rewinds each generator to its state before the call and advances it by
 * used[r] draws, which leaves it where numpy's own calls leave it. Rows that
 * shared a generator would read each other's draws, so every row needs its
 * own.
 *
 * A call walks the rows r_lo <= r < r_hi of the R-row arrays, so that
 * callers can run contiguous row slices in concurrent calls: each call
 * writes only its own rows of the shared per-row arrays and draws only from
 * its own rows' generators. The scratch (work, the pow memo and the untraced
 * draw buffers) is written by every row, so every concurrent call, like
 * every row's generator, needs its own: a shared memo could pair one call's
 * key with another's value.
 *
 * Poisson counts come from numpy's own random_poisson (libnpyrandom.a) for
 * lam == 0 and lam >= 10, through a bitgen_t whose next_double reads the
 * row's buffer. Below 10 they follow its multiplication method with
 * exp(-lam) taken once per user instead of once per variate: the running
 * products p1 = 1.0 * u0, p2 = p1 * u1, p3 = p2 * u2, p4 = p3 * u3, formed in
 * numpy's order, fall, so the count x of those above exp(-lam) is the
 * variate when x < 4, having consumed x + 1 uniforms, which the buffer holds
 * (a refill keeps at least 4 ahead); at x = 4 numpy's loop goes on from p4.
 * The same values as numpy's loop, without its unpredictable exit, so every
 * draw is bitwise numpy's.
 *
 * A call runs P policies over the same replications: each chunk is drawn
 * once and then walked once per policy, each with its own rule, queues,
 * statistics and trace, so every policy sees the same draws (common random
 * numbers) and its outputs are bitwise those of running it alone. The draws
 * hold tie uniforms only for uniform ties, so the policies share one
 * tie-break.
 *
 * A slot scores the users on the queues before arrivals with
 * schedulers.stable_scores, picks from the set tied_mask gives
 * (score >= row max - 1e-12), adds the slot's arrivals and drains
 * min(backlog, rate) from the chosen user. Built with -ffp-contract=off, the
 * scores are bitwise the ones stable_scores computes, whose powers are libm's
 * pow too.
 *
 * exp's pow(mean queue, eta) and mw's pow(Q_i / max Q, alpha) go through a
 * per-policy memo: a direct-mapped table keyed by the argument's 64 bits,
 * reset at the start of every call, that returns the value pow gave for the
 * bitwise-identical argument. Queues that take few distinct values (integer
 * arrivals and rates) repeat their arguments, so pow runs about once per
 * distinct argument; a miss costs one hash and one store beside the pow.
 * The memo changes no score, so no choice or statistic either.
 *
 * The same walk adds each post-burn-in slot into the run's statistics, and
 * fills the per-slot trace (draws, choice, departure, queues) only when the
 * caller records one. Every float sum, here and in exp's mean, runs left to
 * right, one slot or user at a time, from 0.0.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

#include "numpy/random/bitgen.h"

/* declared in numpy/random/distributions.h, which needs Python.h */
int64_t random_poisson(bitgen_t *bitgen_state, double lam);

enum { RULE_HET = 0, RULE_EXP = 1, RULE_MW = 2 };

#define TIE_TOL 1e-12

/* uniforms a row's buffer holds, and how many the short Poisson path reads
 * ahead */
#define STREAM_LEN 1024
#define SHORT_RUN 4

/* One row's uniforms: buf[pos..STREAM_LEN) are drawn from g and not yet
 * read, and base counts the uniforms read before buf[0]. view is a bitgen_t
 * whose next_double reads this stream, for random_poisson. */
struct stream {
    bitgen_t *g;
    bitgen_t view;
    int64_t pos;
    int64_t base;
    double buf[STREAM_LEN];
};

/* Move the unread entries to the front and fill the rest from g. */
static void refill(struct stream *s)
{
    int64_t keep = STREAM_LEN - s->pos;
    memmove(s->buf, s->buf + s->pos, (size_t)keep * sizeof s->buf[0]);
    s->base += s->pos;
    s->pos = 0;
    for (int64_t k = keep; k < STREAM_LEN; k++)
        s->buf[k] = s->g->next_double(s->g->state);
}

static inline double next_double(struct stream *s)
{
    if (s->pos == STREAM_LEN)
        refill(s);
    return s->buf[s->pos++];
}

static double view_double(void *s)
{
    return next_double(s);
}

/* Start s on g with a full buffer: the first refill of an empty buffer that
 * has read nothing. */
static void open_stream(struct stream *s, bitgen_t *g)
{
    s->g = g;
    s->view = (bitgen_t){.state = s, .next_double = view_double};
    s->pos = STREAM_LEN;
    s->base = -STREAM_LEN;
    refill(s);
}

/* numpy's random_poisson, with its multiplication method for 0 < lam < 10
 * (random_poisson_mult) on enlam = exp(-lam): the first four products at
 * once, then numpy's loop. */
static int64_t poisson(struct stream *s, double lam, double enlam)
{
    if (lam >= 10.0 || lam == 0.0)
        return random_poisson(&s->view, lam);
    if (STREAM_LEN - s->pos < SHORT_RUN)
        refill(s);
    const double *u = s->buf + s->pos;
    double p1 = 1.0 * u[0], p2 = p1 * u[1], p3 = p2 * u[2], p4 = p3 * u[3];
    int64_t x = (p1 > enlam) + (p2 > enlam) + (p3 > enlam) + (p4 > enlam);
    if (x < SHORT_RUN) {
        s->pos += x + 1;
        return x;
    }
    s->pos += SHORT_RUN;
    double prod = p4;
    for (;;) {
        prod *= next_double(s);
        if (prod > enlam)
            x++;
        else
            return x;
    }
}

/* One policy's pow memo: entry h holds vals[h] = pow(x, a) for the x whose
 * bits are keys[h], a being the policy's parameter. */
struct memo {
    uint64_t *keys;
    double *vals;
    int64_t len;
};

/* pow(x, a) through the memo, at the entry h(x): the top 32 bits of x's
 * bits times 2^64 / golden ratio, scaled to [0, len) (len < 2^32), so that
 * arguments that differ only in their high bits spread too. */
static inline double memo_pow(struct memo *memo, double x, double a)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    uint64_t mixed = (bits * 0x9E3779B97F4A7C15u) >> 32;
    uint64_t h = (mixed * (uint64_t)memo->len) >> 32;
    if (memo->keys[h] != bits) {
        memo->keys[h] = bits;
        memo->vals[h] = pow(x, a);
    }
    return memo->vals[h];
}

/* One row's c slots of draws, in numpy's order: states, arrivals (c x n,
 * slot-major), and tie uniforms u when uniform is nonzero. cum ascends to
 * cum[m_states - 1] = 1 > u, so the count of cum[j] <= u over
 * j < m_states - 1 is a state index, the one searchsorted gives. */
static void draw_chunk(struct stream *s, int64_t c, int64_t n, int64_t m_states, const double *cum,
                       int fluid, const double *lam, const double *enlam, int uniform,
                       int64_t *states, double *arr, double *u)
{
    for (int64_t k = 0; k < c; k++) {
        double v = next_double(s);
        int64_t state = 0;
        for (int64_t j = 0; j < m_states - 1; j++)
            state += cum[j] <= v;
        states[k] = state;
    }
    for (int64_t k = 0; k < c; k++)
        for (int64_t i = 0; i < n; i++)
            arr[k * n + i] = fluid ? lam[i] : (double)poisson(s, lam[i], enlam[i]);
    if (uniform)
        for (int64_t k = 0; k < c; k++)
            u[k] = next_double(s);
}

/* Each of the P policies has its rule rules[p]: RULE_HET (table = F/maxF,
 * param = q_th), RULE_EXP (table = log F with -inf for F = 0, param = eta)
 * or RULE_MW (table = F, param = alpha), with its rate table tables[p]
 * (m_states x n) and parameter params[p]. With uniform nonzero each slot
 * draws a tie uniform u and serves the floor(u * count) + 1-th tied user,
 * else the lowest tied index. cum (m_states) is the channel's cumulative
 * distribution with its last entry 1; lam (n) the arrival rates, drawn as
 * Poisson counts unless fluid is nonzero. Row r draws from gens[r], every
 * row from its own, and used[r] returns the uniforms it consumed. Only the
 * rows r_lo <= r < r_hi (0 <= r_lo < r_hi <= R) run; the others are not
 * touched.
 *
 * Every per-policy array leads with the policy axis, P x R x ...: q (n)
 * carries the queues in and out. Slots from burn on add into arr_sum,
 * dep_sum, q_sum (n), served (m_states x n: slots in state m serving user
 * i), over (K: slots whose largest queue reaches thresholds[j], which ascend
 * strictly) and max_seen (1); initial_q (n) takes the queues after slot
 * burn - 1. With record nonzero, the shared draws states, u, arr (R x T,
 * R x T or empty, R x T x n) keep every slot's draws, and each policy's
 * chosen and dep (T) its choices and departures and qtraj ((T + 1) x n) the
 * queues after each slot, behind row 0, which is not touched; otherwise
 * states, u and arr are one chunk's scratch (chunk, chunk, chunk x n) and
 * chosen, dep and qtraj are not touched. work is scratch for 2 n doubles.
 * memo_keys and memo_vals (P x memo_len, 1 <= memo_len < 2^32) are each
 * policy's pow memo, filled here before any slot. */
void run_slots(int64_t P, const int64_t *rules, const double *params, const double *tables,
               int uniform, int fluid, int64_t R, int64_t r_lo, int64_t r_hi, int64_t T,
               int64_t chunk, int64_t burn, int64_t n, int64_t m_states, bitgen_t *const *gens,
               int64_t *used, const double *cum, const double *lam, const double *rates,
               const double *thresholds, int64_t K, double *q, double *work, double *arr_sum,
               double *dep_sum, double *q_sum, int64_t *served, int64_t *over, double *max_seen,
               double *initial_q, int record, int64_t *states, double *u, double *arr,
               int64_t *chosen, double *dep, double *qtraj, uint64_t *memo_keys,
               double *memo_vals, int64_t memo_len)
{
    double *score = work, *enlam = work + n;
    for (int64_t i = 0; i < n; i++)
        enlam[i] = exp(-lam[i]);
    /* every entry starts as the argument 0.0 (all bits 0) with its pow */
    for (int64_t p = 0; p < P; p++) {
        double zero_pow = pow(0.0, params[p]);
        for (int64_t h = 0; h < memo_len; h++) {
            memo_keys[p * memo_len + h] = 0;
            memo_vals[p * memo_len + h] = zero_pow;
        }
    }
    for (int64_t r = r_lo; r < r_hi; r++) {
        struct stream s;
        open_stream(&s, gens[r]);
        for (int64_t done = 0; done < T; done += chunk) {
            int64_t c = T - done < chunk ? T - done : chunk;
            int64_t at = record ? r * T + done : 0; /* the chunk's first slot in the draw buffers */
            int64_t *st = states + at;
            double *a = arr + at * n, *uc = u + at;
            draw_chunk(&s, c, n, m_states, cum, fluid, lam, enlam, uniform, st, a, uc);
            for (int64_t p = 0; p < P; p++) {
                int rule = (int)rules[p];
                double param = params[p];
                const double *table = tables + p * m_states * n;
                struct memo memo = {memo_keys + p * memo_len, memo_vals + p * memo_len, memo_len};
                int64_t pr = p * R + r; /* this policy's row */
                double *Q = q + pr * n;
                for (int64_t k = 0; k < c; k++) {
                    int64_t m = st[k];
                    const double *row = table + m * n;
                    if (rule == RULE_HET) {
                        for (int64_t i = 0; i < n; i++)
                            score[i] = row[i] + Q[i] / param;
                    } else if (rule == RULE_EXP) {
                        double total = 0.0;
                        for (int64_t i = 0; i < n; i++)
                            total += Q[i];
                        double denom = 1.0 + memo_pow(&memo, total / (double)n, param);
                        for (int64_t i = 0; i < n; i++)
                            score[i] = Q[i] / denom + row[i];
                    } else {
                        double qmax = Q[0];
                        for (int64_t i = 1; i < n; i++)
                            if (Q[i] > qmax)
                                qmax = Q[i];
                        for (int64_t i = 0; i < n; i++)
                            score[i] = qmax > 0.0 ? memo_pow(&memo, Q[i] / qmax, param) * row[i]
                                                  : 0.0;
                    }

                    double best = score[0];
                    for (int64_t i = 1; i < n; i++)
                        if (score[i] > best)
                            best = score[i];
                    double bar = best - TIE_TOL;
                    int64_t pick = 0;
                    while (pick < n - 1 && !(score[pick] >= bar))
                        pick++;
                    if (uniform) {
                        int64_t count = 0;
                        for (int64_t i = pick; i < n; i++)
                            count += score[i] >= bar;
                        int64_t target = (int64_t)floor(uc[k] * (double)count);
                        while (target > 0 && pick < n - 1) {
                            pick++;
                            target -= score[pick] >= bar;
                        }
                    }

                    const double *ak = a + k * n;
                    for (int64_t i = 0; i < n; i++)
                        Q[i] += ak[i];
                    double rate = rates[m * n + pick];
                    double d = Q[pick] < rate ? Q[pick] : rate;
                    Q[pick] -= d;
                    int64_t slot = done + k;
                    if (record) {
                        double *path = qtraj + (pr * (T + 1) + 1 + slot) * n;
                        chosen[pr * T + slot] = pick;
                        dep[pr * T + slot] = d;
                        for (int64_t i = 0; i < n; i++)
                            path[i] = Q[i];
                    }

                    if (slot == burn - 1)
                        for (int64_t i = 0; i < n; i++)
                            initial_q[pr * n + i] = Q[i];
                    if (slot < burn)
                        continue;
                    double qmax = Q[0];
                    for (int64_t i = 1; i < n; i++)
                        if (Q[i] > qmax)
                            qmax = Q[i];
                    for (int64_t i = 0; i < n; i++) {
                        arr_sum[pr * n + i] += ak[i];
                        q_sum[pr * n + i] += Q[i];
                    }
                    dep_sum[pr * n + pick] += d;
                    served[(pr * m_states + m) * n + pick]++;
                    for (int64_t j = 0; j < K && qmax >= thresholds[j]; j++)
                        over[pr * K + j]++;
                    if (qmax > max_seen[pr])
                        max_seen[pr] = qmax;
                }
            }
        }
        used[r] = s.base + s.pos;
    }
}
