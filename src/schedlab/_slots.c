/* The slot recursion of schedlab.simulator.run_replications, draws included.
 *
 * Each of R rows runs its replication's T slots in chunks of CHUNK slots,
 * drawing each chunk of c slots from the row's own numpy bit generator
 * (gens[r], the bitgen_t behind its numpy Generator) in the order and with
 * the values of numpy's own calls on that Generator: c channel uniforms
 * (Generator.random), each mapped to the count of cum <= u
 * (np.searchsorted(cum, u, side="right")), summed entry by entry with no
 * data-dependent branch; for uniform ties, c tie uniforms
 * (Generator.random); then c x n Poisson counts, slot-major
 * (Generator.poisson), or lam itself for fluid arrivals. CHUNK is part of
 * the draws: another CHUNK would draw other values.
 *
 * A row reads its uniforms from a buffer of STREAM_LEN doubles filled by its
 * generator's next_double; a refill moves the unread entries to the front
 * and tops the buffer up, so the generator runs ahead of what the row
 * consumes. Rows that shared a generator would read each other's draws, so
 * every row needs its own.
 *
 * A call takes its rows in groups of up to GROUP and draws a group's rows
 * together: each chunk's channel uniforms slot by slot, row by row, then
 * each row's tie uniforms, then its Poisson variates slot by slot, user by
 * user, row by row. A row's variates form one chain, each starting where
 * the last one's uniforms ended; alternating the rows gives the core GROUP
 * independent chains to overlap. Each row still reads its own stream in numpy's order, so every
 * draw is the one the row would draw alone. The arrivals, drawn last, come
 * SUB_BLOCK slots at a time, each block walked as soon as it is drawn, so
 * a group holds one chunk of states and tie uniforms and one block of
 * arrivals per row, whatever the tie-break.
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
 * once and then walked slot by slot, each slot once per policy, so every
 * policy sees the same draws (common random numbers). The policies are
 * lanes in lockstep: each has its own rule, pow memo, queues, statistics
 * and choices, and within a lane the draws, scores and sums keep their
 * order, so its outputs are bitwise those of running it alone. A lane's
 * queues form one long chain of dependent updates; walking P lanes side by
 * side gives the core P independent chains to overlap, where walking a
 * chunk once per policy ran them one after another. The draws hold tie
 * uniforms only for uniform ties, so the policies share one tie-break.
 *
 * A slot scores the users on the queues before arrivals with
 * schedulers.stable_scores, picks from the set tied_mask gives
 * (score >= row max - 1e-12), adds the slot's arrivals and drains
 * min(backlog, rate) from the chosen user. Several lanes pick with selects
 * instead of branches, since one mispredicted branch discards every lane's
 * work in flight; a lone lane is bound by its own chain's latency, and its
 * predicted early-exit scan is the faster there. Both forms pick the same
 * user for every score vector. Built with -ffp-contract=off, the scores are
 * bitwise the ones stable_scores computes, whose powers are libm's pow too.
 *
 * exp's pow(mean queue, eta) and mw's pow(Q_i / max Q, alpha) go through a
 * per-policy memo of POW_MEMO entries: a direct-mapped table keyed by the
 * argument's 64 bits, reset at the start of every call, that returns the
 * value pow gave for the bitwise-identical argument. Queues that take few
 * distinct values (integer arrivals and rates) repeat their arguments, so
 * pow runs about once per distinct argument; a miss costs one hash and one
 * store beside the pow. The memo changes no score, so no choice or
 * statistic either.
 *
 * The same walk adds each post-burn-in slot into its lane's records, one of
 * doubles and one of counts, which the caller's arrays hold in the lane's
 * own layout, so a group copies each in and out whole. It writes each
 * slot's chosen user only when the caller records them. The draws live in
 * the call's scratch alone, traced or not. Every float sum, here and in
 * exp's mean, runs left to right, one slot or user at a time, from 0.0.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
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

/* slots per chunk of draws, rows drawn together, the slots of arrivals a
 * group draws before walking them, and the entries of each policy's pow
 * memo */
#define CHUNK 32768
#define GROUP 4
#define SUB_BLOCK 1024
#define POW_MEMO 4096

/* One row's uniforms: buf[pos..STREAM_LEN) are drawn from g and not yet
 * read. view is a bitgen_t whose next_double reads this stream, for
 * random_poisson. */
struct stream {
    bitgen_t *g;
    bitgen_t view;
    int64_t pos;
    double buf[STREAM_LEN];
};

/* Move the unread entries to the front and fill the rest from g. */
static void refill(struct stream *s)
{
    int64_t keep = STREAM_LEN - s->pos;
    memmove(s->buf, s->buf + s->pos, (size_t)keep * sizeof s->buf[0]);
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

/* Start s on g with a full buffer. */
static void open_stream(struct stream *s, bitgen_t *g)
{
    s->g = g;
    s->view = (bitgen_t){.state = s, .next_double = view_double};
    s->pos = STREAM_LEN;
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

/* The states of slots 0 <= k < c of a group's g rows, into st[h][k] for the
 * row reading stream s[h], slot by slot, row by row. cum ascends to
 * cum[m_states - 1] = 1 > u, so the count of cum[j] <= u over
 * j < m_states - 1 is a state index, the one searchsorted gives. */
static inline __attribute__((always_inline)) void
draw_states(struct stream *s, int64_t g, int64_t c, int64_t m_states, const double *cum,
            int64_t *const *st)
{
    for (int64_t k = 0; k < c; k++)
        for (int64_t h = 0; h < g; h++) {
            double v = next_double(&s[h]);
            int64_t state = 0;
            for (int64_t j = 0; j < m_states - 1; j++)
                state += cum[j] <= v;
            st[h][k] = state;
        }
}

/* The arrivals of c slots (c x n, slot-major) of a group's g rows, into
 * a[h], slot by slot, user by user, row by row: Poisson counts, or lam
 * itself for fluid arrivals. */
static inline __attribute__((always_inline)) void
draw_arrivals(struct stream *s, int64_t g, int64_t c, int64_t n, int fluid, const double *lam,
              const double *enlam, double *const *a)
{
    for (int64_t k = 0; k < c; k++)
        for (int64_t i = 0; i < n; i++)
            for (int64_t h = 0; h < g; h++)
                a[h][k * n + i] = fluid ? lam[i] : (double)poisson(&s[h], lam[i], enlam[i]);
}

/* What every slot of a call reads and writes: run_slots' parameters of the
 * same names and, from its scratch, enlam = exp(-lam), the policies' pow
 * memos (memo_len = POW_MEMO entries each) and one row's lane scratch. */
struct call {
    const int64_t *rules;
    const double *params, *tables, *rates, *thresholds, *cum, *lam, *enlam;
    int uniform, record, fluid;
    int64_t P, R, T, burn, n, m_states, K;
    int64_t *states, *chosen;
    double *u, *arr;
    uint64_t *memo_keys;
    double *memo_vals;
    int64_t memo_len;
    double *arr_acc, *lane_f;
    int64_t *lane_i;
};

/* Lane p's doubles, at lane_f + p * LANE_F(n): its record (queues, initial
 * queues, dep_sum, q_sum (n each) and max_seen (1)), then its scores (n);
 * and its counts, at lane_i + p * LANE_I(n, m_states, K): served (m_states
 * x n) and the histogram of how many thresholds the largest queue reaches
 * (K + 1). run_slots' rec and cnt hold records and counts in this layout. */
#define REC_F(n) (4 * (n) + 1)
#define LANE_F(n) (REC_F(n) + (n))
#define LANE_I(n, m_states, K) ((m_states) * (n) + (K) + 1)

/* The largest of x[0..n), NaNs passed over after x[0]: with branches for a
 * lone lane, which predicts them, and with selects for lanes in lockstep. */
static inline double largest(const double *x, int64_t n, int one_lane)
{
    double top = x[0];
    if (one_lane) {
        for (int64_t i = 1; i < n; i++)
            if (x[i] > top)
                top = x[i];
    } else {
        for (int64_t i = 1; i < n; i++)
            top = x[i] > top ? x[i] : top;
    }
    return top;
}

/* The slot's scores (n) of the queues Q under rule with param, table row
 * row (the rate table's row of the slot's state) and the policy's memo. */
static inline void score_slot(int rule, double param, const double *row, struct memo *memo,
                              const double *Q, double *score, int64_t n, int one_lane)
{
    if (rule == RULE_HET) {
        for (int64_t i = 0; i < n; i++)
            score[i] = row[i] + Q[i] / param;
    } else if (rule == RULE_EXP) {
        double total = 0.0;
        for (int64_t i = 0; i < n; i++)
            total += Q[i];
        double denom = 1.0 + memo_pow(memo, total / (double)n, param);
        for (int64_t i = 0; i < n; i++)
            score[i] = Q[i] / denom + row[i];
    } else {
        double qmax = largest(Q, n, one_lane);
        for (int64_t i = 0; i < n; i++)
            score[i] = qmax > 0.0 ? memo_pow(memo, Q[i] / qmax, param) * row[i] : 0.0;
    }
}

/* The user a slot serves: among the tied users (score >= max - TIE_TOL,
 * as tied_mask gives), the floor(u * count) + 1-th with uniform ties, else
 * the first; n - 1 when none is tied. The scan stops at the first tied
 * user and branches on each score, which the one-lane walk, bound by its
 * own chain of queue updates, predicts ahead. */
static inline int64_t scan_pick(const double *score, int64_t n, int uniform, double u)
{
    double bar = largest(score, n, 1) - TIE_TOL;
    int64_t pick = 0;
    while (pick < n - 1 && !(score[pick] >= bar))
        pick++;
    if (uniform) {
        int64_t count = 0;
        for (int64_t i = pick; i < n; i++)
            count += score[i] >= bar;
        int64_t target = (int64_t)(u * (double)count);
        while (target > 0 && pick < n - 1) {
            pick++;
            target -= score[pick] >= bar;
        }
    }
    return pick;
}

/* scan_pick's user, found with selects instead of branches: the first tied
 * user by a scan down from n - 1, and with uniform ties the
 * (count - target)-th tied user counting from the top, target being
 * floor(u * count). A mispredicted branch would discard the in-flight
 * slots of every lane. */
static inline int64_t select_pick(const double *score, int64_t n, int uniform, double u)
{
    double bar = largest(score, n, 0) - TIE_TOL;
    int64_t pick = n - 1;
    if (!uniform) {
        for (int64_t i = n - 2; i >= 0; i--)
            pick = score[i] >= bar ? i : pick;
        return pick;
    }
    int64_t count = 0;
    for (int64_t i = 0; i < n; i++)
        count += score[i] >= bar;
    int64_t k = count - (int64_t)(u * (double)count), seen = 0;
    for (int64_t i = n - 1; i >= 0; i--) {
        int64_t tied = score[i] >= bar;
        seen += tied;
        pick = tied & (seen == k) ? i : pick;
    }
    return pick;
}

/* Row r's slots done <= slot < done + c, drawn into states st, arrivals a
 * and tie uniforms uc, slot by slot, each slot lane by lane: the P lanes'
 * chains of queue updates are independent, so the core runs them at once.
 * Inlined into walk_one with P = 1, a walk with no lane loop that picks by
 * scan_pick, and into walk_lanes. */
static inline __attribute__((always_inline)) void
walk_chunk(const struct call *call, int64_t P, int64_t r, int64_t done, int64_t c,
           const int64_t *st, const double *a, const double *uc)
{
    const int64_t n = call->n, m_states = call->m_states, K = call->K, T = call->T;
    const int64_t burn = call->burn, memo_len = call->memo_len;
    const int uniform = call->uniform, record = call->record;
    const double *thresholds = call->thresholds, *rates = call->rates;
    double *arr_acc = call->arr_acc;
    /* a lone lane's rule and parameter, held in registers: every slot
     * stores through pointers that could alias rules and params */
    const int rule0 = (int)call->rules[0];
    const double param0 = call->params[0];
    for (int64_t k = 0; k < c; k++) {
        int64_t m = st[k], slot = done + k;
        const double *ak = a + k * n;
        double tie_u = uniform ? uc[k] : 0.0;
        if (slot >= burn)
            for (int64_t i = 0; i < n; i++)
                arr_acc[i] += ak[i];
        for (int64_t p = 0; p < P; p++) {
            double *Q = call->lane_f + p * LANE_F(n), *initial_q = Q + n;
            double *dep_sum = Q + 2 * n, *q_sum = Q + 3 * n, *max_seen = Q + 4 * n;
            double *score = Q + REC_F(n);
            int64_t *served = call->lane_i + p * LANE_I(n, m_states, K);
            int64_t *hist = served + m_states * n;
            struct memo memo = {call->memo_keys + p * memo_len, call->memo_vals + p * memo_len,
                                memo_len};
            int rule = P == 1 ? rule0 : (int)call->rules[p];
            double param = P == 1 ? param0 : call->params[p];
            score_slot(rule, param, call->tables + (p * m_states + m) * n, &memo, Q, score, n,
                       P == 1);
            int64_t pick = P == 1 ? scan_pick(score, n, uniform, tie_u)
                                  : select_pick(score, n, uniform, tie_u);

            for (int64_t i = 0; i < n; i++)
                Q[i] += ak[i];
            double rate = rates[m * n + pick];
            double d = Q[pick] < rate ? Q[pick] : rate;
            Q[pick] -= d;
            if (record)
                call->chosen[(p * call->R + r) * T + slot] = pick;

            if (slot == burn - 1)
                for (int64_t i = 0; i < n; i++)
                    initial_q[i] = Q[i];
            if (slot < burn)
                continue;
            double qmax = largest(Q, n, P == 1);
            for (int64_t i = 0; i < n; i++)
                q_sum[i] += Q[i];
            dep_sum[pick] += d;
            served[m * n + pick]++;
            int64_t reached = 0;
            for (int64_t j = 0; j < K; j++)
                reached += qmax >= thresholds[j];
            hist[reached]++;
            if (qmax > *max_seen)
                *max_seen = qmax;
        }
    }
}

/* walk_chunk for one lane and for P lanes, each its own function: inlined
 * side by side into run_slots, the one-lane walk ran ~3% slower. */
static __attribute__((noinline)) void walk_one(const struct call *call, int64_t r, int64_t done,
                                               int64_t c, const int64_t *st, const double *a,
                                               const double *uc)
{
    walk_chunk(call, 1, r, done, c, st, a, uc);
}

static __attribute__((noinline)) void walk_lanes(const struct call *call, int64_t P, int64_t r,
                                                 int64_t done, int64_t c, const int64_t *st,
                                                 const double *a, const double *uc)
{
    walk_chunk(call, P, r, done, c, st, a, uc);
}

/* Rows r0 <= r < r0 + g, a group, row r0 + h reading stream s[h] and
 * walked with the scratch of calls[h]. Each chunk's states are drawn first,
 * then its tie uniforms with uniform ties; its arrivals then come SUB_BLOCK
 * slots at a time, each block walked as soon as it is drawn. Row h's draws
 * go to its h-th span of the draw buffers: min(T, CHUNK) slots of states
 * and tie uniforms, and a block of arrivals. run_slots inlines it for one
 * row apart, with no row loop: one draw with a row loop for every g ran a
 * lone fluid row ~7% slower. */
static inline __attribute__((always_inline)) void
run_group(const struct call *calls, struct stream *s, int64_t g, int64_t r0)
{
    const struct call *call = calls;
    const int64_t T = call->T, n = call->n;
    const int uniform = call->uniform;
    const int64_t span = T < CHUNK ? T : CHUNK;
    const int64_t arr_span = span < SUB_BLOCK ? span : SUB_BLOCK;
    int64_t *st[GROUP];
    double *a[GROUP], *uc[GROUP];
    for (int64_t h = 0; h < g; h++) {
        st[h] = call->states + h * span;
        uc[h] = uniform ? call->u + h * span : NULL;
        a[h] = call->arr + h * arr_span * n;
    }
    for (int64_t done = 0; done < T; done += CHUNK) {
        int64_t c = T - done < CHUNK ? T - done : CHUNK;
        draw_states(s, g, c, call->m_states, call->cum, st);
        if (uniform)
            for (int64_t h = 0; h < g; h++)
                for (int64_t k = 0; k < c; k++)
                    uc[h][k] = next_double(&s[h]);
        for (int64_t b = 0; b < c; b += SUB_BLOCK) {
            int64_t bc = c - b < SUB_BLOCK ? c - b : SUB_BLOCK;
            draw_arrivals(s, g, bc, n, call->fluid, call->lam, call->enlam, a);
            for (int64_t h = 0; h < g; h++) {
                const double *ub = uniform ? uc[h] + b : NULL;
                if (call->P == 1)
                    walk_one(&calls[h], r0 + h, done + b, bc, st[h] + b, a[h], ub);
                else
                    walk_lanes(&calls[h], call->P, r0 + h, done + b, bc, st[h] + b, a[h], ub);
            }
        }
    }
}

/* Each of the P policies has its rule rules[p]: RULE_HET (table = F/maxF,
 * param = q_th), RULE_EXP (table = log F with -inf for F = 0, param = eta)
 * or RULE_MW (table = F, param = alpha), with its rate table tables[p]
 * (m_states x n) and parameter params[p]. With uniform nonzero each slot
 * draws a tie uniform u and serves the floor(u * count) + 1-th tied user,
 * else the lowest tied index. cum (m_states) is the channel's cumulative
 * distribution with its last entry 1; lam (n) the arrival rates, drawn as
 * Poisson counts unless fluid is nonzero. Row r draws from gens[r], every
 * row from its own, through its next_double alone.
 *
 * Only the rows r_lo <= r < r_hi (0 <= r_lo < r_hi <= R) run; the others
 * are not touched. A call writes only its own rows of the shared arrays and
 * draws only from its own rows' generators, so callers can run contiguous
 * row slices in concurrent calls.
 *
 * Every per-policy array leads with the policy axis, P x R x ...: rec holds
 * each lane's doubles (REC_F(n)) and cnt its counts (LANE_I(n, m_states,
 * K)), both carried in and out, so a caller starts the statistics at zero.
 * rec: the queues (n); the queues after slot burn - 1 (n, as given when
 * burn is 0); and, added over the slots burn on, the departures and queues
 * (n each) and the largest queue (1). cnt: the slots in state m serving
 * user i (m_states x n), then the slots whose largest queue reaches exactly
 * j of the thresholds, which ascend strictly (K + 1). arr_sum (R x n) sums
 * the draws alone, so it is kept once per row for every policy. With record
 * nonzero, each policy's chosen (T) takes the user served in each slot;
 * otherwise it is empty and not touched.
 *
 * The call allocates its own scratch, one block that no other call shares:
 * exp(-lam) (n); for each of the g = min(GROUP, r_hi - r_lo) rows of a
 * group, the row's arrival sums (n) and its lanes' doubles and counts (P x
 * LANE_F and P x LANE_I); each policy's memo (POW_MEMO keys and values);
 * and the group's draws: states and tie uniforms (g x min(T, CHUNK), the
 * uniforms for uniform ties only) and arrivals (g x min(T, CHUNK,
 * SUB_BLOCK) x n). A lane writes only this scratch slot by slot, so
 * concurrent calls share no cache line then; a group copies its lanes'
 * records in from rec and cnt when it starts and out when it ends.
 * Returns 0, or the bytes the scratch needs when it cannot be allocated,
 * before any row runs. */
int64_t run_slots(int64_t P, const int64_t *rules, const double *params, const double *tables,
                  int uniform, int fluid, int64_t R, int64_t r_lo, int64_t r_hi, int64_t T,
                  int64_t burn, int64_t n, int64_t m_states, bitgen_t *const *gens,
                  const double *cum, const double *lam, const double *rates,
                  const double *thresholds, int64_t K, double *rec, int64_t *cnt,
                  double *arr_sum, int record, int64_t *chosen)
{
    const int64_t rec_f = REC_F(n), lane_f = LANE_F(n), lane_i = LANE_I(n, m_states, K);
    const int64_t g_max = r_hi - r_lo < GROUP ? r_hi - r_lo : GROUP;
    const int64_t span = T < CHUNK ? T : CHUNK, drawn = g_max * span;
    const int64_t arr_span = span < SUB_BLOCK ? span : SUB_BLOCK;
    /* the scratch's parts, in 8-byte words from its start */
    const int64_t at_tally = n + g_max * (n + P * lane_f), at_keys = at_tally + g_max * P * lane_i;
    const int64_t at_vals = at_keys + P * POW_MEMO, at_states = at_vals + P * POW_MEMO;
    const int64_t at_u = at_states + drawn, at_arr = at_u + (uniform ? drawn : 0);
    const size_t bytes = (size_t)(at_arr + g_max * arr_span * n) * sizeof(double);
    double *work = malloc(bytes);
    if (work == NULL)
        return (int64_t)bytes;
    int64_t *tally = (int64_t *)(work + at_tally);
    uint64_t *memo_keys = (uint64_t *)(work + at_keys);
    double *memo_vals = work + at_vals, *enlam = work;
    const struct call call = {
        .rules = rules, .params = params, .tables = tables, .rates = rates,
        .thresholds = thresholds, .cum = cum, .lam = lam, .enlam = enlam, .uniform = uniform,
        .record = record, .fluid = fluid, .P = P, .R = R, .T = T, .burn = burn,
        .n = n, .m_states = m_states, .K = K, .states = (int64_t *)(work + at_states),
        .u = work + at_u, .arr = work + at_arr, .chosen = chosen,
        .memo_keys = memo_keys, .memo_vals = memo_vals, .memo_len = POW_MEMO,
    };
    for (int64_t i = 0; i < n; i++)
        enlam[i] = exp(-lam[i]);
    /* every entry starts as the argument 0.0 (all bits 0) with its pow */
    for (int64_t p = 0; p < P; p++) {
        double zero_pow = pow(0.0, params[p]);
        for (int64_t h = 0; h < POW_MEMO; h++) {
            memo_keys[p * POW_MEMO + h] = 0;
            memo_vals[p * POW_MEMO + h] = zero_pow;
        }
    }
    for (int64_t r0 = r_lo; r0 < r_hi; r0 += GROUP) {
        const int64_t g = r_hi - r0 < GROUP ? r_hi - r0 : GROUP;
        struct call calls[GROUP];
        struct stream s[GROUP];
        for (int64_t h = 0; h < g; h++) {
            struct call *row = &calls[h];
            *row = call;
            row->arr_acc = work + n + h * (n + P * lane_f);
            row->lane_f = row->arr_acc + n;
            row->lane_i = tally + h * P * lane_i;
            memset(row->arr_acc, 0, (size_t)n * sizeof(double));
            for (int64_t p = 0; p < P; p++) {
                int64_t pr = p * R + r0 + h;
                memcpy(row->lane_f + p * lane_f, rec + pr * rec_f, (size_t)rec_f * sizeof(double));
                memcpy(row->lane_i + p * lane_i, cnt + pr * lane_i,
                       (size_t)lane_i * sizeof(int64_t));
            }
            open_stream(&s[h], gens[r0 + h]);
        }
        if (g == 1)
            run_group(calls, s, 1, r0);
        else
            run_group(calls, s, g, r0);
        for (int64_t h = 0; h < g; h++) {
            const struct call *row = &calls[h];
            int64_t r = r0 + h;
            memcpy(arr_sum + r * n, row->arr_acc, (size_t)n * sizeof(double));
            for (int64_t p = 0; p < P; p++) {
                int64_t pr = p * R + r;
                memcpy(rec + pr * rec_f, row->lane_f + p * lane_f, (size_t)rec_f * sizeof(double));
                memcpy(cnt + pr * lane_i, row->lane_i + p * lane_i,
                       (size_t)lane_i * sizeof(int64_t));
            }
        }
    }
    free(work);
    return 0;
}
