/* The slot recursion of schedlab.simulator.run_replications, draws included.
 *
 * Each of R rows runs its replication's T slots in chunks of `chunk` slots,
 * drawing each chunk from the row's own numpy bit generator (gens[r], the
 * bitgen_t behind its numpy Generator) in the order numpy's reference
 * samplers (model.sample_channel, model.sample_arrivals, Generator.random)
 * draw it: chunk channel uniforms, each mapped to the count of cum <= u
 * (np.searchsorted(cum, u, side="right")); chunk x n Poisson counts,
 * slot-major, or lam itself for fluid arrivals; then, for uniform ties,
 * chunk tie uniforms. Poisson counts come from numpy's own random_poisson
 * (libnpyrandom.a) for lam == 0 and lam >= 10, and below 10 from its
 * multiplication method, inlined here with exp(-lam) taken once per user
 * instead of once per variate: the same value, so every draw is bitwise
 * numpy's and the generator is left where numpy would leave it.
 *
 * A slot scores the users on the queues before arrivals with
 * schedulers.stable_scores, picks from the set tied_mask gives
 * (score >= row max - 1e-12), adds the slot's arrivals and drains
 * min(backlog, rate) from the chosen user. Built with -ffp-contract=off, the
 * scores are bitwise the ones stable_scores computes, whose powers are libm's
 * pow too.
 *
 * The same walk adds each post-burn-in slot into the run's statistics, and
 * fills the per-slot trace (draws, choice, departure, queues) only when the
 * caller records one. Every float sum, here and in exp's mean, runs left to
 * right, one slot or user at a time, from 0.0.
 */
#include <math.h>
#include <stdint.h>

#include "numpy/random/bitgen.h"

/* declared in numpy/random/distributions.h, which needs Python.h */
int64_t random_poisson(bitgen_t *bitgen_state, double lam);

enum { RULE_HET = 0, RULE_EXP = 1, RULE_MW = 2 };

#define TIE_TOL 1e-12

static inline double next_double(bitgen_t *g)
{
    return g->next_double(g->state);
}

/* numpy's random_poisson, with its multiplication method for 0 < lam < 10
 * (random_poisson_mult) inlined on enlam = exp(-lam) */
static int64_t poisson(bitgen_t *g, double lam, double enlam)
{
    if (lam >= 10.0 || lam == 0.0)
        return random_poisson(g, lam);
    int64_t x = 0;
    double prod = 1.0;
    for (;;) {
        prod *= next_double(g);
        if (prod > enlam)
            x++;
        else
            return x;
    }
}

/* One row's c slots of draws, in numpy's order: states, arrivals (c x n,
 * slot-major), and tie uniforms u when uniform is nonzero. cum ascends to
 * cum[m_states - 1] = 1 > u, so the count of cum <= u is a state index. */
static void draw_chunk(bitgen_t *g, int64_t c, int64_t n, int64_t m_states, const double *cum,
                       int fluid, const double *lam, const double *enlam, int uniform,
                       int64_t *states, double *arr, double *u)
{
    for (int64_t k = 0; k < c; k++) {
        double v = next_double(g);
        int64_t lo = 0, hi = m_states - 1;
        while (lo < hi) {
            int64_t mid = (lo + hi) / 2;
            if (cum[mid] <= v)
                lo = mid + 1;
            else
                hi = mid;
        }
        states[k] = lo;
    }
    for (int64_t k = 0; k < c; k++)
        for (int64_t i = 0; i < n; i++)
            arr[k * n + i] = fluid ? lam[i] : (double)poisson(g, lam[i], enlam[i]);
    if (uniform)
        for (int64_t k = 0; k < c; k++)
            u[k] = next_double(g);
}

/* rule: RULE_HET (table = F/maxF, param = q_th), RULE_EXP (table = log F
 * with -inf for F = 0, param = eta), RULE_MW (table = F, param = alpha).
 * With uniform nonzero each slot draws a tie uniform u and serves the
 * floor(u * count) + 1-th tied user, else the lowest tied index. cum
 * (m_states) is the channel's cumulative distribution with its last entry
 * 1; lam (n) the arrival rates, drawn as Poisson counts unless fluid is
 * nonzero. q (R x n) carries the queues in and out.
 *
 * Slots from burn on add into arr_sum, dep_sum, q_sum (R x n), served
 * (R x m_states x n: slots in state m serving user i), over (R x K: slots
 * whose largest queue reaches thresholds[j], which ascend strictly) and
 * max_seen (R); initial_q (R x n) takes the queues after slot burn - 1.
 * With record nonzero, states, u, arr (R x T, R x T or empty, R x T x n)
 * keep every slot's draws, chosen and dep (R x T) its choice and departure
 * and qtraj (R x (T + 1) x n) the queues after it, behind row 0, which is
 * not touched; otherwise states, u and arr are one chunk's scratch (chunk,
 * chunk, chunk x n) and chosen, dep and qtraj are not touched. work is
 * scratch for 2 n doubles. */
void run_slots(int rule, int uniform, int fluid, int64_t R, int64_t T, int64_t chunk, int64_t burn,
               int64_t n, int64_t m_states, bitgen_t *const *gens, const double *cum,
               const double *lam, const double *rates, const double *table, double param,
               const double *thresholds, int64_t K, double *q, double *work, double *arr_sum,
               double *dep_sum, double *q_sum, int64_t *served, int64_t *over, double *max_seen,
               double *initial_q, int record, int64_t *states, double *u, double *arr,
               int64_t *chosen, double *dep, double *qtraj)
{
    double *score = work, *enlam = work + n;
    for (int64_t i = 0; i < n; i++)
        enlam[i] = exp(-lam[i]);
    for (int64_t r = 0; r < R; r++) {
        double *Q = q + r * n;
        for (int64_t done = 0; done < T; done += chunk) {
            int64_t c = T - done < chunk ? T - done : chunk;
            int64_t at = record ? r * T + done : 0; /* the chunk's first slot in the buffers */
            int64_t *st = states + at;
            double *a = arr + at * n, *uc = u + at;
            draw_chunk(gens[r], c, n, m_states, cum, fluid, lam, enlam, uniform, st, a, uc);
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
                    double denom = 1.0 + pow(total / (double)n, param);
                    for (int64_t i = 0; i < n; i++)
                        score[i] = Q[i] / denom + row[i];
                } else {
                    double qmax = Q[0];
                    for (int64_t i = 1; i < n; i++)
                        if (Q[i] > qmax)
                            qmax = Q[i];
                    for (int64_t i = 0; i < n; i++)
                        score[i] = qmax > 0.0 ? pow(Q[i] / qmax, param) * row[i] : 0.0;
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
                    double *path = qtraj + (r * (T + 1) + 1 + slot) * n;
                    chosen[at + k] = pick;
                    dep[at + k] = d;
                    for (int64_t i = 0; i < n; i++)
                        path[i] = Q[i];
                }

                if (slot == burn - 1)
                    for (int64_t i = 0; i < n; i++)
                        initial_q[r * n + i] = Q[i];
                if (slot < burn)
                    continue;
                double qmax = Q[0];
                for (int64_t i = 1; i < n; i++)
                    if (Q[i] > qmax)
                        qmax = Q[i];
                for (int64_t i = 0; i < n; i++) {
                    arr_sum[r * n + i] += ak[i];
                    q_sum[r * n + i] += Q[i];
                }
                dep_sum[r * n + pick] += d;
                served[(r * m_states + m) * n + pick]++;
                for (int64_t j = 0; j < K && qmax >= thresholds[j]; j++)
                    over[r * K + j]++;
                if (qmax > max_seen[r])
                    max_seen[r] = qmax;
            }
        }
    }
}
