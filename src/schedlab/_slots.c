/* The slot recursion of schedlab.simulator.run_replications.
 *
 * Each of R rows walks its c pre-drawn slots. A slot scores the users on the
 * queues before arrivals with schedulers.stable_scores, picks from the set
 * tied_mask gives (score >= row max - 1e-12), adds the slot's arrivals and
 * drains min(backlog, rate) from the chosen user. Built with
 * -ffp-contract=off, het and exp scores are bitwise the ones stable_scores
 * computes (libm pow is numpy's scalar power); mw's pow may differ from
 * numpy's vectorized power in the last bit, which moves a decision only when
 * a score gap lies within an ulp of the 1e-12 tie tolerance.
 *
 * The same walk reduces the post-burn-in slots into the run's statistics,
 * and fills the per-slot trace (choice, departure, queues) only when the
 * caller records one. The float sums keep the order of the numpy reduction
 * of a recorded chunk (arr[:, lo:].sum(axis=1), a weighted bincount of the
 * departures, qtraj[:, lo:].sum(axis=1)), so both give the same bits: each
 * row's chunk sums start at 0.0 and are added once into the totals; the
 * departures add slot by slot; the arrivals and queues add slot by slot for
 * n >= 2, but for n == 1 numpy sums the slot axis pairwise, and so does the
 * kernel, over the chunk's post-burn-in run.
 */
#include <math.h>
#include <stdint.h>

enum { RULE_HET = 0, RULE_EXP = 1, RULE_MW = 2 };

#define TIE_TOL 1e-12

/* numpy's pairwise summation of a contiguous float64 run (np.add.reduce):
 * 8 accumulators up to 128 entries, halves split at a multiple of 8 above */
static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        int64_t i;
        for (int j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

/* rule: RULE_HET (table = F/maxF, param = q_th), RULE_EXP (table = log F
 * with -inf for F = 0, param = eta), RULE_MW (table = F, param = alpha).
 * u holds one uniform per slot when uniform is nonzero (the
 * floor(u * count) + 1-th tied user is served), else it is not read and the
 * lowest tied index is served. q (R x n) carries the queues in and out.
 *
 * Slot k of the chunk is post-burn-in when k >= lo (lo = burn - slots done
 * before the chunk, any sign). Those slots add into arr_sum, dep_sum, q_sum
 * (R x n), served (R x m_states x n: slots in state m serving user i), over
 * (R x K: slots whose largest queue reaches thresholds[j], which ascend
 * strictly) and max_seen (R); initial_q (R x n) takes the queues after slot
 * lo - 1 when it lies in the chunk. With record nonzero, chosen (R x c),
 * dep (R x c) and qtraj (R x c x n) get each slot's choice, departure and
 * queues after it; otherwise they are not touched. work is scratch for
 * 4 n doubles, plus c when n == 1 and record is zero. */
void run_slots(int rule, int uniform, int64_t R, int64_t c, int64_t n, int64_t m_states,
               int64_t lo, const int64_t *states, const double *arr, const double *u,
               const double *rates, const double *table, double param,
               const double *thresholds, int64_t K, double *q, double *work,
               double *arr_sum, double *dep_sum, double *q_sum, int64_t *served,
               int64_t *over, double *max_seen, double *initial_q,
               int record, int64_t *chosen, double *dep, double *qtraj)
{
    double *score = work, *arr_part = work + n, *dep_part = work + 2 * n, *q_part = work + 3 * n;
    int64_t first = lo > 0 ? lo : 0;
    for (int64_t r = 0; r < R; r++) {
        double *Q = q + r * n;
        /* n == 1: the row's queue path, for numpy's pairwise order */
        double *path = record ? qtraj + r * c : work + 4 * n;
        for (int64_t i = 0; i < n; i++)
            arr_part[i] = dep_part[i] = q_part[i] = 0.0;
        for (int64_t k = 0; k < c; k++) {
            int64_t slot = r * c + k;
            int64_t m = states[slot];
            const double *row = table + m * n;
            if (rule == RULE_HET) {
                for (int64_t i = 0; i < n; i++)
                    score[i] = row[i] + Q[i] / param;
            } else if (rule == RULE_EXP) {
                double denom = 1.0 + pow(pairwise_sum(Q, n) / (double)n, param);
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
                int64_t target = (int64_t)floor(u[slot] * (double)count);
                while (target > 0 && pick < n - 1) {
                    pick++;
                    target -= score[pick] >= bar;
                }
            }

            const double *a = arr + slot * n;
            for (int64_t i = 0; i < n; i++)
                Q[i] += a[i];
            double rate = rates[m * n + pick];
            double d = Q[pick] < rate ? Q[pick] : rate;
            Q[pick] -= d;
            if (record) {
                chosen[slot] = pick;
                dep[slot] = d;
                double *qt = qtraj + slot * n;
                for (int64_t i = 0; i < n; i++)
                    qt[i] = Q[i];
            }

            if (k == lo - 1)
                for (int64_t i = 0; i < n; i++)
                    initial_q[r * n + i] = Q[i];
            if (k < lo)
                continue;
            double qmax = Q[0];
            for (int64_t i = 1; i < n; i++)
                if (Q[i] > qmax)
                    qmax = Q[i];
            if (n == 1) {
                path[k] = Q[0];
            } else {
                for (int64_t i = 0; i < n; i++) {
                    arr_part[i] += a[i];
                    q_part[i] += Q[i];
                }
            }
            dep_part[pick] += d;
            served[(r * m_states + m) * n + pick]++;
            for (int64_t j = 0; j < K && qmax >= thresholds[j]; j++)
                over[r * K + j]++;
            if (qmax > max_seen[r])
                max_seen[r] = qmax;
        }
        if (first >= c)
            continue;
        if (n == 1) {
            arr_part[0] = pairwise_sum(arr + r * c + first, c - first);
            q_part[0] = pairwise_sum(path + first, c - first);
        }
        for (int64_t i = 0; i < n; i++) {
            arr_sum[r * n + i] += arr_part[i];
            dep_sum[r * n + i] += dep_part[i];
            q_sum[r * n + i] += q_part[i];
        }
    }
}
