/* Full-batch gradient descent on a 2-layer ReLU net with scalar input.

   theta = [b1 | w1 | w2 | b2] (k units) is updated in place.  Step t writes
   trace row t, (loss + lam * cost, loss, cost) at its iterate, and grad, laid
   out as theta, the objective's gradient with ReLU'(0) = 0, summed one data
   point at a time so that inner loops run over contiguous units.  Returns 2
   at the first non-finite objective, before any stop test; 1 once stop > 0
   and |grad| <= stop, leaving theta at that iterate; else 0 after max_steps
   steps.  *done is the number of trace rows written. */

#include <math.h>
#include <stdint.h>
#include <string.h>

int descend(int64_t k, int64_t n, const double *xs, const double *ys,
            double lam, double lr, int64_t max_steps, double stop,
            double *theta, double *grad, double *trace, int64_t *done)
{
    const int64_t size = 3 * k + 1;
    const double *b1 = theta, *w1 = theta + k, *w2 = theta + 2 * k;
    double *gb1 = grad, *gw1 = grad + k, *gw2 = grad + 2 * k;
    for (int64_t t = 0; t < max_steps; t++) {
        const double b2 = theta[3 * k];
        double loss = 0.0, cost = 0.0, *row = trace + 3 * t;
        memset(grad, 0, size * sizeof *grad);
        for (int64_t j = 0; j < n; j++) {
            const double x = xs[j];
            double r = b2 - ys[j];
            for (int64_t i = 0; i < k; i++) {
                const double a = w1[i] * x + b1[i];
                r += w2[i] * (a > 0.0 ? a : 0.0);
            }
            const double r2 = 2.0 * r;
            for (int64_t i = 0; i < k; i++) {
                const double a = w1[i] * x + b1[i];
                const double live_r2 = a > 0.0 ? r2 : 0.0;
                gb1[i] += live_r2;
                gw1[i] += live_r2 * x;
                gw2[i] += live_r2 * a;
            }
            grad[3 * k] += r2;
            loss += r * r;
        }
        for (int64_t i = k; i < 3 * k; i++)
            cost += theta[i] * theta[i];
        row[1] = loss;
        row[2] = 0.5 * cost;
        row[0] = loss + lam * row[2];
        *done = t + 1;
        if (!isfinite(row[0]))
            return 2;
        for (int64_t i = 0; i < k; i++) {
            gb1[i] *= w2[i];
            gw1[i] = w2[i] * gw1[i] + lam * w1[i];
            gw2[i] += lam * w2[i];
        }
        double norm2 = 0.0;
        for (int64_t i = 0; stop > 0.0 && i < size; i++)
            norm2 += grad[i] * grad[i];
        if (stop > 0.0 && sqrt(norm2) <= stop)
            return 1;
        for (int64_t i = 0; i < size; i++)
            theta[i] -= lr * grad[i];
    }
    *done = max_steps;
    return 0;
}
