/* descend: full-batch gradient descent on a 2-layer ReLU net, scalar input.

   theta = [b1 | w1 | w2 | b2] (k units) is updated in place.  Step t writes
   trace row t, (loss + lam * cost, loss, cost) at its iterate, and grad, laid
   out as theta, the objective's gradient with ReLU'(0) = 0.  Points run in
   blocks of B: residuals with units outer, B chains each adding units 0..k-1
   in order, then the gradient a point at a time over contiguous units.  No sum
   changes order, so the AVX2 clone that the loader picks on x86-64 glibc
   rounds as the scalar loop does.  Returns 2 at the first non-finite
   objective, before any stop test; 1 once stop > 0 and |grad| <= stop, leaving
   theta at that iterate; else 0 after max_steps steps.  *done is the number of
   trace rows written. */

#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) \
    && defined(__GLIBC__)
#define DISPATCH __attribute__((target_clones("avx2", "default")))
#else
#define DISPATCH
#endif
enum { B = 32 };  /* data points per block */

DISPATCH
int descend(int64_t k, int64_t n, const double *xs, const double *ys,
            double lam, double lr, int64_t max_steps, double stop,
            double *theta, double *grad, double *trace, int64_t *done)
{
    const int64_t size = 3 * k + 1;
    const double *b1 = theta, *w1 = theta + k, *w2 = theta + 2 * k;
    double *gb1 = grad, *gw1 = grad + k, *gw2 = grad + 2 * k, res[B];
    for (int64_t t = 0; t < max_steps; t++) {
        const double b2 = theta[3 * k];
        double loss = 0.0, cost = 0.0, *row = trace + 3 * t;
        memset(grad, 0, size * sizeof *grad);
        for (int64_t j0 = 0; j0 < n; j0 += B) {
            const int64_t m = n - j0 < B ? n - j0 : B;
            const double *x = xs + j0;
            for (int64_t j = 0; j < m; j++)
                res[j] = b2 - ys[j0 + j];
            for (int64_t i = 0; i < k; i++)
                for (int64_t j = 0; j < m; j++) {
                    const double a = w1[i] * x[j] + b1[i];
                    res[j] += w2[i] * (a > 0.0 ? a : 0.0);
                }
            for (int64_t j = 0; j < m; j++) {
                const double xj = x[j], r = res[j], r2 = 2.0 * r;
                for (int64_t i = 0; i < k; i++) {
                    const double a = w1[i] * xj + b1[i];
                    const double live_r2 = a > 0.0 ? r2 : 0.0;
                    gb1[i] += live_r2;
                    gw1[i] += live_r2 * xj;
                    gw2[i] += live_r2 * a;
                }
                grad[3 * k] += r2;
                loss += r * r;
            }
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

/* flux_values: the per-sample pass of the Laplacian-flux estimator.

   Sample j is row j of g (n x d).  With s = sum_i g_i^2 and u_i = g_i / sqrt(s),
   atom a (row a of w, k x d) projects to p_a = sum_i u_i w_ai, and vals[j] is
   the sum over atoms, from 0, of (p_a > t_a ? p_a : 0) * sm_a.  Every sum runs
   in index order.  Samples run in chunks of F, transposed into work, which
   holds (d + 1) * n doubles: u, then s and each atom's p in turn, so each loop
   runs across samples, in vector lanes where the CPU has them, with no sum
   reordered. */
enum { F = 256 };  /* flux samples per chunk */

DISPATCH
void flux_values(int64_t n, int64_t d, int64_t k,
                 const double *restrict g, const double *restrict w,
                 const double *restrict t, const double *restrict sm,
                 double *restrict work, double *restrict vals)
{
    for (int64_t j0 = 0; j0 < n; j0 += F) {
        const int64_t m = n - j0 < F ? n - j0 : F;
        const double *x = g + j0 * d;
        double *restrict u = work, *restrict p = work + d * m, *v = vals + j0;
        for (int64_t j = 0; j < m; j++)
            p[j] = x[j * d] * x[j * d];
        for (int64_t i = 1; i < d; i++)
            for (int64_t j = 0; j < m; j++)
                p[j] += x[j * d + i] * x[j * d + i];
        for (int64_t j = 0; j < m; j++)
            p[j] = sqrt(p[j]);
        for (int64_t i = 0; i < d; i++)
            for (int64_t j = 0; j < m; j++)
                u[i * m + j] = x[j * d + i] / p[j];
        for (int64_t j = 0; j < m; j++)
            v[j] = 0.0;
        for (int64_t a = 0; a < k; a++) {
            const double *wa = w + a * d, ta = t[a], sa = sm[a];
            for (int64_t j = 0; j < m; j++)
                p[j] = u[j] * wa[0];
            for (int64_t i = 1; i < d; i++)
                for (int64_t j = 0; j < m; j++)
                    p[j] += u[i * m + j] * wa[i];
            for (int64_t j = 0; j < m; j++)
                v[j] += (p[j] > ta ? p[j] : 0.0) * sa;
        }
    }
}

typedef unsigned __int128 u128;

/* shortest() gives the fewest digits D that read back as x > 0, the closest
   if several, as x ~ D 10^e10.  For 2^-36 <= x < 2^57 it is exact in 128-bit
   fixed point: with x = M 2^E and k = 16 - floor(log10 2^(E + 52)), y = x 10^k
   in [10^16, 2 10^17) is 32 M 5^k with 5 - E - k fraction bits, and the
   half-ulp interval around it is 16 5^k (8 5^k below a power of two).  The
   multiples of 10^j on either side of y are tested against it, ends included
   when M is even, as strtod rounds ties to even.  Elsewhere it bisects on p
   for the closest p-digit decimal, "%.{p-1}e", or the next one up (which can
   below a power of two, where the closest cannot) reading back via strtod. */
static uint64_t shortest(double x, int *e10)
{
    uint64_t bits, best = 0;
    memcpy(&bits, &x, sizeof bits);
    const int be = (int)(bits >> 52);  /* x > 0: the biased exponent */
    const uint64_t M = (bits & ((1ULL << 52) - 1)) | 1ULL << 52;
    const int k = 16 - (int)floor((be - 1023) * 0.30102999566398120);
    if (k >= 0 && k <= 27) {
        uint64_t p5 = 1;
        for (int i = 0; i < k; i++)
            p5 *= 5;
        /* inside the interval: dlo < lo and dhi < hi, ends in if M is even */
        const int s = 1080 - be - k;
        const u128 y = (u128)(32 * M) * p5, hi = (u128)p5 * 16 + !(M & 1),
                   lo = M == 1ULL << 52 ? (u128)p5 * 8 + 1 : hi;
        const uint64_t Y = (uint64_t)(y >> s);
        for (uint64_t q = 1; q <= 100000000000000000ULL; q *= 10) {
            const uint64_t c = Y / q * q;
            const u128 dlo = y - ((u128)c << s), dhi = ((u128)q << s) - dlo;
            if (dlo >= lo && dhi >= hi)
                break;
            best = dlo < lo && (dhi >= hi || dlo < dhi + !(c / q & 1))
                   ? c : c + q;
        }
        *e10 = -k;
        return best;
    }
    /* most doubles need 16 or 17 digits: try 15 first */
    for (int lo = 1, hi = 17, p = 15; lo <= hi; p = (lo + hi) / 2) {
        char s[40], *c;
        snprintf(s, sizeof s, "%.*e", p - 1, x);
        memmove(s + 1, s + 1 + (p > 1), sizeof s - 2);  /* drop the point */
        uint64_t n, d = strtoull(s, &c, 10);
        const int e = atoi(c + 1) - (p - 1);
        for (n = d; n <= d + 1; n++) {
            snprintf(s, sizeof s, "%llue%d", (unsigned long long)n, e);
            if (strtod(s, NULL) == x)
                break;
        }
        if (n <= d + 1)
            best = n, *e10 = e, hi = p - 1;
        else
            lo = p + 1;
    }
    return best;
}

static int put_digits(char *o, uint64_t d)  /* returns the digit count */
{
    int n = 1;
    for (uint64_t t = d; t >= 10; t /= 10)
        n++;
    for (int i = n; i--; d /= 10)
        o[i] = (char)('0' + d % 10);
    return n;
}

static char *put_repr(char *o, double x)
{
    if (signbit(x) && !isnan(x))
        *o++ = '-', x = -x;
    if (!isfinite(x) || x == 0.0)
        return memcpy(o, isnan(x) ? "nan" : x ? "inf" : "0.0", 3), o + 3;
    int e10 = 0;
    uint64_t d = shortest(x, &e10);
    for (; d % 10 == 0; d /= 10)
        e10++;
    char g[20];
    const int n = put_digits(g, d), decpt = n + e10;
    /* as repr: exponent form unless 1e-4 <= x < 1e16, and ".0" on integers */
    const int sci = decpt <= -4 || decpt > 16, point = sci ? 1 : decpt;
    if (point <= 0)
        *o++ = '0';
    for (int i = point < 0 ? point : 0; i < n || (!sci && i <= point); i++) {
        if (i == point)
            *o++ = '.';
        *o++ = 0 <= i && i < n ? g[i] : '0';
    }
    return sci ? o + sprintf(o, "e%+03d", decpt - 1) : o;
}

/* rows x cols doubles as csv.writer writes their repr, a row led by its index
   if numbered; returns the bytes written, at most rows * (25 * cols + 22) */
int64_t format_table(int64_t rows, int64_t cols, const double *table,
                     int numbered, char *out)
{
    char *o = out;
    for (int64_t i = 0; i < rows; i++) {
        if (numbered)
            o += put_digits(o, (uint64_t)i), *o++ = ',';
        for (int64_t j = 0; j < cols; j++)
            o = put_repr(o, table[i * cols + j]), *o++ = ',';
        o[-1] = '\r', *o++ = '\n';
    }
    return o - out;
}
