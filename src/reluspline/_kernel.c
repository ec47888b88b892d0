/* descend: full-batch gradient descent on a 2-layer ReLU net, scalar input.

   theta = [b1 | w1 | w2 | b2] (k units) is updated in place.  Step t writes
   trace row t, (loss + lam * cost, loss, cost) at its iterate, and grad, laid
   out as theta, the objective's gradient with ReLU'(0) = 0.  Points run in
   blocks of B, copied into lane arrays, x and then the residual from b2 - y,
   padded with zeros to a whole number of 4-double vectors (v4); pad lanes
   are computed and never read.  The residual pass runs units outer and
   vectors of 4 points inner, so each lane adds units 0..k-1 in order.  The
   gradient pass runs vectors of 4 units outer, their gb1, gw1 and gw2 sums
   held in three vectors while the block's points run inner in order; the
   k mod 4 units left run the same loop one at a time.  Across lanes nothing
   is summed: the loss, grad[3k] and the cost run one element at a time in
   index order, the cost in the first block's two unit loops (w1^2 in the
   residual pass, w2^2 in the gradient pass), where it runs behind the
   vector work; n = 0 runs one empty block for it.  No sum changes order, so
   the plain body (a v4 op is two SSE2 ops on x86-64, narrower or scalar ops
   elsewhere) and the AVX2 clone that the loader picks on x86-64 glibc round
   as the scalar loops do.  Returns 2 at the first non-finite objective,
   before any stop test; 1 once stop > 0 and |grad| <= stop, leaving theta at
   that iterate; else 0 after max_steps steps.  *done counts rows written. */

#include <math.h>
#include <stdint.h>
#include <string.h>

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) \
    && defined(__GLIBC__)
#define DISPATCH __attribute__((target_clones("avx2", "default")))
#else
#define DISPATCH
#endif
enum { B = 32 };  /* data points per block, a whole number of vectors */

typedef double v4 __attribute__((vector_size(32)));
typedef int64_t v4i __attribute__((vector_size(32)));
/* macros, not functions: a vector argument changes the ABI without AVX.
   memcpy loads and stores at any alignment; LIVE(a, v) is a > 0 ? v : 0. */
#define LOAD(v, p) memcpy(&(v), (p), sizeof(v4))
#define STORE(p, v) memcpy((p), &(v), sizeof(v4))
#define LIVE(a, v) ((v4)((v4i)((a) > 0.0) & (v4i)(v)))

DISPATCH
int descend(int64_t k, int64_t n, const double *xs, const double *ys,
            double lam, double lr, int64_t max_steps, double stop,
            double *theta, double *grad, double *trace, int64_t *done)
{
    const int64_t size = 3 * k + 1, k4 = k - k % 4;
    const double *b1 = theta, *w1 = theta + k, *w2 = theta + 2 * k;
    double *gb1 = grad, *gw1 = grad + k, *gw2 = grad + 2 * k, xl[B], rl[B];
    for (int64_t t = 0; t < max_steps; t++) {
        const double b2 = theta[3 * k];
        double loss = 0.0, cost = 0.0, *row = trace + 3 * t;
        memset(grad, 0, size * sizeof *grad);
        for (int64_t j0 = 0; j0 == 0 || j0 < n; j0 += B) {
            const int64_t m = n - j0 < B ? n - j0 : B, mv = (m + 3) / 4 * 4;
            for (int64_t j = 0; j < mv; j++) {
                xl[j] = j < m ? xs[j0 + j] : 0.0;
                rl[j] = j < m ? b2 - ys[j0 + j] : 0.0;
            }
            for (int64_t i = 0; i < k; i++) {
                for (int64_t j = 0; j < mv; j += 4) {
                    v4 x, r, a;
                    LOAD(x, xl + j), LOAD(r, rl + j);
                    a = w1[i] * x + b1[i];
                    r += w2[i] * LIVE(a, a);
                    STORE(rl + j, r);
                }
                if (j0 == 0)
                    cost += w1[i] * w1[i];
            }
            for (int64_t j = 0; j < m; j++) {
                loss += rl[j] * rl[j];
                grad[3 * k] += rl[j] *= 2.0;
            }
            for (int64_t i = 0; i < k4; i += 4) {
                v4 c, d, g0, g1, g2;
                LOAD(c, w1 + i), LOAD(d, b1 + i);
                LOAD(g0, gb1 + i), LOAD(g1, gw1 + i), LOAD(g2, gw2 + i);
                for (int64_t j = 0; j < m; j++) {
                    const v4 r2 = {rl[j], rl[j], rl[j], rl[j]};
                    const v4 a = c * xl[j] + d, live = LIVE(a, r2);
                    g0 += live, g1 += live * xl[j], g2 += live * a;
                }
                STORE(gb1 + i, g0), STORE(gw1 + i, g1), STORE(gw2 + i, g2);
                for (int64_t u = i; j0 == 0 && u < i + 4; u++)
                    cost += w2[u] * w2[u];
            }
            for (int64_t i = k4; i < k; i++) {
                for (int64_t j = 0; j < m; j++) {
                    const double a = w1[i] * xl[j] + b1[i];
                    const double live_r2 = a > 0.0 ? rl[j] : 0.0;
                    gb1[i] += live_r2;
                    gw1[i] += live_r2 * xl[j];
                    gw2[i] += live_r2 * a;
                }
                if (j0 == 0)
                    cost += w2[i] * w2[i];
            }
        }
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

/* numpy's bit generator interface and its random_standard_normal, passed in */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *);
    uint32_t (*next_uint32)(void *);
    double (*next_double)(void *);
    uint64_t (*next_raw)(void *);
} bitgen_t;
typedef double (*normal_fn)(bitgen_t *);

/* The next word of Philox4x64-10 as numpy's Philox runs it.  s holds its
   state: the counter (4 words), the key (2), a buffer of 4 outputs and the
   index of the next one to hand out.  An empty buffer is refilled from the
   counter, incremented with carry first. */
static inline uint64_t philox(uint64_t *s)
{
    if (s[10] < 4)
        return s[6 + s[10]++];
    for (int i = 0; i < 4 && !++s[i]; i++)
        ;
    uint64_t c0 = s[0], c1 = s[1], c2 = s[2], c3 = s[3], k0 = s[4], k1 = s[5];
    for (int round = 0; round < 10; round++) {
        const u128 p = (u128)0xD2E7470EE14C6C93ULL * c0,
                   q = (u128)0xCA5A826395121157ULL * c2;
        c0 = (uint64_t)(q >> 64) ^ c1 ^ k0, c1 = (uint64_t)q;
        c2 = (uint64_t)(p >> 64) ^ c3 ^ k1, c3 = (uint64_t)p;
        k0 += 0x9E3779B97F4A7C15ULL, k1 += 0xBB67AE8584CAA73BULL;
    }
    s[6] = c0, s[7] = c1, s[8] = c2, s[9] = c3, s[10] = 1;
    return c0;
}

static uint64_t philox_u64(void *s) { return philox(s); }
static double philox_double(void *s) { return (philox(s) >> 11) * 0x1p-53; }

/* the table probe's generator: r once, then 0 (idx 0, rabs 0, accepted by
   any table); next_double counts its calls and returns 0.5, on which the
   wedge and tail tests end */
typedef struct { uint64_t r; int64_t calls; } probe_t;
static uint64_t probe_u64(void *p)
{
    const uint64_t r = ((probe_t *)p)->r;
    ((probe_t *)p)->r = 0;
    return r;
}
static double probe_double(void *p) { ((probe_t *)p)->calls++; return 0.5; }

/* whether normal, fed r, leaves the ziggurat's fast path; *x is its value */
static int rejects(normal_fn normal, uint64_t r, double *x)
{
    probe_t p = {r, 0};
    *x = normal(&(bitgen_t){&p, probe_u64, NULL, probe_double, NULL});
    return p.calls > 0;
}

/* flux_draws: flux_values on n x d standard normals that it draws first,
   bit for bit as numpy's Generator(Philox).standard_normal would from the
   state s (see philox), which it advances.

   numpy's ziggurat takes idx = r & 0xff, rabs = r >> 9 & (2^52 - 1), x =
   rabs wi[idx], negated if bit 8 is set, and returns x if rabs < ki[idx].
   That fast path runs here, the sign by an XOR on x's sign bit, which gives
   the bits of -x.  Otherwise r goes back into the buffer and numpy's own
   routine, handed the stream, draws r again and runs its slow path.  The
   tables, wi (doubles) and then ki, are read off that routine when ki[0]
   is 0: wi[idx] is the x it returns for rabs = 1, ki[idx] the least rabs
   it rejects, by bisection. */
void flux_draws(int64_t n, int64_t d, int64_t k, uint64_t *restrict s,
                void *tables, normal_fn normal, double *restrict g,
                const double *w, const double *t, const double *sm,
                double *work, double *vals)
{
    double *wi = tables;
    uint64_t *ki = (uint64_t *)(wi + 256);
    for (uint64_t idx = ki[0] ? 256 : 0; idx < 256; idx++) {
        uint64_t lo = 0, hi = 1ULL << 52;
        double x;
        rejects(normal, 1 << 9 | idx, &wi[idx]);
        while (lo < hi) {
            const uint64_t mid = lo + (hi - lo) / 2;
            if (rejects(normal, mid << 9 | idx, &x))
                hi = mid;
            else
                lo = mid + 1;
        }
        ki[idx] = lo;
    }
    for (int64_t i = 0; i < n * d; i++) {
        const uint64_t r = philox(s), idx = r & 0xff,
                       rabs = r >> 9 & ((1ULL << 52) - 1);
        const double x = (double)rabs * wi[idx];
        uint64_t bits;
        memcpy(&bits, &x, sizeof bits);
        bits ^= (r & 0x100) << 55;
        memcpy(&g[i], &bits, sizeof bits);
        if (rabs >= ki[idx]) {
            s[10]--;
            g[i] = normal(&(bitgen_t){s, philox_u64, NULL, philox_double,
                                      NULL});
        }
    }
    flux_values(n, d, k, g, w, t, sm, work, vals);
}

/* 5^k for k = 0..27; 10^k = 5^k << k */
#define P4(a) (a), 5 * (a), 25 * (a), 125 * (a)
static const uint64_t pow5[28] = {
    P4(1ULL), P4(625ULL), P4(390625ULL), P4(244140625ULL), P4(152587890625ULL),
    P4(95367431640625ULL), P4(59604644775390625ULL)};

/* shortest() gives the fewest digits D that read back as x, the closest if
   several, as x = D 10^e10, for 2^-36 <= x < 2^57; 0 for any other x.  This
   window is where 128-bit fixed point is exact: with x = M 2^E and k = 16 -
   floor(log10 2^(E + 52)), y = x 10^k in [10^16, 2 10^17) is 32 M 5^k with
   s = 5 - E - k fraction bits, and the half-ulp interval around it is 16 5^k
   (8 5^k below a power of two); 5^k grows 2.3 bits per decade.  D 10^-k
   reads back as x if y - lo < D 2^s < y + hi, lo and hi being those
   half-widths plus 1 when M is even, as reading back rounds ties to even:
   if A < D <= B, for A = floor((y - lo) / 2^s), B = floor((y + hi - 1) / 2^s).
   The multiples of 10 there are 10 times the integers in (A / 10, B / 10],
   so a digit comes off A, B and Y = floor(y / 2^s) while floor(A / 10) <
   floor(B / 10), and q = 10^j counts them.  Then no D ends in 0, and Y q and
   (Y + 1) q are the multiples of q on either side of y: any other inside is
   farther from y than one of them, inside too as the interval holds y.  So
   when both are inside, comparing 2 y + (Y & 1) with (2 Y + 1) q 2^s picks
   D, a tie going to the even one.  In k, 78913 / 2^18 stands for log10 2
   and >> floors, exactly for every exponent. */
static uint64_t shortest(double x, int *e10)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    const int be = (int)(bits >> 52);  /* the biased exponent */
    const uint64_t M = (bits & ((1ULL << 52) - 1)) | 1ULL << 52;
    const int k = 16 - ((be - 1023) * 78913 >> 18);
    if (k < 0 || k > 27)
        return 0;
    const int s = 1080 - be - k;
    const u128 y = (u128)(32 * M) * pow5[k], hi = (u128)pow5[k] * 16 + !(M & 1),
               lo = M == 1ULL << 52 ? (u128)pow5[k] * 8 + 1 : hi;
    uint64_t A = (uint64_t)((y - lo) >> s), B = (uint64_t)((y + hi - 1) >> s),
             Y = (uint64_t)(y >> s), q = 1;
    int j = 0;
    for (; A / 10 < B / 10; j++, q *= 10)
        A /= 10, B /= 10, Y /= 10;
    const u128 mid = (u128)((2 * Y + 1) * q) << s;
    *e10 = j - k;
    return Y + ((Y <= A) | ((Y < B) & (2 * y + (Y & 1) > mid)));
}

static const char pairs[201] =
    "00010203040506070809101112131415161718192021222324"
    "25262728293031323334353637383940414243444546474849"
    "50515253545556575859606162636465666768697071727374"
    "75767778798081828384858687888990919293949596979899";

/* d in decimal at o; returns its digit count, read off its bit length (log10
   2 ~ 1233 / 4096) and one power of 10.  Right to left, two digits per
   division by 100, from pairs. */
static int put_digits(char *o, uint64_t d)
{
    const int t = (64 - __builtin_clzll(d | 1)) * 1233 >> 12;
    const int n = t + 1 - ((d | 1) < pow5[t] << t);
    char *p = o + n;
    for (; d >= 100; d /= 100)
        memcpy(p -= 2, pairs + d % 100 * 2, 2);
    if (d >= 10)
        memcpy(p - 2, pairs + d * 2, 2);
    else
        p[-1] = (char)('0' + d);
    return n;
}

/* the interpreter's PyOS_double_to_string and PyMem_Free, passed in, so the
   library needs no Python headers and has no undefined symbol */
typedef char *(*repr_fn)(double, char, int, int, int *);
typedef void (*free_fn)(void *);

/* repr(x) at o; NULL if the interpreter could not allocate it */
static char *put_repr(char *o, double x, repr_fn repr, free_fn release)
{
    int e10 = 0;
    uint64_t d = shortest(fabs(x), &e10);
    if (!d) {  /* outside the window: float.__repr__'s own call */
        char *s = repr(x, 'r', 0, 2 /* Py_DTSF_ADD_DOT_0 */, NULL);
        if (!s)
            return NULL;
        const size_t n = strlen(s);
        memcpy(o, s, n);
        release(s);
        return o + n;
    }
    if (signbit(x))
        *o++ = '-';
    char g[24];  /* the digits at g + 4, after the four '0's of 0.000ddd */
    memset(g, '0', sizeof g);
    const int n = put_digits(g + 4, d), decpt = n + e10;
    /* as repr: exponent form unless 1e-4 <= x < 1e16, and ".0" on integers */
    if (decpt <= -4 || decpt > 16) {  /* d.ddde-XX or d.ddde+XX */
        *o++ = g[4];
        if (n > 1)
            *o++ = '.', memcpy(o, g + 5, n - 1), o += n - 1;
        const int e = decpt > 0 ? decpt - 1 : 1 - decpt;
        *o++ = 'e', *o++ = decpt > 0 ? '+' : '-';
        if (e < 10)
            *o++ = '0';
        return o + put_digits(o, (uint64_t)e);
    }
    /* 0.000ddd, dd.ddd or ddd00.0: the run up to the point, then the rest */
    const int z = decpt > 0 ? 0 : 1 - decpt, end = n > decpt ? n : decpt + 1;
    memcpy(o, g + 4 - z, z + decpt), o += z + decpt, *o++ = '.';
    memcpy(o, g + 4 + decpt, end - decpt);
    return o + end - decpt;
}

/* rows x cols doubles as csv.writer writes their repr, a row led by its index
   if numbered; returns the bytes written, at most rows * (25 * cols + 22), or
   -1 if repr could not allocate.  repr needs the GIL: the caller holds it. */
int64_t format_table(int64_t rows, int64_t cols, const double *table,
                     int numbered, char *out, repr_fn repr, free_fn release)
{
    char *o = out;
    for (int64_t i = 0; i < rows; i++) {
        if (numbered)
            o += put_digits(o, (uint64_t)i), *o++ = ',';
        for (int64_t j = 0; j < cols; j++, *o++ = ',')
            if (!(o = put_repr(o, table[i * cols + j], repr, release)))
                return -1;
        o[-1] = '\r', *o++ = '\n';
    }
    return o - out;
}
