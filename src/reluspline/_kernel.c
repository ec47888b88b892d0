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
   holds (d + 1) * n doubles: u, then s, so the normalization runs across
   samples.  The atoms then run once per vector of 4 samples, whose
   projection and sum stay in vector lanes (a last, partial vector reads 0
   in its spare lanes and writes only its samples), with no sum reordered. */
enum { F = 256 };  /* flux samples per chunk */

/* vals v at the L <= 4 samples from column j of u (d rows of m) */
static inline __attribute__((always_inline)) void
flux_vector(int64_t j, int64_t L, int64_t m, int64_t d, int64_t k,
            const double *u, const double *w, const double *t,
            const double *sm, double *v)
{
    v4 sum = {0}, p, ui = {0};
    for (int64_t a = 0; a < k; a++) {
        const double *wa = w + a * d;
        memcpy(&ui, u + j, L * sizeof(double));
        p = ui * wa[0];
        for (int64_t i = 1; i < d; i++) {
            memcpy(&ui, u + i * m + j, L * sizeof(double));
            p += ui * wa[i];
        }
        sum += (v4)((v4i)(p > t[a]) & (v4i)p) * sm[a];
    }
    memcpy(v + j, &sum, L * sizeof(double));
}

DISPATCH
void flux_values(int64_t n, int64_t d, int64_t k,
                 const double *restrict g, const double *restrict w,
                 const double *restrict t, const double *restrict sm,
                 double *restrict work, double *restrict vals)
{
    for (int64_t j0 = 0; j0 < n; j0 += F) {
        const int64_t m = n - j0 < F ? n - j0 : F;
        const double *x = g + j0 * d;
        double *restrict u = work, *restrict p = work + d * m;
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
        int64_t j = 0;
        for (; j + 4 <= m; j += 4)
            flux_vector(j, 4, m, d, k, u, w, t, sm, vals + j0);
        if (j < m)
            flux_vector(j, m - j, m, d, k, u, w, t, sm, vals + j0);
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

/* Philox4x64-10's block for the counter c and the key (k0, k1), into out.
   numpy's Philox keeps its state in 11 words, s: the counter (4 words), the
   key (2), a buffer holding the last block and the index of its next word
   to hand out.  An empty buffer (index 4) is refilled with the block of the
   counter, incremented with carry first. */
static inline void philox(const uint64_t *c, uint64_t k0, uint64_t k1,
                          uint64_t *out)
{
    uint64_t c0 = c[0], c1 = c[1], c2 = c[2], c3 = c[3];
    for (int round = 0; round < 10; round++) {
        const u128 p = (u128)0xD2E7470EE14C6C93ULL * c0,
                   q = (u128)0xCA5A826395121157ULL * c2;
        c0 = (uint64_t)(q >> 64) ^ c1 ^ k0, c1 = (uint64_t)q;
        c2 = (uint64_t)(p >> 64) ^ c3 ^ k1, c3 = (uint64_t)p;
        k0 += 0x9E3779B97F4A7C15ULL, k1 += 0xBB67AE8584CAA73BULL;
    }
    out[0] = c0, out[1] = c1, out[2] = c2, out[3] = c3;
}

/* the stream that numpy's slow path reads: a chunk's words r from pos on,
   then, past its m words, the state s's, as numpy's Philox hands them out */
typedef struct { const uint64_t *r; int64_t pos, m; uint64_t *s; } reader_t;
static uint64_t read_u64(void *p)
{
    reader_t *q = p;
    uint64_t *s = q->s;
    if (q->pos++ < q->m)
        return q->r[q->pos - 1];
    if (s[10] >= 4) {
        for (int i = 0; i < 4 && !++s[i]; i++)
            ;
        philox(s, s[4], s[5], s + 6);
        s[10] = 0;
    }
    return s[6 + s[10]++];
}
static double read_double(void *p) { return (read_u64(p) >> 11) * 0x1p-53; }

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
   state s (see philox), which it leaves as numpy would.

   numpy's ziggurat takes idx = r & 0xff, rabs = r >> 9 & (2^52 - 1), x =
   rabs wi[idx], negated if bit 8 is set, and returns x if rabs < ki[idx].
   Draws run in chunks of at most C words, one per draw left: the buffer's
   words, then whole blocks run from the counter in registers, the last of
   them left in the buffer.  One pass gives each word its fast-path value,
   the sign by an XOR on x's sign bit (the bits of -x), and whether the
   tables accept it.  The runs of accepted words are copied out; at a
   rejected word numpy's own routine runs its slow path on a reader that
   hands it that word again, then the chunk's next words, then the state's.
   The tables, wi (doubles) and then ki, are read off that routine when
   ki[0] is 0: wi[idx] is the x it returns for rabs = 1, ki[idx] the least
   rabs it rejects, by bisection. */
enum { C = 512 };  /* Philox words per chunk of flux draws */

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
    uint64_t r[C + 3];  /* a chunk's words, and the rest of its last block */
    double x[C];
    char ok[C];
    for (int64_t done = 0; done < n * d;) {
        const int64_t m = n * d - done < C ? n * d - done : C;
        int64_t have = 4 - (int64_t)s[10] < m ? 4 - (int64_t)s[10] : m;
        memcpy(r, s + 6 + s[10], have * sizeof *r);
        s[10] += have;
        if (have < m) {
            uint64_t c[4] = {s[0], s[1], s[2], s[3]};
            for (; have < m; have += 4) {
                if (!++c[0] && !++c[1] && !++c[2])
                    ++c[3];
                philox(c, s[4], s[5], r + have);
            }
            memcpy(s, c, sizeof c);
            memcpy(s + 6, r + have - 4, 4 * sizeof *r);
            s[10] = 4 - (have - m);
        }
        for (int64_t i = 0; i < m; i++) {
            const uint64_t idx = r[i] & 0xff,
                           rabs = r[i] >> 9 & ((1ULL << 52) - 1);
            const double v = (double)rabs * wi[idx];
            uint64_t bits;
            memcpy(&bits, &v, sizeof bits);
            bits ^= (r[i] & 0x100) << 55;
            memcpy(&x[i], &bits, sizeof bits);
            ok[i] = rabs < ki[idx];
        }
        reader_t q = {r, 0, m, s};
        while (q.pos < m) {
            const char *bad = memchr(ok + q.pos, 0, m - q.pos);
            const int64_t end = bad ? bad - ok : m;
            memcpy(g + done, x + q.pos, (end - q.pos) * sizeof *g);
            done += end - q.pos, q.pos = end;
            if (bad)
                g[done++] = normal(&(bitgen_t){&q, read_u64, NULL,
                                               read_double, NULL});
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

/* fit: the exact regularized fit behind spline.regularized_fit, on n >= 2
   points with increasing xs: the fitted values yhat that minimize
   |y - yhat|^2 (squared) or |y - yhat|_1, plus lam cost(yhat), into out[0..n),
   and a lower bound on that minimum, into out[n].  Returns the active-set
   passes, or -1 if they did not converge.

   With A = [D; c], D the (n-2) x n slope-jump matrix and c the row of the
   first plus the last secant slope, cost(yhat) is the largest v . A yhat
   over the polytope P: |v_j| + |v_c| <= 1, |v_c| <= 1/2.  So with u =
   (lam/2) v the squared loss has the dual min |y - A^T u|^2 over u in
   (lam/2) P, with yhat = y - A^T u, and the absolute loss the LP max
   2 y . A^T u over the same u with |2 A^T u| <= 1, whose multipliers on
   those rows are y - yhat.  With A^T = QR and z = R u, the first is the
   projection of z0 = Q^T y onto a polytope in z and the second an LP over
   it; z is well scaled where u is not, since A differences the secant
   slopes.  A^T is banded but for its last column, c, so each Householder
   reflector spans 3 rows and R is banded but for its last column: the QR
   and R^-1 cost O(n^2).  One primal active-set method, passes, solves
   both.  A solve fixes the sign of v_c, which makes the polytope simple;
   when the multipliers show that the other sign does better, it continues
   there once.

   work holds m (2n + 3m + H + 9) + 3H + 2n doubles, for m = n - 1 and H =
   2m rows, 2m + 2n for the absolute loss.  The passes and the additions to
   the working set, where the time goes, have AVX2 clones, into which dot
   and axpy are inlined; dot sums in a fixed order, so no bit depends on the
   body that runs. */
#define INLINE static inline __attribute__((always_inline))

/* a . b: two 4-lane sums, added lanewise, then pairwise, then the tail */
INLINE double dot(int64_t n, const double *a, const double *b)
{
    v4 s0 = {0}, s1 = {0}, x, y;
    int64_t i = 0;
    for (; i + 8 <= n; i += 8) {
        LOAD(x, a + i), LOAD(y, b + i), s0 += x * y;
        LOAD(x, a + i + 4), LOAD(y, b + i + 4), s1 += x * y;
    }
    s0 += s1;
    double s = (s0[0] + s0[1]) + (s0[2] + s0[3]);
    for (; i < n; i++)
        s += a[i] * b[i];
    return s;
}

INLINE void axpy(int64_t n, double a, const double *restrict x,
                 double *restrict y)
{
    for (int64_t i = 0; i < n; i++)
        y[i] += a * x[i];
}

/* The active-set method's state: z in R^m; H unit rows, row j at t + j m,
   with bounds h; the objective, |z - z0|^2 / 2 or, for an LP, -2 z0 . z;
   the working rows work[0..w), free[j] = 0 on them, with an orthonormal
   basis (vector j at basis + j m) and the triangle tri (column j at tri +
   j m) of the rows = basis tri; the multipliers of the last pass, and
   scratch vectors. */
typedef struct {
    int64_t m, H, w, lp;
    const double *t, *h, *z0;
    double *z, *basis, *tri, *mult, *grad, *step, *v;
    int64_t *work;
    char *free;
} active_set;

/* row i into the working set: modified Gram-Schmidt, twice, onto the
   basis; classical Gram-Schmidt, even twice, left the basis of working rows
   of condition 1e4 orthonormal only to 8e-14, and the final z with it */
DISPATCH static void add_row(active_set *s, int64_t i)
{
    const int64_t m = s->m, w = s->w;
    double *col = s->basis + w * m, *r = s->tri + w * m;
    memcpy(col, s->t + i * m, m * sizeof *col);
    for (int64_t j = 0; j < w; j++)
        r[j] = 0.0;
    for (int pass = 0; pass < 2; pass++)
        for (int64_t j = 0; j < w; j++) {
            const double d = dot(m, s->basis + j * m, col);
            r[j] += d;
            axpy(m, -d, s->basis + j * m, col);
        }
    r[w] = sqrt(dot(m, col, col));
    for (int64_t l = 0; l < m; l++)
        col[l] /= r[w];
    s->work[w] = i, s->free[i] = 0, s->w = w + 1;
}

/* the working row at position p out: its column leaves the triangle, and
   Givens rotations of the rows below and of the basis make it triangular
   again (Golub & Van Loan, Matrix Computations, 4th ed., 6.5.2) */
static void drop_row(active_set *s, int64_t p)
{
    const int64_t m = s->m, w = --s->w;
    s->free[s->work[p]] = 1;
    for (int64_t j = p; j < w; j++) {
        s->work[j] = s->work[j + 1];
        memcpy(s->tri + j * m, s->tri + (j + 1) * m, (j + 2) * sizeof(double));
    }
    for (int64_t r = p; r < w; r++) {
        const double *d = s->tri + r * m, g = hypot(d[r], d[r + 1]);
        const double c = d[r] / g, sn = d[r + 1] / g;
        for (int64_t j = r; j < w; j++) {
            double *col = s->tri + j * m, x = col[r], y = col[r + 1];
            col[r] = c * x + sn * y, col[r + 1] = c * y - sn * x;
        }
        double *b0 = s->basis + r * m, *b1 = b0 + m;
        for (int64_t i = 0; i < m; i++) {
            const double x = b0[i], y = b1[i];
            b0[i] = c * x + sn * y, b1[i] = c * y - sn * x;
        }
    }
}

/* x with tri^T x = b, in place */
INLINE void solve_tri_t(const active_set *s, double *b)
{
    for (int64_t r = 0; r < s->w; r++)
        b[r] = (b[r] - dot(r, s->tri + r * s->m, b)) / s->tri[r * s->m + r];
}

/* x with tri x = b, in place */
INLINE void solve_tri(const active_set *s, double *b)
{
    for (int64_t r = s->w - 1; r >= 0; r--) {
        b[r] /= s->tri[r * s->m + r];
        axpy(r, -b[r], s->tri + r * s->m, b);
    }
}

/* the basis and triangle anew from the working rows, in order */
static void refactor(active_set *s)
{
    const int64_t w = s->w;
    s->w = 0;
    for (int64_t j = 0; j < w; j++)
        add_row(s, s->work[j]);
}

/* At most budget passes of the primal active-set method from a feasible z
   and its working set; returns the passes run, the last the one that found
   no negative multiplier, or 0 if they ran out.  A pass puts an LP's z back
   on the working rows, then steps along the objective's descent projected
   off them, up to the first row it meets, which joins the set, or to the
   projection's minimum; else it drops the least row of negative
   multiplier (Bland's rule). */
DISPATCH static int64_t passes(active_set *s, int64_t budget)
{
    const int64_t m = s->m, H = s->H;
    const double *t = s->t, *h = s->h;
    double *z = s->z, *grad = s->grad, *step = s->step, *mult = s->mult;
    int stationary = 0;
    for (int64_t it = 1; it <= budget; it++) {
        const int64_t w = s->w;
        if (s->lp && w) {  /* long LP steps drift off the working rows */
            double *x = s->v;
            for (int64_t j = 0; j < w; j++)
                x[j] = h[s->work[j]];
            solve_tri_t(s, x);
            for (int64_t j = 0; j < w; j++)
                axpy(m, x[j] - dot(m, s->basis + j * m, z), s->basis + j * m,
                     z);
        }
        for (int64_t i = 0; i < m; i++) {
            grad[i] = s->lp ? -2.0 * s->z0[i] : z[i] - s->z0[i];
            step[i] = -grad[i];
        }
        for (int64_t j = 0; j < w; j++) {  /* -basis^T grad, for now */
            mult[j] = -dot(m, s->basis + j * m, grad);
            axpy(m, -mult[j], s->basis + j * m, step);
        }
        /* a step or a rate at rounding level is zero */
        const double size = sqrt(dot(m, step, step));
        if (!stationary && w < m && size > 1e-12 * sqrt(dot(m, grad, grad))) {
            double best = INFINITY;
            int64_t hit = -1;
            for (int64_t j = 0; j < H; j++) {
                const double *row = t + j * m;
                const double rate = s->free[j] ? dot(m, row, step) : 0.0;
                if (rate > 1e-9 * size) {
                    const double gap = h[j] - dot(m, row, z);
                    const double ratio = (gap > 0.0 ? gap : 0.0) / rate;
                    if (ratio < best)
                        best = ratio, hit = j;
                }
            }
            if (best < (s->lp ? INFINITY : 1.0)) {
                axpy(m, best, step, z);
                add_row(s, hit);
                continue;
            }
            if (!s->lp) {
                axpy(m, 1.0, step, z);
                stationary = 1;
                continue;
            }
        }
        stationary = 0;
        solve_tri(s, mult);
        int64_t drop = -1;
        for (int64_t j = 0; j < w; j++)
            if (mult[j] < 0.0 && (drop < 0 || s->work[j] < s->work[drop]))
                drop = j;
        if (drop < 0)
            return it;
        drop_row(s, drop);
    }
    return 0;
}

/* y minus tau v (v . y), v = (1, x[j+1..e-1]) on rows j..e-1: Householder
   reflector j */
INLINE void reflect(int64_t j, int64_t e, const double *x, double tau,
                    double *y)
{
    double d = y[j];
    for (int64_t i = j + 1; i < e; i++)
        d += x[i] * y[i];
    d *= tau;
    y[j] -= d;
    for (int64_t i = j + 1; i < e; i++)
        y[i] -= d * x[i];
}

/* the unit rows of v_c + v_j <= 1, v_c - v_j <= 1, v_c <= 1/2 and -v_c <= 0,
   v_c read as sign v_c, then of the LP's 2 A^T u <= 1 and -2 A^T u <= 1,
   their bounds and their norms; u_j = (R^-1 z)_j, R^-1 row-major */
static void fit_rows(int64_t n, int64_t H, double sign, double lam,
                     const double *q, const double *rinv, double *t,
                     double *h, double *norm)
{
    const int64_t m = n - 1, k = m - 1;
    const double *rk = rinv + k * m;
    for (int64_t j = 0; j < k; j++)
        for (int64_t i = 0; i < m; i++) {
            t[j * m + i] = rinv[j * m + i] + sign * rk[i];
            t[(k + j) * m + i] = sign * rk[i] - rinv[j * m + i];
        }
    for (int64_t i = 0; i < m; i++) {
        t[2 * k * m + i] = sign * rk[i], t[(2 * k + 1) * m + i] = -sign * rk[i];
        for (int64_t l = 0; 2 * m + l < H; l++)  /* the LP's 2n rows */
            t[(2 * m + l) * m + i] =
                l < n ? 2.0 * q[i * n + l] : -2.0 * q[i * n + l - n];
    }
    for (int64_t j = 0; j < H; j++) {
        norm[j] = sqrt(dot(m, t + j * m, t + j * m));
        h[j] = (j < 2 * k ? 0.5 * lam : j == 2 * k ? 0.25 * lam
                : j == 2 * k + 1 ? 0.0 : 1.0) / norm[j];
        for (int64_t i = 0; i < m; i++)
            t[j * m + i] /= norm[j];
    }
}

int64_t fit(int64_t n, const double *xs, const double *ys, double lam,
            int squared, double *work, double *out)
{
    const int64_t m = n - 1, k = m - 1, H = 2 * m + (squared ? 0 : 2 * n);
    double *q = work, *a = q + n * m, *rinv = a + n * m, *t = rinv + m * m,
           *basis = t + H * m, *tri = basis + m * m, *h = tri + m * m,
           *norm = h + H, *z = norm + H, *z0 = z + m, *tau = z0 + m,
           *u = tau + m, *mult = u + m, *grad = mult + m, *step = grad + m,
           *v = step + m, *inv = v + m, *c = inv + n;
    int64_t *rows = (int64_t *)(c + n);
    active_set s = {m, H, 0, !squared, t, h, z0, z, basis, tri, mult, grad,
                    step, v, rows, (char *)(rows + m)};
    /* A^T, column r the row r of A: D's rows, then c */
    for (int64_t j = 0; j < m; j++)
        inv[j] = 1.0 / (xs[j + 1] - xs[j]);
    memset(a, 0, n * m * sizeof *a);
    memset(c, 0, n * sizeof *c);
    for (int64_t r = 0; r < k; r++) {
        a[r * n + r] = inv[r];
        a[r * n + r + 1] = -inv[r + 1] - inv[r];
        a[r * n + r + 2] = inv[r + 1];
    }
    c[0] -= inv[0], c[1] += inv[0], c[m - 1] -= inv[m - 1], c[m] += inv[m - 1];
    memcpy(a + k * n, c, n * sizeof *c);
    /* Householder, as LAPACK's dgeqr2: reflector j spans rows j..e-1 */
    for (int64_t j = 0; j < m; j++) {
        const int64_t e = j + 3 < n ? j + 3 : n;
        double *x = a + j * n, scale = 0.0, ss = 0.0;
        for (int64_t i = j + 1; i < e; i++)
            scale = fmax(scale, fabs(x[i]));
        tau[j] = 0.0;
        if (scale == 0.0)
            continue;
        for (int64_t i = j + 1; i < e; i++)
            ss += (x[i] / scale) * (x[i] / scale);
        const double alpha = x[j],
                     beta = -copysign(hypot(alpha, scale * sqrt(ss)), alpha);
        tau[j] = (beta - alpha) / beta;
        for (int64_t i = j + 1; i < e; i++)
            x[i] /= alpha - beta;
        x[j] = beta;
        /* the columns it meets: D's next two, and c */
        for (int64_t l = j + 1; l < m; l++)
            if (l <= j + 2 || l == k)
                reflect(j, e, x, tau[j], a + l * n);
    }
    /* Q, column-major, by backward accumulation as dorg2r */
    memset(q, 0, n * m * sizeof *q);
    for (int64_t j = m - 1; j >= 0; j--) {
        const int64_t e = j + 3 < n ? j + 3 : n;
        q[j * n + j] = 1.0;
        for (int64_t l = j; l < m; l++)
            reflect(j, e, a + j * n, tau[j], q + l * n);
    }
    /* R^-1 by back substitution, a column at a time: row i of R holds
       R[i][i..i+2] and R[i][k] */
    memset(rinv, 0, m * m * sizeof *rinv);
    for (int64_t col = 0; col < m; col++) {
        rinv[col * m + col] = 1.0 / a[col * n + col];
        for (int64_t i = col - 1; i >= 0; i--) {
            double d = 0.0;
            for (int64_t l = i + 1; l <= col && l <= i + 2; l++)
                d += a[l * n + i] * rinv[l * m + col];
            if (col == k && k > i + 2)
                d += a[k * n + i] * rinv[k * m + col];
            rinv[i * m + col] = -d / a[i * n + i];
        }
    }
    for (int64_t j = 0; j < m; j++)
        z0[j] = dot(n, q + j * n, ys);

    fit_rows(n, H, 1.0, lam, q, rinv, t, h, norm);
    memset(z, 0, m * sizeof *z);
    memset(s.free, 1, H);
    const int64_t budget = 10 * H - 1;
    int64_t done = passes(&s, budget);
    if (!done)
        return -1;
    /* optimal with v_c of one sign; at v_c = 0 the other sign is better
       unless the bound's multiplier is at most twice the slope rows' */
    double bound = 0.0, slopes = 0.0;
    for (int64_t j = 0; j < s.w; j++) {
        const double mu = mult[j] / norm[rows[j]];
        if (rows[j] == 2 * k + 1)
            bound = mu;
        else if (rows[j] < 2 * k)
            slopes += mu;
    }
    if (bound > 2.0 * slopes) {
        fit_rows(n, H, -1.0, lam, q, rinv, t, h, norm);
        refactor(&s);
        const int64_t more = passes(&s, budget - done);
        if (!more)
            return -1;
        done += more;
    }
    /* z exactly on the working rows, plus the part of z0 (squared loss) or
       of z (LP) off them; a full working set leaves no such part, so a z of
       order lam stays accurate however large y is */
    refactor(&s);
    const int64_t w = s.w;
    for (int64_t j = 0; j < w; j++)
        v[j] = h[rows[j]];
    solve_tri_t(&s, v);
    if (w < m) {
        if (squared)
            memcpy(z, z0, m * sizeof *z);
        for (int64_t j = 0; j < w; j++)
            grad[j] = dot(m, basis + j * m, z);
        for (int64_t j = 0; j < w; j++)
            axpy(m, -grad[j], basis + j * m, z);
    } else {
        memset(z, 0, m * sizeof *z);
    }
    for (int64_t j = 0; j < w; j++)
        axpy(m, v[j], basis + j * m, z);
    if (squared) {
        double mean = 0.0;
        for (int64_t i = 0; i < n; i++)
            mean += ys[i];
        mean /= n;
        memset(out, 0, n * sizeof *out);
        for (int64_t j = 0; j < m; j++)
            axpy(n, z0[j] - z[j], q + j * n, out);
        for (int64_t i = 0; i < n; i++)
            out[i] += mean;
    } else {
        /* the box rows' multipliers move y onto yhat; with no slope row in
           the set, A yhat = 0, and yhat is the y of a point off the box */
        int64_t slope_rows = 0;
        for (int64_t j = 0; j < w; j++)
            grad[j] = dot(m, basis + j * m, z0);
        solve_tri(&s, grad);
        memcpy(out, ys, n * sizeof *out);
        for (int64_t j = 0; j < w; j++) {
            const int64_t box = rows[j] - 2 * m;
            const double mu = 2.0 * grad[j] / norm[rows[j]];
            if (box < 0)
                slope_rows++;
            else
                out[box % n] += box < n ? -mu : mu;
        }
        if (!slope_rows) {
            int64_t i = 0;
            while (i < n && !(s.free[2 * m + i] && s.free[2 * m + n + i]))
                i++;
            for (int64_t l = 0; l < n; l++)
                out[l] = ys[i < n ? i : 0];
        }
    }
    /* the dual value at u = R^-1 z scaled into P (and the LP's box): a lower
       bound */
    for (int64_t j = 0; j < m; j++)
        u[j] = dot(m - j, rinv + j * m + j, z + j);
    double *au = a, big = 0.0, scale = 1.0, value = 0.0;
    memset(au, 0, n * sizeof *au);
    for (int64_t r = 0; r < k; r++) {
        au[r] += inv[r] * u[r];
        au[r + 1] += (-inv[r + 1] - inv[r]) * u[r];
        au[r + 2] += inv[r + 1] * u[r];
    }
    axpy(n, u[k], c, au);
    for (int64_t j = 0; j < k; j++)
        big = fmax(big, fabs(u[j]) + fabs(u[k]));
    scale = fmax(scale, big / (0.5 * lam));
    scale = fmax(scale, fabs(u[k]) / (0.25 * lam));
    for (int64_t i = 0; !squared && i < n; i++)
        scale = fmax(scale, 2.0 * fabs(au[i]));
    for (int64_t i = 0; i < n; i++) {
        au[i] /= scale;
        value += squared ? au[i] * (2.0 * ys[i] - au[i]) : ys[i] * au[i];
    }
    out[n] = squared ? value : 2.0 * value;
    return done;
}
