/* The package's compiled kernels: the metric closure's Floyd-Warshall, the
   p-DTW values of a list of curve pairs, the medoid simplification of a
   batch of curves, and the costs of the k-median's single swaps. Each does
   the arithmetic of its numpy reference in the same order, so its results
   have the reference's bits: see closure.py, dtw.py, simplify.py and
   kmedian.py. Every array is row-major and contiguous. */
#include <math.h>
#include <stddef.h>

/* dtw._OVERFLOW_SAFE_P */
#define OVERFLOW_SAFE_P 32.0

/* di[j] = min(di[j], dik + dk[j]) for j < n; the rows do not overlap. */
static inline void relax(double *restrict di, const double *restrict dk,
                         double dik, ptrdiff_t n)
{
    for (ptrdiff_t j = 0; j < n; j++) {
        const double t = dik + dk[j];
        di[j] = t < di[j] ? t : di[j];
    }
}

/* For j in [from, to), di[j] becomes the least of itself and
   s[q][i] + s[q][j] over the c snapshot rows s[q] of floyd_warshall (rows
   is c x n), one entry at a time. */
static inline void relax_entries(double *restrict di, const double *restrict rows,
                                 ptrdiff_t i, ptrdiff_t from, ptrdiff_t to,
                                 ptrdiff_t c, ptrdiff_t n)
{
    for (ptrdiff_t j = from; j < to; j++)
        for (ptrdiff_t q = 0; q < c; q++) {
            const double t = rows[q * n + i] + rows[q * n + j];
            di[j] = t < di[j] ? t : di[j];
        }
}

/* The rows of one tile of floyd_warshall's pass */
#define TILE 6

/* One tile's pass over one block of floyd_warshall: for the TILE rows
   i + r of the matrix d and every j in (i + r, n), d[i + r][j] becomes the
   least of itself and s[q][i + r] + s[q][j] over the c snapshot rows s[q]
   (rows is c x n). For each stretch of two vectors of the given bytes from
   column i + TILE on, the TILE x 2 accumulators a stay in registers through
   all c snapshots: each snapshot's two vectors are loaded once and serve
   all TILE rows, and each row takes one broadcast of s[q][i + r]: 12 of the
   16 vector registers hold accumulators, against 4 in a one-row pass that
   reloads every snapshot for each row. Each lane takes t < a ? t : a,
   which is minpd(t, a) (vmin). gcc unrolls the loops over rows and vectors
   and keeps a in registers (gcc 12.2, -O3: 12 minpd and no stack access in
   the snapshot loop). The corner entries j in (i + r, i + TILE) and the
   columns after the last whole stretch are relaxed one at a time. */
#define TILE_PASS(name, bytes, vmin)                                           \
    static void name(double *restrict d, const double *restrict rows,          \
                     ptrdiff_t i, ptrdiff_t c, ptrdiff_t n)                    \
    {                                                                          \
        typedef double vec __attribute__((vector_size(bytes), aligned(8)));    \
        const ptrdiff_t w = bytes / 8;                                         \
        for (ptrdiff_t r = 0; r < TILE; r++)                                   \
            relax_entries(d + (i + r) * n, rows, i + r, i + r + 1, i + TILE,   \
                          c, n);                                               \
        ptrdiff_t j = i + TILE;                                                \
        for (; j + 2 * w <= n; j += 2 * w) {                                   \
            vec a[TILE][2];                                                    \
            for (int r = 0; r < TILE; r++)                                     \
                for (int x = 0; x < 2; x++)                                    \
                    a[r][x] = *(vec *)(d + (i + r) * n + j + x * w);           \
            for (ptrdiff_t q = 0; q < c; q++) {                                \
                const double *s = rows + q * n;                                \
                const vec s0 = *(const vec *)(s + j);                          \
                const vec s1 = *(const vec *)(s + j + w);                      \
                for (int r = 0; r < TILE; r++) {                               \
                    const double b = s[i + r];                                 \
                    a[r][0] = vmin(b + s0, a[r][0]);                           \
                    a[r][1] = vmin(b + s1, a[r][1]);                           \
                }                                                              \
            }                                                                  \
            for (int r = 0; r < TILE; r++)                                     \
                for (int x = 0; x < 2; x++)                                    \
                    *(vec *)(d + (i + r) * n + j + x * w) = a[r][x];           \
        }                                                                      \
        for (ptrdiff_t r = 0; r < TILE; r++)                                   \
            relax_entries(d + (i + r) * n, rows, i + r, j, n, c, n);           \
    }

/* 4-lane vectors where the host has AVX2 and 2-lane ones (SSE2, which every
   x86-64 host has) elsewhere. Without AVX, gcc splits a 4-lane vector's
   minimum into single lanes: that pass ran 3x slower than the unblocked
   kernel (2-core x86-64, gcc 12.2, n = 250 and 1000). */
__attribute__((target("avx2"))) TILE_PASS(tile_pass_avx2, 32, __builtin_ia32_minpd256)
TILE_PASS(tile_pass_sse2, 16, __builtin_ia32_minpd)

/* Floyd-Warshall in place on an n x n matrix d that is exactly symmetric,
   with a zero diagonal and no negative entry, NaN or -0.0, in blocks of
   `block` steps k; rows holds block x n doubles. Only the upper triangle is
   relaxed, in tiles of TILE rows, and the last step mirrors it into the
   lower one.

   The reference's step k sets d[i][j] = min(d[i][j], d[i][k] + d[k][j]),
   all read before the step. Its matrix stays symmetric: d[j][i] gets
   d[j][k] + d[k][i], the two summands of d[i][j]'s, and IEEE addition is
   commutative. min is exact, so an entry ends at the least of its start
   and all its n sums, taken in any order, and the kernel's bits are the
   reference's as long as each sum has the reference's two operands. For a
   block [k0, k0 + c) the kernel first builds the snapshot rows s[q], the
   reference's row k = k0 + q before step k: row k of the matrix (entries
   j < k from column k, since only the upper triangle is current), relaxed
   by the earlier snapshots, s[q][j] = min(s[q][j], s[r][k] + s[r][j]) for
   r < q, where s[r][k] is the reference's d[k][k0 + r] by symmetry. Then
   every upper entry takes the block's sums in one pass,
   d[i][j] = min(d[i][j], s[q][i] + s[q][j]), whose summands are the
   reference's d[i][k] and d[k][j]. A row inside the block meets its own
   snapshot, s[q][k] = 0, whose sum is the reference's row value. An inf
   summand changes no entry. The pass takes the rows TILE at a time
   (tile_pass_avx2 or tile_pass_sse2); the last n mod TILE rows hold fewer
   than TILE upper entries each and are relaxed one entry at a time. A tile
   changes only the order in which an entry takes its minima, never the
   sums, so it changes no bit. At n = 1000 (many_short's closure, 2-core
   x86-64, gcc 12.2) the 6-row tiles took the kernel from 72-77 to
   42-49 ms, and at n = 2000 from 583-628 to 346-348 ms.

   The textbook blocked order (Venkataraman, Sahni and Mukhopadhyaya, 2003)
   reads d[i][k] after the whole block has relaxed it, so its sums have
   other operands and their bits differ. Each matrix row is read once per
   block instead of once per k. */
void floyd_warshall(double *d, ptrdiff_t n, double *rows, ptrdiff_t block)
{
    const int avx2 = __builtin_cpu_supports("avx2");
    for (ptrdiff_t k0 = 0; k0 < n; k0 += block) {
        const ptrdiff_t c = n - k0 < block ? n - k0 : block;
        for (ptrdiff_t q = 0; q < c; q++) {
            const ptrdiff_t k = k0 + q;
            double *s = rows + q * n;
            for (ptrdiff_t j = 0; j < k; j++)
                s[j] = d[j * n + k];
            for (ptrdiff_t j = k; j < n; j++)
                s[j] = d[k * n + j];
            for (ptrdiff_t r = 0; r < q; r++)
                relax(s, rows + r * n, rows[r * n + k], n);
        }
        ptrdiff_t i = 0;
        for (; i + TILE <= n; i += TILE)
            (avx2 ? tile_pass_avx2 : tile_pass_sse2)(d, rows, i, c, n);
        for (; i < n; i++)
            relax_entries(d + i * n, rows, i, i + 1, n, c, n);
    }
    for (ptrdiff_t i = 1; i < n; i++)
        for (ptrdiff_t j = 0; j < i; j++)
            d[i * n + j] = d[j * n + i];
}

static inline double min2(double a, double b)
{
    return b < a ? b : a;
}

/* Euclidean distances from the point a to the l points b (d coordinates
   each): squared differences summed in coordinate order from 0.0, then the
   square root, as dtw._distance_table. */
static inline void distances(const double *restrict a, const double *restrict b,
                             ptrdiff_t l, ptrdiff_t d, double *restrict out)
{
    for (ptrdiff_t j = 0; j < l; j++) {
        double s = 0.0;
        for (ptrdiff_t k = 0; k < d; k++) {
            const double t = a[k] - b[j * d + k];
            s += t * t;
        }
        out[j] = sqrt(s);
    }
}

/* The larger of top and the largest finite one of the n entries
   x[j * stride]. Over a pair's distances from top = 0.0, it is the scale of
   dtw._pth_powers for p > 32, where a 0 stands for 1.0. */
static inline double finite_max(const double *x, ptrdiff_t n, ptrdiff_t stride,
                                double top)
{
    for (ptrdiff_t j = 0; j < n * stride; j += stride)
        if (isfinite(x[j]) && x[j] > top)
            top = x[j];
    return top;
}

/* x / scale raised to the power p, in place, as dtw._pth_powers; dividing
   by a scale of 1.0 would change no bit. */
static inline void powers(double *x, ptrdiff_t n, double p, double scale)
{
    if (scale != 1.0)
        for (ptrdiff_t j = 0; j < n; j++)
            x[j] /= scale;
    if (p == 2.0)
        for (ptrdiff_t j = 0; j < n; j++)
            x[j] *= x[j];
    else if (p != 1.0)
        for (ptrdiff_t j = 0; j < n; j++)
            x[j] = pow(x[j], p);
}

/* dtw._root */
static inline double root(double total, double p, double scale)
{
    if (p == 2.0)
        total = sqrt(total);
    else if (p != 1.0)
        total = pow(total, 1.0 / p);
    return total * scale;
}

/* The scale of dtw._pth_powers for the pair of curves a (m points) and b
   (l points): for p > 32 their largest finite distance, where a 0 stands
   for 1.0, and 1.0 otherwise. cost holds l doubles. */
static double pair_scale(const double *a, ptrdiff_t m, const double *b, ptrdiff_t l,
                         ptrdiff_t d, double p, double *cost)
{
    double top = 0.0;
    if (p > OVERFLOW_SAFE_P)
        for (ptrdiff_t i = 0; i < m; i++) {
            distances(a + i * d, b, l, d, cost);
            top = finite_max(cost, l, 1, top);
        }
    return top == 0.0 ? 1.0 : top;
}

/* The DP of the p-DTW of the curves a (m points) and b (l points) of d
   coordinates each, on the p-th powers of their distances divided by
   scale: the last cell, which root turns into the value. work holds
   2 * (l + 1) doubles. The DP runs row by row where dtw._accumulate runs
   by anti-diagonals: a cell is c + min(diagonal, up, left) of the same
   values either way. */
static double dtw_total(const double *a, ptrdiff_t m, const double *b, ptrdiff_t l,
                        ptrdiff_t d, double p, double scale, double *work)
{
    /* at point i of a, acc[j] becomes the DP cell (i + 1, j) and cost[j]
       holds the p-th power of the distance from a[i] to b[j] */
    double *acc = work, *cost = work + l + 1;
    acc[0] = 0.0;
    for (ptrdiff_t j = 1; j <= l; j++)
        acc[j] = INFINITY;
    for (ptrdiff_t i = 0; i < m; i++) {
        distances(a + i * d, b, l, d, cost);
        powers(cost, l, p, scale);
        double diagonal = acc[0];
        acc[0] = INFINITY;
        for (ptrdiff_t j = 1; j <= l; j++) {
            const double up = acc[j];
            acc[j] = cost[j - 1] + min2(min2(diagonal, up), acc[j - 1]);
            diagonal = up;
        }
    }
    return acc[l];
}

/* dtw_total for w = bytes / 8 pairs of one shape (m, l) at once, pair x in
   lane x of every vector. a and b hold the pairs' curves with their points
   interleaved: coordinate k of point i of pair x's first curve is
   a[(i * d + k) * w + x]. scale[x] is pair x's scale, and total[x] gets
   its last cell. work holds 2 * l + 1 vectors: the DP row and the costs of
   one row. Within one pair each cell waits on its left neighbour; the lanes
   do not wait on each other.

   Each lane does dtw_total's operations in the same order, so every total
   keeps its bits: the squared differences summed in coordinate order from
   0.0, then the square root (sqrtpd rounds correctly, as sqrt does); for
   p > 32, the division by the lane's scale (powers skips a scale of 1.0,
   and dividing by 1.0 changes no bit); powers' power; then the cell. A
   cell is c + min2(min2(diagonal, up), left), and minpd(x, y) gives
   x < y ? x : y in each lane, which is min2(y, x); so min2(a, b) is
   minpd(b, a), with the same operand returned when a NaN or two zeros of
   either sign meet. */
#define DTW_LANES(name, bytes, vsqrt, vmin)                                    \
    static void name(const double *a, const double *b, ptrdiff_t m,            \
                     ptrdiff_t l, ptrdiff_t d, double p, const double *scale,  \
                     double *total, double *work)                              \
    {                                                                          \
        typedef double vec __attribute__((vector_size(bytes), aligned(8)));    \
        const vec *at = (const vec *)a, *bt = (const vec *)b;                  \
        const vec zero = {0}, inf = zero + INFINITY, s = *(const vec *)scale;  \
        vec *row = (vec *)work, *cost = row + l + 1;                           \
        row[0] = zero;                                                         \
        for (ptrdiff_t j = 1; j <= l; j++)                                     \
            row[j] = inf;                                                      \
        for (ptrdiff_t i = 0; i < m; i++) {                                    \
            for (ptrdiff_t j = 0; j < l; j++) {                                \
                vec c = zero;                                                  \
                for (ptrdiff_t k = 0; k < d; k++) {                            \
                    const vec t = at[i * d + k] - bt[j * d + k];               \
                    c += t * t;                                                \
                }                                                              \
                cost[j] = vsqrt(c);                                            \
            }                                                                  \
            if (p > OVERFLOW_SAFE_P)                                           \
                for (ptrdiff_t j = 0; j < l; j++)                              \
                    cost[j] /= s;                                              \
            powers((double *)cost, l * (bytes / 8), p, 1.0);                   \
            vec diagonal = row[0], left = inf;                                 \
            row[0] = inf;                                                      \
            for (ptrdiff_t j = 1; j <= l; j++) {                               \
                const vec up = row[j];                                         \
                row[j] = left = cost[j - 1] + vmin(left, vmin(up, diagonal));  \
                diagonal = up;                                                 \
            }                                                                  \
        }                                                                      \
        *(vec *)total = row[l];                                                \
    }

/* 4 lanes where the host has AVX2 and 2 (SSE2, which every x86-64 host has)
   elsewhere, picked per call as floyd_warshall's tile pass is */
__attribute__((target("avx2")))
DTW_LANES(dtw_lanes_avx2, 32, __builtin_ia32_sqrtpd256, __builtin_ia32_minpd256)
DTW_LANES(dtw_lanes_sse2, 16, __builtin_ia32_sqrtpd, __builtin_ia32_minpd)

/* to[i * w + x] = from[x][i] for i < n and x < w */
static void interleave(const double *const *from, ptrdiff_t n, ptrdiff_t w, double *to)
{
    for (ptrdiff_t i = 0; i < n; i++)
        for (ptrdiff_t x = 0; x < w; x++)
            to[i * w + x] = from[x][i];
}

/* out[t] = p-DTW of the curves rows[t] and cols[t], t < pairs, for p >= 1.
   Curve c has lengths[c] points of d coordinates, starting at point
   offsets[c] of points. work holds 8 * (d + 1) * (n + 1) doubles for the
   longest curve n.

   Each pair takes its scale, the DP's last cell and the root. The DP of
   each run of w consecutive pairs of one shape (m, l) runs in the w lanes
   of dtw_lanes_avx2 (w = 4) or dtw_lanes_sse2 (w = 2). A pair that breaks
   such a run, and the pairs after the last whole run, go through
   dtw_total one at a time. */
void dtw_pairs(const double *points, const ptrdiff_t *offsets, const ptrdiff_t *lengths,
               ptrdiff_t d, const ptrdiff_t *rows, const ptrdiff_t *cols, ptrdiff_t pairs,
               double p, double *out, double *work)
{
    const int avx2 = __builtin_cpu_supports("avx2");
    const ptrdiff_t w = avx2 ? 4 : 2;
    for (ptrdiff_t t = 0; t < pairs;) {
        const ptrdiff_t m = lengths[rows[t]], l = lengths[cols[t]];
        ptrdiff_t run = 1;
        while (run < w && t + run < pairs && lengths[rows[t + run]] == m
               && lengths[cols[t + run]] == l)
            run++;
        const double *a[4], *b[4];
        double scale[4], total[4];
        for (ptrdiff_t x = 0; x < run; x++) {
            a[x] = points + offsets[rows[t + x]] * d;
            b[x] = points + offsets[cols[t + x]] * d;
            scale[x] = pair_scale(a[x], m, b[x], l, d, p, work);
        }
        if (run == w) {
            double *at = work + w * (2 * l + 1), *bt = at + w * m * d;
            interleave(a, m * d, w, at);
            interleave(b, l * d, w, bt);
            (avx2 ? dtw_lanes_avx2 : dtw_lanes_sse2)(at, bt, m, l, d, p, scale, total, work);
        } else
            for (ptrdiff_t x = 0; x < run; x++)
                total[x] = dtw_total(a[x], m, b[x], l, d, p, scale[x], work);
        for (ptrdiff_t x = 0; x < run; x++)
            out[t + x] = root(total[x], p, scale[x]);
        t += run;
    }
}

/* The tables of the medoid simplification of w = bytes / 8 curves of one
   shape (m, d) at once, curve x in lane x of every vector. points holds the
   curves with their points interleaved: coordinate k of point i of curve x
   is points[(i * d + k) * w + x]. own and cost hold m * m vectors, suffix
   max_parts * (m + 1) and sums 2 * m. own[v * m + j] gets the p-th power of
   the distance from v to j, divided by the curve's scale for p > 32;
   cost[a * m + b] the cost of the range [a, b] (simplify._medoid_cost_table);
   suffix[(j - 1) * (m + 1) + i] the least cost of grouping [i, m) into
   exactly j parts (simplify._partition). scale[x] gets curve x's scale: for
   p > 32 its largest finite distance, where a 0 stands for 1.0, and 1.0
   otherwise. Within one curve each prefix sum and each suffix minimum waits
   on the one before; the lanes do not wait on each other.

   Each lane does the numpy reference's operations in its order, so every
   table keeps the reference's bits: the squared differences summed in
   coordinate order from 0.0, then the square root (sqrtpd rounds
   correctly, as sqrt does); for p > 32, the division by the lane's scale
   (dividing by 1.0 changes no bit); powers' power; then the sums and
   minima of the tables, each entry's sums in the reference's order.
   min2(a, b) is minpd(b, a), as in DTW_LANES. */
#define MEDOID_LANES(name, bytes, vsqrt, vmin)                                 \
    static void name(const double *points, ptrdiff_t m, ptrdiff_t d, double p, \
                     ptrdiff_t max_parts, int restrict_to_range, double *scale, \
                     double *own_, double *cost_, double *suffix_, double *sums)\
    {                                                                          \
        typedef double vec __attribute__((vector_size(bytes), aligned(8)));    \
        const ptrdiff_t w = bytes / 8;                                         \
        const vec *at = (const vec *)points, zero = {0}, inf = zero + INFINITY;\
        vec *own = (vec *)own_, *cost = (vec *)cost_, *suffix = (vec *)suffix_;\
        vec *left = (vec *)sums, *right = left + m;                            \
        for (ptrdiff_t i = 0; i < m; i++)                                      \
            for (ptrdiff_t j = 0; j < m; j++) {                                \
                vec c = zero;                                                  \
                for (ptrdiff_t k = 0; k < d; k++) {                            \
                    const vec t = at[i * d + k] - at[j * d + k];               \
                    c += t * t;                                                \
                }                                                              \
                own[i * m + j] = vsqrt(c);                                     \
            }                                                                  \
        for (ptrdiff_t x = 0; x < w; x++) {                                    \
            const double top = p > OVERFLOW_SAFE_P                             \
                ? finite_max(own_ + x, m * m, w, 0.0) : 0.0;                   \
            scale[x] = top == 0.0 ? 1.0 : top;                                 \
        }                                                                      \
        if (p > OVERFLOW_SAFE_P)                                               \
            for (ptrdiff_t j = 0; j < m * m; j++)                              \
                own[j] /= *(const vec *)scale;                                 \
        powers(own_, m * m * w, p, 1.0);                                       \
                                                                               \
        for (ptrdiff_t j = 0; j < m * m; j++)                                  \
            cost[j] = inf;                                                     \
        if (restrict_to_range)                                                 \
            /* cost[a, b] = min over centers v in [a, b] of left[a] + right[b],\
               the sums of own[v] from v leftwards to a and rightwards to b */ \
            for (ptrdiff_t v = 0; v < m; v++) {                                \
                const vec *row = own + v * m;                                  \
                left[v] = right[v] = row[v];                                   \
                for (ptrdiff_t a = v - 1; a >= 0; a--)                         \
                    left[a] = left[a + 1] + row[a];                            \
                for (ptrdiff_t b = v + 1; b < m; b++)                          \
                    right[b] = right[b - 1] + row[b];                          \
                for (ptrdiff_t a = 0; a <= v; a++) {                           \
                    const vec l = left[a];                                     \
                    for (ptrdiff_t b = v; b < m; b++)                          \
                        cost[a * m + b] = vmin(l + right[b], cost[a * m + b]); \
                }                                                              \
            }                                                                  \
        else                                                                   \
            /* cost[a, b] = min over all vertices v of the sum of own[v] from  \
               a to b */                                                       \
            for (ptrdiff_t a = 0; a < m; a++)                                  \
                for (ptrdiff_t v = 0; v < m; v++) {                            \
                    vec s = zero;                                              \
                    for (ptrdiff_t b = a; b < m; b++) {                        \
                        s += own[v * m + b];                                   \
                        cost[a * m + b] = vmin(s, cost[a * m + b]);            \
                    }                                                          \
                }                                                              \
                                                                               \
        for (ptrdiff_t i = 0; i < m; i++)                                      \
            suffix[i] = cost[i * m + m - 1];                                   \
        suffix[m] = inf;                                                       \
        for (ptrdiff_t j = 1; j < max_parts; j++) {                            \
            const vec *prev = suffix + (j - 1) * (m + 1);                      \
            vec *cur = suffix + j * (m + 1);                                   \
            for (ptrdiff_t i = 0; i < m; i++) {                                \
                vec best = inf;                                                \
                for (ptrdiff_t e = i; e < m; e++)                              \
                    best = vmin(cost[i * m + e] + prev[e + 1], best);          \
                cur[i] = best;                                                 \
            }                                                                  \
            cur[m] = inf;                                                      \
        }                                                                      \
    }

/* 4 lanes where the host has AVX2 and 2 (SSE2) elsewhere, picked per call
   as dtw_pairs' lanes are */
__attribute__((target("avx2")))
MEDOID_LANES(medoid_lanes_avx2, 32, __builtin_ia32_sqrtpd256, __builtin_ia32_minpd256)
MEDOID_LANES(medoid_lanes_sse2, 16, __builtin_ia32_sqrtpd, __builtin_ia32_minpd)

/* The rest of simplify._partition for one curve, reading its tables own,
   cost and suffix of MEDOID_LANES with a stride of w: the part count with
   the least total (ties to fewer parts), the forward traceback of the
   lexicographically smallest split, whose inclusive part ends go to
   part_ends, and the center of each part to part_centers. The center of a
   part is the first vertex whose sum over it, added in the table's order,
   is least: the vertex that attains the part's entry. Only the chosen
   parts are summed again: a table loop that kept every entry's vertex took
   twice as long (m = 128, gcc 12.2). Returns the count; *total gets the
   least total. */
static ptrdiff_t partition_lane(const double *own, const double *cost, const double *suffix,
                                ptrdiff_t m, ptrdiff_t max_parts, int restrict_to_range,
                                ptrdiff_t w, ptrdiff_t *part_ends, ptrdiff_t *part_centers,
                                double *total)
{
    ptrdiff_t best = 0;
    for (ptrdiff_t j = 1; j < max_parts; j++)
        if (suffix[j * (m + 1) * w] < suffix[best * (m + 1) * w])
            best = j;

    /* each part ends at the first e that attains the suffix minimum */
    ptrdiff_t count = 0, i = 0;
    for (ptrdiff_t j = best; j > 0; j--) {
        const double *cur = suffix + j * (m + 1) * w, *prev = cur - (m + 1) * w;
        ptrdiff_t end = i;
        for (ptrdiff_t e = i; e < m; e++)
            if (cost[(i * m + e) * w] + prev[(e + 1) * w] == cur[i * w]) {
                end = e;
                break;
            }
        part_ends[count++] = end;
        i = end + 1;
    }
    part_ends[count++] = m - 1;

    for (ptrdiff_t q = 0, a = 0; q < count; a = part_ends[q++] + 1) {
        const ptrdiff_t b = part_ends[q], last = restrict_to_range ? b : m - 1;
        double least = INFINITY;
        part_centers[q] = restrict_to_range ? a : 0;
        for (ptrdiff_t v = part_centers[q]; v <= last; v++) {
            const double *row = own + v * m * w;
            double sum = restrict_to_range ? row[v * w] : 0.0, after = row[v * w];
            if (restrict_to_range) {
                for (ptrdiff_t j = v - 1; j >= a; j--)
                    sum += row[j * w];
                for (ptrdiff_t j = v + 1; j <= b; j++)
                    after += row[j * w];
                sum += after;
            } else
                for (ptrdiff_t j = a; j <= b; j++)
                    sum += row[j * w];
            if (sum < least)
                least = sum, part_centers[q] = v;
        }
    }
    *total = suffix[best * (m + 1) * w];
    return count;
}

/* The medoid simplification of n curves of m points of d coordinates each
   (points is n x m x d), into at most ell contiguous parts. The count of
   each curve t goes to counts[t], the inclusive end and the center of each
   part to ends[t] and centers[t] (both n x ell), and the rooted total times
   the scale to totals[t].

   The curves run w at a time, w = 4 in medoid_lanes_avx2 or w = 2 in
   medoid_lanes_sse2, which build the tables of all w in their lanes;
   partition_lane then reads each curve's parts and centers from its lane.
   The last group is padded with copies of the last curve, whose results
   are not written; it costs a whole group, so simplify.py hands over at
   least four curves where it has them. work holds w * (2 * m * m + min(ell, m) * (m + 1)
   + 2 * m) doubles for the tables and w * m * d for the interleaved
   points, for the w of the host (at most 4). */
void medoid_partition(const double *points, ptrdiff_t n, ptrdiff_t m, ptrdiff_t d,
                      double p, ptrdiff_t ell, int restrict_to_range, double *work,
                      ptrdiff_t *ends, ptrdiff_t *counts, ptrdiff_t *centers, double *totals)
{
    const int avx2 = __builtin_cpu_supports("avx2");
    const ptrdiff_t w = avx2 ? 4 : 2, max_parts = ell < m ? ell : m;
    double *own = work, *cost = own + w * m * m, *suffix = cost + w * m * m;
    double *sums = suffix + w * max_parts * (m + 1), *lanes = sums + w * 2 * m;
    for (ptrdiff_t t = 0; t < n; t += w) {
        const double *from[4];
        double scale[4];
        for (ptrdiff_t x = 0; x < w; x++)
            from[x] = points + (t + x < n ? t + x : n - 1) * m * d;
        interleave(from, m * d, w, lanes);
        (avx2 ? medoid_lanes_avx2 : medoid_lanes_sse2)(
            lanes, m, d, p, max_parts, restrict_to_range, scale, own, cost, suffix, sums);
        for (ptrdiff_t x = 0; x < w && t + x < n; x++) {
            double total;
            counts[t + x] = partition_lane(own + x, cost + x, suffix + x, m, max_parts,
                                           restrict_to_range, w, ends + (t + x) * ell,
                                           centers + (t + x) * ell, &total);
            totals[t + x] = root(total, p, scale[x]);
        }
    }
}

/* Candidates whose sums run together, each its own chain of additions */
#define SWAP_BLOCK 8

/* The costs of the single swaps of kmedian.kmedian_local_search, for k
   centers and m candidates: out[r * m + t] is the sum over j of
   min(base[r * n + j], dist[cand[t] * n + j]) * w[j], added in index order
   from 0.0, where base row r holds each point's distance to the nearest
   center other than center r. The rows of SWAP_BLOCK candidates are read in
   place from dist, and their k sums run one after another while the rows
   sit in cache. Each sum keeps its order; the SWAP_BLOCK sums of one base
   row are independent, so their additions overlap. */
void swap_costs(const double *dist, ptrdiff_t n, const ptrdiff_t *cand, ptrdiff_t m,
                const double *base, ptrdiff_t k, const double *w, double *out)
{
    for (ptrdiff_t t = 0; t < m; t += SWAP_BLOCK) {
        const ptrdiff_t count = m - t < SWAP_BLOCK ? m - t : SWAP_BLOCK;
        /* a short last block sums its first row again and keeps none of it */
        const double *row[SWAP_BLOCK];
        for (ptrdiff_t b = 0; b < SWAP_BLOCK; b++)
            row[b] = dist + cand[t + (b < count ? b : 0)] * n;
        for (ptrdiff_t r = 0; r < k; r++) {
            const double *br = base + r * n;
            double acc[SWAP_BLOCK] = {0.0};
            for (ptrdiff_t j = 0; j < n; j++)
                for (ptrdiff_t b = 0; b < SWAP_BLOCK; b++)
                    acc[b] += min2(br[j], row[b][j]) * w[j];
            for (ptrdiff_t b = 0; b < count; b++)
                out[r * m + t + b] = acc[b];
        }
    }
}
