/* The package's compiled kernels: the metric closure's Floyd-Warshall, the
   p-DTW matrix of two curve sets or the upper triangle of one (one driver
   for both), the medoid simplification of a batch of curves, and the
   k-median's single-swap local search. Each does the arithmetic of its
   numpy reference, every sum with the reference's operands and every
   chain of additions in its order, taking only exact minima in another
   order, so its results have the reference's bits: see closure.py, dtw.py,
   simplify.py and kmedian.py. Every array is row-major and contiguous. */
#include <math.h>
#include <stddef.h>

/* dtw._OVERFLOW_SAFE_P */
#define OVERFLOW_SAFE_P 32.0

/* The doubles of one vector, and the rows of one register tile of
   floyd_warshall's pass */
enum { LANES = 4, TILE = 6 };

/* A vector of LANES doubles. The functions that compute on vectors are
   built for AVX2, whose vectors hold four doubles: without AVX, gcc splits
   a 4-lane minimum into single lanes, and that pass ran 3x slower than the
   unblocked kernel (2-core x86-64, gcc 12.2, n = 250 and 1000). The loader
   (_kernels.py) calls avx2_host first and does not use the library on a
   host without AVX2, where the numpy references run. */
typedef double vec __attribute__((vector_size(LANES * sizeof(double)), aligned(8)));

/* Whether the host has AVX2; built for any x86-64 host */
int avx2_host(void)
{
    return __builtin_cpu_supports("avx2");
}

/* x < y ? x : y in each lane (minpd), and each lane's correctly rounded
   square root (sqrtpd), as sqrt gives it */
__attribute__((target("avx2"))) static inline vec vmin(vec x, vec y)
{
    return __builtin_ia32_minpd256(x, y);
}

__attribute__((target("avx2"))) static inline vec vsqrt(vec x)
{
    return __builtin_ia32_sqrtpd256(x);
}

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

/* One tile's pass over one block of floyd_warshall: for the TILE rows
   i + r of the matrix d and every j in (i + r, n), d[i + r][j] becomes the
   least of itself and s[q][i + r] + s[q][j] over the c snapshot rows s[q]
   (rows is c x n). For each stretch of two vectors from column i + TILE on,
   the TILE x 2 accumulators a stay in registers through all c snapshots:
   each snapshot's two vectors are loaded once and serve all TILE rows, and
   each row takes one broadcast of s[q][i + r]: 12 of the 16 vector
   registers hold accumulators, against 4 in a one-row pass that reloads
   every snapshot for each row. Each lane takes t < a ? t : a, which is
   vmin(t, a). gcc unrolls the loops over rows and vectors and keeps a in
   registers (gcc 12.2, -O3: 12 minpd and no stack access in the snapshot
   loop). The corner entries j in (i + r, i + TILE) and the columns after
   the last whole stretch are relaxed one at a time. */
__attribute__((target("avx2")))
static void tile_pass(double *restrict d, const double *restrict rows, ptrdiff_t i,
                      ptrdiff_t c, ptrdiff_t n)
{
    for (ptrdiff_t r = 0; r < TILE; r++)
        relax_entries(d + (i + r) * n, rows, i + r, i + r + 1, i + TILE, c, n);
    ptrdiff_t j = i + TILE;
    for (; j + 2 * LANES <= n; j += 2 * LANES) {
        vec a[TILE][2];
        for (int r = 0; r < TILE; r++)
            for (int x = 0; x < 2; x++)
                a[r][x] = *(vec *)(d + (i + r) * n + j + x * LANES);
        for (ptrdiff_t q = 0; q < c; q++) {
            const double *s = rows + q * n;
            const vec s0 = *(const vec *)(s + j);
            const vec s1 = *(const vec *)(s + j + LANES);
            for (int r = 0; r < TILE; r++) {
                const double b = s[i + r];
                a[r][0] = vmin(b + s0, a[r][0]);
                a[r][1] = vmin(b + s1, a[r][1]);
            }
        }
        for (int r = 0; r < TILE; r++)
            for (int x = 0; x < 2; x++)
                *(vec *)(d + (i + r) * n + j + x * LANES) = a[r][x];
    }
    for (ptrdiff_t r = 0; r < TILE; r++)
        relax_entries(d + (i + r) * n, rows, i + r, j, n, c, n);
}

/* Copies the upper triangle of the n x n matrix d into the lower one, row
   by row: the last step of floyd_warshall, and of dtw.dtw_self_matrix after
   dtw_grid. This copy takes about 1 ms at n = 1000, where writing each
   value down its column as it was computed took 5 ms (2-core x86-64,
   gcc 12.2). */
void mirror(double *d, ptrdiff_t n)
{
    for (ptrdiff_t i = 1; i < n; i++)
        for (ptrdiff_t j = 0; j < i; j++)
            d[i * n + j] = d[j * n + i];
}

/* Floyd-Warshall in place on an n x n matrix d that is exactly symmetric,
   with a zero diagonal and no negative entry, NaN or -0.0, in blocks of
   `block` steps k; rows holds block x n doubles. Only the diagonal and the
   upper triangle are read, so the lower one may hold anything, as dtw_grid
   leaves it; the upper triangle is relaxed, in tiles of TILE rows, and the
   last step mirrors it into the lower one.

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
   (tile_pass); the last n mod TILE rows hold fewer than TILE upper entries
   each and are relaxed one entry at a time. A tile changes only the order
   in which an entry takes its minima, never the sums, so it changes no
   bit. At n = 1000 (many_short's closure, 2-core x86-64, gcc 12.2) the
   6-row tiles took the kernel from 72-77 to 42-49 ms, and at n = 2000 from
   583-628 to 346-348 ms.

   The textbook blocked order (Venkataraman, Sahni and Mukhopadhyaya, 2003)
   reads d[i][k] after the whole block has relaxed it, so its sums have
   other operands and their bits differ. Each matrix row is read once per
   block instead of once per k. */
void floyd_warshall(double *d, ptrdiff_t n, double *rows, ptrdiff_t block)
{
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
            tile_pass(d, rows, i, c, n);
        for (; i < n; i++)
            relax_entries(d + i * n, rows, i, i + 1, n, c, n);
    }
    mirror(d, n);
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

/* x raised to the power p, in place, as dtw._pth_powers raises the scaled
   distances */
static inline void powers(double *x, ptrdiff_t n, double p)
{
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

/* The DP of the p-DTW of LANES row curves of m points against one column
   curve b of l points at once, row x in lane x of every vector, on the
   p-th powers of their distances divided by the pair's scale: total[x]
   gets pair x's last cell, which root turns into the value. a holds the
   rows with their points interleaved: coordinate k of point i of row x is
   a[(i * d + k) * LANES + x]. b is read where it lies, and each of its
   coordinates b[j * d + k] is broadcast to all lanes, so every lane
   subtracts the same double. scale[x] is pair x's scale. work holds
   2 * l + 1 vectors: the DP row and the costs of one row. Within one pair
   each cell waits on its left neighbour; the lanes do not wait on each
   other.

   Each lane does the operations of dtw._distance_table, dtw._pth_powers
   and dtw._accumulate, with the row as the first curve, so every total
   keeps their bits: the squared differences summed in coordinate order
   from 0.0, then the square root; for p > 32, the division by the lane's
   scale (dividing by 1.0 changes no bit); powers' power; then the cells.
   The DP runs row by row where dtw._accumulate runs by anti-diagonals: a
   cell is its cost plus the least of its three predecessors, the same
   values either way, and min is exact, so the order in which vmin takes
   them changes no bit. */
__attribute__((target("avx2")))
static void dtw_lanes(const double *a, const double *b, ptrdiff_t m, ptrdiff_t l,
                      ptrdiff_t d, double p, const double *scale, double *total,
                      double *work)
{
    const vec *at = (const vec *)a;
    const vec zero = {0}, inf = zero + INFINITY, s = *(const vec *)scale;
    vec *row = (vec *)work, *cost = row + l + 1;
    row[0] = zero;
    for (ptrdiff_t j = 1; j <= l; j++)
        row[j] = inf;
    for (ptrdiff_t i = 0; i < m; i++) {
        for (ptrdiff_t j = 0; j < l; j++) {
            vec c = zero;
            for (ptrdiff_t k = 0; k < d; k++) {
                const double x = b[j * d + k];
                const vec t = at[i * d + k] - (vec){x, x, x, x};
                c += t * t;
            }
            cost[j] = vsqrt(c);
        }
        if (p > OVERFLOW_SAFE_P)
            for (ptrdiff_t j = 0; j < l; j++)
                cost[j] /= s;
        powers((double *)cost, l * LANES, p);
        vec diagonal = row[0], left = inf;
        row[0] = inf;
        for (ptrdiff_t j = 1; j <= l; j++) {
            const vec up = row[j];
            row[j] = left = cost[j - 1] + vmin(left, vmin(up, diagonal));
            diagonal = up;
        }
    }
    *(vec *)total = row[l];
}

/* to[i * LANES + x] = from[x][i] for i < n and x < LANES */
static void interleave(const double *const *from, ptrdiff_t n, double *to)
{
    for (ptrdiff_t i = 0; i < n; i++)
        for (ptrdiff_t x = 0; x < LANES; x++)
            to[i * LANES + x] = from[x][i];
}

/* The length of the group of rows of dtw_grid that starts at position t
   of order: at most LANES consecutive rows of one length */
static ptrdiff_t group_size(const ptrdiff_t *lengths, const ptrdiff_t *order, ptrdiff_t t,
                            ptrdiff_t n)
{
    ptrdiff_t run = 1;
    while (run < LANES && t + run < n && lengths[order[t + run]] == lengths[order[t]])
        run++;
    return run;
}

/* out[r * nb + j] = p-DTW of curve r of set a (the row) and curve j of set
   b (the column), for r < na, j < nb and p >= 1. Curve c of a set has
   lengths[c] points of d coordinates, starting at point offsets[c] of its
   points; the two sets may be one. With upper (one set, na = nb) only the
   diagonal (0) and the upper triangle j > r are written: floyd_warshall
   does not read the lower one, and mirror copies it where wanted.

   The rows, in the order of the permutation order, form groups of at most
   LANES consecutive rows of one length (group_size). Each group is
   interleaved into lanes once and padded with copies of its last row; then
   every column j (with upper, from the group's least row + 1 on) runs
   through dtw_lanes against the group, read where it lies. A lane that
   holds a real row r (with upper, r < j) takes pair_scale and root and is
   written; any other lane takes the scale 1.0 and is not. With order a
   stable sort by length, the rows of a group of one set are consecutive
   where the lengths are equal, so with upper only the groups that meet
   the diagonal hold unwritten lanes. Rows go in the lanes, not columns:
   the routes' cross matrices have 40-1000 rows against 4-16 columns, so
   the lanes stay full whatever the column count.

   work holds LANES * (2 * L + 1 + M * d) doubles, for the longest column L
   and the longest row M: the row and costs of dtw_lanes (whose first L
   also serve pair_scale) and the group's lanes. */
void dtw_grid(const double *points_a, const ptrdiff_t *offsets_a, const ptrdiff_t *lengths_a,
              const ptrdiff_t *order, ptrdiff_t na, const double *points_b,
              const ptrdiff_t *offsets_b, const ptrdiff_t *lengths_b, ptrdiff_t nb, ptrdiff_t d,
              int upper, double p, double *out, double *work)
{
    ptrdiff_t longest = 0;
    for (ptrdiff_t j = 0; j < nb; j++)
        longest = lengths_b[j] > longest ? lengths_b[j] : longest;
    double *at = work + LANES * (2 * longest + 1);
    for (ptrdiff_t t = 0, run; t < na; t += run) {
        run = group_size(lengths_a, order, t, na);
        const ptrdiff_t m = lengths_a[order[t]];
        const double *from[LANES];
        ptrdiff_t row[LANES], least = na;
        for (ptrdiff_t x = 0; x < LANES; x++) {
            row[x] = order[t + (x < run ? x : run - 1)];
            from[x] = points_a + offsets_a[row[x]] * d;
            least = row[x] < least ? row[x] : least;
            if (upper)
                out[row[x] * nb + row[x]] = 0.0;
        }
        interleave(from, m * d, at);
        for (ptrdiff_t j = upper ? least + 1 : 0; j < nb; j++) {
            const ptrdiff_t l = lengths_b[j];
            const double *b = points_b + offsets_b[j] * d;
            double scale[LANES], total[LANES];
            for (ptrdiff_t x = 0; x < LANES; x++)
                scale[x] = x < run && (!upper || row[x] < j)
                               ? pair_scale(from[x], m, b, l, d, p, work)
                               : 1.0;
            dtw_lanes(at, b, m, l, d, p, scale, total, work);
            for (ptrdiff_t x = 0; x < run; x++)
                if (!upper || row[x] < j)
                    out[row[x] * nb + j] = root(total[x], p, scale[x]);
        }
    }
}

/* out[i] = the least rows[i * m + v] + h[v] over v in [i, m), for i < m,
   in four accumulators, one for each v - i mod 4, so that four vmin chains
   overlap: one suffix-DP level of medoid_lanes */
__attribute__((target("avx2")))
static void row_minima(const vec *rows, const vec *h, ptrdiff_t m, vec *out)
{
    const vec inf = (vec){0} + INFINITY;
    for (ptrdiff_t i = 0; i < m; i++) {
        vec best[4] = {inf, inf, inf, inf};
        ptrdiff_t v = i;
        for (; v + 4 <= m; v += 4)
            for (int x = 0; x < 4; x++)
                best[x] = vmin(rows[i * m + v + x] + h[v + x], best[x]);
        for (; v < m; v++)
            best[0] = vmin(rows[i * m + v] + h[v], best[0]);
        out[i] = vmin(vmin(best[0], best[1]), vmin(best[2], best[3]));
    }
}

/* The tables of the medoid simplification of LANES curves of one shape
   (m, d) at once, curve x in lane x of every vector. points holds the
   curves with their points interleaved: coordinate k of point i of curve x
   is points[(i * d + k) * LANES + x]. own holds m * m vectors, cost m * m
   (m with restrict_to_range) and suffix max_parts * (m + 1). own[v * m + j]
   gets the p-th power of the distance from v to j, divided by the curve's
   scale for p > 32; with restrict_to_range it is then overwritten by the
   split sums W below. suffix[(j - 1) * (m + 1) + i] gets S_j[i], the least
   cost of grouping [i, m) into exactly j parts. scale[x] gets curve x's
   scale: for p > 32 its largest finite distance, where a 0 stands for 1.0,
   and 1.0 otherwise. Within one curve each split sum waits on the one
   before; the lanes do not wait on each other.

   Each lane does the numpy reference's operations, so every table keeps
   the reference's bits: the squared differences summed in coordinate order
   from 0.0, then the square root; for p > 32, the division by the lane's
   scale (dividing by 1.0 changes no bit); powers' power; then the sums and
   minima of the tables. own is exactly symmetric ((x - y)^2 and (y - x)^2
   round alike), so its upper triangle is computed and mirrored into the
   lower one. min is exact, and finite points give no NaN (only sums of
   nonnegative terms, at most inf), so the order of the minima changes no
   bit. Without restrict_to_range, cost[a * m + b] gets the cost of the
   range [a, b] (simplify._medoid_cost_table and simplify._partition).

   With it, no range table is built (simplify._local_medoid_partition). The
   reference's split sums of center v are L(v, a), own[v][v..a] added
   leftwards from v, and R(v, b), own[v][v..b] added rightwards, and [a, b]
   costs the least L(v, a) + R(v, b) over v in [a, b]. Column v of W takes
   them in place of own: W[a][v] = W[a + 1][v] + own[a][v] for a < v and
   W[b][v] = W[b - 1][v] + own[b][v] for b > v, row by row, with
   W[v][v] = own[v][v]; since own[a][v] = own[v][a], these are the
   reference's additions with its operands. S_1[i] is the least
   W[i][v] + W[m - 1][v] over v >= i, and for j >= 2 H[v] is the least
   W[e][v] + S_{j-1}[e + 1] over e in [v, m - 1) and S_j[i] the least
   W[i][v] + H[v] over v >= i: two O(m^2) passes per level over the rows of
   W, where the range table took O(m^3). */
__attribute__((target("avx2")))
static void medoid_lanes(const double *points, ptrdiff_t m, ptrdiff_t d, double p,
                         ptrdiff_t max_parts, int restrict_to_range, double *scale,
                         double *own_, double *cost_, double *suffix_)
{
    const vec *at = (const vec *)points, zero = {0}, inf = zero + INFINITY;
    vec *own = (vec *)own_, *cost = (vec *)cost_, *suffix = (vec *)suffix_;
    for (ptrdiff_t i = 0; i < m; i++)
        for (ptrdiff_t j = i; j < m; j++) {
            vec c = zero;
            for (ptrdiff_t k = 0; k < d; k++) {
                const vec t = at[i * d + k] - at[j * d + k];
                c += t * t;
            }
            own[i * m + j] = vsqrt(c);
        }
    for (ptrdiff_t x = 0; x < LANES; x++) {
        double top = 0.0;
        if (p > OVERFLOW_SAFE_P)
            for (ptrdiff_t i = 0; i < m; i++)
                top = finite_max(own_ + (i * m + i) * LANES + x, m - i, LANES, top);
        scale[x] = top == 0.0 ? 1.0 : top;
    }
    for (ptrdiff_t i = 0; i < m; i++) {
        if (p > OVERFLOW_SAFE_P)
            for (ptrdiff_t j = i; j < m; j++)
                own[i * m + j] /= *(const vec *)scale;
        powers(own_ + (i * m + i) * LANES, (m - i) * LANES, p);
        for (ptrdiff_t j = 0; j < i; j++)
            own[i * m + j] = own[j * m + i];
    }

    if (restrict_to_range) {
        for (ptrdiff_t a = m - 2; a >= 0; a--)
            for (ptrdiff_t v = a + 1; v < m; v++)
                own[a * m + v] += own[(a + 1) * m + v];
        for (ptrdiff_t b = 1; b < m; b++)
            for (ptrdiff_t v = 0; v < b; v++)
                own[b * m + v] += own[(b - 1) * m + v];
    } else {
        /* cost[a, b] = min over all vertices v of the sum of own[v] from a to b */
        for (ptrdiff_t j = 0; j < m * m; j++)
            cost[j] = inf;
        for (ptrdiff_t a = 0; a < m; a++)
            for (ptrdiff_t v = 0; v < m; v++) {
                vec s = zero;
                for (ptrdiff_t b = a; b < m; b++) {
                    s += own[v * m + b];
                    cost[a * m + b] = vmin(s, cost[a * m + b]);
                }
            }
    }

    if (restrict_to_range)
        row_minima(own, own + (m - 1) * m, m, suffix);
    else
        for (ptrdiff_t i = 0; i < m; i++)
            suffix[i] = cost[i * m + m - 1];
    suffix[m] = inf;
    for (ptrdiff_t j = 1; j < max_parts; j++) {
        const vec *prev = suffix + (j - 1) * (m + 1);
        vec *cur = suffix + j * (m + 1), *h = cost;
        if (restrict_to_range) {
            /* H in cost, by rows e of W's lower triangle; s is read once, as gcc
               reloads it for every v otherwise (h may alias it), 30% slower */
            for (ptrdiff_t v = 0; v < m; v++)
                h[v] = inf;
            for (ptrdiff_t e = 0; e + 1 < m; e++) {
                const vec s = prev[e + 1];
                for (ptrdiff_t v = 0; v <= e; v++)
                    h[v] = vmin(own[e * m + v] + s, h[v]);
            }
        }
        row_minima(restrict_to_range ? own : cost, restrict_to_range ? h : prev + 1, m, cur);
        cur[m] = inf;
    }
}

/* The least total of the part [i, e] followed by s, as the levels of
   medoid_lanes sum it, reading its tables with a stride of LANES: the
   least W[i][v] + (W[e][v] + s) over v in [i, e] with restrict_to_range,
   and cost[i][e] + s without */
static double part_total(const double *own, const double *cost, double s, ptrdiff_t m,
                         ptrdiff_t i, ptrdiff_t e, int restrict_to_range)
{
    double least = restrict_to_range ? INFINITY : cost[(i * m + e) * LANES] + s;
    for (ptrdiff_t v = i; restrict_to_range && v <= e; v++)
        least = min2(least, own[(i * m + v) * LANES] + (own[(e * m + v) * LANES] + s));
    return least;
}

/* The rest of the medoid partition of one curve, reading its tables own,
   cost and suffix of medoid_lanes with a stride of LANES: the part count
   with the least total (ties to fewer parts), the forward traceback of the
   lexicographically smallest split, whose inclusive part ends go to
   part_ends, and the center of each part to part_centers. The center of a
   part is the first vertex whose sum over it is least. With
   restrict_to_range own holds the split sums W, and a center v of [a, b]
   sums W[a][v] + W[b][v]; otherwise v sums own[v][a..b] in the table's
   order, the vertex that attains the part's entry. Only the chosen parts
   are summed: a table loop that kept every entry's vertex took twice as
   long (m = 128, gcc 12.2). Returns the count; *total gets the least
   total. */
static ptrdiff_t partition_lane(const double *own, const double *cost, const double *suffix,
                                ptrdiff_t m, ptrdiff_t max_parts, int restrict_to_range,
                                ptrdiff_t *part_ends, ptrdiff_t *part_centers, double *total)
{
    ptrdiff_t best = 0;
    for (ptrdiff_t j = 1; j < max_parts; j++)
        if (suffix[j * (m + 1) * LANES] < suffix[best * (m + 1) * LANES])
            best = j;

    /* each part ends at the first e that attains the suffix minimum */
    ptrdiff_t count = 0, i = 0;
    for (ptrdiff_t j = best; j > 0; j--) {
        const double *cur = suffix + j * (m + 1) * LANES, *prev = cur - (m + 1) * LANES;
        ptrdiff_t end = i;
        for (ptrdiff_t e = i; e < m; e++)
            if (part_total(own, cost, prev[(e + 1) * LANES], m, i, e, restrict_to_range)
                == cur[i * LANES]) {
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
            double sum = 0.0;
            if (restrict_to_range)
                sum = own[(a * m + v) * LANES] + own[(b * m + v) * LANES];
            else
                for (ptrdiff_t j = a; j <= b; j++)
                    sum += own[(v * m + j) * LANES];
            if (sum < least)
                least = sum, part_centers[q] = v;
        }
    }
    *total = suffix[best * (m + 1) * LANES];
    return count;
}

/* The medoid simplification of n curves of m points of d coordinates each
   (points is n x m x d), into at most ell contiguous parts. The count of
   each curve t goes to counts[t], the inclusive end and the center of each
   part to ends[t] and centers[t] (both n x ell), and the rooted total times
   the scale to totals[t].

   The curves run LANES at a time through medoid_lanes, which builds the
   tables of all of them in its lanes; partition_lane then reads each
   curve's parts and centers from its lane. The last group is padded with
   copies of the last curve, whose results are not written; it costs a
   whole group, so simplify.py hands over at least LANES curves where it
   has them. work holds LANES * (m * m + c + min(ell, m) * (m + 1)) doubles
   for the tables, where c is m with restrict_to_range and m * m without,
   and LANES * m * d for the interleaved points. */
void medoid_partition(const double *points, ptrdiff_t n, ptrdiff_t m, ptrdiff_t d,
                      double p, ptrdiff_t ell, int restrict_to_range, double *work,
                      ptrdiff_t *ends, ptrdiff_t *counts, ptrdiff_t *centers, double *totals)
{
    const ptrdiff_t max_parts = ell < m ? ell : m;
    double *own = work, *cost = own + LANES * m * m;
    double *suffix = cost + LANES * (restrict_to_range ? m : m * m);
    double *lanes = suffix + LANES * max_parts * (m + 1);
    for (ptrdiff_t t = 0; t < n; t += LANES) {
        const double *from[LANES];
        double scale[LANES];
        for (ptrdiff_t x = 0; x < LANES; x++)
            from[x] = points + (t + x < n ? t + x : n - 1) * m * d;
        interleave(from, m * d, lanes);
        medoid_lanes(lanes, m, d, p, max_parts, restrict_to_range, scale, own, cost, suffix);
        for (ptrdiff_t x = 0; x < LANES && t + x < n; x++) {
            double total;
            counts[t + x] = partition_lane(own + x, cost + x, suffix + x, m, max_parts,
                                           restrict_to_range, ends + (t + x) * ell,
                                           centers + (t + x) * ell, &total);
            totals[t + x] = root(total, p, scale[x]);
        }
    }
}

/* Candidate rows per pass of kmedian_search, each with its own sums */
#define SWAP_BLOCK 8

/* base[j * kv + r] for the kv = ceil(k / LANES) * LANES centers of each
   point j: the distance from j to the nearest of the k sorted centers
   other than centers[r], where lanes r >= k repeat center k - 1. The
   nearest center is the first that attains the least distance d1, and d2
   is the least distance to the other centers (inf for k = 1), as the
   stable argsort of kmedian._swap_arguments orders them. */
static void swap_bases(const double *dist, ptrdiff_t n, const ptrdiff_t *centers, ptrdiff_t k,
                       ptrdiff_t kv, double *base)
{
    for (ptrdiff_t j = 0; j < n; j++) {
        double d1 = dist[centers[0] * n + j], d2 = INFINITY;
        ptrdiff_t first = 0;
        for (ptrdiff_t r = 1; r < k; r++) {
            const double v = dist[centers[r] * n + j];
            if (v < d1)
                d2 = d1, d1 = v, first = r;
            else if (v < d2)
                d2 = v;
        }
        for (ptrdiff_t r = 0; r < kv; r++)
            base[j * kv + r] = (r < k ? r : k - 1) == first ? d2 : d1;
    }
}

/* One pass of kmedian_search over the SWAP_BLOCK candidate rows row and
   the center group g: lane x of out[b] gets the cost of swapping center
   LANES * g + x for the candidate of row b, the sum over j of
   vmin(row[b][j], base[j][r]) * w[j] added in index order from 0.0 (on a
   tie vmin gives the base, an equal value). One base vector serves all
   SWAP_BLOCK rows, and the SWAP_BLOCK chains of additions overlap. */
__attribute__((target("avx2")))
static void swap_pass(const double *const *row, ptrdiff_t n, const double *base, ptrdiff_t kv,
                      ptrdiff_t g, const double *w, vec *out)
{
    vec acc[SWAP_BLOCK] = {{0}};
    for (ptrdiff_t j = 0; j < n; j++) {
        const vec b = *(const vec *)(base + j * kv + g * LANES);
        const vec wj = {w[j], w[j], w[j], w[j]};
        for (int c = 0; c < SWAP_BLOCK; c++) {
            const double d = row[c][j];
            acc[c] += vmin((vec){d, d, d, d}, b) * wj;
        }
    }
    for (int c = 0; c < SWAP_BLOCK; c++)
        out[c] = acc[c];
}

/* The single-swap local search of kmedian.kmedian_local_search, with its
   rounds: the k sorted centers start at the given cost, and each round
   scores every swap of a center r for a non-center a, the sum over j of
   min(d(a, j), base_r[j]) * w[j] added in index order from 0.0, where
   base_r[j] is j's distance to the nearest center other than r. The swap
   applied is that of the first r, in center order, whose least cost (at
   its first candidate in ascending order, a NaN counting as least, as
   numpy's argmin takes it) is below the best so far; the search stops
   when no cost is below the current one, when the best exceeds threshold
   times the current cost, or after max_swaps rounds. Otherwise the swap
   is applied, the centers are sorted again, and the best cost becomes the
   current one. centers is updated in place.

   Each pass reads SWAP_BLOCK candidate rows of dist in place, where a
   short last pass repeats its first row and keeps none of its sums, and
   takes the centers LANES at a time in the lanes of its vectors. work
   holds kv * (n + 1) doubles, kv being k rounded up to a multiple of
   LANES: the bases and each center's least cost; index holds n - k + kv:
   the candidates and each center's least candidate. */
__attribute__((target("avx2")))
void kmedian_search(const double *dist, ptrdiff_t n, const double *w, ptrdiff_t *centers,
                    ptrdiff_t k, double cost, double threshold, ptrdiff_t max_swaps,
                    double *work, ptrdiff_t *index)
{
    const ptrdiff_t kv = (k + LANES - 1) / LANES * LANES, m = n - k;
    double *base = work, *least = work + n * kv;
    ptrdiff_t *cand = index, *at = index + m;
    for (ptrdiff_t step = 0; step < max_swaps; step++) {
        swap_bases(dist, n, centers, k, kv, base);
        for (ptrdiff_t j = 0, c = 0, t = 0; j < n; j++)
            if (c < k && centers[c] == j)
                c++;
            else
                cand[t++] = j;
        for (ptrdiff_t r = 0; r < k; r++)
            least[r] = INFINITY;

        for (ptrdiff_t t = 0; t < m; t += SWAP_BLOCK) {
            const ptrdiff_t count = m - t < SWAP_BLOCK ? m - t : SWAP_BLOCK;
            const double *row[SWAP_BLOCK];
            for (ptrdiff_t b = 0; b < SWAP_BLOCK; b++)
                row[b] = dist + cand[t + (b < count ? b : 0)] * n;
            for (ptrdiff_t g = 0; g < kv / LANES; g++) {
                vec sums[SWAP_BLOCK];
                swap_pass(row, n, base, kv, g, w, sums);
                for (ptrdiff_t b = 0; b < count; b++)
                    for (ptrdiff_t x = 0; x < LANES && g * LANES + x < k; x++) {
                        const ptrdiff_t r = g * LANES + x;
                        const double s = sums[b][x];
                        if (s < least[r] || s != s)
                            least[r] = s, at[r] = t + b;
                    }
            }
        }

        double best = cost;
        ptrdiff_t swap = -1;
        for (ptrdiff_t r = 0; r < k; r++)
            if (least[r] < best)
                best = least[r], swap = r;
        if (swap < 0 || best > threshold * cost)
            return;
        /* drop centers[swap] and insert the candidate in order */
        const ptrdiff_t a = cand[at[swap]];
        ptrdiff_t i = swap;
        for (; i + 1 < k && centers[i + 1] < a; i++)
            centers[i] = centers[i + 1];
        for (; i > 0 && centers[i - 1] > a; i--)
            centers[i] = centers[i - 1];
        centers[i] = a;
        cost = best;
    }
}
