/* Floyd-Warshall in place on a dense row-major n x n matrix d with a zero
   diagonal and no negative entries; see closure.py for why its result has
   the bits of floyd_warshall_reference there. */
#include <math.h>
#include <stddef.h>

/* Row i through k; i != k, so the rows do not overlap. */
static inline void relax(double *restrict di, const double *restrict dk,
                         double dik, ptrdiff_t n)
{
    for (ptrdiff_t j = 0; j < n; j++) {
        const double t = dik + dk[j];
        di[j] = t < di[j] ? t : di[j];
    }
}

__attribute__((target_clones("avx2", "default")))
void floyd_warshall(double *d, ptrdiff_t n)
{
    for (ptrdiff_t k = 0; k < n; k++)
        for (ptrdiff_t i = 0; i < n; i++)
            if (i != k && d[i * n + k] != INFINITY)
                relax(d + i * n, d + k * n, d[i * n + k], n);
}
