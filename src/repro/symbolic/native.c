/*
 * The symbolic phase in C: fill-reducing ordering and pattern inspection.
 *
 * One fixed translation unit.  It is not generated and depends on no
 * sparsity pattern and no option bundle; repro/symbolic/native.py builds it
 * once per toolchain and calls it through ctypes.  Every entry point is
 * iterative (explicit stacks, no recursion), takes and returns int64, and
 * computes exactly what the Python reference of the same name computes, ties
 * and orders included: callers rely on array-equal results.
 *
 * The binding validates what it passes (monotone pointers, in-range indices,
 * parent[j] in [-1, n)).  Given that, no entry point reads or writes out of
 * bounds whatever the pattern; the two that allocate return -1 when malloc
 * fails.
 *
 * It also hosts repro_warm_step, the one numeric entry point: a direct
 * solver's warm step (value check, gather, factorization, solve) in one
 * call into the solver's generated module, bound at construction.
 *
 *   cc -O2 -fPIC -shared native.c -o symbolic.so
 *   cc -g -DNATIVE_SELFTEST -fsanitize=address,undefined \
 *      -fno-sanitize-recover native.c -o selftest && ./selftest
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;

/* --------------------------------------------------------------------- */
/* Exact minimum degree on a quotient graph                              */
/* --------------------------------------------------------------------- */

/* Indexed binary min-heap of vertices keyed on (deg[v], v). */
typedef struct {
    i64 *item, *pos;
    const i64 *deg;
    i64 size;
} heap_t;

static int heap_less(const heap_t *h, i64 a, i64 b)
{
    return h->deg[a] < h->deg[b] || (h->deg[a] == h->deg[b] && a < b);
}

static void heap_place(heap_t *h, i64 slot, i64 v)
{
    h->item[slot] = v;
    h->pos[v] = slot;
}

static void heap_up(heap_t *h, i64 slot)
{
    i64 v = h->item[slot];
    while (slot > 0) {
        i64 up = (slot - 1) / 2;
        if (!heap_less(h, v, h->item[up])) break;
        heap_place(h, slot, h->item[up]);
        slot = up;
    }
    heap_place(h, slot, v);
}

static void heap_down(heap_t *h, i64 slot)
{
    i64 v = h->item[slot];
    for (;;) {
        i64 child = 2 * slot + 1;
        if (child >= h->size) break;
        if (child + 1 < h->size && heap_less(h, h->item[child + 1], h->item[child])) child++;
        if (!heap_less(h, h->item[child], v)) break;
        heap_place(h, slot, h->item[child]);
        slot = child;
    }
    heap_place(h, slot, v);
}

enum { VARIABLE = 0, ELEMENT = 1, ABSORBED = 2 };

/*
 * perm[k] = the vertex of minimum degree in the elimination graph after k
 * eliminations, ties to the smallest index.  (ap, ai) is a symmetric pattern;
 * diagonal entries are ignored.
 *
 * The elimination graph is never formed.  An eliminated vertex p becomes an
 * element whose list L_p holds the clique it created; elements adjacent to p
 * are absorbed into it.  A variable i keeps, inside the slot its original
 * adjacency occupied, the variables it is still directly adjacent to (from
 * the front of the slot) and its elements (from the back); their number
 * never exceeds the original degree.  The degree of i is counted exactly, by
 * a marker scan of those lists, so the sequence equals the one a set-based
 * elimination graph gives.
 *
 * Returns 0, -1 when out of memory, -2 when the pattern is not symmetric
 * (perm is then unusable, but nothing was read or written out of bounds:
 * only live variables enter L_p, and both places a list grows are checked).
 */
i64 repro_sym_minimum_degree(i64 n, const i64 *ap, const i64 *ai, i64 *perm)
{
    i64 nnz = ap[n];
    /* Live element lists never total more than nnz: twice that leaves room
       to append between compactions. */
    i64 cap = 2 * nnz + n + 1;
    i64 *mem = malloc(sizeof(i64) * (size_t)(nnz + cap + 12 * n + 1));
    if (!mem) return -1;
    i64 *adj = mem, *pool = adj + nnz, *start = pool + cap;
    i64 *nvar = start + n + 1, *nel = nvar + n, *estart = nel + n, *esize = estart + n;
    i64 *state = esize + n, *mark = state + n, *front = mark + n, *lp = front + n;
    i64 *deg = lp + n;
    heap_t heap = {deg + n, deg + 2 * n, deg, n};
    i64 top = 0, stamp = 0, status = 0;

    for (i64 j = 0; j < n; j++) mark[j] = front[j] = -1;
    start[0] = 0;
    for (i64 j = 0; j < n; j++) {
        i64 w = start[j];
        mark[j] = j;
        for (i64 p = ap[j]; p < ap[j + 1]; p++) {
            i64 v = ai[p];
            if (mark[v] != j) {
                mark[v] = j;
                adj[w++] = v;
            }
        }
        start[j + 1] = w;
        deg[j] = nvar[j] = w - start[j];
        nel[j] = 0;
        state[j] = VARIABLE;
        heap_place(&heap, j, j);
    }
    for (i64 j = 0; j < n; j++) mark[j] = -1;
    for (i64 slot = n / 2 - 1; slot >= 0; slot--) heap_down(&heap, slot);

    for (i64 k = 0; k < n; k++) {
        i64 p = heap.item[0];
        if (--heap.size > 0) {
            heap_place(&heap, 0, heap.item[heap.size]);
            heap_down(&heap, 0);
        }
        perm[k] = p;

        /* L_p: the variables adjacent to p, directly or through an element. */
        i64 len = 0;
        front[p] = k;
        for (i64 t = 0; t < nvar[p]; t++) {
            i64 v = adj[start[p] + t];
            if (front[v] != k && state[v] == VARIABLE) {
                front[v] = k;
                lp[len++] = v;
            }
        }
        for (i64 t = 1; t <= nel[p]; t++) {
            i64 e = adj[start[p + 1] - t];
            for (i64 q = estart[e]; q < estart[e] + esize[e]; q++) {
                i64 v = pool[q];
                if (front[v] != k && state[v] == VARIABLE) {
                    front[v] = k;
                    lp[len++] = v;
                }
            }
            state[e] = ABSORBED;
        }
        if (top + len > cap) {
            top = 0;
            for (i64 t = 0; t < k; t++) {
                i64 e = perm[t];
                if (state[e] != ELEMENT) continue;
                memmove(pool + top, pool + estart[e], sizeof(i64) * (size_t)esize[e]);
                estart[e] = top;
                top += esize[e];
            }
        }
        if (top + len > cap) {
            status = -2;
            break;
        }
        state[p] = ELEMENT;
        estart[p] = top;
        esize[p] = len;
        memcpy(pool + top, lp, sizeof(i64) * (size_t)len);
        top += len;

        /* Each member of L_p drops the edges the new element now stands for
           and trades its absorbed elements for p. */
        for (i64 t = 0; t < len; t++) {
            i64 i = lp[t], w = 0;
            i64 *vars = adj + start[i], *end = adj + start[i + 1];
            for (i64 q = 0; q < nvar[i]; q++)
                if (front[vars[q]] != k) vars[w++] = vars[q];
            nvar[i] = w;
            w = 0;
            for (i64 q = 1; q <= nel[i]; q++) {
                i64 e = end[-q];
                if (state[e] == ELEMENT) end[-(++w)] = e;
            }
            if (nvar[i] + w + 1 > start[i + 1] - start[i]) {
                status = -2; /* p reached i, i does not reach p */
                break;
            }
            end[-(++w)] = p;
            nel[i] = w;
        }
        if (status) break;

        /* Exact degrees: all of L_p but i itself, plus whatever else the
           variable list and the other elements of i reach. */
        for (i64 t = 0; t < len; t++) {
            i64 i = lp[t], d = len - 1;
            const i64 *vars = adj + start[i], *end = adj + start[i + 1];
            stamp++;
            for (i64 q = 0; q < nvar[i]; q++)
                if (mark[vars[q]] != stamp) {
                    mark[vars[q]] = stamp;
                    d++;
                }
            for (i64 q = 1; q <= nel[i]; q++) {
                i64 e = end[-q];
                if (e == p) continue;
                for (i64 r = estart[e]; r < estart[e] + esize[e]; r++) {
                    i64 v = pool[r];
                    if (front[v] != k && mark[v] != stamp) {
                        mark[v] = stamp;
                        d++;
                    }
                }
            }
            deg[i] = d;
            heap_up(&heap, heap.pos[i]);
            heap_down(&heap, heap.pos[i]);
        }
    }
    free(mem);
    return status;
}

/* --------------------------------------------------------------------- */
/* Elimination trees and their postorder                                 */
/* --------------------------------------------------------------------- */

/*
 * Liu's algorithm with path compression.  Column k of (ap, ai) must hold the
 * entries A[i, k], i < k, of the symmetric matrix (larger i are skipped).
 * With ata != 0 the tree is that of A^T A for an n_rows x n matrix: every
 * row links the previous column it appeared in to the current one.
 * work: n + n_rows.
 */
void repro_sym_etree(i64 n_rows, i64 n, const i64 *ap, const i64 *ai, i64 ata, i64 *parent, i64 *work)
{
    i64 *ancestor = work, *prev = work + n;
    for (i64 k = 0; k < n; k++) parent[k] = ancestor[k] = -1;
    if (ata)
        for (i64 r = 0; r < n_rows; r++) prev[r] = -1;
    for (i64 k = 0; k < n; k++)
        for (i64 p = ap[k]; p < ap[k + 1]; p++) {
            i64 i = ata ? prev[ai[p]] : ai[p];
            while (i != -1 && i < k) {
                i64 next = ancestor[i];
                ancestor[i] = k;
                if (next == -1) parent[i] = k;
                i = next;
            }
            if (ata) prev[ai[p]] = k;
        }
}

/*
 * Depth-first postorder of the forest, roots and children in increasing
 * order.  Returns the number of nodes placed: fewer than n means parent
 * holds a cycle.  work: 3n.
 */
i64 repro_sym_postorder(i64 n, const i64 *parent, i64 *post, i64 *work)
{
    i64 *head = work, *next = work + n, *stack = work + 2 * n, k = 0;
    for (i64 j = 0; j < n; j++) head[j] = -1;
    for (i64 j = n - 1; j >= 0; j--)
        if (parent[j] >= 0) {
            next[j] = head[parent[j]];
            head[parent[j]] = j;
        }
    for (i64 root = 0; root < n; root++) {
        if (parent[root] != -1) continue;
        i64 top = 0;
        stack[0] = root;
        while (top >= 0) {
            i64 node = stack[top], child = head[node];
            if (child >= 0) {
                head[node] = next[child];
                stack[++top] = child;
            } else {
                post[k++] = node;
                top--;
            }
        }
    }
    return k;
}

/* --------------------------------------------------------------------- */
/* Cholesky: every row's ereach, and the factor pattern they add up to    */
/* --------------------------------------------------------------------- */

/*
 * Row k of L is reached by walking the tree upward from every A[i, k],
 * i <= k, until a node already seen for this row.  Each node met bumps its
 * `slot`; when `l_indices` is given, k is first stored there.  Returns the
 * number of nodes met.
 */
static i64 row_subtree(i64 k, const i64 *ap, const i64 *ai, const i64 *parent, i64 *mark,
                       i64 *slot, i64 *l_indices)
{
    i64 count = 0;
    mark[k] = k;
    for (i64 p = ap[k]; p < ap[k + 1]; p++) {
        i64 i = ai[p];
        if (i > k) continue;
        while (mark[i] != k) {
            mark[i] = k;
            count++;
            if (l_indices) l_indices[slot[i]] = k;
            slot[i]++;
            i = parent[i];
            if (i == -1) break;
        }
    }
    return count;
}

/*
 * Pass 1: row_ptr (CSR pointers of the row patterns, diagonal excluded) and
 * l_indptr (CSC pointers of L, diagonal included).  Returns nnz(L).
 * work: n.
 */
i64 repro_sym_factor_counts(i64 n, const i64 *ap, const i64 *ai, const i64 *parent, i64 *row_ptr,
                            i64 *l_indptr, i64 *work)
{
    i64 *mark = work;
    for (i64 j = 0; j < n; j++) {
        mark[j] = -1;
        l_indptr[j + 1] = 1;
    }
    row_ptr[0] = l_indptr[0] = 0;
    for (i64 k = 0; k < n; k++)
        row_ptr[k + 1] = row_ptr[k] + row_subtree(k, ap, ai, parent, mark, l_indptr + 1, NULL);
    for (i64 j = 0; j < n; j++) l_indptr[j + 1] += l_indptr[j];
    return l_indptr[n];
}

/*
 * Pass 2: l_indices (diagonal first, then the rows k in increasing order,
 * which is the order the walk meets them) and row_idx, the transpose of its
 * strict lower part, so every row pattern is ascending without a sort.
 * work: 2n.
 */
void repro_sym_factor_pattern(i64 n, const i64 *ap, const i64 *ai, const i64 *parent,
                              const i64 *row_ptr, const i64 *l_indptr, i64 *row_idx,
                              i64 *l_indices, i64 *work)
{
    i64 *mark = work, *next = work + n;
    for (i64 j = 0; j < n; j++) {
        mark[j] = -1;
        l_indices[l_indptr[j]] = j;
        next[j] = l_indptr[j] + 1;
    }
    for (i64 k = 0; k < n; k++) row_subtree(k, ap, ai, parent, mark, next, l_indices);
    for (i64 k = 0; k < n; k++) next[k] = row_ptr[k];
    for (i64 j = 0; j < n; j++)
        for (i64 p = l_indptr[j] + 1; p < l_indptr[j + 1]; p++) row_idx[next[l_indices[p]]++] = j;
}

/* --------------------------------------------------------------------- */
/* LU without pivoting: Gilbert-Peierls symbolic factorization            */
/* --------------------------------------------------------------------- */

static int compare_i64(const void *a, const void *b)
{
    i64 x = *(const i64 *)a, y = *(const i64 *)b;
    return (x > y) - (x < y);
}

/* Make room for `extra` more entries behind `used`; 0 when out of memory. */
static int reserve(i64 **buffer, i64 *capacity, i64 used, i64 extra)
{
    if (used + extra <= *capacity) return 1;
    i64 grown = 2 * (used + extra);
    i64 *moved = realloc(*buffer, sizeof(i64) * (size_t)grown);
    if (!moved) return 0;
    *buffer = moved;
    *capacity = grown;
    return 1;
}

/*
 * Column j of the factors is the reach of A(:, j) in the graph of the L
 * columns built so far; rows above j go to U, rows below to L.  L stores its
 * unit diagonal first, U its pivot last, both always (a structurally missing
 * diagonal is added).  *l_out and *u_out are malloc'd here and released with
 * repro_sym_free.  Returns 0, or -1 when out of memory (nothing to release).
 */
i64 repro_sym_lu_pattern(i64 n, const i64 *ap, const i64 *ai, i64 *l_indptr, i64 *u_indptr,
                         i64 **l_out, i64 **u_out)
{
    i64 l_cap = 2 * ap[n] + n + 1, u_cap = l_cap;
    i64 *l = malloc(sizeof(i64) * (size_t)l_cap), *u = malloc(sizeof(i64) * (size_t)u_cap);
    i64 *work = malloc(sizeof(i64) * (size_t)(3 * n + 1));
    i64 *mark = work, *stack = work + n, *reached = work + 2 * n;
    *l_out = *u_out = NULL;
    if (!l || !u || !work) goto fail;
    for (i64 j = 0; j < n; j++) mark[j] = -1;
    l_indptr[0] = u_indptr[0] = 0;
    for (i64 j = 0; j < n; j++) {
        i64 count = 0, above = 0;
        mark[j] = j;
        for (i64 p = ap[j]; p < ap[j + 1]; p++) {
            i64 top = 0;
            if (mark[ai[p]] == j) continue;
            mark[ai[p]] = j;
            stack[0] = reached[count++] = ai[p];
            /* Marked when pushed: each node is stacked once per column. */
            while (top >= 0) {
                i64 i = stack[top--];
                if (i >= j) continue;
                for (i64 q = l_indptr[i] + 1; q < l_indptr[i + 1]; q++) {
                    i64 r = l[q];
                    if (mark[r] != j) {
                        mark[r] = j;
                        stack[++top] = reached[count++] = r;
                    }
                }
            }
        }
        qsort(reached, (size_t)count, sizeof(i64), compare_i64);
        while (above < count && reached[above] < j) above++;
        if (!reserve(&u, &u_cap, u_indptr[j], above + 1)) goto fail;
        if (!reserve(&l, &l_cap, l_indptr[j], count - above + 1)) goto fail;
        memcpy(u + u_indptr[j], reached, sizeof(i64) * (size_t)above);
        u[u_indptr[j] + above] = j;
        l[l_indptr[j]] = j;
        memcpy(l + l_indptr[j] + 1, reached + above, sizeof(i64) * (size_t)(count - above));
        u_indptr[j + 1] = u_indptr[j] + above + 1;
        l_indptr[j + 1] = l_indptr[j] + count - above + 1;
    }
    free(work);
    *l_out = l;
    *u_out = u;
    return 0;
fail:
    free(l);
    free(u);
    free(work);
    return -1;
}

void repro_sym_free(void *block) { free(block); }

/* --------------------------------------------------------------------- */
/* Reach of a right-hand-side pattern in DG_L                             */
/* --------------------------------------------------------------------- */

/*
 * Depth-first search from every source in turn; a vertex is written, from
 * the back of `out`, when its search finishes.  out[top .. n) is then a
 * topological order of the reached columns; returns top.  work: 3n.
 */
i64 repro_sym_reach(i64 n, const i64 *lp, const i64 *li, i64 n_sources, const i64 *sources,
                    i64 *out, i64 *work)
{
    i64 *vertex = work, *edge = work + n, *visited = work + 2 * n, top = n;
    for (i64 j = 0; j < n; j++) visited[j] = 0;
    for (i64 s = 0; s < n_sources; s++) {
        i64 depth = 0;
        if (visited[sources[s]]) continue;
        vertex[0] = sources[s];
        edge[0] = lp[sources[s]];
        visited[sources[s]] = 1;
        while (depth >= 0) {
            i64 v = vertex[depth], p = edge[depth], descended = 0;
            while (p < lp[v + 1]) {
                i64 i = li[p++];
                if (i > v && !visited[i]) {
                    edge[depth++] = p;
                    vertex[depth] = i;
                    edge[depth] = lp[i];
                    visited[i] = 1;
                    descended = 1;
                    break;
                }
            }
            if (!descended) {
                out[--top] = v;
                depth--;
            }
        }
    }
    return top;
}

/* --------------------------------------------------------------------- */
/* The warm step of a direct solver (solvers/linear_solver.py)            */
/* --------------------------------------------------------------------- */

/*
 * Everything one solver's warm step touches, bound once when the solver is
 * built: its generated factorization entry <entry>(Ap, Ai, Ax, Lx[, D | Ux],
 * repro_T) and solve entry <entry>_solve(perm, Lx[, D | Ux], b, w, x,
 * repro_T) with their arguments, and the arrays the step fills for them.
 */
typedef struct {
    void *kernel;
    i64 kernel_arity; /* 5 or 6 */
    void *kernel_args[6];
    void *solve;
    i64 solve_arity; /* 6 or 7 */
    void *solve_args[7];
    i64 n, nnz;
    double *snapshot;   /* nnz: the input-order values the factors came from */
    const i64 *gather;  /* nnz: permuted[p] = snapshot[gather[p]] */
    double *permuted;   /* nnz: the kernel's Ax */
    double *b;          /* n: the solve entry's b */
} repro_warm_t;

/* Outcomes of repro_warm_step; any other value is the kernel's own non-zero
   status (j + 1: it failed at column j; -1: out of memory). */
enum {
    WARM_SOLVED = 0,         /* x from the current factors */
    WARM_REFACTORED = -2,    /* the new values factorized, then x */
    WARM_OTHER_PATTERN = -3, /* indptr / indices differ: nothing touched */
    WARM_NONFINITE = -4      /* a NaN or Inf among the values: nothing touched */
};

typedef i64 (*warm_kernel5)(void *, void *, void *, void *, void *);
typedef i64 (*warm_kernel6)(void *, void *, void *, void *, void *, void *);
typedef void (*warm_solve6)(void *, void *, void *, void *, void *, void *);
typedef void (*warm_solve7)(void *, void *, void *, void *, void *, void *, void *);

/* The value scans below, two doubles at a time in GCC / Clang vector
   extensions (16 bytes: SSE2 / NEON, no ABI change): a scalar loop that
   stops at the first difference runs about four times slower than NumPy's
   comparison. */
typedef double warm_v2 __attribute__((vector_size(16)));
typedef i64 warm_m2 __attribute__((vector_size(16)));

static warm_v2 warm_load(const double *a)
{
    warm_v2 v;
    memcpy(&v, a, sizeof v);
    return v;
}

/* Whether some a[p] != b[p]: -0.0 equals 0.0, and a NaN never equals. */
static int warm_differ(const double *a, const double *b, i64 n)
{
    i64 p = 0;
    for (; p + 16 <= n; p += 16) {
        warm_m2 hit = {0, 0};
        for (int k = 0; k < 16; k += 2) hit |= warm_load(a + p + k) != warm_load(b + p + k);
        if (hit[0] | hit[1]) return 1;
    }
    for (; p < n; p++)
        if (a[p] != b[p]) return 1;
    return 0;
}

/* Whether some a[p] is a NaN or an infinity (x - x is 0 for every finite x). */
static int warm_nonfinite(const double *a, i64 n)
{
    const warm_v2 zero = {0, 0};
    i64 p = 0;
    for (; p + 16 <= n; p += 16) {
        warm_m2 hit = {0, 0};
        for (int k = 0; k < 16; k += 2) {
            warm_v2 v = warm_load(a + p + k);
            hit |= v - v != zero;
        }
        if (hit[0] | hit[1]) return 1;
    }
    for (; p < n; p++)
        if (!isfinite(a[p])) return 1;
    return 0;
}

static i64 warm_kernel(const repro_warm_t *w)
{
    void *const *a = w->kernel_args;
    if (w->kernel_arity == 5) return ((warm_kernel5)w->kernel)(a[0], a[1], a[2], a[3], a[4]);
    return ((warm_kernel6)w->kernel)(a[0], a[1], a[2], a[3], a[4], a[5]);
}

static void warm_solve(const repro_warm_t *w)
{
    void *const *a = w->solve_args;
    if (w->solve_arity == 6)
        ((warm_solve6)w->solve)(a[0], a[1], a[2], a[3], a[4], a[5]);
    else
        ((warm_solve7)w->solve)(a[0], a[1], a[2], a[3], a[4], a[5], a[6]);
}

/*
 * x solving A(values) x = b, the step SparseLinearSolver.step composes in
 * Python, in one call.  With index_bytes 4 or 8, (indptr, indices) must
 * first equal (ref_indptr, ref_indices), n + 1 and nnz entries of that
 * width.  The values count as new when one differs (!=, so -0.0 equals 0.0
 * and a NaN never equals) from the snapshot, or when `refactor` is set; new
 * values that are all finite go into the snapshot, through the gather into
 * the kernel's Ax, and through the kernel.  Then b goes in and the solve
 * entry writes its x.  The caller holds the solver's lock, and copies x out.
 */
i64 repro_warm_step(const repro_warm_t *w, const double *values, const double *b, i64 refactor,
                    i64 index_bytes, const void *indptr, const void *indices, const void *ref_indptr,
                    const void *ref_indices)
{
    if (index_bytes
        && (memcmp(indptr, ref_indptr, (size_t)(index_bytes * (w->n + 1)))
            || memcmp(indices, ref_indices, (size_t)(index_bytes * w->nnz))))
        return WARM_OTHER_PATTERN;
    if (refactor || warm_differ(values, w->snapshot, w->nnz)) {
        if (warm_nonfinite(values, w->nnz)) return WARM_NONFINITE;
        memcpy(w->snapshot, values, sizeof(double) * (size_t)w->nnz);
        for (i64 p = 0; p < w->nnz; p++) w->permuted[p] = w->snapshot[w->gather[p]];
        i64 status = warm_kernel(w);
        if (status) return status;
        refactor = 1;
    }
    memcpy(w->b, b, sizeof(double) * (size_t)w->n);
    warm_solve(w);
    return refactor ? WARM_REFACTORED : WARM_SOLVED;
}

/* --------------------------------------------------------------------- */
/* Self-test: cc -DNATIVE_SELFTEST -fsanitize=address,undefined          */
/* --------------------------------------------------------------------- */
#ifdef NATIVE_SELFTEST
#include <stdio.h>

#define CHECK(cond)                                                        \
    do {                                                                   \
        if (!(cond)) {                                                     \
            fprintf(stderr, "%s:%d: %s: %s\n", __FILE__, __LINE__, name, #cond); \
            exit(1);                                                       \
        }                                                                  \
    } while (0)

static int is_permutation(i64 n, const i64 *perm, i64 *seen)
{
    memset(seen, 0, sizeof(i64) * (size_t)n);
    for (i64 k = 0; k < n; k++) {
        if (perm[k] < 0 || perm[k] >= n || seen[perm[k]]) return 0;
        seen[perm[k]] = 1;
    }
    return 1;
}

/* Every column (or row) strictly ascending. */
static int columns_sorted(i64 n, const i64 *ptr, const i64 *idx)
{
    for (i64 j = 0; j < n; j++)
        for (i64 p = ptr[j] + 1; p < ptr[j + 1]; p++)
            if (idx[p - 1] >= idx[p]) return 0;
    return 1;
}

/* Every entry point on one n x n pattern given as a dense 0/1 array with a
   full diagonal (dense[i * n + j] = A[i, j]); `symmetric` says whether the
   Cholesky-side checks apply. */
static void exercise(const char *name, i64 n, const char *dense, int symmetric)
{
    i64 nnz = 0;
    for (i64 t = 0; t < n * n; t++) nnz += dense[t];
    i64 *ap = malloc(sizeof(i64) * (size_t)(n + 1)), *ai = malloc(sizeof(i64) * (size_t)(nnz + 1));
    i64 *out = malloc(sizeof(i64) * (size_t)(7 * n + 8)), *work = malloc(sizeof(i64) * (size_t)(3 * n + 1));
    i64 *perm = out, *parent = out + n, *post = out + 2 * n, *row_ptr = out + 3 * n;
    i64 *l_indptr = out + 4 * n + 1, *u_indptr = out + 5 * n + 2, *seen = out + 6 * n + 3;
    i64 *l = NULL, *u = NULL;
    ap[0] = 0;
    for (i64 j = 0; j < n; j++) {
        ap[j + 1] = ap[j];
        for (i64 i = 0; i < n; i++)
            if (dense[i * n + j]) ai[ap[j + 1]++] = i;
    }

    CHECK(repro_sym_lu_pattern(n, ap, ai, l_indptr, u_indptr, &l, &u) == 0);
    CHECK(columns_sorted(n, l_indptr, l) && columns_sorted(n, u_indptr, u));
    for (i64 j = 0; j < n; j++) CHECK(l[l_indptr[j]] == j && u[u_indptr[j + 1] - 1] == j);
    repro_sym_etree(n, n, ap, ai, 1, parent, work);
    for (i64 j = 0; j < n; j++) CHECK(parent[j] == -1 || (parent[j] > j && parent[j] < n));

    /* DG_L of the L just built: reach of everything is a topological order. */
    for (i64 j = 0; j < n; j++) post[j] = n - 1 - j;
    CHECK(repro_sym_reach(n, l_indptr, l, n, post, perm, work) == 0);
    CHECK(is_permutation(n, perm, seen));
    for (i64 k = 0; k < n; k++) seen[perm[k]] = k;
    for (i64 j = 0; j < n; j++)
        for (i64 p = l_indptr[j] + 1; p < l_indptr[j + 1]; p++) CHECK(seen[j] < seen[l[p]]);
    if (symmetric) {
        CHECK(repro_sym_minimum_degree(n, ap, ai, perm) == 0);
        CHECK(is_permutation(n, perm, seen));
        repro_sym_etree(n, n, ap, ai, 0, parent, work);
        for (i64 j = 0; j < n; j++) CHECK(parent[j] == -1 || (parent[j] > j && parent[j] < n));
        CHECK(repro_sym_postorder(n, parent, post, work) == n && is_permutation(n, post, seen));

        i64 *c_indptr = u_indptr; /* U is checked; reuse its pointer array */
        i64 l_nnz = repro_sym_factor_counts(n, ap, ai, parent, row_ptr, c_indptr, work);
        i64 *c = malloc(sizeof(i64) * (size_t)(2 * l_nnz + 1)), *rows = c + l_nnz;
        repro_sym_factor_pattern(n, ap, ai, parent, row_ptr, c_indptr, rows, c, work);
        CHECK(row_ptr[n] == l_nnz - n && columns_sorted(n, c_indptr, c));
        CHECK(columns_sorted(n, row_ptr, rows));
        /* On a symmetric pattern no-pivot LU and Cholesky predict the same L. */
        CHECK(l_nnz == l_indptr[n]);
        CHECK(memcmp(c_indptr, l_indptr, sizeof(i64) * (size_t)(n + 1)) == 0);
        CHECK(memcmp(c, l, sizeof(i64) * (size_t)l_nnz) == 0);
        free(c);
    }
    repro_sym_free(l);
    repro_sym_free(u);
    free(ap);
    free(ai);
    free(out);
    free(work);
}

/* repro_warm_step over stub entries: the kernel copies Ax into Lx (and sets
   D = 1) and returns stub_status; the solve entry writes
   x[i] = b[perm[i]] + Lx[0], so x shows which factors it read. */
static i64 stub_status, kernel_calls, solve_calls;

static i64 stub_kernel5(void *ap, void *ai, void *ax, void *lx, void *t)
{
    (void)ap, (void)ai, (void)t;
    kernel_calls++;
    memcpy(lx, ax, 4 * sizeof(double));
    return stub_status;
}

static i64 stub_kernel6(void *ap, void *ai, void *ax, void *lx, void *d, void *t)
{
    for (int i = 0; i < 3; i++) ((double *)d)[i] = 1.0;
    return stub_kernel5(ap, ai, ax, lx, t);
}

static void stub_solve6(void *perm, void *lx, void *b, void *w, void *x, void *t)
{
    (void)w, (void)t;
    solve_calls++;
    for (int i = 0; i < 3; i++) ((double *)x)[i] = ((double *)b)[((i64 *)perm)[i]] + ((double *)lx)[0];
}

static void stub_solve7(void *perm, void *lx, void *d, void *b, void *w, void *x, void *t)
{
    (void)d;
    stub_solve6(perm, lx, b, w, x, t);
}

static void exercise_warm_step(const char *name, int wide)
{
    i64 ap[4] = {0, 2, 3, 4}, ai[4] = {0, 1, 1, 2}, other[4] = {0, 2, 3, 4}, perm[3] = {2, 0, 1};
    int32_t ap32[4] = {0, 2, 3, 4}, ai32[4] = {0, 1, 1, 2};
    i64 gather[4] = {3, 0, 2, 1};
    double snapshot[4] = {4, 1, 0.0, 2}, permuted[4], lx[4] = {0}, d[3], sb[3], sw[3], sx[3];
    double values[4] = {4, 1, -0.0, 2}, b[3] = {10, 20, 30};
    repro_warm_t w = {0};
    w.kernel = wide ? (void *)stub_kernel6 : (void *)stub_kernel5;
    w.kernel_arity = wide ? 6 : 5;
    void *kernel_args[6] = {ap, ai, permuted, lx, wide ? (void *)d : NULL, NULL};
    memcpy(w.kernel_args, kernel_args, sizeof kernel_args);
    w.solve = wide ? (void *)stub_solve7 : (void *)stub_solve6;
    w.solve_arity = wide ? 7 : 6;
    void *solve_args[7] = {perm, lx, wide ? (void *)d : sb, wide ? (void *)sb : sw,
                           wide ? (void *)sw : sx, wide ? (void *)sx : NULL, NULL};
    memcpy(w.solve_args, solve_args, sizeof solve_args);
    w.n = 3;
    w.nnz = 4;
    w.snapshot = snapshot;
    w.gather = gather;
    w.permuted = permuted;
    w.b = sb;
    kernel_calls = solve_calls = stub_status = 0;

    /* Another pattern: nothing runs, nothing is written. */
    other[3] = 3;
    sx[0] = -1;
    CHECK(repro_warm_step(&w, values, b, 0, 8, ap, other, ap, ai) == WARM_OTHER_PATTERN);
    CHECK(repro_warm_step(&w, values, b, 1, 8, other, ai, ap, ai) == WARM_OTHER_PATTERN);
    CHECK(kernel_calls == 0 && solve_calls == 0 && sx[0] == -1 && snapshot[2] == 0.0 && !signbit(snapshot[2]));

    /* The same pattern (either width), -0.0 against 0.0: the solve alone. */
    CHECK(repro_warm_step(&w, values, b, 0, 4, ap32, ai32, ap32, ai32) == WARM_SOLVED);
    CHECK(repro_warm_step(&w, values, b, 0, 8, ap, ai, ap, ai) == WARM_SOLVED);
    CHECK(kernel_calls == 0 && solve_calls == 2 && !signbit(snapshot[2]));
    CHECK(sx[0] == 30 && sx[1] == 10 && sx[2] == 20);

    /* New values: snapshot, gather, kernel, solve on the new factors. */
    values[0] = 5;
    CHECK(repro_warm_step(&w, values, b, 0, 0, NULL, NULL, NULL, NULL) == WARM_REFACTORED);
    CHECK(kernel_calls == 1 && solve_calls == 3 && memcmp(snapshot, values, sizeof values) == 0);
    for (int p = 0; p < 4; p++) CHECK(permuted[p] == snapshot[gather[p]]);
    CHECK(lx[0] == 2 && sx[0] == 32 && sx[1] == 12 && sx[2] == 22);
    CHECK(!wide || d[0] == 1.0);
    /* Forced: the same values factorize again. */
    CHECK(repro_warm_step(&w, values, b, 1, 0, NULL, NULL, NULL, NULL) == WARM_REFACTORED);
    CHECK(kernel_calls == 2 && solve_calls == 4);

    /* A NaN or an Inf, changed or forced: refused before anything is written. */
    for (int t = 0; t < 3; t++) {
        double bad[4] = {5, 1, 0.0, 2}, before[4];
        bad[t == 2 ? 0 : 3] = t == 0 ? NAN : t == 1 ? INFINITY : -INFINITY;
        memcpy(before, permuted, sizeof before);
        sx[0] = -1;
        CHECK(repro_warm_step(&w, bad, b, t == 2, 0, NULL, NULL, NULL, NULL) == WARM_NONFINITE);
        CHECK(memcmp(snapshot, values, sizeof values) == 0 && memcmp(before, permuted, sizeof before) == 0);
        CHECK(kernel_calls == 2 && solve_calls == 4 && sx[0] == -1);
    }

    /* The kernel's own status comes back as is, and the solve does not run. */
    values[1] = 7;
    stub_status = 3;
    CHECK(repro_warm_step(&w, values, b, 0, 0, NULL, NULL, NULL, NULL) == 3);
    stub_status = -1;
    CHECK(repro_warm_step(&w, values, b, 1, 0, NULL, NULL, NULL, NULL) == -1);
    CHECK(kernel_calls == 4 && solve_calls == 4 && sx[0] == -1);
    stub_status = 0;
    CHECK(repro_warm_step(&w, values, b, 1, 0, NULL, NULL, NULL, NULL) == WARM_REFACTORED);
    CHECK(kernel_calls == 5 && solve_calls == 5 && sx[0] == 32);
}

/* The vectorized scans against their definition, a difference or a
   non-finite value at every position of two blocks and a tail. */
static void exercise_warm_scans(void)
{
    const char *name = "warm scans";
    enum { N = 37 };
    double a[N], b[N];
    for (int p = 0; p < N; p++) a[p] = b[p] = p % 3 ? 1.0 / (p + 1) : 0.0;
    CHECK(!warm_differ(a, b, N) && !warm_nonfinite(a, N));
    for (int p = 0; p < N; p++) {
        double keep = a[p];
        a[p] = -a[p]; /* -0.0 where a[p] is 0.0: still equal */
        CHECK(warm_differ(a, b, N) == (keep != 0.0));
        a[p] = NAN;
        CHECK(warm_differ(a, b, N) && warm_nonfinite(a, N));
        a[p] = p % 2 ? INFINITY : -INFINITY;
        CHECK(warm_differ(a, b, N) && warm_nonfinite(a, N));
        a[p] = 1e308;
        CHECK(warm_differ(a, b, N) && !warm_nonfinite(a, N));
        a[p] = keep;
        CHECK(!warm_differ(a, b, p) && !warm_differ(a, b, N));
    }
}

int main(void)
{
    enum { NX = 7, NY = 6, N = NX * NY };
    static char dense[N * N];
    uint64_t seed = 12345;

    for (i64 x = 0; x < NX; x++)
        for (i64 y = 0; y < NY; y++) {
            i64 v = x * NY + y;
            dense[v * N + v] = 1;
            if (x + 1 < NX) dense[v * N + v + NY] = dense[(v + NY) * N + v] = 1;
            if (y + 1 < NY) dense[v * N + v + 1] = dense[(v + 1) * N + v] = 1;
        }
    exercise("grid", N, dense, 1);

    for (int symmetric = 1; symmetric >= 0; symmetric--) {
        memset(dense, 0, sizeof dense);
        for (i64 i = 0; i < N; i++)
            for (i64 j = 0; j < N; j++) {
                seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
                if (i == j || (seed >> 33) % 12 == 0) {
                    dense[i * N + j] = 1;
                    if (symmetric) dense[j * N + i] = 1;
                }
            }
        exercise(symmetric ? "random symmetric" : "random unsymmetric", N, dense, symmetric);
    }
    exercise("one by one", 1, "\1", 1);
    exercise("empty", 0, "", 1);
    exercise_warm_scans();
    exercise_warm_step("warm step, Cholesky arity", 0);
    exercise_warm_step("warm step, LDLT / LU arity", 1);
    puts("native symbolic self-test: ok");
    return 0;
}
#endif
