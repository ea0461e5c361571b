/* The native propagation kernel: the solver inner loops in C.
 *
 * One self-contained translation unit, compiled on first use by
 * build.py with the host C compiler and loaded through ctypes.  Every
 * entry point operates on flat arrays owned by the Python side (see
 * ops.py for the layout contract):
 *
 *   - domains are multiword little-endian bitmasks, NW 64-bit words
 *     per row (NW covers the widest domain in the network);
 *   - the directed-arc tables are CSR-style: arc_base[v]..arc_base[v+1]
 *     are variable v's outgoing arcs, arc_dst the neighbor indices,
 *     sup_off the word offset of each arc's support block (dom[src]
 *     rows of NW words) inside the shared sup plane;
 *   - effort counters are reported through small int64 out-arrays.
 *
 * Parity is the contract: each routine replicates its Python/bitset
 * reference loop *exactly* -- same iteration order, same counter
 * accounting, same RNG stream (a byte-exact reimplementation of
 * CPython's MT19937 seeding and _randbelow rejection sampling) -- so
 * solutions, effort counters and random walks are indistinguishable
 * from the bitset engine.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

#define REPRO_ABI 1

#if defined(_WIN32)
#define REPRO_EXPORT __declspec(dllexport)
#else
#define REPRO_EXPORT __attribute__((visibility("default")))
#endif

REPRO_EXPORT int64_t repro_abi_version(void) { return REPRO_ABI; }

/* Same clock as Python's time.monotonic() on POSIX, so absolute
 * deadlines computed in Python compare directly. */
static double mono_now(void) {
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + (double)ts.tv_nsec * 1e-9;
}

static int64_t popcount_words(const uint64_t *words, int64_t nwords) {
    int64_t total = 0;
    for (int64_t w = 0; w < nwords; w++)
        total += __builtin_popcountll(words[w]);
    return total;
}

static int bit_test(const uint64_t *words, int64_t bit) {
    return (int)((words[bit >> 6] >> (bit & 63)) & 1u);
}

/* -- MT19937, byte-compatible with CPython's random.Random ------------- */

typedef struct {
    uint32_t mt[624];
    int mti;
} mt_state;

static void mt_init_genrand(mt_state *s, uint32_t seed) {
    s->mt[0] = seed;
    for (s->mti = 1; s->mti < 624; s->mti++)
        s->mt[s->mti] =
            1812433253u * (s->mt[s->mti - 1] ^ (s->mt[s->mti - 1] >> 30)) +
            (uint32_t)s->mti;
}

/* random.Random(seed) for a non-negative int seed is init_by_array
 * over the seed's 32-bit little-endian limbs. */
static void mt_init_by_array(mt_state *s, const uint32_t *key,
                             size_t key_length) {
    size_t i = 1, j = 0;
    size_t k = 624 > key_length ? 624 : key_length;
    mt_init_genrand(s, 19650218u);
    for (; k; k--) {
        s->mt[i] =
            (s->mt[i] ^ ((s->mt[i - 1] ^ (s->mt[i - 1] >> 30)) * 1664525u)) +
            key[j] + (uint32_t)j;
        i++;
        j++;
        if (i >= 624) {
            s->mt[0] = s->mt[623];
            i = 1;
        }
        if (j >= key_length)
            j = 0;
    }
    for (k = 623; k; k--) {
        s->mt[i] =
            (s->mt[i] ^
             ((s->mt[i - 1] ^ (s->mt[i - 1] >> 30)) * 1566083941u)) -
            (uint32_t)i;
        i++;
        if (i >= 624) {
            s->mt[0] = s->mt[623];
            i = 1;
        }
    }
    s->mt[0] = 0x80000000u;
}

static uint32_t mt_next(mt_state *s) {
    static const uint32_t mag01[2] = {0u, 0x9908b0dfu};
    uint32_t y;
    if (s->mti >= 624) {
        int kk;
        for (kk = 0; kk < 624 - 397; kk++) {
            y = (s->mt[kk] & 0x80000000u) | (s->mt[kk + 1] & 0x7fffffffu);
            s->mt[kk] = s->mt[kk + 397] ^ (y >> 1) ^ mag01[y & 1u];
        }
        for (; kk < 623; kk++) {
            y = (s->mt[kk] & 0x80000000u) | (s->mt[kk + 1] & 0x7fffffffu);
            s->mt[kk] = s->mt[kk + (397 - 624)] ^ (y >> 1) ^ mag01[y & 1u];
        }
        y = (s->mt[623] & 0x80000000u) | (s->mt[0] & 0x7fffffffu);
        s->mt[623] = s->mt[396] ^ (y >> 1) ^ mag01[y & 1u];
        s->mti = 0;
    }
    y = s->mt[s->mti++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680u;
    y ^= (y << 15) & 0xefc60000u;
    y ^= (y >> 18);
    return y;
}

/* getrandbits(k) for 1 <= k <= 32. */
static uint32_t mt_getrandbits(mt_state *s, int k) {
    return mt_next(s) >> (32 - k);
}

/* Random._randbelow: rejection-sample bit_length(n)-wide draws.  The
 * rejected draws advance the stream exactly as CPython's do. */
static int64_t mt_randbelow(mt_state *s, int64_t n) {
    int k = 0;
    int64_t m = n;
    uint32_t r;
    while (m) {
        k++;
        m >>= 1;
    }
    r = mt_getrandbits(s, k);
    while ((int64_t)r >= n)
        r = mt_getrandbits(s, k);
    return (int64_t)r;
}

/* -- AC-3 -------------------------------------------------------------- */

/* Whole-run AC-3 with the reference queue discipline: seed both
 * orientations of every pair in authoring order, dedup scheduled arcs
 * with a pending flag, requeue (neighbor, target) arcs after a prune
 * skipping the revision's source.  Returns 1 when consistent, 0 on a
 * domain wipe-out (masks then hold the partial state, as the bitset
 * engine's early return does).  out = {revisions, removed}. */
REPRO_EXPORT int32_t repro_ac3(
    int64_t vcount, int64_t nwords, const int64_t *dom,
    const int64_t *arc_base, const int64_t *arc_src, const int64_t *arc_dst,
    const int64_t *arc_rev, const int64_t *sup_off, const uint64_t *sup,
    const int64_t *seed_arcs, int64_t seed_count, uint64_t *masks,
    int64_t *out) {
    int64_t acount = vcount ? arc_base[vcount] : 0;
    int64_t qcap = acount + 1;
    int64_t *queue = (int64_t *)malloc((size_t)qcap * sizeof(int64_t));
    uint8_t *in_queue = (uint8_t *)calloc((size_t)(acount ? acount : 1), 1);
    int64_t head = 0, tail = 0;
    int64_t revisions = 0, removed = 0;
    int32_t consistent = 1;
    (void)dom;

    if (!queue || !in_queue) {
        free(queue);
        free(in_queue);
        out[0] = 0;
        out[1] = 0;
        return -1;
    }
    for (int64_t s = 0; s < seed_count; s++) {
        int64_t a = seed_arcs[s];
        if (!in_queue[a]) {
            in_queue[a] = 1;
            queue[tail] = a;
            tail = (tail + 1) % qcap;
        }
    }
    while (head != tail) {
        int64_t a = queue[head];
        head = (head + 1) % qcap;
        in_queue[a] = 0;
        {
            int64_t target = arc_src[a];
            int64_t source = arc_dst[a];
            const uint64_t *smask = masks + source * nwords;
            uint64_t *tmask = masks + target * nwords;
            const uint64_t *block = sup + sup_off[a];
            int pruned = 0;
            revisions++;
            for (int64_t w = 0; w < nwords; w++) {
                uint64_t bits = tmask[w];
                while (bits) {
                    int b = __builtin_ctzll(bits);
                    int64_t value = w * 64 + b;
                    const uint64_t *row = block + value * nwords;
                    uint64_t any = 0;
                    bits &= bits - 1;
                    for (int64_t u = 0; u < nwords; u++)
                        any |= row[u] & smask[u];
                    if (!any) {
                        tmask[w] &= ~(1ull << b);
                        removed++;
                        pruned = 1;
                    }
                }
            }
            if (pruned) {
                uint64_t left = 0;
                for (int64_t w = 0; w < nwords; w++)
                    left |= tmask[w];
                if (!left) {
                    consistent = 0;
                    break;
                }
                for (int64_t b2 = arc_base[target]; b2 < arc_base[target + 1];
                     b2++) {
                    int64_t r;
                    if (arc_dst[b2] == source)
                        continue;
                    r = arc_rev[b2]; /* the (neighbor, target) arc */
                    if (!in_queue[r]) {
                        in_queue[r] = 1;
                        queue[tail] = r;
                        tail = (tail + 1) % qcap;
                    }
                }
            }
        }
    }
    free(queue);
    free(in_queue);
    out[0] = revisions;
    out[1] = removed;
    return consistent;
}

/* -- forward checking -------------------------------------------------- */

typedef struct {
    int64_t vcount;
    int64_t nwords;
    const int64_t *dom;
    const int64_t *degrees;
    const int64_t *rank;
    const int64_t *arc_base;
    const int64_t *arc_dst;
    const int64_t *sup_off;
    const uint64_t *sup;
    uint64_t *masks;
    int64_t *values;
    int64_t max_nodes; /* < 0: unbounded */
    double deadline;   /* < 0: none */
    int64_t nodes, backtracks, checks;
    int cutoff;
    /* undo stack: (neighbor, previous mask words) entries */
    int64_t *undo_nb;
    uint64_t *undo_words;
    int64_t undo_top;
    /* per-depth snapshot of the branching variable's remaining values */
    uint64_t *rem;
} fc_ctx;

static void fc_rollback(fc_ctx *c, int64_t mark) {
    int64_t nw = c->nwords;
    while (c->undo_top > mark) {
        int64_t nb;
        c->undo_top--;
        nb = c->undo_nb[c->undo_top];
        memcpy(c->masks + nb * nw, c->undo_words + c->undo_top * nw,
               (size_t)nw * sizeof(uint64_t));
    }
}

static int fc_search(fc_ctx *c, int64_t assigned) {
    int64_t nw = c->nwords;
    int64_t variable = -1, best_pop = 0, best_deg = 0, best_rank = 0;
    uint64_t *rem;
    if (assigned == c->vcount)
        return 1;
    /* MRV: min (popcount, -degree, rank), first strict minimum wins
     * (the rank digit is unique, so ties cannot occur). */
    for (int64_t v = 0; v < c->vcount; v++) {
        int64_t p, d, r;
        if (c->values[v] >= 0)
            continue;
        p = popcount_words(c->masks + v * nw, nw);
        d = c->degrees[v];
        r = c->rank[v];
        if (variable < 0 || p < best_pop ||
            (p == best_pop &&
             (d > best_deg || (d == best_deg && r < best_rank)))) {
            variable = v;
            best_pop = p;
            best_deg = d;
            best_rank = r;
        }
    }
    rem = c->rem + assigned * nw;
    memcpy(rem, c->masks + variable * nw, (size_t)nw * sizeof(uint64_t));
    for (int64_t w = 0; w < nw; w++) {
        uint64_t bits = rem[w];
        while (bits) {
            int b = __builtin_ctzll(bits);
            int64_t value = w * 64 + b;
            int64_t mark;
            int ok = 1;
            bits &= bits - 1;
            c->nodes++;
            if (c->max_nodes >= 0 && c->nodes > c->max_nodes) {
                c->cutoff = 1;
                return 0;
            }
            if (c->deadline >= 0 && (c->nodes & 255) == 0 &&
                mono_now() >= c->deadline) {
                c->cutoff = 1;
                return 0;
            }
            /* forward prune: neighbors in ascending (arc) order */
            mark = c->undo_top;
            for (int64_t a = c->arc_base[variable];
                 a < c->arc_base[variable + 1]; a++) {
                int64_t nb = c->arc_dst[a];
                const uint64_t *row = c->sup + c->sup_off[a] + value * nw;
                if (c->values[nb] >= 0) {
                    c->checks += 1;
                    if (!bit_test(row, c->values[nb])) {
                        ok = 0;
                        break;
                    }
                    continue;
                }
                {
                    uint64_t *nmask = c->masks + nb * nw;
                    uint64_t any = 0;
                    int changed = 0;
                    c->checks += popcount_words(nmask, nw);
                    for (int64_t u = 0; u < nw; u++) {
                        uint64_t after = nmask[u] & row[u];
                        if (after != nmask[u])
                            changed = 1;
                        any |= after;
                    }
                    if (changed) {
                        memcpy(c->undo_words + c->undo_top * nw, nmask,
                               (size_t)nw * sizeof(uint64_t));
                        c->undo_nb[c->undo_top] = nb;
                        c->undo_top++;
                        for (int64_t u = 0; u < nw; u++)
                            nmask[u] &= row[u];
                        if (!any) {
                            ok = 0;
                            break;
                        }
                    }
                }
            }
            if (!ok) {
                fc_rollback(c, mark);
                continue;
            }
            c->values[variable] = value;
            if (fc_search(c, assigned + 1))
                return 1;
            if (c->cutoff)
                return 0; /* unwind dirty, like the Python exception */
            c->values[variable] = -1;
            fc_rollback(c, mark);
        }
    }
    c->backtracks++;
    return 0;
}

/* Whole forward-checking search from a (values, masks) snapshot.
 * Returns 1 solution-found (values filled in), 0 exhausted, 2 cutoff
 * (node budget or deadline).  out = {nodes, backtracks, checks}. */
REPRO_EXPORT int32_t repro_fc_search(
    int64_t vcount, int64_t nwords, const int64_t *dom,
    const int64_t *degrees, const int64_t *rank, const int64_t *arc_base,
    const int64_t *arc_dst, const int64_t *sup_off, const uint64_t *sup,
    uint64_t *masks, int64_t *values, int64_t assigned, int64_t max_nodes,
    double deadline, int64_t *out) {
    fc_ctx c;
    int64_t max_degree = 0;
    int64_t undo_cap;
    int found;
    (void)dom;
    for (int64_t v = 0; v < vcount; v++)
        if (degrees[v] > max_degree)
            max_degree = degrees[v];
    undo_cap = vcount * max_degree + 1;
    memset(&c, 0, sizeof(c));
    c.vcount = vcount;
    c.nwords = nwords;
    c.dom = dom;
    c.degrees = degrees;
    c.rank = rank;
    c.arc_base = arc_base;
    c.arc_dst = arc_dst;
    c.sup_off = sup_off;
    c.sup = sup;
    c.masks = masks;
    c.values = values;
    c.max_nodes = max_nodes;
    c.deadline = deadline;
    c.undo_nb = (int64_t *)malloc((size_t)undo_cap * sizeof(int64_t));
    c.undo_words =
        (uint64_t *)malloc((size_t)(undo_cap * nwords) * sizeof(uint64_t));
    c.rem =
        (uint64_t *)malloc((size_t)((vcount + 1) * nwords) * sizeof(uint64_t));
    if (!c.undo_nb || !c.undo_words || !c.rem) {
        free(c.undo_nb);
        free(c.undo_words);
        free(c.rem);
        out[0] = out[1] = out[2] = 0;
        return -1;
    }
    found = fc_search(&c, assigned);
    free(c.undo_nb);
    free(c.undo_words);
    free(c.rem);
    out[0] = c.nodes;
    out[1] = c.backtracks;
    out[2] = c.checks;
    if (c.cutoff)
        return 2;
    return found ? 1 : 0;
}

/* -- min-conflicts ----------------------------------------------------- */

typedef struct {
    int64_t vcount;
    int64_t nwords;
    const int64_t *dom;
    const int64_t *arc_base;
    const int64_t *arc_dst;
    const int64_t *sup_off;
    const uint64_t *sup;
    int64_t *values;
    int64_t checks;
} mc_ctx;

static int64_t mc_conflict_count(mc_ctx *c, int64_t variable, int64_t value) {
    int64_t count = 0;
    for (int64_t a = c->arc_base[variable]; a < c->arc_base[variable + 1];
         a++) {
        int64_t nb = c->arc_dst[a];
        const uint64_t *row = c->sup + c->sup_off[a] + value * c->nwords;
        c->checks++;
        if (!bit_test(row, c->values[nb]))
            count++;
    }
    return count;
}

/* One _improve pass: 1 solution, 0 steps exhausted, -1 deadline. */
static int mc_improve(mc_ctx *c, mt_state *rng, int64_t max_steps,
                      double deadline, int64_t *conflicted, int64_t *scores,
                      int64_t *cands, int64_t *nodes) {
    for (int64_t step = 0; step < max_steps; step++) {
        int64_t nconf = 0, variable, d, best, ncand;
        if (deadline >= 0 && mono_now() >= deadline)
            return -1;
        for (int64_t v = 0; v < c->vcount; v++)
            if (mc_conflict_count(c, v, c->values[v]))
                conflicted[nconf++] = v;
        if (!nconf)
            return 1;
        variable = conflicted[mt_randbelow(rng, nconf)];
        d = c->dom[variable];
        best = INT64_MAX;
        for (int64_t value = 0; value < d; value++) {
            scores[value] = mc_conflict_count(c, variable, value);
            if (scores[value] < best)
                best = scores[value];
        }
        ncand = 0;
        for (int64_t value = 0; value < d; value++)
            if (scores[value] == best)
                cands[ncand++] = value;
        c->values[variable] = cands[mt_randbelow(rng, ncand)];
        (*nodes)++;
    }
    return 0;
}

/* The full min-conflicts walk of MinConflictsSolver._solve_resolved:
 * restart loop, random total assignments, improve steps -- with the
 * identical RNG stream and counter accounting.  Returns 1 solved
 * (values holds the assignment), 0 gave up.  out = {nodes, checks,
 * restarts}. */
REPRO_EXPORT int32_t repro_mc_solve(
    int64_t vcount, int64_t nwords, const int64_t *dom,
    const int64_t *arc_base, const int64_t *arc_dst, const int64_t *sup_off,
    const uint64_t *sup, const uint32_t *seed_key, int64_t key_len,
    int64_t max_steps, int64_t max_restarts, double deadline, int64_t *values,
    int64_t *out) {
    mc_ctx c;
    mt_state rng;
    int64_t max_domain = 0;
    int64_t *conflicted, *scores, *cands;
    int64_t nodes = 0, restarts = 0;
    int solved = 0;

    memset(&c, 0, sizeof(c));
    c.vcount = vcount;
    c.nwords = nwords;
    c.dom = dom;
    c.arc_base = arc_base;
    c.arc_dst = arc_dst;
    c.sup_off = sup_off;
    c.sup = sup;
    c.values = values;
    for (int64_t v = 0; v < vcount; v++)
        if (dom[v] > max_domain)
            max_domain = dom[v];
    conflicted = (int64_t *)malloc((size_t)(vcount + 1) * sizeof(int64_t));
    scores = (int64_t *)malloc((size_t)(max_domain + 1) * sizeof(int64_t));
    cands = (int64_t *)malloc((size_t)(max_domain + 1) * sizeof(int64_t));
    if (!conflicted || !scores || !cands) {
        free(conflicted);
        free(scores);
        free(cands);
        out[0] = out[1] = out[2] = 0;
        return -1;
    }
    mt_init_by_array(&rng, seed_key, (size_t)key_len);
    for (int64_t r = 0; r < max_restarts; r++) {
        int outcome;
        if (deadline >= 0 && mono_now() >= deadline)
            break;
        for (int64_t v = 0; v < vcount; v++)
            values[v] = mt_randbelow(&rng, dom[v]);
        outcome = mc_improve(&c, &rng, max_steps, deadline, conflicted,
                             scores, cands, &nodes);
        if (outcome == 1) {
            solved = 1;
            break;
        }
        /* an aborted walk is not an exhausted restart */
        if (outcome == -1 ||
            (deadline >= 0 && mono_now() >= deadline))
            break;
        restarts++;
    }
    free(conflicted);
    free(scores);
    free(cands);
    out[0] = nodes;
    out[1] = c.checks;
    out[2] = restarts;
    return solved;
}

/* -- enhanced-scheme ordering helpers ---------------------------------- */

/* Most-constraining variable: the adjacency matvec as a CSR walk.
 * key = (vcount - future_degree) * scale + static_key, first minimum
 * over unassigned variables -- exactly MaskedLexArgmin's encoding. */
REPRO_EXPORT int64_t repro_mcv_select(
    int64_t vcount, const int64_t *arc_base, const int64_t *arc_dst,
    const int64_t *unassigned, const int64_t *static_key, int64_t scale) {
    int64_t best = -1, best_k = 0;
    for (int64_t v = 0; v < vcount; v++) {
        int64_t fd = 0, key;
        if (!unassigned[v])
            continue;
        for (int64_t a = arc_base[v]; a < arc_base[v + 1]; a++)
            fd += unassigned[arc_dst[a]];
        key = (vcount - fd) * scale + static_key[v];
        if (best < 0 || key < best_k) {
            best = v;
            best_k = key;
        }
    }
    return best;
}

/* Least-constraining value: sum static support popcounts over live
 * neighbors, order values by descending total with index-ascending
 * ties (a stable sort of -totals).  Returns the checks
 * charge: dom[variable] * sum of live neighbors' domain sizes. */
REPRO_EXPORT int64_t repro_lcv_order(
    int64_t variable, int64_t max_domain, const int64_t *dom,
    const int64_t *arc_base, const int64_t *arc_dst, const int64_t *lcv,
    const int64_t *unassigned, int64_t *order_out) {
    int64_t d = dom[variable];
    int64_t live_dom_sum = 0;
    int64_t *totals = (int64_t *)malloc((size_t)(d + 1) * sizeof(int64_t));
    if (!totals)
        return -1;
    memset(totals, 0, (size_t)d * sizeof(int64_t));
    for (int64_t a = arc_base[variable]; a < arc_base[variable + 1]; a++) {
        const int64_t *row;
        if (!unassigned[arc_dst[a]])
            continue;
        live_dom_sum += dom[arc_dst[a]];
        row = lcv + a * max_domain;
        for (int64_t value = 0; value < d; value++)
            totals[value] += row[value];
    }
    /* stable insertion sort on (-total, index) */
    for (int64_t i = 0; i < d; i++) {
        int64_t j = i;
        while (j > 0 && totals[order_out[j - 1]] < totals[i])
            j--;
        memmove(order_out + j + 1, order_out + j,
                (size_t)(i - j) * sizeof(int64_t));
        order_out[j] = i;
    }
    free(totals);
    return d * live_dom_sum;
}
