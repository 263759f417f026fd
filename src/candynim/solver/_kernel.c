/* Native value engine for candynim.solver.

   The recursion and tie-break are those of candynim.solver._python.  As
   there, the table stores values only, and line() finds each principal ply
   again by scanning the plies of the position it stands on.  It takes two
   shortcuts that the plain engine leaves out on purpose, so that it stays
   an independent check of this one:

   - Equal pile pairs are dropped before a position is probed or searched.
     A pair never changes the value, since the winner can mirror the loser
     inside it, and the nim-sum stays the same.  A stripped position has
     distinct piles, so a child of one only needs to cancel its new pile
     against an equal old one.
   - The value search is a branch-and-bound search.  A nonempty zero nim-sum
     position of total t is worth at most t - 2, since the winner takes its
     last candy; so a loser's ply is bounded, with no probe, through the
     winner's replies to it, and skipped when the bound cannot beat the best
     ply found.  A skipped ply widens to the largest aligned block of new
     sizes below it whose bound, from the smallest reply on each pile over
     the block, cannot beat that best either, and the block is skipped
     whole; as nothing changes the best while plies are skipped, these are
     the plies a one-at-a-time scan would skip.  The winner's fold over
     replies stops once the loser's ply cannot beat that best either.  Only
     exact values reach the table.
   - The winner's replies are scored straight from the loser-to-move
     position: each reply position is built from it in one merge, with the
     loser's ply and the reply both applied, and the position between is
     never built.
   - 3 piles, the paper's width and most of what a cold search probes, are
     scored inside search itself, which changes what a ply costs, never
     which plies are searched.  A loser's ply there has exactly one winner
     reply, on whichever other pile holds the leading bit of the child's
     nim-sum; its position is a sort of the triple (the loser's new size,
     the reply's target, the untouched pile) in place of the merge, and its
     slot is probed inline, so search recurses only on a miss.  The triple
     is exact because its nim-sum is zero: if it holds a zero, the other two
     are equal and the pair leaves the empty game, worth 0; otherwise its
     piles are distinct and positive, already stripped.  pack shifts by
     constants there, and block_bound reads the two other piles with no
     loop.  Other widths keep the general code.
   - line() and best_plies() scan a position's plies through one loop,
     score_plies.  They know the value of each loser-to-move position they
     score plies at, so a ply is scored only up to the point that it cannot
     reach that value: the winner's fold stops on the first reply that
     proves it short.  Plies are scanned by pile index, then new size, so
     the first ply of the best score is the tie-break's pick, and line()
     stops at it; keep_first says why.

   The table is one flat array per engine: 16-byte slots, linear probing
   over a power-of-two size, and a multiplicative (Fibonacci) hash that
   keeps the top bits of one product.  It starts at MIN_SLOTS slots,
   doubles at load 1/2, and never grows past the size that holds memo_cap
   entries at that load.  A position of n piles is keyed by its own width:
   each pile gets 62 / n bits, highest pile first, so a tail solved under
   one root is found again under another.  Slots keep n beside the key,
   since keys of different widths can coincide.  Only loser-to-move (zero
   nim-sum) positions are stored.

   The search recurses on the C stack under a budget of MAX_TURNS nested
   searches per value_of call; a table miss past it raises BudgetError.  A
   stripped P position d searches deep holds at least 6 candies ([3, 2, 1])
   and, as each loser ply and winner reply takes one or more, at most
   T - 2(d - 1) of the root's T: a root of at most 10,000 candies searches
   at most 4,998 deep.  Only exact values are stored, so the table outlives
   a budget error.

   Only this file knows which games the kernel takes: every method reads
   its piles through load, which raises EngineError for a game the kernel
   does not take before any search, and the solver's auto engine then runs
   the game on Python. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

#define MAX_N 31
#define KEY_BITS 62
#define MIN_SLOTS 1024
#define MAX_TURNS 5000 /* search depth budget of one value_of call */
#define FAIL INT64_MIN /* a search that set a Python error */
#define WIDTH_TAG 59   /* find xors a width, below 2^5, into a key's top five bits */

/* setup.py passes the sha256 of this file, so a stale build can be told
   from a fresh one; a build by any other route leaves it empty. */
#ifndef KERNEL_SOURCE_SHA256
#define KERNEL_SOURCE_SHA256 ""
#endif

/* KEY_BITS / n, the field width of a pile in an n-pile key, so that no
   probe divides; the empty game gets all of KEY_BITS. */
static const int FIELD_BITS[MAX_N + 1] = {
    KEY_BITS, KEY_BITS / 1, KEY_BITS / 2, KEY_BITS / 3, KEY_BITS / 4, KEY_BITS / 5,
    KEY_BITS / 6, KEY_BITS / 7, KEY_BITS / 8, KEY_BITS / 9, KEY_BITS / 10, KEY_BITS / 11,
    KEY_BITS / 12, KEY_BITS / 13, KEY_BITS / 14, KEY_BITS / 15, KEY_BITS / 16, KEY_BITS / 17,
    KEY_BITS / 18, KEY_BITS / 19, KEY_BITS / 20, KEY_BITS / 21, KEY_BITS / 22, KEY_BITS / 23,
    KEY_BITS / 24, KEY_BITS / 25, KEY_BITS / 26, KEY_BITS / 27, KEY_BITS / 28, KEY_BITS / 29,
    KEY_BITS / 30, KEY_BITS / 31
};

static PyObject *BudgetError, *EngineError, *InvariantError, *MemoBudgetError;

typedef struct {
    uint64_t key;
    int32_t value;
    int32_t width; /* pile count of the position; 0 marks an empty slot */
} Slot;

typedef struct {
    PyObject_HEAD
    Slot *slots;
    uint64_t mask;      /* slot count - 1 */
    int shift;          /* 64 - log2(slot count): find keeps the bits above it */
    uint64_t max_slots; /* slot count that holds memo_cap entries at load 1/2 */
    uint64_t size;
    uint64_t memo_cap;
    uint64_t entries[MAX_N + 1], hits[MAX_N + 1], misses[MAX_N + 1];
} Engine;

/* arr minus piles i and j, with x and y inserted, kept descending.  i and j
   may coincide, and -1 names no pile; x > y, and a zero is not inserted.
   With cancel set, an inserted size and an equal pile drop out as a pair. */
static int merge(const int64_t *arr, int n, int i, int j, int64_t x, int64_t y, int cancel,
                 int64_t *out)
{
    int m = 0;
    for (int k = 0; k < n; k++) {
        if (k == i || k == j)
            continue;
        int64_t a = arr[k];
        int drop = 0;
        while (x >= a) { /* piles are positive, so a zero x never passes */
            drop = cancel && x == a;
            if (!drop)
                out[m++] = x;
            x = y;
            y = 0;
        }
        if (!drop)
            out[m++] = a;
    }
    if (x)
        out[m++] = x;
    if (y)
        out[m++] = y;
    return m;
}

/* The child of arr after pile i drops to ns, pairs and all. */
static int make_child(const int64_t *arr, int n, int i, int64_t ns, int64_t *out)
{
    return merge(arr, n, i, i, ns, 0, 0, out);
}

/* Drop every equal pair from a descending position, in place. */
static int strip_pairs(int64_t *arr, int n)
{
    int m = 0;
    for (int j = 0; j < n; j++) {
        if (m && arr[m - 1] == arr[j])
            m--;
        else
            arr[m++] = arr[j];
    }
    return m;
}

static int64_t nim_sum(const int64_t *arr, int n)
{
    int64_t g = 0;
    for (int j = 0; j < n; j++)
        g ^= arr[j];
    return g;
}

/* arr packed into n fields of 62 / n bits.  Packed keys of one width order
   like canonical tuples.  A 3-pile key, the paper's width and about half of
   a cold table, is packed with constant shifts into the same 20-bit
   fields. */
static uint64_t pack(const int64_t *arr, int n)
{
    if (n == 3)
        return (uint64_t)arr[0] << 2 * (KEY_BITS / 3) | (uint64_t)arr[1] << KEY_BITS / 3 |
               (uint64_t)arr[2];
    int bits = FIELD_BITS[n];
    uint64_t key = 0;
    for (int j = 0; j < n; j++)
        key = key << bits | (uint64_t)arr[j];
    return key;
}

/* The slot holding (key, width), or the empty slot where it would go.  The
   hash is multiplicative (Fibonacci) hashing: the top log2(slots) bits of
   the tagged key times 2^64 over the golden ratio, one multiply. */
static Slot *find(Engine *e, uint64_t key, int width)
{
    uint64_t i = (key ^ (uint64_t)width << WIDTH_TAG) * 0x9e3779b97f4a7c15ULL >> e->shift;
    Slot *s = e->slots + i;
    while (s->width && (s->key != key || s->width != width)) {
        i = (i + 1) & e->mask;
        s = e->slots + i;
    }
    return s;
}

static int grow(Engine *e)
{
    uint64_t old_count = e->mask + 1;
    Slot *old = e->slots;
    Slot *fresh = PyMem_Calloc(2 * old_count, sizeof(Slot));
    if (fresh == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    e->slots = fresh;
    e->mask = 2 * old_count - 1;
    e->shift--;
    for (uint64_t i = 0; i < old_count; i++)
        if (old[i].width)
            *find(e, old[i].key, old[i].width) = old[i];
    PyMem_Free(old);
    return 0;
}

static int64_t n_value(Engine *e, const int64_t *arr, int n, int i, int64_t ns, int64_t g,
                       int64_t floor, int turns);

/* The least reply on a pile of a candies over an aligned block of the
   loser's plies, as block_bound below sets out. */
static int64_t least_reply(int64_t a, int64_t g, int64_t low)
{
    return (a & ~low) - ((a ^ g) & ~low) - (~a & low);
}

/* An upper bound, with no probe, on the score of every loser's ply that
   drops pile i to a size in one aligned block at a stripped loser-to-move
   position of total tot.  The block holds the 2^k sizes that agree with
   g ^ arr[i] above the low k bits, low being 2^k - 1, so the nim-sum g' of
   each child agrees with g above them.  A winner reply on pile j takes
   reply_j = a - (g' ^ a) of its a candies and leaves rest = tot - take -
   reply_j, a zero nim-sum position that is never empty: a stripped P
   position has at least three distinct piles, and the ply and the reply
   change only two of them.  So rest is worth at most rest - 2, and the ply
   scores at most take + rest - 2 - reply_j = tot - 2 - 2 * reply_j for
   every reply.  Over the block, reply_j is at least
   (a & ~low) - ((a ^ g) & ~low) - (~a & low): the bits of g' above low
   fixed, its low bits the complement of a's.  The bound takes the largest
   of these.  The new pile has no reply, its restoring size being arr[i],
   so the replies are on the other piles; the child's nim-sum is nonzero,
   so one of them has one.  With low 0 the block is one ply, and the bound
   is that ply's.  At 3 piles the two other piles are read directly, with
   no loop. */
static int64_t block_bound(const int64_t *arr, int n, int64_t tot, int i, int64_t g,
                           int64_t low)
{
    int64_t most = 0;
    if (n == 3) {
        int64_t r = least_reply(arr[i == 0], g, low);
        int64_t s = least_reply(arr[2 - (i == 2)], g, low);
        most = r > most ? r : most;
        most = s > most ? s : most;
    } else {
        for (int j = 0; j < n; j++) {
            int64_t reply = least_reply(arr[j], g, low);
            if (j != i && reply > most)
                most = reply;
        }
    }
    return tot - 2 - 2 * most;
}

/* The stripped reply position (x, y, z) of a 3-pile loser-to-move
   position, descending in out: x the loser's new size, y the winner's
   target and z the pile neither touched.  Their nim-sum is zero, so if one
   of x and y is zero the other equals z, and the pair leaves the empty
   game; otherwise no two are equal, as that would make the third zero, and
   the triple is three distinct positive piles. */
static int triple(int64_t x, int64_t y, int64_t z, int64_t *out)
{
    if (!x || !y)
        return 0;
    int64_t hi = x > y ? x : y, lo = x > y ? y : x;
    out[0] = hi > z ? hi : z;
    out[1] = hi < z ? hi : lo > z ? lo : z;
    out[2] = lo < z ? lo : z;
    return 3;
}

/* Value of a stripped loser-to-move position (nonempty, zero nim-sum),
   with turns nested searches left. */
static int64_t search(Engine *e, const int64_t *arr, int n, int turns)
{
    uint64_t key = pack(arr, n);
    Slot *s = find(e, key, n);
    if (s->width) {
        e->hits[n]++;
        return s->value;
    }
    e->misses[n]++;
    if (turns == 0) {
        PyErr_SetString(BudgetError, "search passed the kernel's depth budget of "
                        Py_STRINGIFY(MAX_TURNS) " turns; use --engine python");
        return FAIL;
    }

    /* Every child is nonempty with nim-sum p ^ ns, since a stripped P
       position has at least three distinct piles.  Small grabs come first,
       so a high best is found early; a ply whose bound cannot beat it is
       skipped, and a child's fold stops once it cannot either.  best stays
       exact: only a child scored above it replaces it.  Nothing changes
       best while plies are skipped, so a skipped ply ns widens to the
       largest aligned block [hi - size, hi), hi = ns + 1, whose bound cannot
       beat best either, and the block is skipped whole: the same plies as
       one at a time, with fewer bounds.  At 3 piles the child has one
       winner reply, on the other pile j that holds the leading bit of the
       child's nim-sum (pile i does not: its restoring size is p > ns); the
       reply position is the sorted triple, probed here, and searched only
       on a miss. */
    int64_t best = FAIL, tot = 0;
    for (int j = 0; j < n; j++)
        tot += arr[j];
    for (int i = 0; i < n; i++) {
        int64_t p = arr[i];
        for (int64_t ns = p - 1; ns >= 0; ns--) {
            if (best != FAIL && block_bound(arr, n, tot, i, p ^ ns, 0) <= best) {
                uint64_t hi = (uint64_t)ns + 1, size = 1;
                while (!(hi & (2 * size - 1)) &&
                       block_bound(arr, n, tot, i, p ^ ns, (int64_t)(2 * size - 1)) <= best)
                    size *= 2;
                ns = (int64_t)(hi - size);
                continue;
            }
            int64_t v = 0;
            if (n == 3) {
                int64_t g = p ^ ns, reply[3];
                int j = i == 0, k = 2 - (i == 2); /* the other two piles */
                if ((arr[j] ^ g) > arr[j]) {
                    j = k;
                    k = i == 0;
                }
                int64_t target = arr[j] ^ g;
                if (triple(ns, target, arr[k], reply)) {
                    Slot *t = find(e, pack(reply, 3), 3);
                    if (t->width) {
                        e->hits[3]++;
                        v = t->value;
                    } else if ((v = search(e, reply, 3, turns - 1)) == FAIL) {
                        return FAIL;
                    }
                }
                v -= arr[j] - target;
            } else {
                v = n_value(e, arr, n, i, ns, p ^ ns, best == FAIL ? FAIL : best - (p - ns),
                            turns - 1);
                if (v == FAIL)
                    return FAIL;
            }
            v += p - ns;
            if (v > best)
                best = v;
        }
    }
    if (e->size >= e->memo_cap) {
        PyErr_Format(MemoBudgetError,
                     "transposition table reached its cap of %llu entries; "
                     "raise memo_cap to solve this position",
                     (unsigned long long)e->memo_cap);
        return FAIL;
    }
    if (2 * (e->size + 1) > e->mask + 1 && e->mask + 1 < e->max_slots && grow(e) < 0)
        return FAIL;
    s = find(e, key, n);
    s->key = key;
    s->width = n;
    s->value = (int32_t)best;
    e->size++;
    e->entries[n]++;
    return best;
}

/* Value of the winner-to-move position that the loser's ply dropping pile
   i to ns leaves at the stripped position arr, or of arr itself when i is
   -1 (and ns 0); g is that position's nonzero nim-sum.  search scores a
   3-pile loser's ply itself, so i is -1 at 3 piles.  Each reply position
   is built from arr in one merge, so the position between is never built:
   the reply on pile j leaves arr less arr[i] and arr[j], plus ns and the
   target, with zeros and equal pairs dropped.  Pile i has no reply, as its
   restoring size is arr[i]; nor has a pile equal to ns, as it would
   restore the same.  The fold over the replies stops once one scores at
   most floor and returns that score, an upper bound on the value; a floor
   of FAIL asks for the exact value.  turns is the budget of the searches
   below. */
static int64_t n_value(Engine *e, const int64_t *arr, int n, int i, int64_t ns, int64_t g,
                       int64_t floor, int turns)
{
    int64_t buf[MAX_N];
    int64_t best = INT64_MAX;
    for (int j = 0; j < n; j++) {
        int64_t target = g ^ arr[j];
        if (j == i || target >= arr[j])
            continue;
        int m = ns > target ? merge(arr, n, i, j, ns, target, 1, buf)
                            : merge(arr, n, i, j, target, ns, 1, buf);
        int64_t v = m ? search(e, buf, m, turns) : 0;
        if (v == FAIL)
            return FAIL;
        v -= arr[j] - target;
        if (v < best)
            best = v;
        if (best <= floor)
            break;
    }
    if (best == INT64_MAX) {
        PyErr_SetString(InvariantError, "no winning ply in an N position");
        return FAIL;
    }
    return best;
}

/* Value of any canonical position, pairs and all.  A winner-to-move
   position's fold stops at floor, as in n_value; FAIL asks for the exact
   value. */
static int64_t value_of(Engine *e, const int64_t *arr, int n, int64_t floor)
{
    int64_t buf[MAX_N];
    memcpy(buf, arr, n * sizeof(int64_t));
    n = strip_pairs(buf, n);
    if (n == 0)
        return 0;
    int64_t g = nim_sum(buf, n);
    return g ? n_value(e, buf, n, -1, 0, g, floor, MAX_TURNS) : search(e, buf, n, MAX_TURNS);
}

/* Read a canonical pile sequence that packs at its own width; return its
   pile count, or -1 with an error set. */
static int load(PyObject *piles, int64_t *arr)
{
    PyObject *seq = PySequence_Fast(piles, "piles must be a sequence");
    if (seq == NULL)
        return -1;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
    if (n > MAX_N) {
        PyErr_Format(EngineError, "kernel takes at most %d piles, got %zd", MAX_N, n);
        Py_DECREF(seq);
        return -1;
    }
    int bits = FIELD_BITS[n];
    int64_t total = 0;
    for (Py_ssize_t j = 0; j < n; j++) {
        PyObject *item = PySequence_Fast_GET_ITEM(seq, j);
        int overflow;
        long long p = PyLong_AsLongLongAndOverflow(item, &overflow);
        if (p == -1 && PyErr_Occurred()) {
            Py_DECREF(seq);
            return -1;
        }
        if (overflow > 0 || (!overflow && p >= (1LL << bits))) {
            PyErr_Format(EngineError,
                         "pile %S does not fit %d bits; "
                         "widen the key or use the python engine",
                         item, bits);
            Py_DECREF(seq);
            return -1;
        }
        if (overflow < 0 || p < 1 || (j && p > arr[j - 1])) {
            PyErr_SetString(EngineError, "piles must be canonical (descending)");
            Py_DECREF(seq);
            return -1;
        }
        arr[j] = p;
        total += p;
    }
    Py_DECREF(seq);
    if (total > INT32_MAX) {
        PyErr_Format(EngineError, "total %lld exceeds the kernel's 32-bit values",
                     (long long)total);
        return -1;
    }
    return (int)n;
}

/* memo_cap is any positive Python int.  A cap past INT64_MAX is stored as
   INT64_MAX, which the table never reaches: it stops growing at 2^62
   slots. */
static int Engine_init(Engine *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"memo_cap", NULL};
    PyObject *arg;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O", kwlist, &arg))
        return -1;
    PyObject *cap = PyNumber_Index(arg);
    if (cap == NULL)
        return -1;
    int overflow; /* cap is an int, so the call cannot fail */
    long long memo_cap = PyLong_AsLongLongAndOverflow(cap, &overflow);
    if (overflow)
        memo_cap = overflow > 0 ? INT64_MAX : 0;
    if (memo_cap < 1)
        PyErr_Format(PyExc_ValueError, "table cap must be positive, got %S", cap);
    Py_DECREF(cap);
    if (memo_cap < 1)
        return -1;
    if (self->slots != NULL) {
        PyErr_SetString(PyExc_RuntimeError, "NativeEngine is already initialized");
        return -1;
    }
    uint64_t max_slots = 2;
    while (max_slots / 2 < (uint64_t)memo_cap && max_slots < (1ULL << 62))
        max_slots <<= 1;
    uint64_t count = max_slots < MIN_SLOTS ? max_slots : MIN_SLOTS;
    self->slots = PyMem_Calloc(count, sizeof(Slot));
    if (self->slots == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    self->mask = count - 1;
    self->shift = 64;
    for (uint64_t c = count; c > 1; c >>= 1)
        self->shift--;
    self->max_slots = max_slots;
    self->memo_cap = (uint64_t)memo_cap;
    return 0;
}

static void Engine_dealloc(Engine *self)
{
    PyMem_Free(self->slots);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static Engine *ready(PyObject *self)
{
    Engine *e = (Engine *)self;
    if (e->slots == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "NativeEngine was never initialized");
        return NULL;
    }
    return e;
}

static PyObject *Engine_solve_value(PyObject *self, PyObject *piles)
{
    Engine *e = ready(self);
    int64_t arr[MAX_N];
    int n = e ? load(piles, arr) : -1;
    if (n < 0)
        return NULL;
    int64_t v = value_of(e, arr, n, FAIL);
    return v == FAIL ? NULL : PyLong_FromLongLong(v);
}

/* The new sizes [*lo, *hi) pile p may drop to at a position of nim-sum g:
   every size for the loser (g == 0), for the winner only the one that
   restores a zero nim-sum, if it is a reduction. */
static void sizes(int64_t g, int64_t p, int64_t *lo, int64_t *hi)
{
    *lo = g ? g ^ p : 0;
    *hi = !g ? p : *lo < p ? *lo + 1 : *lo;
}

/* The one scoring loop: keep(acc, i, ns, score) sees every candidate ply
   of arr, in the order of _python._plies: pile index, then new size,
   ascending.  A ply scores the candies it takes plus the child's value when
   the loser moves, minus it when the winner moves.  At a loser-to-move
   position of known value target, each child's fold gets the floor
   target - take - 1, so a ply that cannot reach the value gets a score
   below it, not its exact one; a target of FAIL scores every ply exactly.
   keep returns 1 to stop the scan, or -1, with a Python error set, to fail
   it; score_plies returns the same. */
static int score_plies(Engine *e, const int64_t *arr, int n, int64_t target,
                       int (*keep)(void *acc, int i, int64_t ns, int64_t score), void *acc)
{
    int64_t buf[MAX_N];
    int64_t g = nim_sum(arr, n), lo, hi;
    for (int i = 0; i < n; i++) {
        int64_t p = arr[i];
        sizes(g, p, &lo, &hi);
        for (int64_t ns = lo; ns < hi; ns++) {
            int m = make_child(arr, n, i, ns, buf);
            int64_t v = value_of(e, buf, m, target == FAIL ? FAIL : target - (p - ns) - 1);
            if (v == FAIL)
                return -1;
            int stop = keep(acc, i, ns, p - ns + (g ? -v : v));
            if (stop)
                return stop;
        }
    }
    return 0;
}

typedef struct {
    int64_t target; /* the loser's known value; FAIL when the winner moves */
    int64_t score;  /* the pick's score; FAIL until a ply is picked */
    int pile;
    int64_t size;
} First;

/* Keep the tie-break-optimal ply of a nonempty position: the best score,
   then the smallest child as a canonical tuple, then the smallest pile
   index, then the smallest new size.  Plies come by pile index, then new
   size, ascending.  Over the first pile of each run of equal piles that
   order increases in the child: a larger pile's ply changes an earlier
   field of the descending tuple to something smaller, and a larger new
   size on one pile gives a larger child.  A ply on any later pile of a run
   leaves the same child, and takes as much, as the same ply on the run's
   first pile, scanned before it.  So the first ply of the best score is the
   pick: the winner keeps the first strict maximum, and the loser, whose
   score is its value, known from the table, stops the scan at the first
   ply that reaches it. */
static int keep_first(void *acc, int i, int64_t ns, int64_t score)
{
    First *f = acc;
    if (f->target == FAIL ? score <= f->score : score != f->target)
        return 0;
    f->score = score;
    f->pile = i;
    f->size = ns;
    return f->target != FAIL;
}

static PyObject *Engine_line(PyObject *self, PyObject *piles)
{
    Engine *e = ready(self);
    int64_t arr[MAX_N], buf[MAX_N];
    int n = e ? load(piles, arr) : -1;
    if (n < 0)
        return NULL;
    PyObject *plies = PyList_New(0);
    if (plies == NULL)
        return NULL;
    int64_t root = 0;
    for (int step = 0; n; step++) {
        First f = {FAIL, FAIL, 0, 0};
        if (nim_sum(arr, n) == 0 && (f.target = value_of(e, arr, n, FAIL)) == FAIL)
            goto fail;
        if (score_plies(e, arr, n, f.target, keep_first, &f) < 0)
            goto fail;
        if (f.score == FAIL) {
            PyErr_SetString(InvariantError, "no optimal ply found");
            goto fail;
        }
        if (step == 0)
            root = f.target == FAIL ? -f.score : f.score;
        PyObject *ply = Py_BuildValue("(iL)", f.pile, (long long)f.size);
        if (ply == NULL || PyList_Append(plies, ply) < 0) {
            Py_XDECREF(ply);
            goto fail;
        }
        Py_DECREF(ply);
        n = make_child(arr, n, f.pile, f.size, buf);
        memcpy(arr, buf, n * sizeof(int64_t));
    }
    return Py_BuildValue("(LN)", (long long)root, plies);
fail:
    Py_DECREF(plies);
    return NULL;
}

typedef struct {
    PyObject *list;
    int64_t best;
} Best;

/* Keep the plies of the best score seen, dropping those kept for a lower
   one. */
static int keep_best(void *acc, int i, int64_t ns, int64_t score)
{
    Best *b = acc;
    if (score < b->best)
        return 0;
    if (score > b->best) {
        b->best = score;
        if (PyList_SetSlice(b->list, 0, PY_SSIZE_T_MAX, NULL) < 0)
            return -1;
    }
    PyObject *ply = Py_BuildValue("(iL)", i, (long long)ns);
    if (ply == NULL || PyList_Append(b->list, ply) < 0) {
        Py_XDECREF(ply);
        return -1;
    }
    Py_DECREF(ply);
    return 0;
}

/* The (pile_index, new_size) pairs of the best score among the candidate
   plies, in the order of _python._plies.  At a loser-to-move position the
   best score is the value, so plies are scored under its floor and only
   those that reach it are kept. */
static PyObject *Engine_best_plies(PyObject *self, PyObject *piles)
{
    Engine *e = ready(self);
    int64_t arr[MAX_N];
    int n = e ? load(piles, arr) : -1;
    if (n < 0)
        return NULL;
    int64_t target = FAIL;
    if (nim_sum(arr, n) == 0 && (target = value_of(e, arr, n, FAIL)) == FAIL)
        return NULL;
    /* a winner's best starts at FAIL, below every score */
    Best acc = {PyList_New(0), target};
    if (acc.list == NULL)
        return NULL;
    if (score_plies(e, arr, n, target, keep_best, &acc) < 0) {
        Py_DECREF(acc.list);
        return NULL;
    }
    return acc.list;
}

static PyObject *Engine_stats(PyObject *self, PyObject *Py_UNUSED(ignored))
{
    Engine *e = ready(self);
    if (e == NULL)
        return NULL;
    PyObject *rows = PyList_New(0);
    if (rows == NULL)
        return NULL;
    for (int w = 1; w <= MAX_N; w++) {
        if (!(e->entries[w] | e->hits[w] | e->misses[w]))
            continue;
        PyObject *row = Py_BuildValue(
            "{sKsKsKsKsN}", "entries", (unsigned long long)e->entries[w], "hits",
            (unsigned long long)e->hits[w], "misses", (unsigned long long)e->misses[w],
            "cap", (unsigned long long)e->memo_cap, "engine",
            PyUnicode_FromFormat("native[%d]", w));
        if (row == NULL || PyList_Append(rows, row) < 0) {
            Py_XDECREF(row);
            Py_DECREF(rows);
            return NULL;
        }
        Py_DECREF(row);
    }
    return rows;
}

static PyMethodDef Engine_methods[] = {
    {"solve_value", Engine_solve_value, METH_O,
     "Exact value of any position (either side to move)."},
    {"line", Engine_line, METH_O,
     "(value, plies): the principal line as (pile_index, new_size) pairs, "
     "each against the canonical position it is played in."},
    {"best_plies", Engine_best_plies, METH_O,
     "The (pile_index, new_size) pairs of the best score, in the order of "
     "_python._plies."},
    {"stats", Engine_stats, METH_NOARGS,
     "One row per stored width w: entries, hits, misses, cap and engine "
     "\"native[w]\"."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject EngineType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "candynim.solver._kernel.NativeEngine",
    .tp_doc = PyDoc_STR(
        "NativeEngine(memo_cap): value search over one flat table of at most "
        "memo_cap loser-to-move positions."),
    .tp_basicsize = sizeof(Engine),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)Engine_init,
    .tp_dealloc = (destructor)Engine_dealloc,
    .tp_methods = Engine_methods,
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "candynim.solver._kernel",
    .m_doc = "Compiled value engine with one flat, pair-stripped table.",
    .m_size = -1,
};

PyMODINIT_FUNC PyInit__kernel(void)
{
    PyObject *errors = PyImport_ImportModule("candynim.errors");
    if (errors == NULL)
        return NULL;
    BudgetError = PyObject_GetAttrString(errors, "BudgetError");
    EngineError = PyObject_GetAttrString(errors, "EngineError");
    InvariantError = PyObject_GetAttrString(errors, "InvariantError");
    MemoBudgetError = PyObject_GetAttrString(errors, "MemoBudgetError");
    Py_DECREF(errors);
    if (!BudgetError || !EngineError || !InvariantError || !MemoBudgetError)
        return NULL;
    if (PyType_Ready(&EngineType) < 0)
        return NULL;
    PyObject *m = PyModule_Create(&kernel_module);
    if (m == NULL)
        return NULL;
    if (PyModule_AddStringConstant(m, "SOURCE_SHA256", KERNEL_SOURCE_SHA256) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    Py_INCREF(&EngineType);
    if (PyModule_AddObject(m, "NativeEngine", (PyObject *)&EngineType) < 0) {
        Py_DECREF(&EngineType);
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
