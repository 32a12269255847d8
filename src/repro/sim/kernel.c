/*
 * Compiled event kernel for baseline and STMS cells.
 *
 * A direct port of the scalar reference engine's per-record model
 * (repro.sim.scalar.ScalarRunState._step / _off_chip): LRU L1s with FIFO
 * victim buffers, the inclusive LRU L2, the L2 MSHR file, the per-core
 * miss window, the two-priority DRAM channel and the stride
 * prefetcher, plus every counter the Python objects keep.  Cells whose
 * temporal prefetcher is STMS also run its whole metadata path here,
 * operation for operation as in repro.core.stms: the bucketized index
 * table, the per-core circular history buffers with their pack
 * buffers, the on-chip bucket buffer, the stream engines and the
 * per-core prefetch buffers.  Records are processed one at a time in
 * the scalar heap's (clock, core) order, so the result is bit-identical
 * to the reference by construction; the differential suite pins it.
 *
 * Build: cc -O2 -ffp-contract=off -shared -fPIC (no fast-math), so
 * every floating-point operation rounds exactly as Python's does, with
 * NumPy's include directory and Python's (numpy/random/distributions.h
 * includes Python.h) and NumPy's libnpyrandom.a.
 *
 * Ordered structures (cache sets, victim FIFOs, MSHR entries, stride
 * trackers, buffers, bucket-buffer residency, stream-engine maps) are
 * flat arrays kept in the insertion/recency order of the Python dicts
 * they mirror: index 0 is the oldest entry.  Index buckets keep the
 * Python lists' order, most recently used first.  repro.sim.native
 * builds these buffers from the cell's configuration, in the state a
 * fresh Python machine starts in, and keeps them for the cell's
 * lifetime: warm-up, the measurement boundary (repro_kernel_reset), the
 * measured phase and the end-of-run flush (repro_kernel_finalize) all
 * run on the same Machine, and only the accounting is copied back.
 *
 * Derived lookup state answers in one step what the modelled hardware
 * looks up associatively (and the Python reference keeps in dicts):
 * a residency byte per index bucket (bb_member), per core the number of
 * buffered prefetches of the current stream (pbuf_inflight) and a
 * count of buffered prefetches per bin of block & 255 (pbuf_filter; a
 * zero count means absent, a nonzero one falls through to the scan).
 * The kernel alone keeps it in step with the ordered arrays it
 * summarizes; repro.sim.native builds it zeroed and never reads it.
 *
 * The sampler flips its coins from a PCG64 of its own, seeded as
 * repro.core.sampling.ProbabilisticSampler seeds its generator, one
 * double per flip (the sampler's batches of rng.random() < p, drawn
 * one at a time).  An STMS miss hashes its block to an index bucket
 * and tag as it happens, as the hardware does (index_bucket;
 * repro.core.index_table.IndexTable).
 *
 * L1-copy masks are not stored: a core's bit in the Python map is set
 * exactly when that core's L1 holds the block, so an inclusive L2
 * eviction probes every L1 instead.
 */

/* numpy's random C API (bitgen_t and the distributions), from the
 * NumPy whose libnpyrandom.a repro.sim.library links in: a layout or
 * prototype that differs from the archive's fails the build. */
#include "numpy/random/distributions.h"

#include <stdbool.h>
#include <stdint.h>
#include <string.h>

#define BLOCK_BYTES 64
#define HISTORY_PER_BLOCK 12 /* repro.core.codec.HISTORY_ENTRIES_PER_BLOCK */
#define PBUF_BINS 256        /* pbuf_filter bins: block & (PBUF_BINS - 1) */

/* Traffic categories, in repro.memory.config.TrafficCategory order. */
enum { TC_DEMAND, TC_WRITEBACK, TC_STRIDE, TC_USEFUL, TC_ERRONEOUS,
       TC_RECORD, TC_UPDATE, TC_LOOKUP, TC_COUNT };

/* Coverage classes, in repro.sim.results.CoverageCounts field order. */
enum { CV_FULL, CV_PARTIAL, CV_UNCOVERED, CV_STRIDE, CV_COUNT };

/* repro.core.stream_engine.QueuedAddress. */
typedef struct {
    int64_t source_core, sequence, block;
    uint8_t marked;
    double ready_at;
} Queued;

/* repro.prefetchers.base.PrefetchedBlock. */
typedef struct {
    int64_t block;
    double issued_at, arrival;
    int64_t stream;
} Prefetched;

/* repro.core.stream_engine.StreamEngine; the FIFO queue is a ring. */
typedef struct {
    int64_t serial, active, source_core, next_fetch_sequence;
    int64_t consumed_count, queue_head, queue_count, issued_count;
    int64_t has_paused, has_last;
    Queued paused_at, last_consumed;
} Engine;

/* ---------------------------------------------------------------------
 * PCG64 (numpy.random.PCG64), the generator of the sampler's coins and
 * of the trace emitters.
 * ------------------------------------------------------------------- */

/* PCG64's 128-bit LCG multiplier (numpy's PCG_DEFAULT_MULTIPLIER_128). */
#define PCG_MULT (((unsigned __int128)0x2360ED051FC65DA4ULL << 64) \
                  | 0x4385DF649FCCF645ULL)

/* Keep in sync with repro.sim.library.Pcg64: the LCG, and whether
 * next_uint32's carried upper half-word is unread. */
typedef struct {
    uint64_t state_lo, state_hi, inc_lo, inc_hi;
    int64_t has_half;
    uint64_t half;
} Pcg64;

/* pcg_setseq_128_xsl_rr_64_random_r: step, then output the new state. */
static uint64_t pcg64_raw(Pcg64 *g)
{
    unsigned __int128 state =
        ((unsigned __int128)g->state_hi << 64 | g->state_lo) * PCG_MULT
        + ((unsigned __int128)g->inc_hi << 64 | g->inc_lo);
    uint64_t hi = (uint64_t)(state >> 64), lo = (uint64_t)state;
    unsigned rot = (unsigned)(hi >> 58);
    uint64_t x = hi ^ lo;
    g->state_hi = hi;
    g->state_lo = lo;
    return (x >> rot) | (x << ((-rot) & 63));
}

/* rng.random(): the top 53 bits of a raw draw. */
static double pcg64_double(Pcg64 *g)
{
    return (double)(pcg64_raw(g) >> 11) * (1.0 / 9007199254740992.0);
}

/* PCG64's next_uint32 with its carried half-word. */
static uint32_t pcg64_uint32(Pcg64 *g)
{
    if (g->has_half) {
        g->has_half = 0;
        return (uint32_t)g->half;
    }
    uint64_t raw = pcg64_raw(g);
    g->half = raw >> 32;
    g->has_half = 1;
    return (uint32_t)raw;
}

/* Keep in sync with repro.sim.library.Machine (same order, same types). */
typedef struct {
    /* Geometry and configuration (read-only). */
    int64_t cores;              /* trace cores (stepped) */
    int64_t l1_cores;           /* hierarchy cores (L1s probed) */
    int64_t l1_sets, l1_ways, victim_capacity;
    int64_t l2_sets, l2_ways, mshr_capacity, miss_window;
    int64_t measuring, use_stride, track_mlp, collect_miss_log;
    int64_t tracker_entries, stride_buffer_blocks, stride_degree;
    int64_t confirm_threshold, region_shift, work_f64;
    double t_l1_hit, t_victim_hit, t_l2_dep, t_l2_indep;
    double t_stride_dep, t_stride_indep, t_miss_overhead;
    double dram_transfer, dram_latency, stride_backlog_limit;

    /* Trace columns: per core, a pointer to that core's own array.
     * work is float32, or float64 when work_f64 is set. */
    const int64_t *const *blocks;
    const void *const *work;
    const uint8_t *const *dep;
    const uint8_t *const *write;
    const uint8_t *low_priority; /* per core: demand fetches at LOW */
    const int64_t *limits;       /* per core: stop before this record */

    /* Per-core progress. */
    double *clocks;
    int64_t *cursors;

    /* Private L1s: [l1_cores][l1_sets][l1_ways]; stats per core are
     * hits, misses, fills, evictions, dirty_evictions, invalidations. */
    int64_t *l1_tags;
    uint8_t *l1_dirty;
    int64_t *l1_count;
    int64_t *l1_stats;

    /* Victim FIFOs: [l1_cores][victim_capacity]. */
    int64_t *victim_blocks;
    uint8_t *victim_dirty;
    int64_t *victim_count;
    int64_t *victim_hits;

    /* Shared L2: [l2_sets][l2_ways], stats as for the L1s. */
    int64_t *l2_tags;
    uint8_t *l2_dirty;
    int64_t *l2_count;
    int64_t *l2_stats;

    /* MSHR file in allocation order; stats are allocations, merges,
     * stalls, peak_occupancy. */
    int64_t *mshr_blocks;
    double *mshr_complete;
    int64_t *mshr_waiters;
    int64_t *mshr_stats;
    int64_t mshr_count;

    /* Per-core outstanding-miss windows: [cores][miss_window]. */
    double *window;
    int64_t *window_count;

    /* DRAM channel. */
    double dram_busy_high, dram_busy_all, dram_busy_cycles, dram_queue_cycles;
    int64_t dram_requests, dram_high, dram_low;

    /* Stride prefetcher: trackers [cores][tracker_entries][4] holding
     * region, last block, stride, confirmations; buffers
     * [cores][stride_buffer_blocks] of block plus (issued, arrival)
     * times; stats are trained, issued, useful, erroneous, dropped. */
    int64_t *tracker;
    int64_t *tracker_count;
    int64_t *sbuf_blocks;
    double *sbuf_times;
    int64_t *sbuf_count;
    int64_t *stride_stats;

    /* Accounting: traffic bytes [TC_COUNT] and [cores][TC_COUNT],
     * coverage [CV_COUNT] and [cores][CV_COUNT]. */
    int64_t demand_accesses, off_chip_reads, measured_records;
    int64_t *traffic;
    int64_t *core_traffic;
    int64_t *coverage;
    int64_t *core_coverage;
    double *mlp;            /* [cores][4]: total, union, start, end */
    int64_t *mlp_count;
    int64_t *miss_log;      /* core c appends at miss_log_base[c] */
    const int64_t *miss_log_base;
    int64_t *miss_log_count;

    /* STMS (repro.core.stms.StmsPrefetcher); unused unless stms is set.
     * sample_mode: 0 never update, 1 always, 2 flip a coin from
     * coin_rng that comes up with sample_probability. */
    int64_t stms, history_capacity, bucket_entries, bucket_buffer_capacity;
    int64_t prefetch_buffer_blocks, lookahead, queue_capacity;
    int64_t refill_threshold, annotate, sample_mode, issued_capacity;
    double t_pf_dep, t_pf_indep, pf_backlog_limit;
    /* IndexTable.bucket_of / tag_of: buckets - 1, and the tag mask
     * (-1 for full-address tags). */
    int64_t index_mask, tag_mask;
    Pcg64 coin_rng;
    double sample_probability;
    /* PrefetcherStats: issued, useful, erroneous, filtered, dropped,
     * lookups, lookup_hits; StmsCounters: resumes, annotations,
     * stale_pointers, candidate_updates, applied_updates; sampler
     * flips, accepted. */
    int64_t *pf_stats;
    int64_t *stms_counters;
    int64_t *sampler;
    /* Index table: [buckets][bucket_entries] tags and (core, sequence)
     * pointers, MRU first; stats as IndexStats. */
    int64_t *index_tags;
    int64_t *index_ptrs;
    int64_t *index_count;
    int64_t *index_stats;
    /* History buffers: [cores][history_capacity] committed entries,
     * [cores][HISTORY_PER_BLOCK] pack buffers; stats as HistoryStats. */
    int64_t *hist_blocks;
    uint8_t *hist_marks;
    int64_t *hist_pend_blocks;
    uint8_t *hist_pend_marks;
    int64_t *hist_pend_count;
    int64_t *hist_head;
    int64_t *hist_stats;
    /* Bucket buffer in LRU order: bucket, dirty bit, dirtying core;
     * stats are hits, misses, writebacks, update_misses. */
    int64_t *bb_buckets;
    uint8_t *bb_dirty;
    int64_t *bb_core;
    int64_t bb_count;
    int64_t *bb_stats;
    /* Stream engines [cores], their queues [cores][queue_capacity] and
     * issued maps [cores][issued_capacity]; prefetch buffers
     * [cores][prefetch_buffer_blocks] in FIFO order. */
    Engine *engines;
    Queued *queues;
    Queued *issued;
    Prefetched *pbuf;
    int64_t *pbuf_count;
    /* Derived lookup state (see the header): [index buckets] residency
     * bytes, [cores] current-stream prefetch counts and
     * [cores][PBUF_BINS] prefetch-buffer bin counts. */
    uint8_t *bb_member;
    int64_t *pbuf_inflight;
    int32_t *pbuf_filter;
} Machine;

/* Layout fingerprint repro.sim.library checks before any call. */
int64_t repro_kernel_abi(void)
{
    return (int64_t)sizeof(Machine) | (int64_t)sizeof(Engine) << 16
           | (int64_t)sizeof(Queued) << 32
           | (int64_t)sizeof(Prefetched) << 48;
}

/* ---------------------------------------------------------------------
 * Ordered-array helpers.
 * ------------------------------------------------------------------- */

static int64_t find(const int64_t *keys, int64_t n, int64_t key)
{
    for (int64_t i = 0; i < n; i++)
        if (keys[i] == key)
            return i;
    return -1;
}

/* Move entry pos of an ordered (tags, dirty) set to the newest slot. */
static void refresh(int64_t *tags, uint8_t *dirty, int64_t n, int64_t pos,
                    uint8_t new_dirty)
{
    int64_t block = tags[pos];
    for (int64_t i = pos; i < n - 1; i++) {
        tags[i] = tags[i + 1];
        dirty[i] = dirty[i + 1];
    }
    tags[n - 1] = block;
    dirty[n - 1] = new_dirty;
}

/* Remove entry pos, keeping the order of the rest. */
static void drop(int64_t *tags, uint8_t *dirty, int64_t n, int64_t pos)
{
    for (int64_t i = pos; i < n - 1; i++) {
        tags[i] = tags[i + 1];
        dirty[i] = dirty[i + 1];
    }
}

/* ---------------------------------------------------------------------
 * DRAM channel (DramChannel.request).
 * ------------------------------------------------------------------- */

static double dram_request(Machine *m, double now, int high)
{
    double service = m->dram_transfer;
    double start;
    if (high) {
        double busy = m->dram_busy_high;
        start = now > busy ? now : busy;
        busy = start + service;
        m->dram_busy_high = busy;
        if (busy > m->dram_busy_all)
            m->dram_busy_all = busy;
        m->dram_high++;
    } else {
        double busy = m->dram_busy_all;
        start = now > busy ? now : busy;
        m->dram_busy_all = start + service;
        m->dram_low++;
    }
    m->dram_requests++;
    m->dram_busy_cycles += service;
    m->dram_queue_cycles += start - now;
    return start + m->dram_latency + service;
}

static void drain_writebacks(Machine *m, int64_t count, double now)
{
    for (int64_t i = 0; i < count; i++)
        dram_request(m, now, 1);
}

/* ---------------------------------------------------------------------
 * Accounting (TrafficMeter.add_block, CoverageCounts).
 * ------------------------------------------------------------------- */

static void charge(Machine *m, int64_t core, int category)
{
    m->traffic[category] += BLOCK_BYTES;
    m->core_traffic[core * TC_COUNT + category] += BLOCK_BYTES;
}

static void cover(Machine *m, int64_t core, int cls)
{
    if (!m->measuring)
        return;
    m->coverage[cls]++;
    m->core_coverage[core * CV_COUNT + cls]++;
}

/* ---------------------------------------------------------------------
 * Hierarchy (CmpHierarchy).
 * ------------------------------------------------------------------- */

enum { ST_HITS, ST_MISSES, ST_FILLS, ST_EVICTIONS, ST_DIRTY_EVICTIONS,
       ST_INVALIDATIONS, ST_COUNT };

/* Invalidate every L1 copy of an L2 victim, merge its dirty state and
 * charge the write-back to core (_handle_l2_eviction).  Returns the
 * number of write-backs (0 or 1). */
static int64_t l2_evicted(Machine *m, int64_t block, int dirty, int64_t core)
{
    int64_t set = block & (m->l1_sets - 1);
    for (int64_t c = 0; c < m->l1_cores; c++) {
        int64_t base = (c * m->l1_sets + set) * m->l1_ways;
        int64_t *count = &m->l1_count[c * m->l1_sets + set];
        int64_t pos = find(m->l1_tags + base, *count, block);
        if (pos < 0)
            continue;
        if (m->l1_dirty[base + pos])
            dirty = 1;
        drop(m->l1_tags + base, m->l1_dirty + base, *count, pos);
        (*count)--;
        m->l1_stats[c * ST_COUNT + ST_INVALIDATIONS]++;
    }
    if (!dirty)
        return 0;
    charge(m, core, TC_WRITEBACK);
    return 1;
}

/* CmpHierarchy._l2_fill of a block known to be absent from the L2;
 * returns the write-backs it caused. */
static int64_t l2_insert(Machine *m, int64_t block, int dirty, int64_t core)
{
    int64_t set = block & (m->l2_sets - 1);
    int64_t base = set * m->l2_ways;
    int64_t *tags = m->l2_tags + base;
    uint8_t *bits = m->l2_dirty + base;
    int64_t n = m->l2_count[set];
    int evicted = 0;
    int64_t victim = 0;
    int victim_dirty = 0;
    if (n >= m->l2_ways) {
        victim = tags[0];
        victim_dirty = bits[0];
        drop(tags, bits, n, 0);
        n--;
        m->l2_stats[ST_EVICTIONS]++;
        if (victim_dirty)
            m->l2_stats[ST_DIRTY_EVICTIONS]++;
        evicted = 1;
    }
    tags[n] = block;
    bits[n] = (uint8_t)dirty;
    m->l2_count[set] = n + 1;
    m->l2_stats[ST_FILLS]++;
    return evicted ? l2_evicted(m, victim, victim_dirty, core) : 0;
}

/* CmpHierarchy._l2_fill; returns the write-backs it caused. */
static int64_t l2_fill(Machine *m, int64_t block, int dirty, int64_t core)
{
    int64_t set = block & (m->l2_sets - 1);
    int64_t base = set * m->l2_ways;
    int64_t n = m->l2_count[set];
    int64_t pos = find(m->l2_tags + base, n, block);
    if (pos < 0)
        return l2_insert(m, block, dirty, core);
    uint8_t *bits = m->l2_dirty + base;
    refresh(m->l2_tags + base, bits, n, pos, (uint8_t)(bits[pos] || dirty));
    return 0;
}

/* CmpHierarchy._fill_l1_into: fill the core's L1 and spill its victim
 * into the victim FIFO.  Returns the write-backs it caused. */
static int64_t l1_fill(Machine *m, int64_t core, int64_t block, int dirty)
{
    int64_t set = block & (m->l1_sets - 1);
    int64_t base = (core * m->l1_sets + set) * m->l1_ways;
    int64_t *tags = m->l1_tags + base;
    uint8_t *bits = m->l1_dirty + base;
    int64_t *count = &m->l1_count[core * m->l1_sets + set];
    int64_t *stats = m->l1_stats + core * ST_COUNT;
    int64_t n = *count;
    int64_t pos = find(tags, n, block);
    if (pos >= 0) {
        refresh(tags, bits, n, pos, (uint8_t)(bits[pos] || dirty));
        return 0;
    }
    int evicted = 0;
    int64_t victim = 0;
    int victim_dirty = 0;
    if (n >= m->l1_ways) {
        victim = tags[0];
        victim_dirty = bits[0];
        drop(tags, bits, n, 0);
        n--;
        stats[ST_EVICTIONS]++;
        if (victim_dirty)
            stats[ST_DIRTY_EVICTIONS]++;
        evicted = 1;
    }
    tags[n] = block;
    bits[n] = (uint8_t)dirty;
    *count = n + 1;
    stats[ST_FILLS]++;
    if (!evicted)
        return 0;

    int64_t capacity = m->victim_capacity;
    if (capacity <= 0)
        return victim_dirty ? l2_fill(m, victim, 1, core) : 0;
    int64_t *fifo = m->victim_blocks + core * capacity;
    uint8_t *fifo_dirty = m->victim_dirty + core * capacity;
    int64_t *fifo_count = &m->victim_count[core];
    pos = find(fifo, *fifo_count, victim);
    if (pos >= 0) {
        fifo_dirty[pos] = (uint8_t)(fifo_dirty[pos] || victim_dirty);
        return 0;
    }
    int64_t writebacks = 0;
    if (*fifo_count >= capacity) {
        int64_t displaced = fifo[0];
        int displaced_dirty = fifo_dirty[0];
        drop(fifo, fifo_dirty, *fifo_count, 0);
        (*fifo_count)--;
        if (displaced_dirty)
            /* Dirty victim falls back to L2 (on chip; no pin traffic). */
            writebacks = l2_fill(m, displaced, 1, core);
    }
    fifo[*fifo_count] = victim;
    fifo_dirty[*fifo_count] = (uint8_t)victim_dirty;
    (*fifo_count)++;
    return writebacks;
}

/* CmpHierarchy.fill_off_chip.  off_chip runs only after an L2 miss,
 * and nothing on its way here fills the L2 (prefetches wait in their
 * own buffers), so the block is still absent: no L2 search. */
static int64_t fill_off_chip(Machine *m, int64_t core, int64_t block,
                             int dirty)
{
    int64_t writebacks = l2_insert(m, block, 0, core);
    return writebacks + l1_fill(m, core, block, dirty);
}

/* ---------------------------------------------------------------------
 * Stride prefetcher (StridePrefetcher).
 * ------------------------------------------------------------------- */

enum { SS_TRAINED, SS_ISSUED, SS_USEFUL, SS_ERRONEOUS, SS_DROPPED };

/* Tracker entries are 4 int64s: region, last block, stride, confirms. */
static void tracker_drop_oldest(int64_t *entries, int64_t *count)
{
    (*count)--;
    memmove(entries, entries + 4, (size_t)*count * 4 * sizeof *entries);
}

/* Position of region's entry, or -1.  Regions are unique in a tracker,
 * so searching from the newest entry (where a stream's region usually
 * is) finds the same entry as the oldest-first dict order. */
static int64_t tracker_find(const int64_t *entries, int64_t count,
                            int64_t region)
{
    for (int64_t i = count - 1; i >= 0; i--)
        if (entries[i * 4] == region)
            return i;
    return -1;
}

static void tracker_append(int64_t *entries, int64_t *count, int64_t region,
                           int64_t last, int64_t stride, int64_t confirms)
{
    int64_t *entry = entries + *count * 4;
    entry[0] = region;
    entry[1] = last;
    entry[2] = stride;
    entry[3] = confirms;
    (*count)++;
}

static int stride_probe(Machine *m, int64_t core, int64_t block)
{
    int64_t capacity = m->stride_buffer_blocks;
    int64_t *blocks = m->sbuf_blocks + core * capacity;
    double *times = m->sbuf_times + core * capacity * 2;
    int64_t *count = &m->sbuf_count[core];
    int64_t pos = find(blocks, *count, block);
    if (pos < 0)
        return 0;
    for (int64_t i = pos; i < *count - 1; i++) {
        blocks[i] = blocks[i + 1];
        times[2 * i] = times[2 * i + 2];
        times[2 * i + 1] = times[2 * i + 3];
    }
    (*count)--;
    m->stride_stats[SS_USEFUL]++;
    return 1;
}

static void run_ahead(Machine *m, int64_t core, int64_t block,
                      int64_t stride, double now)
{
    int64_t capacity = m->stride_buffer_blocks;
    int64_t *blocks = m->sbuf_blocks + core * capacity;
    double *times = m->sbuf_times + core * capacity * 2;
    int64_t *count = &m->sbuf_count[core];
    int64_t last_target = block;
    for (int64_t i = 1; i <= m->stride_degree; i++) {
        int64_t target = block + stride * i;
        if (target < 0 || find(blocks, *count, target) >= 0)
            continue;
        if (m->dram_busy_all - now > m->stride_backlog_limit) {
            m->stride_stats[SS_DROPPED]++;
            break;
        }
        double arrival = dram_request(m, now, 0);
        if (*count >= capacity) {
            for (int64_t k = 0; k < *count - 1; k++) {
                blocks[k] = blocks[k + 1];
                times[2 * k] = times[2 * k + 2];
                times[2 * k + 1] = times[2 * k + 3];
            }
            (*count)--;
            m->stride_stats[SS_ERRONEOUS]++;
        }
        blocks[*count] = target;
        times[2 * *count] = now;
        times[2 * *count + 1] = arrival;
        (*count)++;
        m->stride_stats[SS_ISSUED]++;
        last_target = target;
    }

    /* _seed_continuation: let a confirmed stream cross its region. */
    int64_t region = last_target >> m->region_shift;
    if (region == (block >> m->region_shift))
        return;
    int64_t *entries = m->tracker + core * m->tracker_entries * 4;
    int64_t *tracked = &m->tracker_count[core];
    if (tracker_find(entries, *tracked, region) >= 0)
        return;
    if (*tracked >= m->tracker_entries)
        tracker_drop_oldest(entries, tracked);
    tracker_append(entries, tracked, region, last_target, stride,
                   m->confirm_threshold - 1);
}

static void stride_train(Machine *m, int64_t core, int64_t block, double now)
{
    int64_t *entries = m->tracker + core * m->tracker_entries * 4;
    int64_t *count = &m->tracker_count[core];
    int64_t region = block >> m->region_shift;
    int64_t pos = tracker_find(entries, *count, region);
    if (pos < 0) {
        if (*count >= m->tracker_entries)
            tracker_drop_oldest(entries, count);
        tracker_append(entries, count, region, block, 0, 0);
        m->stride_stats[SS_TRAINED]++;
        return;
    }
    /* LRU refresh: move the region's entry to the newest slot. */
    int64_t *last = entries + (*count - 1) * 4;
    if (pos < *count - 1) {
        int64_t entry[4];
        memcpy(entry, entries + pos * 4, sizeof entry);
        memmove(entries + pos * 4, entries + pos * 4 + 4,
                (size_t)(*count - 1 - pos) * 4 * sizeof *entries);
        memcpy(last, entry, sizeof entry);
    }

    int64_t stride = block - last[1];
    if (stride == 0)
        return;
    if (stride == last[2]) {
        last[3]++;
    } else {
        last[2] = stride;
        last[3] = 1;
    }
    last[1] = block;
    if (last[3] >= m->confirm_threshold)
        run_ahead(m, core, block, stride, now);
}

/* ---------------------------------------------------------------------
 * MSHR file (MshrFile).
 * ------------------------------------------------------------------- */

enum { MS_ALLOCATIONS, MS_MERGES, MS_STALLS, MS_PEAK_OCCUPANCY };

static void mshr_retire(Machine *m, double now)
{
    int64_t keep = 0;
    for (int64_t i = 0; i < m->mshr_count; i++) {
        if (m->mshr_complete[i] <= now)
            continue;
        m->mshr_blocks[keep] = m->mshr_blocks[i];
        m->mshr_complete[keep] = m->mshr_complete[i];
        m->mshr_waiters[keep] = m->mshr_waiters[i];
        keep++;
    }
    m->mshr_count = keep;
}

/* ---------------------------------------------------------------------
 * STMS metadata (repro.core.stms and the structures it drives).
 * ------------------------------------------------------------------- */

enum { PF_ISSUED, PF_USEFUL, PF_ERRONEOUS, PF_FILTERED, PF_DROPPED,
       PF_LOOKUPS, PF_LOOKUP_HITS };
enum { SC_RESUMES, SC_ANNOTATIONS, SC_STALE_POINTERS, SC_CANDIDATES,
       SC_APPLIED };
enum { IX_LOOKUPS, IX_HITS, IX_TAG_ALIASES, IX_INSERTS, IX_REPLACEMENTS,
       IX_POINTER_UPDATES, IX_COUNT };
enum { HS_APPENDS, HS_PACKED_WRITES, HS_BLOCK_READS, HS_ON_CHIP_READS,
       HS_ANNOTATIONS, HS_STALE_READS, HS_COUNT };
enum { BB_HITS, BB_MISSES, BB_WRITEBACKS, BB_UPDATE_MISSES };

/* ProbabilisticSampler.should_update, one coin from coin_rng. */
static int should_update(Machine *m)
{
    m->sampler[0]++;
    if (m->sample_mode == 0)
        return 0;
    int outcome = 1;
    if (m->sample_mode == 2)
        outcome = pcg64_double(&m->coin_rng) < m->sample_probability;
    if (outcome)
        m->sampler[1]++;
    return outcome;
}

/* Put (tag, core, sequence) at the front (MRU) of a bucket whose
 * entries 0..pos-1 shift back one slot. */
static void bucket_to_front(int64_t *tags, int64_t *ptrs, int64_t pos,
                            int64_t tag, int64_t core, int64_t sequence)
{
    for (int64_t i = pos; i > 0; i--) {
        tags[i] = tags[i - 1];
        ptrs[2 * i] = ptrs[2 * i - 2];
        ptrs[2 * i + 1] = ptrs[2 * i - 1];
    }
    tags[0] = tag;
    ptrs[0] = core;
    ptrs[1] = sequence;
}

/* IndexTable.lookup on a hashed bucket and tag: MRU-first search,
 * a hit moves to the front. */
static int index_probe(Machine *m, int64_t bucket, int64_t tag,
                       int64_t *ptr_core, int64_t *ptr_seq)
{
    int64_t e = m->bucket_entries;
    int64_t *tags = m->index_tags + bucket * e;
    int64_t *ptrs = m->index_ptrs + bucket * e * 2;
    m->index_stats[IX_LOOKUPS]++;
    int64_t pos = find(tags, m->index_count[bucket], tag);
    if (pos < 0)
        return 0;
    *ptr_core = ptrs[2 * pos];
    *ptr_seq = ptrs[2 * pos + 1];
    bucket_to_front(tags, ptrs, pos, tag, *ptr_core, *ptr_seq);
    m->index_stats[IX_HITS]++;
    return 1;
}

/* IndexTable.update on a hashed bucket and tag: (re)point tag at
 * (core, sequence), MRU first. */
static void index_commit(Machine *m, int64_t bucket, int64_t tag,
                         int64_t core, int64_t sequence)
{
    int64_t e = m->bucket_entries;
    int64_t *count = &m->index_count[bucket];
    int64_t pos = find(m->index_tags + bucket * e, *count, tag);
    if (pos >= 0) {
        m->index_stats[IX_POINTER_UPDATES]++;
    } else {
        if (*count >= e) {
            (*count)--; /* the LRU entry ages out */
            m->index_stats[IX_REPLACEMENTS]++;
        }
        pos = (*count)++;
        m->index_stats[IX_INSERTS]++;
    }
    bucket_to_front(m->index_tags + bucket * e,
                    m->index_ptrs + bucket * e * 2, pos, tag, core,
                    sequence);
}

/* BucketBuffer._write_back. */
static void bb_write_back(Machine *m, double now, int64_t core)
{
    m->bb_stats[BB_WRITEBACKS]++;
    charge(m, core, TC_UPDATE);
    dram_request(m, now, 0);
}

/* Position of a resident bucket, searched from the MRU end, or -1.  A
 * clear bb_member byte answers "absent" without a scan. */
static int64_t bb_find(const Machine *m, int64_t bucket)
{
    if (!m->bb_member[bucket])
        return -1;
    int64_t pos = m->bb_count - 1;
    while (pos >= 0 && m->bb_buckets[pos] != bucket)
        pos--;
    return pos;
}

/* BucketBuffer.access: returns the bucket's ready time. */
static double bb_access(Machine *m, int64_t bucket, double now, int dirty,
                        int category, int64_t core)
{
    int64_t *buckets = m->bb_buckets;
    uint8_t *bits = m->bb_dirty;
    int64_t *cores = m->bb_core;
    int64_t n = m->bb_count;
    int64_t pos = bb_find(m, bucket);
    if (pos >= 0) {
        m->bb_stats[BB_HITS]++;
        int64_t owner = cores[pos];
        refresh(buckets, bits, n, pos, (uint8_t)(bits[pos] || dirty));
        for (int64_t i = pos; i < n - 1; i++)
            cores[i] = cores[i + 1];
        cores[n - 1] = dirty ? core : owner;
        return now;
    }
    m->bb_stats[BB_MISSES]++;
    if (category == TC_UPDATE)
        m->bb_stats[BB_UPDATE_MISSES]++;
    charge(m, core, category);
    double arrival = dram_request(m, now, 0);
    if (n >= m->bucket_buffer_capacity) {
        if (bits[0])
            bb_write_back(m, now, cores[0]);
        m->bb_member[buckets[0]] = 0;
        drop(buckets, bits, n, 0);
        for (int64_t i = 0; i < n - 1; i++)
            cores[i] = cores[i + 1];
        n--;
    }
    buckets[n] = bucket;
    bits[n] = (uint8_t)dirty;
    cores[n] = dirty ? core : 0;
    m->bb_count = n + 1;
    m->bb_member[bucket] = 1;
    return arrival;
}

/* HistoryBuffer.is_valid. */
static int history_valid(Machine *m, int64_t hcore, int64_t sequence)
{
    int64_t head = m->hist_head[hcore];
    return head > sequence && sequence >= head - m->history_capacity
           && sequence >= 0;
}

/* HistoryBuffer._spill: commit the pack buffer, one packed write. */
static void history_spill(Machine *m, int64_t hcore, double now)
{
    int64_t capacity = m->history_capacity;
    int64_t *count = &m->hist_pend_count[hcore];
    int64_t start = m->hist_head[hcore] - *count;
    for (int64_t i = 0; i < *count; i++) {
        int64_t slot = hcore * capacity + (start + i) % capacity;
        m->hist_blocks[slot] = m->hist_pend_blocks[hcore * HISTORY_PER_BLOCK + i];
        m->hist_marks[slot] = m->hist_pend_marks[hcore * HISTORY_PER_BLOCK + i];
    }
    *count = 0;
    m->hist_stats[hcore * HS_COUNT + HS_PACKED_WRITES]++;
    charge(m, hcore, TC_RECORD);
    dram_request(m, now, 0);
}

/* HistoryBuffer.append; returns the entry's sequence. */
static int64_t history_append(Machine *m, int64_t hcore, int64_t block,
                              double now)
{
    int64_t sequence = m->hist_head[hcore]++;
    int64_t *count = &m->hist_pend_count[hcore];
    m->hist_pend_blocks[hcore * HISTORY_PER_BLOCK + *count] = block;
    m->hist_pend_marks[hcore * HISTORY_PER_BLOCK + *count] = 0;
    (*count)++;
    m->hist_stats[hcore * HS_COUNT + HS_APPENDS]++;
    if (*count >= HISTORY_PER_BLOCK)
        history_spill(m, hcore, now);
    return sequence;
}

/* HistoryBuffer.annotate on behalf of requester. */
static int history_annotate(Machine *m, int64_t hcore, int64_t sequence,
                            double now, int64_t requester)
{
    if (!history_valid(m, hcore, sequence))
        return 0;
    int64_t first_pending = m->hist_head[hcore] - m->hist_pend_count[hcore];
    if (sequence >= first_pending)
        m->hist_pend_marks[hcore * HISTORY_PER_BLOCK + sequence
                           - first_pending] = 1;
    else
        m->hist_marks[hcore * m->history_capacity
                      + sequence % m->history_capacity] = 1;
    m->hist_stats[hcore * HS_COUNT + HS_ANNOTATIONS]++;
    charge(m, requester, TC_RECORD);
    dram_request(m, now, 0);
    return 1;
}

/* Python's list slice src[lo:hi] of a length-n list, appended to out. */
static int64_t slice_into(int64_t *blocks, uint8_t *marks, int64_t at,
                          const int64_t *src_blocks,
                          const uint8_t *src_marks, int64_t n, int64_t lo,
                          int64_t hi)
{
    if (hi > n)
        hi = n;
    for (int64_t i = lo; i < hi; i++, at++) {
        blocks[at] = src_blocks[i];
        marks[at] = src_marks[i];
    }
    return at;
}

/* HistoryBuffer.read_segment into blocks/marks (at most one packed
 * block); returns the entry count and sets *first and *arrival. */
static int64_t read_segment(Machine *m, int64_t hcore, int64_t sequence,
                            double now, int64_t reader, int64_t *first,
                            double *arrival, int64_t *blocks,
                            uint8_t *marks)
{
    int64_t capacity = m->history_capacity;
    int64_t head = m->hist_head[hcore];
    int64_t *stats = m->hist_stats + hcore * HS_COUNT;
    const int64_t *committed = m->hist_blocks + hcore * capacity;
    const uint8_t *committed_marks = m->hist_marks + hcore * capacity;
    const int64_t *pending = m->hist_pend_blocks + hcore * HISTORY_PER_BLOCK;
    const uint8_t *pending_marks =
        m->hist_pend_marks + hcore * HISTORY_PER_BLOCK;
    int64_t pend_count = m->hist_pend_count[hcore];
    *first = sequence;
    *arrival = now;
    if (!history_valid(m, hcore, sequence)) {
        stats[HS_STALE_READS]++;
        return 0;
    }
    int64_t block_start = sequence / HISTORY_PER_BLOCK * HISTORY_PER_BLOCK;
    int64_t block_end = block_start + HISTORY_PER_BLOCK;
    if (block_end > head)
        block_end = head;
    int64_t start = sequence > head - capacity ? sequence : head - capacity;
    int64_t first_pending = head - pend_count;
    *first = start;
    if (block_end > first_pending) {
        /* Partly or wholly still in the pack buffer: served on chip. */
        stats[HS_ON_CHIP_READS]++;
        int64_t pending_end = block_end - first_pending;
        if (start >= first_pending)
            return slice_into(blocks, marks, 0, pending, pending_marks,
                              pend_count, start - first_pending,
                              pending_end);
        int64_t slot = start % capacity;
        int64_t n = slice_into(blocks, marks, 0, committed, committed_marks,
                               capacity, slot,
                               slot + first_pending - start);
        return slice_into(blocks, marks, n, pending, pending_marks,
                          pend_count, 0, pending_end);
    }
    stats[HS_BLOCK_READS]++;
    charge(m, reader, TC_LOOKUP);
    *arrival = dram_request(m, now, 0);
    int64_t slot = start % capacity;
    return slice_into(blocks, marks, 0, committed, committed_marks, capacity,
                      slot, slot + block_end - start);
}

/* PrefetchBuffer: position of block in a core's FIFO, or -1.  An empty
 * filter bin answers "absent" without a scan. */
static int64_t prefetched_find(const Machine *m, int64_t core, int64_t block)
{
    if (!m->pbuf_filter[core * PBUF_BINS + (block & (PBUF_BINS - 1))])
        return -1;
    const Prefetched *buffer = m->pbuf + core * m->prefetch_buffer_blocks;
    int64_t n = m->pbuf_count[core];
    for (int64_t i = 0; i < n; i++)
        if (buffer[i].block == block)
            return i;
    return -1;
}

/* Remove entry pos of a core's FIFO, keeping the order of the rest, and
 * forget it in the core's filter and current-stream count. */
static void prefetched_drop(Machine *m, int64_t core, int64_t pos)
{
    Prefetched *buffer = m->pbuf + core * m->prefetch_buffer_blocks;
    int64_t *count = &m->pbuf_count[core];
    m->pbuf_filter[core * PBUF_BINS + (buffer[pos].block & (PBUF_BINS - 1))]--;
    if (buffer[pos].stream == m->engines[core].serial)
        m->pbuf_inflight[core]--;
    for (int64_t i = pos; i < *count - 1; i++)
        buffer[i] = buffer[i + 1];
    (*count)--;
}

/* StreamEngine._issued: an insertion-ordered map keyed by block. */
static int64_t issued_find(Machine *m, int64_t core, int64_t block)
{
    const Queued *map = m->issued + core * m->issued_capacity;
    int64_t n = m->engines[core].issued_count;
    for (int64_t i = 0; i < n; i++)
        if (map[i].block == block)
            return i;
    return -1;
}

/* StreamEngine.begin (after reset). */
static void engine_begin(Machine *m, int64_t core, int64_t source_core,
                         int64_t next_fetch_sequence)
{
    Engine *e = &m->engines[core];
    e->queue_head = e->queue_count = e->issued_count = 0;
    e->has_paused = e->has_last = 0;
    e->consumed_count = 0;
    e->serial++;
    m->pbuf_inflight[core] = 0; /* no entry carries the new serial yet */
    e->active = 1;
    e->source_core = source_core;
    e->next_fetch_sequence = next_fetch_sequence;
}

/* StmsPrefetcher._refill with StreamEngine.enqueue_segment inlined. */
static void stms_refill(Machine *m, int64_t core, double now)
{
    Engine *e = &m->engines[core];
    Queued *queue = m->queues + core * m->queue_capacity;
    int64_t blocks[HISTORY_PER_BLOCK];
    uint8_t marks[HISTORY_PER_BLOCK];
    while (e->active && !e->has_paused
           && e->queue_count <= m->refill_threshold
           && e->queue_count < m->queue_capacity) {
        int64_t first;
        double arrival;
        int64_t n = read_segment(m, e->source_core, e->next_fetch_sequence,
                                 now, core, &first, &arrival, blocks, marks);
        if (n == 0) {
            e->active = 0;
            break;
        }
        for (int64_t k = 0; k < n; k++) {
            if (e->queue_count >= m->queue_capacity)
                break;
            Queued *slot = &queue[(e->queue_head + e->queue_count)
                                  % m->queue_capacity];
            slot->source_core = e->source_core;
            slot->sequence = first + k;
            slot->block = blocks[k];
            slot->marked = marks[k];
            slot->ready_at = arrival;
            e->queue_count++;
            e->next_fetch_sequence = first + k + 1;
            if (marks[k]) {
                e->paused_at = *slot;
                e->has_paused = 1;
                break;
            }
        }
        if (e->has_paused)
            break;
    }
}

/* StmsPrefetcher._issue: keep lookahead prefetches of the current
 * stream in flight (pop_for_prefetch and _issue_prefetch inlined). */
static void stms_issue(Machine *m, int64_t core, double now)
{
    Engine *e = &m->engines[core];
    Prefetched *buffer = m->pbuf + core * m->prefetch_buffer_blocks;
    int64_t *count = &m->pbuf_count[core];
    int64_t budget = m->lookahead - m->pbuf_inflight[core];
    Queued *queue = m->queues + core * m->queue_capacity;
    Queued *map = m->issued + core * m->issued_capacity;
    while (budget > 0 && e->queue_count > 0) {
        Queued head = queue[e->queue_head];
        if (e->has_paused && head.sequence > e->paused_at.sequence)
            break;
        e->queue_head = (e->queue_head + 1) % m->queue_capacity;
        e->queue_count--;
        int64_t known = issued_find(m, core, head.block);
        map[known >= 0 ? known : e->issued_count++] = head;

        int64_t block = head.block;
        if (prefetched_find(m, core, block) >= 0)
            continue;
        int64_t set = block & (m->l2_sets - 1);
        if (find(m->l2_tags + set * m->l2_ways, m->l2_count[set], block)
            >= 0) {
            m->pf_stats[PF_FILTERED]++;
            continue;
        }
        double issue_at = now > head.ready_at ? now : head.ready_at;
        if (m->dram_busy_all - issue_at > m->pf_backlog_limit) {
            m->pf_stats[PF_DROPPED]++;
            continue;
        }
        double arrival = dram_request(m, issue_at, 0);
        if (*count >= m->prefetch_buffer_blocks) {
            prefetched_drop(m, core, 0);
            m->pf_stats[PF_ERRONEOUS]++;
            charge(m, core, TC_ERRONEOUS);
        }
        Prefetched *entry = &buffer[(*count)++];
        entry->block = block;
        entry->issued_at = issue_at;
        entry->arrival = arrival;
        entry->stream = e->serial;
        m->pbuf_filter[core * PBUF_BINS + (block & (PBUF_BINS - 1))]++;
        m->pbuf_inflight[core]++;
        m->pf_stats[PF_ISSUED]++;
        budget--;
    }
}

/* StmsPrefetcher._annotate_abandoned. */
static void stms_annotate_abandoned(Machine *m, int64_t core, double now)
{
    Engine *e = &m->engines[core];
    if (!m->annotate || e->consumed_count == 0)
        return;
    if (!(e->queue_count > 0 || e->active) || !e->has_last)
        return;
    if (history_annotate(m, e->last_consumed.source_core,
                         e->last_consumed.sequence + 1, now, core))
        m->stms_counters[SC_ANNOTATIONS]++;
}

/* StmsPrefetcher._record. */
static void stms_record(Machine *m, int64_t core, int64_t block, double now,
                        int64_t bucket, int64_t tag)
{
    int64_t sequence = history_append(m, core, block, now);
    m->stms_counters[SC_CANDIDATES]++;
    if (!should_update(m))
        return;
    m->stms_counters[SC_APPLIED]++;
    bb_access(m, bucket, now, 1, TC_UPDATE, core);
    index_commit(m, bucket, tag, core, sequence);
}

/* IndexTable.bucket_of: Knuth's multiplicative hash.  The kept bits (11
 * up to 11 + log2(buckets)) of the product survive the uint64
 * wraparound for any non-negative block. */
static int64_t index_bucket(const Machine *m, int64_t block)
{
    return (int64_t)((((uint64_t)block * 2654435761u) >> 11)
                     & (uint64_t)m->index_mask);
}

/* StmsPrefetcher._on_prefetch_hit (StreamEngine.on_consumed inlined). */
static void stms_prefetch_hit(Machine *m, int64_t core, int64_t block,
                              double now)
{
    Engine *e = &m->engines[core];
    int64_t pos = issued_find(m, core, block);
    if (pos >= 0) {
        Queued *map = m->issued + core * m->issued_capacity;
        e->last_consumed = map[pos];
        e->has_last = 1;
        e->consumed_count++;
        for (int64_t i = pos; i < e->issued_count - 1; i++)
            map[i] = map[i + 1];
        e->issued_count--;
        if (e->has_paused
            && e->last_consumed.sequence >= e->paused_at.sequence)
            e->has_paused = 0;
    }
    stms_record(m, core, block, now, index_bucket(m, block),
                block & m->tag_mask);
    stms_refill(m, core, now);
    stms_issue(m, core, now);
}

/* StmsPrefetcher.on_demand_miss. */
static void stms_miss(Machine *m, int64_t core, int64_t block, double now)
{
    Engine *e = &m->engines[core];
    int64_t bucket = index_bucket(m, block), tag = block & m->tag_mask;
    if (e->has_paused && e->paused_at.block == block) {
        /* The core requested the annotated address: resume. */
        e->has_paused = 0;
        e->last_consumed = e->paused_at;
        e->has_last = 1;
        e->consumed_count++;
        m->stms_counters[SC_RESUMES]++;
        stms_record(m, core, block, now, bucket, tag);
        stms_refill(m, core, now);
        stms_issue(m, core, now);
        return;
    }

    m->pf_stats[PF_LOOKUPS]++;
    double bucket_ready = bb_access(m, bucket, now, 0, TC_LOOKUP, core);
    int64_t source = 0, sequence = 0;
    int found = index_probe(m, bucket, tag, &source, &sequence);
    int64_t recorded = history_append(m, core, block, now);
    m->stms_counters[SC_CANDIDATES]++;
    if (should_update(m)) {
        /* The lookup just fetched this bucket: an MRU hit, dirtied in
         * place. */
        m->stms_counters[SC_APPLIED]++;
        m->bb_stats[BB_HITS]++;
        /* bb_access above left the bucket in the MRU slot, and nothing
         * since has touched the bucket buffer. */
        int64_t pos = m->bb_count - 1;
        m->bb_dirty[pos] = 1;
        m->bb_core[pos] = core;
        index_commit(m, bucket, tag, core, recorded);
    }
    if (!found)
        return;
    if (!history_valid(m, source, sequence)) {
        m->stms_counters[SC_STALE_POINTERS]++;
        return;
    }
    m->pf_stats[PF_LOOKUP_HITS]++;
    stms_annotate_abandoned(m, core, now);
    engine_begin(m, core, source, sequence + 1);
    stms_refill(m, core, bucket_ready);
    stms_issue(m, core, bucket_ready);
}

/* Step 2 of off_chip: TemporalPrefetcher.consume on the core's
 * prefetch buffer; returns 1 with *entry filled on a hit. */
static int stms_consume(Machine *m, int64_t core, int64_t block, double now,
                        Prefetched *entry)
{
    int64_t pos = prefetched_find(m, core, block);
    if (pos < 0)
        return 0;
    *entry = m->pbuf[core * m->prefetch_buffer_blocks + pos];
    prefetched_drop(m, core, pos);
    m->pf_stats[PF_USEFUL]++;
    charge(m, core, TC_USEFUL);
    stms_prefetch_hit(m, core, block, now);
    return 1;
}

/* ---------------------------------------------------------------------
 * One trace record (ScalarRunState._step and _off_chip).
 * ------------------------------------------------------------------- */

static double off_chip(Machine *m, int64_t core, int64_t block, double t,
                       int dep, int write)
{
    /* 1. Stride prefetcher buffer (part of the base system). */
    if (m->use_stride && stride_probe(m, core, block)) {
        charge(m, core, TC_DEMAND);
        cover(m, core, CV_STRIDE);
        t += dep ? m->t_stride_dep : m->t_stride_indep;
        drain_writebacks(m, fill_off_chip(m, core, block, write), t);
        stride_train(m, core, block, t);
        return t;
    }

    /* 2. Temporal (STMS) prefetch buffer. */
    Prefetched entry;
    if (m->stms && stms_consume(m, core, block, t, &entry)) {
        if (entry.arrival <= t) {
            cover(m, core, CV_FULL);
            t += dep ? m->t_pf_dep : m->t_pf_indep;
        } else {
            cover(m, core, CV_PARTIAL);
            if (dep) {
                /* A demand hit on an in-flight prefetch upgrades it to
                 * demand urgency (DramChannel.peek_completion). */
                double busy = m->low_priority[core] ? m->dram_busy_all
                                                    : m->dram_busy_high;
                double start = t > busy ? t : busy;
                double peek = start + m->dram_latency + m->dram_transfer;
                t = (peek < entry.arrival ? peek : entry.arrival)
                    + m->t_pf_dep;
            } else {
                t += m->t_pf_indep;
            }
        }
        drain_writebacks(m, fill_off_chip(m, core, block, write), t);
        if (m->use_stride)
            stride_train(m, core, block, t);
        return t;
    }

    /* 3. Demand fetch. */
    double issue = t;
    double *window = m->window + core * m->miss_window;
    int64_t *outstanding = &m->window_count[core];
    if (*outstanding) {
        int64_t keep = 0;
        for (int64_t i = 0; i < *outstanding; i++)
            if (window[i] > issue)
                window[keep++] = window[i];
        *outstanding = keep;
        while (*outstanding >= m->miss_window) {
            int64_t first = 0;
            for (int64_t i = 1; i < *outstanding; i++)
                if (window[i] < window[first])
                    first = i;
            issue = window[first];
            for (int64_t i = first; i < *outstanding - 1; i++)
                window[i] = window[i + 1];
            (*outstanding)--;
        }
    }
    mshr_retire(m, issue);
    double completion;
    int64_t existing = find(m->mshr_blocks, m->mshr_count, block);
    if (existing >= 0) {
        /* Another core is already fetching this block: merge. */
        m->mshr_waiters[existing]++;
        m->mshr_stats[MS_MERGES]++;
        completion = m->mshr_complete[existing];
    } else {
        if (m->mshr_count >= m->mshr_capacity) {
            double earliest = m->mshr_complete[0];
            for (int64_t i = 1; i < m->mshr_count; i++)
                if (m->mshr_complete[i] < earliest)
                    earliest = m->mshr_complete[i];
            if (earliest > issue)
                issue = earliest;
            mshr_retire(m, issue);
        }
        completion = dram_request(m, issue, !m->low_priority[core]);
        charge(m, core, TC_DEMAND);
        int64_t slot = m->mshr_count++;
        m->mshr_blocks[slot] = block;
        m->mshr_complete[slot] = completion;
        m->mshr_waiters[slot] = 1;
        m->mshr_stats[MS_ALLOCATIONS]++;
        if (m->mshr_count > m->mshr_stats[MS_PEAK_OCCUPANCY])
            m->mshr_stats[MS_PEAK_OCCUPANCY] = m->mshr_count;
    }
    cover(m, core, CV_UNCOVERED);
    if (m->measuring) {
        if (m->track_mlp) {
            /* _IntervalAccumulator.add (completion > issue: entries at
             * or before issue were retired above). */
            double *acc = m->mlp + core * 4;
            acc[0] += completion - issue;
            m->mlp_count[core]++;
            if (acc[3] < 0) {
                acc[2] = issue;
                acc[3] = completion;
            } else if (issue <= acc[3]) {
                if (completion > acc[3])
                    acc[3] = completion;
            } else {
                acc[1] += acc[3] - acc[2];
                acc[2] = issue;
                acc[3] = completion;
            }
        }
        if (m->collect_miss_log)
            m->miss_log[m->miss_log_base[core] + m->miss_log_count[core]++] =
                block;
    }
    if (dep) {
        t = completion;
        *outstanding = 0;
    } else {
        t = issue + m->t_miss_overhead;
        window[(*outstanding)++] = completion;
    }
    drain_writebacks(m, fill_off_chip(m, core, block, write), t);
    if (m->stms)
        stms_miss(m, core, block, issue);
    if (m->use_stride)
        stride_train(m, core, block, t);
    return t;
}

static void step(Machine *m, int64_t core)
{
    int64_t i = m->cursors[core]++;
    int64_t block = m->blocks[core][i];
    int dep = m->dep[core][i];
    int write = m->write[core][i];
    double work = m->work_f64 ? ((const double *)m->work[core])[i]
                              : (double)((const float *)m->work[core])[i];
    double t = m->clocks[core] + work;
    if (m->measuring)
        m->measured_records++;
    m->demand_accesses++;

    /* L1 (always LRU). */
    int64_t set = block & (m->l1_sets - 1);
    int64_t base = (core * m->l1_sets + set) * m->l1_ways;
    int64_t n = m->l1_count[core * m->l1_sets + set];
    int64_t *stats = m->l1_stats + core * ST_COUNT;
    int64_t pos = find(m->l1_tags + base, n, block);
    if (pos >= 0) {
        uint8_t *bits = m->l1_dirty + base;
        refresh(m->l1_tags + base, bits, n, pos,
                (uint8_t)(bits[pos] || write));
        stats[ST_HITS]++;
        m->clocks[core] = t + m->t_l1_hit;
        return;
    }
    stats[ST_MISSES]++;

    /* Victim buffer. */
    if (m->victim_capacity > 0) {
        int64_t *fifo = m->victim_blocks + core * m->victim_capacity;
        uint8_t *fifo_dirty = m->victim_dirty + core * m->victim_capacity;
        int64_t *fifo_count = &m->victim_count[core];
        pos = find(fifo, *fifo_count, block);
        if (pos >= 0) {
            drop(fifo, fifo_dirty, *fifo_count, pos);
            (*fifo_count)--;
            m->victim_hits[core]++;
            int64_t writebacks = l1_fill(m, core, block, write);
            t += m->t_victim_hit;
            drain_writebacks(m, writebacks, t);
            m->clocks[core] = t;
            return;
        }
    }

    /* Shared L2 (read probe: recency refresh, dirty bit unchanged). */
    int64_t l2_set = block & (m->l2_sets - 1);
    int64_t l2_base = l2_set * m->l2_ways;
    int64_t l2_n = m->l2_count[l2_set];
    pos = find(m->l2_tags + l2_base, l2_n, block);
    if (pos >= 0) {
        uint8_t *bits = m->l2_dirty + l2_base;
        refresh(m->l2_tags + l2_base, bits, l2_n, pos, bits[pos]);
        m->l2_stats[ST_HITS]++;
        int64_t writebacks = l1_fill(m, core, block, write);
        t += dep ? m->t_l2_dep : m->t_l2_indep;
        drain_writebacks(m, writebacks, t);
        if (m->use_stride)
            stride_train(m, core, block, t);
        m->clocks[core] = t;
        return;
    }
    m->l2_stats[ST_MISSES]++;
    m->off_chip_reads++;
    m->clocks[core] = off_chip(m, core, block, t, dep, write);
}

/* Advance every core to its record limit in (clock, core) order.
 * Returns 0 when done, or 1 before a record that could outgrow the
 * next core's issued map; the caller grows the map and calls again.
 *
 * The scan over cores also finds the runner-up.  A step moves only its
 * own core's clock, so the chosen core stays first in (clock, core)
 * order, and is stepped again without a rescan, until its clock passes
 * the runner-up's or it reaches its limit. */
int64_t repro_kernel_run(Machine *m)
{
    for (;;) {
        int64_t next = -1, second = -1;
        double clock = 0.0, second_clock = 0.0;
        for (int64_t c = 0; c < m->cores; c++) {
            if (m->cursors[c] >= m->limits[c])
                continue;
            if (next < 0 || m->clocks[c] < clock) {
                second = next;
                second_clock = clock;
                next = c;
                clock = m->clocks[c];
            } else if (second < 0 || m->clocks[c] < second_clock) {
                second = c;
                second_clock = m->clocks[c];
            }
        }
        if (next < 0)
            return 0;
        do {
            if (m->stms
                && m->engines[next].issued_count + m->queue_capacity
                       > m->issued_capacity)
                return 1;
            step(m, next);
        } while (m->cursors[next] < m->limits[next]
                 && (second < 0 || m->clocks[next] < second_clock
                     || (m->clocks[next] == second_clock
                         && next < second)));
    }
}

/* ScalarRunState.reset_accounting: zero the statistics the measurement
 * boundary resets (cache, victim and prefetcher contents, MSHR stats and
 * the STMS structures' stats carry over) and start measuring. */
void repro_kernel_reset(Machine *m)
{
    for (int64_t i = 0; i < TC_COUNT; i++)
        m->traffic[i] = 0;
    for (int64_t i = 0; i < m->cores * TC_COUNT; i++)
        m->core_traffic[i] = 0;
    for (int64_t i = 0; i < CV_COUNT; i++)
        m->coverage[i] = 0;
    for (int64_t i = 0; i < m->cores * CV_COUNT; i++)
        m->core_coverage[i] = 0;
    for (int64_t i = 0; i < m->l1_cores * ST_COUNT; i++)
        m->l1_stats[i] = 0;
    for (int64_t i = 0; i < ST_COUNT; i++)
        m->l2_stats[i] = 0;
    m->off_chip_reads = m->demand_accesses = 0;
    m->dram_requests = m->dram_high = m->dram_low = 0;
    m->dram_busy_cycles = m->dram_queue_cycles = 0.0;
    if (m->use_stride)
        for (int64_t i = 0; i <= SS_DROPPED; i++)
            m->stride_stats[i] = 0;
    if (m->stms)
        for (int64_t i = 0; i <= PF_LOOKUP_HITS; i++)
            m->pf_stats[i] = 0;
    m->measuring = 1;
}

/* StmsPrefetcher.finalize then StridePrefetcher.finalize at the end of
 * the measured phase: spill every partly filled pack buffer, write back
 * the dirty resident buckets and empty the bucket buffer, and charge the
 * prefetches left in the prefetch and stride buffers as erroneous. */
void repro_kernel_finalize(Machine *m, double now)
{
    if (m->stms) {
        for (int64_t c = 0; c < m->cores; c++)
            if (m->hist_pend_count[c])
                history_spill(m, c, now);
        for (int64_t i = 0; i < m->bb_count; i++) {
            if (m->bb_dirty[i])
                bb_write_back(m, now, m->bb_core[i]);
            m->bb_member[m->bb_buckets[i]] = 0;
        }
        m->bb_count = 0;
        for (int64_t c = 0; c < m->cores; c++) {
            for (int64_t i = 0; i < m->pbuf_count[c]; i++) {
                m->pf_stats[PF_ERRONEOUS]++;
                charge(m, c, TC_ERRONEOUS);
            }
            m->pbuf_count[c] = 0;
            m->pbuf_inflight[c] = 0;
            memset(m->pbuf_filter + c * PBUF_BINS, 0,
                   PBUF_BINS * sizeof *m->pbuf_filter);
        }
    }
    if (m->use_stride)
        for (int64_t c = 0; c < m->cores; c++) {
            m->stride_stats[SS_ERRONEOUS] += m->sbuf_count[c];
            m->sbuf_count[c] = 0;
        }
}

/* ---------------------------------------------------------------------
 * Trace emitters (repro.workloads.commercial, .dss, .scientific).
 *
 * The per-record loops of the three generators, draw for draw: each
 * reads the uniforms and bounded integers the Python emitter reads, in
 * the same order, from the same PCG64 stream, and writes the same
 * records straight into the core's column arrays.  The Python emitters
 * stay the reference (tests/workloads/test_compiled_emitters.py pins
 * the equality).  The generator lives in the context's GenContext for
 * the whole trace: the set-up's bulk draws (repro_gen_*) step it too.
 * ------------------------------------------------------------------- */

/* Keep in sync with repro.sim.library.GenContext: the generator and
 * the address layout of repro.workloads.base.GeneratorContext. */
typedef struct {
    Pcg64 rng;
    int64_t hot_base, hot_blocks;
    int64_t scan_base, scan_blocks, scan_cursor;
    int64_t noise_base, noise_span, noise_cursor;
} GenContext;

/* Keep in sync with repro.sim.library.Activities: one commercial or
 * DSS generator's activity loop.  Structures are concatenated in
 * stream_blocks, structure s spanning [stream_starts[s],
 * stream_starts[s + 1]); popularity is their cumulative pick CDF. */
typedef struct {
    double activity_cdf[4]; /* stream, scan, noise, hot */
    const int64_t *stream_blocks;
    const int64_t *stream_starts;
    const double *popularity;
    int64_t streams;
    int64_t interleave; /* traversals inject visit-once records */
    int64_t hot_writes; /* hot records draw a write flag */
    int64_t scan_run, hot_run;
    double work_mean, scan_work, hot_work;
    double stream_dep_p, noise_dep_p, write_p, interleave_noise_p;
    double truncate_p;
} Activities;

/* Keep in sync with repro.sim.library.Iteration: one scientific
 * iteration (ScientificGenerator._emit_iteration). */
typedef struct {
    const int64_t *blocks;
    const uint8_t *dep;
    int64_t length;
    int64_t sweep_blocks, sweep_run;
    double work_mean, sweep_work, write_p, noise_p;
} Iteration;

/* One core's output columns, written from index `at` on. */
typedef struct {
    int64_t *blocks;
    float *work;
    uint8_t *dep;
    uint8_t *write;
    int64_t at;
} Columns;

/* Layout fingerprint repro.sim.library checks before any emitter call. */
int64_t repro_emit_abi(void)
{
    return (int64_t)sizeof(GenContext) | (int64_t)sizeof(Activities) << 16
           | (int64_t)sizeof(Iteration) << 32
           | (int64_t)sizeof(Columns) << 48;
}

/* rng.integers(0, n) for 1 <= n < 2**32 (GeneratorContext.below). */
static int64_t below(Pcg64 *g, uint64_t n)
{
    if (n == 1)
        return 0;
    uint64_t product = (uint64_t)pcg64_uint32(g) * n;
    if ((product & 0xFFFFFFFFULL) < n) {
        uint64_t threshold = ((1ULL << 32) - n) % n;
        while ((product & 0xFFFFFFFFULL) < threshold)
            product = (uint64_t)pcg64_uint32(g) * n;
    }
    return (int64_t)(product >> 32);
}

/* GeneratorContext.next_noise. */
static int64_t next_noise(GenContext *g)
{
    uint64_t mask = (uint64_t)g->noise_span - 1;
    uint64_t mixed = ((uint64_t)g->noise_cursor * 0x9E3779B1ULL) & mask;
    mixed ^= mixed >> 7;
    mixed = (mixed * 0x85EBCA6BULL) & mask;
    g->noise_cursor = (g->noise_cursor + 1) % g->noise_span;
    return g->noise_base + (int64_t)mixed;
}

static void put(Columns *c, int64_t block, double work, int dep, int write)
{
    int64_t at = c->at++;
    c->blocks[at] = block;
    c->work[at] = (float)work;
    c->dep[at] = (uint8_t)dep;
    c->write[at] = (uint8_t)write;
}

/* GeneratorContext.next_scan_run, each block a record sharing work,
 * dep and write. */
static void put_scan_run(GenContext *g, Columns *c, int64_t length,
                         double work, int write)
{
    for (int64_t i = 0; i < length; i++)
        put(c, g->scan_base + (g->scan_cursor + i) % g->scan_blocks, work, 0,
            write);
    g->scan_cursor = (g->scan_cursor + length) % g->scan_blocks;
}

/* bisect_left over the pick CDF (StreamPool.pick). */
static int64_t pick_stream(GenContext *g, const Activities *a)
{
    Pcg64 *r = &g->rng;
    double u = pcg64_double(r);
    int64_t lo = 0, hi = a->streams;
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        if (a->popularity[mid] < u)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo < a->streams - 1 ? lo : a->streams - 1;
}

/* CommercialGenerator._emit_traversal (interleave set) or
 * DssGenerator._emit_traversal. */
static void traverse(GenContext *g, const Activities *a, Columns *c)
{
    Pcg64 *r = &g->rng;
    int64_t s = pick_stream(g, a);
    for (int64_t i = a->stream_starts[s]; i < a->stream_starts[s + 1]; i++) {
        double work = a->work_mean * (0.5 + pcg64_double(r));
        int dep = pcg64_double(r) < a->stream_dep_p;
        int write = pcg64_double(r) < a->write_p;
        put(c, a->stream_blocks[i], work, dep, write);
        if (a->interleave && pcg64_double(r) < a->interleave_noise_p) {
            int64_t noise = next_noise(g);
            work = a->work_mean * (0.5 + pcg64_double(r));
            put(c, noise, work, pcg64_double(r) < a->noise_dep_p, 0);
        }
        if (pcg64_double(r) < a->truncate_p)
            break;
    }
}

/* One core of CommercialGenerator.generate / DssGenerator.generate:
 * activities until the core holds at least `records` records.  Returns
 * the record count. */
int64_t repro_emit_activities(GenContext *g, const Activities *a,
                              Columns *c, int64_t records)
{
    Pcg64 *r = &g->rng;
    while (c->at < records) {
        double u = pcg64_double(r);
        int activity = 0; /* bisect_right over the activity CDF */
        while (activity < 4 && a->activity_cdf[activity] <= u)
            activity++;
        if (activity == 0) {
            traverse(g, a, c);
        } else if (activity == 1) {
            double work = a->scan_work * (0.5 + pcg64_double(r));
            put_scan_run(g, c, a->scan_run, work, 0);
        } else if (activity == 2) {
            double work = a->work_mean * (0.5 + pcg64_double(r));
            int dep = pcg64_double(r) < a->noise_dep_p;
            int write = pcg64_double(r) < a->write_p;
            put(c, next_noise(g), work, dep, write);
        } else {
            for (int64_t i = 0; i < a->hot_run; i++) {
                int64_t block =
                    g->hot_base + below(r, (uint64_t)g->hot_blocks);
                double work = a->hot_work * (0.5 + pcg64_double(r));
                int write = a->hot_writes && pcg64_double(r) < a->write_p;
                put(c, block, work, 0, write);
            }
        }
    }
    return c->at;
}

/* ScientificGenerator._emit_iteration: the iteration's records, each
 * maybe followed by a visit-once record, then its strided sweeps.
 * Returns the core's record count. */
int64_t repro_emit_iteration(GenContext *g, const Iteration *it,
                             Columns *c)
{
    Pcg64 *r = &g->rng;
    for (int64_t i = 0; i < it->length; i++) {
        double work = it->work_mean * (0.5 + pcg64_double(r));
        int write = pcg64_double(r) < it->write_p;
        put(c, it->blocks[i], work, it->dep[i], write);
        if (pcg64_double(r) < it->noise_p) {
            int64_t noise = next_noise(g);
            put(c, noise, it->work_mean * (0.5 + pcg64_double(r)), 0, 0);
        }
    }
    for (int64_t remaining = it->sweep_blocks; remaining > 0;) {
        int64_t run = remaining < it->sweep_run ? remaining : it->sweep_run;
        double work = it->sweep_work * (0.5 + pcg64_double(r));
        int write = pcg64_double(r) < it->write_p;
        put_scan_run(g, c, run, work, write);
        remaining -= run;
    }
    return c->at;
}

/* GeneratorContext.alloc_streams' first-n-distinct pass.  Structure s
 * keeps the first lengths[s] distinct values, in draw order, of its
 * 2 * lengths[s] + 8 consecutive draws, offset by base, written
 * back to back into out.  seen holds one zero byte per drawable value
 * and is left zeroed.  Returns the number of structures completed: a
 * return below count names the structure whose draw held too few
 * distinct values. */
int64_t repro_first_distinct(const int64_t *draw, const int64_t *lengths,
                             int64_t count, uint8_t *seen, int64_t base,
                             int64_t *out)
{
    for (int64_t s = 0; s < count; s++) {
        int64_t n = lengths[s], kept = 0;
        const int64_t *end = draw + 2 * n + 8;
        for (; draw < end && kept < n; draw++)
            if (!seen[*draw]) {
                seen[*draw] = 1;
                out[kept++] = *draw;
            }
        for (int64_t i = 0; i < kept; i++) {
            seen[out[i]] = 0;
            out[i] += base;
        }
        if (kept < n)
            return s;
        draw = end;
        out += n;
    }
    return count;
}

/* ---------------------------------------------------------------------
 * Bulk draws (repro.workloads.compiled.NativeDraws): numpy.random's own
 * distributions (libnpyrandom, linked in by repro.sim.library) over a
 * bitgen_t that steps a Pcg64, so each fill returns what the same call
 * on numpy.random.Generator(PCG64) returns and leaves the same state.
 * ------------------------------------------------------------------- */

static uint64_t bitgen_uint64(void *st)
{
    return pcg64_raw(st);
}

static uint32_t bitgen_uint32(void *st)
{
    return pcg64_uint32(st);
}

static double bitgen_double(void *st)
{
    return pcg64_double(st);
}

/* numpy's PCG64 bitgen_t: next_uint64 and next_raw are the raw draw. */
static bitgen_t bitgen(Pcg64 *g)
{
    bitgen_t b = {.state = g, .next_uint64 = bitgen_uint64,
                  .next_uint32 = bitgen_uint32, .next_double = bitgen_double,
                  .next_raw = bitgen_uint64};
    return b;
}

/* Generator.integers(0, n, size) for n >= 1 (int64, Lemire's method). */
void repro_gen_integers(Pcg64 *g, int64_t n, int64_t size, int64_t *out)
{
    bitgen_t b = bitgen(g);
    random_bounded_uint64_fill(&b, 0, (uint64_t)(n - 1), (intptr_t)size,
                               false, (uint64_t *)out);
}

/* Generator.normal(loc, scale, size). */
void repro_gen_normal(Pcg64 *g, double loc, double scale, int64_t size,
                      double *out)
{
    bitgen_t b = bitgen(g);
    for (int64_t i = 0; i < size; i++)
        out[i] = random_normal(&b, loc, scale);
}

/* Generator.random(size). */
void repro_gen_random(Pcg64 *g, int64_t size, double *out)
{
    bitgen_t b = bitgen(g);
    random_standard_uniform_fill(&b, (intptr_t)size, out);
}
