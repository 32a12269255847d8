/*
 * Compiled event kernel for cells without a temporal prefetcher.
 *
 * A direct port of the scalar reference engine's per-record model
 * (repro.sim.engine._RunState._step / _off_chip) for the base system:
 * LRU L1s with FIFO victim buffers, the inclusive LRU L2, the L2 MSHR
 * file, the per-core miss window, the two-priority DRAM channel and
 * the stride prefetcher, plus every counter the Python objects keep.
 * Records are processed one at a time in the scalar heap's
 * (clock, core) order, so the result is bit-identical to the reference
 * by construction; the differential suite pins it.
 *
 * Build: cc -O2 -ffp-contract=off -shared -fPIC (no fast-math), so
 * every floating-point operation rounds exactly as Python's does.
 *
 * Ordered structures (cache sets, victim FIFOs, MSHR entries, stride
 * trackers and buffers) are flat arrays kept in the insertion/recency
 * order of the Python dicts they mirror: index 0 is the oldest entry.
 * repro.sim.native packs the Python objects into these buffers before
 * a phase and unpacks them afterwards.
 *
 * L1-copy masks are not stored: a core's bit in the Python map is set
 * exactly when that core's L1 holds the block, so an inclusive L2
 * eviction probes every L1 instead.
 */

#include <stdint.h>

#define BLOCK_BYTES 64

/* Keep in sync with repro.sim.native.Machine (same order, same types). */
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

    /* Accounting. */
    int64_t demand_accesses, off_chip_reads, measured_records;
    int64_t traffic_demand, traffic_writeback;
    int64_t *core_traffic;  /* [cores][2]: demand read, writeback bytes */
    int64_t coverage_stride, coverage_uncovered;
    int64_t *core_coverage; /* [cores][2]: stride covered, uncovered */
    double *mlp;            /* [cores][4]: total, union, start, end */
    int64_t *mlp_count;
    int64_t *miss_log;      /* core c appends at miss_log_base[c] */
    const int64_t *miss_log_base;
    int64_t *miss_log_count;
} Machine;

int64_t repro_kernel_abi(void) { return (int64_t)sizeof(Machine); }

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
    m->traffic_writeback += BLOCK_BYTES;
    m->core_traffic[core * 2 + 1] += BLOCK_BYTES;
    return 1;
}

/* CmpHierarchy._l2_fill; returns the write-backs it caused. */
static int64_t l2_fill(Machine *m, int64_t block, int dirty, int64_t core)
{
    int64_t set = block & (m->l2_sets - 1);
    int64_t base = set * m->l2_ways;
    int64_t *tags = m->l2_tags + base;
    uint8_t *bits = m->l2_dirty + base;
    int64_t n = m->l2_count[set];
    int64_t pos = find(tags, n, block);
    if (pos >= 0) {
        refresh(tags, bits, n, pos, (uint8_t)(bits[pos] || dirty));
        return 0;
    }
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

/* CmpHierarchy.fill_off_chip. */
static int64_t fill_off_chip(Machine *m, int64_t core, int64_t block,
                             int dirty)
{
    int64_t writebacks = l2_fill(m, block, 0, core);
    return writebacks + l1_fill(m, core, block, dirty);
}

/* ---------------------------------------------------------------------
 * Stride prefetcher (StridePrefetcher).
 * ------------------------------------------------------------------- */

enum { SS_TRAINED, SS_ISSUED, SS_USEFUL, SS_ERRONEOUS, SS_DROPPED };

/* Tracker entries are 4 int64s: region, last block, stride, confirms. */
static void tracker_drop_oldest(int64_t *entries, int64_t *count)
{
    for (int64_t i = 0; i < (*count - 1) * 4; i++)
        entries[i] = entries[i + 4];
    (*count)--;
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
    for (int64_t i = 0; i < *tracked; i++)
        if (entries[i * 4] == region)
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
    int64_t pos = -1;
    for (int64_t i = 0; i < *count; i++)
        if (entries[i * 4] == region) {
            pos = i;
            break;
        }
    if (pos < 0) {
        if (*count >= m->tracker_entries)
            tracker_drop_oldest(entries, count);
        tracker_append(entries, count, region, block, 0, 0);
        m->stride_stats[SS_TRAINED]++;
        return;
    }
    /* LRU refresh: move the region's entry to the newest slot. */
    int64_t entry[4];
    for (int k = 0; k < 4; k++)
        entry[k] = entries[pos * 4 + k];
    for (int64_t i = pos * 4; i < (*count - 1) * 4; i++)
        entries[i] = entries[i + 4];
    int64_t *last = entries + (*count - 1) * 4;
    for (int k = 0; k < 4; k++)
        last[k] = entry[k];

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
 * One trace record (_RunState._step and _off_chip).
 * ------------------------------------------------------------------- */

static double off_chip(Machine *m, int64_t core, int64_t block, double t,
                       int dep, int write)
{
    /* 1. Stride prefetcher buffer (part of the base system). */
    if (m->use_stride && stride_probe(m, core, block)) {
        m->traffic_demand += BLOCK_BYTES;
        m->core_traffic[core * 2] += BLOCK_BYTES;
        if (m->measuring) {
            m->coverage_stride++;
            m->core_coverage[core * 2]++;
        }
        t += dep ? m->t_stride_dep : m->t_stride_indep;
        drain_writebacks(m, fill_off_chip(m, core, block, write), t);
        stride_train(m, core, block, t);
        return t;
    }

    /* 2. No temporal prefetcher in this kernel.  3. Demand fetch. */
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
        m->traffic_demand += BLOCK_BYTES;
        m->core_traffic[core * 2] += BLOCK_BYTES;
        int64_t slot = m->mshr_count++;
        m->mshr_blocks[slot] = block;
        m->mshr_complete[slot] = completion;
        m->mshr_waiters[slot] = 1;
        m->mshr_stats[MS_ALLOCATIONS]++;
        if (m->mshr_count > m->mshr_stats[MS_PEAK_OCCUPANCY])
            m->mshr_stats[MS_PEAK_OCCUPANCY] = m->mshr_count;
    }
    if (m->measuring) {
        m->coverage_uncovered++;
        m->core_coverage[core * 2 + 1]++;
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

/* Advance every core to its record limit in (clock, core) order. */
void repro_kernel_run(Machine *m)
{
    for (;;) {
        int64_t next = -1;
        double clock = 0.0;
        for (int64_t c = 0; c < m->cores; c++) {
            if (m->cursors[c] >= m->limits[c])
                continue;
            if (next < 0 || m->clocks[c] < clock) {
                next = c;
                clock = m->clocks[c];
            }
        }
        if (next < 0)
            return;
        step(m, next);
    }
}
