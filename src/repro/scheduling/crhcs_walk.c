/* The CrHCS ring walk (phase 2 of repro.scheduling.crhcs.migrate_elements).
 *
 * Slot for slot the Python walk in crhcs.py, which stays as the reference
 * and as the only walk on hosts without a C compiler.  The loader in
 * walk_kernel.py builds this file into a shared library on first use and
 * calls crhcs_walk once per tile through ctypes.  Every argument is a
 * scalar or an int64 buffer that the caller allocated at its exact size,
 * so the kernel allocates nothing and touches no Python object (ctypes
 * releases the interpreter lock for the call).  It checks its scalars,
 * bounds and row ids before it writes anything.
 *
 * A slot is the flat id cycle * pes + pe; end = longest * pes closes every
 * list.  Channel c's own elements that no destination has taken (its
 * queue) are queue_slots/queue_rows[bounds[c] .. bounds[c] + remaining[c]),
 * ascending; the queue front is the tail.  A take pops from the tail or
 * from inside the steal_tries window, shifting the rest down, so the
 * queue stays ascending and packed at the front of its segment.
 */

#include <stdint.h>
#include <string.h>

/* The first index in [lo, hi] whose slot is >= target; slots[hi] is the
 * end sentinel and target <= end, so the answer never passes it. */
static int64_t bisect_left(const int64_t *slots, int64_t target,
                           int64_t lo, int64_t hi)
{
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        if (slots[mid] < target)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* Merge ascending a[0..na) and b[0..nb) into out. */
static int64_t merge(const int64_t *a, int64_t na, const int64_t *b,
                     int64_t nb, int64_t *out)
{
    int64_t i = 0, j = 0, n = 0;
    while (i < na && j < nb)
        out[n++] = a[i] <= b[j] ? a[i++] : b[j++];
    while (i < na)
        out[n++] = a[i++];
    while (j < nb)
        out[n++] = b[j++];
    return n;
}

/* Segment bounds start at 0, never fall and end at total. */
static int valid_bounds(const int64_t *bounds, int64_t channels,
                        int64_t total)
{
    if (bounds[0] != 0 || bounds[channels] != total)
        return 0;
    for (int64_t c = 0; c < channels; c++)
        if (bounds[c + 1] < bounds[c])
            return 0;
    return 1;
}

/* Walk the ring.  In: n_own queued elements (bounds, queue_slots,
 * queue_rows; row ids below n_rows) and n_foreign foreign slots
 * (foreign_bounds, foreign_slots).  Work space: expiry (pes * n_rows,
 * zeroed), occupied and spare (each n_own + n_foreign + 1).  Out: taken
 * and filled (n_own each; one entry per take), records (four per
 * (destination, step), destination-major: takes, raw skips, takes before
 * the first raw skip or -1, holes jumped) and remaining (each channel's
 * queue length after the ring).  Returns the number of takes, or -1,
 * before any write, when a scalar, a bound or a row id is out of range.
 */
int64_t crhcs_walk(
    int64_t channels, int64_t pes, int64_t distance, int64_t span,
    int64_t steal_tries, int64_t longest, int64_t n_rows, int64_t n_own,
    int64_t n_foreign,
    const int64_t *bounds, int64_t *queue_slots, int64_t *queue_rows,
    const int64_t *foreign_bounds, const int64_t *foreign_slots,
    int64_t *expiry, int64_t *occupied, int64_t *spare,
    int64_t *taken, int64_t *filled, int64_t *records, int64_t *remaining)
{
    const int64_t end = longest * pes;
    const int64_t reach = distance * pes;
    int64_t base = 0;
    int64_t count = 0;

    if (channels < 2 || pes < 1 || distance < 0 || span < 1
        || span >= channels || steal_tries < 1 || longest < 0
        || !valid_bounds(bounds, channels, n_own)
        || !valid_bounds(foreign_bounds, channels, n_foreign))
        return -1;
    for (int64_t i = 0; i < n_own; i++)
        if (queue_rows[i] < 0 || queue_rows[i] >= n_rows)
            return -1;
    for (int64_t c = 0; c < channels; c++)
        remaining[c] = bounds[c + 1] - bounds[c];

    for (int64_t c = 0; c < channels; c++) {
        /* The destination's occupied slots at its turn, ascending, closed
         * by end: its foreign elements, its queue and, from its second
         * step on, what its earlier steps moved in. */
        int64_t n_occupied = merge(
            foreign_slots + foreign_bounds[c],
            foreign_bounds[c + 1] - foreign_bounds[c],
            queue_slots + bounds[c], remaining[c], occupied);
        occupied[n_occupied++] = end;

        for (int64_t step = 1; step <= span; step++) {
            int64_t donor = (c + step) % channels;
            int64_t *record = records + 4 * (c * span + step - 1);
            int64_t *slots = queue_slots + bounds[donor];
            int64_t *rows = queue_rows + bounds[donor];
            int64_t queued = remaining[donor];
            int64_t start = count, raw_skips = 0, prefix = -1;
            int64_t jumped = 0, failed = 0;
            int64_t hole = -1, pe = pes - 1, now = base - pes, until = 0;
            int64_t at = 0, busy = occupied[0];

            record[0] = 0;
            record[1] = 0;
            record[2] = -1;
            record[3] = 0;
            if (queued == 0)
                continue;
            for (;;) {
                int64_t *pe_expiry, slot;

                hole++;
                pe++;
                if (pe == pes) {
                    if (hole == end)
                        break;
                    pe = 0;
                    now += pes;
                    until = now + reach;
                }
                if (hole == busy) {
                    busy = occupied[++at];
                    continue;
                }
                pe_expiry = expiry + pe * n_rows;
                if (pe_expiry[rows[queued - 1]] <= now) {
                    queued--;
                    pe_expiry[rows[queued]] = until;
                    slot = slots[queued];
                } else {
                    int64_t width =
                        queued < steal_tries ? queued : steal_tries;
                    int64_t low = queued - width, i;

                    if (prefix < 0)
                        prefix = count - start;
                    for (i = queued - 2; i >= low; i--)
                        if (pe_expiry[rows[i]] <= now)
                            break;
                    if (i < low) {
                        int64_t target = INT64_MAX;

                        raw_skips += width;
                        if (++failed < pes)
                            continue;
                        /* A cycle's worth of holes failed against the
                         * same window: jump to the first slot at which a
                         * window row unblocks in its PE. */
                        failed = 0;
                        for (int64_t p = 0; p < pes; p++) {
                            const int64_t *p_expiry = expiry + p * n_rows;
                            for (int64_t k = low; k < queued; k++)
                                if (p_expiry[rows[k]] + p < target)
                                    target = p_expiry[rows[k]] + p;
                        }
                        target -= base;
                        if (target > hole + 1) {
                            int64_t passed, skipped;

                            if (target > end)
                                target = end;
                            passed = bisect_left(occupied, target, at,
                                                 n_occupied - 1);
                            skipped = target - hole - 1 - (passed - at);
                            jumped += skipped;
                            raw_skips += skipped * width;
                            hole = target - 1;
                            at = passed;
                            busy = occupied[at];
                            pe = hole % pes;
                            now = base + hole - pe;
                            until = now + reach;
                        }
                        continue;
                    }
                    raw_skips += queued - 1 - i;
                    pe_expiry[rows[i]] = until;
                    slot = slots[i];
                    queued--;
                    memmove(slots + i, slots + i + 1,
                            (size_t)(queued - i) * sizeof(int64_t));
                    memmove(rows + i, rows + i + 1,
                            (size_t)(queued - i) * sizeof(int64_t));
                }
                failed = 0;
                taken[count] = slot;
                filled[count] = hole;
                count++;
                if (queued == 0)
                    break;
            }
            remaining[donor] = queued;
            record[0] = count - start;
            record[1] = raw_skips;
            record[2] = prefix;
            record[3] = jumped;
            if (count > start && step < span) {
                int64_t *swap;

                n_occupied = merge(occupied, n_occupied - 1, filled + start,
                                   count - start, spare);
                spare[n_occupied++] = end;
                swap = occupied;
                occupied = spare;
                spare = swap;
            }
        }
        base += (longest + distance) * pes;
    }
    return count;
}
