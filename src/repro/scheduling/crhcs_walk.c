/* The CrHCS host kernels: the PE-aware build and the ring walk.
 *
 * pe_aware_build is repro.scheduling.pe_aware.pe_aware_elements and
 * crhcs_walk is phases 1 and 2 of repro.scheduling.crhcs.migrate_elements,
 * element for element and slot for slot.  The NumPy build and the Python
 * walk stay as the reference and as the only path on hosts without a C
 * compiler.  The loader in walk_kernel.py builds this file into a shared
 * library on first use and calls each entry point once per tile through
 * ctypes.  Every argument is a scalar or an int64 buffer that the caller
 * allocated, sized from the data, so the kernels allocate nothing and touch
 * no Python object (ctypes releases the interpreter lock for the call).
 * Each checks every input before it writes anything.
 *
 * A slot is the flat id cycle * pes + pe of an element in its channel.
 */

#include <stdint.h>
#include <string.h>

/* Stable LSD radix sort of order[0..n) by key[order[i]], eight bits a
 * pass, for keys in [0, max].  spare is n words of work space; returns
 * whichever of order and spare holds the result. */
static int64_t *sort_by(const int64_t *key, int64_t max, int64_t *order,
                        int64_t *spare, int64_t n)
{
    for (int shift = 0; shift < 63 && (max >> shift) > 0; shift += 8) {
        int64_t count[257] = {0}, *swap;
        int skip = 0;

        for (int64_t i = 0; i < n; i++)
            count[((key[order[i]] >> shift) & 255) + 1]++;
        for (int d = 0; d < 256; d++) {
            skip |= count[d + 1] == n;  /* one digit: the pass is a no-op */
            count[d + 1] += count[d];
        }
        if (skip)
            continue;
        for (int64_t i = 0; i < n; i++)
            spare[count[(key[order[i]] >> shift) & 255]++] = order[i];
        swap = order;
        order = spare;
        spare = swap;
    }
    return order;
}

/* The largest of values[0..n), or -1 when one is negative or n is 0. */
static int64_t max_of(const int64_t *values, int64_t n)
{
    int64_t max = n ? 0 : -1;

    for (int64_t i = 0; i < n; i++) {
        if (values[i] < 0)
            return -1;
        if (values[i] > max)
            max = values[i];
    }
    return max;
}

/* The PE-aware build of one tile of n >= 1 elements (rows, cols, values;
 * values are moved as 64-bit words).  Writes the element table into table
 * (six n-word fields, channel-major in stream order: channel, slot, row,
 * col, value, PE) and each channel's list length into lengths.  work holds
 * 2n words.  Returns 0, -1 when a scalar is out of range or -2 when a
 * coordinate is negative, before any write.
 *
 * Row r maps to global PE g = r % total_pes (channel g / pes, PE g % pes)
 * at position p = r / total_pes, in round-robin window p / distance and
 * lane p % distance.  A PE's rows ascend; each window of them rotates
 * until its longest row drains, so element k of row r sits at cycle
 * base + lane + distance * k, base being the spans of the PE's earlier
 * windows. */
int64_t pe_aware_build(
    int64_t channels, int64_t pes, int64_t distance, int64_t n,
    const int64_t *rows, const int64_t *cols, const int64_t *values,
    int64_t *table, int64_t *lengths, int64_t *work)
{
    int64_t total_pes, max_row, max_col, max_slot = 0;
    int64_t *order = work, *spare = work + n;
    int64_t *out_channels = table, *out_slots = table + n;
    int64_t *out_rows = table + 2 * n, *out_cols = table + 3 * n;
    int64_t *out_values = table + 4 * n, *out_pes = table + 5 * n;
    /* Until the last gather, the row, col and value fields hold each
     * element's channel, slot and PE by input index, and the channel
     * field the stream sort's key. */
    int64_t *by_input_channel = out_rows, *by_input_slot = out_cols;
    int64_t *by_input_pe = out_values, *key = out_channels;

    if (channels < 1 || pes < 1 || distance < 1 || n < 1
        || pes > INT64_MAX / channels)
        return -1;
    total_pes = channels * pes;
    /* Every cycle is below distance * n, so every stream key fits. */
    if (distance > INT64_MAX / total_pes / n)
        return -1;
    max_row = max_of(rows, n);
    max_col = max_of(cols, n);
    if (max_row < 0 || max_col < 0)
        return -2;

    /* (global PE, row, column) order, ties in input order.  When every
     * row is its own PE's, the row order is that order already. */
    for (int64_t i = 0; i < n; i++)
        order[i] = i;
    order = sort_by(cols, max_col, order, spare, n);
    spare = order == work ? work + n : work;
    order = sort_by(rows, max_row, order, spare, n);
    spare = order == work ? work + n : work;
    if (max_row >= total_pes) {
        for (int64_t i = 0, row = -1, gpe = 0; i < n; i++) {
            if (rows[order[i]] != row) {
                row = rows[order[i]];
                gpe = row % total_pes;
            }
            key[order[i]] = gpe;
        }
        order = sort_by(key, total_pes - 1, order, spare, n);
        spare = order == work ? work + n : work;
    }

    /* One pass over the rows in that order: a window's base is known
     * when it opens, and its rotation count, its longest row, when it
     * closes. */
    for (int64_t c = 0; c < channels; c++)
        lengths[c] = 0;
    for (int64_t i = 0, row = -1, gpe = -1, window = -1, base = 0,
         rotations = 0, channel = 0, pe = 0, cycle = 0, k = 0; i < n; i++) {
        int64_t element = order[i], slot;

        if (rows[element] != row) {
            int64_t position;

            row = rows[element];
            position = row / total_pes;
            if (row - position * total_pes != gpe) {
                gpe = row - position * total_pes;
                channel = gpe / pes;
                pe = gpe - channel * pes;
                window = position / distance;
                base = rotations = 0;
            } else if (position / distance != window) {
                window = position / distance;
                base += rotations * distance;
                rotations = 0;
            }
            cycle = base + position - window * distance;
            k = 0;
        }
        slot = cycle * pes + pe;
        by_input_channel[element] = channel;
        by_input_slot[element] = slot;
        by_input_pe[element] = pe;
        if (slot > max_slot)
            max_slot = slot;
        if (cycle + 1 > lengths[channel])
            lengths[channel] = cycle + 1;
        cycle += distance;
        if (++k > rotations)
            rotations = k;
    }

    /* Channel-major stream order: the slots are distinct per channel. */
    for (int64_t i = 0; i < n; i++)
        key[i] = by_input_channel[i] * (max_slot + 1) + by_input_slot[i];
    order = sort_by(key, channels * (max_slot + 1) - 1, order, spare, n);
    for (int64_t s = 0; s < n; s++) {
        int64_t element = order[s];

        out_channels[s] = by_input_channel[element];
        out_slots[s] = by_input_slot[element];
        out_pes[s] = by_input_pe[element];
    }
    for (int64_t s = 0; s < n; s++) {
        int64_t element = order[s];

        out_rows[s] = rows[element];
        out_cols[s] = cols[element];
        out_values[s] = values[element];
    }
    return 0;
}

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

/* The CrHCS ring migration of one tile's element table (n elements:
 * elem_channels, elem_slots, elem_rows, elem_origins), channel-major with
 * ascending slots below longest * pes in each channel.
 *
 * Out: taken and filled (n words each; one entry per take: donor slot,
 * destination hole), records (four per (destination, step),
 * destination-major: takes, raw skips, takes before the first raw skip or
 * -1, holes jumped), counts and tops (each channel's elements and last
 * occupied cycle, -1 when empty, after the ring).  work holds
 * (5 + pes) * n + 3 * channels + 4 words.  Returns the number of takes, or
 * -1, before any write, when a scalar or an element is out of range.
 *
 * Phase 1 indexes the table.  A channel's own elements (origin equal to
 * channel) that no destination has taken are its queue,
 * queue_slots/queue_rows[bounds[c] .. bounds[c] + remaining[c]),
 * ascending; the queue front is the tail.  Its foreign elements (moved in
 * by an earlier migration) are never candidates.  A row id is its rank
 * among the distinct own rows.  Phase 2 walks the ring: a take pops from
 * the tail or from inside the steal_tries window, shifting the rest down,
 * so the queue stays ascending and packed at the front of its segment.
 */
int64_t crhcs_walk(
    int64_t channels, int64_t pes, int64_t distance, int64_t span,
    int64_t steal_tries, int64_t longest, int64_t n,
    const int64_t *elem_channels, const int64_t *elem_slots,
    const int64_t *elem_rows, const int64_t *elem_origins,
    int64_t *taken, int64_t *filled, int64_t *records, int64_t *counts,
    int64_t *tops, int64_t *work)
{
    int64_t *queue_slots = work, *queue_rows = work + n;
    int64_t *foreign_slots = work + 2 * n;
    int64_t *occupied = work + 3 * n, *spare = work + 4 * n + 1;
    int64_t *bounds = work + 5 * n + 2;
    int64_t *foreign_bounds = bounds + channels + 1;
    int64_t *remaining = foreign_bounds + channels + 1;
    int64_t *expiry = remaining + channels;
    int64_t *order, max_row = -1, n_own = 0, n_foreign = 0, n_rows = 0;
    const int64_t end = longest * pes;
    const int64_t reach = distance * pes;
    int64_t base = 0;
    int64_t count = 0;

    if (channels < 2 || pes < 1 || distance < 0 || span < 1
        || span >= channels || steal_tries < 1 || longest < 0 || n < 0
        || longest > INT64_MAX / 4 / pes / channels
        || distance > INT64_MAX / 4 / pes / channels)
        return -1;
    for (int64_t i = 0; i < n; i++) {
        int64_t channel = elem_channels[i], slot = elem_slots[i];

        if (channel < 0 || channel >= channels || slot < 0 || slot >= end
            || elem_rows[i] < 0)
            return -1;
        if (i > 0 && (channel < elem_channels[i - 1]
                      || (channel == elem_channels[i - 1]
                          && slot <= elem_slots[i - 1])))
            return -1;
    }

    /* Phase 1.  The queues and the foreign slots, with their bounds. */
    for (int64_t c = 0; c <= channels; c++)
        bounds[c] = foreign_bounds[c] = 0;
    for (int64_t i = 0; i < n; i++) {
        if (elem_origins[i] == elem_channels[i]) {
            queue_slots[n_own] = elem_slots[i];
            queue_rows[n_own++] = elem_rows[i];
            bounds[elem_channels[i] + 1]++;
            if (elem_rows[i] > max_row)
                max_row = elem_rows[i];
        } else {
            foreign_slots[n_foreign++] = elem_slots[i];
            foreign_bounds[elem_channels[i] + 1]++;
        }
    }
    for (int64_t c = 0; c < channels; c++) {
        bounds[c + 1] += bounds[c];
        foreign_bounds[c + 1] += foreign_bounds[c];
        remaining[c] = bounds[c + 1] - bounds[c];
    }
    /* Row ids: each own row's rank among the distinct own rows, from one
     * radix sort of the queue rows (occupied and spare are free until the
     * walk). */
    for (int64_t i = 0; i < n_own; i++)
        occupied[i] = i;
    order = sort_by(queue_rows, max_row, occupied, spare, n_own);
    for (int64_t i = 0, row = -1; i < n_own; i++) {
        int64_t own = order[i];

        if (queue_rows[own] != row) {
            row = queue_rows[own];
            n_rows++;
        }
        queue_rows[own] = n_rows - 1;
    }
    memset(expiry, 0, (size_t)(pes * n_rows) * sizeof(int64_t));
    for (int64_t c = 0; c < channels; c++) {
        counts[c] = 0;
        tops[c] = -1;
    }

    /* Phase 2.  counts and tops gather each destination's takes and last
     * hole filled (each step fills its holes in stream order). */
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
            if (count > start) {
                counts[c] += count - start;
                if (filled[count - 1] > tops[c])
                    tops[c] = filled[count - 1];
                if (step < span) {
                    int64_t *swap;

                    n_occupied = merge(occupied, n_occupied - 1,
                                       filled + start, count - start, spare);
                    spare[n_occupied++] = end;
                    swap = occupied;
                    occupied = spare;
                    spare = swap;
                }
            }
        }
        base += (longest + distance) * pes;
    }

    /* After the ring a channel holds its foreign elements, its queue (the
     * own elements no destination took) and what its steps moved in. */
    for (int64_t c = 0; c < channels; c++) {
        int64_t foreign = foreign_bounds[c + 1] - foreign_bounds[c];
        int64_t top = tops[c];

        counts[c] += remaining[c] + foreign;
        if (remaining[c] && queue_slots[bounds[c] + remaining[c] - 1] > top)
            top = queue_slots[bounds[c] + remaining[c] - 1];
        if (foreign && foreign_slots[foreign_bounds[c + 1] - 1] > top)
            top = foreign_slots[foreign_bounds[c + 1] - 1];
        tops[c] = top < 0 ? -1 : top / pes;
    }
    return count;
}
