"""The benchmark's own arithmetic: percentiles, error accounting and
span self-time.  Pure functions over plain lists, tested by
test_stats.py."""

import math

# Percentiles the tail metric may report, highest first.  The ladder
# stops at p90: a run lasts a fixed time, so its sample count follows the
# host's speed, and a tail that climbed to p99 once a fast run passed a
# thousand samples would jump between runs of the same code.
TAIL_LADDER = (90.0, 75.0, 50.0)

# Every operation status other than "ok" is a failure of this class.
FAILURE_CLASSES = ("error", "busy", "shed", "deadline", "refused", "check_failed")


def percentile(values, p):
    """Nearest-rank percentile: the smallest value with at least p% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    s = sorted(values)
    k = max(0, math.ceil(p / 100.0 * len(s)) - 1)
    return s[k]


def beyond(values, p):
    """How many samples lie strictly above the p-th percentile value."""
    v = percentile(values, p)
    return sum(1 for x in values if x > v)


def tail(values, min_beyond=10):
    """The highest ladder percentile with at least `min_beyond` samples
    beyond it: (percentile, value, samples beyond).  With too few samples
    for any rung it falls back to the median and says so through the
    count."""
    for p in TAIL_LADDER:
        n = beyond(values, p)
        if n >= min_beyond:
            return p, percentile(values, p), n
    return 50.0, percentile(values, 50.0), beyond(values, 50.0)


def median(values):
    return percentile(values, 50.0)


def mean(values):
    return sum(values) / len(values) if values else 0.0


def host_scale(probe_ms, reference_ms, summary):
    """Factor that turns a time measured while the host-speed probe took
    `probe_ms` (its samples, summarised by "median" or "mean") into the
    time on a host where it takes `reference_ms`.  Times are multiplied
    by it, rates divided.  Without samples the factor is 1: the time as
    measured."""
    if not probe_ms:
        return 1.0
    return reference_ms / {"median": median, "mean": mean}[summary](probe_ms)


def paired_scaled(times_ms, probe_ms, reference_ms):
    """Each time scaled by the probe sample taken right after it: the
    host's state of that moment.  Times without a probe sample are
    dropped; without any probe samples the times are kept as measured."""
    if not probe_ms:
        return list(times_ms)
    return [t * reference_ms / p for t, p in zip(times_ms, probe_ms)]


def account(statuses):
    """Error accounting over operation statuses: attempted, failed, the
    error rate and the failures by class.  Unknown statuses count as
    errors, never as successes."""
    attempted = len(statuses)
    by_class = {}
    for s in statuses:
        if s == "ok":
            continue
        c = s if s in FAILURE_CLASSES else "error"
        by_class[c] = by_class.get(c, 0) + 1
    failed = sum(by_class.values())
    rate = failed / attempted if attempted else 0.0
    return {"attempted": attempted, "failed": failed, "error_rate": rate,
            "by_class": by_class}


def coverage(lo, hi, intervals):
    """Length of [lo, hi] covered by the union of `intervals`."""
    clipped = sorted((max(lo, a), min(hi, b)) for a, b in intervals
                     if min(hi, b) > max(lo, a))
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of it its
    children cover (overlapping children are counted once).  `spans` are
    (op, id, parent, name, t0, t1) tuples; returns {id: self_ms}."""
    children = {}
    for op, sid, parent, name, t0, t1 in spans:
        children.setdefault(parent, []).append((t0, t1))
    out = {}
    for op, sid, parent, name, t0, t1 in spans:
        out[sid] = (t1 - t0) - coverage(t0, t1, children.get(sid, []))
    return out


def per_op_check(spans, eps_ms=1e-6):
    """Group spans by operation and check that the self times of one
    operation add up to no more than its wall time (its root span).
    Returns (self time per span name summed over all ops, ops checked,
    list of violating op ids)."""
    selfs = self_times(spans)
    by_op, roots = {}, {}
    for s in spans:
        op, sid, parent, name, t0, t1 = s
        by_op.setdefault(op, []).append(s)
        if parent == 0:
            roots.setdefault(op, []).append((t0, t1))
    by_name, bad = {}, []
    for op, ss in by_op.items():
        wall = sum(t1 - t0 for t0, t1 in roots.get(op, []))
        total = sum(selfs[s[1]] for s in ss)
        if total > wall + eps_ms:
            bad.append(op)
        for s in ss:
            by_name[s[3]] = by_name.get(s[3], 0.0) + selfs[s[1]]
    return by_name, len(by_op), bad
