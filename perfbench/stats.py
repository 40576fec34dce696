"""Summary statistics and naming rules shared by the benchmark and its
tests."""

import json
import math
import re
import statistics

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# A tail needs this many samples beyond it to mean anything.
TAIL_BEYOND = 10


def valid_name(name):
    return bool(NAME_RE.match(name))


def valid_unit(unit):
    return bool(UNIT_RE.match(unit))


def tail_rank(n):
    """1-based rank of the tail sample among ``n`` sorted samples: the
    highest one with at least ``TAIL_BEYOND`` samples beyond it, or
    ``None`` when there are too few samples for a tail."""
    rank = n - TAIL_BEYOND
    return rank if rank >= 1 else None


def tail_percentile(n):
    """The percentile ``tail`` reports at ``n`` samples, rounded down
    (p95 at 200 samples, p61 at 26)."""
    rank = tail_rank(n)
    return None if rank is None else math.floor(100 * rank / n)


def p50(values):
    return statistics.median(values)


def tail(values):
    """The sample at ``tail_rank``; needs at least 11 samples."""
    rank = tail_rank(len(values))
    if rank is None:
        raise ValueError("a tail needs at least %d samples" % (TAIL_BEYOND + 1))
    return sorted(values)[rank - 1]


def windowed_tail(values, window):
    """Median over the consecutive full ``window``-sample windows of
    ``values`` of each window's ``tail``."""
    tails = [tail(values[i:i + window])
             for i in range(0, len(values) - window + 1, window)]
    return statistics.median(tails)


def latencies(records):
    """Latency of each record in seconds; a failed request counts as
    infinitely late, so it misses every limit and can only push the
    percentiles up."""
    return [r.latency_s if r.ok else math.inf for r in records]


def cpu_times(records):
    """Server CPU seconds of each record (see ``loadgen.closed_loop``); a
    failed request counts as infinitely expensive, like its latency."""
    return [r.cpu_s if r.ok else math.inf for r in records]


def slo_share(records, limit_s):
    """Share of attempted requests answered correctly within ``limit_s``."""
    if not records:
        return 0.0
    return sum(1 for x in latencies(records) if x <= limit_s) / len(records)


def classify(body):
    """``submit`` for a /run body carrying an inline spec, ``hot`` for
    one naming a built-in benchmark."""
    doc = json.loads(body)
    if "spec" in doc:
        return "submit"
    if "bench" in doc:
        return "hot"
    raise ValueError("neither a spec nor a benchmark request")
