"""Turns one run's raw samples (the perfbench binary's JSON) into metrics.

Pure functions only, so perfbench/test_perfbench.py can check the rules
without building anything.
"""

import statistics

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail


def median(xs):
    return statistics.median(xs) if xs else 0.0


def tail(samples):
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, beyond, count). The value is the sample with
    exactly TAIL_BEYOND sorted samples after it, and the percentile is the
    share of samples at or below that position. With too few samples there
    is no such percentile; the maximum is returned with beyond = 0.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return (xs[-1] if xs else 0.0), 100.0, 0, n
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND, n


def end_to_end(raw):
    """Every end-to-end metric of an untraced run: name -> (value, unit)."""
    ops = raw["ops"]
    busy = raw["busy_s"]
    return {
        "setup_s": (median(raw["setup_s"]), "s"),
        "op_p50_ms": (median(raw["op_ms"]), "ms"),
        "op_tail_ms": (tail(raw["op_ms"])[0], "ms"),
        "ops_per_s": (ops / busy if busy else 0.0, "1/s"),
        "queries_per_s": (raw["queries"] / busy if busy else 0.0, "1/s"),
        "rounds_per_op": (raw["rounds"] / ops if ops else 0.0, "rounds"),
        "bits_per_op": (raw["bits"] / ops if ops else 0.0, "bits"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }


def layer_split(layers):
    """Per-op busy ms of every replayed layer and the op's self time.

    Returns (op_ms, {layer: busy_ms}, self_ms), all per traced op; the busy
    times and the self time add up to op_ms by construction.
    """
    k = layers["traced_ops"] or 1.0
    busy = {
        "comm": layers["relay_ms"] / k,
        "core.plan": layers["plan_ms"] / k,
        "linalg.kernels": layers["kernel_ms"] / k,
        "core.sparse_mm": layers["sparse_ms"] / k,
    }
    op_ms = layers["op_ms"] / k
    return op_ms, busy, op_ms - sum(busy.values())


def per_layer(raw):
    """Every per-layer metric of a traced run: name -> (value, unit)."""
    L = raw["layers"]
    k = L["traced_ops"] or 1.0
    op_ms, busy, self_ms = layer_split(L)

    def share(ms):
        return ms / op_ms if op_ms else 0.0

    classes = raw["class_hits"] + raw["class_misses"]
    untraced = median(raw["op_ms"])
    return {
        "comm.relay.calls": (L["relay_calls"] / k, "count"),
        "comm.relay.busy_ms": (busy["comm"], "ms"),
        "comm.relay.share": (share(busy["comm"]), "ratio"),
        "comm.relay.bits": (L["relay_bits"] / k, "bits"),
        "comm.relay.ns_per_kbit": (
            L["relay_ms"] * 1e6 / (L["relay_bits"] / 1e3) if L["relay_bits"] else 0.0,
            "ns/kbit"),
        "comm.rounds": (L["op_rounds"] / k, "rounds"),
        "comm.bits": (L["op_bits"] / k, "bits"),
        "core.plan.calls": (L["plan_calls"] / k, "count"),
        "core.plan.busy_ms": (busy["core.plan"], "ms"),
        "core.plan.share": (share(busy["core.plan"]), "ratio"),
        "linalg.kernels.calls": (L["kernel_calls"] / k, "count"),
        "linalg.kernels.busy_ms": (busy["linalg.kernels"], "ms"),
        "linalg.kernels.share": (share(busy["linalg.kernels"]), "ratio"),
        "linalg.kernels.ops": (L["kernel_ops"] / k, "ops"),
        "linalg.kernels.bytes": (L["kernel_bytes"] / k, "B"),
        "linalg.kernels.gops": (
            L["kernel_ops"] / (L["kernel_ms"] * 1e6) if L["kernel_ms"] else 0.0, "Gop/s"),
        "core.protocol.self_ms": (self_ms, "ms"),
        "core.protocol.share": (share(self_ms), "ratio"),
        "core.sparse_mm.busy_ms": (busy["core.sparse_mm"], "ms"),
        "core.sparse_mm.profile_ms": (L["profile_ms"] / k, "ms"),
        "core.sparse_mm.announce_rounds": (L["announce_rounds"] / k, "rounds"),
        "core.sparse_mm.sparse_branch_ratio": (
            L["sparse_taken"] / L["sparse_attempts"] if L["sparse_attempts"] else 0.0,
            "ratio"),
        "core.query_service.hit_batch_ms": (median(raw["hit_ms"]), "ms"),
        "core.query_service.miss_batch_ms": (median(raw["miss_ms"]), "ms"),
        "core.query_service.hit_ratio": (raw["class_hits"] / classes if classes else 0.0,
                                         "ratio"),
        "core.query_service.evictions": (
            raw["evictions"] / raw["ops"] if raw["ops"] else 0.0, "1/op"),
        "core.query_service.resident_words": (raw["resident_words_max"], "words"),
        "core.query_service.mutate_us": (median(raw["mutate_us"]), "us"),
        "graph.generate_ms": (median(raw["generate_ms"]), "ms"),
        "trace.overhead": (
            median(raw["traced_op_ms"]) / untraced if untraced else 0.0, "ratio"),
    }


def layer_table(raw):
    """The traced run's per-layer split as printable lines."""
    op_ms, busy, self_ms = layer_split(raw["layers"])
    lines = ["%-16s %12s %8s" % ("layer", "ms/op", "share")]
    for name, ms in list(busy.items()) + [("core.protocol", self_ms)]:
        lines.append("%-16s %12.3f %7.1f%%" % (name, ms, 100 * ms / op_ms if op_ms else 0))
    lines.append("%-16s %12.3f %7.1f%%" % ("op", op_ms, 100.0))
    return lines
