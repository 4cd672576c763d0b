"""Per-layer metrics of a traced run, each given per traced operation.

Names follow ``<module>.<function>.<quantity>``: ``calls`` counts spans,
``self_s`` sums self time, ``entries`` sums matrix entries built.  Means
over calls (window sites, rank, leakage, acceptance) and ratios are noted
where they are computed.  ``cli.main.cpu_s``, ``cli.pool.speedup`` and
``trace.overhead_s`` come from the untraced repeats of each deck operation.
"""

from __future__ import annotations

import numpy as np

METRICS = (
    ("kernel.kernel_eval.calls", "count"),
    ("kernel.kernel_eval.self_s", "s"),
    ("kernel.kernel_matrix.calls", "count"),
    ("kernel.kernel_matrix.entries", "count"),
    ("kernel.kernel_matrix.self_s", "s"),
    ("kernel.coefficient_band.calls", "count"),
    ("kernel.coefficient_band.self_s", "s"),
    ("edge.exact_cdf.calls", "count"),
    ("edge.cdf_table.self_s", "s"),
    ("edge.fredholm_cdf_check.calls", "count"),
    ("edge.fredholm_cdf_check.self_s", "s"),
    ("edge.toeplitz_cdf.calls", "count"),
    ("edge.toeplitz_cdf.self_s", "s"),
    ("edge.toeplitz_cdf.failed", "count"),
    ("edge.symbol_coeffs.calls", "count"),
    ("edge.route_fredholm_ratio", "ratio"),
    ("airy.limiting_cdf.calls", "count"),
    ("airy.fredholm_F.calls", "count"),
    ("airy.fredholm_F.self_s", "s"),
    ("airy.airy_kernel_matrix.entries", "count"),
    ("airy.airy_kernel_matrix.self_s", "s"),
    ("airy.airy_values.calls", "count"),
    ("airy.airy_values.self_s", "s"),
    ("sampler.windowed_kernel.self_s", "s"),
    ("sampler.windowed_kernel.sites", "count"),
    ("sampler.windowed_kernel.rank", "count"),
    ("sampler.windowed_kernel.leakage", "count"),
    ("sampler.sample.calls", "count"),
    ("sampler.sample.self_s", "s"),
    ("unitary.metropolis_chain.self_s", "s"),
    ("unitary.proposals", "count"),
    ("unitary.s_per_proposal", "s"),
    ("unitary.acceptance_rate", "ratio"),
    ("unitary.log_joint_density.calls", "count"),
    ("unitary.log_joint_density.self_s", "s"),
    ("potential.edge_profile.calls", "count"),
    ("potential.edge_profile.self_s", "s"),
    ("potential.global_extrema.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.main.cpu_s", "s"),
    ("cli.pool.speedup", "ratio"),
    ("trace.overhead_s", "s"),
)

# quantities averaged over the calls of their function, not per operation
_PER_CALL = {
    "sampler.windowed_kernel.sites": "sampler.windowed_kernel",
    "sampler.windowed_kernel.rank": "sampler.windowed_kernel",
    "sampler.windowed_kernel.leakage": "sampler.windowed_kernel",
    "unitary.acceptance_rate": "unitary.metropolis_chain",
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, table, own, n_ops, steady):
    """Metrics in METRICS over ``n_ops`` traced operations.

    ``table`` and ``own`` are the tracer's span table and its self times;
    ``steady`` holds (untraced, untraced --threads 1, traced) records of the
    deck operations.
    """
    nid = table[:, 1].astype(np.int64)
    size = len(tracer.names)
    index = {name: i for i, name in enumerate(tracer.names)}
    calls = dict(zip(tracer.names, np.bincount(nid, minlength=size).tolist()))
    self_s = dict(zip(tracer.names, np.bincount(
        nid, weights=own, minlength=size).tolist()))
    raised = dict(zip(tracer.names, np.bincount(
        nid, weights=table[:, 6], minlength=size).tolist()))
    quantities = tracer.quantities

    exact = nid == index.get("edge.exact_cdf", -1)
    parents = table[nid == index.get("edge.fredholm_cdf_check", -1), 2]
    parents = parents[parents >= 0].astype(np.int64)
    via_fredholm = np.unique(parents[exact[parents]])

    plain = sum(p.wall for p, _, _ in steady)
    special = {
        "edge.toeplitz_cdf.failed": raised.get("edge.toeplitz_cdf", 0.0) / n_ops,
        "edge.route_fredholm_ratio": _ratio(len(via_fredholm), int(exact.sum())),
        "unitary.proposals": quantities.get("unitary.proposals", 0.0) / n_ops,
        "unitary.s_per_proposal": _ratio(self_s.get("unitary.metropolis_chain", 0.0),
                                         quantities.get("unitary.proposals", 0.0)),
        "cli.main.cpu_s": _ratio(sum(p.cpu for p, _, _ in steady), len(steady)),
        "cli.pool.speedup": _ratio(sum(s.wall for _, s, _ in steady), plain),
        "trace.overhead_s": _ratio(sum(t.wall for _, _, t in steady) - plain,
                                   len(steady)),
    }
    out = {}
    for metric, unit in METRICS:
        if metric in special:
            value = special[metric]
        elif metric in _PER_CALL:
            value = _ratio(quantities.get(metric, 0.0),
                           calls.get(_PER_CALL[metric], 0))
        else:
            function, quantity = metric.rsplit(".", 1)
            value = {"calls": calls.get(function, 0),
                     "self_s": self_s.get(function, 0.0),
                     "entries": quantities.get(metric, 0.0)}[quantity] / n_ops
        out[metric] = (float(value), unit)
    return out
