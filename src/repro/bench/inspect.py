"""Cluster introspection: where did the simulated time and CPU go?

After a workload run, :func:`host_utilization_table` summarises every
host's CPU utilisation and fsync counts.
"""

from __future__ import annotations

from typing import List

from repro.bench.report import Table


def _hosts_of(system) -> List:
    hosts = []
    tafdb = getattr(system, "tafdb", None)
    if tafdb is not None:
        hosts.extend(tafdb.hosts)
    group = getattr(system, "index_group", None) or \
        getattr(system, "dir_group", None)
    if group is not None:
        seen = set()
        for node in group.nodes.values():
            if id(node.host) not in seen:
                seen.add(id(node.host))
                hosts.append(node.host)
    coordinator = getattr(system, "coordinator", None)
    if coordinator is not None:
        hosts.append(coordinator.host)
    for entry in getattr(system, "proxies", []):
        host = entry.host if hasattr(entry, "host") else entry[0]
        hosts.append(host)
    return hosts


def host_utilization_table(system, elapsed_us: float) -> Table:
    """Per-host CPU utilisation and fsync counts over ``elapsed_us``."""
    table = Table(
        f"host utilisation over {elapsed_us / 1000:.1f} ms "
        f"({getattr(system, 'name', 'system')})",
        ["host", "cores", "cpu busy ms", "utilisation %", "fsyncs"])
    for host in _hosts_of(system):
        table.add_row(
            host.name, host.cores,
            round(host.cpu_busy_us / 1000, 2),
            round(100 * host.utilization(elapsed_us), 1),
            host.fsync_count)
    return table

