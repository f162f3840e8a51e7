"""Regenerates the §5.3 availability-through-failover timeline (extension)."""


def test_ext_failover_timeline(exhibit):
    table = exhibit("ext-failover")[0]
    rows = table.as_dicts()
    phases = [r["phase"] for r in rows]
    # Full service before the crash, a bounded dip, then recovery.
    assert phases[0] == "before crash"
    assert "election window" in phases
    assert phases[-1] == "recovered"
    # Recovery throughput returns to the same order as pre-crash.
    pre = max(r["ok ops"] for r in rows if r["phase"] == "before crash")
    post = max(r["ok ops"] for r in rows if r["phase"] == "recovered")
    assert post > 0.6 * pre
    # The dip is bounded: at most a handful of windows (election ~100 ms).
    assert phases.count("election window") <= 8
    print(table.render())
