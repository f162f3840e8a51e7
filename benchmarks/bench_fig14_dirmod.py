"""Regenerates Figure 14: directory-modification throughput."""


def test_fig14_dirmod_throughput(exhibit, rows_by):
    table = exhibit("fig14")[0]
    by_case = rows_by(table, "case")
    # Paper: Mantle achieves the highest throughput in every case.
    for case, row in by_case.items():
        best_baseline = max(row["tectonic"], row["infinifs"], row["locofs"])
        assert row["mantle"] >= best_baseline * 0.95, (case, row)
    # Shared-directory collapse: Tectonic's mkdir-s is a small fraction of
    # its mkdir-e (paper: 99.7% drop), and delta records keep Mantle high.
    assert by_case["mkdir-s"]["tectonic"] < 0.3 * by_case["mkdir-e"]["tectonic"]
    assert by_case["mkdir-s"]["mantle"] > 1.5 * by_case["mkdir-s"]["infinifs"]
    assert by_case["dirrename-s"]["mantle"] > \
        2 * by_case["dirrename-s"]["tectonic"]
    # LocoFS is pinned to its per-op Raft floor (paper: worst in -e cases).
    assert by_case["mkdir-e"]["locofs"] < by_case["mkdir-e"]["tectonic"]
    print(table.render())
