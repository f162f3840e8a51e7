"""Regenerates Figure 19: scalability vs namespace size and client count."""


def test_fig19_scalability(exhibit):
    tables = exhibit("fig19")
    size_table, client_table = tables[0], tables[1]
    # Fig 19a: throughput is flat in namespace size (within 15%).
    for column in ("objstat", "create"):
        values = size_table.column(column)
        assert max(values) <= 1.15 * min(values), (column, values)

    rows = client_table.as_dicts()
    biggest = max(rows, key=lambda r: r["clients"])
    smallest = min(rows, key=lambda r: r["clients"])
    # Fig 19b: leader-only objstat saturates while replicas keep scaling;
    # at the largest client count learners beat leader-only clearly.
    assert biggest["learners/no-follower speedup"] > 1.5
    assert biggest["objstat +learners"] > biggest["objstat +followers"] * 0.9
    # create grows from low to high client counts, then caps at TafDB.
    assert biggest["create"] > smallest["create"]
    print(size_table.render())
    print(client_table.render())
