"""Regenerates Figure 12: throughput of object ops and directory reads."""


def test_fig12_read_throughput(exhibit, rows_by):
    table = exhibit("fig12")[0]
    by_op = rows_by(table, "op")
    for op, row in by_op.items():
        # Paper ordering: Tectonic < InfiniFS < (LocoFS, Mantle).
        assert row["tectonic"] < row["infinifs"] < row["mantle"], op
        assert row["mantle/tectonic"] > 2.0, op
    # Lookup-bound ops: Mantle beats LocoFS; create is the closest race.
    assert by_op["objstat"]["mantle/locofs"] > 1.0
    assert by_op["dirstat"]["mantle/locofs"] > 1.0
    assert by_op["create"]["mantle/locofs"] > 0.8
    print(table.render())
