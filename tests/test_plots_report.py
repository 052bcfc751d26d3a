"""The ASCII figure renderer and the report CLI."""


from repro.bench.plots import _fmt_size, figure3, figure4, render_figure


def test_render_empty():
    out = render_figure("t", {})
    assert "no data" in out


def test_render_basic_structure():
    out = render_figure("My Chart", {"A": [(1, 1.0), (10, 2.0)],
                                     "B": [(1, 2.0), (10, 4.0)]},
                        width=40, height=8, y_label="things")
    lines = out.splitlines()
    assert "My Chart" in lines[0]
    assert "1=A" in lines[0] and "2=B" in lines[0]
    assert any("1" in line for line in lines[1:])
    assert any("2" in line for line in lines[1:])
    assert "y: things" in out


def test_render_collision_marker():
    out = render_figure("t", {"A": [(1, 1.0)], "B": [(1, 1.0)]},
                        width=20, height=5)
    assert "*" in out  # both series share the cell


def test_size_ticks():
    assert _fmt_size(256) == "256"
    assert _fmt_size(1024) == "1K"
    assert _fmt_size(65536) == "64K"
    assert _fmt_size(1 << 20) == "1M"


def _fake_result(approach, size, lat_us, bw):
    return {"approach": approach, "size_bytes": size,
            "notify_latency_ns": lat_us * 1000.0, "bandwidth_mb_s": bw}


def test_figure3_groups_series():
    results = [_fake_result(a, s, 10.0 * a, 0)
               for a in (1, 2) for s in (256, 1024)]
    out = figure3(results)
    assert "1=A1" in out and "2=A2" in out
    assert "latency" in out


def test_figure4_uses_bandwidth():
    results = [_fake_result(1, 1024, 10.0, 102.4),
               _fake_result(1, 4096, 20.0, 204.8)]
    out = figure4(results)
    assert "MB/s" in out


def test_report_cli_mechanisms(capsys):
    from repro.bench.report import main
    assert main(["--only", "mechanisms"]) == 0
    out = capsys.readouterr().out
    assert "Mechanism microbenchmarks" in out
    assert "express" in out


def test_report_cli_shm(capsys):
    from repro.bench.report import main
    assert main(["--only", "shm"]) == 0
    out = capsys.readouterr().out
    assert "S-COMA" in out and "NUMA" in out


def test_report_shows_known_records_without_measuring(monkeypatch, capsys):
    from repro.bench import report
    from repro.bench.harness import FIG_SIZES

    def measured(*args, **kwargs):
        raise AssertionError("a recorded point was measured again")

    monkeypatch.setattr(report, "block_transfer_point", measured)
    monkeypatch.setattr(report, "measure", measured)
    occupancy = {"sender_ap": 0.5, "sender_sp": 0.25, "receiver_ap": 0.0,
                 "receiver_sp": 0.125}
    points = [{"approach": a, "size_bytes": s, "notify_latency_ns": 1e3 * a,
               "bandwidth_mb_s": s / a, "verified": True,
               "occupancy": occupancy}
              for a in report.APPROACHES
              for s in sorted({*FIG_SIZES, report.OCC_SIZE})]
    records = {
        "blocks": {"points": points},
        "mechanisms": {"express_ns": 1.0, "basic_ns": {"8": 2.0, "88": 3.0},
                       "basic_stream": {"mb_per_s": 4.0}, "mpi_ns": 5.0},
        "shm": {"latency": {"numa_read": 6.0, "scoma_cold": 7.0,
                            "scoma_warm": 8.0}},
    }
    assert report.main(["--plot"], records=records) == 0
    out = capsys.readouterr().out
    assert "Figure 3" in out and "Occupancy during an 8 KB transfer" in out
    assert "Mechanism microbenchmarks" in out and "S-COMA" in out
